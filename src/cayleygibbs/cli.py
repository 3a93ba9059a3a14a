"""Command line interface.

Exit codes: 0 success, 1 usage or input error, 2 a verification ran and
failed.  All output is deterministic for fixed arguments: floats are
printed with 17 significant digits in JSON, and CSV theta values as their
shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Any, Sequence

from cayleygibbs.cosets import (
    CosetLabel,
    SubgroupSpec,
    check_cosets,
    coset_classes,
    label,
    labelled_ball,
    neighbor_counts,
)
from cayleygibbs.invariance import (
    IllDefinedSystemError,
    WeaklyPeriodicSystem,
    check_invariance,
    derive_system,
)
from cayleygibbs.solver import (
    SolutionSet,
    SolverConfig,
    Theta,
    solve_fixed_points,
    solve_i1_exact,
    sweep_to_csv,
    theta_sweep,
    verify_compatibility,
)
from cayleygibbs.words import ResourceLimitError, enumerate_ball, word_from_str, word_to_str

USAGE_ERROR = 1
VERIFICATION_FAILED = 2

# largest theta grid --range or --thetas may ask for
MAX_GRID_POINTS = 10_000
# most Newton starts --starts may ask for per theta
MAX_STARTS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; reserve 2 for failed verification."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _format_json(value: Any, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits, keys in given order."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_format_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ", ".join(_format_json(v, indent) for v in value)
        return "[" + body + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null"
    return json.dumps(value)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_spec(text: str) -> SubgroupSpec:
    """Accept strict JSON and the bare-key shorthand {k:2,s:1,A1:[1],A2:[2]}."""
    try:
        json.loads(text)
    except json.JSONDecodeError:
        text = re.sub(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)", r'\1"\2"\3', text)
    return SubgroupSpec.from_json(text)


def _load_system(args: argparse.Namespace) -> WeaklyPeriodicSystem:
    if args.system is not None:
        with open(args.system) as fh:
            return WeaklyPeriodicSystem.from_json(fh.read())
    spec = _parse_spec(args.spec)
    return derive_system(spec)


def _label_json(word_text: str, lab: CosetLabel) -> dict:
    return {
        "word": word_text,
        "class": lab.residue,
        "representative": word_to_str(lab.rep),
    }


def _solution_set_json(found: SolutionSet) -> dict:
    state_keys = [f"{i},{j}" for i, j in found.states]
    return {
        "theta": found.theta,
        "states": state_keys,
        "solutions": [
            {
                "fields": dict(zip(state_keys, sol.fields)),
                "residual": sol.residual,
                "kind": sol.kind,
                "invariant_sets": list(sol.invariant_sets),
            }
            for sol in found.solutions
        ],
    }


def _read_fields(path: str, system: WeaklyPeriodicSystem) -> list[float]:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        if len(data) != len(system.states):
            raise ValueError(f"field list must have length {len(system.states)}")
        return [_field_value(v, f"field {i}") for i, v in enumerate(data)]
    if isinstance(data, dict):
        out = []
        for i, j in system.states:
            key = f"{i},{j}"
            if key not in data:
                raise ValueError(f"field vector is missing state {key}")
            out.append(_field_value(data[key], f"field of state {key}"))
        return out
    raise ValueError("fields file must hold a JSON list or object")


def _field_value(value: object, where: str) -> float:
    """A finite JSON number; bool, null, lists, objects, NaN and infinities are refused."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} is {value!r}, not a finite number")
    return float(value)


# node fill colors by coset class; classes beyond the palette cycle
CLASS_COLORS = (
    "#1f77b4",  # class 0: blue
    "#d62728",  # class 1: red
    "#000000",  # class 2: black
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
)


def _font_color(fill: str) -> str:
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    luminance = 0.299 * r + 0.587 * g + 0.114 * b
    return "#ffffff" if luminance < 140 else "#000000"


# === subcommand handlers ===


def _cmd_ball(args) -> int:
    ball = enumerate_ball(args.k, args.radius)
    lines = [word_to_str(w) for w in ball.vertices()]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_label(args) -> int:
    spec = _parse_spec(args.spec)
    word = word_from_str(args.word)
    _emit(_format_json(_label_json(args.word, label(word, spec))) + "\n", args.out)
    return 0


def _cmd_classes(args) -> int:
    spec = _parse_spec(args.spec)
    classes = coset_classes(spec, args.radius)
    doc = {word_to_str(w): r for r in sorted(classes) for w in classes[r]}
    _emit(_format_json(doc) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    spec = _parse_spec(args.spec)
    report = check_cosets(spec, args.radius)
    doc = {
        "passed": report.passed,
        "radius": report.radius,
        "pairs_checked": report.pairs_checked,
        "closure_pairs_checked": report.closure_pairs_checked,
    }
    if report.first_violation is not None:
        doc["first_violation"] = [word_to_str(w) for w in report.first_violation]
    _emit(_format_json(doc) + "\n", args.out)
    return 0 if report.passed else VERIFICATION_FAILED


def _cmd_invariance(args) -> int:
    spec = _parse_spec(args.spec)
    report = check_invariance(spec, args.radius, limit=10)
    doc = {
        "holds": report.holds,
        "radius": report.radius,
        "words_checked": report.words_checked,
        "states_seen": report.states_seen,
        "violations": [
            {
                "x": word_to_str(v.x),
                "y": word_to_str(v.y),
                "profile_x": list(v.profile_x),
                "profile_y": list(v.profile_y),
                "shared_positions_equal": v.shared_positions_equal,
            }
            for v in report.violations
        ],
    }
    _emit(_format_json(doc) + "\n", args.out)
    if args.expect_holds and not report.holds:
        return VERIFICATION_FAILED
    return 0


def _cmd_qvec(args) -> int:
    spec = _parse_spec(args.spec)
    word = word_from_str(args.word)
    counts = neighbor_counts(word, spec)
    doc = {"word": args.word, "counts": list(counts)}
    _emit(_format_json(doc) + "\n", args.out)
    return 0


def _cmd_derive(args) -> int:
    spec = _parse_spec(args.spec)
    system = derive_system(spec)
    _emit(_format_json(json.loads(system.to_json())) + "\n", args.out)
    return 0


def _solver_config(args) -> SolverConfig:
    if args.starts < 0:
        raise ValueError(f"--starts must be >= 0, got {args.starts}")
    if args.starts > MAX_STARTS:
        raise ValueError(f"--starts {args.starts} is more than {MAX_STARTS}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return SolverConfig(starts=args.starts, rng_seed=args.seed)


def _cmd_solve(args) -> int:
    system = _load_system(args)
    found = solve_fixed_points(system, Theta(args.theta), _solver_config(args))
    _emit(_format_json(_solution_set_json(found)) + "\n", args.out)
    return 0


def _parse_thetas(args) -> list[float]:
    if args.thetas is not None:
        try:
            values = [float(v) for v in args.thetas.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"--thetas must be comma-separated numbers, got {args.thetas!r}") from None
        if not values:
            raise ValueError(f"--thetas needs at least one value, got {args.thetas!r}")
        if len(values) > MAX_GRID_POINTS:
            raise ValueError(f"--thetas has {len(values)} values, more than {MAX_GRID_POINTS}")
        return values
    parts = args.range.split(":")
    if len(parts) != 3:
        raise ValueError(f"--range must be lo:hi:step, got {args.range!r}")
    try:
        lo, hi, step = (float(v) for v in parts)
    except ValueError:
        raise ValueError(f"--range lo:hi:step must be numbers, got {args.range!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)) or step <= 0 or hi < lo:
        raise ValueError(f"--range needs finite lo <= hi and step > 0, got {args.range!r}")
    if (hi - lo) / step >= MAX_GRID_POINTS:
        raise ValueError(f"--range {args.range!r} has more than {MAX_GRID_POINTS} points")
    values = []
    v = lo
    while v <= hi + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


def _cmd_sweep(args) -> int:
    system = _load_system(args)
    cfg = _solver_config(args)
    rows = theta_sweep(system, _parse_thetas(args), cfg)
    _emit(sweep_to_csv(rows), args.out)
    return 0


def _cmd_poly(args) -> int:
    result = solve_i1_exact(Theta(args.theta))
    doc = {
        "theta": result.theta,
        "a": result.a,
        "discriminant": result.discriminant,
        "roots": list(result.roots),
        "boundary_degenerate": result.boundary_degenerate,
        "solutions": _solution_set_json(result.solution_set)["solutions"],
    }
    _emit(_format_json(doc) + "\n", args.out)
    return 0


def _cmd_compat(args) -> int:
    system = _load_system(args)
    fields = _read_fields(args.fields, system)
    report = verify_compatibility(fields, system, Theta(args.theta), args.n)
    doc = {
        "passed": report.passed,
        "n": report.n,
        "max_deviation": report.max_deviation,
        "configs_checked": report.configs_checked,
    }
    _emit(_format_json(doc) + "\n", args.out)
    return 0 if report.passed else VERIFICATION_FAILED


def _cmd_draw(args) -> int:
    spec = _parse_spec(args.spec) if args.spec is not None else None
    if spec is None:
        words = [(w, None) for w in enumerate_ball(args.k, args.radius).vertices()]
    else:
        words = list(labelled_ball(spec, args.radius))
    lines = [
        "graph cayley_ball {",
        "  // node fill encodes the coset class: 0 blue, 1 red, 2 black,",
        "  // further classes continue through a fixed palette",
        '  node [shape=circle, fontname="Helvetica"];',
    ]
    for w, t in words:
        name = word_to_str(w)
        if spec is not None:
            residue = t[0] % spec.index
            fill = CLASS_COLORS[residue % len(CLASS_COLORS)]
            lines.append(
                f'  "{name}" [style=filled, fillcolor="{fill}", '
                f'fontcolor="{_font_color(fill)}", label="{name}\\nK{residue}"];'
            )
        else:
            lines.append(f'  "{name}";')
    for w, _ in words[1:]:
        lines.append(f'  "{word_to_str(w[:-1])}" -- "{word_to_str(w)}";')
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# === parser wiring ===


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cayleygibbs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("ball", _cmd_ball, "list the words of a ball, one per line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)

    p = add("label", _cmd_label, "coset class and canonical representative of a word")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True)

    p = add("classes", _cmd_classes, "map every word of a ball to its coset class")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, required=True)

    p = add("oracle", _cmd_oracle, "brute-force left-coset verification (exit 2 on failure)")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, required=True)

    p = add("invariance", _cmd_invariance, "check successor-profile invariance")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--expect-holds",
        action="store_true",
        help="exit 2 if the invariance fails",
    )

    p = add("qvec", _cmd_qvec, "neighbor class counts of a word")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True)

    p = add("derive", _cmd_derive, "derive the weakly periodic system")
    p.add_argument("--spec", required=True)

    p = add("solve", _cmd_solve, "multistart Newton on the field equations")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--system", help="JSON file from the derive subcommand")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep", _cmd_sweep, "CSV of solution counts across theta values")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--system")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--thetas", help="comma-separated list, e.g. 0.3,0.5,0.8")
    grid.add_argument("--range", help="lo:hi:step inclusive grid")
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("poly", _cmd_poly, "exact polynomial branch of the k=2 system")
    p.add_argument("--theta", type=float, required=True)

    p = add("compat", _cmd_compat, "finite-volume compatibility check (exit 2 on failure)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--system")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--fields", required=True, help="JSON field vector (list or state map)")

    p = add("draw", _cmd_draw, "Graphviz DOT drawing of a ball, colored by class")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--k", type=int)
    source.add_argument("--spec")
    p.add_argument("--radius", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IllDefinedSystemError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFICATION_FAILED
    except (ValueError, OSError, json.JSONDecodeError, ArithmeticError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
