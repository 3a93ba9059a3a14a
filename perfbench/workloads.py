"""The four workloads: what each sets up, what one round of operations is,
and how each operation's output is checked.

In certify, sweep and compat every operation does the same work; the seed
only picks letters, solver seeds and theta values.  In refute a round holds
one spec of each of 32 groups, so every round does the same mix of work.
Round ``r`` is the same for a given seed however often it is run, so a
traced pass can repeat the untraced rounds exactly.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import reference

# check_invariance radius per k: the balls hold 6141, 4372 and 6825 words
# and cost about the same, so no k dominates a refute round.
RADIUS = {2: 11, 3: 7, 4: 6}
KS = (2, 3, 4)
LEVELS = (1, 2)

STANDARD_SPEC = "{k:2,s:1,A1:[1],A2:[2]}"
STANDARD = (2, 1, frozenset({1}), frozenset({2}))
THETA_GRID = [round(0.10 + 0.05 * i, 2) for i in range(18)]  # the sweep's 0.1:0.95:0.05
# Newton starts per theta (the CLI default is 200): a sweep then takes about
# a second, short enough for the host-speed probes around it to track the
# host.  Ten starts miss one of +-h* in about 1% of theta rows, so fifty
# miss with odds near 1e-9.
SWEEP_STARTS = 50
COMPAT_N = 3
COMPAT_CONFIGS = 2 ** reference.ball_size(2, COMPAT_N)  # one spin per vertex: 2^22
COMPAT_THETAS = 2  # theta values per run; rounds cycle through them
PERTURBATION = 0.05


@dataclass
class Op:
    run: Callable[[], object]  # the timed call into the program
    check: Callable[[object], list[str]]  # reference check, run untimed
    input: str  # what the operation is given, for messages and tests


def letter_sets(k: int):
    """Every (A1, A2) of disjoint nonempty letter sets with |A0| <= k-1."""
    letters = range(1, k + 2)
    for n1 in range(1, k + 1):
        for a1 in itertools.combinations(letters, n1):
            rest = [c for c in letters if c not in a1]
            for n2 in range(1, len(rest) + 1):
                for a2 in itertools.combinations(rest, n2):
                    if k + 1 - n1 - n2 <= k - 1:
                        yield frozenset(a1), frozenset(a2)


class Workload:
    name = ""
    probe = "python"  # host-speed probe in calibrate.py most like the hot path

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed) + parts))

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """cayleygibbs.cli.main in process, stdout captured."""
        from cayleygibbs import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        if self.tracer:
            self.tracer.count("cli.bytes_out", len(text.encode()))
        return code, text

    def setup(self) -> None:
        """Program work done once before the timed rounds."""

    def check_setup(self) -> list[str]:
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class _InvarianceWorkload(Workload):
    """Operations of check_invariance plus derive_system on a list of specs."""

    def _op(self, specs) -> Op:
        from cayleygibbs import invariance

        allow = not self.singleton

        def run():
            out = []
            for spec in specs:
                report = invariance.check_invariance(spec, RADIUS[spec.k])
                try:
                    system = invariance.derive_system(spec, allow_nonsingleton=allow)
                except invariance.IllDefinedSystemError as exc:
                    system = exc
                out.append((report, system))
            return out

        def check(out):
            errors = []
            for spec, (report, system) in zip(specs, out):
                key = (spec.k, spec.s, spec.a1, spec.a2)
                ref = reference.invariance_reference(key, RADIUS[spec.k])
                found = reference.check_invariance_report(report, key, RADIUS[spec.k], ref)
                found += reference.check_derived_system(system, ref, spec.k)
                errors += [f"{spec.to_json()}: {e}" for e in found]
            return errors

        return Op(run, check, " ".join(spec.to_json() for spec in specs))


class Certify(_InvarianceWorkload):
    """Singleton specs: the invariance property holds and the system derives.

    One operation is one letter pair A1={i}, A2={j} at k=4, checked at
    s=1 and s=2: two specs, the same work for each of the 20 pairs.  A round
    is four pairs.
    """

    name = "certify"
    singleton = True
    K = 4
    PAIRS_PER_ROUND = 4

    def setup(self) -> None:
        from cayleygibbs.cosets import SubgroupSpec

        self.pairs = [
            [SubgroupSpec(k=self.K, s=s, a1={i}, a2={j}) for s in LEVELS]
            for i, j in itertools.permutations(range(1, self.K + 2), 2)
        ]

    def round(self, r: int) -> list[Op]:
        return [self._op(pair) for pair in self.rng(r).sample(self.pairs, self.PAIRS_PER_ROUND)]


class Refute(_InvarianceWorkload):
    """Non-singleton specs: witnesses of failure, or a certified system.

    Specs are grouped by (k, s, |A0|, |A1|, |A2|): 2, 5 and 9 groups per s
    at k = 2, 3, 4.  One operation is three specs at one s, one for each k,
    taken from the i-th group of each k (i cycling through the shorter
    lists), so every operation carries a k=2, a k=3 and a k=4 spec and the
    operations cost alike.  A round is nine operations, one per k=4 group,
    with s alternating along the round and between rounds, so every round
    does nearly the same mix of work and two rounds cover every group.
    """

    name = "refute"
    singleton = False

    def setup(self) -> None:
        from cayleygibbs.cosets import SubgroupSpec

        groups = defaultdict(lambda: defaultdict(list))
        for k in KS:
            for s in LEVELS:
                for a1, a2 in letter_sets(k):
                    if len(a1) == 1 and len(a2) == 1:
                        continue
                    kind = (k + 1 - len(a1) - len(a2), len(a1), len(a2))
                    groups[(k, s)][kind].append(SubgroupSpec(k=k, s=s, a1=a1, a2=a2))
        self.groups = {key: [kinds[kind] for kind in sorted(kinds)] for key, kinds in groups.items()}

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for i in range(len(self.groups[(max(KS), LEVELS[0])])):
            s = LEVELS[(i + r) % len(LEVELS)]
            specs = []
            for k in KS:
                kinds = self.groups[(k, s)]
                specs.append(rng.choice(kinds[i % len(kinds)]))
            ops.append(self._op(specs))
        return ops


def _parse_system(text: str):
    """States and coefficient rows from the derive subcommand's JSON."""
    doc = json.loads(text)
    states = [tuple(st) for st in doc["states"]]
    rows = {
        tuple(int(p) for p in key.split(",")): {
            tuple(int(p) for p in target.split(",")): n for target, n in row.items()
        }
        for key, row in doc["counts"].items()
    }
    return states, rows


def _standard_reference():
    return reference.invariance_reference(STANDARD, RADIUS[2])


def _field_vectors(doc: dict) -> tuple[list[tuple], list[list[float]]]:
    """(states, field vectors) of a solve or poly document, in its state order."""
    keys = list(doc["solutions"][0]["fields"])
    states = [tuple(int(p) for p in key.split(",")) for key in keys]
    return states, [[sol["fields"][key] for key in keys] for sol in doc["solutions"]]


class Sweep(Workload):
    """cayleygibbs sweep over the 18-theta grid, one full sweep per operation."""

    name = "sweep"
    probe = "numpy-small"

    def setup(self) -> None:
        self.system_path = os.path.join(self.workdir, "system.json")
        code, _ = self.run_cli(["derive", "--spec", STANDARD_SPEC, "--out", self.system_path])
        if code != 0:
            raise RuntimeError(f"derive exited {code}")

    def check_setup(self) -> list[str]:
        with open(self.system_path) as fh:
            states, rows = _parse_system(fh.read())
        ref = _standard_reference()
        self.states = states
        self.M = reference.count_matrix(states, ref)
        if rows != {st: dict(ref.rows[st]) for st in ref.rows}:
            return [f"derived rows {rows} differ from the reference"]
        return []

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        solver_seed = rng.randrange(2**31)
        theta = rng.choice([t for t in THETA_GRID if reference.expected_constant_count(2, t)])
        argv = ["sweep", "--system", self.system_path, "--range", "0.1:0.95:0.05",
                "--starts", str(SWEEP_STARTS), "--seed", str(solver_seed)]

        def run():
            return self.run_cli(argv)

        def check(out):
            code, text = out
            if code != 0:
                return [f"sweep exited {code}"]
            errors, n_ti = reference.check_sweep_csv(text, THETA_GRID, 2)
            # field vectors at one seeded theta, from the solve subcommand
            code, text = self.run_cli(
                ["solve", "--system", self.system_path, "--theta", str(theta),
                 "--starts", str(SWEEP_STARTS), "--seed", str(solver_seed)]
            )
            if code != 0:
                return errors + [f"solve exited {code}"]
            states, vectors = _field_vectors(json.loads(text))
            if states != self.states:
                return errors + [f"solve states {states} differ from the system's"]
            errors += reference.check_field_vectors(vectors, self.M, theta)
            errors += reference.check_constant_solutions(vectors, 2, theta)
            constant = sum(1 for v in vectors if max(v) - min(v) < 1e-8)
            if n_ti.get(theta) != constant:
                errors.append(f"sweep n_ti={n_ti.get(theta)} but solve found {constant} at theta={theta}")
            return [f"{' '.join(argv)}: {e}" for e in errors]

        return [Op(run, check, " ".join(argv))]


class Compat(Workload):
    """cayleygibbs compat --n 3 on the poly fixed points and one perturbed vector."""

    name = "compat"
    probe = "numpy-large"

    def setup(self) -> None:
        rng = self.rng("setup")
        # only states on the two outer spheres carry a field in the check
        self.boundary_states = reference.boundary_states(STANDARD, COMPAT_N)
        self.thetas = [round(rng.uniform(0.55, 0.95), 6) for _ in range(COMPAT_THETAS)]
        self.poly = {}
        self.cases = {}  # theta -> [(fields path, expect pass)]
        for theta in self.thetas:
            code, text = self.run_cli(["poly", "--theta", str(theta)])
            if code != 0:
                raise RuntimeError(f"poly exited {code}")
            doc = json.loads(text)
            self.poly[theta] = doc
            cases = []
            fields = [sol["fields"] for sol in doc["solutions"]]
            for i, vector in enumerate(fields):
                cases.append((self._write(theta, i, vector), True))
            bad = dict(max(fields, key=lambda v: sum(v.values())))
            key = rng.choice(self.boundary_states)
            bad[key] += rng.choice((-1, 1)) * PERTURBATION
            cases.append((self._write(theta, "perturbed", bad), False))
            self.cases[theta] = cases

    def _write(self, theta, tag, fields) -> str:
        path = os.path.join(self.workdir, f"fields-{theta}-{tag}.json")
        with open(path, "w") as fh:
            json.dump(fields, fh)
        return path

    def check_setup(self) -> list[str]:
        ref = _standard_reference()
        errors = []
        for theta, doc in self.poly.items():
            states, vectors = _field_vectors(doc)
            M = reference.count_matrix(states, ref)
            errors += reference.check_field_vectors(vectors, M, theta)
            errors += reference.check_constant_solutions(vectors, 2, theta)
            if len(vectors) != 3 or len(doc["roots"]) != 2:
                errors.append(f"poly at theta={theta}: {len(vectors)} solutions, {len(doc['roots'])} roots")
        return errors

    def round(self, r: int) -> list[Op]:
        theta = self.thetas[r % len(self.thetas)]
        return [self._op(theta, path, expect) for path, expect in self.cases[theta]]

    def _op(self, theta, path, expect_pass) -> Op:
        argv = ["compat", "--spec", STANDARD_SPEC, "--theta", str(theta), "--n", str(COMPAT_N), "--fields", path]

        def run():
            return self.run_cli(argv)

        def check(out):
            code, text = out
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                return [f"compat exited {code} without a report"]
            errors = reference.check_compat(doc, code, expect_pass, COMPAT_CONFIGS)
            return [f"{' '.join(argv)}: {e}" for e in errors]

        return Op(run, check, " ".join(argv))


WORKLOADS = {w.name: w for w in (Certify, Refute, Sweep, Compat)}
