"""Reference checks computed apart from the program.

Nothing here imports ``cayleygibbs``: labels come from a naive labeller
that collapses a word onto the two class letters, reduces it and takes the
signed length mod 2s+1; balls come from a walk written here; the field
residual is plain numpy; the constant field h* comes from a bisection
written here.  Each ``check_*`` function returns a list of error strings,
empty when the program's output is right.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

Spec = tuple[int, int, frozenset, frozenset]  # (k, s, A1, A2)

RESIDUAL_TOL = 1e-10
FIELD_TOL = 1e-9


def naive_label(word, spec: Spec) -> int:
    """Collapse onto the least A1 and A2 letters, reduce, signed length mod 2s+1."""
    k, s, a1, a2 = spec
    m1, m2 = min(a1), min(a2)
    image: list[int] = []
    for c in word:
        sym = m1 if c in a1 else m2 if c in a2 else None
        if sym is None:
            continue
        if image and image[-1] == sym:
            image.pop()
        else:
            image.append(sym)
    if not image:
        return 0
    signed = len(image) if image[0] == m1 else -len(image)
    return signed % (2 * s + 1)


def ball_size(k: int, radius: int) -> int:
    """1 + sum of sphere sizes (k+1) k^(m-1)."""
    return 1 + sum((k + 1) * k ** (m - 1) for m in range(1, radius + 1))


def sphere(k: int, m: int) -> list[tuple]:
    """Words of length m: no letter repeats its predecessor."""
    words = [()]
    for _ in range(m):
        words = [w + (c,) for w in words for c in range(1, k + 2) if not w or w[-1] != c]
    return words


def boundary_states(spec: Spec, n: int) -> list[str]:
    """States "i,j" of the vertices on the spheres of radius n and n-1."""
    states = {
        (naive_label(w, spec), naive_label(w[:-1], spec))
        for m in (n - 1, n)
        for w in sphere(spec[0], m)
    }
    return [f"{i},{j}" for i, j in sorted(states)]


@dataclass
class InvarianceReference:
    """What check_invariance and derive_system must report for one spec."""

    words_checked: int
    states_seen: int
    violations: list[tuple]  # (x, y, profile_x, profile_y, shared_positions_equal)
    rows: dict  # state -> Counter of successor states, None where reps disagree

    @property
    def holds(self) -> bool:
        return not self.violations


def invariance_reference(spec: Spec, radius: int) -> InvarianceReference:
    """Walk the ball sphere by sphere in lexicographic order.

    Each word carries its reduced collapsed image, so a child's image is its
    parent's image with one collapsed letter pushed or cancelled; the label
    is read off the image exactly as ``naive_label`` does.
    """
    k, s, a1, a2 = spec
    m1, m2 = min(a1), min(a2)
    n = 2 * s + 1

    def collapse(c):
        return m1 if c in a1 else m2 if c in a2 else None

    def residue(image):
        if not image:
            return 0
        return (len(image) if image[0] == m1 else -len(image)) % n

    first: dict = {}  # state -> (word, sorted profile, letter -> class)
    violations: list[tuple] = []
    rows: dict = {}
    words = 0
    # frontier entries: (word, image, own class, parent class)
    frontier = [((), (), 0, None)]
    for depth in range(radius + 1):
        nxt = []
        for word, image, own, par in frontier:
            last = word[-1] if word else 0
            by_letter = {}
            for c in range(1, k + 2):
                if c == last:
                    continue
                sym = collapse(c)
                if sym is None:
                    child_image = image
                elif image and image[-1] == sym:
                    child_image = image[:-1]
                else:
                    child_image = image + (sym,)
                child = residue(child_image)
                by_letter[c] = child
                if depth < radius:
                    nxt.append((word + (c,), child_image, child, own))
            if not word:
                continue
            words += 1
            state = (own, par)
            profile = tuple(by_letter.values())
            key = tuple(sorted(profile))
            successors = Counter((child, own) for child in profile)
            if state not in rows:
                rows[state] = successors
            elif rows[state] is not None and rows[state] != successors:
                rows[state] = None
            if state not in first:
                first[state] = (word, key, by_letter)
                continue
            rep, rep_key, rep_letters = first[state]
            if key != rep_key:
                skip = {rep[-1], word[-1]}
                shared = all(
                    rep_letters[c] == by_letter[c] for c in range(1, k + 2) if c not in skip
                )
                violations.append(
                    (rep, word, tuple(rep_letters.values()), profile, shared)
                )
        frontier = nxt
    return InvarianceReference(
        words_checked=words, states_seen=len(first), violations=violations, rows=rows
    )


def check_invariance_report(report, spec: Spec, radius: int, ref: InvarianceReference) -> list[str]:
    """Compare a check_invariance report with the reference walk."""
    errors = []
    k = spec[0]
    expected_words = ball_size(k, radius) - 1
    if report.words_checked != expected_words or ref.words_checked != expected_words:
        errors.append(
            f"words_checked {report.words_checked}, closed form {expected_words}"
        )
    if report.states_seen != ref.states_seen:
        errors.append(f"states_seen {report.states_seen}, reference {ref.states_seen}")
    if report.holds != ref.holds:
        errors.append(f"verdict holds={report.holds}, reference holds={ref.holds}")
    got = [
        (v.x, v.y, tuple(v.profile_x), tuple(v.profile_y), v.shared_positions_equal)
        for v in report.violations
    ]
    if len(got) != len(ref.violations):
        errors.append(f"{len(got)} violations, reference {len(ref.violations)}")
    for i, (mine, theirs) in enumerate(zip(got, ref.violations)):
        if mine != theirs:
            errors.append(f"violation {i} is {mine}, reference {theirs}")
            break
    return errors


def check_derived_system(system, ref: InvarianceReference, k: int) -> list[str]:
    """A certified system must match the reference rows; an ill-defined one must be refused.

    ``system`` is the derived WeaklyPeriodicSystem, or the exception that
    derive_system raised.
    """
    well_defined = ref.holds and all(row is not None for row in ref.rows.values())
    if isinstance(system, Exception):
        if well_defined:
            return [f"derive refused a well-defined system: {system}"]
        return []
    if not well_defined:
        return ["derive certified a system whose successor counts depend on the representative"]
    errors = []
    if set(system.states) != set(ref.rows):
        errors.append(f"states {sorted(system.states)}, reference {sorted(ref.rows)}")
        return errors
    for state in system.states:
        row = system.row(state)
        if row != dict(ref.rows[state]) or sum(row.values()) != k:
            errors.append(f"row {state} is {row}, reference {dict(ref.rows[state])}")
            break
    return errors


def count_matrix(states, ref: InvarianceReference) -> np.ndarray:
    """Reference coefficient matrix in the program's state order."""
    index = {st: i for i, st in enumerate(states)}
    M = np.zeros((len(states), len(states)))
    for st in states:
        for target, n in ref.rows[st].items():
            M[index[st], index[target]] = n
    return M


def constant_field(k: int, theta: float) -> float:
    """Positive root h* of h = k artanh(theta tanh h), by bisection; 0 when k theta <= 1."""
    if k * theta <= 1.0:
        return 0.0

    def g(h):
        return k * math.atanh(theta * math.tanh(h)) - h

    lo, hi = 1e-9, k * math.atanh(theta) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_field_vectors(vectors, M: np.ndarray, theta: float) -> list[str]:
    """Every vector solves h = M artanh(theta tanh h); the set is closed under negation."""
    errors = []
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    for h in arrays:
        residual = float(np.max(np.abs(h - M @ np.arctanh(theta * np.tanh(h)))))
        if not residual <= RESIDUAL_TOL:
            errors.append(f"residual {residual:.3e} at theta={theta} exceeds {RESIDUAL_TOL}")
    for h in arrays:
        if not any(np.max(np.abs(h + other)) <= FIELD_TOL for other in arrays):
            errors.append(f"solution set at theta={theta} is not closed under negation")
            break
    return errors


def expected_constant_count(k: int, theta: float) -> int | None:
    """1 below the threshold k theta = 1, 3 above it; None at the threshold itself."""
    if math.isclose(k * theta, 1.0, abs_tol=1e-12):
        return None
    return 1 if k * theta < 1.0 else 3


def check_constant_solutions(vectors, k: int, theta: float) -> list[str]:
    """The constant field vectors are 0 and, above the threshold, +-h*."""
    expected = expected_constant_count(k, theta)
    constant = [v for v in vectors if max(v) - min(v) < 1e-8]
    errors = []
    if expected is not None and len(constant) != expected:
        errors.append(f"{len(constant)} constant solutions at theta={theta}, expected {expected}")
    h_star = constant_field(k, theta)
    targets = sorted({-h_star, 0.0, h_star})
    for v in constant:
        if min(max(abs(x - t) for x in v) for t in targets) > FIELD_TOL:
            errors.append(f"constant solution {v[0]!r} at theta={theta} is not 0 or +-{h_star!r}")
    return errors


def check_sweep_csv(text: str, grid, k: int) -> tuple[list[str], dict]:
    """Check the sweep CSV row by row; also return n_ti per theta."""
    lines = text.splitlines()
    errors = []
    if not lines or lines[0] != "theta,n_ti,n_wp_I1,n_wp_I2,agreement":
        return [f"bad CSV header {lines[:1]}"], {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid):
        return [f"{len(rows)} CSV rows, expected {len(grid)}"], {}
    n_ti = {}
    for row, theta in zip(rows, grid):
        if len(row) != 5 or not math.isclose(float(row[0]), theta, abs_tol=1e-12):
            errors.append(f"row {row} does not match theta={theta}")
            continue
        n_ti[theta] = int(row[1])
        expected = expected_constant_count(k, theta)
        if expected is not None and int(row[1]) != expected:
            errors.append(f"n_ti={row[1]} at theta={theta}, expected {expected}")
        if int(row[2]) != 0:
            errors.append(f"n_wp_I1={row[2]} at theta={theta}, expected 0")
        if row[4] != "true":
            errors.append(f"agreement={row[4]} at theta={theta}")
    return errors, n_ti


def check_compat(doc: dict, exit_code: int, expect_pass: bool, configs: int) -> list[str]:
    """A true fixed point passes with deviation <= 1e-10; a perturbed one exits 2."""
    errors = []
    if doc.get("configs_checked") != configs:
        errors.append(f"configs_checked {doc.get('configs_checked')}, expected {configs}")
    deviation = doc.get("max_deviation")
    if expect_pass:
        if exit_code != 0 or doc.get("passed") is not True or not deviation <= RESIDUAL_TOL:
            errors.append(f"fixed point rejected: exit {exit_code}, {doc}")
    elif exit_code != 2 or doc.get("passed") is not False or not deviation > RESIDUAL_TOL:
        errors.append(f"perturbed vector accepted: exit {exit_code}, {doc}")
    return errors
