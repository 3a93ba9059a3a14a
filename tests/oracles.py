"""Reference implementations that tests compare production code against.

_jacobian and _newton are the start-by-start damped Newton iteration the
batched kernel in cayleygibbs.solver replaced, kept verbatim: the kernel
must give, for every start, the same root bit for bit or the same None.

_volume_distribution is the finite-volume Gibbs distribution by brute
force: it builds all 2^V(n) spin configurations of the radius-n ball as a
spin matrix and sums, per configuration, the edge terms and the boundary
terms.  Summed over its outer sphere it must give the radius-(n-1)
distribution with fields b_p = sum over the children w of p of f(b_w),
the identity cayleygibbs.solver.verify_compatibility checks on the
fields alone.  It holds a bits x 2^bits int8 array and a few 2^bits
float64 ones, so it refuses balls of more than MAX_SPINS vertices.

check_invariance is the word-by-word ball walk that the type-automaton
verdicts in cayleygibbs.invariance replaced, kept verbatim: it builds the
neighbour classes (neighbor_classes, one step per letter, where
cayleygibbs.cosets.neighbor_counts takes one per letter set), state and
profile of every word and compares each with the first word of its
state.  Both must return equal reports, violations included.
shared_positions_equal is computed here from the neighbour classes,
while production stores the proven constant False.

_violation_walk (with _violation) is the sphere walk that
cayleygibbs.invariance._violation_walk's pruned walk replaced, kept
verbatim: it builds every word of spheres 0 to radius - 1 through
cayleygibbs.cosets.typed_spheres and each record through _violation.  On
the same type table and broken types both must return the same records in
the same order.

successor_labels, check_class_counts (with matching_permutation) and the
hardcoded nine-state table (reference_counts, matches_reference) are second
implementations that only tests compare the package against; they are kept
here, not in cayleygibbs.

project and fold_alternating (with _rep_residue) are the recursive fold that
cayleygibbs.cosets.label's signed position replaced: collapse a word onto
the two class generators, then fold the alternating image to its class
representative.  Tests check label against them.

The solver oracles are second routes to what cayleygibbs.solver computes,
kept with their bodies as they were in the package:
translation_invariant_fields (with TI_BISECT_TOL) finds the constant
fields by a sign-change scan and bisection, apply_recursion applies the recursion operator once,
solve_reduced runs the production multistart (solver._multistart) on a
block-collapsed system and expand lifts its block values back to nine
coordinates, quartic_coefficients and check_quartic_positivity (with
QuarticReport) certify the I1 quartic cofactor on a fixed mesh of
(0, QUARTIC_X_MAX], and finite_volume_probability reads one configuration's
probability off _volume_distribution (looked up on this module so tests can
replace it).

compatibility_deviation is the word-by-word walk that
cayleygibbs.solver.verify_compatibility's type-table read replaced, kept
verbatim: it enumerates the radius-n ball, labels every word of spheres
n-1 and n with state_of and sums each parent's children in sphere order.
verify_compatibility must give the same max_deviation bit for bit and the
same missing-state error.

_agreement and _pattern_hits (with _pattern_layout) are the array forms of
the sweep's exact-branch cross-check and of pattern membership that
cayleygibbs.solver replaced, kept verbatim: _agreement pads every theta's
exact vectors with infinite ones into one stack, measures every root
against its theta's stack and regroups by np.minimum.reduceat, and
_pattern_hits lays the patterns' blocks end to end and reduces them with
reduceat.  solver._agreement and the invariant sets and kinds of
solver._solutions must equal them on every input.
"""

import functools
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from cayleygibbs import cosets, solver
from cayleygibbs.cosets import (
    CosetLabel,
    SubgroupSpec,
    Type,
    _alternating,
    label,
    neighbor_counts,
    position,
    typed_spheres,
)
from cayleygibbs.invariance import (
    _VIOLATION_SETTERS,
    InvarianceReport,
    InvarianceViolation,
    StatePair,
    WeaklyPeriodicSystem,
    state_of,
)
from cayleygibbs.solver import (
    INVARIANT_PATTERNS,
    SWEEP_MATCH_TOL,
    TI_SPREAD,
    ReducedSystem,
    SolutionSet,
    SolverConfig,
    Theta,
    count_matrix,
    edge_field,
)
from cayleygibbs.words import IDENTITY, Word, enumerate_ball, multiply, parent, reduce_word, successors, word_to_str


def _jacobian(F, u: np.ndarray, step: float = 1e-6) -> np.ndarray:
    dim = len(u)
    J = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        J[:, j] = (F(u + e) - F(u - e)) / (2 * step)
    return J


def _newton(F, u0: np.ndarray, tol: float, max_iter: int) -> np.ndarray | None:
    u = u0.astype(float)
    for _ in range(max_iter):
        r = F(u)
        norm = np.max(np.abs(r))
        if not np.isfinite(norm):
            return None
        if norm <= tol:
            return u
        try:
            step = np.linalg.solve(_jacobian(F, u), -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(30):
            trial = u + lam * step
            if np.max(np.abs(F(trial))) < norm:
                u = trial
                break
            lam *= 0.5
        else:
            return None
    r = F(u)
    return u if np.max(np.abs(r)) <= tol else None


# largest ball _volume_distribution builds: at 22 spins its int8 spin rows
# take 92 MB
MAX_SPINS = 22


def _volume_distribution(
    k: int, n: int, theta: Theta, boundary: Mapping[Word, float]
) -> tuple[list[Word], np.ndarray]:
    """Probabilities of all spin configurations on the radius-n ball.

    Vertices are in ball enumeration order with the root as the most
    significant bit of the configuration index.  The boundary mapping must
    provide a field for every vertex of the outer sphere; fields elsewhere
    are zero.  Each log weight is the sum of the edge terms beta s_p s_w
    and then the boundary terms b_w s_w.
    """
    ball = enumerate_ball(k, n)
    verts = list(ball.vertices())
    bits = len(verts)
    if bits > MAX_SPINS:
        raise ValueError(f"{bits} spins exceed the oracle's {MAX_SPINS}-spin bound")
    outer = ball.spheres[-1]
    missing = [w for w in outer if w not in boundary]
    if missing:
        raise ValueError(f"boundary field missing for {len(missing)} outer vertices")
    index = {w: i for i, w in enumerate(verts)}
    codes = np.arange(1 << bits, dtype=np.int64)
    spins = np.empty((bits, len(codes)), dtype=np.int8)  # one row of spins per vertex
    for i in range(bits):
        spins[i] = ((codes >> (bits - 1 - i)) & 1) * 2 - 1
    log_weight = np.zeros(len(codes))
    for w in verts[1:]:
        log_weight += theta.beta * (spins[index[parent(w)]] * spins[index[w]])
    for w in outer:
        log_weight += boundary[w] * spins[index[w]]
    log_weight -= log_weight.max()
    weight = np.exp(log_weight)
    return verts, weight / weight.sum()


def finite_volume_probability(
    sigma: Mapping[Word, int],
    boundary: Mapping[Word, float],
    theta: Theta,
    n: int,
    k: int,
) -> float:
    """Probability of one spin configuration on the radius-n ball."""
    code = 0
    for w in enumerate_ball(k, n).vertices():
        if w not in sigma or sigma[w] not in (-1, 1):
            raise ValueError(f"configuration must assign +-1 to every vertex; bad at {w}")
        code = (code << 1) | (sigma[w] == 1)
    _, probs = _volume_distribution(k, n, theta, boundary)
    return float(probs[code])


def compatibility_deviation(fields: Sequence[float], system: WeaklyPeriodicSystem, theta: Theta, n: int) -> float:
    """max |b_p - sum over the children w of p of f(b_w)| over sphere n-1, word by word."""
    spec = system.spec
    values = {st: float(v) for st, v in zip(system.states, fields)}

    def fields_on(sphere: Sequence[Word]) -> dict[Word, float]:
        boundary = {}
        for w in sphere:
            st = state_of(w, spec)
            if st not in values:
                raise ValueError(
                    f"the system has no state {st[0]},{st[1]}, where outer vertex {word_to_str(w)} lands"
                )
            boundary[w] = values[st]
        return boundary

    ball = enumerate_ball(spec.k, n)
    outer = fields_on(ball.spheres[-1])
    own = fields_on(ball.spheres[-2])
    summed = dict.fromkeys(own, 0.0)
    for w, f in zip(outer, edge_field(np.array(list(outer.values())), theta).tolist()):
        summed[parent(w)] += f
    return float(np.max(np.abs(np.array(list(own.values())) - list(summed.values()))))


def apply_recursion(system: WeaklyPeriodicSystem, h: Sequence[float], theta: Theta) -> np.ndarray:
    """One application of the recursion operator: counts times f(h)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (len(system.states),):
        raise ValueError(f"field vector must have length {len(system.states)}")
    return count_matrix(system) @ edge_field(h, theta)


def _pattern_hits(fields: np.ndarray, pattern_ids: tuple[str, ...]) -> np.ndarray:
    """hits[b, j]: row b's spread within every block of pattern j is below TI_SPREAD."""
    if not pattern_ids:
        return np.ones((len(fields), 0), dtype=bool)
    columns, blocks, patterns = _pattern_layout(pattern_ids)
    part = fields[:, columns]
    spread = np.maximum.reduceat(part, blocks, axis=1) - np.minimum.reduceat(part, blocks, axis=1)
    return np.logical_and.reduceat(spread < TI_SPREAD, patterns, axis=1)


@functools.cache
def _pattern_layout(pattern_ids: tuple[str, ...]) -> tuple[list[int], list[int], list[int]]:
    """The blocks of the patterns' states laid end to end, where each block starts, and each pattern."""
    columns: list[int] = []
    blocks: list[int] = []
    patterns: list[int] = []
    for pid in pattern_ids:
        patterns.append(len(blocks))
        for block in INVARIANT_PATTERNS[pid].blocks:
            blocks.append(len(columns))
            columns.extend(block)
    return columns, blocks, patterns


def _agreement(newton: Sequence[SolutionSet], exact: Sequence[Sequence[float]]) -> list[bool]:
    """Per theta, whether the exact and the Newton solutions match within SWEEP_MATCH_TOL.

    exact holds each theta's branch values; its solutions are the constant
    vectors value·1.  Every exact solution needs a Newton one that close in
    max-norm, and every Newton one in I1 an exact one.  One pass over all
    of a sweep's roots: each Newton root is measured against the exact
    solutions of its own theta, padded with infinite vectors to one count
    per theta.
    """
    dim = len(newton[0].states)
    width = max(map(len, exact))
    padded = np.full((len(exact), width, dim), np.inf)
    real = np.zeros((len(exact), width), dtype=bool)
    for g, values in enumerate(exact):
        padded[g, : len(values)] = np.array(values)[:, None]
        real[g, : len(values)] = True
    roots = [s for found in newton for s in found.solutions]
    sizes = [len(found.solutions) for found in newton]
    owner = np.repeat(np.arange(len(newton)), sizes)
    fields = np.reshape([s.fields for s in roots], (-1, dim))
    gaps = np.max(np.abs(fields[:, None, :] - padded[owner]), axis=2)
    # each theta's roots are consecutive, and every theta has one: the zero start's
    nearest = np.minimum.reduceat(gaps, list(itertools.accumulate(sizes[:-1], initial=0)), axis=0)
    exact_missed = real & (nearest > SWEEP_MATCH_TOL)
    in_i1 = np.array(["I1" in s.invariant_sets for s in roots], dtype=bool)
    newton_missed = np.zeros(len(newton), dtype=bool)
    newton_missed[owner[in_i1 & (np.min(gaps, axis=1) > SWEEP_MATCH_TOL)]] = True
    return (~np.any(exact_missed, axis=1) & ~newton_missed).tolist()


# bisection for a constant field stops once its bracket is this narrow,
# relative to max(1, midpoint)
TI_BISECT_TOL = 1e-14


def translation_invariant_fields(k: int, theta: Theta) -> list[float]:
    """All real roots of h = k f(h, theta), by sign-change scan and bisection.

    Always contains 0; for k theta > 1 a symmetric nonzero pair appears.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def g(h: float) -> float:
        return k * math.atanh(theta.value * math.tanh(h)) - h

    hi = k * math.atanh(theta.value) + 1.0
    grid = np.linspace(1e-12, hi, 4001)
    values = [g(h) for h in grid]
    roots = [0.0]
    for i in range(len(grid) - 1):
        if values[i] == 0.0 and grid[i] > 1e-9:
            roots.append(float(grid[i]))
        if values[i] * values[i + 1] < 0:
            lo_h, hi_h = float(grid[i]), float(grid[i + 1])
            for _ in range(200):
                mid = 0.5 * (lo_h + hi_h)
                if hi_h - lo_h <= TI_BISECT_TOL * max(1.0, mid):
                    break
                if g(lo_h) * g(mid) <= 0:
                    hi_h = mid
                else:
                    lo_h = mid
            root = 0.5 * (lo_h + hi_h)
            if root > 1e-9:
                roots.append(root)
    unique: dict[float, float] = {}
    for r in roots:
        if r > 0:
            unique.setdefault(round(r, 13), r)
    positive = [unique[key] for key in sorted(unique)]
    return [-r for r in reversed(positive)] + [0.0] + list(positive)


def expand(reduced: ReducedSystem, u: Sequence[float]) -> tuple[float, ...]:
    """Lift block values back to the nine coordinates."""
    out = [0.0] * 9
    for b, block in enumerate(reduced.blocks):
        for i in block:
            out[i] = float(u[b])
    return tuple(out)


def solve_reduced(
    reduced: ReducedSystem, theta: Theta, cfg: SolverConfig = SolverConfig()
) -> list[tuple[tuple[float, ...], float]]:
    """Multistart Newton on a block-collapsed system: (block values, residual)."""
    M = np.array(reduced.matrix, dtype=float)
    roots, residuals = next(solver._multistart(M, [theta], cfg))
    return [(tuple(float(v) for v in u), residual) for u, residual in zip(roots, residuals.tolist())]


def quartic_coefficients(a: float) -> tuple[float, float, float, float, float]:
    """Coefficients (x^4 .. x^0) of the quartic cofactor; all positive on (0,1)."""
    c4 = a**3 + a**2 - a + 1.0
    c3 = a - a**3
    c2 = 3.0 * a**3 - a**2 + a + 1.0
    return (c4, c3, c2, c3, c4)


QUARTIC_X_MAX = 50.0
QUARTIC_STEP = 1e-3


@dataclass(frozen=True)
class QuarticReport:
    passed: bool
    x_max: float
    step: float
    min_values: dict[float, float]
    descartes_no_positive_roots: bool
    cell_bound_certified: bool


def check_quartic_positivity(a_values: Iterable[float]) -> QuarticReport:
    """Certify the quartic cofactor is positive on (0, QUARTIC_X_MAX] for each a.

    Three independent routes: minimum over the mesh, Descartes (every
    coefficient positive means no sign variation, so no positive root), and
    a per-cell derivative bound showing the mesh cannot hide a dip below 0.
    """
    x_max, step = QUARTIC_X_MAX, QUARTIC_STEP
    xs = np.arange(0.0, x_max + step / 2, step)
    min_values: dict[float, float] = {}
    descartes = True
    certified = True
    passed = True
    for a in a_values:
        if not 0.0 < a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {a}")
        c4, c3, c2, c1, c0 = quartic_coefficients(a)
        q = (((c4 * xs + c3) * xs + c2) * xs + c1) * xs + c0
        min_values[a] = float(q[1:].min())
        if min_values[a] <= 0.0:
            passed = False
        if min(c4, c3, c2, c1, c0) <= 0.0:
            descartes = False
        # |Q'| on [x_i, x_{i+1}] is at most the absolute-coefficient
        # derivative evaluated at the right endpoint (all terms increasing).
        right = xs[1:]
        dbound = ((4 * c4 * right + 3 * c3) * right + 2 * c2) * right + c1
        if float((q[:-1] - dbound * step).min()) <= 0.0:
            certified = False
    return QuarticReport(
        passed=passed and descartes and certified,
        x_max=x_max,
        step=step,
        min_values=min_values,
        descartes_no_positive_roots=descartes,
        cell_bound_certified=certified,
    )


def neighbor_classes(p: int, spec: SubgroupSpec) -> tuple[int, ...]:
    """Classes of the k+1 neighbours x*a_1 .. x*a_(k+1) of a word at position p."""
    return tuple(cosets.step(p, i, spec) % spec.index for i in range(1, spec.k + 2))


def check_invariance(spec: SubgroupSpec, radius: int) -> InvarianceReport:
    """Test whether successor class profiles depend only on the state pair.

    Equivalent to checking every pair x, y with equal classes and equal
    parent classes: profiles are compared as multisets of class residues
    (the first representative of each state stands in for x).  Each
    violation also records whether the profiles agree at the generator
    positions both words share; by parity that is never so (see
    InvarianceViolation).
    """
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    first_rep: dict[StatePair, tuple[Word, tuple[int, ...], tuple[int, ...]]] = {}
    violations: list[InvarianceViolation] = []
    words_checked = 0
    for x in enumerate_ball(spec.k, radius).vertices():
        if x == IDENTITY:
            continue
        words_checked += 1
        p = position(x, spec)
        near = neighbor_classes(p, spec)
        st = (p % spec.index, near[x[-1] - 1])
        profile = _drop_parent(near, x)
        if st not in first_rep:
            first_rep[st] = (x, near, profile)
            continue
        rep, rep_near, rep_profile = first_rep[st]
        if sorted(profile) != sorted(rep_profile):
            skip = {rep[-1] - 1, x[-1] - 1}
            shared = all(a == b for i, (a, b) in enumerate(zip(rep_near, near)) if i not in skip)
            violations.append(InvarianceViolation(rep, x, rep_profile, profile, shared))
    return InvarianceReport(
        holds=not violations,
        radius=radius,
        words_checked=words_checked,
        states_seen=len(first_rep),
        violations=tuple(violations),
    )


_set_x, _set_y, _set_profile_x, _set_profile_y, _set_shared = _VIOLATION_SETTERS


def _violation(x, y, profile_x, profile_y, shared_positions_equal) -> InvarianceViolation:
    """InvarianceViolation(x, y, ...), built without the generated __init__.

    The frozen class's __init__ sets each field through
    object.__setattr__; writing the slots through their descriptors gives
    the same record at about half the cost.
    """
    v = object.__new__(InvarianceViolation)
    _set_x(v, x)
    _set_y(v, y)
    _set_profile_x(v, profile_x)
    _set_profile_y(v, profile_y)
    _set_shared(v, shared_positions_equal)
    return v


def _violation_walk(
    radius: int, types: list[Type], kids: list[list[int]], broken: dict[int, tuple]
) -> tuple[InvarianceViolation, ...]:
    """Every word of the ball whose type id is broken, with its verdict, in ball order.

    Spheres 0 to radius - 1 are walked (typed_spheres).  A sphere's
    violations are its words' broken children, in word and then letter
    order, which is ball order, so the last sphere is never built.
    """
    bad = [[((types[u][1],), *broken[u]) for u in row if u in broken] for row in kids]  # (tail, *verdict)
    violations: list[InvarianceViolation] = []
    for words, ids in typed_spheres(types, kids, radius - 1):
        violations += [
            _violation(rep, w + tail, rep_profile, profile, shared)
            for w, t in zip(words, ids)
            for tail, rep, rep_profile, profile, shared in bad[t]
        ]
    return tuple(violations)


def _drop_parent(near: tuple[int, ...], x: Word) -> tuple[int, ...]:
    """Successor classes: the neighbour classes without the parent's entry."""
    return near[: x[-1] - 1] + near[x[-1] :]


def successor_labels(x: Word, spec: SubgroupSpec) -> tuple[CosetLabel, ...]:
    """Coset classes of the successors of x, in ascending generator order."""
    return tuple(label(y, spec) for y in successors(x, spec.k))


def matching_permutation(base: tuple[int, ...], other: tuple[int, ...]) -> tuple[int, ...] | None:
    """Coordinate permutation p with base[p[i]] == other[i], or None.

    Greedy over positions, so the lexicographically smallest permutation is
    returned when repeated counts allow several.  Equal vectors map to the
    identity.
    """
    if len(base) != len(other) or sorted(base) != sorted(other):
        return None
    used = [False] * len(base)
    perm = []
    for value in other:
        for j, b in enumerate(base):
            if not used[j] and b == value:
                used[j] = True
                perm.append(j)
                break
    return tuple(perm)


@dataclass(frozen=True)
class ClassCountReport:
    passed: bool
    radius: int
    class_vectors: dict[int, tuple[int, ...]]
    permutations_found: bool


def check_class_counts(spec: SubgroupSpec, radius: int) -> ClassCountReport:
    """Verify neighbor-class counts are constant on each coset class.

    Also verifies a coordinate permutation matching every vertex's count
    vector to the root's exists.  Only meaningful for singleton specs.
    """
    if not spec.is_singleton:
        raise ValueError("class count equality requires singleton A1 and A2")
    base = neighbor_counts(IDENTITY, spec)
    vectors: dict[int, tuple[int, ...]] = {}
    passed = True
    permutations = True
    for x in enumerate_ball(spec.k, radius).vertices():
        p = position(x, spec)
        near = neighbor_classes(p, spec)
        q = tuple(near.count(r) for r in range(spec.index))
        if vectors.setdefault(p % spec.index, q) != q:
            passed = False
        if matching_permutation(base, q) is None:
            permutations = False
    return ClassCountReport(
        passed=passed and permutations,
        radius=radius,
        class_vectors=vectors,
        permutations_found=permutations,
    )


def reference_counts(k: int) -> dict[StatePair, dict[StatePair, int]]:
    """The nine-state successor-count table for s = 1 singleton specs.

    States are (class, parent class) over classes 0..2; the table holds for
    every k >= 2 with the same sparsity pattern.
    """
    table: dict[StatePair, dict[StatePair, int]] = {}
    for i in range(3):
        down = (i - 1) % 3
        up = (i + 1) % 3
        table[(i, i)] = {(i, i): k - 2, (up, i): 1, (down, i): 1}
        table[(i, down)] = {(i, i): k - 1, (up, i): 1}
        table[(i, up)] = {(i, i): k - 1, (down, i): 1}
    return {st: {su: n for su, n in row.items() if n} for st, row in sorted(table.items())}


def matches_reference(system: WeaklyPeriodicSystem) -> bool:
    """Whether a derived s = 1 system equals the hardcoded nine-state table."""
    if system.s != 1:
        return False
    expected = reference_counts(system.k)
    if set(system.states) != set(expected):
        return False
    return all(system.row(st) == expected[st] for st in system.states)


def _rep_residue(rep: Word, spec: SubgroupSpec) -> int:
    if not rep:
        return 0
    if rep[0] == spec.m1:
        return len(rep)
    return spec.index - len(rep)


def project(x: Word, spec: SubgroupSpec) -> Word:
    """Collapse a word onto the two class generators and reduce.

    A1-letters map to the least A1-generator, A2-letters to the least
    A2-generator, residual letters vanish.  This is a homomorphism, and its
    reduced images alternate between the two generators.
    """
    mapped = []
    for c in x:
        if c in spec.a1:
            mapped.append(spec.m1)
        elif c in spec.a2:
            mapped.append(spec.m2)
        elif not 1 <= c <= spec.k + 1:
            raise ValueError(f"generator index {c} out of range 1..{spec.k + 1}")
    return reduce_word(mapped)


def fold_alternating(w: Word, spec: SubgroupSpec) -> CosetLabel:
    """Reduce an alternating word to its class representative recursively.

    Words of length at most s are canonical; lengths s+1..2s swap to the
    complementary representative starting from the other generator.  Longer
    words fold their trailing 2s letters down to a single letter and recurse,
    which removes one full 2s+1 block per step.
    """
    s = spec.s
    pair = {spec.m1, spec.m2}
    if any(c not in pair for c in w) or reduce_word(w) != w:
        raise ValueError("fold_alternating expects a reduced two-letter word")
    if len(w) == 0:
        return CosetLabel(0, IDENTITY)
    if len(w) <= 2 * s:
        if len(w) <= s:
            rep = w
        else:
            other = spec.m2 if w[0] == spec.m1 else spec.m1
            second = spec.m1 if other == spec.m2 else spec.m2
            rep = _alternating(other, second, 2 * s + 1 - len(w))
        return CosetLabel(_rep_residue(rep, spec), rep)
    folded = fold_alternating(w[-2 * s :], spec)
    return fold_alternating(multiply(w[: -2 * s], folded.rep), spec)
