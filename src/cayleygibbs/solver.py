"""Fixed points of the weakly periodic Ising field equations.

Boundary fields satisfy h_state = sum over successor states of
count * f(h_successor) with f(h) = artanh(theta * tanh h), the field one
edge passes upward at interaction strength theta in (0, 1).  This module
solves those equations two ways, batched multistart damped Newton on the
full system and the exact k = 2 branch on the four-block invariant
subspace of the nine-state system, and verifies that solutions give
consistent finite-volume measures by checking the field identity
b_p = sum over the children w of p of f(b_w) on sphere n-1 of the tree,
for any n >= 2 whose 2^V(n) configuration count Python can print (n <= 12
at k = 2, 8 at k = 3, 6 at k = 4 under the default 4300-digit limit).
Multistart Newton runs all
starts of a chunk in one stacked iteration; each start still reaches the
root a start-by-start iteration reaches, bit for bit, because the residual
is one np.matmul matrix-vector product per start (see _residual_map).
That one map also gives every reported residual.  The constant roots
+-h*·1 are added wherever multistart missed them.  On the four-block
subspace the quadratic branch is the nonzero translation-invariant pair
and the quartic cofactor has no positive root, so that subspace holds no
non-constant fixed point; the exact path builds the pair as +-log(x)·1.

A run sets only SolverConfig (starts, rng_seed).  The rest are
constants: NEWTON_TOL, NEWTON_MAX_ITER, FD_STEP, LINE_SEARCH_HALVINGS,
START_BOX, STACK_BUDGET, DEDUPE_EPS, FLAT_MERGE_RADIUS,
FLAT_MERGE_RESIDUAL, TI_SPREAD (constant vectors and pattern blocks),
EXACT_RESIDUAL_TOL, SWEEP_MATCH_TOL and COMPAT_TOL.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from cayleygibbs.cosets import SubgroupSpec
from cayleygibbs.invariance import StatePair, WeaklyPeriodicSystem, derive_system, state_of
from cayleygibbs.words import (
    Word,
    check_ball_cap,
    check_work,
    enumerate_ball,
    parent,
    word_to_str,
)

# coordinate spread below this means a constant (translation-invariant) vector
TI_SPREAD = 1e-8

NINE_STATES: tuple[StatePair, ...] = tuple((i, j) for i in range(3) for j in range(3))


class NotInvariantError(ValueError):
    """The equality pattern is not preserved by the recursion operator."""


@dataclass(frozen=True)
class Theta:
    """Interaction parameter theta = tanh(J beta) with J = 1, theta in (0,1)."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"theta must lie strictly inside (0, 1), got {self.value}")

    @property
    def beta(self) -> float:
        return math.atanh(self.value)

    @property
    def a(self) -> float:
        """The Moebius parameter (1 - theta)/(1 + theta) in (0, 1)."""
        return (1.0 - self.value) / (1.0 + self.value)


def edge_field(h, theta: Theta):
    """Field transmitted along one edge: artanh(theta * tanh h)."""
    return np.arctanh(theta.value * np.tanh(h))


def count_matrix(system: WeaklyPeriodicSystem) -> np.ndarray:
    return np.array(system.counts, dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    """What a multistart Newton run varies: random starts and seed."""

    starts: int = 200
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 0:
            raise ValueError("starts must be >= 0")


@dataclass(frozen=True)
class Solution:
    fields: tuple[float, ...]
    residual: float
    kind: str  # "translation-invariant" or "weakly-periodic"
    invariant_sets: tuple[str, ...]


@dataclass(frozen=True)
class SolutionSet:
    theta: float
    states: tuple[StatePair, ...]
    solutions: tuple[Solution, ...]

    def translation_invariant(self) -> tuple[Solution, ...]:
        return tuple(s for s in self.solutions if s.kind == "translation-invariant")

    def weakly_periodic(self) -> tuple[Solution, ...]:
        return tuple(s for s in self.solutions if s.kind == "weakly-periodic")


# === Newton iteration ===

# elements in one stacked (starts, dim, dim) array: a chunk of starts holds
# max(1, STACK_BUDGET // dim**2) of them, so memory does not grow with starts
STACK_BUDGET = 1 << 16
FD_STEP = 1e-6
LINE_SEARCH_HALVINGS = 30
# a start converges at residual max-norm <= NEWTON_TOL < FLAT_MERGE_RESIDUAL
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# random starts are uniform on this interval in every coordinate
START_BOX = (-5.0, 5.0)
# candidates closer than this in max-norm are one root
DEDUPE_EPS = 1e-8
# at a degenerate root (e.g. the critical k*theta = 1) Newton converges to a
# cloud of points the residual cannot separate; candidates closer than
# FLAT_MERGE_RADIUS whose midpoint still solves the system to
# FLAT_MERGE_RESIDUAL count as one root
FLAT_MERGE_RADIUS = 1e-2
FLAT_MERGE_RESIDUAL = 1e-10


def _residual_map(M: np.ndarray, theta: Theta):
    """F(u) = u - M f(u) on the last axis of a vector or a stack of vectors.

    np.matmul against f(u)[..., None] makes one matrix-vector product per
    stacked vector, bit for bit the product M @ f(u) of a single vector.
    u @ M.T, einsum and (M @ f(U).T).T sum in another order, which changes
    the last bit once a row has three nonzero counts (k >= 3).
    """

    def F(U: np.ndarray) -> np.ndarray:
        return U - np.matmul(M, edge_field(U, theta)[..., None])[..., 0]

    return F


def _solve_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J[b]^-1 rhs[b] and a mask of the starts that got one."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        ok = np.ones(len(J), dtype=bool)
        for b in range(len(J)):
            try:
                steps[b] = np.linalg.solve(J[b], rhs[b])
            except np.linalg.LinAlgError:
                ok[b] = False
        return steps, ok


def _newton_batch(F, U0: np.ndarray) -> list[np.ndarray | None]:
    """Damped Newton from every row of U0 at once: one root or None per row.

    Each row follows the scalar rule exactly: stop at a residual max-norm
    <= NEWTON_TOL, fail at a non-finite norm or a singular Jacobian, take
    the central-difference Jacobian with step FD_STEP, halve the step up to
    LINE_SEARCH_HALVINGS times until the norm strictly drops (else fail),
    and after NEWTON_MAX_ITER iterations keep the point only if its norm is
    <= NEWTON_TOL.  Rows leave the live set when they converge or fail.
    """
    U = U0.astype(float)
    out: list[np.ndarray | None] = [None] * len(U)
    live = np.arange(len(U))
    E = FD_STEP * np.eye(U.shape[1])
    for _ in range(NEWTON_MAX_ITER):
        u = U[live]
        r = F(u)
        norm = np.max(np.abs(r), axis=1)
        finite = np.isfinite(norm)
        for b in live[finite & (norm <= NEWTON_TOL)]:
            out[b] = U[b]
        keep = finite & (norm > NEWTON_TOL)
        live, u, r, norm = live[keep], u[keep], r[keep], norm[keep]
        if not live.size:
            return out
        # column j of each Jacobian is the central difference along e_j
        stack = u[:, None, :]
        J = ((F(stack + E) - F(stack - E)) / (2 * FD_STEP)).transpose(0, 2, 1)
        steps, solved = _solve_steps(J, -r)
        pending = solved.copy()
        lam = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            idx = np.flatnonzero(pending)
            if not idx.size:
                break
            trial = u[idx] + lam * steps[idx]
            better = np.max(np.abs(F(trial)), axis=1) < norm[idx]
            u[idx[better]] = trial[better]
            pending[idx[better]] = False
            lam *= 0.5
        moved = solved & ~pending
        live = live[moved]
        U[live] = u[moved]
    if live.size:
        norm = np.max(np.abs(F(U[live])), axis=1)
        for b in live[norm <= NEWTON_TOL]:
            out[b] = U[b]
    return out


def _multistart(M: np.ndarray, theta: Theta, cfg: SolverConfig) -> list[tuple[np.ndarray, float]]:
    """Deterministic multistart Newton on u = M f(u): deduped (root, residual).

    The zero start and cfg.starts uniform draws from START_BOX run through
    the batched kernel in chunks of max(1, STACK_BUDGET // dim**2) starts;
    each start's root is bit for bit the one a start-by-start iteration
    gives, because the residual is taken as np.matmul(M, f(U)[..., None])
    (see _residual_map) and every other step is elementwise or per start.
    The residual returned with a root is its max-norm under that map, bit
    for bit max|u - M @ f(u)| of the root alone.

    Plain distance dedupe, plus a flatness merge: when two candidates are
    within FLAT_MERGE_RADIUS and the residual at their midpoint is still
    below FLAT_MERGE_RESIDUAL, nothing separates them at working precision
    and the one with smaller residual represents both.
    """
    F = _residual_map(M, theta)
    dim = M.shape[0]
    rng = np.random.default_rng(cfg.rng_seed)
    starts = np.vstack([np.zeros(dim), rng.uniform(*START_BOX, size=(cfg.starts, dim))])
    chunk = max(1, STACK_BUDGET // (dim * dim))
    candidates = [
        u
        for i in range(0, len(starts), chunk)
        for u in _newton_batch(F, starts[i : i + chunk])
        if u is not None
    ]
    # each candidate's residual once, in one stacked call, kept next to it
    norms = np.max(np.abs(F(np.reshape(candidates, (-1, dim)))), axis=1)
    found: list[tuple[np.ndarray, float]] = []
    for u, norm in sorted(zip(candidates, norms.tolist()), key=lambda c: tuple(c[0])):
        for i, (v, v_norm) in enumerate(found):
            gap = float(np.max(np.abs(u - v)))
            if gap < DEDUPE_EPS or (
                gap <= FLAT_MERGE_RADIUS
                and float(np.max(np.abs(F(0.5 * (u + v))))) <= FLAT_MERGE_RESIDUAL
            ):
                if norm < v_norm:
                    found[i] = (u, norm)
                break
        else:
            found.append((u, norm))
    found.sort(key=lambda c: tuple(c[0]))
    return found


def _classify(fields: np.ndarray) -> str:
    spread = float(np.max(fields) - np.min(fields))
    return "translation-invariant" if spread < TI_SPREAD else "weakly-periodic"


def _constant_field(k: int, theta: Theta) -> float:
    """The positive root h* of h = k f(h) when k theta > 1, by bisection.

    g(h) = k f(h) - h is concave on (0, inf), with slope k theta - 1 > 0 at
    0 and g(k atanh theta) < 0, since f < atanh theta; so it has one root
    in (0, k atanh theta], and halving that interval ends at adjacent floats.
    """
    lo, hi = 0.0, k * theta.beta
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if k * math.atanh(theta.value * math.tanh(mid)) > mid:
            lo = mid
        else:
            hi = mid


def _with_constant_roots(
    found: list[tuple[np.ndarray, float]], M: np.ndarray, k: int, theta: Theta
) -> list[tuple[np.ndarray, float]]:
    """found plus each of +-h*·1 that no root lies within DEDUPE_EPS of, sorted.

    Rows of M sum to k, so W(c·1) = k f(c)·1 and +-h*·1 are fixed points
    whenever k theta > 1.  Random starts reach them less often as the
    dimension grows, so they are added directly, each with its residual
    under Newton's map and only if that residual is within NEWTON_TOL.  A
    found root keeps its bits.
    """
    if k * theta.value <= 1:
        return found
    F = _residual_map(M, theta)
    h = _constant_field(k, theta)
    roots = np.reshape([u for u, _ in found], (-1, len(M)))
    for u in (np.full(len(M), -h), np.full(len(M), h)):
        if not np.any(np.max(np.abs(roots - u), axis=1) < DEDUPE_EPS):
            residual = float(np.max(np.abs(F(u))))
            if residual <= NEWTON_TOL:
                found.append((u, residual))
    found.sort(key=lambda c: tuple(c[0]))
    return found


def solve_fixed_points(
    system: WeaklyPeriodicSystem, theta: Theta, cfg: SolverConfig = SolverConfig()
) -> SolutionSet:
    """All fixed points found by seeded multistart Newton, deduplicated.

    The zero vector is always a fixed point and is always included, and so
    are the constant roots +-h*·1 when k theta > 1 (_with_constant_roots).
    Each solution is classified by coordinate spread and annotated with the
    equality patterns it satisfies among those restrict certifies for the
    system.  One start's finite-difference Jacobian takes states**3
    multiply-adds, so a system over the vertex cap by that count raises
    ResourceLimitError before the first iteration.
    """
    dim = len(system.states)
    check_work(dim**3, f"Newton on {dim} states takes {dim**3} multiply-adds per Jacobian")
    M = count_matrix(system)
    found = _with_constant_roots(_multistart(M, theta, cfg), M, system.k, theta)
    patterns = certified_patterns(system)
    solutions = tuple(_solution(u, residual, patterns) for u, residual in found)
    return SolutionSet(theta=theta.value, states=system.states, solutions=solutions)


def _solution(u: np.ndarray, residual: float, patterns: tuple[str, ...]) -> Solution:
    fields = tuple(float(v) for v in u)
    return Solution(fields, residual, _classify(u), invariant_sets_containing(fields, patterns))


# === invariant equality patterns of the nine-state system ===


@dataclass(frozen=True)
class InvariantPattern:
    """A partition of the nine states whose equality pattern W preserves."""

    id: str
    blocks: tuple[tuple[int, ...], ...]


INVARIANT_PATTERNS: dict[str, InvariantPattern] = {
    p.id: p
    for p in (
        InvariantPattern("I0", ((0, 1, 2, 3, 4, 5, 6, 7, 8),)),
        InvariantPattern("I1", ((0, 1, 3, 4), (2, 5), (6, 7), (8,))),
        InvariantPattern("I2", ((0,), (1, 2), (3, 6), (4, 5, 7, 8))),
        InvariantPattern("I3", ((0, 5, 7), (1, 2, 3, 4, 6, 8))),
        InvariantPattern("I4", ((0, 1, 3, 5, 7, 8), (2, 4, 6))),
        InvariantPattern("I5", ((0, 2, 4, 5, 6, 7), (1, 3, 8))),
    )
}


@functools.lru_cache(maxsize=1)
def certified_patterns(system: WeaklyPeriodicSystem) -> tuple[str, ...]:
    """Ids of the patterns restrict certifies for the system; the last system's are cached."""
    ids = []
    for pid in INVARIANT_PATTERNS:
        try:
            restrict(system, pid)
        except ValueError:  # not the nine-state system, or NotInvariantError
            continue
        ids.append(pid)
    return tuple(ids)


def invariant_sets_containing(fields: Sequence[float], pattern_ids: Iterable[str]) -> tuple[str, ...]:
    """Those pattern ids whose blocks the field vector satisfies within TI_SPREAD."""
    return tuple(
        pid
        for pid in pattern_ids
        if all(
            max(fields[i] for i in block) - min(fields[i] for i in block) < TI_SPREAD
            for block in INVARIANT_PATTERNS[pid].blocks
        )
    )


@dataclass(frozen=True)
class ReducedSystem:
    """Block-collapsed recursion: u_B = sum over blocks of m[B][B'] f(u_B')."""

    pattern_id: str
    k: int
    blocks: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]


def restrict(system: WeaklyPeriodicSystem, pattern_id: str) -> ReducedSystem:
    """Restrict the nine-state system to an equality pattern, with certificate.

    Under the pattern, each row's coefficients collapse to per-block sums.
    The pattern is invariant iff all states inside one block collapse to the
    same row; the comparison is exact integer arithmetic, and failure raises
    NotInvariantError.
    """
    if system.states != NINE_STATES or system.s != 1:
        raise ValueError("restriction patterns are defined for the nine-state system")
    pattern = INVARIANT_PATTERNS[pattern_id]
    blocks = pattern.blocks
    reduced: list[tuple[int, ...]] = []
    for block in blocks:
        rows = []
        for i in block:
            row = tuple(
                sum(system.counts[i][j] for j in other) for other in blocks
            )
            rows.append(row)
        for i, row in zip(block[1:], rows[1:]):
            if row != rows[0]:
                raise NotInvariantError(
                    f"{pattern_id} is not invariant for k={system.k}: state index "
                    f"{block[0]} reduces to {rows[0]} but {i} reduces to {row}"
                )
        reduced.append(rows[0])
    return ReducedSystem(
        pattern_id=pattern_id, k=system.k, blocks=blocks, matrix=tuple(reduced)
    )


# === exact solution on the four-block pattern (k = 2) ===


def quadratic_branch(a: float) -> tuple[float, tuple[float, ...]]:
    """Roots of a x^2 + (a-1) x + a = 0: (discriminant, positive roots).

    The discriminant 1 - 2a - 3a^2 is nonnegative exactly for a <= 1/3,
    i.e. theta >= 1/2; the two roots multiply to 1.  They are x = exp(h*)
    and 1/x for the nonzero translation-invariant pair +-h* at k = 2:
    (x - 1)(a x^2 + (a-1) x + a) = a x^3 - x^2 + x - a is the constant-field
    equation x = g(x^2).
    """
    disc = 1.0 - 2.0 * a - 3.0 * a * a
    if disc <= 0.0:
        return disc, ()
    root = math.sqrt(disc)
    x1 = (1.0 - a + root) / (2.0 * a)
    x2 = (1.0 - a - root) / (2.0 * a)
    return disc, (x1, x2)


BOUNDARY_DISC_EPS = 1e-12
# largest residual a branch vector may leave on the full nine-state system
EXACT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ExactBranchResult:
    """Outcome of the exact polynomial path on the four-block pattern."""

    theta: float
    a: float
    discriminant: float
    roots: tuple[float, ...]
    boundary_degenerate: bool
    solution_set: SolutionSet


@functools.cache
def _i1_table() -> tuple[WeaklyPeriodicSystem, tuple[str, ...]]:
    """The system of {k:2,s:1,A1:[1],A2:[2]}, derived once, and its certified patterns."""
    system = derive_system(SubgroupSpec(k=2, s=1, a1={1}, a2={2}))
    return system, certified_patterns(system)


def solve_i1_exact(theta: Theta) -> ExactBranchResult:
    """Solve the four-block restriction of the k = 2 nine-state system exactly.

    The system is the one table every k = 2 singleton spec at s = 1
    derives (_i1_table).  In z = exp(2h) coordinates the restricted
    equations collapse to one polynomial in x = exp(h) on the block {2, 5}.
    The factor x = 1 gives the zero solution.  The quadratic factor has two
    reciprocal positive roots exactly when theta >= 1/2, and at either root
    all nine coordinates equal log(x) (test_i1_elimination_certificate), so
    the pair is built as +-log(x)·1, with x the larger root, and checked
    against the full nine-state system.  The quartic cofactor never has
    positive roots, so no solution in the pattern is non-constant.  At
    theta = 1/2 the quadratic degenerates to the double root x = 1 and is
    reported as boundary-degenerate with no extra branch.
    """
    system, patterns = _i1_table()
    a = theta.a
    disc, roots = quadratic_branch(a)
    boundary = abs(disc) <= BOUNDARY_DISC_EPS
    F = _residual_map(count_matrix(system), theta)
    values = [0.0]
    if roots and not boundary:
        h = math.log(roots[0])
        values = [-h, 0.0, h]
    solutions = []
    for v in values:
        u = np.full(9, v)
        residual = float(np.max(np.abs(F(u))))
        if residual > EXACT_RESIDUAL_TOL:
            raise ArithmeticError(f"branch {v!r}·1 misses the full system (residual {residual:.3e})")
        solutions.append(_solution(u, residual, patterns))
    return ExactBranchResult(
        theta=theta.value,
        a=a,
        discriminant=disc,
        roots=() if boundary else roots,
        boundary_degenerate=boundary,
        solution_set=SolutionSet(
            theta=theta.value, states=NINE_STATES, solutions=tuple(solutions)
        ),
    )


# === theta sweep ===

# exact-branch and Newton solutions agree when this close in max-norm
SWEEP_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class SweepRow:
    theta: float
    n_ti: int
    n_wp_i1: int
    n_wp_i2: int
    agreement: bool
    max_residual: float = 0.0  # not serialized to CSV


def theta_sweep(
    system: WeaklyPeriodicSystem,
    theta_values: Iterable[float],
    cfg: SolverConfig = SolverConfig(),
) -> list[SweepRow]:
    """Count solution kinds per theta and cross-check the exact branch.

    n_wp_i1 / n_wp_i2 count solutions that are weakly periodic (not constant)
    and lie in the respective pattern; for the k = 2 nine-state system
    n_wp_i1 is 0 at every theta, since every fixed point in I1 is constant.
    A pattern counts only where restrict certifies it, so for every system
    off the nine states both are 0, even where non-constant roots exist.
    Agreement means the exact-branch solutions and the Newton solutions
    match pairwise within SWEEP_MATCH_TOL.  The exact path solves one table
    (_i1_table); for every other system the Newton result stands alone and
    agreement is vacuously true.
    """
    rows = []
    # equal counts give equal k, since rows sum to k
    has_exact = system.states == NINE_STATES and system.counts == _i1_table()[0].counts
    for value in theta_values:
        theta = Theta(value)
        found = solve_fixed_points(system, theta, cfg)
        n_ti = len(found.translation_invariant())
        n_wp_i1 = sum(
            1 for s in found.weakly_periodic() if "I1" in s.invariant_sets
        )
        n_wp_i2 = sum(
            1 for s in found.weakly_periodic() if "I2" in s.invariant_sets
        )
        agreement = True
        if has_exact:
            exact = solve_i1_exact(theta).solution_set
            for sol in exact.solutions:
                if _nearest_distance(sol.fields, found.solutions) > SWEEP_MATCH_TOL:
                    agreement = False
            for sol in found.solutions:
                if "I1" in sol.invariant_sets:
                    if _nearest_distance(sol.fields, exact.solutions) > SWEEP_MATCH_TOL:
                        agreement = False
        rows.append(
            SweepRow(
                theta=value,
                n_ti=n_ti,
                n_wp_i1=n_wp_i1,
                n_wp_i2=n_wp_i2,
                agreement=agreement,
                max_residual=max((s.residual for s in found.solutions), default=0.0),
            )
        )
    return rows


def _nearest_distance(fields: tuple[float, ...], solutions: tuple[Solution, ...]) -> float:
    if not solutions:
        return math.inf
    target = np.array(fields)
    return min(float(np.max(np.abs(target - np.array(s.fields)))) for s in solutions)


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["theta,n_ti,n_wp_I1,n_wp_I2,agreement"]
    for row in rows:
        lines.append(
            f"{row.theta:.12g},{row.n_ti},{row.n_wp_i1},{row.n_wp_i2},"
            f"{'true' if row.agreement else 'false'}"
        )
    return "\n".join(lines) + "\n"


# === compatibility: the field equation on the tree ===

# largest field residual a compatible field vector may leave on sphere n-1
COMPAT_TOL = 1e-10


@dataclass(frozen=True)
class CompatibilityReport:
    passed: bool
    n: int
    max_deviation: float
    configs_checked: int


def verify_compatibility(
    fields: Sequence[float], system: WeaklyPeriodicSystem, theta: Theta, n: int
) -> CompatibilityReport:
    """Check that the fields give consistent measures between levels n and n-1.

    Summing a child spin t with field b_w out of the level-n measure leaves
    2cosh(beta s + b_w) on its parent's spin s, which is exp(f(b_w) s) up to
    a constant, f = edge_field.  So the level-n marginal is the level-(n-1)
    measure exactly when b_p = sum over the children w of p of f(b_w) at
    every vertex p of sphere n-1 (Kolmogorov consistency on the tree).  The
    radius-n ball is walked once: every vertex of spheres n and n-1 takes
    the field of its state under the system's subgroup spec, so the check
    does not read the system's counts, and a vertex whose state the system
    lacks raises ValueError.  max_deviation is the largest |b_p - sum| over
    sphere n-1, children added in sphere order; it passes within
    COMPAT_TOL.  configs_checked is 2^V(n), the number of level-n
    configurations the identity covers.

    n must be at least 2, since the root has no state.  Before any ball is
    built, V(n) is held to the vertex cap (check_ball_cap), and then a
    2^V(n) with more decimal digits than sys.get_int_max_str_digits()
    allows, which cannot be printed, raises ValueError.
    """
    if n < 2:
        raise ValueError(f"compatibility needs n >= 2, got {n}: the root has no state")
    if system.spec is None:
        raise ValueError("system must carry its subgroup spec to place boundary fields")
    if len(fields) != len(system.states):
        raise ValueError(f"{len(fields)} fields for a system of {len(system.states)} states")
    spec = system.spec
    bits = check_ball_cap(spec.k, n)
    digits = int(bits * math.log10(2)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(
            f"2^{bits} configurations have {digits} digits, over the {limit}-digit limit for printing an int"
        )
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
    deviation = float(np.max(np.abs(np.array(list(own.values())) - list(summed.values()))))
    return CompatibilityReport(
        passed=deviation <= COMPAT_TOL,
        n=n,
        max_deviation=deviation,
        configs_checked=1 << bits,
    )
