"""Fixed points of the weakly periodic Ising field equations.

Boundary fields satisfy h_state = sum over successor states of
count * f(h_successor) with f(h) = artanh(theta * tanh h), the field one
edge passes upward at interaction strength theta in (0, 1).  This module
solves those equations two ways, batched multistart damped Newton on the
full system and the exact k = 2 branch on the four-block invariant
subspace of the nine-state system, and verifies that solutions give
consistent finite-volume measures by checking the field identity
b_p = sum over the children w of p of f(b_w) on sphere n-1 of the tree
(verify_compatibility).  Where k theta <= 1 the zero field is proved the
only fixed point, not sampled (_solution_sets).  Multistart Newton runs every
other (theta, start) row of a sweep through one stream of stacked
iterations, each row at its own theta, in chunks as large as
STACK_BUDGET allows; solving one theta is the one-theta case.  Each
start reaches bit for bit the root a start-by-start iteration reaches
(_newton_batch), though its line search tries the step lengths in three
stacked stages: the residual is one np.matmul matrix-vector product per
vector (_residual), and the Jacobian is exact, I - M diag(f'(u)) with f'
in closed form (_slope), one broadcast multiply per row (_jacobians).
The constant roots +-h*·1 are added wherever multistart missed them.  On
the four-block subspace the quadratic branch is the nonzero
translation-invariant pair and the quartic cofactor has no positive root,
so that subspace holds no non-constant fixed point; the exact path builds
the pair as +-log(x)·1.

A run sets only SolverConfig (starts, rng_seed).  The rest are
constants: NEWTON_TOL, NEWTON_MAX_ITER, LINE_SEARCH_HALVINGS (in
LINE_SEARCH_STAGES), START_BOX, STACK_BUDGET, DEDUPE_EPS,
FLAT_MERGE_RADIUS, FLAT_MERGE_RESIDUAL, TI_SPREAD (constant vectors and
pattern blocks), EXACT_RESIDUAL_TOL, SWEEP_MATCH_TOL and COMPAT_TOL.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from cayleygibbs.cosets import SubgroupSpec, type_table, typed_spheres
from cayleygibbs.invariance import StatePair, WeaklyPeriodicSystem, derive_system
from cayleygibbs.words import check_ball_cap, check_work, word_to_str

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

# a chunk holds max(1, STACK_BUDGET // dim**2) (theta, start) rows, so up
# to 256 states its Jacobians stay within STACK_BUDGET elements (512 KB),
# and each stack of line-search trials within STACK_BUDGET.  Memory grows
# with neither the starts nor the thetas.  A chunk runs as many
# iterations as its slowest row, mostly per-call overhead at 9 and 15
# states, so rows are capped by memory alone
STACK_BUDGET = 1 << 16
LINE_SEARCH_HALVINGS = 30
# the step lengths 2**-j, j < LINE_SEARCH_HALVINGS, in the line search's
# three stacked stages: 1, then 1/2 to 1/8, then the rest
LINE_SEARCH_STAGES = tuple(
    np.array([math.ldexp(1.0, -j) for j in range(*ends)]) for ends in ((0, 1), (1, 4), (4, LINE_SEARCH_HALVINGS))
)
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


def _residual(M: np.ndarray, U: np.ndarray, t) -> np.ndarray:
    """F(U) = U - M f(U) on the last axis of a vector or a stack of vectors.

    t is theta, a float or an array that broadcasts against U.  np.matmul
    against f(U)[..., None] makes one matrix-vector product per stacked
    vector, bit for bit M @ f(u); u @ M.T, einsum and (M @ f(U).T).T sum in
    another order, which moves the last bit at k >= 3.
    """
    F = np.matmul(M, _edge(U, t)[..., None])[..., 0]
    return np.subtract(U, F, out=F)


def _edge(U: np.ndarray, t) -> np.ndarray:
    """edge_field of an array at theta t, built in one new buffer."""
    f = np.tanh(U)
    np.multiply(t, f, out=f)
    return np.arctanh(f, out=f)


def _slope(U: np.ndarray, t) -> np.ndarray:
    """f'(U) = theta (1 - tanh^2 U) / (1 - theta^2 tanh^2 U) of an array at theta t.

    With e = exp(-|h|)^2 in [0, 1], f' = 4 theta e / ((1 - theta)(1 + theta)
    (1 + e^2) + 2 e (1 + theta^2)): no term is negative, so nothing cancels
    and f' is within a few ulps while it is a normal float (|h| < 354), where
    1 - tanh^2 h is 0 from |h| ~ 19.  No finite h overflows (-2|h| would
    past 9e307), and e underflows silently, by numpy's default.
    """
    e = np.exp(-np.abs(U))
    e *= e
    return 4.0 * t * e / ((1.0 - t) * (1.0 + t) * (1.0 + e * e) + 2.0 * (1.0 + t * t) * e)


def _jacobians(M: np.ndarray, u: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The exact Jacobians I - M diag(f'(u_b)) of F(u) = u - M f(u) at every row u_b, at theta t[b], into out."""
    J = np.multiply(M, _slope(u, t)[:, None, :], out=out)
    return np.subtract(np.eye(len(M)), J, out=J)


def _max_norm(M: np.ndarray, U: np.ndarray, t) -> np.ndarray:
    """max|F(U)| over the last axis (see _residual)."""
    return np.max(np.abs(_residual(M, U, t)), axis=-1)


def _solve_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J[b]^-1 rhs[b] and a mask of the rows that got one."""
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


def _line_search_stage(
    M: np.ndarray, u: np.ndarray, steps: np.ndarray, t: np.ndarray, norm: np.ndarray, lams: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Trials u + lam * steps in one (rows, lams, dim) stack: the rows that lower norm.

    Returns hit, and per hit row the first lam's point, residual and
    max-norm below norm, each with the bits of that trial alone.
    """
    trial = u[:, None, :] + lams[:, None] * steps[:, None, :]
    r = _residual(M, trial, t[:, None])
    norms = np.max(np.abs(r), axis=2)
    # lams fall, so the first lam that lowers a row's norm is the largest that does
    lam = np.max(np.where(norms < norm[:, None], lams, 0.0), axis=1)
    first = lams == lam[:, None]
    return lam > 0.0, trial[first], r[first], norms[first]


def _newton_batch(M: np.ndarray, t: np.ndarray, U0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on u = M f(u) from every row of U0 at once, row b at theta t[b].

    Returns the roots and their residual max-norms; a row that finds none
    keeps its start and a NaN norm.  Each row follows the scalar rule
    exactly: stop at a norm <= NEWTON_TOL, fail at a non-finite norm or a
    singular Jacobian (_jacobians), take the first step length 1, 1/2, ...,
    2**(1 - LINE_SEARCH_HALVINGS) that strictly lowers the norm (else fail,
    _line_search), and after NEWTON_MAX_ITER iterations keep the point only
    if its norm is <= NEWTON_TOL.
    """
    U = U0.astype(float)
    norms = np.full(len(U), np.nan)
    # rewritten each iteration: a new array faults its pages in again (+30% at 213 states)
    jacobians = np.empty((len(U), U.shape[1], U.shape[1]))
    r = _residual(M, U, t[:, None])
    norm = np.max(np.abs(r), axis=1)
    live, u, tl = np.arange(len(U)), U, t[:, None]
    # an accepted trial's norm is below a finite one, so only a start's can be NaN or inf
    ok = np.isfinite(norm)
    for iteration in range(NEWTON_MAX_ITER + 1):
        # retire: write out the converged rows, drop them and the failed ones
        done = norm <= NEWTON_TOL
        U[live[done]] = u[done]
        norms[live[done]] = norm[done]
        keep = ok & ~done
        live, u, tl, r, norm = live[keep], u[keep], tl[keep], r[keep], norm[keep]
        if not live.size or iteration == NEWTON_MAX_ITER:
            return U, norms
        ok = _line_search(M, u, r, norm, tl, *_solve_steps(_jacobians(M, u, tl, jacobians[: live.size]), -r))


def _line_search(
    M: np.ndarray, u: np.ndarray, r: np.ndarray, norm: np.ndarray, t: np.ndarray, steps: np.ndarray, ok: np.ndarray
) -> np.ndarray:
    """One iteration's line search on the rows with ok (a step): ok less the rows no length moves.

    Each of the LINE_SEARCH_STAGES is one stacked call on the rows still
    pending while they fit STACK_BUDGET; an accepted trial's point, residual
    and norm are written into u, r and norm.  The steps and the last stage's
    trials are gone on return, before the next Jacobians are taken.
    """
    pending = np.flatnonzero(ok)
    for lams in LINE_SEARCH_STAGES:
        if not pending.size:
            break
        per = max(1, STACK_BUDGET // (lams.size * u.shape[1]))
        hits = []
        for lo in range(0, pending.size, per):
            idx = pending[lo : lo + per]
            rows = idx if idx.size < len(u) else slice(None)  # all rows: views, not copies
            hit, *accepted = _line_search_stage(M, u[rows], steps[rows], t[rows], norm[rows], lams)
            won = idx[hit]
            u[won], r[won], norm[won] = accepted
            hits.append(hit)
        pending = pending[~np.concatenate(hits)]
    ok[pending] = False
    return ok


def _starts(dim: int, cfg: SolverConfig) -> np.ndarray:
    """The zero start, then cfg.starts uniform draws from START_BOX, seeded by cfg.rng_seed."""
    rng = np.random.default_rng(cfg.rng_seed)
    return np.vstack([np.zeros(dim), rng.uniform(*START_BOX, size=(cfg.starts, dim))])


def _multistart(
    M: np.ndarray, thetas: Sequence[Theta], cfg: SolverConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Deterministic multistart Newton on u = M f(u) at each theta: deduped roots, residuals.

    Every theta runs Newton from the same starts (_starts).  The (theta,
    start) rows of all thetas go through the batched kernel in order, in
    chunks of max(1, STACK_BUDGET // dim**2) rows, each row at its theta.
    As soon as a theta's last row is done, its candidates are deduped
    (_dedupe) and yielded, so the stream holds one chunk and one theta's
    candidates at a time.  A root's residual is its max-norm under
    _residual, bit for bit max|u - M @ f(u)|.
    """
    dim = len(M)
    starts = _starts(dim, cfg)
    per = len(starts)
    t = np.array([theta.value for theta in thetas])
    chunk = max(1, STACK_BUDGET // (dim * dim))
    total = len(t) * per
    roots: list[np.ndarray] = []
    norms: list[np.ndarray] = []
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        rows = np.arange(lo, hi)
        U, norm = _newton_batch(M, t[rows // per], starts[rows % per])
        for i in range(lo // per, (hi - 1) // per + 1):
            part = slice(max(lo, i * per) - lo, min(hi, (i + 1) * per) - lo)
            found = ~np.isnan(norm[part])
            roots.append(U[part][found])
            norms.append(norm[part][found])
            if (i + 1) * per <= hi:
                yield _dedupe(M, t[i], np.concatenate(roots), np.concatenate(norms))
                roots, norms = [], []


def _dedupe(
    M: np.ndarray, t: float, roots: np.ndarray, norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One theta's candidates, deduped in lexicographic order: roots sorted, residuals.

    Plain distance dedupe, plus a flatness merge: when a candidate is
    within FLAT_MERGE_RADIUS of a kept root and the residual at their
    midpoint is still below FLAT_MERGE_RESIDUAL, nothing separates them at
    working precision.  A candidate merges into the first kept root it
    matches, and the one with smaller residual represents both.
    """
    kept = np.empty_like(roots)
    kept_norms = np.empty_like(norms)
    n = 0
    for u, norm in zip(*_lex_sorted(roots, norms)):
        for i, gap in enumerate(np.abs(kept[:n] - u).max(axis=1).tolist()):
            if gap < DEDUPE_EPS or (
                gap <= FLAT_MERGE_RADIUS and _max_norm(M, 0.5 * (u + kept[i]), t) <= FLAT_MERGE_RESIDUAL
            ):
                if norm < kept_norms[i]:
                    kept[i], kept_norms[i] = u, norm
                break
        else:
            kept[n], kept_norms[n] = u, norm
            n += 1
    return _lex_sorted(kept[:n], kept_norms[:n])


def _lex_sorted(roots: np.ndarray, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """roots and their residuals, in the order the roots' coordinate tuples sort in."""
    order = sorted(range(len(roots)), key=roots.tolist().__getitem__)
    return roots[order], residuals[order]


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
    roots: np.ndarray, residuals: np.ndarray, M: np.ndarray, k: int, theta: Theta
) -> tuple[np.ndarray, np.ndarray]:
    """roots plus each of +-h*·1 that no root lies within DEDUPE_EPS of, sorted.

    Rows of M sum to k, so W(c·1) = k f(c)·1 and +-h*·1 are fixed points
    whenever k theta > 1.  Random starts reach them less often as the
    dimension grows, so they are added directly, each with its residual
    under Newton's map and only if that residual is within NEWTON_TOL.  A
    found root keeps its bits.
    """
    if k * theta.value <= 1:
        return roots, residuals
    h = _constant_field(k, theta)
    pair = np.array([np.full(len(M), -h), np.full(len(M), h)])
    absent = [not np.any(np.max(np.abs(roots - u), axis=1) < DEDUPE_EPS) for u in pair]
    added = _max_norm(M, pair, theta.value)
    added_ok = np.array(absent) & (added <= NEWTON_TOL)
    return _lex_sorted(np.vstack([roots, pair[added_ok]]), np.concatenate([residuals, added[added_ok]]))


def _solution_sets(
    system: WeaklyPeriodicSystem, thetas: Sequence[Theta], cfg: SolverConfig
) -> list[SolutionSet]:
    """The fixed points at every theta: zero alone where k theta <= 1, else one multistart stream.

    For k theta <= 1, taken exactly (Fraction), the zero field is the only
    fixed point.  f'(h) = theta sech^2 h / (1 - theta^2 tanh^2 h) <= theta,
    so |f(h)| < theta |h| for h != 0.  M is non-negative and its rows sum to
    k (derive_system and from_json both guarantee it).  So at the largest
    coordinate of a fixed point u != 0, |u_i| <= sum_j M_ij |f(u_j)| <
    theta sum_j M_ij |u_j| <= k theta |u_i| <= |u_i|, the strict step
    because u_i != 0 needs some f(u_j) != 0 with M_ij > 0: no such u
    exists.  Such a theta gets the zero root with residual 0.0, the zero
    start's own bits, and only the other thetas go through the stream (see
    solve_fixed_points).
    """
    if not thetas:
        return []
    dim = len(system.states)
    check_work(dim**3, f"Newton on {dim} states takes {dim**3} multiply-adds per Jacobian")
    M = count_matrix(system)
    zero_only = [Fraction(theta.value) * system.k <= 1 for theta in thetas]
    searched = _multistart(M, [theta for theta, zero in zip(thetas, zero_only) if not zero], cfg)
    found = [
        (np.zeros((1, dim)), np.zeros(1)) if zero else _with_constant_roots(*next(searched), M, system.k, theta)
        for theta, zero in zip(thetas, zero_only)
    ]
    solutions = iter(
        _solutions(
            np.concatenate([roots for roots, _ in found]),
            np.concatenate([residuals for _, residuals in found]),
            certified_patterns(system),
        )
    )
    return [
        SolutionSet(theta.value, system.states, tuple(itertools.islice(solutions, len(roots))))
        for theta, (roots, _) in zip(thetas, found)
    ]


def solve_fixed_points(
    system: WeaklyPeriodicSystem, theta: Theta, cfg: SolverConfig = SolverConfig()
) -> SolutionSet:
    """All fixed points found by seeded multistart Newton, deduplicated.

    The one-theta case of the stream theta_sweep runs (_multistart).  The
    zero vector is always a fixed point and is always included, and so are
    the constant roots +-h*·1 when k theta > 1 (_with_constant_roots).
    When k theta <= 1 zero is proved the only fixed point and is returned
    with residual 0.0 without a Newton step (_solution_sets).
    Each solution is classified by coordinate spread and annotated with the
    equality patterns it satisfies among those restrict certifies for the
    system.  One start's Newton iteration solves a dense states x states
    system, of the order of states**3 multiply-adds, while its Jacobian
    costs states**2 multiplies and its line search one to three stacked
    residuals; a system over the
    vertex cap by states**3 raises ResourceLimitError before the first
    iteration, with the message it always gave ("... multiply-adds per
    Jacobian").
    """
    return _solution_sets(system, [theta], cfg)[0]


def _solutions(fields: np.ndarray, residuals: np.ndarray, patterns: tuple[str, ...]) -> list[Solution]:
    """A Solution per row of fields, with the patterns among those given that it satisfies.

    A row is translation-invariant when its spread, max - min, is below
    TI_SPREAD, and lies in a pattern when the spread within every block
    is.  A block's max is at most its row's and its min at least, and
    rounding is monotone, so a block's spread never exceeds its row's: a
    constant row lies in every pattern, and only the other rows are
    measured, block by block, none when there are none.
    """
    constant = np.max(fields, axis=1) - np.min(fields, axis=1) < TI_SPREAD
    loose = fields[~constant]
    # per pattern, whether each other row's spread within every block is below TI_SPREAD
    columns = [
        np.all([np.ptp(loose[:, b], axis=1) < TI_SPREAD for b in INVARIANT_PATTERNS[pid].blocks], axis=0).tolist()
        for pid in (patterns if len(loose) else ())
    ]
    loose_hits = zip(*columns)
    solutions = []
    for u, residual, flat in zip(fields.tolist(), residuals.tolist(), constant.tolist()):
        hits = patterns if flat else tuple(pid for pid, hit in zip(patterns, next(loose_hits, ())) if hit)
        solutions.append(Solution(tuple(u), residual, "translation-invariant" if flat else "weakly-periodic", hits))
    return solutions


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
    disc, roots, boundary, values = _branch(theta)
    fields, residuals = _checked_branches([theta], [values])
    return ExactBranchResult(
        theta=theta.value,
        a=theta.a,
        discriminant=disc,
        roots=roots,
        boundary_degenerate=boundary,
        solution_set=SolutionSet(theta.value, NINE_STATES, tuple(_solutions(fields, residuals, _i1_table()[1]))),
    )


def _branch(theta: Theta) -> tuple[float, tuple[float, ...], bool, tuple[float, ...]]:
    """The quadratic's discriminant, its reported roots, boundary degeneracy and the branch values at theta.

    The values are 0, or -log(x), 0, log(x) with x the larger root when the
    quadratic has roots away from the boundary (see solve_i1_exact).
    """
    disc, roots = quadratic_branch(theta.a)
    boundary = abs(disc) <= BOUNDARY_DISC_EPS
    if boundary or not roots:
        return disc, (), boundary, (0.0,)
    h = math.log(roots[0])
    return disc, roots, False, (-h, 0.0, h)


def _checked_branches(
    thetas: Sequence[Theta], values: Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Every value·1 of every theta on the k = 2 table, as rows, and their residuals.

    All the vectors' residuals are one _max_norm call, each at its own
    theta; one over EXACT_RESIDUAL_TOL raises ArithmeticError.
    """
    flat = np.array([v for vs in values for v in vs])
    t = np.repeat([theta.value for theta in thetas], [len(vs) for vs in values])
    fields = np.repeat(flat[:, None], len(NINE_STATES), axis=1)
    residuals = _max_norm(count_matrix(_i1_table()[0]), fields, t[:, None])
    for v, residual in zip(flat.tolist(), residuals.tolist()):
        if residual > EXACT_RESIDUAL_TOL:
            raise ArithmeticError(f"branch {v!r}·1 misses the full system (residual {residual:.3e})")
    return fields, residuals


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
    match pairwise within SWEEP_MATCH_TOL (_agreement).  The exact path
    solves one table (_i1_table); for every other system the Newton result
    stands alone and agreement is vacuously true.  The fixed points come
    from _solution_sets, each theta's set equal to what solve_fixed_points
    gives at that theta alone.  The exact vectors of all thetas are built
    and checked in one array (_checked_branches).
    """
    thetas = [Theta(value) for value in theta_values]
    sets = _solution_sets(system, thetas, cfg)
    # equal counts give equal k, since rows sum to k
    if sets and system.states == NINE_STATES and system.counts == _i1_table()[0].counts:
        values = [_branch(theta)[3] for theta in thetas]
        _checked_branches(thetas, values)
        agreement = _agreement(sets, values)
    else:
        agreement = [True] * len(sets)
    return [
        SweepRow(
            theta=theta.value,
            n_ti=len(found.translation_invariant()),
            n_wp_i1=sum(1 for s in found.weakly_periodic() if "I1" in s.invariant_sets),
            n_wp_i2=sum(1 for s in found.weakly_periodic() if "I2" in s.invariant_sets),
            agreement=agrees,
            max_residual=max((s.residual for s in found.solutions), default=0.0),
        )
        for theta, found, agrees in zip(thetas, sets, agreement)
    ]


def _agreement(newton: Sequence[SolutionSet], exact: Sequence[Sequence[float]]) -> list[bool]:
    """Per theta, whether the exact and the Newton solutions match within SWEEP_MATCH_TOL.

    exact holds each theta's branch values; its solutions are the constant
    vectors c·1.  Every exact solution needs a Newton one that close in
    max-norm, and every Newton one in I1 an exact one.  The max-norm
    distance from u to c·1 is max(max(u) - c, c - min(u)): rounding is
    monotone and c - x = -(x - c) exactly, so that is max|u - c| bit for
    bit, and a root is read through its min and max alone.
    """
    agreement = []
    for found, values in zip(newton, exact):
        unmatched, agrees = set(values), True
        for s in found.solutions:
            lo, hi = min(s.fields), max(s.fields)
            near = {c for c in values if max(hi - c, c - lo) <= SWEEP_MATCH_TOL}
            unmatched -= near
            if not near and "I1" in s.invariant_sets:
                agrees = False
        agreement.append(agrees and not unmatched)
    return agreement


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    """The sweep CSV, each theta as its shortest round-trip repr, so distinct thetas print distinct rows."""
    lines = ["theta,n_ti,n_wp_I1,n_wp_I2,agreement"]
    for row in rows:
        lines.append(
            f"{float(row.theta)!r},{row.n_ti},{row.n_wp_i1},{row.n_wp_i2},"
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
    every vertex p of sphere n-1 (Kolmogorov consistency on the tree).  A
    vertex's type (cosets.type_table) fixes its state and its children's
    types, so each sphere's types are walked once and each takes the field
    of its state; the counts are not read.  A vertex whose state the system
    lacks raises ValueError, the first of sphere n, then of sphere n-1.
    max_deviation is the largest |b_p - sum| over sphere n-1, children
    added in letter order; it passes within COMPAT_TOL.  configs_checked
    is 2^V(n), the number of level-n configurations.

    n must be at least 2, since the root has no state.  Before any ball is
    built, V(n) is held to the vertex cap (check_ball_cap), and then a
    2^V(n) with more decimal digits than sys.get_int_max_str_digits()
    allows, which cannot be printed, raises ValueError (by default n <= 12
    runs at k = 2, 8 at k = 3, 6 at k = 4).
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
    types, _, kids = type_table(spec, n)
    spheres = [{0: None}]  # each sphere's types once, in the order its vertices meet them, with their states
    for _ in range(n):  # a type's position fixes its parent's, so its state is (its class, a parent's class)
        spheres.append({u: (types[u][0] % spec.index, types[t][0] % spec.index) for t in spheres[-1] for u in kids[t]})
    own, out = spheres[-2:]
    field = {}  # type id -> the field of its state
    for m in (n, n - 1):
        for t, st in spheres[m].items():
            if st not in values:
                words, ids = list(typed_spheres(types, kids, n))[m]
                where = word_to_str(words[ids.index(t)])
                raise ValueError(f"the system has no state {st[0]},{st[1]}, where outer vertex {where} lands")
            field[t] = values[st]
    edge = dict(zip(out, edge_field(np.array([field[u] for u in out]), theta).tolist()))
    # children added one at a time in letter order, as sphere order adds them; sum() compensates from 3.12
    summed = [functools.reduce(float.__add__, (edge[u] for u in kids[t]), 0.0) for t in own]
    deviation = float(np.max(np.abs(np.array([field[t] for t in own]) - summed)))
    return CompatibilityReport(
        passed=deviation <= COMPAT_TOL,
        n=n,
        max_deviation=deviation,
        configs_checked=1 << bits,
    )
