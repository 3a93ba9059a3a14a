"""Tests for the field-equation solver.

Oracles: the scalar edge map is checked against its log form, the constant
fixed point against a closed form, the batched Newton kernel against the
start-by-start iteration in tests/oracles.py, and the spin-matrix
finite-volume distribution in tests/oracles.py against a brute-force
dictionary implementation; summed over its outer sphere, that distribution
pins the field identity the compatibility check tests.
"""

import dataclasses
import functools
import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import oracles
from oracles import (
    _jacobian,
    _newton,
    apply_recursion,
    check_quartic_positivity,
    closed_jacobian,
    expand,
    finite_volume_probability,
    quartic_coefficients,
    solve_reduced,
    translation_invariant_fields,
)
from oracles import _volume_distribution as spin_matrix_distribution

import cayleygibbs.solver as solver
from cayleygibbs.cosets import SubgroupSpec, check_cosets, type_table
from cayleygibbs.invariance import WeaklyPeriodicSystem, check_invariance, derive_system, state_of
from cayleygibbs.solver import (
    INVARIANT_PATTERNS,
    NINE_STATES,
    SWEEP_MATCH_TOL,
    TI_SPREAD,
    NotInvariantError,
    Solution,
    SolutionSet,
    SolverConfig,
    Theta,
    certified_patterns,
    count_matrix,
    edge_field,
    quadratic_branch,
    restrict,
    solve_fixed_points,
    solve_i1_exact,
    sweep_to_csv,
    theta_sweep,
    verify_compatibility,
)
from cayleygibbs.words import ResourceLimitError, ball_size, enumerate_ball, parent, word_from_str

STANDARD = SubgroupSpec(k=2, s=1, a1={1}, a2={2})

# closed forms for k=2, theta=0.8: the constant field solves h = 2 f(h),
# i.e. exp(h*) = 4 + sqrt(15); the branch roots x = exp(h*) and 1/x solve
# a x^2 + (a-1) x + a.
H_STAR = math.log(4.0 + math.sqrt(15.0))
X_PLUS = 4.0 + math.sqrt(15.0)
X_MINUS = 4.0 - math.sqrt(15.0)


@pytest.fixture(scope="module")
def nine_state():
    return derive_system(STANDARD)


# === parameters and the edge map ===


def test_theta_validation():
    assert Theta(0.8).value == 0.8
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            Theta(bad)


def test_theta_derived_parameters():
    th = Theta(0.8)
    assert th.beta == pytest.approx(math.atanh(0.8), abs=1e-15)
    assert th.a == pytest.approx(0.2 / 1.8, abs=1e-15)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(starts=-1)


def test_newton_tolerance_is_a_constant_under_the_flat_merge_threshold():
    # the flatness merge separates candidates only above Newton's tolerance
    assert 0 < solver.NEWTON_TOL < solver.FLAT_MERGE_RESIDUAL
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["starts", "rng_seed"]


def test_edge_field_log_identity():
    # artanh(y) = log((1+y)/(1-y))/2 gives an independent route
    th = Theta(0.8)
    for h in (-2.5, -1.0, 0.3, 1.0, 4.0):
        y = 0.8 * math.tanh(h)
        expect = 0.5 * math.log((1.0 + y) / (1.0 - y))
        assert edge_field(h, th) == pytest.approx(expect, abs=1e-15)


def test_edge_field_odd_monotone_bounded():
    th = Theta(0.6)
    grid = np.linspace(-8.0, 8.0, 1601)
    vals = edge_field(grid, th)
    assert np.allclose(vals + edge_field(-grid, th), 0.0, atol=1e-15)
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(vals)) < th.beta


def test_apply_recursion_constant_vector(nine_state):
    th = Theta(0.7)
    out = apply_recursion(nine_state, [1.3] * 9, th)
    expect = 2.0 * edge_field(1.3, th)
    assert np.allclose(out, expect, atol=1e-15)


# === constant (translation-invariant) solutions ===


def test_constant_solutions_above_threshold():
    roots = translation_invariant_fields(2, Theta(0.8))
    assert len(roots) == 3
    assert roots[1] == 0.0
    assert roots[2] == pytest.approx(H_STAR, abs=1e-12)
    assert roots[0] == pytest.approx(-H_STAR, abs=1e-12)


def test_constant_solutions_below_threshold():
    assert translation_invariant_fields(2, Theta(0.4)) == [0.0]
    # k * theta = 1 exactly is still uniqueness
    assert translation_invariant_fields(2, Theta(0.5)) == [0.0]


def test_constant_solution_count_scans_with_k():
    # threshold sits at k * theta = 1
    assert len(translation_invariant_fields(3, Theta(0.3))) == 1
    assert len(translation_invariant_fields(3, Theta(0.4))) == 3
    assert len(translation_invariant_fields(5, Theta(0.21))) == 3


@pytest.mark.parametrize("k, value", [(2, 0.5001), (2, 0.8), (3, 0.34), (5, 0.21), (8, 0.97), (8, 0.3)])
def test_constant_field_matches_the_scan(k, value):
    # the scan's positive root; close above k * theta = 1, where g'(h*) is
    # near 0, a few ulp of g move the root by ~1e-14
    h = solver._constant_field(k, Theta(value))
    assert h == pytest.approx(translation_invariant_fields(k, Theta(value))[-1], rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("k, s, value", [(8, 3, 0.5), (6, 3, 0.7), (4, 3, 0.97)])
def test_constant_roots_are_reported_where_starts_miss_them(k, s, value):
    # multistart alone finds 1, 1 and 2 constant roots here
    system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
    found = solve_fixed_points(system, Theta(value))
    constant = found.translation_invariant()
    assert len(constant) == 3
    for sol, h in zip(constant, translation_invariant_fields(k, Theta(value))):
        assert max(abs(v - h) for v in sol.fields) < 1e-12
        assert sol.residual <= solver.NEWTON_TOL
    assert list(found.solutions) == sorted(found.solutions, key=lambda sol: sol.fields)


# === equality patterns and restriction certificates ===


def test_patterns_partition_nine_states():
    for pattern in INVARIANT_PATTERNS.values():
        seen = sorted(i for block in pattern.blocks for i in block)
        assert seen == list(range(9))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("pid", ["I0", "I1", "I2"])
def test_general_patterns_certify_for_all_k(k, pid):
    system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
    reduced = restrict(system, pid)
    assert all(sum(row) == k for row in reduced.matrix)


@pytest.mark.parametrize("pid", ["I3", "I4", "I5"])
def test_binary_tree_patterns(pid):
    assert restrict(derive_system(STANDARD), pid).matrix is not None
    with pytest.raises(NotInvariantError):
        restrict(derive_system(SubgroupSpec(k=3, s=1, a1={1}, a2={2})), pid)


def test_i1_reduced_matrix_shape(nine_state):
    # blocks {0,1,3,4}, {2,5}, {6,7}, {8}:
    #   u1 = f(u1) + f(u7);  u3 = 2 f(u1);  u7 = f(u9) + f(u3);  u9 = 2 f(u3)
    reduced = restrict(nine_state, "I1")
    assert reduced.matrix == ((1, 0, 1, 0), (2, 0, 0, 0), (0, 1, 0, 1), (0, 2, 0, 0))


def test_i1_reduced_matrix_general_k():
    system = derive_system(SubgroupSpec(k=3, s=1, a1={1}, a2={2}))
    reduced = restrict(system, "I1")
    k = 3
    assert reduced.matrix == (
        (k - 1, 0, 1, 0),
        (k, 0, 0, 0),
        (0, 1, 0, k - 1),
        (0, 2, 0, k - 2),
    )


def test_i3_reduced_matrix(nine_state):
    # u = 2 f(v);  v = f(u) + f(v)
    reduced = restrict(nine_state, "I3")
    assert reduced.matrix == ((0, 2), (1, 1))


def test_reduced_expand_roundtrip(nine_state):
    reduced = restrict(nine_state, "I1")
    vec = expand(reduced, [1.0, 2.0, 3.0, 4.0])
    assert vec == (1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0)
    (found,) = solver._solutions(np.array([vec]), np.zeros(1), tuple(INVARIANT_PATTERNS))
    assert "I1" in found.invariant_sets
    assert "I2" not in found.invariant_sets


def test_pattern_membership_of_constant_vector():
    (found,) = solver._solutions(np.full((1, 9), 0.5), np.zeros(1), tuple(INVARIANT_PATTERNS))
    assert set(found.invariant_sets) == set(INVARIANT_PATTERNS)


def _near(rng, c, gap):
    """c + gap or c - gap, rounded, or the float one ulp either side of it."""
    u = c + rng.choice([-1.0, 1.0]) * gap
    return float(np.nextafter(u, rng.choice([-np.inf, u, np.inf])))


def _oracle_solutions(fields, residuals, patterns):
    """_solutions as it was, every row's blocks measured by oracles._pattern_hits."""
    constant = (np.max(fields, axis=1) - np.min(fields, axis=1) < TI_SPREAD).tolist()
    hits = oracles._pattern_hits(fields, patterns).tolist()
    return [
        Solution(
            tuple(u),
            residual,
            "translation-invariant" if flat else "weakly-periodic",
            tuple(pid for pid, hit in zip(patterns, row) if hit),
        )
        for u, residual, flat, row in zip(fields.tolist(), residuals.tolist(), constant, hits)
    ]


def _pattern_case(rng):
    """Rows of fields with the patterns to test them against: constant, near-constant and mixed rows."""
    ids = list(INVARIANT_PATTERNS)
    if rng.random() < 0.1:  # a system off the nine states certifies no pattern
        dim, patterns = int(rng.integers(1, 22)), ()
    else:
        dim, patterns = 9, tuple(rng.permutation(ids)[: rng.integers(0, 7)].tolist())
    rows = []
    for _ in range(rng.integers(1, 6)):
        c = 0.0 if rng.random() < 0.3 else float(rng.uniform(-3.0, 3.0))
        u = np.full(dim, c)
        kind = rng.integers(4) if dim == 9 else rng.integers(2)
        if kind == 1:  # the row's spread at TI_SPREAD or one ulp either side
            u[rng.integers(dim)] = _near(rng, c, TI_SPREAD)
        elif kind == 2:  # one pattern's blocks, each spread at the edge of TI_SPREAD
            for block in INVARIANT_PATTERNS[ids[rng.integers(len(ids))]].blocks:
                b = 0.0 if rng.random() < 0.3 else float(rng.uniform(-3.0, 3.0))
                u[list(block)] = b
                u[block[rng.integers(len(block))]] = _near(rng, b, TI_SPREAD)
        elif kind == 3:
            u += rng.uniform(-2 * TI_SPREAD, 2 * TI_SPREAD, dim)
        rows.append(u)
    return np.array(rows), rng.uniform(0.0, 1e-12, len(rows)), patterns


def test_solutions_match_the_pattern_hits_oracle_on_random_rows():
    rng = np.random.default_rng(29)
    cases, hits, at_edge = set(), set(), 0
    for _ in range(10_000):
        fields, residuals, patterns = _pattern_case(rng)
        found = solver._solutions(fields, residuals, patterns)
        assert repr(found) == repr(_oracle_solutions(fields, residuals, patterns))
        cases.add(frozenset(s.kind for s in found))
        hits.update((s.kind, bool(s.invariant_sets)) for s in found)
        blocks = [b for pid in patterns for b in INVARIANT_PATTERNS[pid].blocks]
        at_edge += sum(np.ptp(u[list(b)]) == TI_SPREAD for u in fields for b in blocks)
    assert len(cases) == 3  # all rows constant, none, and mixed
    assert len(hits) == 4
    assert at_edge > 1000


def test_certified_patterns_are_those_restrict_accepts():
    # the derived nine-state table depends on k alone: all six patterns
    # hold at k = 2, and I0, I1, I2 for every larger k
    assert certified_patterns(derive_system(STANDARD)) == tuple(INVARIANT_PATTERNS)
    for k in range(3, 13):
        system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
        assert system.states == NINE_STATES
        assert certified_patterns(system) == ("I0", "I1", "I2"), k
    assert certified_patterns(derive_system(SubgroupSpec(k=2, s=2, a1={1}, a2={2}))) == ()
    # |A1| = |A2| = m >= 2 at s = 1: all six patterns when |A0| = m as well,
    # none when A0 is empty (six states), and I0, I1, I2 otherwise
    for k in range(3, 13):
        for m in range(2, (k + 1) // 2 + 1):
            system = derive_system(SubgroupSpec(k=k, s=1, a1=range(1, m + 1), a2=range(m + 1, 2 * m + 1)))
            m0 = k + 1 - 2 * m
            expected = () if m0 == 0 else tuple(INVARIANT_PATTERNS) if m0 == m else ("I0", "I1", "I2")
            assert certified_patterns(system) == expected, (k, m)


def test_solutions_name_only_certified_patterns():
    # every root at k = 3, theta = 0.8 is constant, so it satisfies the
    # blocks of I3, I4 and I5, which restrict refuses for k = 3
    system = derive_system(SubgroupSpec(k=3, s=1, a1={1}, a2={2}))
    found = solve_fixed_points(system, Theta(0.8), SolverConfig(starts=20))
    assert len(found.solutions) == 3
    assert all(sol.invariant_sets == ("I0", "I1", "I2") for sol in found.solutions)


def test_newton_refuses_a_system_over_the_cube_bound(monkeypatch):
    # one start's finite-difference Jacobian takes states**3 = 729 multiply-adds
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "728")
    system = derive_system(STANDARD)
    with pytest.raises(ResourceLimitError, match="Newton on 9 states takes 729 multiply-adds"):
        solve_fixed_points(system, Theta(0.8))
    with pytest.raises(ResourceLimitError, match="cap is 728"):
        theta_sweep(system, [0.8])
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "729")
    assert len(solve_fixed_points(system, Theta(0.8), SolverConfig(starts=0)).solutions) == 3


# === the multistart Newton solver ===


def test_solver_finds_exactly_the_constant_solutions(nine_state):
    th = Theta(0.8)
    found = solve_fixed_points(nine_state, th, SolverConfig(starts=80))
    assert len(found.solutions) == 3
    targets = [-H_STAR, 0.0, H_STAR]
    for sol, target in zip(found.solutions, targets):
        assert sol.kind == "translation-invariant"
        assert sol.residual <= 1e-12
        assert max(abs(v - target) for v in sol.fields) < 1e-9


def test_solver_below_threshold_only_zero(nine_state):
    found = solve_fixed_points(nine_state, Theta(0.3), SolverConfig(starts=60))
    assert len(found.solutions) == 1
    assert found.solutions[0].fields == (0.0,) * 9


def test_solver_at_degenerate_parameter(nine_state):
    # at k * theta = 1 the zero root is cubic-degenerate: Newton converges
    # to a cloud of near-zero points the flatness merge must collapse
    found = solve_fixed_points(nine_state, Theta(0.5), SolverConfig(starts=120))
    assert len(found.solutions) == 1
    assert found.solutions[0].fields == (0.0,) * 9


def test_solver_negation_closure(nine_state):
    found = solve_fixed_points(nine_state, Theta(0.9), SolverConfig(starts=60))
    fields = [np.array(s.fields) for s in found.solutions]
    for f in fields:
        assert any(np.max(np.abs(f + g)) < 1e-8 for g in fields)


def test_solver_deterministic(nine_state):
    cfg = SolverConfig(starts=50)
    a = solve_fixed_points(nine_state, Theta(0.8), cfg)
    b = solve_fixed_points(nine_state, Theta(0.8), cfg)
    assert a == b


def test_reduced_i1_solutions_are_constant(nine_state):
    # every fixed point of the four-block restriction has all blocks equal,
    # so nothing genuinely non-constant hides inside the pattern
    reduced = restrict(nine_state, "I1")
    for fields, residual in solve_reduced(reduced, Theta(0.8), SolverConfig(starts=120)):
        assert residual <= 1e-12
        assert max(fields) - min(fields) < 1e-9
    reduced3 = restrict(nine_state, "I3")
    for fields, residual in solve_reduced(reduced3, Theta(0.8), SolverConfig(starts=120)):
        assert max(fields) - min(fields) < 1e-9


# === the batched Newton kernel against the start-by-start oracle ===


def _starts(dim, seed, n=50):
    rng = np.random.default_rng(seed)
    return np.vstack([np.zeros(dim), rng.uniform(-5.0, 5.0, size=(n, dim))])


def _oracle_roots(M, theta, starts, tol=solver.NEWTON_TOL, max_iter=solver.NEWTON_MAX_ITER):
    def F(u):
        return u - M @ edge_field(u, theta)

    return [_newton(F, closed_jacobian(M, theta.value), u0, tol, max_iter) for u0 in starts]


def _kernel_roots(M, theta, starts):
    """The batched kernel at one theta: per start, the root or None."""
    U, norms = solver._newton_batch(M, np.full(len(starts), theta.value), starts)
    return [None if np.isnan(norm) else u for u, norm in zip(U, norms)]


def _assert_same_roots(got, expect):
    assert len(got) == len(expect)
    for i, (g, e) in enumerate(zip(got, expect)):
        if e is None:
            assert g is None, f"start {i}: oracle fails, kernel gives {g}"
        else:
            assert g is not None and np.array_equal(g, e), f"start {i}: {g} != {e}"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("theta", [0.2, 0.5, 0.55, 0.8, 0.97])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_newton_matches_oracle_bit_for_bit(k, s, theta, seed):
    # at k >= 3 any residual but np.matmul(M, f(U)[..., None]) rounds
    # differently from M @ f(u) and moves the roots, and the reported
    # residuals, in the last bit
    system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
    M = count_matrix(system)
    th = Theta(theta)
    starts = _starts(M.shape[0], seed)
    got = _kernel_roots(M, th, starts)
    _assert_same_roots(got, _oracle_roots(M, th, starts))
    found = solve_fixed_points(system, th, SolverConfig(starts=50, rng_seed=seed))
    for sol in found.solutions:
        u = np.array(sol.fields)
        assert sol.residual == float(np.max(np.abs(u - M @ edge_field(u, th))))


def test_batched_newton_drops_a_non_finite_start_alone(nine_state):
    M = count_matrix(nine_state)
    th = Theta(0.8)
    starts = _starts(9, 3, n=12)
    starts[4, 2] = np.inf
    starts[7, 0] = np.nan
    got = _kernel_roots(M, th, starts)
    assert got[4] is None and got[7] is None
    expect = _oracle_roots(M, th, starts)
    _assert_same_roots(got, expect)
    assert sum(r is not None for r in expect) >= 10


def test_batched_newton_drops_a_singular_start_alone(nine_state, monkeypatch):
    # the stacked solve raises, so the kernel solves start by start; the one
    # start whose first Jacobian is declared singular fails, no other moves
    M = count_matrix(nine_state)
    th = Theta(0.8)
    starts = _starts(9, 5, n=12)
    clean = _oracle_roots(M, th, starts)
    singular = closed_jacobian(M, th.value)(starts[6])
    real_solve = np.linalg.solve
    stacked_calls = []

    def solve(a, b):
        if a.ndim == 3:
            stacked_calls.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        if np.array_equal(a, singular):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    got = _kernel_roots(M, th, starts)
    assert stacked_calls
    assert clean[6] is not None and got[6] is None
    _assert_same_roots(got[:6] + got[7:], clean[:6] + clean[7:])


def test_multistart_in_several_chunks_matches_oracle(nine_state, monkeypatch):
    M = count_matrix(nine_state)
    th = Theta(0.8)
    cfg = SolverConfig(starts=40, rng_seed=11)
    monkeypatch.setattr(solver, "STACK_BUDGET", 7 * 81 + 5)  # 7 starts a chunk
    chunks, roots = [], []
    batch = solver._newton_batch

    def recording(M, t, U0):
        chunks.append(len(U0))
        U, norms = batch(M, t, U0)
        roots.extend(None if np.isnan(norm) else u for u, norm in zip(U, norms))
        return U, norms

    monkeypatch.setattr(solver, "_newton_batch", recording)
    found, residuals = next(solver._multistart(M, [th], cfg))
    assert chunks == [7] * 5 + [6]
    _assert_same_roots(roots, _oracle_roots(M, th, _starts(9, 11, n=40)))
    monkeypatch.setattr(solver, "STACK_BUDGET", 1 << 16)
    whole, whole_residuals = next(solver._multistart(M, [th], cfg))
    assert len(found) == len(whole) == 3
    assert np.array_equal(found, whole) and np.array_equal(residuals, whole_residuals)


def _recorded_stages(monkeypatch):
    """Per Newton iteration, each line-search stage call's (lams, hits, misses, accepted lams, rows)."""
    iterations = []
    jacobians, stage = solver._jacobians, solver._line_search_stage

    def recording_jacobians(*args):
        iterations.append([])
        return jacobians(*args)

    def recording_stage(M, u, steps, t, norm, lams):
        out = stage(M, u, steps, t, norm, lams)
        hit, trials = out[0], out[1]
        # a hit row's trial is u + lam * step at the first lam that lowers its norm
        accepted = [
            lams[np.all(u[i] + lams[:, None] * steps[i] == trial, axis=1)][0]
            for i, trial in zip(np.flatnonzero(hit), trials)
        ]
        iterations[-1].append((lams.tolist(), int(hit.sum()), int((~hit).sum()), accepted, len(u)))
        return out

    monkeypatch.setattr(solver, "_jacobians", recording_jacobians)
    monkeypatch.setattr(solver, "_line_search_stage", recording_stage)
    return iterations


@pytest.mark.parametrize("budget", [1 << 16, 26 * 15 * 2])
def test_staged_line_search_matches_the_halving_oracle_bit_for_bit(budget, monkeypatch):
    # at k = 3, s = 2, theta = 0.9 the starts take lam = 1, lams in 1/2..1/8
    # and lams down to 2**-29, and some rows exhaust all 30 halvings and
    # fail; the small budget splits every stage into stacks of at most
    # budget elements (two rows for the 26 smallest lams)
    M = count_matrix(derive_system(SubgroupSpec(k=3, s=2, a1={1}, a2={2})))
    th = Theta(0.9)
    starts = np.random.default_rng(7).uniform(-5.0, 5.0, size=(40, len(M)))
    monkeypatch.setattr(solver, "STACK_BUDGET", budget)
    iterations = _recorded_stages(monkeypatch)
    got = _kernel_roots(M, th, starts)
    _assert_same_roots(got, _oracle_roots(M, th, starts))
    stages = [call for calls in iterations for call in calls]
    halvings = [2.0**-j for j in range(solver.LINE_SEARCH_HALVINGS)]
    assert {tuple(lams) for lams, *_ in stages} == {tuple(halvings[:1]), tuple(halvings[1:4]), tuple(halvings[4:])}
    accepted = [lam for *_, lams, _ in stages for lam in lams]
    assert 1.0 in accepted
    assert any(0.125 <= lam <= 0.5 for lam in accepted)
    assert any(lam <= 2.0**-4 for lam in accepted)
    # rows still pending after the last stage fail
    assert sum(missed for lams, _, missed, *_ in stages if len(lams) == 26) > 0
    assert any(root is None for root in got)
    assert all(rows * len(lams) * len(M) <= budget for lams, *_, rows in stages)
    most = max(len(calls) for calls in iterations)
    if budget == 1 << 16:
        assert most == 3
    else:
        assert most > 3


@pytest.mark.parametrize("k, s, starts", [(2, 1, 50), (3, 2, 200)])
def test_an_iteration_makes_at_most_three_stacked_line_search_calls(k, s, starts, monkeypatch):
    iterations = _recorded_stages(monkeypatch)
    system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
    theta_sweep(system, [0.4, 0.6, 0.8, 0.95], SolverConfig(starts=starts))
    assert iterations and all(1 <= len(calls) <= 3 for calls in iterations)
    assert max(len(calls) for calls in iterations) == 3


def test_a_stream_runs_every_theta_in_chunks_of_the_budget(monkeypatch):
    # k = 8, s = 3 has 21 states: 148 rows a chunk, so the 3 thetas above
    # 1/8 x 201 starts take 5 chunks, chunks spanning thetas
    system = derive_system(SubgroupSpec(k=8, s=3, a1={1}, a2={2}))
    batches = []
    batch = solver._newton_batch

    def recording_batch(M, t, U0):
        batches.append(len(U0))
        return batch(M, t, U0)

    monkeypatch.setattr(solver, "_newton_batch", recording_batch)
    solver._solution_sets(system, [Theta(0.1), Theta(0.5), Theta(0.7), Theta(0.9)], SolverConfig(starts=200))
    assert batches == [148] * 4 + [11]


# === the closed-form Jacobian ===
#
# J = I - M diag(f'(u)).  The systems, points and test names below are
# those the column-grouped central difference that J replaced was checked
# on.


def _edited_table():
    """The k = 2 nine-state table with three rows moved off the derived pattern."""
    doc = json.loads(derive_system(STANDARD).to_json())
    doc["counts"].update({"0,0": {"0,0": 1, "1,1": 1}, "1,1": {"2,2": 2}, "2,2": {"0,1": 1, "2,2": 1}})
    return WeaklyPeriodicSystem.from_json(json.dumps(doc))


def _dense_table():
    """Nine states at k = 9, every count 1: every entry of J is on the pattern."""
    doc = json.loads(derive_system(STANDARD).to_json())
    names = list(doc["counts"])
    return WeaklyPeriodicSystem.from_json(
        json.dumps({"states": doc["states"], "counts": {a: dict.fromkeys(names, 1) for a in names}, "k": 9, "s": 1})
    )


PAIR_SPECS = [
    SubgroupSpec(k=3, s=1, a1={1, 2}, a2={3, 4}),
    SubgroupSpec(k=3, s=2, a1={1, 2}, a2={3, 4}),
    SubgroupSpec(k=4, s=2, a1={1, 2}, a2={3, 4}),
    SubgroupSpec(k=5, s=1, a1={1, 2}, a2={3, 4}),
]

GROUPED_SYSTEMS = {
    **{
        f"k{k}-s{s}-{min(a2)}": lambda k=k, s=s, a2=a2: derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2=a2))
        for k in range(2, 9)
        for s in range(1, 6)
        for a2 in ({2}, {3})
    },
    **{f"pairs-k{spec.k}-s{spec.s}": lambda spec=spec: derive_system(spec) for spec in PAIR_SPECS},
    "edited": _edited_table,
    "dense": _dense_table,
}

DIFFERENCE_STEP = 1e-6  # the step of oracles._jacobian


def _closed_jacobians(M, U, theta):
    return solver._jacobians(M, U, np.full((len(U), 1), theta), np.empty((len(U), len(M), len(M))))


def _difference_bound(M, u, theta):
    """How far the central difference of F at u may lie from F's Jacobian.

    Rounding: F_i is u_i - sum_j M_ij f(u_j) with |f| < atanh theta, so one
    evaluation is off by a few ulps of |u| + k atanh theta, and u_j +- step
    by half an ulp of u_j, which moves F_i by at most (1 + k) times that;
    both are divided by 2 step.  Truncation, step**2 / 6 times the third
    derivative of F, is below step**2 * k, since that of f is at most
    2 theta in size.
    """
    k = M.sum(axis=1).max()
    scale = np.abs(u).max() + k * math.atanh(theta)
    rounding = 8 * np.spacing(scale) + (1 + k) * np.spacing(np.abs(u).max())
    return rounding / (2 * DIFFERENCE_STEP) + DIFFERENCE_STEP**2 * k


def _assert_oracle_jacobian(M, u, theta, J):
    """J is the column-built closed form bit for bit, sign bits too, and the central difference within its error."""
    expect = closed_jacobian(M, theta)(u)
    assert np.array_equal(J, expect)
    assert np.array_equal(np.signbit(J), np.signbit(expect))
    central = _jacobian(lambda v: v - M @ edge_field(v, Theta(theta)), u, DIFFERENCE_STEP)
    assert np.max(np.abs(J - central)) <= _difference_bound(M, u, theta)


@pytest.mark.parametrize("name", list(GROUPED_SYSTEMS))
def test_column_groups_are_disjoint_first_fit_and_cover_every_column(name):
    # every column is a group of its own: column j of J is +0.0 off the
    # rows u_j enters, P = (M != 0) | I, nonzero on them, and moves with
    # u_j alone
    M = count_matrix(GROUPED_SYSTEMS[name]())
    dim = len(M)
    pattern = (M != 0) | np.eye(dim, dtype=bool)
    U = np.random.default_rng(dim).uniform(-5.0, 5.0, size=(2, dim))
    J = _closed_jacobians(M, U, 0.8)
    assert np.all(J[:, ~pattern] == 0.0) and not np.any(np.signbit(J[:, ~pattern]))
    assert np.all(J[:, pattern] != 0.0)
    for j in range(dim):
        moved = U.copy()
        moved[:, np.arange(dim) != j] += 1.0
        assert np.array_equal(_closed_jacobians(M, moved, 0.8)[:, :, j], J[:, :, j])


@pytest.mark.parametrize("name", list(GROUPED_SYSTEMS))
def test_grouped_jacobian_matches_the_column_oracle_bit_for_bit(name):
    # value and sign bit of every entry, off the pattern (+0.0) included, at
    # random points, at zero, and at points holding -0.0 coordinates and
    # the smallest negative subnormal
    M = count_matrix(GROUPED_SYSTEMS[name]())
    dim = len(M)
    U = np.random.default_rng(dim).uniform(-5.0, 5.0, size=(7, dim))
    U[0] = 0.0
    U[1] = -0.0
    U[2, ::2] = -0.0
    U[3, 1::3] = 0.0
    U[6, ::2] = -5e-324
    for theta in (0.3, 0.8, 0.97):
        J = _closed_jacobians(M, U, theta)
        for u, got in zip(U, J):
            _assert_oracle_jacobian(M, u, theta, got)


@pytest.mark.parametrize(
    "build",
    [
        lambda: derive_system(STANDARD),
        lambda: derive_system(SubgroupSpec(k=3, s=2, a1={1}, a2={2})),
        lambda: derive_system(SubgroupSpec(k=8, s=3, a1={1}, a2={3})),
        lambda: derive_system(PAIR_SPECS[2]),
        _edited_table,
        _dense_table,
    ],
    ids=["k2-s1", "k3-s2", "k8-s3", "pairs-k4-s2", "edited", "dense"],
)
def test_grouped_jacobian_matches_the_oracle_at_newton_iterates(build, monkeypatch):
    M = count_matrix(build())
    seen = []
    jacobians = solver._jacobians

    def recording(M, u, t, out):
        got = jacobians(M, u, t, out)
        seen.extend(zip(u.copy(), t[:, 0].copy(), got.copy()))
        return got

    monkeypatch.setattr(solver, "_jacobians", recording)
    starts = _starts(len(M), 2, n=8)
    t = np.repeat([0.6, 0.9], len(starts))
    solver._newton_batch(M, t, np.vstack([starts, starts]))
    assert len(seen) > len(t)
    for u, theta, J in seen:
        _assert_oracle_jacobian(M, u, theta, J)


SLOPE_POINTS = [0.0, 5e-324, 1e-8, 0.5, 1.0, 5.0, 19.0, 30.0, 300.0, 1000.0, 1e308]


@pytest.mark.parametrize("theta", [0.05, 0.5, 0.97])
def test_slope_is_the_sympy_derivative_within_four_ulps(theta, recwarn):
    # f' stays within a few ulps where 1 - tanh^2 h rounds to 0 (|h| from
    # about 19), and is 0.0 where f' rounds to it; sympy's derivative of
    # artanh(theta tanh h) is evaluated at 1200 digits, enough for h = 1000
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    h_, t_ = sp.symbols("h theta")
    slope = sp.lambdify((h_, t_), sp.diff(sp.atanh(t_ * sp.tanh(h_)), h_), "mpmath")
    h = np.array([x for v in SLOPE_POINTS for x in (v, -v)])
    got = solver._slope(h, theta)
    with mpmath.workdps(1200):
        expect = np.array([float(slope(mpmath.mpf(v), mpmath.mpf(theta))) for v in h.tolist()])
    assert np.all(np.abs(got - expect) <= 4 * np.spacing(expect)), (got, expect)
    assert got[h.tolist().index(1000.0)] == 0.0
    # J at those points, each spread over the nine coordinates: finite, and
    # within the central difference's error where u +- step is finite
    M = count_matrix(derive_system(STANDARD))
    U = np.resize(h, (len(h), 9))
    J = _closed_jacobians(M, U, theta)
    assert np.all(np.isfinite(J))
    for u, got_j in zip(U, J):
        if np.abs(u).max() < 1e300:
            _assert_oracle_jacobian(M, u, theta, got_j)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# === the exact polynomial path ===


def test_quadratic_branch_roots_at_08():
    th = Theta(0.8)
    disc, roots = quadratic_branch(th.a)
    assert disc > 0
    assert roots[0] == pytest.approx(X_PLUS, abs=1e-12)
    assert roots[1] == pytest.approx(X_MINUS, abs=1e-12)
    assert roots[0] * roots[1] == pytest.approx(1.0, abs=1e-12)


def test_quadratic_branch_below_half_has_no_roots():
    disc, roots = quadratic_branch(Theta(0.3).a)
    assert disc < 0 and roots == ()


def test_exact_path_at_08(nine_state):
    result = solve_i1_exact(Theta(0.8))
    assert not result.boundary_degenerate
    assert len(result.roots) == 2
    sols = result.solution_set.solutions
    assert len(sols) == 3
    assert all(s.residual <= 1e-10 for s in sols)
    assert all("I1" in s.invariant_sets for s in sols)
    # the two branch solutions are the constant pair
    nonzero = [s for s in sols if s.fields != (0.0,) * 9]
    assert len(nonzero) == 2
    for s, target in zip(nonzero, (-H_STAR, H_STAR)):
        assert max(abs(v - target) for v in s.fields) < 1e-12
        assert s.kind == "translation-invariant"


def test_exact_path_rejects_a_branch_off_the_system(nine_state, monkeypatch):
    import cayleygibbs.solver as solver

    # 2 and 1/2 multiply to 1 but are no roots of the quadratic at theta = 0.8
    disc = quadratic_branch(Theta(0.8).a)[0]
    monkeypatch.setattr(solver, "quadratic_branch", lambda a: (disc, (2.0, 0.5)))
    with pytest.raises(ArithmeticError, match="misses the full system"):
        solve_i1_exact(Theta(0.8))


def test_exact_branches_are_the_constant_pair_log_x():
    # the pair is built as +-log(x)·1, so all nine coordinates carry the same bits
    for i in range(51, 100):
        th = Theta(i / 100)
        result = solve_i1_exact(th)
        h = math.log(result.roots[0])
        sols = result.solution_set.solutions
        assert [s.fields for s in sols] == [(-h,) * 9, (0.0,) * 9, (h,) * 9], th
        assert all(s.residual <= 1e-13 for s in sols), th


def test_exact_path_residual_is_the_plain_residual(nine_state):
    # the printed residual of every branch, bit for bit, on poly's theta grid
    M = count_matrix(nine_state)
    for i in range(51, 100):
        th = Theta(i / 100)
        for sol in solve_i1_exact(th).solution_set.solutions:
            u = np.array(sol.fields)
            assert sol.residual == float(np.max(np.abs(u - M @ edge_field(u, th)))), th


def test_exact_path_boundary_degenerate():
    result = solve_i1_exact(Theta(0.5))
    assert result.boundary_degenerate
    assert result.roots == ()
    assert len(result.solution_set.solutions) == 1


def test_exact_path_below_half():
    result = solve_i1_exact(Theta(0.35))
    assert not result.boundary_degenerate
    assert result.discriminant < 0
    assert len(result.solution_set.solutions) == 1


def test_exact_matches_newton(nine_state):
    th = Theta(0.75)
    exact = solve_i1_exact(th).solution_set
    newton = solve_fixed_points(nine_state, th, SolverConfig(starts=80))
    for sol in exact.solutions:
        assert any(
            max(abs(a - b) for a, b in zip(sol.fields, other.fields)) < 1e-8
            for other in newton.solutions
        )


def test_i1_elimination_certificate(nine_state):
    """Every fixed point in the I1 pattern is constant, for every theta.

    In z = exp(2h) the edge map is g(z) = (z + a)/(a z + 1) and each block
    equation reads z_B = prod over B' of g(z_B')^m[B][B'].  With x = exp(h)
    on the block {2, 5}, rows 1, 0 and 3 of the reduced matrix force the
    other three blocks, so every fixed point comes from a positive root of
    the numerator of row 2's residual.  That residual factors into
    (x - 1)(x + 1) times the quadratic branch times the quartic cofactor;
    the quartic has positive coefficients on 0 < a < 1, and at a root of
    the quadratic all four blocks equal x^2.
    """
    sp = pytest.importorskip("sympy")
    a, x = sp.symbols("a x", positive=True)
    reduced = restrict(nine_state, "I1")
    assert reduced.matrix == ((1, 0, 1, 0), (2, 0, 0, 0), (0, 1, 0, 1), (0, 2, 0, 0))

    def g(z):
        return (z + a) / (a * z + 1)

    def g_inv(w):
        return (w - a) / (1 - a * w)

    z = [g_inv(x), x**2, g_inv(g_inv(x) / x), g(x**2) ** 2]

    def residual_numerator(row):
        rhs = sp.Mul(*(g(z[col]) ** m for col, m in enumerate(reduced.matrix[row])))
        return sp.fraction(sp.cancel(sp.together(z[row] - rhs)))[0]

    for row in (0, 1, 3):
        assert residual_numerator(row) == 0
    eliminated = residual_numerator(2)

    quadratic = a * x**2 + (a - 1) * x + a
    quartic = sum(
        sp.nsimplify(c, rational=True) * x ** (4 - i)
        for i, c in enumerate(quartic_coefficients(a))
    )
    cofactor = sp.cancel(eliminated / ((x - 1) * (x + 1) * quadratic * quartic))
    assert not cofactor.has(x)
    assert sp.solveset(cofactor, a, sp.Interval.open(0, 1)) == sp.EmptySet
    for c in sp.Poly(quartic, x).all_coeffs():
        assert sp.solveset(c <= 0, a, sp.Interval.open(0, 1)) == sp.EmptySet

    # the quadratic branch is the nonzero constant pair
    assert sp.expand((x - 1) * quadratic) == a * x**3 - x**2 + x - a
    assert sp.cancel((g_inv(x) - x**2) * (1 - a * x) - (x - 1) * quadratic) == 0
    for zb in z:
        assert sp.rem(sp.fraction(sp.cancel(zb - x**2))[0], quadratic, x) == 0

    # quadratic_branch computes the roots of that polynomial
    assert sp.expand(sp.discriminant(quadratic, x) - (1 - 2 * a - 3 * a**2)) == 0
    for value in (0.55, 0.8, 0.95):
        th = Theta(value)
        disc, roots = quadratic_branch(th.a)
        assert disc == pytest.approx(1 - 2 * th.a - 3 * th.a**2, abs=1e-15)
        assert len(roots) == 2
        for r in roots:
            assert float(quadratic.subs({a: th.a, x: r})) == pytest.approx(0.0, abs=1e-12)


# === quartic cofactor positivity ===


def test_quartic_coefficients_all_positive():
    for a in np.linspace(0.01, 0.99, 99):
        assert min(quartic_coefficients(float(a))) > 0.0


def test_quartic_positivity_certificate():
    report = check_quartic_positivity([0.05, 0.25, 0.5, 0.75, 0.95])
    assert report.passed
    assert report.descartes_no_positive_roots
    assert report.cell_bound_certified
    assert all(v > 0 for v in report.min_values.values())


# === theta sweep ===


def test_sweep_rows_and_agreement(nine_state):
    rows = theta_sweep(nine_state, [0.3, 0.8], SolverConfig(starts=60))
    assert [r.theta for r in rows] == [0.3, 0.8]
    assert rows[0].n_ti == 1 and rows[1].n_ti == 3
    assert all(r.agreement for r in rows)


def test_sweep_certifies_patterns_once(nine_state, monkeypatch):
    calls = []
    real = solver.restrict

    def counting(system, pattern_id):
        calls.append(pattern_id)
        return real(system, pattern_id)

    solver._i1_table()  # derived and certified once per process
    monkeypatch.setattr(solver, "restrict", counting)
    # the nine states without their spec: a system no earlier test certified
    system = dataclasses.replace(nine_state, spec=None)
    thetas = [round(0.1 + 0.05 * i, 2) for i in range(18)]
    assert len(theta_sweep(system, thetas, SolverConfig(starts=5))) == 18
    assert calls == list(INVARIANT_PATTERNS)  # 6 restrict calls, not 18 * 6


def test_sweep_cross_checks_only_the_exact_path_table(nine_state, monkeypatch):
    calls = []
    exact = solver._branch

    def recording(theta):
        calls.append(theta.value)
        return exact(theta)

    monkeypatch.setattr(solver, "_branch", recording)
    assert all(r.agreement for r in theta_sweep(nine_state, [0.3, 0.8], SolverConfig(starts=20)))
    assert calls == [0.3, 0.8]
    # the same nine states with one row moved: no exact path, Newton stands alone
    counts = [list(row) for row in nine_state.counts]
    counts[1] = [2] + [0] * 8
    edited = dataclasses.replace(nine_state, counts=tuple(map(tuple, counts)))
    assert all(r.agreement for r in theta_sweep(edited, [0.3, 0.8], SolverConfig(starts=20)))
    assert calls == [0.3, 0.8]


def test_sweep_disagrees_where_an_exact_value_has_no_newton_root(nine_state, monkeypatch):
    exact = solver._branch

    def shifted(theta):
        disc, roots, boundary, values = exact(theta)
        return disc, roots, boundary, tuple(v + math.copysign(2 * SWEEP_MATCH_TOL, v) if v else v for v in values)

    monkeypatch.setattr(solver, "_branch", shifted)
    # +-(h* + 2e-8)·1 leave residuals near 1e-8 on the full system
    monkeypatch.setattr(solver, "EXACT_RESIDUAL_TOL", 1e-6)
    rows = theta_sweep(nine_state, [0.3, 0.8], SolverConfig(starts=20))
    assert [(r.n_ti, r.agreement) for r in rows] == [(1, True), (3, False)]


def test_sweep_disagrees_where_a_newton_root_in_i1_has_no_exact_partner(nine_state, monkeypatch):
    # the exact path keeps only the zero vector; Newton's +-h*·1 lie in I1
    exact = solver._branch
    monkeypatch.setattr(solver, "_branch", lambda theta: (*exact(theta)[:3], (0.0,)))
    rows = theta_sweep(nine_state, [0.3, 0.8], SolverConfig(starts=20))
    assert [(r.n_ti, r.agreement) for r in rows] == [(1, True), (3, False)]


def _agreement_case(rng):
    """A sweep's Newton SolutionSets and exact values, roots at, near and past SWEEP_MATCH_TOL."""
    newton, exact = [], []
    for _ in range(rng.integers(1, 5)):
        h = float(rng.uniform(0.0, 3.0))
        values = [(0.0,), (-h, 0.0, h), (h,), ()][rng.choice(4, p=[0.3, 0.5, 0.15, 0.05])]
        in_i1 = rng.choice([0.0, 0.5, 1.0])  # 0.0: no root of this theta lies in I1
        roots = []
        for _ in range(rng.integers(1, 6)):  # every theta has a root: the zero start's
            c = float(rng.choice(values)) if values and rng.random() < 0.8 else float(rng.uniform(-3.0, 3.0))
            u = np.full(9, c)
            kind = rng.integers(4)
            if kind == 1:
                u += rng.uniform(-1e-9, 1e-9, 9)
            elif kind == 2:  # gaps at SWEEP_MATCH_TOL or one ulp either side
                for j in rng.choice(9, size=rng.integers(1, 4), replace=False):
                    u[j] = _near(rng, c, SWEEP_MATCH_TOL)
            elif kind == 3:
                u += rng.uniform(-3 * SWEEP_MATCH_TOL, 3 * SWEEP_MATCH_TOL, 9)
            sets = ("I0", "I1", "I2") if rng.random() < in_i1 else ("I2",)
            roots.append(Solution(tuple(u.tolist()), 0.0, "translation-invariant", sets))
        newton.append(SolutionSet(0.5, NINE_STATES, tuple(roots)))
        exact.append(values)
    if not any(exact):
        exact[0] = (0.0,)
    return newton, exact


def test_agreement_matches_the_padded_oracle_on_random_sweeps():
    rng = np.random.default_rng(29)
    verdicts, at_tol = [], 0
    for _ in range(10_000):
        newton, exact = _agreement_case(rng)
        found = solver._agreement(newton, exact)
        assert found == oracles._agreement(newton, exact)
        verdicts += found
        at_tol += any(
            max(abs(x - c) for x in s.fields) == SWEEP_MATCH_TOL
            for found_set, values in zip(newton, exact)
            for s in found_set.solutions
            for c in values
        )
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9
    assert at_tol > 100


def test_sweep_csv_deterministic(nine_state):
    cfg = SolverConfig(starts=40)
    first = sweep_to_csv(theta_sweep(nine_state, [0.45, 0.8], cfg))
    second = sweep_to_csv(theta_sweep(nine_state, [0.45, 0.8], cfg))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "theta,n_ti,n_wp_I1,n_wp_I2,agreement"
    assert lines[1].startswith("0.45,")
    assert len(lines) == 3


# rows one chunk holds, per starts count: a chunk holds the rows of several
# thetas, and with any random start one theta's rows span two chunks
CHUNK_ROWS = {0: 3, 3: 6, 50: 70}


def _swept_and_solo(system, thetas, cfg, monkeypatch):
    """theta_sweep's per-theta SolutionSets, its chunks' thetas, and each theta solved alone."""
    swept, chunks = [], []
    sets, batch = solver._solution_sets, solver._newton_batch

    def recording_sets(system, thetas, cfg):
        swept.extend(sets(system, thetas, cfg))
        return swept

    def recording_batch(M, t, U0):
        chunks.append(t.tolist())
        return batch(M, t, U0)

    monkeypatch.setattr(solver, "_solution_sets", recording_sets)
    monkeypatch.setattr(solver, "_newton_batch", recording_batch)
    rows = theta_sweep(system, thetas, cfg)
    monkeypatch.setattr(solver, "_solution_sets", sets)
    monkeypatch.setattr(solver, "_newton_batch", batch)
    solo = [solve_fixed_points(system, Theta(t), cfg) for t in thetas]
    assert [r.n_ti for r in rows] == [len(found.translation_invariant()) for found in solo]
    return swept, chunks, solo


@pytest.mark.parametrize("starts", sorted(CHUNK_ROWS))
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sweep_equals_solve_across_chunk_boundaries(k, s, starts, monkeypatch):
    system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
    dim = len(system.states)
    monkeypatch.setattr(solver, "STACK_BUDGET", CHUNK_ROWS[starts] * dim * dim)
    # 0.2 and 1/k have k theta <= 1 and get the proved zero root without
    # entering the stream; the three thetas above 1/k fill it, so with no
    # random start one chunk still holds three thetas
    thetas = [0.2, 1 / k, 0.6, 0.75, 0.9]
    cfg = SolverConfig(starts=starts, rng_seed=k + s)
    swept, chunks, solo = _swept_and_solo(system, thetas, cfg, monkeypatch)
    assert len(chunks[0]) == CHUNK_ROWS[starts] and len(set(chunks[0])) > 1
    spans = any(a[-1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert spans == (starts > 0)
    assert repr(swept) == repr(solo)  # every field and residual, bit for bit


def test_sweep_equals_solve_with_non_finite_starts(nine_state, monkeypatch):
    starts = solver._starts

    def poisoned(dim, cfg):
        out = starts(dim, cfg)
        out[2, 4] = np.inf
        out[5, 0] = np.nan
        return out

    monkeypatch.setattr(solver, "_starts", poisoned)
    monkeypatch.setattr(solver, "STACK_BUDGET", 7 * 81)
    # 0.3 and 0.5 are proved zero-only; the 33 rows of 0.6, 0.7 and 0.8 run
    # in chunks of 7
    thetas = [0.3, 0.5, 0.6, 0.7, 0.8]
    swept, chunks, solo = _swept_and_solo(nine_state, thetas, SolverConfig(starts=10), monkeypatch)
    assert len(chunks) == 5 and repr(swept) == repr(solo)
    assert [len(found.solutions) for found in solo] == [1, 1, 3, 3, 3]


@pytest.mark.parametrize(
    "k, s, starts, calls",
    [
        (2, 1, 50, [459]),  # 9 thetas above 1/2 × 51 rows, one chunk of up to 809
        (3, 2, 200, [291] * 8 + [285]),  # 13 thetas above 1/3 × 201 = 2,613 rows, chunks of 291
    ],
)
def test_sweep_chunks_are_sized_by_the_stack_budget(k, s, starts, calls, monkeypatch):
    system = derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2}))
    dim = len(system.states)
    rows = []
    batch = solver._newton_batch

    def recording(M, t, U0):
        rows.append(len(U0))
        return batch(M, t, U0)

    monkeypatch.setattr(solver, "_newton_batch", recording)
    theta_sweep(system, [round(0.1 + 0.05 * i, 2) for i in range(18)], SolverConfig(starts=starts))
    assert rows == calls
    assert max(rows) <= max(1, solver.STACK_BUDGET // dim**2)


def _zero_only_systems(tmp_path):
    """The derived systems of k = 2..6, s = 1..3, and an edited nine-state table read as --system reads it."""
    systems = [derive_system(SubgroupSpec(k=k, s=s, a1={1}, a2={2})) for k in range(2, 7) for s in range(1, 4)]
    doc = json.loads(systems[0].to_json())
    doc["counts"]["0,1"] = {"0,0": 2}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return systems + [WeaklyPeriodicSystem.from_json(path.read_text())]


def test_zero_only_thetas_agree_with_the_full_stream(tmp_path, monkeypatch):
    # k theta <= 1 proves zero the only fixed point; the stream run directly
    # (with the flat merge at the degenerate 1/k) finds that root alone, with
    # the bits solve_fixed_points now gives without a Newton step
    rows = []
    batch = solver._newton_batch

    def recording(M, t, U0):
        rows.extend(t.tolist())
        return batch(M, t, U0)

    monkeypatch.setattr(solver, "_newton_batch", recording)
    for system in _zero_only_systems(tmp_path):
        k, dim = system.k, len(system.states)
        M = solver.count_matrix(system)
        for t in (0.05, 1 / k, math.nextafter(1 / k, 0)):
            [(roots, residuals)] = solver._multistart(M, [Theta(t)], SolverConfig())
            assert rows == [t] * 201
            assert roots.tobytes() == np.zeros((1, dim)).tobytes(), (k, dim, t, roots)
            assert residuals.tolist() == [0.0], (k, dim, t)
            rows.clear()
            found = solve_fixed_points(system, Theta(t))
            # the float 1/5 lies above 1/5, so the proof does not cover it
            assert rows == ([] if Fraction(t) * k <= 1 else [t] * 201), (k, dim, t)
            rows.clear()
            assert repr([(s.fields, s.residual) for s in found.solutions]) == repr([(tuple(roots[0].tolist()), 0.0)])
        # just above 1/k the proof does not apply, and every start runs
        above = math.nextafter(1 / k, 1)
        solve_fixed_points(system, Theta(above), SolverConfig(starts=5))
        assert rows == [above] * 6, (k, dim)
        rows.clear()


def test_edge_field_is_within_theta_h():
    # the bound behind the zero-only certificate: |f(h)| <= theta |h|
    grid = np.concatenate([np.linspace(-30, 30, 601), [1e-300, 5e-324, 1e-8, 20.0, 700.0, 710.0]])
    h = np.concatenate([grid, -grid])
    for t in (1e-6, 0.05, 0.2, 0.5, math.nextafter(0.5, 1), 0.9, 0.999999):
        f = edge_field(h, Theta(t))
        assert np.all(np.abs(f) <= t * np.abs(h)), t
        assert np.array_equal(solver._edge(h, t), f)


def test_sweep_memory_does_not_grow_with_the_thetas(nine_state):
    # the stream holds one chunk and one theta's candidates, so forty thetas
    # peak where six do; holding every theta's 201 candidates would not.
    # The six thetas' 1,005 rows fill a whole 809-row chunk, as the forty's
    # 3,819 do; two thetas' 201 rows would fill a quarter of one
    cfg = SolverConfig(starts=200)

    def peak(thetas):
        tracemalloc.start()
        try:
            theta_sweep(nine_state, thetas, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    six = [0.3, 0.6, 0.7, 0.8, 0.9, 0.95]
    peak(six)  # caches filled outside the measurement
    baseline = peak(six)
    forty = peak([round(0.1 + 0.02 * i, 2) for i in range(40)])
    assert forty <= 1.2 * baseline, (baseline, forty)


# === finite-volume measures ===


def brute_distribution(k, n, theta, boundary):
    """Direct dictionary summation over all configurations."""
    verts = list(enumerate_ball(k, n).vertices())
    outer = set(enumerate_ball(k, n).spheres[-1])
    beta = theta.beta
    weights = {}
    for spins in itertools.product((-1, 1), repeat=len(verts)):
        sigma = dict(zip(verts, spins))
        energy = sum(sigma[parent(w)] * sigma[w] for w in verts if w != ())
        fields = sum(boundary[w] * sigma[w] for w in outer)
        weights[spins] = math.exp(beta * energy + fields)
    total = sum(weights.values())
    return verts, {cfg: w / total for cfg, w in weights.items()}


def test_probability_matches_brute_force():
    th = Theta(0.7)
    k, n = 2, 1
    sphere = enumerate_ball(k, n).spheres[-1]
    boundary = {w: 0.3 * (i + 1) for i, w in enumerate(sphere)}
    verts, brute = brute_distribution(k, n, th, boundary)
    for spins, expect in brute.items():
        sigma = dict(zip(verts, spins))
        got = finite_volume_probability(sigma, boundary, th, n, k)
        assert got == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("k, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_summed_out_marginal_matches_the_brute_force_sum(k, n):
    # the theorem verify_compatibility rests on: the level-n distribution
    # summed over its outer sphere is the level-(n-1) distribution with
    # b'_p = sum over the children w of p of f(b_w), for any fields b, not
    # only fixed points; rounding in the log weights grows with the fields,
    # so the bound is 1e-14 per unit of field scale
    rng = np.random.default_rng(10 * k + n)
    ball = enumerate_ball(k, n)
    outer, parents = ball.spheres[-1], ball.spheres[-2]
    cases = list(itertools.product((0.05, 0.5, 0.99), (0.01, 1.0, 25.0)))
    if len(ball) == oracles.MAX_SPINS:  # (2, 3): 2^22 configurations, one scale per theta
        cases = cases[::4]
    for value, scale in cases:
        th = Theta(value)
        boundary = {w: float(b) for w, b in zip(outer, rng.normal(0.0, scale, len(outer)))}
        summed = dict.fromkeys(parents, 0.0)
        for w, b in boundary.items():
            summed[parent(w)] += float(edge_field(b, th))
        _, full = spin_matrix_distribution(k, n, th, boundary)
        _, lower = spin_matrix_distribution(k, n - 1, th, summed)
        marginal = full.reshape(len(lower), -1).sum(axis=1)
        assert np.max(np.abs(marginal - lower)) <= 1e-14 * max(1.0, scale), (value, scale)


def test_probability_normalisation():
    th = Theta(0.6)
    k, n = 2, 1
    sphere = enumerate_ball(k, n).spheres[-1]
    boundary = {w: -0.4 for w in sphere}
    verts = list(enumerate_ball(k, n).vertices())
    total = sum(
        finite_volume_probability(dict(zip(verts, spins)), boundary, th, n, k)
        for spins in itertools.product((-1, 1), repeat=len(verts))
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_compatibility_for_exact_solution(nine_state):
    th = Theta(0.8)
    sol = solve_i1_exact(th).solution_set.solutions[-1]
    report = verify_compatibility(sol.fields, nine_state, th, n=2)
    assert report.passed
    assert report.max_deviation <= 1e-10
    assert report.configs_checked == 1024


def test_compatibility_refuses_a_field_vector_of_the_wrong_length(nine_state):
    for n in (3, 12):
        with pytest.raises(ValueError, match=f"^{n} fields for a system of 9 states$"):
            verify_compatibility([0.0] * n, nine_state, Theta(0.8), n=2)


def test_compatibility_rejects_perturbed_fields(nine_state):
    th = Theta(0.8)
    sol = solve_i1_exact(th).solution_set.solutions[-1]
    bad = list(sol.fields)
    bad[4] += 0.05  # state (1,1) sits on the outer sphere at depth 2
    report = verify_compatibility(bad, nine_state, th, n=2)
    assert not report.passed
    assert report.max_deviation > 1e-6
    # a state that never occurs at depth <= 2 cannot influence this volume
    unused = list(sol.fields)
    unused[2] += 0.05
    assert verify_compatibility(unused, nine_state, th, n=2).passed


def test_compatibility_zero_field_any_theta(nine_state):
    for value in (0.25, 0.55, 0.9):
        report = verify_compatibility([0.0] * 9, nine_state, Theta(value), n=2)
        assert report.passed


@pytest.mark.parametrize("value", [0.55, 0.7, 0.9, 0.99])
def test_marginal_identity_over_theta(nine_state, value):
    # every field vector the solvers return is a fixed point, so the field
    # identity holds on sphere n-1 to rounding: the exact k = 2 branch at
    # n = 3, and every multistart root of the k = 3 system at n = 2
    th = Theta(value)
    for sol in solve_i1_exact(th).solution_set.solutions:
        report = verify_compatibility(sol.fields, nine_state, th, n=3)
        assert report.passed and report.max_deviation <= 1e-14, (sol.fields, report)
    k3 = derive_system(SubgroupSpec(k=3, s=1, a1={1}, a2={2}))
    roots = solve_fixed_points(k3, th, SolverConfig(starts=20)).solutions
    assert len(roots) >= 3  # zero and +-h*·1 at least, since 3 theta > 1
    for sol in roots:
        report = verify_compatibility(sol.fields, k3, th, n=2)
        assert report.passed and report.max_deviation <= 1e-14, (sol.fields, report)


@pytest.mark.parametrize("k, n", [(4, 2), (3, 3)])
def test_marginal_identity_past_the_old_config_cap(k, n):
    # k = 4 at n = 2 (a 26-spin radius-2 ball) and k = 3 at n = 3 (46 spins)
    # lie past the 24-spin distributions compat once built
    system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
    th = Theta(0.8)
    roots = solve_fixed_points(system, th, SolverConfig(starts=20)).solutions
    assert len(roots) >= 3  # zero and +-h*·1 at least, since k theta > 1
    for sol in roots:
        report = verify_compatibility(sol.fields, system, th, n=n)
        assert report.passed and report.max_deviation <= 1e-14, (sol.fields, report)
        assert report.configs_checked == 2 ** ball_size(k, n)
    bad = [h + 0.05 for h in roots[-1].fields]
    report = verify_compatibility(bad, system, th, n=n)
    assert not report.passed and report.max_deviation > 1e-6, report


def test_compatibility_enumerates_each_ball_once(nine_state, monkeypatch):
    # one type table to radius n per call, and no word-by-word ball walk
    radii = []

    def counted(spec, radius):
        radii.append(radius)
        return type_table(spec, radius)

    monkeypatch.setattr(solver, "type_table", counted)
    assert not hasattr(solver, "enumerate_ball") and not hasattr(solver, "state_of")
    fields = solve_i1_exact(Theta(0.8)).solution_set.solutions[-1].fields
    for n in (2, 3, 6):
        radii.clear()
        assert verify_compatibility(fields, nine_state, Theta(0.8), n=n).passed
        assert radii == [n]


@pytest.mark.parametrize("k, nmax", [(2, 9), (3, 6), (4, 5)])
def test_compatibility_matches_the_word_by_word_walk(k, nmax):
    # the type table's spheres give the word-by-word walk's max_deviation bit
    # for bit, on random fields off the equation, and, for a system lacking
    # a state, its missing-state error or its deviation
    def outcome(check, *args):
        try:
            return check(*args).hex()
        except ValueError as exc:
            return str(exc)

    def production(*args):
        return verify_compatibility(*args).max_deviation

    rng = np.random.default_rng(k)
    refused = 0
    for s, (a1, a2) in itertools.product((1, 2, 3), (({1}, {2}), ({2}, {k + 1}))):
        system = derive_system(SubgroupSpec(k=k, s=s, a1=a1, a2=a2))
        for n in range(2, nmax + 1):
            for scale in (0.0, 1e-3, 0.5, 3.0, 20.0):
                fields = rng.uniform(-scale, scale, len(system.states)).tolist()
                args = (fields, system, Theta(rng.uniform(0.05, 0.99)), n)
                assert outcome(production, *args) == outcome(oracles.compatibility_deviation, *args), (s, a1, n)
        for drop in range(len(system.states)):
            lacking = dataclasses.replace(system, states=system.states[:drop] + system.states[drop + 1 :])
            args = (rng.uniform(-1, 1, len(lacking.states)).tolist(), lacking, Theta(0.8), 3)
            expect = outcome(oracles.compatibility_deviation, *args)
            assert outcome(production, *args) == expect, (s, a1, drop)
            refused += expect.startswith("the system has no state")
    assert refused > 0


@pytest.mark.parametrize("k, n", [(2, 12), (3, 8), (4, 6)])
def test_compatibility_runs_any_printable_n(k, n):
    # n is bounded only by printing configs_checked: 2^V(n) has at most
    # 4300 digits up to n = 12 at k = 2, 8 at k = 3 and 6 at k = 4, the
    # cases here; one more level is refused
    system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
    th = Theta(0.8)
    roots = solve_fixed_points(system, th, SolverConfig(starts=20)).solutions
    for sol in roots:
        report = verify_compatibility(sol.fields, system, th, n=n)
        assert report.passed and report.max_deviation <= 1e-10, (sol.fields, report)
        assert report.configs_checked == 2 ** ball_size(k, n)
    bad = [h + 0.05 for h in roots[-1].fields]
    assert not verify_compatibility(bad, system, th, n=n).passed
    with pytest.raises(ValueError, match="limit for printing an int"):
        verify_compatibility(roots[-1].fields, system, th, n=n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_saturated_fields_off_the_equation_fail(n):
    # at k = 3, theta = 0.95 the constant roots sit at |h| near 5.5, where a
    # field change d moves the probabilities by only about d e^(-2|h|), so a
    # comparison of distributions passes these 1e-6 shifts; the identity
    # sees each one on a vertex of sphere n-1 or n
    system = derive_system(SubgroupSpec(k=3, s=1, a1={1}, a2={2}))
    th = Theta(0.95)
    met = {
        state_of(w, system.spec)
        for sphere in enumerate_ball(3, n).spheres[n - 1 :]
        for w in sphere
    }
    checked = 0
    for sol in solve_fixed_points(system, th, SolverConfig(starts=20)).solutions:
        if max(abs(h) for h in sol.fields) < 1.0:
            continue
        for i, st in enumerate(system.states):
            if st not in met:
                continue
            bad = list(sol.fields)
            bad[i] += 1e-6
            report = verify_compatibility(bad, system, th, n=n)
            assert not report.passed and report.max_deviation > 1e-10, (st, report)
            checked += 1
    assert checked >= 2 * len(met)


def test_digit_limit_bounds_the_ball_before_it_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a ball was built past the digit limit")

    monkeypatch.setattr(solver, "type_table", unreachable)
    nine = derive_system(STANDARD)
    with pytest.raises(
        ValueError,
        match=r"^2\^24574 configurations have 7398 digits, over the 4300-digit limit for printing an int$",
    ):
        verify_compatibility([0.0] * 9, nine, Theta(0.8), n=13)
    huge = derive_system(SubgroupSpec(k=3000, s=1, a1={1}, a2={2}))
    with pytest.raises(ValueError, match=r"^2\^9006002 configurations have 2711077 digits"):
        verify_compatibility([0.0] * 9, huge, Theta(0.8), n=2)


def test_no_digit_limit_leaves_the_vertex_cap(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", "24573")
    nine = derive_system(STANDARD)
    with pytest.raises(ResourceLimitError, match="has 24574 vertices, cap is 24573"):
        verify_compatibility([0.0] * 9, nine, Theta(0.8), n=13)


@pytest.mark.parametrize(
    "cap, refuse, message",
    [
        ("6825", lambda: check_invariance(SubgroupSpec(k=4, s=2, a1={1}, a2={3}), 6),
         "ball of radius 6 for k=4 has 6826 vertices, cap is 6825"),
        ("24573", lambda: verify_compatibility([0.0] * 9, derive_system(STANDARD), Theta(0.8), n=13),
         "ball of radius 13 for k=2 has 24574 vertices, cap is 24573"),
        ("15", lambda: check_cosets(STANDARD, 1), "coset oracle of radius 1 for k=2 compares 16 pairs, cap is 15"),
        ("80", lambda: derive_system(STANDARD), "system for k=2, s=1 has 9 states, a table of 81 counts, cap is 80"),
        ("80", functools.partial(WeaklyPeriodicSystem.from_json, derive_system(STANDARD).to_json()),
         "system for k=2, s=1 has 9 states, a table of 81 counts, cap is 80"),
        ("18", lambda: derive_system(SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2})),
         "letter-set quotient for s=1 has up to 19 types, cap is 18"),
        ("728", lambda: solve_fixed_points(derive_system(STANDARD), Theta(0.8)),
         "Newton on 9 states takes 729 multiply-adds per Jacobian, cap is 728"),
    ],
    ids=["ball", "compat-ball", "oracle-pairs", "derive-table", "file-table", "type-walk", "newton"],
)
def test_every_refusal_reads_as_before(monkeypatch, cap, refuse, message):
    # each bound goes through words.check_work; compat's ball is held to
    # the vertex cap before the digit limit, so n = 13 reads as a ball
    monkeypatch.setenv("CAYLEYGIBBS_MAX_BALL", cap)
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        refuse()


def test_compatibility_input_validation(nine_state):
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"^compatibility needs n >= 2, got {n}"):
            verify_compatibility([0.0] * 9, nine_state, Theta(0.8), n=n)
    bare = derive_system(STANDARD)
    stripped = type(bare)(
        k=bare.k, s=bare.s, states=bare.states, counts=bare.counts, spec=None
    )
    with pytest.raises(ValueError):
        verify_compatibility([0.0] * 9, stripped, Theta(0.8), n=2)


def test_boundary_must_cover_outer_sphere():
    th = Theta(0.5)
    sphere = enumerate_ball(2, 1).spheres[-1]
    boundary = {w: 0.0 for w in list(sphere)[:-1]}
    sigma = {w: 1 for w in enumerate_ball(2, 1).vertices()}
    with pytest.raises(ValueError):
        finite_volume_probability(sigma, boundary, th, 1, 2)


def test_bad_sigma_rejected_before_the_distribution_is_built(monkeypatch):
    th = Theta(0.5)
    verts = list(enumerate_ball(2, 1).vertices())
    boundary = {w: 0.0 for w in enumerate_ball(2, 1).spheres[-1]}

    def unreachable(*args):
        raise AssertionError("distribution built for a bad configuration")

    monkeypatch.setattr(oracles, "_volume_distribution", unreachable)
    for bad in ({**dict.fromkeys(verts, 1), verts[-1]: 0}, dict.fromkeys(verts[:-1], 1)):
        with pytest.raises(ValueError, match="bad at"):
            finite_volume_probability(bad, boundary, th, 1, 2)


def test_public_surface_without_solver_oracles():
    # every exported name resolves, and the second implementations that
    # only tests use live in tests/oracles.py, not in the solver module
    import cayleygibbs

    assert [n for n in cayleygibbs.__all__ if not hasattr(cayleygibbs, n)] == []
    moved = (
        "apply_recursion",
        "translation_invariant_fields",
        "TI_BISECT_TOL",
        "solve_reduced",
        "quartic_coefficients",
        "QuarticReport",
        "check_quartic_positivity",
        "finite_volume_probability",
    )
    assert [n for n in moved if hasattr(solver, n)] == []
    assert not hasattr(solver.ReducedSystem, "expand")


def test_word_from_str_helper_used_in_cli_paths():
    # sanity anchor for the CLI: labels reference vertices by string form
    assert word_from_str("a1.a2") == (1, 2)
