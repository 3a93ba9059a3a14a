"""Acceptance gate: one test per shipped guarantee.

Each test states its tolerances inline and prints a PASS line with the
measured quantities (visible under pytest -s / -rA).  Criterion 7 asserts
that the I1 pattern holds no non-constant solution at any theta: the two
polynomial-branch solutions are the nonzero constant pair, and the quartic
cofactor has no positive root (the symbolic certificate is in
tests/test_solver.py).
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from oracles import (
    check_quartic_positivity,
    fold_alternating,
    matches_reference,
    matching_permutation,
    project,
    quartic_coefficients,
    reference_counts,
    solve_reduced,
    successor_labels,
    translation_invariant_fields,
)

from cayleygibbs.cosets import (
    SubgroupSpec,
    check_cosets,
    coset_classes,
    is_member,
    label,
    neighbor_counts,
)
from cayleygibbs.invariance import check_invariance, derive_system, state_of
from cayleygibbs.solver import (
    SolverConfig,
    Theta,
    restrict,
    solve_fixed_points,
    solve_i1_exact,
    theta_sweep,
    verify_compatibility,
)
from cayleygibbs.words import IDENTITY, enumerate_ball, parent, successors, word_from_str

STANDARD = SubgroupSpec(k=2, s=1, a1={1}, a2={2})
THETA_GRID = [round(0.10 + 0.05 * i, 2) for i in range(18)]  # 0.10 .. 0.95


def singleton_specs(k: int, s: int):
    letters = range(1, k + 2)
    for i, j in itertools.permutations(letters, 2):
        yield SubgroupSpec(k=k, s=s, a1={i}, a2={j})


def test_criterion_01_profile_witness():
    """Non-singleton letter sets break profile equality: explicit witness.

    For k=2, s=1, A1={1,3}, A2={2} the words x = a2.a1.a2 and y = a1.a3
    agree in class and in parent class, yet their successor profiles are
    (a2, a2) versus (a1, a2) exactly.
    """
    start = time.perf_counter()
    spec = SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2})
    x = word_from_str("a2.a1.a2")
    y = word_from_str("a1.a3")
    assert label(x, spec).residue == label(y, spec).residue
    assert label(parent(x), spec).residue == label(parent(y), spec).residue
    profile_x = tuple(lab.rep for lab in successor_labels(x, spec))
    profile_y = tuple(lab.rep for lab in successor_labels(y, spec))
    assert profile_x == ((2,), (2,))
    assert profile_y == ((1,), (2,))
    assert profile_x != profile_y
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: witness profiles differ ({elapsed:.3f}s)")


def test_criterion_02_invariance_all_singletons():
    """Successor profiles depend only on (class, parent class).

    Zero violations for every singleton spec with k in {2,3,4} and
    s in {1,2}, over the radius-6 ball, within 60 seconds total.
    """
    start = time.perf_counter()
    checked = 0
    for k in (2, 3, 4):
        for s in (1, 2):
            for spec in singleton_specs(k, s):
                report = check_invariance(spec, radius=6)
                assert report.holds, (
                    f"invariance failed for {spec}: {report.violations[:3]}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: {checked} singleton specs, 0 violations ({elapsed:.1f}s)")


def test_criterion_03_index_law_and_divisibility():
    """Exactly 2s+1 classes, and membership == image-length divisibility.

    For s in {1,2,3} and k in {2,3} on the radius-8 ball: the class
    partition has exactly 2s+1 nonempty parts, and x is a member iff the
    collapsed image length is divisible by 2s+1 (0 mismatches).
    """
    for s in (1, 2, 3):
        for k in (2, 3):
            spec = SubgroupSpec(k=k, s=s, a1={1}, a2={2})
            classes = coset_classes(spec, radius=8)
            assert len(classes) == 2 * s + 1
            assert all(classes[r] for r in range(2 * s + 1))
            mismatches = 0
            for words in classes.values():
                for x in words:
                    divisible = len(project(x, spec)) % (2 * s + 1) == 0
                    if divisible != is_member(x, spec):
                        mismatches += 1
            assert mismatches == 0
    print("PASS criterion 3: 2s+1 classes and 0 divisibility mismatches")


def test_criterion_04_coset_oracle_v5():
    """Same label iff y^-1 x is a member, on all pairs of the radius-5 ball.

    k = 2, s in {1, 2}; brute-force word arithmetic; under 30 seconds.
    """
    start = time.perf_counter()
    for s in (1, 2):
        spec = SubgroupSpec(k=2, s=s, a1={1}, a2={2})
        report = check_cosets(spec, radius=5)
        assert report.passed, f"first violation: {report.first_violation}"
        assert report.pairs_checked == 94 * 94
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: {2 * 94 * 94} pairs checked ({elapsed:.1f}s)")


def test_criterion_05_neighbor_count_vectors():
    """Neighbor class counts: root (k-1,1,1), class-1 members (1,k-1,1).

    Exact integer equality for k in {2..6}; and for every vertex of the
    radius-6 ball some coordinate permutation matches its count vector to
    the root's.
    """
    for k in range(2, 7):
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        root_counts = neighbor_counts(IDENTITY, spec)
        assert root_counts == (k - 1, 1, 1)
        ball = enumerate_ball(k, 6)
        class1_seen = 0
        for x in ball.vertices():
            counts = neighbor_counts(x, spec)
            if x != IDENTITY and label(x, spec).residue == 1:
                assert counts == (1, k - 1, 1)
                class1_seen += 1
            assert matching_permutation(root_counts, counts) is not None, (
                f"no permutation matches {counts} to {root_counts} at {x}"
            )
        assert class1_seen > 0
    print("PASS criterion 5: count vectors and permutations for k in 2..6")


def test_criterion_06_system_derivation_matches_reference():
    """Derived coefficient tables equal the nine-state reference exactly.

    Integer equality for k in {2,3,4,5}.  Independently of the derivation,
    the radius-6 ball, labelled word by word from the root, holds exactly
    the derived states, each with at least three representatives, and every
    representative's successor-state counts equal the derived row.
    """
    for k in (2, 3, 4, 5):
        spec = SubgroupSpec(k=k, s=1, a1={1}, a2={2})
        system = derive_system(spec)
        assert matches_reference(system), f"derived table differs at k={k}"
        expected = reference_counts(k)
        for state in system.states:
            assert system.row(state) == expected[state], f"row {state} at k={k}"
        ball: dict = {}  # state -> successor-state counts of each representative
        for x in enumerate_ball(k, 6).vertices():
            if x == IDENTITY:
                continue
            own = label(x, spec).residue
            counts = Counter((label(y, spec).residue, own) for y in successors(x, k))
            ball.setdefault((own, label(parent(x), spec).residue), []).append(counts)
        assert set(ball) == set(system.states)
        for state in system.states:
            assert len(ball[state]) >= 3, f"state {state} at k={k}"
            assert all(dict(c) == system.row(state) for c in ball[state]), f"row {state} at k={k}"
    print("PASS criterion 6: derived tables match the reference for k in 2..5")


def test_criterion_07_phase_threshold_sweep():
    """Solution counts across theta in {0.10, 0.15, ..., 0.95}.

    Asserted: residuals <= 1e-10 everywhere; at theta = 0.8 the branch
    roots are approximately 7.8730 and 0.1270 with product 1 within 1e-12,
    and the exact branch agrees with multistart Newton within 1e-8; all
    under 2 minutes.  The threshold theta = 1/2: below it the zero field is
    the only solution and the quadratic branch is empty; above it there are
    exactly three constant solutions, and the two branch roots give the
    nonzero pair +-h* (within 1e-10 on all nine coordinates).  The I1
    pattern holds no non-constant solution at any theta.

    The branch root is x = exp(h) on the block {2, 5}, so z = exp(2h) = x^2
    there.  (x - 1)(a x^2 + (a-1) x + a) = a x^3 - x^2 + x - a is the k = 2
    constant-field equation x = g(x^2), and at a root of the quadratic
    every block equals x^2; the quartic cofactor has only positive
    coefficients (criterion 8).  theta = 0.5 itself is degenerate (a
    double root at x = 1) and exempt from the count clause.
    """
    start = time.perf_counter()
    system = derive_system(STANDARD)
    rows = theta_sweep(system, THETA_GRID, SolverConfig())
    assert all(row.max_residual <= 1e-10 for row in rows)
    assert all(row.agreement for row in rows)

    exact = solve_i1_exact(Theta(0.8))
    assert exact.roots[0] == pytest.approx(7.8730, abs=5e-5)
    assert exact.roots[1] == pytest.approx(0.1270, abs=5e-5)
    assert exact.roots[0] * exact.roots[1] == pytest.approx(1.0, abs=1e-12)
    newton = solve_fixed_points(system, Theta(0.8), SolverConfig())
    for sol in exact.solution_set.solutions:
        assert any(
            max(abs(a - b) for a, b in zip(sol.fields, other.fields)) < 1e-8
            for other in newton.solutions
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0

    failures = []
    for row in rows:
        theta = Theta(row.theta)
        branch = solve_i1_exact(theta)
        if row.n_wp_i1 != 0:
            failures.append((row.theta, "non-constant I1 solutions", row.n_wp_i1))
        if row.theta < 0.5:
            if row.n_ti != 1 or branch.roots != ():
                failures.append((row.theta, "n_ti, branch roots", row.n_ti, branch.roots))
        elif row.theta > 0.5:
            if row.n_ti != 3 or len(branch.roots) != 2:
                failures.append((row.theta, "n_ti, branch roots", row.n_ti, branch.roots))
            h_star = translation_invariant_fields(2, theta)[-1]
            for sol in branch.solution_set.solutions:
                if sol.fields == (0.0,) * 9:
                    continue
                gap = min(
                    max(abs(v - sign * h_star) for v in sol.fields) for sign in (1, -1)
                )
                if sol.kind != "translation-invariant" or gap > 1e-10:
                    failures.append((row.theta, "branch solution", sol.kind, gap))
    assert not failures, (
        "the theta = 1/2 threshold is not reproduced; (theta, clause, "
        f"observed...): {failures}.  Expected: no non-constant solution in "
        "the I1 pattern; below 1/2 only the zero field and no branch roots; "
        "above 1/2 three constant solutions, the two branch roots x = exp(h*) "
        "and 1/x giving +-h* on all nine coordinates."
    )
    print(f"PASS criterion 7: threshold at theta = 1/2 reproduced ({elapsed:.1f}s)")


def test_criterion_08_quartic_positivity():
    """The quartic cofactor is positive on (0, 50] for a in {0.05..0.95}.

    Mesh step 1e-3 (the oracle's fixed mesh), plus an exact
    all-coefficients-positive certificate and a derivative-bound certificate
    that the mesh cannot hide a dip.  Then a sympy proof for every a in
    (0, 1): c4 = a^3 + a^2 - a + 1, c3 = a - a^3 and c2 = 3a^3 - a^2 + a + 1
    are positive there, so the quartic (c4, c3, c2, c3, c4) has no sign
    variation and, by Descartes, no positive root at any theta.
    """
    a_values = [round(0.05 * i, 2) for i in range(1, 20)]
    report = check_quartic_positivity(a_values)
    assert (report.x_max, report.step) == (50.0, 1e-3)
    assert report.passed
    assert report.descartes_no_positive_roots
    assert report.cell_bound_certified
    assert min(report.min_values.values()) > 0.0

    sp = pytest.importorskip("sympy")
    a = sp.symbols("a", positive=True)
    c4 = a**3 + a**2 - a + 1
    c3 = a - a**3
    c2 = 3 * a**3 - a**2 + a + 1
    oracle = [sp.nsimplify(c, rational=True) for c in quartic_coefficients(a)]
    assert [sp.expand(c - d) for c, d in zip(oracle, (c4, c3, c2, c3, c4))] == [0] * 5
    # each is a sum or product of terms positive on (0, 1)
    half = sp.Rational(1, 2)
    assert sp.expand(c4 - (a**3 + (a - half) ** 2 + sp.Rational(3, 4))) == 0
    assert sp.expand(c3 - a * (1 - a) * (1 + a)) == 0
    assert sp.expand(c2 - (3 * a**3 + a * (1 - a) + 1)) == 0
    for c in (c4, c3, c2):
        assert sp.solveset(c <= 0, a, sp.Interval.open(0, 1)) == sp.EmptySet
    print(
        "PASS criterion 8: quartic positive, min over mesh "
        f"{min(report.min_values.values()):.6f}; coefficients proved positive on (0, 1)"
    )


def test_criterion_09_invariant_set_certificates():
    """Restriction certificates, and constancy of the two-block fixed points.

    The patterns I0, I1, I2 certify for k in {2,3,4,5}; I3, I4, I5 certify
    for k = 2.  Every fixed point of the I3 restriction across the theta
    grid is constant (blocks equal within 1e-8).
    """
    for k in (2, 3, 4, 5):
        system = derive_system(SubgroupSpec(k=k, s=1, a1={1}, a2={2}))
        for pid in ("I0", "I1", "I2"):
            restrict(system, pid)
    system2 = derive_system(STANDARD)
    for pid in ("I3", "I4", "I5"):
        restrict(system2, pid)
    reduced = restrict(system2, "I3")
    cfg = SolverConfig(starts=80)
    for theta in THETA_GRID:
        for fields, residual in solve_reduced(reduced, Theta(theta), cfg):
            assert residual <= 1e-10
            assert max(fields) - min(fields) < 1e-8, (
                f"non-constant I3 fixed point at theta={theta}: {fields}"
            )
    print("PASS criterion 9: certificates hold; all I3 fixed points constant")


def test_criterion_10_end_to_end_compatibility():
    """Both nonzero branch solutions define compatible volume measures.

    At theta = 0.8 and depth n = 2 (1024 configurations) the field
    residual b_p - sum f(b_w) on sphere 1 is at most 1e-10 for both
    solutions; perturbing one used coordinate by 0.05 makes the check fail.
    """
    start = time.perf_counter()
    system = derive_system(STANDARD)
    th = Theta(0.8)
    exact = solve_i1_exact(th)
    nonzero = [s for s in exact.solution_set.solutions if s.fields != (0.0,) * 9]
    assert len(nonzero) == 2
    for sol in nonzero:
        report = verify_compatibility(sol.fields, system, th, n=2)
        assert report.passed and report.configs_checked == 1024
        assert report.max_deviation <= 1e-10
    bad = list(nonzero[0].fields)
    bad[4] += 0.05
    assert not verify_compatibility(bad, system, th, n=2).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 10: both branch solutions compatible ({elapsed:.2f}s)")


def test_criterion_11_fold_equals_closed_form():
    """Recursive folding equals the residue label on alternating words.

    Exhaustive over both starting letters, lengths 0..40, s in {1,2,3,4};
    the folded representative and the labelled representative are equal
    words, 0 mismatches.
    """
    mismatches = 0
    total = 0
    for s in (1, 2, 3, 4):
        spec = SubgroupSpec(k=2, s=s, a1={1}, a2={2})
        for first in (1, 2):
            other = 3 - first
            for length in range(41):
                w = tuple((first if i % 2 == 0 else other) for i in range(length))
                folded = fold_alternating(w, spec)
                labelled = label(w, spec)
                total += 1
                if folded != labelled:
                    mismatches += 1
    assert mismatches == 0
    print(f"PASS criterion 11: {total} alternating words, 0 mismatches")
