"""Quick tests of the benchmark itself: each reference check accepts the
program's real output and rejects a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from cayleygibbs import cli, invariance  # noqa: E402
from cayleygibbs.cosets import SubgroupSpec, label  # noqa: E402
from cayleygibbs.words import enumerate_ball  # noqa: E402

SINGLE = SubgroupSpec(k=3, s=2, a1={2}, a2={4})
MIXED = SubgroupSpec(k=3, s=1, a1={1, 3}, a2={2})
RADIUS = 5


def key(spec):
    return (spec.k, spec.s, spec.a1, spec.a2)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def flip(residue, spec):
    return (residue + 1) % spec.index


def test_naive_label_matches_program_on_a_ball():
    for spec in (SINGLE, MIXED):
        for word in enumerate_ball(spec.k, RADIUS).vertices():
            assert reference.naive_label(word, key(spec)) == label(word, spec).residue


def test_ball_size_closed_form():
    for k in (2, 3, 4):
        for radius in range(6):
            assert reference.ball_size(k, radius) == len(enumerate_ball(k, radius))


def test_invariance_check_accepts_real_reports():
    for spec in (SINGLE, MIXED):
        report = invariance.check_invariance(spec, RADIUS)
        ref = reference.invariance_reference(key(spec), RADIUS)
        assert reference.check_invariance_report(report, key(spec), RADIUS, ref) == []
    assert not ref.holds and ref.violations  # MIXED has witnesses


def test_invariance_check_rejects_a_flipped_label():
    report = invariance.check_invariance(MIXED, RADIUS)
    ref = reference.invariance_reference(key(MIXED), RADIUS)
    v = report.violations[len(report.violations) // 2]
    profile = (flip(v.profile_y[0], MIXED),) + tuple(v.profile_y[1:])
    bad = list(report.violations)
    bad[len(bad) // 2] = dataclasses.replace(v, profile_y=profile)
    corrupted = dataclasses.replace(report, violations=tuple(bad))
    assert reference.check_invariance_report(corrupted, key(MIXED), RADIUS, ref)


@pytest.mark.parametrize(
    "change",
    [
        {"holds": True},
        {"words_checked": 1},
        {"states_seen": 1},
    ],
)
def test_invariance_check_rejects_wrong_summary(change):
    report = invariance.check_invariance(MIXED, RADIUS)
    ref = reference.invariance_reference(key(MIXED), RADIUS)
    fields = {
        name: (value if isinstance(value, bool) else getattr(report, name) + value)
        for name, value in change.items()
    }
    corrupted = dataclasses.replace(report, **fields)
    if "holds" in change:
        corrupted = dataclasses.replace(corrupted, violations=())
    assert reference.check_invariance_report(corrupted, key(MIXED), RADIUS, ref)


def test_derived_system_check():
    ref = reference.invariance_reference(key(SINGLE), RADIUS)
    system = invariance.derive_system(SINGLE)
    assert reference.check_derived_system(system, ref, SINGLE.k) == []
    # one successor counted in another state, as if its label were flipped
    counts = [list(row) for row in system.counts]
    j = next(j for j, n in enumerate(counts[0]) if n)
    counts[0][j] -= 1
    counts[0][(j + 1) % len(counts)] += 1
    corrupted = dataclasses.replace(system, counts=tuple(tuple(r) for r in counts))
    assert reference.check_derived_system(corrupted, ref, SINGLE.k)
    refused = invariance.IllDefinedSystemError("refused")
    assert reference.check_derived_system(refused, ref, SINGLE.k)

    mixed_ref = reference.invariance_reference(key(MIXED), RADIUS)
    with pytest.raises(invariance.IllDefinedSystemError) as exc:
        invariance.derive_system(MIXED, allow_nonsingleton=True)
    assert reference.check_derived_system(exc.value, mixed_ref, MIXED.k) == []
    assert reference.check_derived_system(system, mixed_ref, MIXED.k)


def solve_doc(theta):
    code, text = run_cli(["solve", "--spec", workloads.STANDARD_SPEC, "--theta", str(theta)])
    assert code == 0
    return json.loads(text)


def standard_matrix(states):
    return reference.count_matrix(states, reference.invariance_reference(workloads.STANDARD, 6))


def test_field_vector_check_rejects_a_nudged_residual():
    states, vectors = workloads._field_vectors(solve_doc(0.8))
    M = standard_matrix(states)
    assert len(vectors) == 3
    assert reference.check_field_vectors(vectors, M, 0.8) == []
    nudged = [list(v) for v in vectors]
    nudged[2][4] += 1e-6
    assert reference.check_field_vectors(nudged, M, 0.8)
    assert reference.check_field_vectors(vectors[1:], M, 0.8)  # -h* dropped: not closed


def test_constant_field_bisection():
    assert reference.constant_field(2, 0.8) == pytest.approx(math.log(4 + math.sqrt(15)), abs=1e-12)
    assert reference.constant_field(2, 0.4) == 0.0
    h = reference.constant_field(3, 0.5)
    assert h == pytest.approx(3 * math.atanh(0.5 * math.tanh(h)), abs=1e-12)


def test_constant_solution_check():
    _, vectors = workloads._field_vectors(solve_doc(0.8))
    assert reference.check_constant_solutions(vectors, 2, 0.8) == []
    assert reference.check_constant_solutions(vectors[:2], 2, 0.8)  # wrong count
    shifted = [[x * 1.001 for x in v] for v in vectors]
    assert reference.check_constant_solutions(shifted, 2, 0.8)  # not +-h*


def test_sweep_check_rejects_a_wrong_n_ti(tmp_path):
    system = tmp_path / "system.json"
    assert run_cli(["derive", "--spec", workloads.STANDARD_SPEC, "--out", str(system)])[0] == 0
    code, text = run_cli(
        ["sweep", "--system", str(system), "--range", "0.1:0.95:0.05", "--starts", "20"]
    )
    assert code == 0
    errors, n_ti = reference.check_sweep_csv(text, workloads.THETA_GRID, 2)
    assert errors == [] and n_ti[0.8] == 3 and n_ti[0.2] == 1
    lines = text.splitlines()
    for row, bad in ((16, "0.9,1,0,0,true"), (3, "0.25,3,0,0,true"),
                     (5, "0.35,1,1,0,true"), (7, "0.45,1,0,0,false")):
        corrupted = "\n".join(lines[:row] + [bad] + lines[row + 1:]) + "\n"
        assert reference.check_sweep_csv(corrupted, workloads.THETA_GRID, 2)[0], bad


def test_compat_check_rejects_a_perturbed_vector_reported_as_passing(tmp_path):
    _, vectors = workloads._field_vectors(solve_doc(0.8))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(vectors[2]))
    bad_vector = list(vectors[2])
    bad_vector[4] += workloads.PERTURBATION
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_vector))
    base = ["compat", "--spec", workloads.STANDARD_SPEC, "--theta", "0.8", "--n", "2", "--fields"]
    code, text = run_cli(base + [str(good)])
    good_doc = json.loads(text)
    assert reference.check_compat(good_doc, code, True, 1024) == []
    code, text = run_cli(base + [str(bad)])
    bad_doc = json.loads(text)
    assert code == 2
    assert reference.check_compat(bad_doc, code, False, 1024) == []
    assert reference.check_compat(dict(bad_doc, passed=True), 0, False, 1024)
    assert reference.check_compat(good_doc, 2, True, 1024)
    assert reference.check_compat(good_doc, code, True, 2**22)


def test_rounds_repeat_for_a_seed(tmp_path):
    a = workloads.Refute(7, str(tmp_path))
    b = workloads.Refute(7, str(tmp_path))
    a.setup()
    b.setup()
    assert sum(len(kinds) for kinds in a.groups.values()) == 32
    assert len(a.round(0)) == 9
    assert [op.input for op in a.round(3)] == [op.input for op in b.round(3)]
    assert [op.input for op in a.round(3)] != [op.input for op in a.round(4)]


def test_tracer_counts_and_restores(tmp_path):
    from tracer import Tracer

    original = invariance.check_invariance
    work = workloads.Certify(1, str(tmp_path))
    work.setup()
    op = work.round(0)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert invariance.check_invariance is not original
        with tracer.span("op"):
            reports = [report for report, _ in op.run()]
    finally:
        tracer.uninstall()
    assert invariance.check_invariance is original
    figures = tracer.snapshot()
    checked = sum(report.words_checked for report in reports)
    assert figures["invariance.words_checked"] == checked
    assert figures["words.enumerate_ball.calls"] == len(reports) == 2
    assert figures["cosets.label.calls"] > checked
    assert figures["invariance.check_invariance.self_s"] > 0
    op_span = next(s for s in tracer.spans if s[1] == "op")
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(op_span[3] - op_span[2], rel=1e-6)
