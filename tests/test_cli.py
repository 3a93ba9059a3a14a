"""End-to-end tests of the command line interface.

Every invocation goes through cli.main in-process; exit codes and exact
output bytes are part of the contract.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cayleygibbs
from cayleygibbs.cli import build_parser, main
from cayleygibbs.cosets import SubgroupSpec
from cayleygibbs.invariance import check_invariance, derive_system
from cayleygibbs.solver import Theta, solve_i1_exact, verify_compatibility
from cayleygibbs.words import ball_size, word_to_str

STANDARD = '{"k": 2, "s": 1, "A1": [1], "A2": [2]}'
SPLIT = '{"k": 2, "s": 1, "A1": [1, 3], "A2": [2]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ball_lists_words(capsys):
    code, out = run(capsys, "ball", "--k", "2", "--radius", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "e"
    assert len(lines) == 1 + 3 + 6
    assert "a1.a2" in lines


def test_label_reports_class_and_representative(capsys):
    code, out = run(capsys, "label", "--spec", STANDARD, "--word", "a1.a2.a3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"word": "a1.a2.a3", "class": 2, "representative": "a2"}


def test_bare_key_spec_shorthand(capsys):
    code, out = run(capsys, "label", "--spec", "{k:2,s:1,A1:[1],A2:[2]}", "--word", "e")
    assert code == 0
    assert json.loads(out)["class"] == 0


def test_classes_covers_ball(capsys):
    code, out = run(capsys, "classes", "--spec", STANDARD, "--radius", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1 + 3 + 6 + 12
    assert set(doc.values()) == {0, 1, 2}
    assert doc["e"] == 0


def test_oracle_passes_for_valid_spec(capsys):
    code, out = run(capsys, "oracle", "--spec", STANDARD, "--radius", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_invariance_exit_codes(capsys):
    code, out = run(capsys, "invariance", "--spec", STANDARD, "--radius", "4")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out = run(
        capsys, "invariance", "--spec", SPLIT, "--radius", "4", "--expect-holds"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["violations"]


def test_invariance_prints_the_first_ten_violations(capsys):
    # the CLI asks check_invariance for the ten records it prints, so a
    # 6.3M-word ball lists as fast as a small one
    head = check_invariance(SubgroupSpec(k=2, s=1, a1={1, 3}, a2={2}), 8).violations[:10]
    code, out = run(capsys, "invariance", "--spec", SPLIT, "--radius", "21")
    assert code == 0
    doc = json.loads(out)
    assert (doc["holds"], doc["words_checked"]) == (False, 6_291_453)
    assert [(v["x"], v["y"]) for v in doc["violations"]] == [(word_to_str(v.x), word_to_str(v.y)) for v in head]


def test_qvec_root(capsys):
    code, out = run(capsys, "qvec", "--spec", STANDARD, "--word", "e")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 1, 1]


def test_derive_solve_roundtrip(capsys, tmp_path):
    system_file = tmp_path / "system.json"
    code, _ = run(capsys, "derive", "--spec", STANDARD, "--out", str(system_file))
    assert code == 0
    doc = json.loads(system_file.read_text())
    assert len(doc["states"]) == 9
    assert doc["counts"]["0,1"] == {"0,0": 1, "2,0": 1}

    code, via_file = run(
        capsys, "solve", "--system", str(system_file), "--theta", "0.8",
        "--starts", "40",
    )
    assert code == 0
    code, via_spec = run(
        capsys, "solve", "--spec", STANDARD, "--theta", "0.8", "--starts", "40"
    )
    assert code == 0
    assert via_file == via_spec
    doc = json.loads(via_spec)
    assert len(doc["solutions"]) == 3
    assert all(s["kind"] == "translation-invariant" for s in doc["solutions"])
    assert list(doc["solutions"][0]["fields"]) == doc["states"]


def test_derive_file_feeds_compat(capsys, tmp_path):
    system_file = tmp_path / "system.json"
    code, _ = run(capsys, "derive", "--spec", STANDARD, "--out", str(system_file))
    assert code == 0
    assert json.loads(system_file.read_text())["spec"] == json.loads(STANDARD)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([0.0] * 9))
    code, out = run(
        capsys, "compat", "--system", str(system_file), "--theta", "0.8",
        "--n", "2", "--fields", str(zero),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


PAIRS = "{k:4,s:1,A1:[1,2],A2:[3,4]}"  # |A1| = |A2| = 2, A0 = {5}


def test_pair_spec_derives_solves_sweeps_and_passes_compat(capsys, tmp_path):
    # every |A1| = |A2| spec derives: m = 2 children one class down and up,
    # m0 = 1 at the vertex's class, one fewer on its parent's side
    code, out = run(capsys, "derive", "--spec", PAIRS)
    assert code == 0
    counts = {
        f"{r},{(r + d) % 3}": {f"{(r + e) % 3},{r}": c - (e == d) for e, c in ((-1, 2), (0, 1), (1, 2)) if c - (e == d)}
        for r in range(3)
        for d in (-1, 0, 1)
    }
    assert json.loads(out)["counts"] == counts
    code, out = run(capsys, "solve", "--spec", PAIRS, "--theta", "0.8", "--starts", "20")
    assert code == 0
    constant = [s for s in json.loads(out)["solutions"] if s["kind"] == "translation-invariant"]
    assert len(constant) == 3 and all(s["invariant_sets"] == ["I0", "I1", "I2"] for s in constant)
    code, out = run(capsys, "sweep", "--spec", PAIRS, "--thetas", "0.2,0.8", "--starts", "20")
    assert code == 0
    assert out.split("\n")[:3] == ["theta,n_ti,n_wp_I1,n_wp_I2,agreement", "0.2,1,0,0,true", "0.8,3,0,0,true"]
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([0.0] * 9))
    code, out = run(capsys, "compat", "--spec", PAIRS, "--theta", "0.8", "--n", "3", "--fields", str(zero))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_derive_refuses_unequal_letter_sets_with_witnesses(capsys):
    code = main(["derive", "--spec", "{k:2,s:1,A1:[1,3],A2:[2]}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "verification failed: state (0, 1): a1.a3 gives {(1, 0): 1, (2, 0): 1} but a2.a1.a2 gives {(2, 0): 2}; "
        "successor counts depend on the vertex, so the invariance property fails\n"
    )


def test_solve_output_deterministic(capsys):
    _, first = run(capsys, "solve", "--spec", STANDARD, "--theta", "0.7", "--starts", "30")
    _, second = run(capsys, "solve", "--spec", STANDARD, "--theta", "0.7", "--starts", "30")
    assert first == second


def test_sweep_csv(capsys):
    code, out = run(
        capsys, "sweep", "--spec", STANDARD, "--thetas", "0.3,0.8", "--starts", "30"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,n_ti,n_wp_I1,n_wp_I2,agreement"
    assert lines[1] == "0.3,1,0,0,true"
    assert lines[2].startswith("0.8,3,")


def test_sweep_csv_tells_adjacent_thetas_apart(capsys):
    # two floats one ulp apart, which 12 significant digits print alike
    code, out = run(
        capsys, "sweep", "--spec", STANDARD, "--thetas", "0.30000000000000004,0.3", "--starts", "5"
    )
    assert code == 0
    assert out == "theta,n_ti,n_wp_I1,n_wp_I2,agreement\n0.30000000000000004,1,0,0,true\n0.3,1,0,0,true\n"


# the sweep CSV of the commit before the batched Newton kernel, on the
# benchmark's grid (--starts 50, two seeds) and criterion 7's grid (the
# defaults: 200 starts, seed 0); it prints only counts, so it does not
# depend on the BLAS build
SWEEP_GOLDEN = "theta,n_ti,n_wp_I1,n_wp_I2,agreement\n" + "".join(
    f"{theta:g},{1 if theta <= 0.5 else 3},0,0,true\n"
    for theta in (round(0.10 + 0.05 * i, 2) for i in range(18))
)


@pytest.mark.parametrize(
    "extra",
    [["--starts", "50", "--seed", "1"], ["--starts", "50", "--seed", "7"], []],
    ids=["bench-seed1", "bench-seed7", "criterion7"],
)
def test_sweep_csv_golden(capsys, extra):
    code, out = run(capsys, "sweep", "--spec", STANDARD, "--range", "0.1:0.95:0.05", *extra)
    assert code == 0
    assert out == SWEEP_GOLDEN


# sha256 of solve stdout at --theta 0.9 --starts 50 --seed 0, taken on the
# commit that took Newton's Jacobian in closed form.  The fields print 17
# digits, so the goldens pin every root's bits, which hang on how numpy and
# its BLAS round tanh, arctanh, exp, the stacked matrix-vector products and
# the batched solve.  Builds that round those differently (another SIMD
# dispatch or OpenBLAS core type moves the last bits) are recognised by
# _rounding_probe, a package-free fingerprint of those five operations, and
# the goldens are asserted on the build they were taken on: numpy 2.4.6 with
# scipy-openblas 0.3.31 on an AVX-512 x86-64 CPU.
SOLVE_GOLDEN_PROBE = "586968056b3743ff"
SOLVE_SHA256_GOLDEN = {
    "{k:3,s:2,A1:[1],A2:[2]}": "9f0af20dff228cd8b633f1c04886d25c7c6230d78dbb4cd451d3d643f77f9859",
    "{k:8,s:3,A1:[1],A2:[2]}": "317d4df74435f9d2e8af4fe6203180b632264090f7f373b05ed204a37ab12eca",
}


def _rounding_probe():
    """A hash of the bits numpy gives for Newton's five kinds of floating-point operation."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-5.0, 5.0, size=(64, 21))
    f = np.arctanh(0.9 * np.tanh(x))
    M = np.zeros((21, 21))
    for i in range(21):
        M[i, [(i + 1) % 21, (i + 7) % 21, (i + 14) % 21]] = [6.0, 1.0, 1.0]
    products = np.matmul(M, f[..., None])
    steps = np.linalg.solve(np.eye(21) - M * 0.05 * rng.uniform(size=(64, 1, 21)), x[..., None])
    slopes = np.exp(-np.abs(x))
    return hashlib.sha256(f.tobytes() + products.tobytes() + steps.tobytes() + slopes.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("spec", list(SOLVE_SHA256_GOLDEN))
def test_solve_stdout_sha256_golden(capsys, spec):
    # at k >= 3 a row of M has three nonzero counts, where any product but
    # one matrix-vector product per point sums in another order
    code, out = run(capsys, "solve", "--spec", spec, "--theta", "0.9", "--starts", "50", "--seed", "0")
    assert code == 0
    if _rounding_probe() != SOLVE_GOLDEN_PROBE:
        pytest.skip("this numpy build rounds Newton's operations differently from the goldens' build")
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_SHA256_GOLDEN[spec]


# the sweep CSV at k = 8, s = 1 (nine states), taken on the commit before
# pattern membership skipped the block-by-block check on constant rows:
# from theta = 0.25 non-constant roots lie in I1 and I2.  Which roots
# Newton reaches and dedupe keeps hangs on the bits of every iteration, so,
# as the sha256 goldens, it is asserted on the build it was taken on
K8_SWEEP_GOLDEN = """theta,n_ti,n_wp_I1,n_wp_I2,agreement
0.1,1,0,0,true
0.15,3,0,0,true
0.2,3,0,0,true
0.25,3,2,0,true
0.3,3,0,1,true
0.35,3,0,1,true
0.4,3,5,6,true
0.45,3,5,5,true
0.5,3,6,6,true
0.55,3,6,6,true
0.6,3,6,6,true
0.65,3,5,4,true
0.7,3,5,5,true
0.75,3,6,5,true
0.8,3,8,4,true
0.85,3,7,5,true
0.9,3,6,6,true
0.95,3,7,7,true
"""


def test_sweep_k8_nine_state_golden(capsys):
    argv = ["--range", "0.1:0.95:0.05", "--starts", "200", "--seed", "0"]
    code, out = run(capsys, "sweep", "--spec", "{k:8,s:1,A1:[1],A2:[2]}", *argv)
    assert code == 0
    if _rounding_probe() != SOLVE_GOLDEN_PROBE:
        pytest.skip("this numpy build rounds Newton's operations differently from the golden's build")
    assert out == K8_SWEEP_GOLDEN


def test_sweep_counts_every_constant_root(capsys):
    # 21 states: multistart alone counts 3, 1, 1, 1
    code, out = run(
        capsys, "sweep", "--spec", "{k:8,s:3,A1:[1],A2:[2]}", "--thetas", "0.3,0.5,0.7,0.9", "--starts", "20"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["3", "3", "3", "3"]


def test_sweep_at_large_theta(capsys):
    code, out = run(
        capsys, "sweep", "--spec", STANDARD, "--thetas", "0.97,0.99", "--starts", "20"
    )
    assert code == 0
    assert out.split("\n")[1:] == ["0.97,3,0,0,true", "0.99,3,0,0,true", ""]


def test_sweep_range_grid(capsys):
    code, out = run(
        capsys, "sweep", "--spec", STANDARD, "--range", "0.3:0.5:0.1", "--starts", "10"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["0.3", "0.4", "0.5"]


def test_poly_branch(capsys):
    code, out = run(capsys, "poly", "--theta", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["boundary_degenerate"] is False
    assert doc["roots"][0] == pytest.approx(7.872983346207417, abs=1e-12)
    assert doc["roots"][0] * doc["roots"][1] == pytest.approx(1.0, abs=1e-12)
    assert len(doc["solutions"]) == 3

    code, out = run(capsys, "poly", "--theta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["boundary_degenerate"] is True
    assert doc["roots"] == []


def test_poly_branches_close_under_negation(capsys):
    # the x < 1 branch is the exact negation of the x > 1 one, and both
    # solve the nine-state system to 1e-10 up to theta = 0.99
    for i in range(51, 100):
        theta = f"{i / 100:.2f}"
        code, out = run(capsys, "poly", "--theta", theta)
        assert code == 0, theta
        solutions = json.loads(out)["solutions"]
        vectors = {tuple(sol["fields"].values()) for sol in solutions}
        assert len(vectors) == 3, theta
        assert {tuple(-v for v in vec) for vec in vectors} == vectors, theta
        assert all(sol["residual"] <= 1e-10 for sol in solutions), theta


def test_sweep_on_an_edited_nine_state_table(capsys, tmp_path):
    # the "0,1" row moved to {"0,0": 2}: still nine states at k = 2, but not
    # the table the exact path solves, and I1 no longer invariant
    doc = json.loads(derive_system(SubgroupSpec.from_json(STANDARD)).to_json())
    doc["counts"]["0,1"] = {"0,0": 2}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "sweep", "--system", str(path), "--thetas", "0.3,0.8", "--starts", "20")
    assert code == 0
    assert out == "theta,n_ti,n_wp_I1,n_wp_I2,agreement\n0.3,1,0,0,true\n0.8,3,0,0,true\n"
    code, out = run(capsys, "solve", "--system", str(path), "--theta", "0.8", "--starts", "20")
    assert code == 0
    solutions = json.loads(out)["solutions"]
    assert len(solutions) == 3
    assert all(sol["invariant_sets"] == ["I0", "I5"] for sol in solutions)


def test_compat_exit_codes(capsys, tmp_path):
    _, out = run(capsys, "poly", "--theta", "0.8")
    fields = json.loads(out)["solutions"][-1]["fields"]
    good = tmp_path / "fields.json"
    good.write_text(json.dumps(fields))
    code, out = run(
        capsys, "compat", "--spec", STANDARD, "--theta", "0.8", "--fields", str(good)
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    fields["1,1"] += 0.05
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fields))
    code, out = run(
        capsys, "compat", "--spec", STANDARD, "--theta", "0.8", "--fields", str(bad)
    )
    assert code == 2
    assert json.loads(out)["passed"] is False


# compat --n 3 stdout for the three poly vectors at theta = 0.8 (-h*·1, 0 and
# h*·1, each coordinate log(x) bit for bit) and the last one with "1,1"
# raised by 0.05: max_deviation is the field residual |b_p - sum f(b_w)| on
# sphere 2, so the shift shows in full; numpy with its AVX-512 dispatch
# disabled (NPY_DISABLE_CPU_FEATURES) gives the same bytes
COMPAT_N3_GOLDEN = [
    (0, "4.4408920985006262e-16", "true"),
    (0, "0", "true"),
    (0, "4.4408920985006262e-16", "true"),
    (2, "0.050000000000000266", "false"),
]


def test_compat_n3_golden(capsys, tmp_path):
    _, out = run(capsys, "poly", "--theta", "0.8")
    vectors = [sol["fields"] for sol in json.loads(out)["solutions"]]
    assert len(vectors) == 3
    perturbed = dict(vectors[-1])
    perturbed["1,1"] += 0.05
    for i, (fields, (want_code, deviation, passed)) in enumerate(
        zip(vectors + [perturbed], COMPAT_N3_GOLDEN)
    ):
        path = tmp_path / f"fields{i}.json"
        path.write_text(json.dumps(fields))
        code = main(
            ["compat", "--spec", STANDARD, "--theta", "0.8", "--n", "3", "--fields", str(path)]
        )
        captured = capsys.readouterr()
        assert code == want_code
        assert captured.out == (
            f'{{\n  "passed": {passed},\n  "n": 3,\n  "max_deviation": {deviation},\n'
            '  "configs_checked": 4194304\n}\n'
        )
        assert captured.err == ""
    # the check holds the 22 words of the radius-3 ball and the fields of
    # spheres 2 and 3, about 3.5 KiB; one 2^22 array of the full radius-3
    # ball's configurations would be 32 MiB
    system = derive_system(SubgroupSpec.from_json(STANDARD))
    fields = solve_i1_exact(Theta(0.8)).solution_set.solutions[-1].fields
    tracemalloc.start()
    try:
        verify_compatibility(fields, system, Theta(0.8), n=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


@pytest.mark.parametrize("k, n", [(2, 6), (3, 4)])
def test_compat_runs_past_n3(capsys, tmp_path, k, n):
    spec = f"{{k:{k},s:1,A1:[1],A2:[2]}}"
    _, out = run(capsys, "solve", "--spec", spec, "--theta", "0.8", "--starts", "20")
    solutions = json.loads(out)["solutions"]
    assert len(solutions) >= 3
    for i, sol in enumerate(solutions):
        path = tmp_path / f"fields{i}.json"
        path.write_text(json.dumps(sol["fields"]))
        code, out = run(
            capsys, "compat", "--spec", spec, "--theta", "0.8", "--n", str(n), "--fields", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["n"] == n
        assert doc["configs_checked"] == 2 ** ball_size(k, n)


def test_compat_accepts_dense_list(capsys, tmp_path):
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps([0.0] * 9))
    code, out = run(
        capsys, "compat", "--spec", STANDARD, "--theta", "0.6", "--fields", str(dense)
    )
    assert code == 0


def test_draw_dot_output(capsys):
    code, out = run(capsys, "draw", "--spec", STANDARD, "--radius", "2")
    assert code == 0
    assert out.startswith("graph cayley_ball {")
    assert out.rstrip().endswith("}")
    assert '"e" [style=filled, fillcolor="#1f77b4"' in out
    assert 'fillcolor="#d62728"' in out  # class 1
    assert 'fillcolor="#000000"' in out  # class 2
    assert out.count(" -- ") == 9  # tree edges in the radius-2 ball


def test_draw_without_spec_is_uncolored(capsys):
    code, out = run(capsys, "draw", "--k", "2", "--radius", "1")
    assert code == 0
    assert "fillcolor" not in out
    assert out.count(" -- ") == 3


# sha256 of classes and draw stdout, taken before labelled balls were read
# from the type table; the labels are integer arithmetic, so no probe gates them
COSET_SHA256_GOLDEN = {
    ("{k:3,s:2,A1:[1],A2:[2]}", "6"): (
        "7bdb441cbbcfd35f94b47979a522656c26cf41673536b467dbbb067626af7936",
        "d65f7ae56b5c7acd0c390dcc69b0ba845e142aa3fbeda01ab64739c450fc9e6a",
    ),
    ("{k:3,s:1,A1:[1,2],A2:[3]}", "4"): (
        "5441bd49ef29c898585c4eedc169f50151713f6357e994751d7ad6849f44bab0",
        "e7889dcd99103c519eca191b5022c1c74d443393cced8082258669498b3947df",
    ),
    ("{k:4,s:2,A1:[1],A2:[3]}", "4"): (
        "e1e98d97c6881b3227003a757d4b8c040882f2695ff5f3db6bc4c7150c2765b0",
        "47c381dfd3ab01344ea5badbea5a44b42222e9660ccfdd5d2314c8b3fa7f17b6",
    ),
}


@pytest.mark.parametrize("spec, radius", list(COSET_SHA256_GOLDEN))
def test_classes_and_draw_stdout_sha256_golden(capsys, spec, radius):
    for command, golden in zip(("classes", "draw"), COSET_SHA256_GOLDEN[spec, radius]):
        code, out = run(capsys, command, "--spec", spec, "--radius", radius)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden, command


def test_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_text = run(capsys, "ball", "--k", "2", "--radius", "2")
    path = tmp_path / "ball.txt"
    code, empty = run(capsys, "ball", "--k", "2", "--radius", "2", "--out", str(path))
    assert code == 0 and empty == ""
    assert path.read_text() == stdout_text


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--theta", "0.8"])  # neither --spec nor --system
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--spec", STANDARD])  # no theta grid
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "--spec", STANDARD, "--system", "s.json", "--theta", "0.8"],
            "--system: not allowed with argument --spec",
        ),
        (
            ["sweep", "--spec", "{k:3,s:1,A1:[1],A2:[2]}", "--system", "s.json", "--thetas", "0.8"],
            "--system: not allowed with argument --spec",
        ),
        (
            ["sweep", "--system", "s.json", "--thetas", "0.8", "--range", "0.1:0.2:0.1"],
            "--range: not allowed with argument --thetas",
        ),
        (
            ["compat", "--system", "s.json", "--spec", STANDARD, "--theta", "0.8", "--fields", "zeros.json"],
            "--spec: not allowed with argument --system",
        ),
        (["draw", "--spec", STANDARD, "--k", "3", "--radius", "1"], "--k: not allowed with argument --spec"),
    ],
    ids=["solve-spec-system", "sweep-spec-system", "sweep-thetas-range", "compat-system-spec", "draw-spec-k"],
)
def test_conflicting_inputs_exit_1(capsys, monkeypatch, tmp_path, argv, message):
    # each pair names one input two ways; neither is dropped for the other
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(derive_system(SubgroupSpec.from_json(STANDARD)).to_json())
    (tmp_path / "zeros.json").write_text(json.dumps([0.0] * 9))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--theta", "0.8"], "one of the arguments --spec --system is required"),
        (["sweep", "--thetas", "0.8"], "one of the arguments --spec --system is required"),
        (["sweep", "--spec", STANDARD], "one of the arguments --thetas --range is required"),
        (["compat", "--theta", "0.8", "--fields", "zeros.json"], "one of the arguments --spec --system is required"),
        (["draw", "--radius", "1"], "one of the arguments --k --spec is required"),
    ],
    ids=["solve-source", "sweep-source", "sweep-grid", "compat-source", "draw-source"],
)
def test_missing_input_prints_the_subcommand_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"usage: cayleygibbs {argv[0]} ")
    assert f"cayleygibbs {argv[0]}: error: {message}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--spec", STANDARD, "--thetas="], "--thetas needs at least one value, got ''"),
        (["sweep", "--spec", STANDARD, "--range="], "--range must be lo:hi:step, got ''"),
        (["solve", "--system=", "--theta", "0.8"], "No such file or directory: ''"),
        (["solve", "--spec=", "--theta", "0.8"], "bad spec JSON"),
        (["draw", "--spec=", "--radius", "1"], "bad spec JSON"),
    ],
    ids=["sweep-thetas", "sweep-range", "solve-system", "solve-spec", "draw-spec"],
)
def test_empty_input_exits_1_with_its_own_message(capsys, argv, message):
    # an empty value is given, so argparse accepts it and the handler refuses it
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_bad_spec_reports_error(capsys):
    code = main(["label", "--spec", '{"k": 2}', "--word", "e"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_theta_reports_error(capsys):
    code = main(["solve", "--spec", STANDARD, "--theta", "1.5"])
    assert code == 1


def _drop_state(doc):
    doc["states"].remove([2, 2])


def _only_state_0_0(doc):
    # (0,0) alone, both children in it; the depth-2 word a1.a2 is in state (2,1)
    doc["states"] = [[0, 0]]
    doc["counts"] = {"0,0": {"0,0": 2}}


def _states_over_table_cap(doc):
    # 5000 distinct states at s = 1250: a 50 KB file whose dense table of
    # 25,000,000 counts would take about 220 MB, so it is refused unbuilt
    del doc["spec"]
    doc.update(s=1250, states=[[i // 2501, i % 2501] for i in range(5000)], counts={})


def _set_count(value):
    def edit(doc):
        doc["counts"]["0,1"]["0,0"] = value
    return edit


SWEEP = ["sweep", "--spec", STANDARD, "--starts", "5", "--range"]
BALL = ["ball", "--k", "2", "--radius", "3"]
# fields.json maps each of the nine states to 0, a true fixed point (written per test)
COMPAT = ["compat", "--spec", STANDARD, "--theta", "0.8", "--fields", "fields.json"]
# a nine-state system whose radius-2 ball has 9,006,002 vertices: under the
# vertex cap and about 2 GB to build, and 2^9006002 configurations, far more
# digits than an int prints
HUGE_COMPAT = ["compat", "--spec", "{k:3000,s:1,A1:[1],A2:[2]}", "--theta", "0.8", "--n", "2",
               "--fields", "fields.json"]
# a radius (or compat's n) whose ball is far over the vertex cap: the refusal
# must come at once, without counting the ball's vertices
HUGE_RADIUS = "1000000000"
OVER_CAP = f"ball of radius {HUGE_RADIUS} for k=2 has more than 10000000 vertices, cap is 10000000"


def _fields_list(bad):
    return "[" + ", ".join(["0"] * 4 + [bad] + ["0"] * 4) + "]"


def _fields_map(bad):
    entries = (f'"{i},{j}": {bad if (i, j) == (1, 2) else 0}' for i in range(3) for j in range(3))
    return "{" + ", ".join(entries) + "}"


# fields files with one bad entry, written beside fields.json per test: at
# index 4 of a list, or at state 1,2 of a state map
BAD_FIELDS = {
    "null.json": _fields_list("null"),
    "list.json": _fields_list("[0]"),
    "object.json": _fields_map("{}"),
    "bool.json": _fields_list("true"),
    "nan.json": _fields_list("NaN"),
    "infinity.json": _fields_map("-Infinity"),
    "overflow.json": _fields_list("1e400"),
}

# (id, edit of the derived STANDARD system file or None, argv, environment,
# text the error message must hold)
BAD_INPUTS = [
    ("unknown-state", _drop_state, ["solve", "--theta", "0.8"], {}, "unknown state '2,2'"),
    ("negative-count", _set_count(-1), ["solve", "--theta", "0.8"], {}, "not a non-negative integer"),
    ("fractional-count", _set_count(0.5), ["solve", "--theta", "0.8"], {}, "not a non-negative integer"),
    ("row-sum", _set_count(6), ["solve", "--theta", "0.8"], {}, "sums to 7, expected k=2"),
    ("compat-missing-state", _only_state_0_0, ["compat", "--theta", "0.8", "--n", "2", "--fields", "fields.json"],
     {}, "the system has no state 2,1, where outer vertex a1.a2 lands"),
    # --starts sends the row to the bounded child process
    ("system-file-over-cap", _states_over_table_cap, ["solve", "--theta", "0.8", "--starts", "1"], {},
     "system for k=2, s=1250 has 5000 states, a table of 25000000 counts, cap is 10000000"),
    ("range-zero-step", None, SWEEP + ["0.3:0.5:0"], {}, "step > 0"),
    ("range-negative-step", None, SWEEP + ["0.3:0.5:-0.1"], {}, "step > 0"),
    ("range-reversed", None, SWEEP + ["0.5:0.3:0.1"], {}, "lo <= hi"),
    ("range-too-fine", None, SWEEP + ["0.1:0.9:1e-9"], {}, "more than 10000 points"),
    ("range-two-parts", None, SWEEP + ["0.3:0.5"], {}, "lo:hi:step"),
    ("range-infinite", None, SWEEP + ["0.3:inf:0.1"], {}, "finite"),
    ("range-text", None, SWEEP + ["0.1:abc:0.1"], {}, "--range lo:hi:step must be numbers, got '0.1:abc:0.1'"),
    ("solve-starts-over-cap", None, ["solve", "--spec", STANDARD, "--theta", "0.8", "--starts", "100001"],
     {}, "more than 100000"),
    ("sweep-starts-over-cap", None, ["sweep", "--spec", STANDARD, "--thetas", "0.8", "--starts", "1000000000"],
     {}, "more than 100000"),
    ("solve-starts-negative", None, ["solve", "--spec", STANDARD, "--theta", "0.8", "--starts", "-1"],
     {}, "--starts must be >= 0, got -1"),
    ("sweep-starts-negative", None, ["sweep", "--spec", STANDARD, "--thetas", "0.8", "--starts", "-1"],
     {}, "--starts must be >= 0, got -1"),
    ("solve-seed-negative", None, ["solve", "--spec", STANDARD, "--theta", "0.8", "--seed", "-1"],
     {}, "--seed must be >= 0, got -1"),
    ("sweep-thetas-empty", None, ["sweep", "--spec", STANDARD, "--thetas", ","], {},
     "--thetas needs at least one value"),
    ("sweep-thetas-text", None, ["sweep", "--spec", STANDARD, "--thetas", "abc"], {},
     "--thetas must be comma-separated numbers, got 'abc'"),
    ("sweep-thetas-too-many", None, ["sweep", "--spec", STANDARD, "--thetas", ",".join(["0.5"] * 10001)], {},
     "--thetas has 10001 values, more than 10000"),
    # the compat threshold, Newton's tolerance and the exact path's system are constants
    ("compat-tol-negative", None, COMPAT + ["--tol", "-1"], {}, "unrecognized arguments: --tol -1"),
    ("compat-tol-nan", None, COMPAT + ["--tol", "nan"], {}, "unrecognized arguments: --tol nan"),
    ("compat-fields-null", None, COMPAT[:-1] + ["null.json"], {}, "field 4 is None, not a finite number"),
    ("compat-fields-list", None, COMPAT[:-1] + ["list.json"], {}, "field 4 is [0], not a finite number"),
    ("compat-fields-object", None, COMPAT[:-1] + ["object.json"], {},
     "field of state 1,2 is {}, not a finite number"),
    ("compat-fields-bool", None, COMPAT[:-1] + ["bool.json"], {}, "field 4 is True, not a finite number"),
    ("compat-fields-nan", None, COMPAT[:-1] + ["nan.json"], {}, "field 4 is nan, not a finite number"),
    ("compat-fields-infinity", None, COMPAT[:-1] + ["infinity.json"], {},
     "field of state 1,2 is -inf, not a finite number"),
    ("compat-fields-overflow", None, COMPAT[:-1] + ["overflow.json"], {}, "field 4 is inf, not a finite number"),
    ("compat-over-digit-limit", None, HUGE_COMPAT, {},
     "2^9006002 configurations have 2711077 digits, over the 4300-digit limit for printing an int"),
    ("compat-n13-over-digit-limit", None, COMPAT + ["--n", "13"], {},
     "2^24574 configurations have 7398 digits, over the 4300-digit limit for printing an int"),
    ("compat-n-below-2", None, COMPAT + ["--n", "1"], {}, "compatibility needs n >= 2, got 1"),
    ("solve-tol-too-large", None, ["solve", "--spec", STANDARD, "--theta", "0.7", "--tol", "1e-10"],
     {}, "unrecognized arguments: --tol 1e-10"),
    ("solve-tol-nonpositive", None, ["solve", "--spec", STANDARD, "--theta", "0.7", "--tol", "0"],
     {}, "unrecognized arguments: --tol 0"),
    ("poly-spec", None, ["poly", "--theta", "0.8", "--spec", STANDARD], {},
     f"unrecognized arguments: --spec {STANDARD}"),
    ("poly-system", None, ["poly", "--theta", "0.8", "--system", "system.json"], {},
     "unrecognized arguments: --system system.json"),
    # 3(2s+1) = 603 states, so 603**3 multiply-adds for one start's Jacobian
    ("solve-states-over-cap", None,
     ["solve", "--spec", "{k:2,s:100,A1:[1],A2:[2]}", "--theta", "0.8", "--starts", "1"], {},
     "Newton on 603 states takes 219256227 multiply-adds per Jacobian, cap is 10000000"),
    ("max-ball-text", None, BALL, {"CAYLEYGIBBS_MAX_BALL": "abc"}, "CAYLEYGIBBS_MAX_BALL"),
    ("max-ball-zero", None, BALL, {"CAYLEYGIBBS_MAX_BALL": "0"}, "CAYLEYGIBBS_MAX_BALL"),
    ("max-ball-negative", None, BALL, {"CAYLEYGIBBS_MAX_BALL": "-3"}, "CAYLEYGIBBS_MAX_BALL"),
    ("ball-over-cap", None, BALL, {"CAYLEYGIBBS_MAX_BALL": "5"}, "cap is 5"),
    ("invariance-over-cap", None, ["invariance", "--spec", "{k:4,s:2,A1:[1],A2:[3]}", "--radius", "6"],
     {"CAYLEYGIBBS_MAX_BALL": "5"}, "cap is 5"),
    # the k=2, s=1 system has 9 states, so a dense table of 81 counts
    ("derive-over-cap", None, ["derive", "--spec", STANDARD], {"CAYLEYGIBBS_MAX_BALL": "80"},
     "system for k=2, s=1 has 9 states, a table of 81 counts, cap is 80"),
    ("derive-s-over-cap", None, ["derive", "--spec", "{k:2,s:100000,A1:[1],A2:[2]}"], {},
     "has 600003 states, a table of 360003600009 counts, cap is 10000000"),
    # the k=4 ball of radius 6 has 6826 words, so 46,594,276 pairs
    ("oracle-over-cap", None, ["oracle", "--spec", "{k:4,s:1,A1:[1],A2:[2]}", "--radius", "6"], {},
     "compares 46594276 pairs, cap is 10000000"),
    ("ball-huge-radius", None, ["ball", "--k", "2", "--radius", HUGE_RADIUS], {}, OVER_CAP),
    ("ball-line-huge-radius", None, ["ball", "--k", "1", "--radius", HUGE_RADIUS], {},
     f"ball of radius {HUGE_RADIUS} for k=1 has 2000000001 vertices, cap is 10000000"),
    ("invariance-huge-radius", None, ["invariance", "--spec", STANDARD, "--radius", HUGE_RADIUS], {}, OVER_CAP),
    ("classes-huge-radius", None, ["classes", "--spec", STANDARD, "--radius", HUGE_RADIUS], {}, OVER_CAP),
    # 2s + 1 = 1,000,000,001 classes, none of them built before the ball is refused
    ("classes-huge-s", None, ["classes", "--spec", "{k:2,s:500000000,A1:[1],A2:[2]}", "--radius", HUGE_RADIUS], {},
     OVER_CAP),
    ("oracle-huge-radius", None, ["oracle", "--spec", STANDARD, "--radius", HUGE_RADIUS], {}, OVER_CAP),
    # 2s + 1 = 200,000,001 counts, refused before any is built
    ("qvec-huge-s", None, ["qvec", "--spec", "{k:2,s:100000000,A1:[1],A2:[2]}", "--word", "e"], {},
     "a neighbor count vector for s=100000000 has 200000001 classes, cap is 10000000"),
    ("draw-huge-radius", None, ["draw", "--spec", STANDARD, "--radius", HUGE_RADIUS], {}, OVER_CAP),
    ("compat-huge-n", None, COMPAT + ["--n", HUGE_RADIUS], {}, OVER_CAP),
    ("spec-text-k", None, ["label", "--word", "e", "--spec", '{k:"2",s:1,A1:[1],A2:[2]}'], {},
     "k and s must be integers"),
    ("spec-scalar-set", None, ["label", "--word", "e", "--spec", "{k:2,s:1,A1:1,A2:[2]}"], {},
     "must be lists"),
    ("spec-float-letter", None, ["label", "--word", "a1", "--spec", "{k:2,s:1,A1:[1.0],A2:[2]}"], {},
     "A1 and A2 letters must be integers, got A1=[1.0], A2=[2]"),
    ("spec-bool-letter", None, ["derive", "--spec", "{k:2,s:1,A1:[true],A2:[2]}"], {},
     "A1 and A2 letters must be integers, got A1=[True], A2=[2]"),
    ("derive-radius", None, ["derive", "--spec", STANDARD, "--radius", "-1"], {},
     "unrecognized arguments: --radius -1"),
    ("derive-rep-cap", None, ["derive", "--spec", STANDARD, "--rep-cap", "3"], {},
     "unrecognized arguments: --rep-cap 3"),
]


def _run_subprocess(argv, env):
    """The CLI in a child process, with a timeout and a 2 GiB address-space cap.

    A grid that never ends would hang and grow a list, an uncapped
    --starts would draw and iterate that many starts, an uncapped oracle
    would compare pairs for hours, an uncapped derive would build a
    table quadratic in s, an unbounded solve would run Newton cubic in
    the number of states, a compat that built its ball before checking
    the digit limit would take gigabytes, a ball count linear in the
    radius would run for minutes, and an unbounded qvec would build 2s+1
    counts, so the child is bounded in time and memory rather than run in
    process.
    """
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cayleygibbs.__file__).resolve().parents[1])
    child_env = {**os.environ, **env, "OPENBLAS_NUM_THREADS": "1"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cayleygibbs.cli", *argv],
        env=child_env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )


@pytest.mark.parametrize(
    "edit, argv, env, message", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exits_1_with_message(capsys, monkeypatch, tmp_path, edit, argv, env, message):
    (tmp_path / "fields.json").write_text(json.dumps({f"{i},{j}": 0.0 for i in range(3) for j in range(3)}))
    for name, text in BAD_FIELDS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    if edit is not None:
        doc = json.loads(derive_system(SubgroupSpec.from_json(STANDARD)).to_json())
        edit(doc)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--system", str(path)]
    bounded = "--range" in argv or "--starts" in argv or HUGE_RADIUS in argv
    if bounded or argv[0] in ("oracle", "derive", "qvec") or argv == HUGE_COMPAT:
        done = _run_subprocess(argv, env)
        code, err = done.returncode, done.stderr
    else:
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line itself
            code = exc.code
        err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert "Traceback" not in err


def test_derive_at_a_huge_k_allocates_nothing_of_size_k():
    # k + 1 = 100,000,001 letters: the spec checks its letters by comparison
    # and counts A0 as k + 1 - |A1| - |A2|, within the child's 2 GiB
    done = _run_subprocess(["derive", "--spec", "{k:100000000,s:1,A1:[1],A2:[2]}"], {})
    assert done.returncode == 0
    assert '"0,0": 99999998' in done.stdout


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path):
    # main builds its parser once per process; a usage error, then compat
    # and solve on that parser, read as they do on fresh parsers
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fields.json").write_text(json.dumps([0.0] * 9))
    calls = [["nonsense"], COMPAT + ["--n", "3"], ["solve", "--spec", STANDARD, "--theta", "0.8", "--starts", "5"]]

    def outcomes(fresh):
        build_parser.cache_clear()
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes(fresh=False)
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert shared == outcomes(fresh=True)
    assert build_parser() is build_parser()
