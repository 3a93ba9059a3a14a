"""Benchmark of cayleygibbs: one workload per call, timed from outside the program.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Set-up is measured in several fresh processes and
reported as their median; the timed rounds run in one more fresh,
single-threaded process.  Every operation's output is checked against
references computed in ``reference.py``.  The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Results and traces are written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cayleygibbs"
OUT = HERE / "out"

SETUP_SAMPLES = 4  # set-up-only processes, on top of the one that runs the rounds
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _worker(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no cayleygibbs sources at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tag = f"{run_name}-pid{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            _worker(common + ["--setup-only", "--workdir", str(OUT / f"work-{tag}-{i}")], deadline)
            for i in range(SETUP_SAMPLES)
        ]
        argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--workdir", str(OUT / f"work-{tag}")]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        if args.trace:
            argv += ["--trace-file", str(trace_file)]
        run = _worker(argv, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    if Path(run["package"]).resolve() != PACKAGE.resolve():
        print(f"imported cayleygibbs from {run['package']}, not {PACKAGE}", file=sys.stderr)
        return 1

    for error in run["errors"][:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    setups.append(run)
    if args.trace:
        from tracer import METRICS

        metrics = {name: {"value": run["per_layer"][name], "unit": unit} for name, unit in METRICS.items()}
        print(
            f"trace overhead: {100 * run['overhead']:+.1f}% per round "
            f"({run['traced_round_s']:.4f} s traced vs {run['untraced_round_s']:.4f} s untraced); "
            f"spans in {trace_file.relative_to(ROOT)}"
        )
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(run["round_s"]),
            "op_p50_s": statistics.median(run["op_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        raw = {
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "wall_s": statistics.median(run["raw_round_s"]),
            "op_p50_s": statistics.median(run["raw_op_s"]),
        }
        print(
            f"{args.workload} seed {args.seed}: {len(run['round_s'])} rounds, {run['attempted']} operations; "
            "as measured, before scaling to the reference host speed: "
            + ", ".join(f"{name}={value:.4f}" for name, value in raw.items())
        )
    result = {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{run_name}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
