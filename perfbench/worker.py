"""One workload in one fresh process: set up, run timed rounds, check outputs.

Run by ``run.py``; prints one JSON line.  ``--setup-only`` stops after the
set-up and reports its time.  ``--trace 1`` runs the rounds untraced for
half the time, then the same rounds again with spans installed, and
reports the per-layer figures of one set-up plus one round.

Every time is reported twice: as measured (``raw``) and scaled to the
reference host speed by the probes in ``calibrate.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

SETUP_PROBE_REPS = 5


def run_rounds(workload, seconds=None, rounds=None, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed (at least one), or exactly ``rounds``.

    A host-speed probe runs before the first operation and after each one;
    an operation's scaled time uses the mean of the probes on either side.
    """
    import calibrate

    raw_rounds, rounds_s, raw_ops, ops_s, errors = [], [], [], [], []
    layer_s = {}  # per-layer self times, scaled like the operation they fell in
    attempted = failed = 0
    start = perf_counter()
    before = calibrate.probe(workload.probe)
    r = 0
    while (r < rounds) if rounds is not None else (r == 0 or perf_counter() - start < seconds):
        raw_total = total = 0.0
        for op in workload.round(r):
            attempted += 1
            mark = tracer.snapshot() if tracer else None
            t = perf_counter()
            try:
                with tracer.span(f"op.{workload.name}") if tracer else nullcontext():
                    out = op.run()
                error = None
            except Exception as exc:  # the operation failed; count it and go on
                error = exc
            dt = perf_counter() - t
            after = calibrate.probe(workload.probe)
            factor = calibrate.scale(workload.probe, (before + after) / 2)
            scaled = dt * factor
            before = after
            if tracer:
                _add_scaled(layer_s, mark, tracer.snapshot(), factor)
            raw_total += dt
            total += scaled
            if error is not None:
                failed += 1
                print(f"{workload.name} round {r}: operation failed: {error!r}", file=sys.stderr)
                continue
            raw_ops.append(dt)
            ops_s.append(scaled)
            with tracer.paused() if tracer else nullcontext():
                errors += op.check(out)
        raw_rounds.append(raw_total)
        rounds_s.append(total)
        r += 1
    return {
        "round_s": rounds_s,
        "op_s": ops_s,
        "raw_round_s": raw_rounds,
        "raw_op_s": raw_ops,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layer_s": layer_s,
    }


def _add_scaled(into: dict, before: dict, after: dict, factor: float) -> None:
    from tracer import TIME_METRICS

    for m in TIME_METRICS:
        into[m] = into.get(m, 0.0) + (after[m] - before[m]) * factor


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        import calibrate  # does not import numpy

        probe_before = calibrate.probe("python", SETUP_PROBE_REPS)
        t0 = perf_counter()
        import cayleygibbs  # import time is part of set-up

        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        workload.setup()
        raw_setup = perf_counter() - t0
        probe_after = calibrate.probe("python", SETUP_PROBE_REPS)
        setup = {
            "raw_setup_s": raw_setup,
            "setup_s": raw_setup * calibrate.scale("python", (probe_before + probe_after) / 2),
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = dict(setup, package=os.path.dirname(cayleygibbs.__file__))
        setup_errors = workload.check_setup()
        if not args.trace:
            result.update(run_rounds(workload, seconds=args.seconds))
        else:
            result.update(traced(workload, args))
        result["errors"] = setup_errors + result["errors"]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def traced(workload, args) -> dict:
    """Untraced rounds, then the same rounds traced; per-layer figures and overhead."""
    from tracer import METRICS, PEAK_METRICS, TIME_METRICS, Tracer

    plain = run_rounds(workload, seconds=args.seconds / 2)
    n = len(plain["round_s"])
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        import calibrate

        start = tracer.snapshot()
        probe_before = calibrate.probe("python", SETUP_PROBE_REPS)
        with tracer.span("setup"):
            workload.setup()
        probe_after = calibrate.probe("python", SETUP_PROBE_REPS)
        after_setup = tracer.snapshot()
        setup_s = {}
        _add_scaled(setup_s, start, after_setup, calibrate.scale("python", (probe_before + probe_after) / 2))
        spanned = run_rounds(workload, rounds=n, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    total = tracer.snapshot()
    per_layer = {}
    for m in METRICS:
        if m in PEAK_METRICS:
            per_layer[m] = total[m]
        elif m in TIME_METRICS:
            per_layer[m] = setup_s[m] + spanned["layer_s"][m] / n
        else:
            per_layer[m] = after_setup[m] + (total[m] - after_setup[m]) / n
    overhead = statistics.median([t / u for t, u in zip(spanned["round_s"], plain["round_s"])]) - 1.0
    if args.trace_file:
        tracer.write(
            args.trace_file,
            {"workload": workload.name, "seed": args.seed, "rounds": n,
             "overhead": overhead, "per_layer": per_layer},
        )
    merged = {key: plain[key] + spanned[key] for key in plain if key != "layer_s"}
    merged.update(
        per_layer=per_layer,
        overhead=overhead,
        untraced_round_s=statistics.median(plain["round_s"]),
        traced_round_s=statistics.median(spanned["round_s"]),
    )
    return merged


if __name__ == "__main__":
    sys.exit(main())
