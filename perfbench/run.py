"""Benchmark entry point for dafm: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit --seed 0 --seconds 35 --trace 0

The run repeats whole rounds for about ``--seconds``.  Each round
sets the workload's inputs up from the seed several times, then makes the
workload's calls once, and checks the output.  A fixed reference loop is
timed right before and right after, and the round's set-up and call times
are scaled to the machine speed at which that loop takes
``calibrate.REFERENCE_S``.  ``setup_s`` is the median over rounds of the
scaled mean set-up time, ``wall_s`` the median scaled round.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details go to
``perfbench/out/``; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import os

# One BLAS thread: the subproblems are tiny, and a single thread keeps the
# load at one core of the two this benchmark is tuned on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _import_program():
    """Import dafm from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "dafm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dafm sources under {src}")
    sys.path.insert(0, str(src))
    import dafm

    if Path(dafm.__file__).resolve().parent != (src / "dafm").resolve():
        sys.exit(f"perfbench: imported dafm from {dafm.__file__}, not from {src}")
    return dafm


def _blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _timed_setup(workload, seed):
    """Set the inputs up ``workload.setup_repeats`` times; return them and
    the mean time."""
    t0 = time.perf_counter()
    for _ in range(workload.setup_repeats):
        inputs = workload.setup(seed)
    return inputs, (time.perf_counter() - t0) / workload.setup_repeats


def _round(workload, inputs):
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        outcome = workload.run(inputs)
        elapsed = time.perf_counter() - t0
    return outcome, elapsed, len(caught)


def main():
    import calibrate
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="dafm benchmark: one workload, one seed.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from layers import PROBES
        from tracing import Tracer

        tracer = Tracer()

    # Each round first sets the inputs up setup_repeats times, timed as one
    # batch (one set-up sample per round), so set-up samples are spread over
    # the whole run and one cold-cache set-up after a round is averaged in.
    # The reference loop is timed, untraced, right before the set-ups and
    # right after the round; the round's set-up and round times are scaled
    # by the mean of the two (see calibrate.py), and the medians are taken
    # over the scaled times.  A round's output is checked after that and then
    # dropped, so memory does not grow with the number of rounds; the peak
    # resident set is read after the first round, before any check runs.
    rounds = []  # (traced, scaled seconds, warnings, output summary)
    setup_times, errors = [], []
    raw = {"round_s": [], "setup_s": [], "reference_s": []}
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        before = calibrate.measure()
        if traced:
            tracer.install(PROBES)
        try:
            inputs, setup_s = _timed_setup(workload, args.seed)
            outcome, elapsed, n_warn = _round(workload, inputs)
        finally:
            if traced:
                tracer.uninstall()
        after = calibrate.measure()
        scale = calibrate.REFERENCE_S / ((before + after) / 2)
        raw["round_s"].append(elapsed)
        raw["setup_s"].append(setup_s)
        raw["reference_s"].append((before, after))
        captured = None
        if traced:
            captured = tracer.take_captured()
        else:
            setup_times.append(setup_s * scale)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors += workload.check(inputs, outcome, captured)
        attempted += outcome.attempted
        failed += outcome.failed
        rounds.append((traced, elapsed * scale, n_warn, workload.summary(outcome)))
        # Stop before a round that would likely end past --seconds, so a run
        # lasts about --seconds whatever the round length.
        spent = time.perf_counter() - start
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and spent * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    plain = [t for traced, t, _, _ in rounds if not traced]
    if args.trace:
        from layers import layer_metrics

        traced_times = [t for traced, t, _, _ in rounds if traced]
        metrics = layer_metrics(tracer, rounds=len(traced_times),
                                setups=workload.setup_repeats * len(traced_times))
        metrics["trace.overhead_s"] = (
            statistics.median(traced_times) - statistics.median(plain), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        round_s=[r[1] for r in rounds], round_traced=[r[0] for r in rounds],
        round_warnings=[r[2] for r in rounds], setup_s=setup_times,
        raw=raw, reference_loop_s=calibrate.REFERENCE_S,
        outputs=[r[3] for r in rounds],
        errors=errors[:50], blas=_blas_info(), blas_threads=1, nproc=os.cpu_count(),
        python=sys.version.split()[0],
    )
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"trace-{stem}.json", extra={"workload": args.workload})
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
