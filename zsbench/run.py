#!/usr/bin/env python3
"""Closed-loop benchmark of the zerosheet command line.

One process, one client: each operation is one in-process call of
``zerosheet.cli.main`` (``pipeline`` or ``deblur`` at ``--phase-step
0.32``) on a CSV input this benchmark generated, writing the program's usual
outputs to a scratch directory under ``zsbench/_work``.  After each
operation the outputs are checked against the generator's truth.

Usage, from the repository root:

    python3 zsbench/run.py --workload protocol|large|fallback \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads swing the least-squares time on a 2-core machine, so pin them
# to one before numpy loads (it first loads with ``workloads``).  Logging
# stays off: it is not what is measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ZEROSHEET_LOG"] = "off"

import numpy as np  # noqa: E402
from layers import UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, check, negative_control, write_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is timed this many times per run, each in a fresh interpreter.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "kernels_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import the checkout's own ``zerosheet`` with its ``cli``, or exit
    without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import zerosheet.cli
    except ImportError as exc:
        sys.exit(f"zsbench: cannot import zerosheet from {SRC}: {exc}")
    if SRC not in Path(zerosheet.__file__).resolve().parents:
        sys.exit(f"zsbench: imported zerosheet from {zerosheet.__file__}, not from {SRC}")
    return zerosheet


def setup(workload: str, work: Path):
    """Everything before the first operation: imports and the inputs."""
    program = import_program()
    wl = WORKLOADS[workload]
    cases = wl.cases()
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        paths.append(work / f"{case.name}.csv")
        write_csv(case.observed, paths[-1])
    return program, wl, cases, paths


def time_setups(workload: str, work: Path) -> float:
    """Median time from starting a fresh interpreter to its inputs being ready."""
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--setup-only", str(work / f"setup{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"zsbench: set-up child exited {child.returncode}")
    return statistics.median(times)


def run_op(main, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="orders the input list in each round")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.setup_only:
        setup(args.workload, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    import_program()  # fail before any timing when the program is missing
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else time_setups(args.workload, work)
        return measure(args, work, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, setup_s: float | None) -> int:
    program, wl, cases, paths = setup(args.workload, work)
    errors = [f"negative control: {p}" for p in negative_control(cases[0])]
    tracer = None
    op = program.cli.main
    if args.trace:
        tracer = Tracer()
        tracer.install(program)
        op = tracer.wrap("main", op)

    rng = np.random.default_rng(abs(args.seed))
    times: list[float] = []
    kernels = failed = rounds = 0
    worst: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        # Whole rounds over the fixed input list, so the share of failed
        # operations is the same in every run.
        for idx in rng.permutation(len(cases)):
            out = work / f"op{len(times)}"
            try:
                code, elapsed = run_op(op, wl.argv(paths[idx], out))
                outcome = check(wl, cases[idx], code, out)
            except Exception:
                traceback.print_exc()
                errors.append(f"{cases[idx].name}: operation raised")
                return report(args, len(times) + 1, failed + 1, errors, {})
            times.append(elapsed)
            kernels += outcome.kernels
            failed += outcome.failed
            errors.extend(f"{cases[idx].name}: {e}" for e in outcome.errors)
            for key, err in outcome.worst.items():
                worst[key] = max(worst.get(key, 0.0), err)
            if tracer:
                tracer.end_op(out)
            shutil.rmtree(out)
        rounds += 1
        spent = time.perf_counter() - start
        # Stop at the round boundary nearest to --seconds.
        if spent + spent / rounds / 2 > args.seconds:
            break

    worst_text = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    print(f"zsbench: {args.workload}: {rounds} round(s) of {len(cases)} input(s); "
          f"worst errors: {worst_text}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(len(times), statistics.median(times))
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(times),
            "kernels_per_s": kernels / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return report(args, len(times), failed, errors, metrics)


def report(args, attempted, failed, errors, metrics) -> int:
    units = UNITS if args.trace else END_TO_END_UNITS
    for e in errors:
        print(f"zsbench: INCORRECT {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"zsbench: {name} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
