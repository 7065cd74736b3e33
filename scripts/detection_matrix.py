#!/usr/bin/env python3
"""Detection baseline: how many known blurs the search finds, and whether it
ever accepts a blur in a sharp image.

The matrix searches ``convolve(synth_image(N, N, s), synth_blur(m, n, 1000 +
s))`` as an m x n blur at ``base_phase`` 0.3 and the given phase step, for
seeds s = 12-15, N in {40, 64} and the 16 sizes from 2x2 to 5x5: 128
searches, named seed-size-N (``13-4x4-40``).  A search finds its blur when
it accepts a kernel within 1e-9 of the unit-sum truth.  The negative
controls search the sharp images ``synth_image(40, 40, s)``, s = 12-15, as
2x2, 2x3, 3x3, 4x4, 4x5 and 5x5 (24 searches, named ``sharp-12-2x2``); none
may accept.

Prints found/total with the misses, the worst kernel error of a found
search, the largest accepted sigma gap and the smallest sigma gap of a wrong
evaluated combination (any combination but the accepted one), and how many
controls accepted.  ``--json`` writes each search's accepted combination and
kernel; ``--compare A.json B.json`` lists the searches whose accepted
combinations differ between two such files and the largest difference of
their kernels, and exits 1 when any combination differs.

Usage:
    python scripts/detection_matrix.py [--step 0.32] [--json OUT.json]
                                       [--only NAME,NAME,...]
    python scripts/detection_matrix.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from zerosheet import SearchConfig, convolve, matrix_from_image, search_image, synth_blur, synth_image

SEEDS = (12, 13, 14, 15)
IMAGE_SIZES = (40, 64)
BLUR_SIZES = [(m, n) for m in range(2, 6) for n in range(2, 6)]
CONTROL_SIZES = [(2, 2), (2, 3), (3, 3), (4, 4), (4, 5), (5, 5)]
FOUND_TOL = 1e-9


def searches() -> list[tuple[str, int, int, int, int, bool]]:
    """(name, seed, image size, m, n, control) per search, the matrix first,
    then the negative controls."""
    out = [(f"{s}-{m}x{n}-{size}", s, size, m, n, False)
           for m, n in BLUR_SIZES for size in IMAGE_SIZES for s in SEEDS]
    out += [(f"sharp-{s}-{m}x{n}", s, 40, m, n, True) for s in SEEDS for m, n in CONTROL_SIZES]
    return out


def run(step: float, only: set[str] | None) -> dict:
    """Each search's record, keyed by name: accepted combination and kernel,
    its error against the truth, sigma gaps and time."""
    records = {}
    for name, s, size, m, n, control in searches():
        if only is not None and name not in only:
            continue
        image, truth = synth_image(size, size, s), None
        if not control:
            blur = synth_blur(m, n, 1000 + s)
            image, truth = convolve(image, blur), matrix_from_image(blur)
            truth = truth / truth.sum()
        cfg = SearchConfig(blur_m=m, blur_n=n, base_phase=0.3, phase_step=step)
        t0 = time.perf_counter()
        rep = search_image(image, cfg)
        seconds = time.perf_counter() - t0
        best = rep.best
        chosen = None if best is None else best.combination
        wrong = [c.sigma_gap for c in rep.candidates if c.combination != chosen]
        error = None if best is None or control else float(np.max(np.abs(best.h - truth)))
        records[name] = {
            "control": control,
            "combination": None if best is None else [int(i) for i in best.combination],
            "kernel": None if best is None else best.h.tolist(),
            "kernel_error": error,
            "found": error is not None and error <= FOUND_TOL,
            "sigma_gap": None if best is None else float(best.sigma_gap),
            "min_wrong_sigma_gap": min(wrong) if wrong else None,
            "seconds": seconds,
        }
    return records


def extreme(records: dict, key: str, pick, fmt: str = ".2e", unit: str = "") -> str:
    """The ``pick`` (max or min) of one field over the records, with the
    search it came from."""
    values = {name: r[key] for name, r in records.items() if r[key] is not None}
    if not values:
        return "none"
    name = pick(values, key=values.get)
    return f"{values[name]:{fmt}}{unit} ({name})"


def summarize(records: dict, step: float) -> None:
    matrix = {k: r for k, r in records.items() if not r["control"]}
    controls = {k: r for k, r in records.items() if r["control"]}
    if matrix:
        found = sum(r["found"] for r in matrix.values())
        seconds = sum(r["seconds"] for r in matrix.values())
        print(f"matrix at step {step:g}: found {found}/{len(matrix)} in {seconds:.1f} s "
              f"(slowest {extreme(matrix, 'seconds', max, '.2f', ' s')})")
        misses = [k for k, r in matrix.items() if not r["found"]]
        print(f"misses: {', '.join(misses) if misses else 'none'}")
        found_only = {k: r for k, r in matrix.items() if r["found"]}
        print(f"worst kernel error of a found search: {extreme(found_only, 'kernel_error', max)}")
        print(f"largest accepted sigma gap: {extreme(matrix, 'sigma_gap', max)}; "
              f"smallest wrong sigma gap: {extreme(matrix, 'min_wrong_sigma_gap', min)}")
    if controls:
        accepted = [k for k, r in controls.items() if r["combination"] is not None]
        seconds = sum(r["seconds"] for r in controls.values())
        print(f"negative controls: {len(accepted)}/{len(controls)} accepted in {seconds:.1f} s"
              + (f": {', '.join(accepted)}" if accepted else ""))


def compare(a_path: Path, b_path: Path) -> int:
    """Print the searches whose accepted combinations differ and the largest
    kernel difference; 1 when any combination differs."""
    a = json.loads(a_path.read_text())["searches"]
    b = json.loads(b_path.read_text())["searches"]
    differ = [name for name in dict.fromkeys([*a, *b])
              if name not in a or name not in b or a[name]["combination"] != b[name]["combination"]]
    diffs = [float(np.max(np.abs(np.subtract(a[k]["kernel"], b[k]["kernel"]))))
             for k in a if k in b and k not in differ and a[k]["kernel"] is not None]
    print(f"{len(dict.fromkeys([*a, *b]))} searches, {len(differ)} combinations differ"
          + (f": {', '.join(differ)}" if differ else ""))
    print(f"largest kernel difference: {max(diffs):.2e}" if diffs
          else "largest kernel difference: no kernel in both")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--step", type=float, default=0.32, help="phase step of every search")
    ap.add_argument("--json", type=Path, help="write each search's combination and kernel here")
    ap.add_argument("--only", help="comma-separated search names to run (default: all)")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                    help="compare two --json files instead of searching")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    only = None if args.only is None else set(args.only.split(","))
    unknown = sorted((only or set()) - {spec[0] for spec in searches()})
    if unknown:
        ap.error(f"no search named {', '.join(unknown)}")
    records = run(args.step, only)
    summarize(records, args.step)
    if args.json:
        args.json.write_text(json.dumps({"step": args.step, "searches": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
