#!/usr/bin/env python3
"""Measure how the detection statistic separates true from wrong candidates
as the sample-point spacing grows.

For a synthetic image convolved with one known blur, runs the search at a
range of phase steps and prints, per step: the true combination's sigma_gap,
the smallest wrong sigma_gap among evaluated candidates, and the number of
combinations that failed tracking.  The ratio of the two columns is the
detector's working margin.

The search stops refining after the first halving level that accepts a
candidate, so at a step where the blur is found, "trackfail" also counts
combinations that would only have tracked at a deeper level, and the wrong
candidates are only those that tracked at the accepting level or a coarser
one.  At a step where nothing is accepted, every level is walked.

Usage:
    python scripts/selectivity_study.py [--seed 3] [--size 16x16]
                                        [--blur 2x2] [--steps 0.01,0.05,...]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from zerosheet import (
    SearchConfig,
    convolve,
    search_blur,
    slice_roots,
    synth_blur,
    synth_image,
    unit_point,
    ztransform,
)


def parse_size(text):
    m, n = (int(t) for t in text.lower().split("x"))
    return m, n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--size", type=parse_size, default=(16, 16))
    ap.add_argument("--blur", type=parse_size, default=(2, 2))
    ap.add_argument("--steps", default="0.01,0.02,0.05,0.1,0.2,0.32")
    ap.add_argument("--base-phase", type=float, default=0.3)
    args = ap.parse_args()

    w, h = args.size
    m, n = args.blur
    truth = synth_image(w, h, args.seed)
    blur = synth_blur(m, n, args.seed + 977)
    observed = convolve(truth, blur)
    P = ztransform(observed)

    u0 = unit_point(args.base_phase)
    blur_roots = slice_roots(ztransform(blur), u0).roots
    base_roots = slice_roots(P, u0).roots
    true_combo = tuple(
        sorted(int(np.argmin(np.abs(base_roots - r))) for r in blur_roots)
    )
    print(f"image {observed.width}x{observed.height}, blur {m}x{n}, "
          f"true combination {true_combo}")
    print(f"{'step':>6} {'true gap':>10} {'min wrong':>10} {'margin':>9} "
          f"{'evaluated':>9} {'trackfail':>9}")

    for step in (float(t) for t in args.steps.split(",")):
        cfg = SearchConfig(blur_m=m, blur_n=n, base_phase=args.base_phase,
                           phase_step=step)
        rep = search_blur(P, cfg)
        true_cands = [c for c in rep.candidates if c.combination == true_combo]
        wrong = [c.sigma_gap for c in rep.candidates if c.combination != true_combo]
        tg = true_cands[0].sigma_gap if true_cands else float("nan")
        mw = min(wrong) if wrong else float("nan")
        margin = mw / tg if true_cands and wrong else float("nan")
        print(f"{step:>6} {tg:>10.2e} {mw:>10.2e} {margin:>9.1e} "
              f"{len(rep.candidates):>9} {rep.tracking_failures:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
