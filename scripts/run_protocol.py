#!/usr/bin/env python3
"""End-to-end experiment: convolve three blurs into a synthetic image and
remove them one by one, comparing every recovered kernel and the final
image against ground truth.

The phase step defaults to 0.32 rad: wide sample spacing is what separates
wrong root combinations from genuine blur sheets by orders of magnitude in
the rank test (at narrow spacing every smooth root branch looks locally
like a small blur's sheet).

Usage:
    python scripts/run_protocol.py [--seed 12] [--size 40x40] [--sizes 2x2,2x3,3x3]
                                   [--phase-step 0.32] [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from zerosheet import (
    SearchConfig,
    convolve,
    matrix_from_image,
    pipeline,
    save_csv,
    synth_blur,
    synth_image,
)


def parse_size(text: str) -> tuple[int, int]:
    m, n = (int(t) for t in text.lower().split("x"))
    return m, n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--size", type=parse_size, default=(40, 40))
    ap.add_argument("--sizes", default="2x2,2x3,3x3")
    ap.add_argument("--phase-step", type=float, default=0.32)
    ap.add_argument("--base-phase", type=float, default=0.3)
    ap.add_argument("--out", default=None, help="optionally dump CSVs here")
    args = ap.parse_args()

    sizes = [parse_size(t) for t in args.sizes.split(",")]
    width, height = args.size

    truth = synth_image(width, height, args.seed)
    blurs = [synth_blur(m, n, args.seed + 1000 * i) for i, (m, n) in enumerate(sizes, 1)]
    observed = truth
    for blur in blurs:
        observed = convolve(observed, blur)
    print(f"true image {truth.width}x{truth.height}, observed {observed.width}x{observed.height}")

    cfg = SearchConfig(
        blur_m=sizes[0][0],
        blur_n=sizes[0][1],
        phase_step=args.phase_step,
        base_phase=args.base_phase,
    )
    t0 = time.perf_counter()
    result = pipeline(observed, sizes, cfg)
    elapsed = time.perf_counter() - t0

    for i, stage in enumerate(result.stages, 1):
        rep = stage.report
        true_h = matrix_from_image(blurs[i - 1])
        true_h = true_h / true_h.sum()
        err = float(np.max(np.abs(stage.candidate.h - true_h)))
        wrong = [c.sigma_gap for c in rep.candidates if not c.accepted]
        print(
            f"stage {i}: {rep.blur_m}x{rep.blur_n}  q={rep.q}  "
            f"combos={rep.combinations_evaluated}/{rep.combinations_total}  "
            f"track_fail={rep.tracking_failures}"
        )
        print(
            f"  accepted {stage.candidate.combination}  "
            f"sigma_gap={stage.candidate.sigma_gap:.3e}  "
            f"realness={stage.candidate.realness:.3e}"
        )
        print(
            f"  blur max-abs error vs truth: {err:.3e}   "
            f"forward residual: {stage.restoration.forward_residual:.3e}   "
            f"worst wrong sigma_gap margin: {min(wrong) if wrong else float('nan'):.3e}"
        )

    if not result.ok:
        print(f"FAILED at stage {result.failed_stage}")
        return 1

    final = result.final_image
    a = final.pixels / final.pixels.sum()
    b = truth.pixels / truth.pixels.sum()
    print(f"final image {final.width}x{final.height}, "
          f"unit-sum max-abs error vs truth: {np.max(np.abs(a - b)):.3e}")
    print(f"total wall time {elapsed:.2f}s")

    if args.out:
        from pathlib import Path

        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        save_csv(truth, outdir / "true.csv")
        save_csv(observed, outdir / "observed.csv")
        save_csv(final, outdir / "final.csv")
        print(f"wrote CSVs to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
