"""Inputs and the correctness checker of the zerosheet benchmark.

Everything here is independent of the program under test: sharp images and
kernels come from numpy's seeded generator, the observed image from the full
2-D convolution below, and every output the program writes is checked
against these truths.  Nothing in this module imports ``zerosheet``.

Conventions follow the program's files: an image array is indexed
``[y, x]`` (rows first), a kernel of size m x n is m wide and n tall, so its
pixel array has shape (n, m), and a kernel CSV holds the (m, n) matrix
``[x, y]`` after an ``m,n`` header line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances sit far from both sides: a recovered kernel (unit sum) is off
# by at most ~4e-9 today and the restored image by ~1e-7 relative, while a
# kernel perturbed by 1e-3 or transposed is off by >= 1e-3 in the kernel and
# in the re-convolution.
KERNEL_TOL = 1e-6
# Restored image, relative to the largest true pixel.
IMAGE_TOL = 1e-5
# Restored image re-convolved with the recovered kernels, relative to the
# largest observed pixel.
RECONV_TOL = 1e-5
# Below this min|H| / max|H| on the DFT grid the kernel counts as vanishing
# there (the program refuses spectral division below 1e-9).
GRID_ZERO_TOL = 1e-12

PHASE_STEP = "0.32"


def convolve(f: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Full linear 2-D convolution: output shape is f.shape + k.shape - 1."""
    fh, fw = f.shape
    kh, kw = k.shape
    out = np.zeros((fh + kh - 1, fw + kw - 1))
    for b in range(kh):
        for a in range(kw):
            out[b : b + fh, a : a + fw] += k[b, a] * f
    return out


def sharp_image(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """Integer pixels in [0, 255], so every observed pixel is exact in binary."""
    return rng.integers(0, 256, size=(height, width)).astype(np.float64)


def positive_kernel(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m wide, n tall, entries k/256 with k in [1, 256]."""
    return rng.integers(1, 257, size=(n, m)) / 256.0


def grid_null_kernel(rng: np.random.Generator) -> np.ndarray:
    """Positive, non-separable 2x2 kernel with h00 + h11 = h10 + h01.

    Its transform vanishes at (u, v) = (-1, -1), a point of every DFT grid
    of even size, so the program must refuse spectral division.  The two
    off-diagonal entries differ, so the kernel is not its own transpose.
    """
    while True:
        a, b, c = (int(x) for x in rng.integers(1, 257, size=3))
        d = a + b - c
        if 1 <= d <= 256 and a * b != c * d and c != d:
            return np.array([[a, c], [d, b]]) / 256.0


def grid_transform_ratio(k: np.ndarray, shape: tuple[int, int]) -> float:
    """min|H| / max|H| of the zero-padded kernel on the DFT grid of ``shape``.

    Evaluates the DFT as explicit sums over the kernel's few taps, not with
    an FFT, so it shares no code path with the program's restoration.
    """
    rows, cols = shape
    kh, kw = k.shape
    ey = np.exp(-2j * np.pi * np.outer(np.arange(rows), np.arange(kh)) / rows)
    ex = np.exp(-2j * np.pi * np.outer(np.arange(kw), np.arange(cols)) / cols)
    mags = np.abs(ey @ k @ ex)
    return float(mags.min() / mags.max())


@dataclass(frozen=True)
class Case:
    """One input: the sharp image, the kernels convolved into it in order,
    and the observed image the program sees."""

    name: str
    sharp: np.ndarray
    kernels: tuple[np.ndarray, ...]
    observed: np.ndarray


def make_case(seed: int, width: int, height: int, sizes, fallback=False) -> Case:
    name = f"s{seed}"
    rng = np.random.default_rng(seed)
    sharp = sharp_image(rng, width, height)
    if fallback:
        kernels = (grid_null_kernel(rng),)
    else:
        kernels = tuple(positive_kernel(rng, m, n) for m, n in sizes)
    observed = sharp
    for k in kernels:
        observed = convolve(observed, k)
    if fallback and grid_transform_ratio(kernels[0], observed.shape) > GRID_ZERO_TOL:
        raise RuntimeError(f"{name}: kernel transform does not vanish on the DFT grid")
    return Case(name, sharp, kernels, observed)


@dataclass(frozen=True)
class Workload:
    command: str  # "pipeline" or "deblur"
    sizes: tuple[tuple[int, int], ...]
    width: int
    height: int
    seeds: tuple[int, ...]
    fallback: bool = False

    def cases(self) -> list[Case]:
        return [make_case(seed, self.width, self.height, self.sizes, self.fallback)
                for seed in self.seeds]

    def argv(self, input_csv: Path, out_dir: Path) -> list[str]:
        sizes = ",".join(f"{m}x{n}" for m, n in self.sizes)
        size_flag = ["--sizes", sizes] if self.command == "pipeline" else ["--blur", sizes]
        return [self.command, "--input", str(input_csv), *size_flag,
                "--phase-step", PHASE_STEP, "--output", str(out_dir)]


# The input list of each workload is fixed: it does not depend on the
# benchmark's --seed, so every run does the same work and the protocol
# inputs that the program fails on are the same in every run.
WORKLOADS = {
    "protocol": Workload("pipeline", ((2, 2), (2, 3), (3, 3)), 40, 40, tuple(range(1, 9))),
    "large": Workload("deblur", ((2, 2),), 127, 127, (1,)),
    "fallback": Workload("deblur", ((2, 2),), 63, 63, (1,), fallback=True),
}


def write_csv(a: np.ndarray, path: Path) -> None:
    path.write_text("\n".join(",".join(format(v, ".17g") for v in row) for row in a) + "\n")


def read_image_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_kernel_csv(path: Path) -> np.ndarray:
    """The (m, n) [x, y] matrix of a kernel CSV, returned as a pixel array."""
    lines = path.read_text().split("\n", 1)
    m, n = (int(t) for t in lines[0].split(","))
    mat = np.loadtxt(lines[1].splitlines(), delimiter=",", ndmin=2)
    if mat.shape != (m, n):
        raise ValueError(f"{path.name}: header {m},{n} but body {mat.shape}")
    return mat.T


@dataclass
class Outcome:
    """What the checker concluded about one operation."""

    kernels: int = 0  # kernels removed and verified correct
    failed: bool = False  # the program reported no kernel although one is present
    errors: list[str] = field(default_factory=list)  # mismatches; empty means correct
    worst: dict[str, float] = field(default_factory=dict)  # largest error of each comparison


def reconv_error(case: Case, restored: np.ndarray, kernels: list[np.ndarray]) -> float:
    """Relative misfit of the restored image re-convolved with ``kernels``."""
    for k in reversed(kernels):
        restored = convolve(restored, k)
    if restored.shape != case.observed.shape:
        return float("inf")
    return float(np.abs(restored - case.observed).max() / np.abs(case.observed).max())


def compare_stage(case: Case, stage: int, kernels: list[np.ndarray], restored: np.ndarray,
                  worst: dict[str, float]) -> list[str]:
    """Check the outputs of stages 1..stage: recovered kernels, the restored
    image, and the restored image re-convolved with the recovered kernels."""
    errors = []
    for i, (got, true) in enumerate(zip(kernels, case.kernels[:stage]), 1):
        if got.shape != true.shape:
            errors.append(f"kernel {i}: shape {got.shape}, expected {true.shape}")
            continue
        err = float(np.abs(got - true / true.sum()).max())
        worst["kernel"] = max(worst.get("kernel", 0.0), err)
        if not err <= KERNEL_TOL:
            errors.append(f"kernel {i}: max error {err:.3e}")
    if errors:
        return errors
    expected = case.sharp * float(np.prod([k.sum() for k in case.kernels[:stage]]))
    for k in case.kernels[stage:]:
        expected = convolve(expected, k)
    if restored.shape != expected.shape:
        return [f"restored {stage}: shape {restored.shape}, expected {expected.shape}"]
    err = float(np.abs(restored - expected).max() / np.abs(expected).max())
    worst["image"] = max(worst.get("image", 0.0), err)
    if not err <= IMAGE_TOL:
        errors.append(f"restored {stage}: relative error {err:.3e}")
    err = reconv_error(case, restored, kernels)
    worst["reconv"] = max(worst.get("reconv", 0.0), err)
    if not err <= RECONV_TOL:
        errors.append(f"re-convolution after stage {stage}: relative error {err:.3e}")
    return errors


def check(workload: Workload, case: Case, code: int, out: Path) -> Outcome:
    """Check one operation's exit code and files against the case's truth."""
    report = json.loads((out / "report.json").read_text())
    stages = report["per_stage"]
    pipeline = workload.command == "pipeline"
    done = sum(1 for s in stages if s["accepted_combination"] is not None)
    outcome = Outcome()
    errors = outcome.errors

    if done == len(workload.sizes):
        if code != 0 or report["status"] != "OK":
            errors.append(f"all stages accepted but exit {code}, status {report['status']}")
    else:
        # The kernel is present by construction, so a search that accepts
        # nothing is a miss: count it as failed, after checking that the
        # program says so consistently and did not give up early.
        outcome.failed = True
        expected = (3, "NO_BLUR_FOUND") if done == 0 else (4, "PARTIAL")
        if (code, report["status"]) != expected:
            errors.append(f"stage {done + 1} missed: exit {code}, status {report['status']}")
        last = stages[-1] if len(stages) > done else None
        if last is None or last["enumeration_truncated"] or not last["sample_phases"]:
            errors.append(f"stage {done + 1} missed without a complete search")

    if done:
        if pipeline:
            kernels = [read_kernel_csv(out / f"blur_{i}.csv") for i in range(1, done + 1)]
            restored = read_image_csv(out / f"restored_{done}.csv")
        else:
            kernels = [read_kernel_csv(out / "blur.csv")]
            restored = read_image_csv(out / "restored.csv")
        stage_errors = compare_stage(case, done, kernels, restored, outcome.worst)
        errors.extend(stage_errors)
        if not stage_errors:
            outcome.kernels = done
    if workload.fallback and done and stages[0].get("restore_method") != "least_squares":
        errors.append(f"restore_method {stages[0].get('restore_method')!r}, expected least_squares")
    return outcome


def negative_control(case: Case) -> list[str]:
    """The checker must accept the truth and reject a kernel perturbed by
    1e-3 and a transposed kernel, both in the kernel comparison and in the
    re-convolution.  Returns the ways in which it did not."""
    stage = len(case.kernels)
    true = [k / k.sum() for k in case.kernels]
    restored = case.sharp * float(np.prod([k.sum() for k in case.kernels]))
    problems = []
    if compare_stage(case, stage, true, restored, {}):
        problems.append("checker rejects the true outputs")
    perturbed = true[0].copy()
    perturbed[0, 0] += 1e-3
    for label, bad in (("perturbed", perturbed), ("transposed", true[0].T)):
        kernels = [bad, *true[1:]]
        if not compare_stage(case, stage, kernels, restored, {}):
            problems.append(f"checker accepts a {label} kernel")
        if reconv_error(case, restored, kernels) <= RECONV_TOL:
            problems.append(f"re-convolution accepts a {label} kernel")
    return problems
