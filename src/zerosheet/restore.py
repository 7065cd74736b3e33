"""Image restoration given a recovered blur, and the multi-blur pipeline.

The primary route divides the DFT of the observed image by the DFT of the
zero-padded blur and inverse-transforms; because the observed size equals
the full-convolution size, circular and linear convolution coincide and the
division is exact for noise-free data.  Image and blur are real, so every
transform is a real-input one, whose half spectrum holds every value of the
full spectrum up to complex conjugation.  A blur whose transform nearly
vanishes somewhere on the DFT grid makes that division unstable, so an
independent least-squares route (CGLS on the convolution and its adjoint)
backs it up.  CGLS starts from division on a zero-padded grid a few
pixels larger, chosen so the blur transform stays furthest from zero:
padding past the full-convolution size keeps circular and linear
convolution equal, and a small change of grid size moves the grid off the
transform's isolated zeros, so on noise-free data that start is already
the answer.

:func:`pipeline` is the one stage driver: each stage searches for one blur
and restores it away, and a stage whose search accepts nothing ends the run
with its report as the result.  Since transforms multiply, the slice roots
a stage solved, less the roots of the blur it removed, are the roots of the
next stage's slices at the same points, and later stages start from them.
:func:`remove_blur` is a one-stage pipeline.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBlurError, DivisionUnstableError, NoBlurFoundError
from .image import Image, convolve, image_from_matrix
from .search import Axis, BlurCandidate, SearchConfig, SearchReport, search_image
from .zpoly import deflate_roots

__all__ = [
    "RestoreMethod",
    "RestorationResult",
    "StageResult",
    "PipelineResult",
    "spectral_restore",
    "least_squares_restore",
    "restore_with_fallback",
    "remove_blur",
    "pipeline",
]

log = logging.getLogger("zerosheet.restore")

# Below this min|H|/max|H| on the DFT grid, spectral division is refused.
UNSTABLE_TOL = 1e-9

# CGLS stops at ||A^T r|| / ||A^T g|| <= _CGLS_TOL or at the per-pixel cap.
_CGLS_TOL = 1e-15
_CGLS_MAX_ITER_PER_UNKNOWN = 4

# CGLS warm-starts on the best grid (H + dy, W + dx), 0 <= dy, dx <= this,
# for an H x W observed image.
_WARM_GRID_PAD = 3


class RestoreMethod(enum.Enum):
    SPECTRAL = "spectral"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True, eq=False)
class RestorationResult:
    """A restored image with the diagnostics needed to trust it.

    ``forward_residual`` is ``max|convolve(restored, blur) - observed|``
    over ``max|observed|``; ``min_H_on_grid`` is the smallest blur-transform
    magnitude on the DFT grid relative to the largest.
    """

    image: Image
    method: RestoreMethod
    forward_residual: float
    min_H_on_grid: float


def _check_restore_inputs(g: Image, h: Image) -> None:
    if h.width > g.width or h.height > g.height:
        raise ValueError(
            f"blur {h.width}x{h.height} larger than image {g.width}x{g.height}"
        )
    if float(np.max(np.abs(h.pixels))) == 0.0:
        raise DegenerateBlurError("blur is identically zero")


def _grid_transform_ratio(h: Image, shape: tuple[int, int]) -> tuple[np.ndarray, float]:
    """The real-input transform of the blur zero-padded to ``shape`` (half
    the spectrum, which holds every |H| of a real blur), and its
    min|H|/max|H|."""
    H = np.fft.rfft2(h.pixels, s=shape)
    mags = np.abs(H)
    return H, float(mags.min() / mags.max())


def _divide(g: Image, H: np.ndarray, shape: tuple[int, int], fh: int, fw: int) -> np.ndarray:
    """g divided by the blur's real-input transform H on the grid ``shape``,
    cropped to fh x fw.  The shape is passed since H's width does not tell
    an odd grid width from the even one below it."""
    return np.fft.irfft2(np.fft.rfft2(g.pixels, s=shape) / H, s=shape)[:fh, :fw]


def _forward_residual(f: Image, h: Image, g: Image) -> float:
    diff = convolve(f, h).pixels - g.pixels
    peak = float(np.max(np.abs(g.pixels)))
    worst = float(np.max(np.abs(diff)))
    return worst / peak if peak > 0.0 else worst


def spectral_restore(g: Image, h: Image) -> RestorationResult:
    """Restore by DFT division; exact on noise-free full-convolution data.

    Divides real-input transforms (``rfft2``, back by ``irfft2``) on the
    observed image's grid; ``min_H_on_grid`` is read off the blur's half
    spectrum, which holds every |H| of the full grid.  Raises
    :class:`DivisionUnstableError` when the blur transform dips below
    ``UNSTABLE_TOL`` (relative) anywhere on the grid, in which case
    :func:`least_squares_restore` is the safe route.
    """
    _check_restore_inputs(g, h)
    shape = g.pixels.shape
    H, min_ratio = _grid_transform_ratio(h, shape)
    if min_ratio < UNSTABLE_TOL:
        raise DivisionUnstableError(min_ratio)
    out = Image(_divide(g, H, shape, g.height - h.height + 1, g.width - h.width + 1))
    return RestorationResult(
        image=out,
        method=RestoreMethod.SPECTRAL,
        forward_residual=_forward_residual(out, h, g),
        min_H_on_grid=min_ratio,
    )


def _warm_start(g: Image, h: Image, fh: int, fw: int) -> tuple[np.ndarray | None, float]:
    """Spectral division on the padded grid where the blur transform is
    furthest from zero, or None when no grid tried is stable; and the
    min|H|/max|H| of the unpadded grid.
    """
    best_H, best_shape, best_ratio = None, None, -1.0
    for dy in range(_WARM_GRID_PAD + 1):
        for dx in range(_WARM_GRID_PAD + 1):
            shape = (g.height + dy, g.width + dx)
            H, ratio = _grid_transform_ratio(h, shape)
            if dy == dx == 0:
                min_ratio = ratio
            if ratio > best_ratio:
                best_H, best_shape, best_ratio = H, shape, ratio
    if best_ratio < UNSTABLE_TOL:
        return None, min_ratio
    return _divide(g, best_H, best_shape, fh, fw), min_ratio


def least_squares_restore(g: Image, h: Image) -> RestorationResult:
    """Restore by CGLS, conjugate gradients on min ||convolve(f, h) - g||.

    Independent of the spectral route and immune to DFT-grid zeros of the
    blur transform.  The adjoint is :func:`convolve` by the flipped blur,
    cropped, so memory stays linear in the pixel count.

    CGLS starts from spectral division on the zero-padded grid, up to
    ``_WARM_GRID_PAD`` pixels larger per axis, whose blur transform has the
    largest min|H|/max|H|.  It starts from zeros instead when even that
    ratio is below ``UNSTABLE_TOL``, and unless the division lowers both
    the misfit ||g - A x|| and the gradient ||A^T r|| below their values at
    zero.  Whatever the start, it stops when
    ||A^T r|| falls to ``_CGLS_TOL`` times ||A^T g||, the gradient at zero,
    so an observed image with no component in the range of the convolution
    still restores to zeros.
    """
    _check_restore_inputs(g, h)
    hh, hw = h.pixels.shape
    fh, fw = g.height - hh + 1, g.width - hw + 1
    # A^T r is the full convolution of r with the flipped blur, cropped
    flipped = Image(h.pixels[::-1, ::-1])
    crop = np.s_[hh - 1 : g.height, hw - 1 : g.width]
    x, r = np.zeros((fh, fw)), g.pixels.copy()
    s = convolve(g, flipped).pixels[crop]
    gamma = gamma0 = float(np.vdot(s, s))
    x0, min_ratio = _warm_start(g, h, fh, fw)
    if x0 is not None:
        r0 = g.pixels - convolve(Image(x0), h).pixels
        if np.vdot(r0, r0) < np.vdot(r, r):
            s0 = convolve(Image(r0), flipped).pixels[crop]
            gamma_start = float(np.vdot(s0, s0))
            # keep the start only where it also lowers the gradient the stop
            # test measures; zeros win when g is zero or mostly outside the
            # range of the convolution
            if gamma_start < gamma0:
                x, r, s, gamma = x0, r0, s0, gamma_start
    p = s
    for _ in range(_CGLS_MAX_ITER_PER_UNKNOWN * fh * fw):
        if gamma <= _CGLS_TOL**2 * gamma0:
            break
        q = convolve(Image(p), h).pixels
        alpha = gamma / float(np.vdot(q, q))
        x += alpha * p
        r -= alpha * q
        s = convolve(Image(r), flipped).pixels[crop]
        gamma, gamma_prev = float(np.vdot(s, s)), gamma
        p = s + (gamma / gamma_prev) * p
    out = Image(x)
    return RestorationResult(
        image=out,
        method=RestoreMethod.LEAST_SQUARES,
        forward_residual=_forward_residual(out, h, g),
        min_H_on_grid=min_ratio,
    )


def restore_with_fallback(g: Image, h: Image) -> RestorationResult:
    """Spectral division when stable, least squares otherwise."""
    try:
        return spectral_restore(g, h)
    except DivisionUnstableError as exc:
        log.info("spectral division unstable (%s); using least squares", exc)
        return least_squares_restore(g, h)


def remove_blur(
    g: Image, cfg: SearchConfig
) -> tuple[BlurCandidate, RestorationResult, SearchReport]:
    """Search for one blur of the configured size and undo it.

    A one-stage :func:`pipeline`.  The returned candidate is in the
    caller's orientation whichever axis :func:`search_image` scanned.
    Raises :class:`NoBlurFoundError`, carrying the search report, when no
    candidate is accepted.
    """
    result = pipeline(g, [(cfg.blur_m, cfg.blur_n)], cfg)
    if not result.ok:
        report = result.failure_report
        raise NoBlurFoundError(
            f"no {cfg.blur_m}x{cfg.blur_n} blur accepted "
            f"({report.combinations_evaluated} combinations evaluated)",
            report=report,
        )
    stage = result.stages[0]
    return stage.candidate, stage.restoration, stage.report


@dataclass(frozen=True, eq=False)
class StageResult:
    restoration: RestorationResult
    report: SearchReport
    wall_time_ms: float = 0.0

    @property
    def candidate(self) -> BlurCandidate:
        return self.report.best


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Outcome of sequential blur removal.

    ``failed_stage`` is the 1-based index of the first stage whose search
    accepted nothing (None when every stage succeeded); ``failure_report``
    carries that stage's search report for diagnostics.
    """

    stages: list[StageResult]
    failed_stage: int | None
    failure_report: SearchReport | None
    failure_wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed_stage is None

    @property
    def final_image(self) -> Image | None:
        return self.stages[-1].restoration.image if self.stages else None


def pipeline(g: Image, sizes, cfg: SearchConfig) -> PipelineResult:
    """Remove several blurs in the given (m, n) order, feeding each result on.

    Each stage searches for one blur with :func:`search_image`, which
    picks the axis from the blur's size, and restores it away.  Stops at
    the first stage that finds no blur and returns the stages completed so
    far together with the failing stage's index and search report.  Every
    stage's configuration is checked before the first search runs.

    The slice roots of every stage are kept, one mapping per search axis
    from sample point to roots.  After each stage, every entry loses the
    roots of the blur just removed (see
    :func:`zerosheet.zpoly.deflate_roots`), and later searches along the
    same axis start their slices at those points from what is left.
    """
    stage_cfgs = [replace(cfg, blur_m=int(m), blur_n=int(n)) for m, n in sizes]
    if not stage_cfgs:
        raise ValueError("pipeline needs at least one blur size")
    current = g
    stages: list[StageResult] = []
    known: dict[Axis, dict] = {Axis.V: {}, Axis.U: {}}
    for idx, stage_cfg in enumerate(stage_cfgs, start=1):
        t0 = time.perf_counter()
        report = search_image(current, stage_cfg, known)
        if report.best is None:
            wall = (time.perf_counter() - t0) * 1e3
            log.info("pipeline stage %d (%dx%d) found no blur", idx,
                     stage_cfg.blur_m, stage_cfg.blur_n)
            return PipelineResult(
                stages=stages,
                failed_stage=idx,
                failure_report=report,
                failure_wall_ms=wall,
            )
        restoration = restore_with_fallback(current, image_from_matrix(report.best.h))
        wall = (time.perf_counter() - t0) * 1e3
        log.info(
            "removed %dx%d blur, forward residual %.3e (%s)", stage_cfg.blur_m,
            stage_cfg.blur_n, restoration.forward_residual, restoration.method.value,
        )
        stages.append(
            StageResult(
                restoration=restoration,
                report=report,
                wall_time_ms=wall,
            )
        )
        current = restoration.image
        known[report.axis].update(report.slices)
        # along U a search runs on the transposed image, whose blur is h.T
        h = report.best.h
        for axis, factor in ((Axis.V, h), (Axis.U, h.T)):
            known[axis] = {u: deflate_roots(r, u, factor) for u, r in known[axis].items()}
    return PipelineResult(stages=stages, failed_stage=None, failure_report=None)
