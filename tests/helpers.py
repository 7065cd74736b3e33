"""Shared builders and comparison helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import zerosheet
from zerosheet import Image, SearchConfig, convolve, synth_blur, synth_image

# The fixed three-blur restoration protocol used by the acceptance suite.
# The wide phase step spreads the sample points so the rank test separates
# wrong root combinations from the genuine blur sheets by orders of
# magnitude; all other knobs are the library defaults.
PROTOCOL_SEED = 12
PROTOCOL_SIZES = [(2, 2), (2, 3), (3, 3)]
PROTOCOL_STEP = 0.32
PROTOCOL_BASE = 0.3


def protocol_config(m: int = 2, n: int = 2, **overrides) -> SearchConfig:
    kw = dict(blur_m=m, blur_n=n, base_phase=PROTOCOL_BASE, phase_step=PROTOCOL_STEP)
    kw.update(overrides)
    return SearchConfig(**kw)


def protocol_data(sizes=PROTOCOL_SIZES):
    """(true image, blur kernels, observed image) of the fixed protocol, or
    of the same sharp image with blurs of other sizes drawn the same way."""
    truth = synth_image(40, 40, PROTOCOL_SEED)
    blurs = [
        synth_blur(m, n, PROTOCOL_SEED + 1000 * i)
        for i, (m, n) in enumerate(sizes, start=1)
    ]
    observed = truth
    for blur in blurs:
        observed = convolve(observed, blur)
    return truth, blurs, observed


def exact_model(seed: int = 3, fw: int = 12, fh: int = 12, m: int = 2, n: int = 2):
    """A small noise-free (true, blur, observed) triple."""
    f = synth_image(fw, fh, seed)
    h = synth_blur(m, n, seed + 977)
    return f, h, convolve(f, h)


def residual_scale(coeffs: np.ndarray, z):
    """Evaluation magnitude ``sum_y |a_y| |z|^y``, the smallest scale at which
    a Horner residual at z is meaningful in double precision.  z may be a
    scalar or an array of points.  The solvers take their relative residual
    from ``zpoly._evaluate`` instead; this is the reference scale against
    which tests check roots by plain Horner evaluation."""
    r, scale = np.abs(z), 0.0
    for m in np.abs(coeffs)[::-1]:
        scale = scale * r + m
    return scale


def unit_sum(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a / a.sum()


def images_close(a: Image, b: Image, tol: float) -> bool:
    return a.pixels.shape == b.pixels.shape and float(
        np.max(np.abs(a.pixels - b.pixels))
    ) <= tol


def candidates_equal(a, b) -> bool:
    return (
        a.combination == b.combination
        and a.accepted == b.accepted
        and a.zero_sum == b.zero_sum
        and a.sigma_min == b.sigma_min
        and a.sigma_second == b.sigma_second
        and a.sigma_gap == b.sigma_gap
        and a.realness == b.realness
        and np.array_equal(a.h, b.h)
    )


def reports_equal(a, b) -> bool:
    if (
        (a.blur_m, a.blur_n, a.q, a.axis, a.sample_phases, a.n_prime,
         a.combinations_total, a.combinations_evaluated, a.tracking_failures,
         a.truncated, a.sampling_failed)
        != (b.blur_m, b.blur_n, b.q, b.axis, b.sample_phases, b.n_prime,
            b.combinations_total, b.combinations_evaluated, b.tracking_failures,
            b.truncated, b.sampling_failed)
    ):
        return False
    if len(a.candidates) != len(b.candidates):
        return False
    if not all(candidates_equal(x, y) for x, y in zip(a.candidates, b.candidates)):
        return False
    if (a.best is None) != (b.best is None):
        return False
    return a.best is None or candidates_equal(a.best, b.best)


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a ``python -m zerosheet`` child process.

    Starts from this process's environment and puts the directory that
    ``zerosheet`` was imported from first on PYTHONPATH, so the child runs
    the same code as the in-process tests, installed or not.
    """
    env = dict(os.environ)
    import_root = str(Path(zerosheet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [import_root, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env
