"""Bivariate z-transform polynomials, univariate slices, and root finding.

A W x H image g maps to the polynomial

    G(u, v) = (1 / (W * H)) * sum_{x, y} g(x, y) u^x v^y

with complex u, v.  Fixing u gives a univariate polynomial in v whose roots
are the image's zero values at that sample point; convolution multiplies
transforms, so the zero values of a convolved-in blur are a subset of the
image's zero values at every u.  The 1/(W*H) prefactor only rescales the
coefficients and never moves a root.

Coefficient grids are indexed ``coeffs[x, y]`` (x along u, y along v), the
transpose of the image pixel layout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import RootFindingError, ZeroPolynomialError
from .image import Image

__all__ = [
    "TRIM_TOL",
    "ROOT_TOL",
    "CLUSTER_TOL",
    "BivariatePoly",
    "UniPoly",
    "RootSlice",
    "ztransform",
    "slice_in_v",
    "find_roots",
    "slice_roots",
    "residual_scale",
    "elementary_symmetric_coeffs",
    "unit_point",
]

# Relative threshold below which a trailing slice coefficient counts as zero.
TRIM_TOL = 1e-12
# Relative residual bound every polished root must satisfy.
ROOT_TOL = 1e-9
# Pairwise distance below which roots of one slice count as clustered.
CLUSTER_TOL = 1e-6

_NEWTON_MAX_ITER = 40
# Aberth steps a warm-started solve may take before it falls back to the
# companion-matrix eigenvalues.
_ABERTH_MAX_ITER = 50
# Relative bound on |sum(roots) + a_{d-1} / a_d| for a warm-started root set.
_VIETA_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BivariatePoly:
    """Polynomial sum of ``coeffs[x, y] * u**x * v**y``."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("coefficient grid must be a non-empty 2D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def ztransform(img: Image) -> BivariatePoly:
    """z-transform of an image: coefficient (x, y) is pixel (x, y) / (W * H)."""
    scale = img.width * img.height
    return BivariatePoly(img.pixels.T.astype(np.complex128) / scale)


@dataclass(frozen=True, eq=False)
class UniPoly:
    """Univariate complex polynomial, ascending coefficients, trailing-trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coefficients must form a non-empty 1D array")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def effective_degree(self) -> int:
        return len(self.coeffs) - 1


def _powers(u: complex, m: int) -> np.ndarray:
    """``u**0 .. u**(m - 1)`` by repeated multiplication."""
    pows = np.empty(m, dtype=np.complex128)
    pows[0] = 1.0
    for x in range(1, m):
        pows[x] = pows[x - 1] * u
    return pows


def slice_in_v(P: BivariatePoly, u: complex) -> UniPoly:
    """Fix u and collapse to the polynomial in v.

    Coefficient y of the result is ``sum_x coeffs[x, y] * u**x``.  Trailing
    coefficients whose magnitude falls below ``TRIM_TOL`` times the largest
    slice coefficient are trimmed, so the effective degree can drop below
    the grid's degree in v.

    A sample point where every slice coefficient collapses relative to the
    grid's own coefficient scale is degenerate (the transform carries a
    factor vanishing at that u, e.g. 1 + u near u = -1) and raises
    :class:`ZeroPolynomialError`.  The test is against the grid scale, not
    the slice's own maximum: a vanishing factor shrinks all coefficients
    uniformly, which a slice-relative threshold would never notice.
    """
    u = complex(u)
    if not (np.isfinite(u.real) and np.isfinite(u.imag)):
        raise ValueError("sample point u must be finite")
    m = P.coeffs.shape[0]
    a = _powers(u, m) @ P.coeffs
    grid_scale = float(np.max(np.abs(P.coeffs))) * max(1.0, abs(u)) ** (m - 1)
    scale = float(np.max(np.abs(a)))
    if scale <= TRIM_TOL * grid_scale:
        raise ZeroPolynomialError(
            f"slice at u = {u:.6g} is degenerate (all coefficients vanish)"
        )
    d = len(a) - 1
    while d >= 0 and abs(a[d]) <= TRIM_TOL * scale:
        d -= 1
    return UniPoly(a[: d + 1])


def residual_scale(coeffs: np.ndarray, z):
    """Evaluation magnitude ``sum_y |a_y| |z|^y``, the smallest scale at which
    a Horner residual at z is meaningful in double precision.  z may be a
    scalar or an array of points.  The solvers do not use it (they take the
    relative residual from :func:`_evaluate`); it is the reference scale
    against which tests check roots by plain Horner evaluation."""
    r, scale = np.abs(z), 0.0
    for m in np.abs(coeffs)[::-1]:
        scale = scale * r + m
    return scale


def find_roots(p: UniPoly, *, guesses=None) -> tuple[np.ndarray, np.ndarray]:
    """All roots of p, Newton-polished, in deterministic order.

    Initial estimates come from the companion-matrix eigenvalues, or, when
    ``guesses`` holds the roots of a nearby polynomial, from Aberth
    iterations started there (see :func:`_aberth`); a warm start that fails
    any of its guards falls back to the eigenvalues.  Either way all
    estimates are then polished together by Newton iteration on the
    original coefficients until the relative residual ``|p(root)| / sum_y
    |a_y| |root|^y`` is at most ``ROOT_TOL``.  Both solvers evaluate it at
    1/root outside the unit circle (see :func:`_evaluate`), so no root is
    out of range.  Returns (roots, relative residuals) sorted by real part,
    then imaginary part; raises :class:`RootFindingError` if any root
    misses the bound.
    """
    d = p.effective_degree
    if d < 1:
        raise ValueError("find_roots requires effective degree >= 1")
    basis = _coeff_rows(p.coeffs)
    start = None if guesses is None else _aberth(basis, guesses, ROOT_TOL)
    if start is None:
        start = np.roots(p.coeffs[::-1])
    roots, residuals = _polish(basis, start, ROOT_TOL)
    if not (residuals <= ROOT_TOL).all():
        raise RootFindingError(
            f"root polishing stalled at relative residual {residuals.max():.3e} "
            f"(bound {ROOT_TOL:.3e}, degree {d})"
        )
    order = np.lexsort((roots.imag, roots.real))
    return roots[order], residuals[order]


def _aberth(basis, guesses, tol_root: float) -> np.ndarray | None:
    """Simultaneous Aberth-Ehrlich iteration from ``guesses``.

    Each step moves every root z_k that has not yet met the relative
    residual bound twice in a row by N_k / (1 - N_k S_k), with the Newton
    step N_k = p(z_k) / p'(z_k) (both from :func:`_evaluate`) and the
    repulsion S_k = sum_{j != k} 1 / (z_k - z_j), at O(d^2) cost.  Returns
    the roots once all meet the bound, or None when the guesses are not
    one finite estimate per root, an iterate turns non-finite, the bound is
    still missed after ``_ABERTH_MAX_ITER`` steps, two results lie closer
    than ``CLUSTER_TOL``, or their sum misses -a_{d-1} / a_d (Vieta).
    """
    coeffs = basis[0][0]
    d = len(coeffs) - 1
    z = np.array(guesses, dtype=np.complex128)
    if z.shape != (d,) or not np.isfinite(z).all():
        return None
    active = np.arange(d)
    met = np.zeros(d, dtype=bool)
    with np.errstate(all="ignore"):
        for it in range(_ABERTH_MAX_ITER + 1):
            za = z[active]
            residual, newton = _evaluate(basis, za)
            ok = residual <= tol_root
            # a root stops once it meets the bound both before and after one
            # more step, which leaves it accurate to about round-off
            go = ~(ok & met[active])
            met[active] = ok
            if not go.any():
                break
            if it == _ABERTH_MAX_ITER:
                return None
            # converged roots stay put; the rest still feel their repulsion
            newton = newton[go]
            active, za = active[go], za[go]
            dr = np.subtract.outer(za.real, z.real)
            di = np.subtract.outer(za.imag, z.imag)
            dist2 = dr * dr + di * di
            dist2[np.arange(len(active)), active] = np.inf
            repulsion = (dr / dist2).sum(axis=1) - 1j * (di / dist2).sum(axis=1)
            z[active] = za - newton / (1.0 - newton * repulsion)
            if not np.isfinite(z[active]).all():
                return None
    if _min_separation(z) < CLUSTER_TOL:
        return None
    if abs(z.sum() + coeffs[-2] / coeffs[-1]) > _VIETA_TOL * np.abs(z).sum():
        return None
    return z


def _coeff_rows(coeffs: np.ndarray):
    """Rows a, a', reversed a and (d - y) a_{d-y}, then |a| and |reversed a|."""
    d = len(coeffs) - 1
    rows = np.zeros((4, d + 1), dtype=np.complex128)
    rows[0], rows[2] = coeffs, coeffs[::-1]
    rows[1, :d] = coeffs[1:] * np.arange(1, d + 1)
    rows[3] = (coeffs * np.arange(d + 1))[::-1]
    return rows, np.abs(rows[::2])


def _evaluate(basis, z: np.ndarray):
    """Relative residual ``|p(z)| / sum_y |a_y| |z|^y`` and Newton step
    p(z) / p'(z) at every point of z, from powers of w = z inside the unit
    circle and w = 1/z outside, so no power exceeds 1 in modulus.  Outside,
    p(z) = z^d r(w) with r(w) = sum_y a_{d-y} w^y: the residual is |r(w)| /
    sum_y |a_{d-y}| |w|^y and the step z r / s, s(w) = d r - w r' = sum_y
    (d - y) a_{d-y} w^y.  One matrix of powers, built by repeated doubling
    (row j holds ``w**j``), serves all rows of :func:`_coeff_rows`."""
    rows, mags = basis
    d = rows.shape[1] - 1
    out = np.abs(z) > 1.0
    w = np.divide(1.0, z, out=z.copy(), where=out)
    pows = np.empty((d + 1, len(w)), dtype=np.complex128)
    pows[0] = 1.0
    n, wn = 1, w
    while n <= d:
        m = min(n, d + 1 - n)
        np.multiply(pows[:m], wn, out=pows[n : n + m])
        wn = wn * wn
        n *= 2
    vals, scales = rows @ pows, mags @ np.abs(pows)
    f, df = np.where(out, vals[2:], vals[:2])
    scale = np.where(out, scales[1], scales[0])
    # scale is 0 only where every term of p is, as at z = 0 when a_0 = 0
    residual = np.divide(np.abs(f), scale, out=np.zeros(len(z)), where=scale > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(out, z, 1.0) * f / df
    return residual, step


def _min_separation(roots: np.ndarray) -> float:
    """Smallest distance between two of the roots (inf for fewer than two)."""
    if len(roots) < 2:
        return np.inf
    dist = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def _polish(basis, guesses: np.ndarray, tol_root: float):
    """Newton iteration from every guess at once, on the relative residual
    and step of :func:`_evaluate`.  A root stops once its residual is at most
    ``tol_root`` or its step is not finite (p'(z) = 0, say); the rest go on
    for at most ``_NEWTON_MAX_ITER`` steps.  Returns, per root, the iterate
    with the smallest residual seen and that residual."""
    z = np.array(guesses, dtype=np.complex128)
    best_z = z.copy()
    best_res = np.full(len(z), np.inf)
    active = np.arange(len(z))
    for it in range(_NEWTON_MAX_ITER + 1):
        za = z[active]
        res, step = _evaluate(basis, za)
        better = res < best_res[active]
        idx = active[better]
        best_z[idx], best_res[idx] = za[better], res[better]
        if it == _NEWTON_MAX_ITER:
            break
        go = ~(res <= tol_root) & np.isfinite(step)
        active = active[go]
        if not active.size:
            break
        z[active] = za[go] - step[go]
    return best_z, best_res


@dataclass(frozen=True, eq=False)
class RootSlice:
    """Root data of one slice: the roots in v at a fixed sample point u."""

    leading_coeff: complex
    roots: np.ndarray
    residuals: np.ndarray
    clustered: bool

    @property
    def count(self) -> int:
        return len(self.roots)


def slice_roots(P: BivariatePoly, u: complex, *, guesses=None) -> RootSlice:
    """Slice at u and solve: the full root set with residual diagnostics.

    A slice of degree 0 has no roots and gives an empty root set.
    ``guesses``, the roots of a nearby slice, warm-start the solve (see
    :func:`find_roots`).
    """
    poly = slice_in_v(P, u)
    if poly.effective_degree == 0:
        roots, residuals = np.empty(0, dtype=np.complex128), np.empty(0)
    else:
        roots, residuals = find_roots(poly, guesses=guesses)
    return RootSlice(
        leading_coeff=complex(poly.coeffs[-1]),
        roots=roots,
        residuals=residuals,
        clustered=_min_separation(roots) < CLUSTER_TOL,
    )


def elementary_symmetric_coeffs(gammas) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given roots.

    For k roots the result has k + 1 entries ``c_0 .. c_k`` with ``c_k = 1``
    exactly and ``c_y = (-1)^(k - y) e_{k - y}(gammas)``, where ``e_j`` is
    the j-th elementary symmetric polynomial.  An empty root set yields the
    constant polynomial [1].
    """
    g = np.asarray(gammas, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError("root set must be one-dimensional")
    if g.size and not np.all(np.isfinite(g)):
        raise ValueError("roots must be finite")
    coeffs = np.array([1.0 + 0j])
    for gamma in g:
        nxt = np.zeros(len(coeffs) + 1, dtype=np.complex128)
        nxt[1:] += coeffs
        nxt[:-1] -= gamma * coeffs
        coeffs = nxt
    return coeffs


def unit_point(phase: float) -> complex:
    """Point on the unit circle at the given phase (radians)."""
    return cmath.rect(1.0, phase)
