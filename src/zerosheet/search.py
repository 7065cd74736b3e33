"""Blur search over zero values of the image z-transform.

An m x n blur convolved into an image leaves a fingerprint: at every sample
point u the blur's n - 1 roots in v sit among the image slice's roots.  For
a candidate root set tracked across q unit-circle sample points, write the
slice coefficients of the hypothesised blur in two ways: directly as
``sum_x h(x, y) u_j^x``, and as an unknown scale p_j times the elementary
symmetric coefficients of the tracked roots.  Equating the two over all q
points gives a homogeneous linear system in the m*n blur entries and the q
scales.  Choosing q = ceil(m*n / (n - 1)) makes the system square or tall,
so a numerically rank-deficient system (tiny sigma_min / sigma_second)
certifies that the tracked roots belong to an actual m x n blur, and the
corresponding null vector holds its entries.

The search considers the combinations of n - 1 base-point roots in
lexicographic order and reports every evaluated candidate.  Tracking
depends on single roots, so it runs once per root rather than once per
combination: every base root is followed across the sample points by
matching its predicted position, one step along its zero sheet's tangent,
to the nearest root of the next slice, and a combination tracks when each
of its roots matches unambiguously at every step and no two of them end on
the same root.  Only combinations of roots that passed on their own are
walked; each one's lexicographic rank among all combinations keeps the
report's counts and the ``max_combinations`` cap as if every combination
had been visited.
The slices at the sample points, with an empty slot wherever a point had
to be replaced, are level 0 of the tracking chain; each slice carries its
point u, so the chain is the search's only record of the sample points.
A combination that does not track is tried again on finer chains: level L
interleaves the chain of level L - 1 with the midpoints between its
entries, halving the phase step.
The levels are built on demand, one at a time: level L's midpoints are
solved only when the search reaches it, all roots are tracked once there,
and the combinations that track there are rank-tested, unless they were
already tested on the same sample-point roots.  The search stops after the
first level at which a candidate is accepted, so a kernel found at the
sample points costs no midpoint at all.
Only the first sample slot is solved cold (Aberth from Newton-polygon
guesses, see :func:`zerosheet.zpoly.find_roots`): every later slot starts
from the roots of the last usable slot, and each midpoint from those of its
coarser neighbour one sub-step away.  A caller that already knows roots of
the transform at some sample points, as a pipeline does from its earlier
stages, passes them in, and a slot at such a point starts from them
instead.  Every solve meets the same residual bound, so the rank test's
inputs are those of a cold solve everywhere, up to round-off.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AxisError,
    DegenerateCandidateError,
    LinearAlgebraError,
    RootFindingError,
    SamplingError,
    ZeroPolynomialError,
)
from .image import Image, transpose
from .zpoly import (
    BivariatePoly,
    RootSlice,
    _powers,
    elementary_symmetric_coeffs,
    slice_roots,
    unit_point,
    ztransform,
)

__all__ = [
    "Axis",
    "SearchConfig",
    "BlurCandidate",
    "SearchReport",
    "compute_q",
    "choose_sample_points",
    "build_system",
    "nullspace_min",
    "extract_blur",
    "search_blur",
    "search_image",
]

log = logging.getLogger("zerosheet.search")

# Finer tracking chains beyond the sample points themselves: chain L halves
# the phase step of chain L - 1, reusing its slices and solving only the
# midpoints between them.
_MAX_HALVINGS = 4
# Replacement attempts per sample point before sampling fails.
_MAX_REPLACEMENTS = 8


class Axis(enum.Enum):
    """Which variable the root search scans: V (columns) or U (rows)."""

    V = "v"
    U = "u"


@dataclass(frozen=True)
class SearchConfig:
    """Blur size hypothesis plus the search's numeric knobs."""

    blur_m: int
    blur_n: int
    base_phase: float = 0.3
    phase_step: float = 0.01
    tol_null: float = 1e-6
    tol_real: float = 1e-6
    tol_track_ratio: float = 0.5
    max_combinations: int = 1_000_000

    def __post_init__(self):
        if self.blur_m < 1:
            raise ValueError("blur_m must be >= 1")
        if self.blur_n < 1:
            raise ValueError("blur_n must be >= 1")
        if self.blur_m == 1 and self.blur_n == 1:
            raise AxisError("a 1 x 1 blur has no roots in u or in v, so neither axis can find it")
        if not math.isfinite(self.base_phase):
            raise ValueError("base_phase must be finite")
        if not 0.0 < self.phase_step < math.pi / 8:
            raise ValueError("phase_step must lie in (0, pi/8)")
        for name in ("tol_null", "tol_real", "tol_track_ratio"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.max_combinations < 1:
            raise ValueError("max_combinations must be >= 1")


@dataclass(frozen=True, eq=False)
class BlurCandidate:
    """Outcome of testing one root combination.

    ``h`` is the recovered (m, n) blur matrix indexed [x, y], normalized to
    unit sum unless the sum itself vanished (then max-abs 1 and ``zero_sum``
    set).  ``sigma_gap`` is sigma_min / sigma_second of the homogeneous
    system, the scale-free detection statistic.
    """

    h: np.ndarray
    sigma_min: float
    sigma_second: float
    sigma_gap: float
    realness: float
    combination: tuple[int, ...]
    accepted: bool
    zero_sum: bool = False


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Everything one search run produced, in deterministic order.

    ``tracking_failures`` counts the evaluated combinations that tracked at
    no halving level the search walked; the walk ends at the first level
    that accepts a candidate.  ``slices`` maps each sample point and
    midpoint of the deepest chain the search built to the roots solved
    there, for a later search of the same image with a factor divided out;
    reports do not serialize it.
    """

    blur_m: int
    blur_n: int
    q: int
    axis: Axis
    sample_phases: tuple[float, ...] = ()
    n_prime: int = 0
    candidates: list[BlurCandidate] = field(default_factory=list)
    best: BlurCandidate | None = None
    combinations_total: int = 0
    combinations_evaluated: int = 0
    tracking_failures: int = 0
    truncated: bool = False
    sampling_failed: bool = False
    slices: dict[complex, np.ndarray] = field(default_factory=dict, repr=False)


def compute_q(m: int, n: int) -> int:
    """Number of sample points needed to pin down an m x n blur: ceil(mn/(n-1)).

    With q points the system has q*n equations against m*n + q unknowns, and
    q*(n-1) >= m*n makes it square or tall, leaving exactly the one-dimensional
    solution ray when the candidate roots are genuine.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 2:
        raise AxisError(
            "n < 2 leaves no roots in v; transpose the image and "
            "search the m x 1 blur as 1 x m"
        )
    return -(-m * n // (n - 1))


def _slot(
    P: BivariatePoly, phase: float, guesses, n_prime: int | None, known
) -> RootSlice | None:
    """The slice at the unit-circle point u of ``phase`` if it is usable: not
    the zero polynomial, its roots polished from ``known[u]`` when the
    mapping ``known`` holds u, else from ``guesses`` (or cold when None),
    and ``n_prime`` of them (any number while that is None).  None
    otherwise."""
    u = unit_point(phase)
    if known and u in known:
        guesses = known[u]
    try:
        rs = slice_roots(P, u, guesses=guesses)
    except (ZeroPolynomialError, RootFindingError):
        return None
    return rs if n_prime is None or rs.count == n_prime else None


def choose_sample_points(
    q: int, cfg: SearchConfig, P: BivariatePoly, known=None
) -> list[RootSlice | None]:
    """Pick q usable unit-circle points near the base phase.

    Slot s lies at phase ``base_phase + s * phase_step``.  The first slot
    is solved cold, every later one warm from the roots of the last usable
    slot (see :func:`zerosheet.zpoly.find_roots`), but a slot whose point
    the mapping ``known`` holds starts from the roots it maps to.  A slot
    is usable when it has as many roots as the first usable one (see
    :func:`_slot`).  Each point takes the next usable slot, after at most
    eight unusable ones.  Returns the level-0 tracking chain: the slice of
    every slot up to the last point, None where a slot was unusable.  The
    sample points are the ``u`` of its non-empty slices.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    chain: list[RootSlice | None] = []
    n_prime: int | None = None
    guesses = None
    for j in range(1, q + 1):
        for _ in range(_MAX_REPLACEMENTS + 1):
            phase = cfg.base_phase + len(chain) * cfg.phase_step
            rs = _slot(P, phase, guesses, n_prime, known)
            chain.append(rs)
            if rs is not None:
                n_prime, guesses = rs.count, rs.roots
                break
            log.debug("sample point %d at phase %.6f unusable", j, phase)
        else:
            raise SamplingError(
                f"no usable sample point found for index {j} "
                f"after {_MAX_REPLACEMENTS} replacements"
            )
    return chain


def _match(
    sources: np.ndarray,
    targets: np.ndarray,
    tol_track_ratio: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbour match of every source point (a root's predicted
    position) among the targets.

    Returns, per source point, the index of its nearest target and whether
    the match passes: it fails when the second-nearest target lies at
    distance 0 or the ambiguity ratio d_best / d_second exceeds
    ``tol_track_ratio``.
    """
    d = np.abs(targets[None, :] - sources[:, None])
    rows = np.arange(len(sources))
    nearest = np.argmin(d, axis=1)
    d_best = d[rows, nearest]
    d[rows, nearest] = np.inf
    d_second = d.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isfinite(d_second), d_best / d_second, 0.0)
    passed = (d_second != 0.0) & ~(ratio > tol_track_ratio)
    return nearest, passed


def _lex_rank(combo: tuple[int, ...], n: int) -> int:
    """Position of the sorted ``combo`` in ``itertools.combinations(range(n), k)``."""
    k = len(combo)
    return math.comb(n, k) - 1 - sum(math.comb(n - 1 - c, k - i) for i, c in enumerate(combo))


def build_system(
    per_point_roots: list[np.ndarray],
    points: list[complex],
    m: int,
    n: int,
) -> np.ndarray:
    """Assemble the (q*n) x (m*n + q) homogeneous matrix for one candidate.

    ``per_point_roots[j]`` holds the candidate's n - 1 roots tracked to
    the sample point u_j = ``points[j]``.  Unknown vector layout: the m*n
    blur entries first, x-major within each y block (column y*m + x), then
    the q scales p_j.  Row (j, y) encodes
    ``sum_x h(x, y) u_j^x - p_j c_y = 0`` with c the monic coefficients of
    the roots tracked at point j.
    """
    q = len(points)
    if len(per_point_roots) != q:
        raise ValueError("roots do not span the sample points")
    A = np.zeros((q * n, m * n + q), dtype=np.complex128)
    for j, u in enumerate(points):
        roots_j = per_point_roots[j]
        if len(roots_j) != n - 1:
            raise ValueError(f"expected {n - 1} tracked roots, got {len(roots_j)}")
        pows = _powers(u, m)
        c = elementary_symmetric_coeffs(roots_j)
        for y in range(n):
            row = j * n + y
            A[row, y * m : (y + 1) * m] = pows
            A[row, m * n + j] = -c[y]
    return A


def nullspace_min(A: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Two smallest singular values of A plus a unit null-direction vector.

    The returned vector is the right singular vector of the smallest
    singular value, deterministic up to a global complex phase.
    """
    A = np.asarray(A)
    rows, cols = A.shape
    if rows < cols - 1:
        raise ValueError(f"matrix {rows}x{cols} is too wide for a rank test")
    if cols < 2:
        raise ValueError("matrix must have at least two columns")
    try:
        _, s, vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"SVD failed to converge: {exc}") from exc
    xi = vh[-1].conj()
    return float(s[-1]), float(s[-2]), xi


def extract_blur(
    xi: np.ndarray,
    m: int,
    n: int,
    q: int,
    cfg: SearchConfig,
    sigma_min: float,
    sigma_second: float,
    combination: tuple[int, ...] = (),
) -> BlurCandidate:
    """Turn a null vector into a real, normalized blur candidate.

    Removes the global phase by making the largest blur entry real and
    positive, measures how non-real the remainder is, projects to the real
    part, and normalizes the sum to 1 (falling back to max-abs 1 when the
    sum vanishes).  Acceptance requires both the nullspace gap and the
    realness residual to pass their tolerances.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if len(xi) != m * n + q:
        raise ValueError(f"null vector length {len(xi)} != m*n + q = {m * n + q}")
    h = xi[: m * n].copy()
    mags = np.abs(h)
    k = int(np.argmax(mags))
    if mags[k] == 0.0:
        raise DegenerateCandidateError("null vector carries an all-zero blur block")
    phase = h[k] / mags[k]
    h /= phase
    realness = float(np.max(np.abs(h.imag)) / np.max(np.abs(h.real)))
    h_mat = h.real.reshape(n, m).T  # (m, n), [x, y]
    total = float(h_mat.sum())
    zero_sum = abs(total) < 1e-9 * float(np.max(np.abs(h_mat)))
    scale = float(np.max(np.abs(h_mat))) if zero_sum else total
    h_mat = h_mat / scale
    sigma_gap = sigma_min / sigma_second if sigma_second > 0.0 else math.inf
    accepted = (
        not zero_sum
        and sigma_gap <= cfg.tol_null
        and realness <= cfg.tol_real
    )
    return BlurCandidate(
        h=h_mat,
        sigma_min=sigma_min,
        sigma_second=sigma_second,
        sigma_gap=sigma_gap,
        realness=realness,
        combination=tuple(combination),
        accepted=accepted,
        zero_sum=zero_sum,
    )


def _track_chain(
    anchors: list[int],
    chain: list[RootSlice | None],
    tol_track_ratio: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Follow every base root along a chain of slices.

    ``chain[anchors[j]]`` is the slice at sample point j; empty entries are
    skipped.  At each step every root is carried along its zero sheet's
    tangent to the next slice and matched there: the step along the unit
    circle from u by the phase difference t is du = i u t, and the
    prediction is v + (dv/du) du.  A root whose prediction is not finite
    fails.  Returns each root's index at every anchor (shape q x n') and
    whether it matched unambiguously at every step.  Two roots that meet at
    some step follow the same path from there on, so roots that end on
    distinct indices never collided.
    """
    current = chain[anchors[0]]
    idx = np.arange(current.count)
    ok = np.ones(current.count, dtype=bool)
    at_anchors = [idx]
    for j in range(1, len(anchors)):
        for nxt in chain[anchors[j - 1] + 1 : anchors[j] + 1]:
            if nxt is None:
                continue
            du = 1j * current.u * np.angle(nxt.u / current.u)
            with np.errstate(invalid="ignore", over="ignore"):
                predicted = current.roots + current.slopes * du
            nearest, passed = _match(predicted, nxt.roots, tol_track_ratio)
            ok &= passed[idx] & np.isfinite(predicted[idx])
            idx = nearest[idx]
            current = nxt
        at_anchors.append(idx)
    return np.array(at_anchors), ok


def _refine(
    P: BivariatePoly,
    cfg: SearchConfig,
    chain: list[RootSlice | None],
    first: int,
    level: int,
    known,
) -> list[RootSlice | None]:
    """The chain of halving level ``level``, built from that of level - 1.

    Entry s of the result lies at phase ``base_phase + s * (phase_step /
    2**level)``.  Its even entries are the coarser ``chain``; each odd entry
    after the first sample point (entry ``first`` of ``chain``) is a
    midpoint, warm-started from its roots in the mapping ``known``, else
    from the roots of the entry before it, or of the entry after it when
    that one is empty.  Midpoints that are not usable (see :func:`_slot`)
    stay empty.
    """
    n_prime = chain[first].count
    finer: list[RootSlice | None] = [None] * (2 * len(chain) - 1)
    finer[::2] = chain
    sub = cfg.phase_step / 2**level
    for s in range(2 * first + 1, len(finer), 2):
        neighbour = finer[s - 1] if finer[s - 1] is not None else finer[s + 1]
        guesses = None if neighbour is None else neighbour.roots
        finer[s] = _slot(P, cfg.base_phase + s * sub, guesses, n_prime, known)
    return finer


def search_blur(P: BivariatePoly, cfg: SearchConfig, known=None) -> SearchReport:
    """Search the transform for a blur_m x blur_n blur along v.

    A blur with blur_n < 2 has no roots in v, so :func:`compute_q`
    raises :class:`AxisError` for it.  The report always names axis V;
    :func:`search_image` picks the axis and transposes the image for a
    search along u.

    Tracks the base-point roots at halving levels 0, 1, ... in turn,
    solving each level's midpoints only when the search reaches it, and
    rank-tests every combination (lexicographic, capped at
    ``cfg.max_combinations``) at the first level where it tracks.  A later
    level tests it again only when its tracks end on other sample-point
    roots than at its last test, since a coarse step can jump from one
    zero sheet to another; the report keeps the latest test.  Each level
    walks only the combinations of roots that passed there, in
    lexicographic order, and counts each by its rank among all
    combinations.  The walk stops after the first level that accepts a
    candidate, so a combination that would first track at a deeper level
    counts as a tracking failure; a search that accepts nothing walks
    every level.  The rank test always runs on the sample points, the
    ``u`` of the non-empty level-0 slices, and the report gives each one's
    phase ``base_phase + s * phase_step`` from its slot s.  The best
    candidate is the accepted one with the smallest sigma_gap (ties go to
    the lexicographically smallest combination).  A run that accepts
    nothing returns an empty-best report rather than raising.

    ``known`` optionally maps sample points u to roots of P's slices there,
    or of a nearby transform's; each slice at such a point starts from them
    (see :func:`_slot`).  Good ones save a solve's iterations, bad ones
    cost only the cold solve they replace.
    """
    m, n = cfg.blur_m, cfg.blur_n
    q = compute_q(m, n)
    try:
        chain = choose_sample_points(q, cfg, P, known)
    except SamplingError as exc:
        log.info("sampling failed: %s", exc)
        return SearchReport(m, n, q, Axis.V, sampling_failed=True)
    # Level 0 steps from slot to slot, level L in steps of phase_step / 2**L;
    # the sample points are the non-empty slots, at entries that double with
    # each level.
    anchors = [s for s, rs in enumerate(chain) if rs is not None]
    phases = tuple(cfg.base_phase + s * cfg.phase_step for s in anchors)
    slices = [chain[a] for a in anchors]
    points = [rs.u for rs in slices]
    n_prime = slices[0].count
    k = n - 1
    if n_prime < k:
        return SearchReport(m, n, q, Axis.V, sample_phases=phases, n_prime=n_prime)
    total = math.comb(n_prime, k)
    evaluated = min(total, cfg.max_combinations)

    # Candidates by lexicographic index, each with the sample-point roots it
    # was tested on; a combination is rank-tested at the first level where
    # it tracks, and again only where a later level's tracks end on other
    # roots (a coarse step can jump paths).
    found: dict[int, BlurCandidate] = {}
    tested_on: dict[int, bytes] = {}
    for level in range(_MAX_HALVINGS + 1):
        if level:
            chain = _refine(P, cfg, chain, anchors[0], level, known)
            anchors = [2 * a for a in anchors]
        at_anchors, ok = _track_chain(anchors, chain, cfg.tol_track_ratio)
        accepted = False
        for combo in itertools.combinations(np.flatnonzero(ok).tolist(), k):
            i = _lex_rank(combo, n_prime)
            if i >= cfg.max_combinations:
                break
            track = at_anchors[:, list(combo)]
            if len(set(track[-1].tolist())) < k or tested_on.get(i) == track.tobytes():
                continue
            # The rank test always runs on the sample points themselves, so
            # it keeps its full discrimination whichever level tracked.
            A = build_system([rs.roots[idx] for rs, idx in zip(slices, track)], points, m, n)
            sigma_min, sigma_second, xi = nullspace_min(A)
            cand = extract_blur(xi, m, n, q, cfg, sigma_min, sigma_second, combo)
            found[i], tested_on[i] = cand, track.tobytes()
            accepted |= cand.accepted
        if accepted:
            log.debug("accepted at halving level %d", level)
            break

    candidates = [found[i] for i in sorted(found)]
    best: BlurCandidate | None = None
    for cand in candidates:
        if cand.accepted and (best is None or cand.sigma_gap < best.sigma_gap):
            best = cand
    if best is not None:
        log.info(
            "accepted combination %s with sigma_gap %.3e", best.combination, best.sigma_gap
        )
    return SearchReport(
        blur_m=m,
        blur_n=n,
        q=q,
        axis=Axis.V,
        sample_phases=phases,
        n_prime=n_prime,
        candidates=candidates,
        best=best,
        combinations_total=total,
        combinations_evaluated=evaluated,
        tracking_failures=evaluated - len(candidates),
        truncated=total > cfg.max_combinations,
        slices={rs.u: rs.roots for rs in chain if rs is not None},
    )


def search_image(img: Image, cfg: SearchConfig, known=None) -> SearchReport:
    """Search an image for a blur along the kernel's longer side.

    An m x n blur has n - 1 roots in v and m - 1 in u, and the axis with
    more roots needs fewer sample points, so the search runs along u when
    ``blur_m > blur_n`` and along v otherwise (a square blur is scanned
    along v).  Along u it searches the transposed image for the swapped
    blur; candidate matrices in the returned report are transposed back
    to the caller's (blur_m, blur_n) orientation, and combination indices
    then refer to base-slice roots of the transposed image.

    ``known`` optionally maps each axis to the slice roots already known
    along it, keyed by sample point, and the search passes on those of its
    axis (see :func:`search_blur`); U's are those of the transposed image.
    The report's ``slices`` are along its ``axis`` in the same sense.
    """
    known = known or {}
    if cfg.blur_m <= cfg.blur_n:
        return search_blur(ztransform(img), cfg, known.get(Axis.V))
    cfg_v = replace(cfg, blur_m=cfg.blur_n, blur_n=cfg.blur_m)
    rep = search_blur(ztransform(transpose(img)), cfg_v, known.get(Axis.U))
    candidates = [replace(c, h=c.h.T.copy()) for c in rep.candidates]
    best = None
    if rep.best is not None:
        best = candidates[rep.candidates.index(rep.best)]
    return replace(
        rep, blur_m=cfg.blur_m, blur_n=cfg.blur_n, axis=Axis.U, candidates=candidates, best=best
    )
