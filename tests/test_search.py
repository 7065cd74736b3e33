import cmath
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import candidates_equal, exact_model, reports_equal, unit_sum
from zerosheet import (
    Axis,
    AxisError,
    DegenerateCandidateError,
    Image,
    LinearAlgebraError,
    RootFindingError,
    SearchConfig,
    build_system,
    choose_sample_points,
    compute_q,
    convolve,
    elementary_symmetric_coeffs,
    extract_blur,
    matrix_from_image,
    nullspace_min,
    search_blur,
    search_image,
    slice_roots,
    synth_blur,
    synth_image,
    transpose,
    unit_point,
    ztransform,
)
import zerosheet.search
from zerosheet.search import _lex_rank, _track_chain
from zerosheet.zpoly import RootSlice


def make_slice(roots, u=1.0, slopes=0.0):
    """A slice at u whose roots move with the given slopes dv/du (flat
    sheets by default, so prediction leaves every root where it is)."""
    roots = np.asarray(roots, dtype=complex)
    return RootSlice(
        u=complex(u),
        leading_coeff=1.0 + 0j,
        roots=roots,
        residuals=np.zeros(len(roots)),
        slopes=np.broadcast_to(np.asarray(slopes, dtype=complex), roots.shape),
    )


class TestComputeQ:
    @pytest.mark.parametrize("m,n,q", [(2, 2, 4), (2, 3, 3), (3, 3, 5), (1, 2, 2)])
    def test_values(self, m, n, q):
        assert compute_q(m, n) == q

    def test_axis_error_for_single_column(self):
        with pytest.raises(AxisError):
            compute_q(3, 1)

    def test_dimension_law(self):
        # the homogeneous system is square or tall for every blur shape
        for m in range(1, 9):
            for n in range(2, 9):
                q = compute_q(m, n)
                assert q * n >= m * n + q


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(blur_m=2, blur_n=2)
        assert cfg.base_phase == 0.3 and cfg.phase_step == 0.01
        assert cfg.tol_null == 1e-6 and cfg.tol_real == 1e-6
        assert cfg.tol_track_ratio == 0.5 and cfg.max_combinations == 10**6

    def test_axis_v_needs_n_ge_2(self):
        # an m x 1 blur has no roots in v, so it builds and is searched along u
        cfg = SearchConfig(blur_m=3, blur_n=1, phase_step=0.25)
        rep = search_image(synth_image(10, 10, 2), cfg)
        assert rep.axis is Axis.U
        assert (rep.blur_m, rep.blur_n) == (3, 1)

    def test_axis_u_needs_m_ge_2(self):
        # a 1 x n blur has no roots in u, so it builds and is searched along v
        cfg = SearchConfig(blur_m=1, blur_n=3, phase_step=0.25)
        rep = search_image(synth_image(10, 10, 2), cfg)
        assert rep.axis is Axis.V
        assert (rep.blur_m, rep.blur_n) == (1, 3)

    @pytest.mark.parametrize("axis", [Axis.V, Axis.U])
    def test_one_by_one_has_no_axis(self, axis):
        # neither axis may be offered as the way out, though one more row
        # (u) or column (v) gives the blur a root along that axis
        with pytest.raises(AxisError, match=r"^a 1 x 1 blur has no roots in u or in v"):
            SearchConfig(blur_m=1, blur_n=1)
        m, n = (2, 1) if axis is Axis.U else (1, 2)
        rep = search_image(synth_image(8, 8, 2), SearchConfig(blur_m=m, blur_n=n, phase_step=0.25))
        assert rep.axis is axis

    @pytest.mark.parametrize(
        "kw",
        [
            {"blur_m": 0, "blur_n": 2},
            {"blur_m": 2, "blur_n": 2, "phase_step": 0.0},
            {"blur_m": 2, "blur_n": 2, "phase_step": math.pi / 4},
            {"blur_m": 2, "blur_n": 2, "tol_null": 0.0},
            {"blur_m": 2, "blur_n": 2, "tol_real": 1.5},
            {"blur_m": 2, "blur_n": 2, "max_combinations": 0},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            SearchConfig(**kw)


class TestChooseSamplePoints:
    def test_nominal_phases(self):
        img = synth_image(8, 8, 1)
        cfg = SearchConfig(blur_m=2, blur_n=2, base_phase=0.3, phase_step=0.01)
        chain = choose_sample_points(3, cfg, ztransform(img))
        assert len(chain) == 3
        for s, rs in enumerate(chain):
            assert rs.u == unit_point(cfg.base_phase + s * cfg.phase_step)

    def test_degenerate_base_replaced(self):
        # a (1 + u) factor kills the slice at phase pi; the point moves on
        f = synth_image(10, 10, 3)
        g = convolve(f, Image([[1.0, 1.0], [1.0, 1.0]]))
        cfg = SearchConfig(blur_m=2, blur_n=2, base_phase=math.pi, phase_step=0.01)
        chain = choose_sample_points(4, cfg, ztransform(g))
        assert chain[0] is None and len(chain) == 5
        for s, rs in enumerate(chain[1:], 1):
            assert rs.u == unit_point(cfg.base_phase + s * cfg.phase_step)

    def test_pairwise_distinct(self):
        img = synth_image(9, 7, 2)
        chain = choose_sample_points(5, SearchConfig(blur_m=3, blur_n=3), ztransform(img))
        assert len({rs.u for rs in chain if rs is not None}) == 5

    @staticmethod
    def skip_slot_1(monkeypatch, cfg):
        """Make the roots of sample slot 1 fail to polish."""
        bad = unit_point(cfg.base_phase + cfg.phase_step)
        slice_roots_ = zerosheet.search.slice_roots

        def failing(P, u, guesses=None):
            if u == bad:
                raise RootFindingError("root polishing stalled")
            return slice_roots_(P, u, guesses=guesses)

        monkeypatch.setattr(zerosheet.search, "slice_roots", failing)

    def test_unpolishable_slot_replaced(self, monkeypatch):
        # a slot whose roots cannot be polished is skipped like a degenerate
        # one, and the next slot takes its place
        _, h, g = exact_model(seed=3, fw=12, fh=12, m=2, n=2)
        cfg = SearchConfig(blur_m=2, blur_n=2)
        self.skip_slot_1(monkeypatch, cfg)
        rep = search_blur(ztransform(g), cfg)
        assert rep.sample_phases == tuple(
            cfg.base_phase + s * cfg.phase_step for s in (0, 2, 3, 4)
        )
        assert rep.best is not None
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(h)))) <= 1e-9

    def test_rank_test_points_are_the_reported_phases(self, monkeypatch):
        # the phases the report gives and the points of the slices the rank
        # test runs on are the same points, also with slot 1 skipped
        _, _, g = exact_model(seed=3, fw=12, fh=12, m=2, n=2)
        cfg = SearchConfig(blur_m=2, blur_n=2)
        self.skip_slot_1(monkeypatch, cfg)
        build_system_ = zerosheet.search.build_system
        seen = []

        def recording(roots, points, m, n):
            seen.append(points)
            return build_system_(roots, points, m, n)

        monkeypatch.setattr(zerosheet.search, "build_system", recording)
        rep = search_blur(ztransform(g), cfg)
        assert seen and rep.best is not None
        want = [unit_point(p) for p in rep.sample_phases]
        assert all(points == want for points in seen)


def track_pair(prev, nxt, tol_track_ratio=0.5):
    """Each root's match in ``nxt`` and whether it passed."""
    at_anchors, ok = _track_chain([0, 1], [prev, nxt], tol_track_ratio)
    return at_anchors[1].tolist(), ok.tolist()


# From u = 1 to this point the tangent step is du = 0.1i, so a root with
# slope -10i is predicted 1 further along the real axis, and one with slope
# 10i 1 back.
NEXT_U = unit_point(0.1)


class TestTrackRoots:
    def test_nearest_neighbour(self):
        # each root matches the target nearest its predicted position: the
        # two roots swap places, where matching from where they stood would
        # keep each one in place
        prev = make_slice([0.0, 1.0], slopes=[-10j, 10j])
        nxt = make_slice([0.01, 1.01], u=NEXT_U)
        assert track_pair(prev, nxt) == ([1, 0], [True, True])

    def test_ambiguity_error(self):
        # root 0 lands between two targets, though its nearest neighbour
        # from where it stood would be unambiguous
        prev = make_slice([0.0, 5.0], slopes=[-10j, 0.0])
        nxt = make_slice([0.02, 0.9, 1.1, 5.0], u=NEXT_U)
        _, ok = track_pair(prev, nxt, tol_track_ratio=0.5)
        assert ok == [False, True]

    def test_collision_error(self):
        # roots 0 and 1 pass on their own but are predicted onto the same
        # target, so no combination holding both tracks
        prev = make_slice([0.0, 3.0, 5.0], slopes=[-10j, 18j, 0.0])
        nxt = make_slice([1.1, 4.0, 9.0], u=NEXT_U)
        ends, ok = track_pair(prev, nxt)
        assert ok == [True, True, True] and ends[0] == ends[1] == 0

    def test_non_finite_prediction_fails(self):
        prev = make_slice([0.0, 5.0], slopes=[np.inf, 0.0])
        nxt = make_slice([0.0, 5.0], u=NEXT_U)
        assert track_pair(prev, nxt)[1] == [False, True]

    def test_true_blur_roots_stay_on_sheet(self):
        # at the searches' step 0.32, the tracked image roots follow the
        # blur's own slice roots across points; without the slopes (plain
        # nearest-neighbour matching) the same chain loses them
        f, h, g = exact_model(seed=8, fw=20, fh=20, m=2, n=3)
        Pg, Ph = ztransform(g), ztransform(h)
        base, step = 0.3, 0.32
        chain = [slice_roots(Pg, unit_point(base + j * step)) for j in range(5)]
        hr = slice_roots(Ph, unit_point(base)).roots
        sel = [int(np.argmin(np.abs(chain[0].roots - r))) for r in hr]

        def worst_miss(chain):
            at_anchors, ok = _track_chain(list(range(5)), chain, 0.5)
            if not ok[sel].all() or len(set(at_anchors[-1, sel].tolist())) < len(sel):
                return math.inf
            worst = 0.0
            for j in range(1, 5):
                hr_j = slice_roots(Ph, unit_point(base + j * step)).roots
                tracked = chain[j].roots[at_anchors[j, sel]]
                worst = max(worst, max(min(abs(t - r) for r in hr_j) for t in tracked))
            return worst

        assert worst_miss(chain) <= 1e-6
        flat = [replace(rs, slopes=np.zeros_like(rs.slopes)) for rs in chain]
        assert worst_miss(flat) > 1e-6


class MatchError(Exception):
    """The reference oracle found no unambiguous, injective match."""


def match_selected(predicted, next_roots, selected, tol_track_ratio):
    """Reference oracle: injective nearest-neighbour matching of the selected
    roots' predicted positions, one root after another, as the search did
    per combination before it tracked each root once.  Returns the matched
    indices (selected order preserved) and the worst ambiguity ratio;
    raises MatchError."""
    used: set[int] = set()
    out: list[int] = []
    worst = 0.0
    for i in selected:
        if not np.isfinite(predicted[i]):
            raise MatchError(f"root {i} has no finite prediction")
        d = np.abs(next_roots - predicted[i])
        j_best = int(np.argmin(d))
        d_best = float(d[j_best])
        if len(d) > 1:
            d_second = float(np.delete(d, j_best).min())
        else:
            d_second = math.inf
        if d_second == 0.0:
            raise MatchError(f"root {i} matches a repeated target root")
        ratio = d_best / d_second if math.isfinite(d_second) else 0.0
        if ratio > tol_track_ratio:
            raise MatchError(f"ambiguity ratio {ratio:.3g} for root {i}")
        if j_best in used:
            raise MatchError(f"two selected roots map to target root {j_best}")
        used.add(j_best)
        out.append(j_best)
        worst = max(worst, ratio)
    return tuple(out), worst


def walk_combination(anchors, chain, combo, tol_track_ratio):
    """Reference oracle: carry one combination along the chain with
    ``match_selected``, each step from the roots moved along their slopes by
    the tangent step i u dtheta.  Returns its indices at every anchor, or
    None when matching breaks."""
    selected = tuple(combo)
    at_anchors = [selected]
    current = chain[anchors[0]]
    for j in range(1, len(anchors)):
        for nxt in chain[anchors[j - 1] + 1 : anchors[j] + 1]:
            if nxt is None:
                continue
            dtheta = cmath.phase(nxt.u / current.u)
            with np.errstate(invalid="ignore", over="ignore"):
                predicted = [
                    current.roots[i] + current.slopes[i] * (1j * current.u * dtheta)
                    for i in range(current.count)
                ]
            try:
                selected, _ = match_selected(predicted, nxt.roots, selected, tol_track_ratio)
            except MatchError:
                return None
            current = nxt
        at_anchors.append(selected)
    return at_anchors


@st.composite
def root_chains(draw):
    """Anchored chains of equal-size root sets, with empty slots between
    anchors; entry s lies at u = e^(0.1 i s).  Coordinates on a coarse grid
    make repeated roots and exact distance ties common; small or zero
    offsets from the previous slice make near-collisions and long tracked
    paths common.  Slopes are mostly zero (the prediction stays put) or
    small, sometimes large enough to carry a root past its neighbours, and
    now and then infinite."""
    n = draw(st.integers(1, 6))
    coord = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)
    root = st.builds(complex, coord, coord)
    offset = st.just(0j) | st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
    slope = (
        st.just(0j)
        | st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
        | st.builds(complex, st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
        | st.just(complex(np.inf, 0.0))
    )

    def roots(prev, s):
        slopes = draw(st.lists(slope, min_size=n, max_size=n))
        if prev is None or draw(st.booleans()):
            return make_slice(draw(st.lists(root, min_size=n, max_size=n)), unit_point(0.1 * s), slopes)
        perm = draw(st.permutations(range(n)))
        offsets = draw(st.lists(offset, min_size=n, max_size=n))
        moved = [prev.roots[p] + o for p, o in zip(perm, offsets)]
        return make_slice(moved, unit_point(0.1 * s), slopes)

    chain = [roots(None, 0)]
    anchors = [0]
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(0, 2))):
            s = len(chain)
            chain.append(roots(chain[-1] or chain[anchors[-1]], s) if draw(st.booleans()) else None)
        chain.append(roots(chain[-1] or chain[anchors[-1]], len(chain)))
        anchors.append(len(chain) - 1)
    tol = draw(st.sampled_from([0.2, 0.5, 0.9]))
    return anchors, chain, tol


class TestTrackChain:
    @settings(max_examples=300, deadline=None)
    @given(root_chains())
    def test_matches_per_combination_oracle(self, drawn):
        anchors, chain, tol = drawn
        at_anchors, ok = _track_chain(anchors, chain, tol)
        n = chain[0].count
        for k in range(1, min(n, 3) + 1):
            for combo in itertools.combinations(range(n), k):
                sel = list(combo)
                tracked = ok[sel].all() and len(set(at_anchors[-1, sel].tolist())) == k
                walked = walk_combination(anchors, chain, combo, tol)
                assert tracked == (walked is not None), combo
                if walked is not None:
                    assert [tuple(row) for row in at_anchors[:, sel].tolist()] == walked


class TestEnumerateCombinations:
    """The search walks the combinations of roots that tracked, in
    lexicographic order, and counts each by its rank among all of them."""

    def test_small(self):
        assert [_lex_rank((i,), 4) for i in range(4)] == [0, 1, 2, 3]

    def test_lexicographic_pairs(self):
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [_lex_rank(c, 4) for c in pairs] == list(range(6))

    def test_rank_is_itertools_position(self):
        for n in range(1, 10):
            for k in range(1, min(n, 4) + 1):
                for i, combo in enumerate(itertools.combinations(range(n), k)):
                    assert _lex_rank(combo, n) == i, (n, combo)

    def test_section_scale_counts(self):
        # the last of the 946 pairs and of the 44 single roots of n' = 44
        assert _lex_rank((42, 43), 44) == 945
        assert _lex_rank((43,), 44) == 43

    @staticmethod
    def capped(m, n, cap):
        img = convolve(synth_image(40, 40, 12), synth_blur(m, n, 1012))
        cfg = SearchConfig(blur_m=m, blur_n=n, phase_step=0.32, max_combinations=cap)
        return search_blur(ztransform(img), cfg)

    def test_cap(self):
        # the cap counts every combination in lexicographic order, tracked
        # or not; the kernel's roots rank past the cap, so nothing accepts
        # and the search walks every level: 14 of the first 400 of
        # C(41, 2) = 820 track at one of them, and only those are reported
        rep = self.capped(3, 3, 400)
        assert rep.combinations_total == 820 and rep.truncated
        assert rep.combinations_evaluated == 400 and rep.tracking_failures == 386
        combos = [c.combination for c in rep.candidates]
        assert combos == sorted(combos) and len(combos) == 14
        assert max(_lex_rank(c, 41) for c in combos) < 400
        assert rep.best is None

    def test_cap_hides_kernel_ranked_past_it(self):
        # the 3x3 kernel's roots (12, 14) rank 415 of C(41, 2) = 820, past a
        # cap of 400; under a cap of 700 they are the one combination that
        # tracks at the sample points, where the search accepts and stops
        assert _lex_rank((12, 14), 41) == 415
        assert self.capped(3, 3, 400).best is None
        rep = self.capped(3, 3, 700)
        assert [c.combination for c in rep.candidates] == [(12, 14)]
        assert rep.best.combination == (12, 14) and rep.tracking_failures == 699


def ground_truth_track(g, h, q, base=0.3, step=0.01):
    """The blur's own roots inside the image's slices, per sample point."""
    Pg, Ph = ztransform(g), ztransform(h)
    points, per_point = [], []
    for j in range(q):
        u = unit_point(base + j * step)
        gr = slice_roots(Pg, u).roots
        hr = slice_roots(Ph, u).roots
        idx = [int(np.argmin(np.abs(gr - r))) for r in hr]
        points.append(u)
        per_point.append(gr[idx])
    return per_point, points


class TestBuildSystem:
    def test_shape_2x2(self):
        f, h, g = exact_model(seed=4, fw=10, fh=10, m=2, n=2)
        roots, points = ground_truth_track(g, h, q=4)
        A = build_system(roots, points, 2, 2)
        assert A.shape == (8, 8)

    def test_shape_3x3(self):
        f, h, g = exact_model(seed=4, fw=10, fh=10, m=3, n=3)
        roots, points = ground_truth_track(g, h, q=5)
        A = build_system(roots, points, 3, 3)
        assert A.shape == (15, 14)

    def test_true_null_vector(self):
        # the stacked true blur entries and implied scales annihilate A
        f, h, g = exact_model(seed=9, fw=12, fh=11, m=2, n=3)
        q = compute_q(2, 3)
        roots, points = ground_truth_track(g, h, q)
        A = build_system(roots, points, 2, 3)
        hm = matrix_from_image(h)  # (m, n)[x, y]
        xi = np.zeros(2 * 3 + q, dtype=complex)
        for y in range(3):
            for x in range(2):
                xi[y * 2 + x] = hm[x, y]
        for j, u in enumerate(points):
            xi[6 + j] = sum(hm[x, 3 - 1] * u**x for x in range(2))
        xi /= np.linalg.norm(xi)
        sigma_max = np.linalg.norm(A, 2)
        assert np.max(np.abs(A @ xi)) <= 1e-8 * sigma_max

    def test_row_encoding(self):
        # row (j, y) carries u^x powers in the y-block and -c_y in column mn+j
        A = build_system([np.array([3.0 + 0j])], [2.0 + 0j], 2, 2)
        c = elementary_symmetric_coeffs([3.0 + 0j])
        assert A.shape == (2, 5)
        assert np.allclose(A[0], [1.0, 2.0, 0.0, 0.0, -c[0]])
        assert np.allclose(A[1], [0.0, 0.0, 1.0, 2.0, -c[1]])


class TestNullspaceMin:
    def test_identity(self):
        smin, ssec, xi = nullspace_min(np.eye(2, dtype=complex))
        assert smin == pytest.approx(1.0) and ssec == pytest.approx(1.0)
        assert np.linalg.norm(xi) == pytest.approx(1.0)

    def test_repeated_column(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        A = np.hstack([a, a, rng.standard_normal((6, 3))])
        smin, ssec, xi = nullspace_min(A)
        assert smin <= 1e-14 * np.linalg.norm(A, 2)
        assert np.linalg.norm(A @ xi) <= 1e-13 * np.linalg.norm(A, 2)

    def test_random_full_rank_gap(self):
        rng = np.random.default_rng(0)
        for rows, cols in [(8, 8), (15, 14), (9, 9)]:
            for _ in range(25):
                A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                smin, ssec, _ = nullspace_min(A)
                assert smin / ssec > 1e-3

    def test_too_wide(self):
        with pytest.raises(ValueError):
            nullspace_min(np.zeros((3, 5), dtype=complex))

    def test_svd_failure(self):
        with pytest.raises(LinearAlgebraError):
            nullspace_min(np.full((4, 3), np.nan))


class TestExtractBlur:
    CFG = SearchConfig(blur_m=2, blur_n=2)

    def test_phase_removed_and_normalized(self):
        theta = 0.7
        xi = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0], complex) * np.exp(1j * theta)
        cand = extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=0.0, sigma_second=1.0)
        assert np.allclose(cand.h, 0.25)
        assert cand.realness <= 1e-12
        assert cand.accepted and not cand.zero_sum
        assert cand.h.sum() == pytest.approx(1.0)

    def test_imaginary_block_rejected(self):
        xi = np.array([1.0, 1j, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], complex)
        cand = extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=0.0, sigma_second=1.0)
        assert cand.realness == pytest.approx(1.0)
        assert not cand.accepted

    def test_zero_block_error(self):
        xi = np.zeros(8, complex)
        xi[4:] = 1.0
        with pytest.raises(DegenerateCandidateError):
            extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=0.0, sigma_second=1.0)

    def test_zero_sum_fallback(self):
        xi = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0], complex)
        cand = extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=0.0, sigma_second=1.0)
        assert cand.zero_sum and not cand.accepted
        assert np.max(np.abs(cand.h)) == pytest.approx(1.0)

    def test_gap_above_tolerance_rejected(self):
        xi = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0], complex)
        cand = extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=1e-3, sigma_second=1.0)
        assert cand.sigma_gap == pytest.approx(1e-3)
        assert not cand.accepted

    def test_block_layout_x_major_within_y(self):
        # h-block order is (x=0,y=0), (x=1,y=0), (x=0,y=1), (x=1,y=1)
        xi = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 1.0, 1.0, 1.0], complex)
        cand = extract_blur(xi, 2, 2, 4, self.CFG, sigma_min=0.0, sigma_second=1.0)
        assert cand.h[0, 0] * 2 == pytest.approx(cand.h[1, 0])
        assert cand.h[0, 1] * 4 / 3 == pytest.approx(cand.h[1, 1])


class TestSearchBlur:
    def test_round_trip_single_blur(self):
        f, h, g = exact_model(seed=3, fw=16, fh=16, m=2, n=2)
        rep = search_blur(ztransform(g), SearchConfig(blur_m=2, blur_n=2))
        accepted = [c for c in rep.candidates if c.accepted]
        assert len(accepted) == 1
        truth = unit_sum(matrix_from_image(h))
        assert np.max(np.abs(rep.best.h - truth)) <= 1e-6
        assert rep.best is not None and rep.best.combination == accepted[0].combination

    def test_best_is_smallest_gap_of_two_kernels(self):
        # two 2x2 blurs in one image: each is a valid 2x2 answer
        seeds = (105, 206)
        g = synth_image(16, 16, 4)
        for seed in seeds:
            g = convolve(g, synth_blur(2, 2, seed))
        rep = search_blur(ztransform(g), SearchConfig(blur_m=2, blur_n=2, phase_step=0.32))
        accepted = [c for c in rep.candidates if c.accepted]
        assert len(accepted) == 2
        for seed in seeds:
            truth = unit_sum(matrix_from_image(synth_blur(2, 2, seed)))
            assert min(np.max(np.abs(c.h - truth)) for c in accepted) <= 1e-9
        assert rep.best is min(accepted, key=lambda c: c.sigma_gap)

    def test_negative_control(self):
        img = synth_image(16, 16, 31)
        rep = search_blur(ztransform(img), SearchConfig(blur_m=2, blur_n=2))
        assert rep.best is None
        assert all(not c.accepted for c in rep.candidates)

    def test_determinism(self):
        _, _, g = exact_model(seed=6, fw=12, fh=12, m=2, n=2)
        P = ztransform(g)
        cfg = SearchConfig(blur_m=2, blur_n=2)
        assert reports_equal(search_blur(P, cfg), search_blur(P, cfg))

    def test_scale_invariance(self):
        _, _, g = exact_model(seed=3, fw=16, fh=16, m=2, n=2)
        cfg = SearchConfig(blur_m=2, blur_n=2, phase_step=0.25)
        rep1 = search_blur(ztransform(g), cfg)
        rep2 = search_blur(ztransform(g.scaled(1000.0)), cfg)
        assert [c.combination for c in rep1.candidates] == [c.combination for c in rep2.candidates]
        assert [c.accepted for c in rep1.candidates] == [c.accepted for c in rep2.candidates]
        for a, b in zip(rep1.candidates, rep2.candidates):
            assert abs(a.sigma_gap - b.sigma_gap) <= 1e-10

    def test_truncation_flag(self):
        _, _, g = exact_model(seed=5, fw=10, fh=10, m=2, n=2)
        cfg = SearchConfig(blur_m=2, blur_n=2, max_combinations=3)
        rep = search_blur(ztransform(g), cfg)
        assert rep.truncated
        assert rep.combinations_evaluated == 3

    def test_requires_axis_v(self):
        # a 3 x 1 blur has no roots in v for search_blur to track
        _, _, g = exact_model()
        with pytest.raises(AxisError):
            search_blur(ztransform(g), SearchConfig(blur_m=3, blur_n=1))

    @staticmethod
    def record_solves(monkeypatch):
        solved = []
        slice_roots_ = zerosheet.search.slice_roots

        def recording(P, u, *args, **kwargs):
            solved.append(u)
            return slice_roots_(P, u, *args, **kwargs)

        monkeypatch.setattr(zerosheet.search, "slice_roots", recording)
        return solved

    def test_each_slice_solved_once(self, monkeypatch):
        # no candidate meets this tol_null, so the search walks all four
        # halving levels: 3 sample points plus 2 + 4 + 8 + 16 midpoints,
        # every point u solved exactly once; some combinations track at no
        # level
        _, _, g = exact_model(seed=1, fw=12, fh=12, m=2, n=3)
        solved = self.record_solves(monkeypatch)
        cfg = SearchConfig(blur_m=2, blur_n=3, phase_step=0.3, tol_null=1e-300)
        rep = search_blur(ztransform(g), cfg)
        assert rep.best is None and rep.tracking_failures > 0
        counts = Counter(complex(u) for u in solved)
        assert len(counts) == rep.q + 30
        assert max(counts.values()) == 1, counts.most_common(3)

    def test_eigen_solves_only_at_sample_points(self, monkeypatch):
        # no candidate meets this tol_null, so the search refines through
        # all four halving levels: 4 sample points plus 3 + 6 + 12 + 24
        # midpoints, each solved once, and none by companion-matrix
        # eigenvalues: the first sample point starts from Newton-polygon
        # guesses, every other slice from the roots of a neighbour
        img = convolve(synth_image(64, 64, 5), synth_blur(2, 2, 6))
        eigen = []
        real_roots = np.roots

        def counting_roots(c):
            eigen.append(len(c))
            return real_roots(c)

        monkeypatch.setattr(np, "roots", counting_roots)
        solved = self.record_solves(monkeypatch)
        rep = search_image(img, SearchConfig(blur_m=2, blur_n=2, phase_step=0.1, tol_null=1e-300))
        assert rep.best is None and rep.tracking_failures > 0
        assert eigen == [] and rep.q == 4
        assert len(solved) == 49

    def test_large_route_solves_without_eigenvalues(self, monkeypatch):
        # the 2x2 deblur of a 128x128 image at step 0.32 finds its kernel at
        # the sample points; the first slot is solved cold, every later one
        # from the roots of the slot before it, and none by eigenvalues
        blur = synth_blur(2, 2, 1012)
        img = convolve(synth_image(128, 128, 12), blur)
        calls = []
        slice_roots_ = zerosheet.search.slice_roots

        def recording(P, u, guesses=None):
            calls.append(guesses)
            return slice_roots_(P, u, guesses=guesses)

        monkeypatch.setattr(zerosheet.search, "slice_roots", recording)
        eigen = []
        real_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: eigen.append(len(c)) or real_roots(c))
        rep = search_image(img, SearchConfig(blur_m=2, blur_n=2, phase_step=0.32))
        assert rep.best is not None
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(blur)))) <= 1e-9
        assert eigen == []
        assert len(calls) == rep.q == 4
        assert calls[0] is None and all(g is not None for g in calls[1:])

    def test_accept_at_sample_points_solves_no_midpoint(self, monkeypatch):
        solved = self.record_solves(monkeypatch)
        _, _, g = exact_model(seed=3, fw=12, fh=12, m=2, n=2)
        rep = search_blur(ztransform(g), SearchConfig(blur_m=2, blur_n=2))
        assert rep.best is not None
        assert len(solved) == rep.q == 4

    def test_blur_free_image_walks_every_level(self, monkeypatch):
        # 4 sample points plus 3 + 6 + 12 + 24 midpoints
        solved = self.record_solves(monkeypatch)
        rep = search_blur(ztransform(synth_image(16, 16, 31)), SearchConfig(blur_m=2, blur_n=2))
        assert rep.best is None and not any(c.accepted for c in rep.candidates)
        assert len(solved) == rep.q + 45 == 49

    def test_stops_at_first_level_that_accepts(self, monkeypatch):
        # the true combination of this 3x3 input first tracks at halving
        # level 3: the search solves the points of the level-3 chain over
        # its 5 sample slots, at even multiples of phase_step / 16, and none
        # of level 4
        solved = self.record_solves(monkeypatch)
        _, h, g = exact_model(seed=46, fw=16, fh=16, m=3, n=3)
        cfg = SearchConfig(blur_m=3, blur_n=3, phase_step=0.3)
        rep = search_blur(ztransform(g), cfg)
        assert rep.best is not None and rep.q == 5
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(h)))) <= 1e-12
        want = [unit_point(cfg.base_phase + s * (cfg.phase_step / 16)) for s in range(0, 65, 2)]
        assert sorted(solved, key=np.angle) == want

    def test_counters_add_up(self):
        _, _, g = exact_model(seed=11, fw=12, fh=12, m=2, n=2)
        rep = search_blur(ztransform(g), SearchConfig(blur_m=2, blur_n=2, phase_step=0.3))
        n_cand = len(rep.candidates)
        assert rep.combinations_evaluated == n_cand + rep.tracking_failures
        assert rep.combinations_evaluated == rep.combinations_total

    def test_one_row_image_has_no_roots(self):
        # the transform has degree 0 in v, so no slice has a root
        img = synth_image(8, 1, 3)
        rep = search_blur(ztransform(img), SearchConfig(blur_m=2, blur_n=2))
        assert rep.n_prime == 0 and rep.best is None
        assert rep.candidates == [] and rep.combinations_total == 0
        assert not rep.sampling_failed


class TestChainEmptySlots:
    """Midpoints next to an empty chain slot.

    The box [[1, 1]] adds the transform factor 1 + u, so the slice at u = -1
    (phase pi) is the zero polynomial and its slot stays empty: either a
    sample point is replaced, or a level-1 midpoint is skipped.  Every
    midpoint whose left neighbour is that slot starts from the roots of its
    right neighbour instead.  No candidate meets the searches' tol_null, so
    they solve the midpoints of all four halving levels.
    """

    STEP = 0.32

    def search(self, monkeypatch, base_phase):
        blur = synth_blur(2, 2, 101)
        img = convolve(convolve(synth_image(24, 24, 1), blur), Image([[1.0, 1.0]]))
        calls = []
        slice_roots_ = zerosheet.search.slice_roots

        def recording(P, u, guesses=None):
            # [point, guesses, slice]; the slice stays None when solving raises
            call = [u, guesses, None]
            calls.append(call)
            call[2] = slice_roots_(P, u, guesses=guesses)
            return call[2]

        monkeypatch.setattr(zerosheet.search, "slice_roots", recording)
        cfg = SearchConfig(
            blur_m=2, blur_n=2, base_phase=base_phase, phase_step=self.STEP, tol_null=1e-300
        )
        rep = search_image(img, cfg)
        assert rep.best is None
        # the true combination is still the one the default tol_null accepts
        (true,) = [c for c in rep.candidates if c.combination == (0,)]
        assert true.sigma_gap <= 1e-6 and true.realness <= 1e-6
        assert np.max(np.abs(true.h - unit_sum(matrix_from_image(blur)))) <= 1e-12
        assert all(abs(p - math.pi) > 1e-9 for p in rep.sample_phases)
        return rep, calls

    @staticmethod
    def solved_at(calls, phase):
        hits = [c for c in calls if abs(c[0] - unit_point(phase)) <= 1e-12]
        assert len(hits) == 1, phase
        return hits[0]

    def assert_right_neighbour_starts(self, calls, phases):
        # the midpoint at pi + d starts from the slice at pi + 2d
        for d in phases:
            _, guesses, _ = self.solved_at(calls, math.pi + d)
            assert guesses is self.solved_at(calls, math.pi + 2 * d)[2].roots, d

    def test_replaced_sample_point(self, monkeypatch):
        rep, calls = self.search(monkeypatch, math.pi - self.STEP)
        s = self.STEP
        assert rep.sample_phases == pytest.approx(
            [math.pi - s, math.pi + s, math.pi + 2 * s, math.pi + 3 * s], abs=1e-12
        )
        assert self.solved_at(calls, math.pi)[2] is None
        self.assert_right_neighbour_starts(calls, [s / 2, s / 4, s / 8, s / 16])

    def test_degenerate_midpoint(self, monkeypatch):
        rep, calls = self.search(monkeypatch, math.pi - self.STEP / 2)
        s = self.STEP
        assert rep.sample_phases == pytest.approx(
            [math.pi - s / 2 + j * s for j in range(4)], abs=1e-12
        )
        assert self.solved_at(calls, math.pi)[2] is None
        self.assert_right_neighbour_starts(calls, [s / 4, s / 8, s / 16])


class TestSearchImage:
    def test_axis_u_column_blur(self):
        f = synth_image(15, 15, 4)
        h = synth_blur(3, 1, 55)  # 3 wide, 1 tall: no roots in v
        g = convolve(f, h)
        cfg = SearchConfig(blur_m=3, blur_n=1, phase_step=0.25)
        rep = search_image(g, cfg)
        assert rep.best is not None
        assert rep.best.h.shape == (3, 1)
        truth = unit_sum(matrix_from_image(h))
        assert np.max(np.abs(rep.best.h - truth)) <= 1e-6
        assert rep.axis is Axis.U

    def test_axis_u_matches_transposed_v_search(self):
        # a tall blur is the wide blur of the transposed image
        f, h, g = exact_model(seed=13, fw=12, fh=12, m=3, n=2)
        rep_u = search_image(g, SearchConfig(blur_m=3, blur_n=2))
        rep_v = search_image(transpose(g), SearchConfig(blur_m=2, blur_n=3))
        assert rep_u.axis is Axis.U and rep_v.axis is Axis.V
        assert rep_u.best is not None
        back = [replace(c, h=c.h.T) for c in rep_v.candidates]
        expected = replace(
            rep_v, blur_m=3, blur_n=2, axis=Axis.U, candidates=back,
            best=back[rep_v.candidates.index(rep_v.best)],
        )
        assert reports_equal(rep_u, expected)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_tall_blurs_found_along_u(self, m):
        # along v these kernels are missed at the default knobs (1 of 12
        # found); along u, with fewer roots per slice, every one is found
        for seed in range(12, 16):
            h = synth_blur(m, 2, 1000 + seed)
            g = convolve(synth_image(40, 40, seed), h)
            rep = search_image(g, SearchConfig(blur_m=m, blur_n=2, phase_step=0.32))
            assert rep.axis is Axis.U
            assert rep.best is not None, seed
            truth = unit_sum(matrix_from_image(h))
            assert np.max(np.abs(rep.best.h - truth)) <= 1e-9, seed


    @pytest.mark.parametrize("zero, m, axis", [(2, 2, Axis.V), (3, 2, Axis.V), (2, 3, Axis.U)])
    def test_zero_border_solves_without_eigenvalues(self, monkeypatch, zero, m, axis):
        # k zero top rows (zero left columns for a U search, which runs on
        # the transposed image) make the k lowest coefficients of every
        # slice exactly 0: a k-fold root at 0, split off before Aberth,
        # whose k starts at 0 would otherwise divide 0 by 0 and send every
        # slice to the eigenvalues
        pixels = synth_image(40, 40, 12).pixels.copy()
        if axis is Axis.V:
            pixels[:zero] = 0.0
        else:
            pixels[:, :zero] = 0.0
        h = synth_blur(m, 2, 1012)
        eigen = []
        real_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: eigen.append(len(c)) or real_roots(c))
        rep = search_image(convolve(Image(pixels), h),
                           SearchConfig(blur_m=m, blur_n=2, phase_step=0.32))
        assert eigen == [] and rep.axis is axis
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(h)))) <= 1e-9
        assert rep.slices
        assert all(np.count_nonzero(roots == 0) == zero for roots in rep.slices.values())


class TestPredictedTracking:
    """Searches at step 0.32 with default knobs, on
    ``synth_image(N, N, seed)`` convolved with ``synth_blur(m, n, 1000 +
    seed)``, that matching the roots' predicted positions decides."""

    @staticmethod
    def search(seed, m, n, size):
        h = synth_blur(m, n, 1000 + seed)
        g = convolve(synth_image(size, size, seed), h)
        return search_image(g, SearchConfig(blur_m=m, blur_n=n, phase_step=0.32)), h

    @pytest.mark.parametrize("seed", [12, 14])
    def test_square_kernels_found(self, seed):
        # nearest-neighbour matching missed both: the kernel's tracks jumped
        # between zero sheets at every halving level
        rep, h = self.search(seed, 3, 3, 64)
        assert rep.best is not None
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(h)))) <= 1e-9

    def test_combination_retested_on_new_roots(self, monkeypatch):
        # at a coarse level the kernel's tracks jump a sheet, so its first
        # rank test runs on wrong roots and rejects; a finer level ends its
        # tracks on other sample-point roots, tests it again and accepts,
        # and the report keeps that latest test
        tests = Counter()
        extract_blur_ = zerosheet.search.extract_blur

        def counting(*args, **kwargs):
            cand = extract_blur_(*args, **kwargs)
            tests[cand.combination] += 1
            return cand

        monkeypatch.setattr(zerosheet.search, "extract_blur", counting)
        rep, h = self.search(13, 4, 3, 40)
        assert rep.best is not None and tests[rep.best.combination] == 2
        assert np.max(np.abs(rep.best.h - unit_sum(matrix_from_image(h)))) <= 1e-9
        assert [c for c in rep.candidates if c.combination == rep.best.combination] == [rep.best]

    def test_sharp_images_accept_nothing(self):
        for seed in range(12, 16):
            for size in (40, 64):
                for m, n in [(2, 2), (2, 3), (3, 3)]:
                    cfg = SearchConfig(blur_m=m, blur_n=n, phase_step=0.32)
                    rep = search_image(synth_image(size, size, seed), cfg)
                    assert rep.best is None and not any(c.accepted for c in rep.candidates)
