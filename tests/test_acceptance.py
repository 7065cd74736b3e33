"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The fixed restoration protocol (seed, blur sizes, sample-point config) lives
in helpers.py; the wide phase step is what gives the rank test its
orders-of-magnitude separation between genuine blur sheets and wrong root
combinations, and criteria 3, 4 and 8 all run on that same data.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    PROTOCOL_SIZES,
    protocol_config,
    protocol_data,
    reports_equal,
    residual_scale,
    unit_sum,
)
from zerosheet import (
    DivisionUnstableError,
    Image,
    RestoreMethod,
    SearchConfig,
    UniPoly,
    compute_q,
    convolve,
    elementary_symmetric_coeffs,
    find_roots,
    least_squares_restore,
    matrix_from_image,
    pipeline,
    restore_with_fallback,
    search_blur,
    slice_in_v,
    slice_roots,
    spectral_restore,
    synth_blur,
    synth_image,
    unit_point,
    ztransform,
)
from zerosheet.zpoly import ROOT_TOL


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


@pytest.fixture(scope="module")
def protocol_run():
    truth, blurs, observed = protocol_data()
    result = pipeline(observed, PROTOCOL_SIZES, protocol_config())
    assert result.ok, f"protocol pipeline failed at stage {result.failed_stage}"
    return truth, blurs, observed, result


def test_criterion_1_q_anchors():
    with criterion(1, "q = 4, 3, 5 for blur sizes 2x2, 2x3, 3x3"):
        assert compute_q(2, 2) == 4
        assert compute_q(2, 3) == 3
        assert compute_q(3, 3) == 5


def test_criterion_2_size_anchors(protocol_run):
    with criterion(2, "convolved image is 44x45; restores through 43x44, 42x42, 40x40"):
        truth, blurs, observed, result = protocol_run
        assert (truth.width, truth.height) == (40, 40)
        assert (observed.width, observed.height) == (44, 45)
        dims = [(s.restoration.image.width, s.restoration.image.height) for s in result.stages]
        assert dims == [(43, 44), (42, 42), (40, 40)]


def test_criterion_3_protocol_round_trip(protocol_run):
    with criterion(3, "three-stage pipeline recovers every blur and the image to 1e-6"):
        truth, blurs, observed, result = protocol_run
        assert len(result.stages) == 3
        for stage, blur in zip(result.stages, blurs):
            want = unit_sum(matrix_from_image(blur))
            assert np.max(np.abs(stage.candidate.h - want)) <= 1e-6
            assert stage.candidate.accepted
        final = result.final_image
        err = np.max(np.abs(unit_sum(final.pixels) - unit_sum(truth.pixels)))
        assert err <= 1e-6


def test_criterion_4_selectivity_and_negative_control(protocol_run):
    with criterion(4, "wrong combinations sit at sigma_gap >= 1e-3; blur-free image stays clean"):
        truth, blurs, observed, result = protocol_run
        for stage in result.stages:
            rep = stage.report
            accepted = [c for c in rep.candidates if c.accepted]
            assert len(accepted) == 1
            wrong = [c for c in rep.candidates if c.combination != accepted[0].combination]
            assert wrong, "selectivity check needs evaluated wrong combinations"
            assert min(c.sigma_gap for c in wrong) >= 1e-3
        # negative control: the sharp image itself, searched at the same
        # config and again at the library defaults (tol_null = 1e-6)
        for cfg in (protocol_config(), SearchConfig(blur_m=2, blur_n=2)):
            rep = search_blur(ztransform(truth), cfg)
            assert rep.best is None
            assert all(not c.accepted for c in rep.candidates)


def test_criterion_5_zero_value_subset():
    with criterion(5, "blur slice roots reappear among image slice roots (20 pairs, 5 points)"):
        worst = 0.0
        for i in range(20):
            fw, fh = 6 + (i % 6), 6 + ((i * 3) % 6)
            m = 2 + (i % 2)
            n = 2 + (1 if (i + 1) % 3 == 0 else 0)
            f = synth_image(fw, fh, 200 + i)
            h = synth_blur(m, n, 700 + i)
            g = convolve(f, h)
            Pg, Ph = ztransform(g), ztransform(h)
            for k in range(5):
                u = unit_point(0.2 + 0.7 * k)
                h_roots = slice_roots(Ph, u).roots
                g_roots = slice_roots(Pg, u).roots
                worst = max(
                    worst,
                    max(min(abs(a - b) for b in g_roots) for a in h_roots),
                )
        assert worst <= 1e-6


def test_criterion_6_vieta_and_residuals(protocol_run):
    with criterion(6, "coefficient/root closure at 1e-8; slice residuals at 1e-9 up to degree 64"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            while True:
                roots = rng.uniform(-1.5, 1.5, k) + 1j * rng.uniform(-1.5, 1.5, k)
                d = np.abs(roots[:, None] - roots[None, :])
                np.fill_diagonal(d, np.inf)
                if k == 1 or d.min() > 0.2:
                    break
            coeffs = elementary_symmetric_coeffs(roots)
            got, _ = find_roots(UniPoly(coeffs))
            assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(roots))) <= 1e-8

        # residual bound at degree 64 and at the protocol's degree 44
        deg64 = ztransform(synth_image(10, 65, 77))
        _, _, observed, _ = protocol_run
        proto = ztransform(observed)
        for P, u in ((deg64, unit_point(0.3)), (proto, unit_point(0.3))):
            p = slice_in_v(P, u)
            rs = slice_roots(P, u)
            assert rs.count == p.effective_degree
            for root in rs.roots:
                horner = abs(np.polyval(p.coeffs[::-1], root))
                assert horner <= ROOT_TOL * residual_scale(p.coeffs, root)


def test_criterion_7_restoration_oracles():
    with criterion(7, "spectral and least-squares restorations agree; grid zero falls back"):
        for i in range(20):
            fw, fh = 7 + (i % 4), 6 + (i % 5)
            m, n = 2 + (i % 2), 2 + ((i + 1) % 2)
            f = synth_image(fw, fh, 100 + i)
            h = synth_blur(m, n, 500 + i)
            g = convolve(f, h)
            rs = spectral_restore(g, h)
            rl = least_squares_restore(g, h)
            assert rs.min_H_on_grid > 1e-6
            assert np.max(np.abs(rs.image.pixels - rl.image.pixels)) <= 1e-8
        # the pure-difference kernel vanishes on the DFT grid
        h = Image([[1.0, -1.0]])
        g = convolve(synth_image(9, 8, 3), h)
        with pytest.raises(DivisionUnstableError):
            spectral_restore(g, h)
        assert restore_with_fallback(g, h).method is RestoreMethod.LEAST_SQUARES


def test_criterion_8_determinism_and_invariance(protocol_run):
    with criterion(8, "reports repeat bit-identically across runs; x1000 scaling is inert"):
        _, _, observed, _ = protocol_run
        P = ztransform(observed)
        cfg = protocol_config(2, 2)
        rep_a = search_blur(P, cfg)
        rep_b = search_blur(P, cfg)
        rep_c = search_blur(P, cfg)
        assert reports_equal(rep_a, rep_b)
        assert reports_equal(rep_a, rep_c)

        rep_scaled = search_blur(ztransform(observed.scaled(1000.0)), cfg)
        accepted_a = [c.combination for c in rep_a.candidates if c.accepted]
        accepted_s = [c.combination for c in rep_scaled.candidates if c.accepted]
        assert accepted_a == accepted_s
        combos_a = [c.combination for c in rep_a.candidates]
        combos_s = [c.combination for c in rep_scaled.candidates]
        assert combos_a == combos_s
        for a, s in zip(rep_a.candidates, rep_scaled.candidates):
            assert abs(a.sigma_gap - s.sigma_gap) <= 1e-10
