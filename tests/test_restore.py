import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    PROTOCOL_SIZES,
    exact_model,
    images_close,
    protocol_config,
    protocol_data,
    unit_sum,
)
import zerosheet.restore
import zerosheet.search
import zerosheet.zpoly
from zerosheet import (
    Axis,
    AxisError,
    DegenerateBlurError,
    DivisionUnstableError,
    Image,
    NoBlurFoundError,
    RestoreMethod,
    SearchConfig,
    convolve,
    least_squares_restore,
    matrix_from_image,
    pipeline,
    remove_blur,
    restore_with_fallback,
    search_image,
    spectral_restore,
    synth_blur,
    synth_image,
)


class TestSpectralRestore:
    def test_identity_blur(self):
        g = synth_image(11, 9, 2)
        res = spectral_restore(g, Image([[1.0]]))
        assert images_close(res.image, g, 1e-12)
        assert res.forward_residual <= 1e-12
        assert res.method is RestoreMethod.SPECTRAL

    def test_round_trip_40x40(self):
        f = synth_image(40, 40, 19)
        h = synth_blur(2, 2, 523)
        h = Image(h.pixels / h.pixels.sum())  # entries in (0, 1], unit sum
        g = convolve(f, h)
        res = spectral_restore(g, h)
        assert res.image.pixels.shape == f.pixels.shape
        assert np.max(np.abs(res.image.pixels - f.pixels)) <= 1e-8
        assert res.forward_residual <= 1e-8

    def test_difference_blur_unstable(self):
        g = convolve(synth_image(8, 8, 1), Image([[1.0, -1.0]]))
        with pytest.raises(DivisionUnstableError) as exc:
            spectral_restore(g, Image([[1.0, -1.0]]))
        assert exc.value.min_h_on_grid < 1e-9

    def test_result_dims(self):
        f, h, g = exact_model(seed=21, fw=9, fh=7, m=3, n=2)
        res = spectral_restore(g, h)
        assert (res.image.width, res.image.height) == (g.width - h.width + 1, g.height - h.height + 1)
        assert res.min_H_on_grid > 0

    def test_zero_blur_rejected(self):
        g = synth_image(5, 5, 1)
        with pytest.raises(DegenerateBlurError):
            spectral_restore(g, Image([[0.0, 0.0]]))

    def test_blur_larger_than_image(self):
        with pytest.raises(ValueError):
            spectral_restore(synth_image(3, 3, 1), synth_image(5, 5, 2))


class TestLeastSquaresRestore:
    def test_identity_blur(self):
        g = synth_image(7, 6, 4)
        res = least_squares_restore(g, Image([[1.0]]))
        assert images_close(res.image, g, 1e-10)
        assert res.method is RestoreMethod.LEAST_SQUARES

    def test_matches_spectral_on_exact_model(self):
        for seed in (2, 5, 9):
            f, h, g = exact_model(seed=seed, fw=9, fh=8, m=2, n=2)
            rs = spectral_restore(g, h)
            rl = least_squares_restore(g, h)
            assert rs.min_H_on_grid > 1e-6
            assert np.max(np.abs(rs.image.pixels - rl.image.pixels)) <= 1e-8

    def test_difference_blur_recovered(self):
        f = synth_image(10, 9, 6)
        h = Image([[1.0, -1.0]])
        g = convolve(f, h)
        res = least_squares_restore(g, h)
        assert np.max(np.abs(res.image.pixels - f.pixels)) <= 1e-9

    def test_perturbation_stability(self):
        rng = np.random.default_rng(5)
        f, h, g = exact_model(seed=2, fw=9, fh=9, m=2, n=2)
        noisy = Image(g.pixels * (1.0 + 1e-12 * rng.standard_normal(g.pixels.shape)))
        res = least_squares_restore(noisy, h)
        resid = np.linalg.norm(convolve(res.image, h).pixels - noisy.pixels)
        assert resid <= 1e-10 * np.linalg.norm(noisy.pixels)


def dense_least_squares(g: Image, h: Image) -> np.ndarray:
    """Oracle: the normal equations of the dense full-convolution matrix.

    Column y * fw + x of T is the observed image of a unit impulse at
    (x, y) of the fh x fw sharp image, flattened row-major.
    """
    hh, hw = h.pixels.shape
    fh, fw = g.height - hh + 1, g.width - hw + 1
    T = np.zeros((g.height * g.width, fh * fw))
    cols_x = np.arange(fw)
    for b in range(hh):
        for a in range(hw):
            for y in range(fh):
                T[(y + b) * g.width + cols_x + a, y * fw + cols_x] += h.pixels[b, a]
    return np.linalg.solve(T.T @ T, T.T @ g.samples).reshape(fh, fw)


# 2x2, h00 + h11 = h10 + h01: the transform vanishes at (u, v) = (-1, -1),
# a point of every even-sized DFT grid, and the kernel is not separable.
GRID_NULL = Image([[0.25, 0.5], [0.375, 0.625]])


def oracle_cases():
    kernels = [synth_blur(m, n, 300 + 10 * m + n)
               for m, n in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))]
    kernels += [Image([[1.0, -1.0]]), GRID_NULL]
    for i, h in enumerate(kernels):
        f = synth_image(9 + i % 3, 8 + i % 2, 40 + i)
        for noise in (0.0, 1e-8, 1e-4):
            yield pytest.param(f, h, noise, id=f"{h.width}x{h.height}-k{i}-noise{noise:g}")


class TestLeastSquaresOracle:
    @pytest.mark.parametrize("f,h,noise", oracle_cases())
    def test_agrees_with_dense_normal_equations(self, f, h, noise):
        g = convolve(f, h)
        rng = np.random.default_rng(7)
        scale = noise * np.max(np.abs(g.pixels))
        g = Image(g.pixels + scale * rng.standard_normal(g.pixels.shape))
        oracle = dense_least_squares(g, h)
        got = least_squares_restore(g, h).image.pixels
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_grid_null_kernel_is_unstable_for_division(self):
        g = convolve(synth_image(9, 9, 1), GRID_NULL)
        with pytest.raises(DivisionUnstableError):
            spectral_restore(g, GRID_NULL)

    def test_zero_observed_image_restores_to_zeros(self):
        g = Image(np.zeros((9, 10)))
        h = synth_blur(2, 3, 17)
        res = least_squares_restore(g, h)
        assert np.array_equal(dense_least_squares(g, h), np.zeros((7, 9)))
        assert np.array_equal(res.image.pixels, np.zeros((7, 9)))
        assert res.forward_residual == 0.0

    def test_memory_linear_in_pixels(self):
        # 64 x 64 observed, 63 x 63 unknowns: a dense operator alone is
        # 4096 x 3969 doubles, 130 MB
        f = synth_image(63, 63, 8)
        g = convolve(f, GRID_NULL)
        tracemalloc.start()
        try:
            res = least_squares_restore(g, GRID_NULL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
        assert np.max(np.abs(res.image.pixels - f.pixels)) <= 1e-9 * np.max(f.pixels)


def count_convolve(monkeypatch) -> list:
    """Record each call that restore makes to ``convolve``."""
    calls = []
    real = zerosheet.restore.convolve

    def counting(f, h):
        calls.append(f.pixels.shape)
        return real(f, h)

    monkeypatch.setattr(zerosheet.restore, "convolve", counting)
    return calls


class TestWarmStart:
    # Division on a padded grid is exact on noise-free data, so CGLS has
    # next to nothing left to do.
    @pytest.mark.parametrize("f,h", [
        pytest.param(synth_image(63, 63, 8), GRID_NULL, id="63x63-grid-null"),
        pytest.param(synth_image(127, 127, 3), Image(np.array([[187, 232], [193, 238]]) / 256),
                     id="127x127-grid-null"),
    ])
    def test_grid_null_kernel_takes_few_convolutions(self, monkeypatch, f, h):
        g = convolve(f, h)
        calls = count_convolve(monkeypatch)
        res = least_squares_restore(g, h)
        assert len(calls) <= 8
        assert np.max(np.abs(res.image.pixels - f.pixels)) <= 1e-9 * np.max(f.pixels)
        assert res.min_H_on_grid < 1e-9
        assert res.method is RestoreMethod.LEAST_SQUARES

    def test_no_stable_grid_starts_from_zeros_without_warning(self):
        # the transform of [[1, -1]] vanishes at DC, a point of every grid
        f = synth_image(9, 8, 3)
        h = Image([[1.0, -1.0]])
        g = convolve(f, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = least_squares_restore(g, h).image.pixels
        oracle = dense_least_squares(g, h)
        assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_image_outside_the_range_restores_to_zeros(self):
        # alternating columns: convolve(f, [[1, 1]]) has no component along
        # them, so the least-squares answer is zero, while division on an odd
        # grid width, where [[1, 1]] has no zero, returns rounding noise
        h = Image([[1.0, 1.0]])
        g = Image(np.tile([1.0, -1.0, 1.0, -1.0, 1.0], (3, 1)))
        res = least_squares_restore(g, h)
        assert np.array_equal(res.image.pixels, np.zeros((3, 4)))

    @pytest.mark.parametrize("weight", [
        pytest.param(0.0, id="left-null"),
        # the start then fits g better than zeros, but with a larger gradient
        pytest.param(3.0, id="left-null-plus-small-in-range"),
    ])
    def test_start_worse_than_zeros_is_dropped(self, monkeypatch, weight):
        # g is mostly the observed image least fitted by any sharp one: the
        # division's start is far off, and CGLS from it cannot meet a stop
        # test scaled by the small ||A^T g|| before the iteration cap.  With
        # the start dropped, CGLS runs as from zeros, plus the (at most two)
        # convolutions that tried the start.
        h = synth_blur(2, 3, 17)
        hh, hw = h.pixels.shape
        gh, gw = 12, 11
        fh, fw = gh - hh + 1, gw - hw + 1
        T = np.zeros((gh * gw, fh * fw))
        for k in range(fh * fw):
            T[:, k] = convolve(Image(np.eye(1, fh * fw, k).reshape(fh, fw)), h).samples
        U, _, Vt = np.linalg.svd(T)
        g = Image(100.0 * (U[:, -1] + weight * T @ Vt[-1]).reshape(gh, gw))
        calls = count_convolve(monkeypatch)
        got = least_squares_restore(g, h).image.pixels
        warm_calls = len(calls)
        monkeypatch.setattr(zerosheet.restore, "_warm_start", lambda g, h, fh, fw: (None, 0.0))
        calls.clear()
        least_squares_restore(g, h)
        assert warm_calls <= len(calls) + 2
        want = 100.0 * weight * Vt[-1].reshape(fh, fw)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(g.pixels))


def complex_transform(h: Image, shape) -> np.ndarray:
    """Reference for the restore layer's transforms: the full complex FFT of
    the blur zero-padded to ``shape``."""
    padded = np.zeros(shape)
    padded[: h.height, : h.width] = h.pixels
    return np.fft.fft2(padded)


def complex_ratio(h: Image, shape) -> float:
    mags = np.abs(complex_transform(h, shape))
    return mags.min() / mags.max()


def complex_division(g: Image, h: Image, shape) -> np.ndarray:
    """g divided by the blur on the grid ``shape`` by complex FFTs, cropped
    to the sharp image's size."""
    fh, fw = g.height - h.height + 1, g.width - h.width + 1
    quotient = np.fft.fft2(g.pixels, s=shape) / complex_transform(h, shape)
    return np.fft.ifft2(quotient).real[:fh, :fw]


def complex_warm_grid(g: Image, h: Image) -> tuple[int, int]:
    """Reference for the warm start's grid: the first padded grid, row by
    row, with the largest full-grid min|H|/max|H|."""
    pad = range(zerosheet.restore._WARM_GRID_PAD + 1)
    grids = [(g.height + dy, g.width + dx) for dy in pad for dx in pad]
    return max(grids, key=lambda shape: complex_ratio(h, shape))


def zsbench_fallback_case() -> tuple[Image, Image]:
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "zsbench"
                                   / "workloads.py"))
    case = workloads["WORKLOADS"]["fallback"].cases()[0]
    return Image(case.observed), Image(case.kernels[0])


# observed sizes (height, width) with every parity of each axis
PARITY_SHAPES = [(40, 40), (41, 40), (40, 41), (41, 43), (127, 128)]


class TestRealTransforms:
    """Restoration transforms only the real half spectrum; it must agree
    with full complex FFTs on even and odd grids."""

    @pytest.mark.parametrize("shape", PARITY_SHAPES, ids=str)
    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (2, 3)])
    def test_spectral_matches_complex_reference(self, shape, m, n):
        f = synth_image(shape[1] - m + 1, shape[0] - n + 1, 5)
        h = synth_blur(m, n, 77)
        g = convolve(f, h)
        res = spectral_restore(g, h)
        want = complex_division(g, h, shape)
        assert np.max(np.abs(res.image.pixels - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(res.min_H_on_grid - complex_ratio(h, shape)) <= 1e-14

    @pytest.mark.parametrize("shape", PARITY_SHAPES, ids=str)
    @pytest.mark.parametrize("h", [GRID_NULL, Image([[0.5, 0.25, 0.25]])], ids=["grid-null", "3x1"])
    def test_warm_start_matches_complex_reference(self, monkeypatch, shape, h):
        f = synth_image(shape[1] - h.width + 1, shape[0] - h.height + 1, 6)
        g = convolve(f, h)
        grids = []
        real = zerosheet.restore._divide
        monkeypatch.setattr(zerosheet.restore, "_divide",
                            lambda g, H, grid, fh, fw: grids.append(grid) or real(g, H, grid, fh, fw))
        x0, min_ratio = zerosheet.restore._warm_start(g, h, f.height, f.width)
        assert grids == [complex_warm_grid(g, h)]
        want = complex_division(g, h, grids[0])
        assert np.max(np.abs(x0 - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(min_ratio - complex_ratio(h, shape)) <= 1e-14

    def test_zsbench_fallback_kernel_routes_to_least_squares(self, monkeypatch):
        g, h = zsbench_fallback_case()
        grids = []
        real = zerosheet.restore._divide
        monkeypatch.setattr(zerosheet.restore, "_divide",
                            lambda g, H, grid, fh, fw: grids.append(grid) or real(g, H, grid, fh, fw))
        res = restore_with_fallback(g, h)
        assert res.method is RestoreMethod.LEAST_SQUARES
        assert res.min_H_on_grid < zerosheet.restore.UNSTABLE_TOL
        assert grids == [complex_warm_grid(g, h)]


class TestFallback:
    def test_fallback_on_grid_zero(self):
        f = synth_image(9, 8, 3)
        h = Image([[1.0, -1.0]])
        g = convolve(f, h)
        res = restore_with_fallback(g, h)
        assert res.method is RestoreMethod.LEAST_SQUARES
        assert np.max(np.abs(res.image.pixels - f.pixels)) <= 1e-9

    def test_no_fallback_when_stable(self):
        f, h, g = exact_model(seed=7, fw=8, fh=8, m=2, n=2)
        assert restore_with_fallback(g, h).method is RestoreMethod.SPECTRAL


class TestRemoveBlur:
    def test_round_trip(self):
        f, h, g = exact_model(seed=3, fw=16, fh=16, m=2, n=2)
        cand, res, rep = remove_blur(g, SearchConfig(blur_m=2, blur_n=2))
        assert np.max(np.abs(cand.h - unit_sum(matrix_from_image(h)))) <= 1e-6
        assert res.forward_residual <= 1e-8
        # restored image equals f up to the removed blur's scale
        ratio = f.pixels.sum() / res.image.pixels.sum()
        assert np.max(np.abs(res.image.pixels * ratio - f.pixels)) <= 1e-6 * np.max(f.pixels)

    def test_no_blur_found(self):
        img = synth_image(14, 14, 23)
        with pytest.raises(NoBlurFoundError) as exc:
            remove_blur(img, SearchConfig(blur_m=2, blur_n=2))
        assert exc.value.report is not None
        assert exc.value.report.best is None

    def test_column_blur_via_axis_u(self):
        f = synth_image(14, 14, 4)
        h = synth_blur(3, 1, 55)
        g = convolve(f, h)
        cfg = SearchConfig(blur_m=3, blur_n=1, phase_step=0.25)
        cand, res, rep = remove_blur(g, cfg)
        assert cand.h.shape == (3, 1)
        assert np.max(np.abs(cand.h - unit_sum(matrix_from_image(h)))) <= 1e-6
        assert (res.image.width, res.image.height) == (f.width, f.height)
        assert res.forward_residual <= 1e-8

    def test_single_blur_at_full_scale(self):
        # one 2x2 blur on a 40x40 image, searched at the default config
        f = synth_image(40, 40, 19)
        h = synth_blur(2, 2, 523)
        g = convolve(f, h)
        cand, res, rep = remove_blur(g, SearchConfig(blur_m=2, blur_n=2))
        assert np.max(np.abs(cand.h - unit_sum(matrix_from_image(h)))) <= 1e-6
        assert res.forward_residual <= 1e-8
        assert sum(1 for c in rep.candidates if c.accepted) == 1


class TestPipeline:
    def test_single_stage_equals_remove_blur(self):
        f, h, g = exact_model(seed=6, fw=12, fh=12, m=2, n=2)
        cfg = SearchConfig(blur_m=2, blur_n=2)
        result = pipeline(g, [(2, 2)], cfg)
        cand, res, rep = remove_blur(g, cfg)
        assert result.ok and len(result.stages) == 1
        assert np.array_equal(result.stages[0].candidate.h, cand.h)
        assert result.stages[0].candidate is result.stages[0].report.best
        assert np.array_equal(result.stages[0].restoration.image.pixels, res.image.pixels)

    def test_partial_on_impossible_size(self):
        f = synth_image(12, 12, 3)
        g = convolve(f, synth_blur(2, 2, 88))
        cfg = protocol_config(2, 2)
        result = pipeline(g, [(2, 2), (3, 4)], cfg)
        assert not result.ok
        assert result.failed_stage == 2
        assert len(result.stages) == 1
        assert result.failure_report is not None

    def test_order_robustness_small(self):
        f = synth_image(12, 12, 31)
        h1 = synth_blur(2, 2, 641)
        h2 = synth_blur(2, 3, 642)
        g = convolve(convolve(f, h1), h2)
        cfg = protocol_config()
        r_a = pipeline(g, [(2, 2), (2, 3)], cfg)
        r_b = pipeline(g, [(2, 3), (2, 2)], cfg)
        assert r_a.ok and r_b.ok
        a = unit_sum(r_a.final_image.pixels)
        b = unit_sum(r_b.final_image.pixels)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_bad_later_size_rejected_before_any_search(self, monkeypatch):
        # a 1 x 1 blur has no roots in u or in v, so stage 2 cannot be
        # configured; that must stop the pipeline before stage 1 searches
        searched = []
        search_image_ = zerosheet.restore.search_image

        def recording(img, cfg):
            searched.append(cfg)
            return search_image_(img, cfg)

        monkeypatch.setattr(zerosheet.restore, "search_image", recording)
        f, h, g = exact_model(seed=6, fw=12, fh=12, m=2, n=2)
        with pytest.raises(AxisError):
            pipeline(g, [(2, 2), (1, 1)], SearchConfig(blur_m=2, blur_n=2))
        assert searched == []

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            pipeline(synth_image(5, 5, 1), [], SearchConfig(blur_m=2, blur_n=2))

    def test_final_image_property(self):
        f, h, g = exact_model(seed=6, fw=12, fh=12, m=2, n=2)
        result = pipeline(g, [(2, 2)], SearchConfig(blur_m=2, blur_n=2))
        assert result.final_image is result.stages[-1].restoration.image


# The protocol's order and one that scans u in its middle stage.
AXIS_CHANGE_SIZES = [(2, 2), (3, 2), (2, 3)]


def record_solves(monkeypatch) -> list[dict]:
    """Patch the solver so that every search the pipeline starts appends a
    record of its input image, the points it sliced and the points it
    solved from Newton-polygon starts.  Appending a record by hand before a
    standalone search charges its solves to that record."""
    records: list[dict] = []
    point = []
    slice_roots = zerosheet.search.slice_roots
    polygon_guesses = zerosheet.zpoly._polygon_guesses
    pipeline_search = zerosheet.restore.search_image

    def slicing(P, u, **kwargs):
        point[:] = [u]
        records[-1]["sliced"].add(u)
        return slice_roots(P, u, **kwargs)

    def polygon(coeffs):
        records[-1]["cold"].append(point[0])
        return polygon_guesses(coeffs)

    def searching(img, cfg, known=None):
        records.append(new_record(img))
        return pipeline_search(img, cfg, known)

    monkeypatch.setattr(zerosheet.search, "slice_roots", slicing)
    monkeypatch.setattr(zerosheet.zpoly, "_polygon_guesses", polygon)
    monkeypatch.setattr(zerosheet.restore, "search_image", searching)
    return records


def new_record(img) -> dict:
    return {"input": img, "sliced": set(), "cold": []}


class TestStageReuse:
    """Later stages start their slices from the roots earlier stages solved,
    less those of the blurs removed since."""

    @pytest.mark.parametrize("sizes", [PROTOCOL_SIZES, AXIS_CHANGE_SIZES], ids=["v", "v-u-v"])
    def test_each_stage_matches_its_standalone_search(self, monkeypatch, sizes):
        records = record_solves(monkeypatch)
        result = pipeline(protocol_data(sizes)[2], sizes, protocol_config())
        assert result.ok and len(records) == 3
        for (m, n), stage, record in zip(sizes, result.stages, records):
            alone = search_image(record["input"], protocol_config(m, n))
            assert stage.report.sample_phases == alone.sample_phases
            assert stage.candidate.combination == alone.best.combination
            assert np.abs(stage.candidate.h - alone.best.h).max() <= 1e-12

    def test_later_stages_start_cold_only_at_new_points(self, monkeypatch):
        records = record_solves(monkeypatch)
        assert pipeline(protocol_data()[2], PROTOCOL_SIZES, protocol_config()).ok
        first, second, third = records
        assert first["cold"]
        # stage 2 (q = 3) samples a subset of stage 1's points (q = 4)
        assert second["cold"] == []
        assert not set(third["cold"]) & (first["sliced"] | second["sliced"])

    def test_a_stage_along_the_other_axis_reuses_nothing(self, monkeypatch):
        # stage 2 scans u after a stage that scanned v: the roots kept so far
        # are in v, so it solves exactly as a search of its input alone does
        records = record_solves(monkeypatch)
        result = pipeline(protocol_data(AXIS_CHANGE_SIZES)[2], AXIS_CHANGE_SIZES,
                          protocol_config())
        assert [s.report.axis for s in result.stages] == [Axis.V, Axis.U, Axis.V]
        in_pipeline = records[1]["cold"]
        records.append(new_record(records[1]["input"]))
        search_image(records[1]["input"], protocol_config(3, 2))
        assert in_pipeline and records[-1]["cold"] == in_pipeline
