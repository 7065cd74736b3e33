import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosheet import (
    CsvFormatError,
    Image,
    MalformedPgmHeader,
    TruncatedPgmData,
    UnsupportedPgmFormat,
    convolve,
    image_from_matrix,
    load_csv,
    load_image,
    load_matrix_csv,
    load_pgm,
    matrix_from_image,
    save_csv,
    save_matrix_csv,
    save_pgm,
    synth_blur,
    synth_image,
    transpose,
)


def small_images(max_dim=6, lo=-50.0, hi=50.0):
    return st.builds(
        lambda w, h, seed: Image(
            np.random.default_rng(seed).uniform(lo, hi, size=(h, w))
        ),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.integers(0, 10**6),
    )


class TestImage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            Image([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Image([1.0, 2.0])

    def test_samples_row_major(self):
        img = Image([[1, 2], [3, 4]])
        assert img.width == 2 and img.height == 2
        assert img.samples.tolist() == [1, 2, 3, 4]
        assert img.pixels[1, 0] == 3  # pixel (x=0, y=1)

    def test_pixels_read_only(self):
        img = Image([[1.0]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 2.0


class TestConvolve:
    def test_identity_kernel(self):
        f = synth_image(5, 7, 1)
        out = convolve(f, Image([[1.0]]))
        assert np.array_equal(out.pixels, f.pixels)

    def test_ones_square(self):
        ones = Image([[1.0, 1.0], [1.0, 1.0]])
        out = convolve(ones, ones)
        assert out.pixels.tolist() == [[1, 2, 1], [2, 4, 2], [1, 2, 1]]

    def test_three_blur_size_chain(self):
        g = synth_image(40, 40, 7)
        for i, (m, n) in enumerate([(2, 2), (2, 3), (3, 3)], 1):
            g = convolve(g, synth_blur(m, n, 7 + i))
        assert (g.width, g.height) == (44, 45)

    @given(small_images(), small_images())
    @settings(max_examples=40, deadline=None)
    def test_size_law_and_commutativity(self, f, h):
        a = convolve(f, h)
        b = convolve(h, f)
        assert (a.width, a.height) == (f.width + h.width - 1, f.height + h.height - 1)
        scale = max(np.max(np.abs(a.pixels)), 1.0)
        assert np.max(np.abs(a.pixels - b.pixels)) <= 1e-12 * scale

    @given(small_images(max_dim=4), small_images(max_dim=4), small_images(max_dim=4))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, f, h1, h2):
        a = convolve(convolve(f, h1), h2)
        b = convolve(f, convolve(h1, h2))
        scale = max(np.max(np.abs(a.pixels)), 1.0)
        assert np.max(np.abs(a.pixels - b.pixels)) <= 1e-12 * scale

    @given(small_images(), small_images())
    @settings(max_examples=40, deadline=None)
    def test_sum_preservation(self, f, h):
        out = convolve(f, h)
        want = f.pixels.sum() * h.pixels.sum()
        scale = max(abs(want), np.abs(f.pixels).sum() * np.abs(h.pixels).sum(), 1.0)
        assert abs(out.pixels.sum() - want) <= 1e-10 * scale


class TestTranspose:
    def test_example(self):
        assert transpose(Image([[1, 2], [3, 4]])).pixels.tolist() == [[1, 3], [2, 4]]

    def test_row_to_column(self):
        row = Image([[1.0, 2.0, 3.0]])
        col = transpose(row)
        assert (col.width, col.height) == (1, 3)

    @given(small_images())
    @settings(max_examples=30, deadline=None)
    def test_involution(self, img):
        assert np.array_equal(transpose(transpose(img)).pixels, img.pixels)


class TestSynth:
    def test_deterministic(self):
        a = synth_image(40, 40, 7)
        b = synth_image(40, 40, 7)
        assert np.array_equal(a.pixels, b.pixels)

    def test_range_and_integrality(self):
        img = synth_image(17, 13, 123)
        assert img.pixels.min() >= 0 and img.pixels.max() <= 255
        assert np.array_equal(img.pixels, np.round(img.pixels))

    def test_single_pixel(self):
        img = synth_image(1, 1, 5)
        assert 0 <= img.pixels[0, 0] <= 255

    def test_seed_changes_image(self):
        assert not np.array_equal(synth_image(8, 8, 1).pixels, synth_image(8, 8, 2).pixels)

    def test_blur_entries_positive(self):
        h = synth_blur(3, 2, 9)
        assert (h.width, h.height) == (3, 2)
        assert h.pixels.min() > 0 and h.pixels.max() <= 1.0


class TestMatrixConversion:
    def test_round_trip_orientation(self):
        mat = np.arange(6, dtype=float).reshape(2, 3)  # (m=2, n=3)
        img = image_from_matrix(mat)
        assert (img.width, img.height) == (2, 3)
        assert np.array_equal(matrix_from_image(img), mat)


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        img = synth_image(9, 5, 3)
        path = tmp_path / "a.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_p5_round_trip_16bit(self, tmp_path):
        img = Image([[0.0, 40000.0], [65535.0, 12345.0]])
        path = tmp_path / "b.pgm"
        save_pgm(img, path, maxval=65535)
        assert np.array_equal(load_pgm(path).pixels, img.pixels)

    def test_p2_load_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# comment line\n3 2\n255\n0 1 2\n# mid comment\n3 4 255\n")
        img = load_pgm(path)
        assert img.pixels.tolist() == [[0, 1, 2], [3, 4, 255]]

    def test_p3_unsupported(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_text("P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(UnsupportedPgmFormat):
            load_pgm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_text("P5\nnot_a_number 3\n255\n")
        with pytest.raises(MalformedPgmHeader):
            load_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(TruncatedPgmData):
            load_pgm(path)

    def test_truncated_p2(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_text("P2\n3 3\n255\n1 2 3 4\n")
        with pytest.raises(TruncatedPgmData):
            load_pgm(path)

    def test_clamp_and_round_half_up(self, tmp_path):
        img = Image([[255.6, 100.5, -3.0, 99.4]])
        path = tmp_path / "h.pgm"
        save_pgm(img, path)
        assert load_pgm(path).pixels.tolist() == [[255, 101, 0, 99]]

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_text("P2\n1 1\n70000\n1\n")
        with pytest.raises(MalformedPgmHeader):
            load_pgm(path)

    def test_p5_sample_above_maxval(self, tmp_path):
        path = tmp_path / "j.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 200]))
        with pytest.raises(MalformedPgmHeader, match="maxval"):
            load_pgm(path)

    @pytest.mark.parametrize("raster", ["100 101", "-1 100"])
    def test_p2_sample_outside_range(self, tmp_path, raster):
        path = tmp_path / "k.pgm"
        path.write_text(f"P2\n2 1\n100\n{raster}\n")
        with pytest.raises(MalformedPgmHeader, match="maxval"):
            load_pgm(path)

    def test_sample_at_maxval_accepted(self, tmp_path):
        path = tmp_path / "l.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
        assert load_pgm(path).pixels.tolist() == [[0.0, 100.0]]


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        img = Image([[1.25, -3.5e-7], [np.pi, 1234567.875]])
        path = tmp_path / "a.csv"
        save_csv(img, path)
        assert np.array_equal(load_csv(path).pixels, img.pixels)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # each row is one "%.17g,..." template; the bytes are those of
        # formatting every value on its own with format(v, ".17g")
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 9)) * 10.0 ** rng.integers(-300, 300, (7, 9))
        a[0, :5] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]
        a[1, :3] = [1.0, -1e16, 123456789012345678.0]

        def reference(rows):
            return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)

        save_csv(Image(a), tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == reference(a).encode("ascii")
        save_matrix_csv(a[:3, :4], tmp_path / "m.csv")
        want = "3,4\n" + reference(a[:3, :4])
        assert (tmp_path / "m.csv").read_bytes() == want.encode("ascii")

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_load_image_dispatch(self, tmp_path):
        img = synth_image(4, 3, 11)
        save_csv(img, tmp_path / "x.csv")
        save_pgm(img, tmp_path / "x.pgm")
        assert np.array_equal(load_image(tmp_path / "x.csv").pixels, img.pixels)
        assert np.array_equal(load_image(tmp_path / "x.pgm").pixels, img.pixels)

    def test_matrix_round_trip(self, tmp_path):
        mat = np.array([[0.5, -1.5, 2.25], [0.125, 3.75, -0.875]])
        path = tmp_path / "m.csv"
        save_matrix_csv(mat, path)
        header = path.read_text().splitlines()[0]
        assert header == "2,3"
        assert np.array_equal(load_matrix_csv(path), mat)

    @pytest.mark.parametrize(
        "loader, text", [(load_csv, "1,inf\n2,3\n"), (load_matrix_csv, "2,2\n1,2\nnan,3\n")]
    )
    def test_non_finite_rejected(self, tmp_path, loader, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=r"line \d: non-finite entry"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_csv, load_matrix_csv])
    def test_error_line_counts_blank_lines(self, tmp_path, loader):
        # the bad entry is on physical line 4, after a blank line 2
        path = tmp_path / "f.csv"
        path.write_text("2,2\n\n1,2\nx,4\n")
        with pytest.raises(CsvFormatError, match=r"^line 4: non-numeric entry$"):
            loader(path)

    def test_matrix_bad_header(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("2,3\n1,2,3\n")
        with pytest.raises(CsvFormatError):
            load_matrix_csv(path)
