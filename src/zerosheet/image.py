"""Image containers, exact 2D convolution, synthetic test data, and file I/O.

Pixel layout: ``Image.pixels`` is a read-only float64 array of shape
(height, width), indexed ``[y, x]``.  The sample at position (x, y) of an
image of width W therefore sits at flat index ``y * W + x``.

Blur kernels move between two representations:

* as an :class:`Image` of width m and height n (used by :func:`convolve`),
* as an (m, n) matrix indexed ``[x, y]`` (used by the search layer, whose
  coefficient grids share that orientation).

:func:`image_from_matrix` / :func:`matrix_from_image` convert between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    MalformedPgmHeader,
    TruncatedPgmData,
    UnsupportedPgmFormat,
)

__all__ = [
    "Image",
    "convolve",
    "transpose",
    "synth_image",
    "synth_blur",
    "image_from_matrix",
    "matrix_from_image",
    "load_pgm",
    "save_pgm",
    "load_csv",
    "save_csv",
    "load_image",
    "load_matrix_csv",
    "save_matrix_csv",
]


@dataclass(frozen=True, eq=False)
class Image:
    """A real-valued 2D pixel grid with double-precision samples."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"image array must be 2D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must contain at least one pixel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def samples(self) -> np.ndarray:
        """Flat row-major view: element ``y * width + x`` is pixel (x, y)."""
        return self.pixels.ravel()

    def scaled(self, s: float) -> "Image":
        return Image(self.pixels * float(s))

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Image({self.width}x{self.height})"


def convolve(f: Image, h: Image) -> Image:
    """Full linear 2D convolution of two images.

    The output has width ``f.width + h.width - 1`` and height
    ``f.height + h.height - 1``; entry (x, y) is the sum of
    ``f(x - a, y - b) * h(a, b)`` over all in-range (a, b).
    """
    fh, fw = f.pixels.shape
    hh, hw = h.pixels.shape
    out = np.zeros((fh + hh - 1, fw + hw - 1))
    for b in range(hh):
        row = h.pixels[b]
        for a in range(hw):
            out[b : b + fh, a : a + fw] += row[a] * f.pixels
    return Image(out)


def transpose(img: Image) -> Image:
    """Swap the two axes: output(x, y) = input(y, x)."""
    return Image(img.pixels.T)


# Knuth's MMIX linear congruential generator:
#   state <- (state * 6364136223846793005 + 1442695040888963407) mod 2**64
# starting from state = seed mod 2**64.  The k-th output byte is the top
# byte (bits 56..63) of the state after the k-th update.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _lcg_bytes(seed: int, count: int) -> np.ndarray:
    state = seed & _LCG_MASK
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        out[i] = state >> 56
    return out


def synth_image(width: int, height: int, seed: int) -> Image:
    """Deterministic pseudo-random test image with integer samples in [0, 255].

    Pixels are drawn row-major from the documented 64-bit LCG above, so the
    same (width, height, seed) triple reproduces the image bit for bit on
    any platform.
    """
    if width < 1 or height < 1:
        raise ValueError("synth_image dimensions must be >= 1")
    vals = _lcg_bytes(seed, width * height)
    return Image(vals.reshape(height, width))


def synth_blur(m: int, n: int, seed: int) -> Image:
    """Deterministic m-wide by n-tall blur kernel with entries in (0, 1].

    Entry values are (byte + 1) / 256 with bytes from the same LCG stream
    as :func:`synth_image`, emitted row-major.
    """
    if m < 1 or n < 1:
        raise ValueError("synth_blur dimensions must be >= 1")
    vals = _lcg_bytes(seed, m * n)
    return Image((vals.reshape(n, m) + 1.0) / 256.0)


def image_from_matrix(mat) -> Image:
    """Build an Image from an (m, n) matrix indexed ``[x, y]``.

    The matrix's first axis becomes the image width, the second its height.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2D")
    return Image(a.T)


def matrix_from_image(img: Image) -> np.ndarray:
    """Inverse of :func:`image_from_matrix`: (width, height) array, ``[x, y]``."""
    return img.pixels.T.copy()


# --------------------------------------------------------------------------
# PGM (P2 ASCII / P5 binary), maxval up to 65535
# --------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"


class _HeaderScanner:
    """Whitespace- and comment-aware tokenizer over PNM bytes."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def _skip_separators(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos : self.pos + 1]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == b"#":
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            else:
                return

    def next_token(self, eof_error) -> bytes:
        self._skip_separators()
        if self.pos >= len(self.data):
            raise eof_error
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            self.pos += 1
        return self.data[start : self.pos]

    def next_int(self, eof_error) -> int:
        tok = self.next_token(eof_error)
        try:
            return int(tok)
        except ValueError:
            raise MalformedPgmHeader(f"expected an integer token, got {tok!r}") from None


def load_pgm(path) -> Image:
    """Read a P2 (ASCII) or P5 (binary) PGM file into an Image.

    Raw integer samples are converted to float64 unchanged; maxval up to
    65535 is accepted (two-byte big-endian samples in P5), and a sample
    outside [0, maxval] is rejected.
    """
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise MalformedPgmHeader("file too short to hold a PNM magic number")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        if magic in (b"P1", b"P3", b"P4", b"P6", b"P7"):
            raise UnsupportedPgmFormat(
                f"unsupported PNM magic {magic.decode('ascii', 'replace')}; "
                "only P2/P5 grayscale is handled"
            )
        raise MalformedPgmHeader(f"not a PNM file (magic {magic!r})")

    scanner = _HeaderScanner(data, 2)
    header_eof = MalformedPgmHeader("header ended before width, height and maxval")
    width = scanner.next_int(header_eof)
    height = scanner.next_int(header_eof)
    maxval = scanner.next_int(header_eof)
    if width < 1 or height < 1:
        raise MalformedPgmHeader(f"invalid dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise MalformedPgmHeader(f"maxval {maxval} outside [1, 65535]")

    count = width * height
    if magic == b"P5":
        if scanner.pos >= len(data) or data[scanner.pos : scanner.pos + 1] not in _WHITESPACE:
            raise MalformedPgmHeader("missing single whitespace byte after maxval")
        start = scanner.pos + 1
        dtype = np.dtype(">u1") if maxval <= 255 else np.dtype(">u2")
        need = count * dtype.itemsize
        raster = data[start : start + need]
        if len(raster) < need:
            raise TruncatedPgmData(
                f"raster holds {len(raster)} bytes, expected {need}"
            )
        arr = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        raster_eof = TruncatedPgmData(f"raster ended before {count} samples")
        vals = []
        for _ in range(count):
            tok = scanner.next_token(raster_eof)
            try:
                vals.append(int(tok))
            except ValueError:
                raise MalformedPgmHeader(f"invalid sample token {tok!r}") from None
        arr = np.array(vals, dtype=np.float64)
    if arr.min() < 0 or arr.max() > maxval:
        raise MalformedPgmHeader(f"sample outside [0, maxval {maxval}]")
    return Image(arr.reshape(height, width))


def _check_maxval(maxval: int) -> None:
    """Reject a PGM maxval that :func:`save_pgm` cannot write."""
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")


def save_pgm(img: Image, path, maxval: int = 255) -> None:
    """Write a binary (P5) PGM file.

    Samples are clamped to [0, maxval] and rounded half-up.  maxval 255
    writes one byte per sample, anything larger two bytes big-endian.
    """
    _check_maxval(maxval)
    q = np.floor(np.clip(img.pixels, 0.0, float(maxval)) + 0.5)
    dtype = np.dtype(">u1") if maxval <= 255 else np.dtype(">u2")
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + q.astype(dtype).tobytes())


# --------------------------------------------------------------------------
# CSV: loss-free interchange for real-valued images and blur matrices
# --------------------------------------------------------------------------


def _csv_rows(a: np.ndarray) -> list[str]:
    """One comma-separated line per row of a 2D array, 17 significant digits
    per entry, each formatted by one ``%`` on a template built once."""
    template = ",".join(["%.17g"] * a.shape[1])
    return [template % tuple(row) for row in a.tolist()]


def save_csv(img: Image, path) -> None:
    """Write one CSV line per image row, 17 significant digits per sample."""
    lines = _csv_rows(img.pixels)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _numbered_lines(path) -> list[tuple[int, str]]:
    """The file's non-blank lines, stripped, with their 1-based line numbers."""
    text = Path(path).read_text(encoding="ascii")
    return [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _parse_row(lineno: int, line: str) -> list[float]:
    try:
        row = [float(tok) for tok in line.split(",")]
    except ValueError:
        raise CsvFormatError(f"line {lineno}: non-numeric entry") from None
    if not all(map(math.isfinite, row)):
        raise CsvFormatError(f"line {lineno}: non-finite entry")
    return row


def load_csv(path) -> Image:
    rows = [_parse_row(lineno, line) for lineno, line in _numbered_lines(path)]
    if not rows:
        raise CsvFormatError("CSV image file holds no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CsvFormatError("CSV rows have inconsistent lengths")
    return Image(np.array(rows))


def load_image(path) -> Image:
    """Load a .csv file as CSV, anything else as PGM."""
    if str(path).lower().endswith(".csv"):
        return load_csv(path)
    return load_pgm(path)


def save_matrix_csv(mat, path) -> None:
    """Write an (m, n) blur matrix with a one-line ``m,n`` header, row-major."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2D")
    m, n = a.shape
    lines = [f"{m},{n}"] + _csv_rows(a)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_matrix_csv(path) -> np.ndarray:
    lines = _numbered_lines(path)
    if not lines:
        raise CsvFormatError("matrix CSV file is empty")
    header = lines[0][1]
    try:
        m, n = (int(tok) for tok in header.split(","))
    except ValueError:
        raise CsvFormatError(f"bad matrix header {header!r}, expected 'm,n'") from None
    if m < 1 or n < 1 or len(lines) != m + 1:
        raise CsvFormatError(f"matrix body does not match header {m},{n}")
    rows = []
    for lineno, line in lines[1:]:
        row = _parse_row(lineno, line)
        if len(row) != n:
            raise CsvFormatError(f"line {lineno}: expected {n} values, got {len(row)}")
        rows.append(row)
    return np.array(rows)
