"""Exception types shared across the library."""

__all__ = [
    "ZeroSheetError",
    "PgmError",
    "UnsupportedPgmFormat",
    "MalformedPgmHeader",
    "TruncatedPgmData",
    "CsvFormatError",
    "ZeroPolynomialError",
    "RootFindingError",
    "AxisError",
    "SamplingError",
    "LinearAlgebraError",
    "DegenerateCandidateError",
    "DivisionUnstableError",
    "DegenerateBlurError",
    "NoBlurFoundError",
]


class ZeroSheetError(Exception):
    """Base class for all errors raised by this package."""


class PgmError(ZeroSheetError):
    """Base class for PGM file problems."""


class UnsupportedPgmFormat(PgmError):
    """The file is a PNM variant this reader does not handle (e.g. P3)."""


class MalformedPgmHeader(PgmError):
    """The header is not a valid P2/P5 header."""


class TruncatedPgmData(PgmError):
    """The raster ends before width * height samples."""


class CsvFormatError(ZeroSheetError):
    """A CSV image or matrix file could not be parsed."""


class ZeroPolynomialError(ZeroSheetError):
    """Every coefficient of a slice fell below the trim threshold.

    Signals a degenerate sample point: the slice carries no root
    information there and the caller should pick a different point.
    """


class RootFindingError(ZeroSheetError):
    """A root failed to reach the residual tolerance after polishing."""


class AxisError(ZeroSheetError):
    """The requested blur shape has no roots along the scanned axis."""


class SamplingError(ZeroSheetError):
    """Could not assemble the required number of usable sample points."""


class LinearAlgebraError(ZeroSheetError):
    """A dense factorization (SVD) failed to converge."""


class DegenerateCandidateError(ZeroSheetError):
    """A null vector carried an identically zero blur block."""


class DivisionUnstableError(ZeroSheetError):
    """The blur transform nearly vanishes on the DFT grid.

    Spectral division would amplify rounding noise without bound; use
    :func:`zerosheet.restore.least_squares_restore` instead.
    """

    def __init__(self, min_h_on_grid: float):
        self.min_h_on_grid = min_h_on_grid
        super().__init__(
            f"blur transform nearly vanishes on the DFT grid "
            f"(min|H|/max|H| = {min_h_on_grid:.3e}); use least_squares_restore"
        )


class DegenerateBlurError(ZeroSheetError):
    """The blur is effectively zero; no restoration is possible."""


class NoBlurFoundError(ZeroSheetError):
    """The search accepted no candidate of the requested size."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
