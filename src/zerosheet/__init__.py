"""Blind removal of small convolution blurs.

The library models an observed image as the full 2D convolution of a true
image with one or more small kernels, finds a kernel of a hypothesised
size by tracking zeros of the image's z-transform across unit-circle sample
points, and restores the sharp image by spectral division (with a
least-squares fallback).  See the README for the method outline and the
``zerosheet`` CLI for batch use.
"""

__version__ = "0.1.0"

from . import errors, image, restore, search, zpoly
from .errors import *  # noqa: F403
from .image import *  # noqa: F403
from .restore import *  # noqa: F403
from .search import *  # noqa: F403
from .zpoly import *  # noqa: F403

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__"] + [
    name for module in (errors, image, zpoly, search, restore) for name in module.__all__
]
