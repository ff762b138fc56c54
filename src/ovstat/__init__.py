"""Exact joint laws, densities, regressions and parent reconstruction for
order statistics from overlapping samples."""

__version__ = "0.1.0"

from .combinatorics import *
from .curve import *
from .density import *
from .mc import *
from .overlap import *
from .parent import *
from .reconstruct import *
from .regression import *

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *curve.__all__,
    *density.__all__,
    *mc.__all__,
    *overlap.__all__,
    *parent.__all__,
    *reconstruct.__all__,
    *regression.__all__,
]
