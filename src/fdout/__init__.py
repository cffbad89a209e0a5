"""Outlier detection for grid-sampled functional data.

Curves live in :class:`CurveSample` (univariate) or
:class:`MultiCurveSample` (vector-valued); detectors in :mod:`fdout.detect`
and :mod:`fdout.muod` flag magnitude, shape and amplitude outliers; the
building blocks (depth notions, robust multivariate statistics, directional
outlyingness, total variation depth) are importable on their own.

``import fdout`` exports exactly the names in the ``__all__`` of the modules
below; every other name is imported from its module.
"""

import sys

from .fdcore import *
from .errors import *
from .depths import *
from .robust import *
from .dirout import *
from .tvd import *
from .detect import *
from .muod import *
from .simmodels import *

__version__ = "0.1.0"

# read through sys.modules: after the star import, fdout.muod is the function
__all__ = ["__version__"] + [
    name
    for module in ("fdcore", "errors", "depths", "robust", "dirout", "tvd", "detect", "muod",
                   "simmodels")
    for name in sys.modules[f"{__name__}.{module}"].__all__
]

del sys
