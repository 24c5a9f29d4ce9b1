"""Change-point detection for panel data: CUSUM-type statistics calibrated
by block bootstrap, with data-adaptive block-length selection, a simulation
data generator, and a Monte Carlo harness."""

# each public name is declared once, in its module's __all__
from . import blocklen, bootstrap, cpt, dgp, errors, mc, panel, stats
from .blocklen import *
from .bootstrap import *
from .cpt import *
from .dgp import *
from .errors import *
from .mc import *
from .panel import *
from .stats import *

__version__ = "0.1.0"

__all__ = [
    *panel.__all__, *stats.__all__, *blocklen.__all__, *bootstrap.__all__,
    *cpt.__all__, *dgp.__all__, *mc.__all__, *errors.__all__, "__version__",
]
