"""Numerical toolbox for invariant tori of reversible systems whose fixed
space is too small for persistence without external parameters.

The pieces, bottom up: trigonometric/Fourier-Taylor arithmetic, Diophantine
pair analysis, small-divisor cohomological solvers, reversible linear
algebra and versal unfoldings, the family model with its involution checks,
the Newton normalizer (direct and sigma-promoted routes), and the
frequency-curve persistence pipeline.

The package root exports FourierSeries, NormalizerConfig and
ReversibleFamily; everything else is imported from its own module.
"""

from .fourier import FourierSeries
from .normalizer import NormalizerConfig
from .revsystem import ReversibleFamily

__version__ = "0.1.0"
