"""Model-space sampling numerics.

Inner-function phases, phase-crossing sampling grids, oversampled
interpolation with polynomially decaying kernels, and empirical
certification of window-density embedding and derivative-norm bounds.
"""

from .inner import BlaschkeZero, InnerFunctionSpec  # noqa: F401

__version__ = "0.1.0"
