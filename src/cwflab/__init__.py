"""cwflab: a numerical laboratory for weak-measurement reconstruction of
Bohmian conditional wave functions and conditional density matrices."""

from .qgrid import (
    Grid1D,
    WaveFunction1D,
    WaveFunction2D,
    conditional_slice,
    normalize,
    to_momentum,
    to_position,
)

__version__ = "0.1.0"

__all__ = [
    "Grid1D",
    "WaveFunction1D",
    "WaveFunction2D",
    "conditional_slice",
    "normalize",
    "to_momentum",
    "to_position",
    "__version__",
]
