"""Exception types shared across the package."""


class CwflabError(Exception):
    """Base class for package errors."""


class GridMismatchError(CwflabError):
    """Two objects live on different grids."""


class NormalizationError(CwflabError):
    """A state tagged as normalized is not."""


class OffGridError(CwflabError):
    """A coordinate falls outside the grid domain (or off the lattice
    where exact membership is required)."""


class GridExitError(CwflabError):
    """A trajectory step would leave the grid domain."""


class PostSelectionError(CwflabError):
    """Post-selection overlap below the numerical floor (near-orthogonal)."""


class ValidationError(CwflabError):
    """Bad configuration or arguments supplied by the caller."""
