"""Uniform periodic grids and discretized wave functions.

Conventions
-----------
``Grid1D`` holds n points x_j = x_min + j*dx with dx = (x_max - x_min)/n;
the right endpoint is excluded (periodic wrap-around). Inner products use
the cell measure dx:

    <a|b> = sum_j conj(a_j) b_j dx

Units are hbar = m = 1 throughout, so momentum and wavenumber coincide.
``to_momentum`` uses the unitary convention

    psi~(p) = (2 pi)**-1/2 * sum_j exp(-i p x_j) psi(x_j) dx

so Parseval holds exactly on the grid. The momentum grid is the FFT
conjugate lattice returned in ascending order (dp = 2 pi / (n dx)).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, NormalizationError, OffGridError, ValidationError

NORM_TOL = 1e-10
NORM_TAGS = ("normalized", "unnormalized")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n_points cells."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValidationError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8 or not _is_power_of_two(self.n_points):
            raise ValidationError(f"n_points must be a power of two >= 8, got {self.n_points}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers of the FFT bins, in np.fft order."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.flags.writeable = False
        return k

    def conjugate(self) -> "Grid1D":
        """The FFT-conjugate momentum grid (ascending order)."""
        dp = 2.0 * np.pi / (self.n_points * self.dx)
        p_min = -0.5 * self.n_points * dp
        return Grid1D(p_min, p_min + self.n_points * dp, self.n_points)

    def index_of(self, x: float) -> int:
        """Index of the grid point nearest to x; x must lie in [x_min, x_max)."""
        if not (self.x_min <= x < self.x_max):
            raise OffGridError(f"{x} outside [{self.x_min}, {self.x_max})")
        return min(int(round((x - self.x_min) / self.dx)), self.n_points - 1)


def _check_tag(tag: str):
    if tag not in NORM_TAGS:
        raise ValidationError(f"norm_tag must be one of {NORM_TAGS}, got {tag!r}")


def _freeze(psi) -> np.ndarray:
    arr = np.asarray(psi, dtype=np.complex128).copy()
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("amplitudes contain non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WaveFunction1D:
    grid: Grid1D
    amplitudes: np.ndarray
    norm_tag: str = "unnormalized"

    def __post_init__(self):
        _check_tag(self.norm_tag)
        arr = _freeze(self.amplitudes)
        if arr.shape != (self.grid.n_points,):
            raise ValidationError(f"amplitudes shape {arr.shape} does not match grid ({self.grid.n_points},)")
        object.__setattr__(self, "amplitudes", arr)
        if self.norm_tag == "normalized":
            n2 = float(np.sum(np.abs(arr) ** 2) * self.grid.dx)
            if abs(n2 - 1.0) > NORM_TOL:
                raise NormalizationError(f"|psi|^2 integrates to {n2!r}, not 1 within {NORM_TOL}")

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.density()) * self.grid.dx))


@dataclass(frozen=True)
class WaveFunction2D:
    grid_x: Grid1D
    grid_y: Grid1D
    amplitudes: np.ndarray  # shape (n_x, n_y)
    norm_tag: str = "unnormalized"

    def __post_init__(self):
        _check_tag(self.norm_tag)
        arr = _freeze(self.amplitudes)
        shape = (self.grid_x.n_points, self.grid_y.n_points)
        if arr.shape != shape:
            raise ValidationError(f"amplitudes shape {arr.shape} does not match grids {shape}")
        object.__setattr__(self, "amplitudes", arr)
        if self.norm_tag == "normalized":
            n2 = float(np.sum(np.abs(arr) ** 2) * self.grid_x.dx * self.grid_y.dx)
            if abs(n2 - 1.0) > NORM_TOL:
                raise NormalizationError(f"|Psi|^2 integrates to {n2!r}, not 1 within {NORM_TOL}")

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.density()) * self.grid_x.dx * self.grid_y.dx))


def normalize(wf):
    """Return a unit-norm copy tagged 'normalized'."""
    n = wf.norm()
    if n == 0.0:
        raise NormalizationError("cannot normalize the zero state")
    if isinstance(wf, WaveFunction1D):
        return WaveFunction1D(wf.grid, wf.amplitudes / n, "normalized")
    return WaveFunction2D(wf.grid_x, wf.grid_y, wf.amplitudes / n, "normalized")


def momentum_fft(amplitudes: np.ndarray, grid: Grid1D) -> np.ndarray:
    """dx * sum_j exp(-i k x_j) a_j along axis 0, wavenumbers k ascending.

    Further axes are transformed column by column. Dividing by
    sqrt(2 pi) gives the unitary transform at p = k.
    """
    phase = np.exp(-1j * grid.wavenumbers * grid.x_min)
    phase = phase.reshape((-1,) + (1,) * (amplitudes.ndim - 1))
    spectrum = np.fft.fft(amplitudes, axis=0) * phase * grid.dx
    return np.fft.fftshift(spectrum, axes=0)


def to_momentum(wf: WaveFunction1D) -> WaveFunction1D:
    """Unitary position -> momentum transform; result on grid.conjugate()."""
    amp = momentum_fft(wf.amplitudes, wf.grid) / np.sqrt(2.0 * np.pi)
    return WaveFunction1D(wf.grid.conjugate(), amp, wf.norm_tag)


def to_position(wf_p: WaveFunction1D, grid: Grid1D) -> WaveFunction1D:
    """Inverse of to_momentum back onto the given position grid."""
    gp = wf_p.grid
    if grid.n_points != gp.n_points:
        raise GridMismatchError("position grid size does not match momentum grid")
    expected = grid.conjugate()
    if not (np.isclose(gp.x_min, expected.x_min) and np.isclose(gp.x_max, expected.x_max)):
        raise GridMismatchError("momentum grid is not conjugate to the given position grid")
    phase = np.exp(+1j * grid.wavenumbers * grid.x_min)
    spec = np.fft.ifftshift(wf_p.amplitudes) * phase * np.sqrt(2.0 * np.pi) / grid.dx
    return WaveFunction1D(grid, np.fft.ifft(spec), wf_p.norm_tag)


def conditional_slice(psi: WaveFunction2D, y: float) -> WaveFunction1D:
    """chi(x) = Psi(x, y_nearest): the x-row at the grid point nearest y.

    The slice is returned unnormalized; y must lie within [y_min, y_max).
    """
    j = psi.grid_y.index_of(y)
    return WaveFunction1D(psi.grid_x, psi.amplitudes[:, j], "unnormalized")
