"""Split-operator propagation and analytic box eigenmodes.

``propagate`` advances a state under H = p^2/2m + V with Strang splitting

    exp(-i V dt/2) exp(-i T dt) exp(-i V dt/2)

(kinetic factor applied spectrally), second-order accurate in dt and
exactly norm-preserving up to FFT rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class Hamiltonian:
    """Kinetic + potential Hamiltonian; masses are per axis."""

    masses: tuple
    potential: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        masses = tuple(float(m) for m in np.atleast_1d(self.masses))
        if any(m <= 0 for m in masses) or not self.hbar > 0:
            raise ValidationError("masses and hbar must be positive")
        v = np.asarray(self.potential, dtype=np.float64).copy()
        if v.ndim != len(masses):
            raise ValidationError(f"potential ndim {v.ndim} does not match {len(masses)} masses")
        v.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "potential", v)


def free_potential(*grids) -> np.ndarray:
    return np.zeros(tuple(g.n_points for g in grids))


def harmonic_potential(grid: Grid1D, omega: float, mass: float = 1.0, center: float = 0.0) -> np.ndarray:
    return 0.5 * mass * omega**2 * (grid.points - center) ** 2


def _kinetic_phase_1d(grid: Grid1D, mass, hbar, dt):
    return np.exp(-0.5j * hbar * dt * grid.wavenumbers**2 / mass)


def propagate(wf, ham: Hamiltonian, dt: float, steps: int):
    """Advance wf by steps * dt under ham; returns a new state."""
    if steps < 0 or dt <= 0:
        raise ValidationError("need dt > 0 and steps >= 0")
    if isinstance(wf, WaveFunction1D):
        if ham.potential.shape != (wf.grid.n_points,):
            raise ValidationError("potential does not match grid")
        exp_v = np.exp(-0.5j * ham.potential * dt / ham.hbar)
        exp_k = _kinetic_phase_1d(wf.grid, ham.masses[0], ham.hbar, dt)
        psi = wf.amplitudes.copy()
        for _ in range(steps):
            psi *= exp_v
            psi = np.fft.ifft(exp_k * np.fft.fft(psi))
            psi *= exp_v
        return WaveFunction1D(wf.grid, psi, wf.norm_tag)
    if isinstance(wf, WaveFunction2D):
        shape = (wf.grid_x.n_points, wf.grid_y.n_points)
        if ham.potential.shape != shape:
            raise ValidationError("potential does not match grids")
        exp_v = np.exp(-0.5j * ham.potential * dt / ham.hbar)
        kx, ky = wf.grid_x.wavenumbers, wf.grid_y.wavenumbers
        kin = kx[:, None] ** 2 / ham.masses[0] + ky[None, :] ** 2 / ham.masses[1]
        exp_k = np.exp(-0.5j * ham.hbar * dt * kin)
        psi = wf.amplitudes.copy()
        for _ in range(steps):
            psi *= exp_v
            psi = np.fft.ifft2(exp_k * np.fft.fft2(psi))
            psi *= exp_v
        return WaveFunction2D(wf.grid_x, wf.grid_y, psi, wf.norm_tag)
    raise ValidationError(f"cannot propagate {type(wf).__name__}")


@dataclass(frozen=True)
class ObservableSpec:
    """Spectral data of an observable on a 1-D grid.

    eigenfunctions has shape (n_eig, n_x) and must be orthonormal under
    the grid measure within 1e-8.
    """

    grid: Grid1D
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.eigenfunctions, dtype=np.complex128).copy()
        a = np.asarray(self.eigenvalues, dtype=np.float64).copy()
        if u.ndim != 2 or u.shape[1] != self.grid.n_points or u.shape[0] != a.size:
            raise ValidationError("eigenfunctions/eigenvalues shapes are inconsistent")
        gram = u.conj() @ u.T * self.grid.dx
        if not np.allclose(gram, np.eye(u.shape[0]), atol=ORTHO_TOL):
            raise ValidationError("eigenfunctions are not orthonormal within 1e-8")
        u.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "eigenfunctions", u)
        object.__setattr__(self, "eigenvalues", a)


def box_eigenbasis(grid: Grid1D, box_min: float, length: float, n_modes: int,
                   mass: float = 1.0, hbar: float = 1.0) -> ObservableSpec:
    """Analytic hard-wall box modes sin(n pi (x-x0)/L) with their energies.

    Box edges must coincide with grid points so the sampled sines are
    exactly orthonormal under the grid measure.
    """
    x = grid.points
    i0 = (box_min - grid.x_min) / grid.dx
    i1 = (box_min + length - grid.x_min) / grid.dx
    if abs(i0 - round(i0)) > 1e-9 or abs(i1 - round(i1)) > 1e-9:
        raise ValidationError("box edges must lie on grid points")
    inside = (x >= box_min) & (x <= box_min + length)
    n = np.arange(1, n_modes + 1)
    u = np.zeros((n_modes, grid.n_points))
    u[:, inside] = np.sqrt(2.0 / length) * np.sin(
        np.outer(n, np.pi * (x[inside] - box_min) / length))
    energies = (n * np.pi * hbar) ** 2 / (2.0 * mass * length**2)
    return ObservableSpec(grid, u, energies)
