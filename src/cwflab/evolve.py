"""Split-operator propagation.

``propagate`` advances a 1-D or 2-D state under H = sum_i p_i^2/2m_i + V
with Strang splitting

    exp(-i V dt/2) exp(-i T dt) exp(-i V dt/2)

(kinetic factor applied spectrally, one FFT per axis), second-order
accurate in dt and exactly norm-preserving up to FFT rounding.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D


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


def propagate(wf, ham: Hamiltonian, dt: float, steps: int):
    """Advance wf by steps * dt under ham; returns a new state."""
    if steps < 0 or dt <= 0:
        raise ValidationError("need dt > 0 and steps >= 0")
    # fft/ifft rather than fftn/ifftn: the n-D pair costs more per 1-D step
    if isinstance(wf, WaveFunction1D):
        grids, fft, ifft = (wf.grid,), np.fft.fft, np.fft.ifft
    elif isinstance(wf, WaveFunction2D):
        grids, fft, ifft = (wf.grid_x, wf.grid_y), np.fft.fft2, np.fft.ifft2
    else:
        raise ValidationError(f"cannot propagate {type(wf).__name__}")
    if ham.potential.shape != tuple(g.n_points for g in grids):
        raise ValidationError("potential does not match the grid")
    exp_v = np.exp(-0.5j * ham.potential * dt / ham.hbar)
    kin = sum(k**2 / m for k, m in
              zip(np.ix_(*(g.wavenumbers for g in grids)), ham.masses))
    exp_k = np.exp(-0.5j * ham.hbar * dt * kin)
    psi = wf.amplitudes.copy()
    for _ in range(steps):
        psi *= exp_v
        psi = ifft(exp_k * fft(psi))
        psi *= exp_v
    return dataclasses.replace(wf, amplitudes=psi)
