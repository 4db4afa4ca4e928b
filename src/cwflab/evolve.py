"""Split-operator propagation.

``propagate`` advances a 1-D or 2-D state under H = sum_i p_i^2/2m_i + V,
in units hbar = m_i = 1 (so H = sum_i p_i^2/2 + V), with Strang splitting

    exp(-i V dt/2) exp(-i T dt) exp(-i V dt/2)

(kinetic factor applied spectrally, one FFT per axis), second-order
accurate in dt and exactly norm-preserving up to FFT rounding.
"""

import dataclasses

import numpy as np

from .errors import ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D


def free_potential(*grids) -> np.ndarray:
    return np.zeros(tuple(g.n_points for g in grids))


def harmonic_potential(grid: Grid1D, omega: float, center: float = 0.0) -> np.ndarray:
    return 0.5 * omega**2 * (grid.points - center) ** 2


def strang_step(wf, potential: np.ndarray, dt: float):
    """psi -> exp(-i V dt/2) exp(-i T dt) exp(-i V dt/2) psi on wf's grids,
    as a function of the amplitudes with its factors built once, here."""
    if dt <= 0:
        raise ValidationError("need dt > 0 and steps >= 0")
    # fft/ifft rather than fftn/ifftn: the n-D pair costs more per 1-D step
    if isinstance(wf, WaveFunction1D):
        grids, fft, ifft = (wf.grid,), np.fft.fft, np.fft.ifft
    elif isinstance(wf, WaveFunction2D):
        grids, fft, ifft = (wf.grid_x, wf.grid_y), np.fft.fft2, np.fft.ifft2
    else:
        raise ValidationError(f"cannot propagate {type(wf).__name__}")
    potential = np.asarray(potential, dtype=np.float64)
    if potential.shape != tuple(g.n_points for g in grids):
        raise ValidationError("potential does not match the grid")
    exp_v = np.exp(-0.5j * potential * dt)
    kin = sum(k**2 for k in np.ix_(*(g.wavenumbers for g in grids)))
    exp_k = np.exp(-0.5j * dt * kin)
    return lambda psi: ifft(exp_k * fft(psi * exp_v)) * exp_v


def propagate(wf, potential: np.ndarray, dt: float, steps: int):
    """Advance wf by steps * dt in the potential (an array on wf's grid);
    returns a new state."""
    if steps < 0:
        raise ValidationError("need dt > 0 and steps >= 0")
    step, psi = strang_step(wf, potential, dt), wf.amplitudes
    for _ in range(steps):
        psi = step(psi)
    return dataclasses.replace(wf, amplitudes=psi)
