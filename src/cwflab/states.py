"""Canonical state builders shared by scenarios and tests.

Gaussians use the amplitude convention

    g(x; c, sigma) = (2 pi sigma^2)**-1/4 exp(-(x-c)^2/(4 sigma^2) + i k0 x)

so |g|^2 has standard deviation sigma. Sampled states are renormalized on
the grid before tagging.
"""

import numpy as np

from .errors import ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D, normalize


def gaussian_1d(grid: Grid1D, center: float = 0.0, sigma: float = 1.0,
                k0: float = 0.0) -> WaveFunction1D:
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    x = grid.points
    amp = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    return normalize(WaveFunction1D(grid, amp))


def two_branch_state(grid_x: Grid1D, grid_y: Grid1D, x_sep: float,
                     sigma_x: float, sigma_y: float) -> WaveFunction2D:
    """(psi_1(x) + psi_2(x)) phi(y) / sqrt(2), the overlapping-pointer state.

    psi_1/psi_2 are the branch_waves Gaussians at +-x_sep/2 (supports on
    x>0 / x<0 for x_sep >> sigma_x); phi is one pointer Gaussian at y = 0.
    """
    psi1, psi2 = branch_waves(grid_x, x_sep, sigma_x)
    phi = gaussian_1d(grid_y, 0.0, sigma_y).amplitudes
    # two outer products, not one of the sum: that fixes the last bits
    amp = (np.outer(psi1.amplitudes, phi)
           + np.outer(psi2.amplitudes, phi)) / np.sqrt(2.0)
    return normalize(WaveFunction2D(grid_x, grid_y, amp))


def branch_waves(grid_x: Grid1D, x_sep: float, sigma_x: float):
    """The two branch wave functions psi_1, psi_2 of two_branch_state."""
    return (gaussian_1d(grid_x, +0.5 * x_sep, sigma_x),
            gaussian_1d(grid_x, -0.5 * x_sep, sigma_x))


def beam_splitter(psi: WaveFunction2D, shift: float) -> WaveFunction2D:
    """Branch-conditioned rigid y-translation.

    U = P(x>=0) (x) T(+shift) + P(x<0) (x) T(-shift), with T exact
    momentum-space translations; unitary because the projectors are
    diagonal in x and T is unitary.
    """
    pos = psi.grid_x.points >= 0.0
    ky = psi.grid_y.wavenumbers
    spec = np.fft.fft(psi.amplitudes, axis=1)
    plus = np.fft.ifft(spec * np.exp(-1j * shift * ky), axis=1)
    minus = np.fft.ifft(spec * np.exp(+1j * shift * ky), axis=1)
    amp = np.where(pos[:, None], plus, minus)
    return WaveFunction2D(psi.grid_x, psi.grid_y, amp, psi.norm_tag)
