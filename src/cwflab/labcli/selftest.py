"""Fast battery of the library's cross-module invariants.

Each check is deterministic (fixed seeds) and cheap; the battery as a whole
runs in a few seconds. The CLI maps a failing battery to exit code 3.
"""

import numpy as np

from .. import bohm, polar, stats, weakmeas
from ..evolve import free_potential, harmonic_potential, propagate
from ..qgrid import Grid1D, WaveFunction1D, WaveFunction2D, conditional_slice, \
    normalize, to_momentum, to_position
from ..states import beam_splitter, gaussian_1d, two_branch_state
from .reports import check_record

EQUIVARIANCE_P_MIN = 1e-3
MOMENT_SIGMAS = 5.0


def _random_state(grid: Grid1D, seed: int, modes: int = 12) -> WaveFunction1D:
    """Band-limited random state: a few low-k Fourier modes, smooth density."""
    rng = stats.stream(seed)
    coef = np.zeros(grid.n_points, dtype=np.complex128)
    half = (rng.standard_normal(modes) + 1j * rng.standard_normal(modes))
    coef[1:modes + 1] = half
    coef[-modes:] = (rng.standard_normal(modes)
                     + 1j * rng.standard_normal(modes))
    coef[0] = 4.0 + rng.standard_normal()
    amp = np.fft.ifft(coef * grid.n_points)
    return normalize(WaveFunction1D(grid, amp))


def check_transform_round_trip() -> dict:
    grid = Grid1D(-8.0, 8.0, 256)
    psi = _random_state(grid, seed=3)
    back = to_position(to_momentum(psi), grid)
    dev = float(np.abs(back.amplitudes - psi.amplitudes).max())
    return check_record("transform_round_trip", observed=dev, tol=1e-10)


def check_norm_drift() -> dict:
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian_1d(grid, 1.0, 0.7, k0=0.5)
    out = propagate(psi, harmonic_potential(grid, 1.0), dt=1e-3, steps=1000)
    return check_record("norm_drift_1000_steps",
                        observed=abs(out.norm() - 1.0), tol=1e-9)


def check_split_step_convergence() -> dict:
    """Error ratio under dt halving, against a much finer reference run."""
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian_1d(grid, 1.0, 1.0 / np.sqrt(2.0))
    v = harmonic_potential(grid, 1.0)
    T, n = 1.0, 64

    def err(steps, ref):
        out = propagate(psi, v, T / steps, steps)
        return float(np.abs(out.amplitudes - ref.amplitudes).max())

    ref = propagate(psi, v, T / (16 * n), 16 * n)
    ratio = err(n, ref) / err(2 * n, ref)
    return check_record("split_step_convergence_ratio", observed=ratio,
                        bounds=(3.5, 4.5))


def check_velocity_two_forms() -> dict:
    """Series evaluation of Im(psi'/psi) vs the spectral current j/rho."""
    grid = Grid1D(-8.0, 8.0, 256)
    psi = _random_state(grid, seed=9)
    amp = psi.amplitudes
    dpsi = np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(amp))
    rho = np.abs(amp) ** 2
    keep = rho > 1e-6 * rho.max()
    j_route = (np.conj(amp[keep]) * dpsi[keep]).imag / rho[keep]
    series, ok = bohm.VelocityField1D(psi).velocity(grid.points[keep])
    dev = float(np.abs(series[ok] - j_route[ok]).max())
    return check_record("velocity_two_forms", observed=dev, tol=1e-8)


def check_scan_identity_pure() -> dict:
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian_1d(grid, 0.4, 0.9, k0=0.3)
    scan = weakmeas.weak_value_scan(psi)
    const = scan[np.argmax(np.abs(psi.amplitudes))] / \
        psi.amplitudes[np.argmax(np.abs(psi.amplitudes))]
    dev = float(np.abs(scan - const * psi.amplitudes).max()
                / np.abs(scan).max())
    return check_record("scan_identity_pure", observed=dev, tol=1e-9)


def check_scan_identity_conditional() -> dict:
    gx = Grid1D(-8.0, 8.0, 128)
    gy = Grid1D(-8.0, 8.0, 128)
    psi = beam_splitter(two_branch_state(gx, gy, 6.0, 0.5, 0.7), 2.5)
    rng = stats.stream(17)
    rho_y = psi.density().sum(axis=0)
    ys = rng.choice(gy.points, size=8, p=rho_y / rho_y.sum())
    dev = 0.0
    for y in ys:
        slc = conditional_slice(psi, float(y))
        scan = weakmeas.weak_value_scan(slc, 0.0)
        const = scan[np.argmax(np.abs(slc.amplitudes))] / \
            slc.amplitudes[np.argmax(np.abs(slc.amplitudes))]
        dev = max(dev, float(np.abs(scan - const * slc.amplitudes).max()
                             / np.abs(scan).max()))
    return check_record("scan_identity_conditional", observed=dev,
                        tol=1e-9)


def check_equivariance_transport() -> dict:
    gx = Grid1D(-8.0, 8.0, 128)
    gy = Grid1D(-8.0, 8.0, 128)
    x, y = gx.points[:, None], gy.points[None, :]
    amp = np.exp(-(x**2) / 1.6 - (y - 0.5) ** 2 / 2.4 + 0.7j * x - 0.4j * y)
    psi = normalize(WaveFunction2D(gx, gy, amp))
    rep = bohm.equivariance_check(psi, free_potential(gx, gy), dt=5e-3,
                                  steps=40, n=2000, seed=11, bins=16)
    return check_record("equivariance_transport_p",
                        observed=rep["p_value"], minimum=EQUIVARIANCE_P_MIN)


def check_qeh_moments() -> dict:
    grid = Grid1D(-8.0, 8.0, 256)
    psi = gaussian_1d(grid, -0.3, 0.8)
    n = 20_000
    draws = bohm.sample_qeh(psi, n, seed=5)
    p = psi.density() / psi.density().sum()
    mean = float(p @ grid.points)
    sd = float(np.sqrt(p @ (grid.points - mean) ** 2))
    z_mean = abs(draws.mean() - mean) / (sd / np.sqrt(n))
    z_sd = abs(draws.std() - sd) / (sd / np.sqrt(2.0 * n))
    return check_record("qeh_moments_z", observed=max(z_mean, z_sd),
                        tol=MOMENT_SIGMAS)


def check_dm_identities() -> dict:
    spec = polar.HilbertSpec(Grid1D(-8.0, 8.0, 64))
    rho = polar.apply_beam_splitter(polar.make_state_psi1(spec, 0.5), 3.0)
    direct = polar.direct_dm_measurement(rho)
    dev = float(np.abs(direct - polar.reduced_dm(rho).matrix).max())
    cond = polar.direct_dm_measurement(rho, Y_postselect=3.0)
    target = polar.normalize_dm(polar.conditional_dm(rho, 3.0)).matrix
    dev = max(dev, float(np.abs(cond - target).max()))
    return check_record("dm_direct_identities", observed=dev, tol=1e-10)


def check_dm_averaging_law() -> dict:
    spec = polar.HilbertSpec(Grid1D(-8.0, 8.0, 64))
    rho = polar.apply_beam_splitter(polar.make_state_psi1(spec, 0.5), 3.0)
    total = np.zeros((2, 2), dtype=np.complex128)
    for y in spec.pos2.points:
        total += polar.conditional_dm(rho, float(y)).matrix
    dev = float(np.abs(total - polar.reduced_dm(rho).matrix).max())
    return check_record("dm_averaging_law", observed=dev, tol=1e-12)


CHECKS = (
    check_transform_round_trip,
    check_norm_drift,
    check_split_step_convergence,
    check_velocity_two_forms,
    check_scan_identity_pure,
    check_scan_identity_conditional,
    check_equivariance_transport,
    check_qeh_moments,
    check_dm_identities,
    check_dm_averaging_law,
)


def run_selftest() -> dict:
    return {"report": {"checks": [fn() for fn in CHECKS]}}
