"""Bohmian guidance: velocity fields, trajectories, equilibrium sampling.

Units are hbar = m = 1, so the guidance velocity is v = Im[grad Psi / Psi]
evaluated at the configuration. Gradients are spectral (FFT); off-grid
evaluation uses the exact Fourier series in 1-D and, in 2-D, one periodic
Lagrange stencil of STENCIL^2 points over the smooth fields (j, rho): exact
at grid points and local, so no global spline is fitted per wave snapshot.
Trajectories advance with classical RK4 using the wave function at t,
t + dt/2 and t + dt (half-step propagation).

Configurations sitting on nodes of |Psi|^2 (relative density below
NODE_FLOOR) are masked: the fields return NaN velocity and a False entry in
the node mask there, and the ensemble runner marks such trajectories failed
instead of aborting the batch.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GridExitError, ValidationError
from .evolve import strang_step
from .qgrid import WaveFunction1D, WaveFunction2D
from .stats import chi2_gof, chi2_joint, draw_cells, stream

NODE_FLOOR = 1e-12  # fraction of max |Psi|^2 below which a point is a node
STENCIL = 8  # points per axis of the 2-D fields' Lagrange stencil (even)
_OFFSETS = np.arange(1 - STENCIL // 2, 1 + STENCIL // 2)
_DENOM = np.prod(np.eye(STENCIL) + _OFFSETS[:, None] - _OFFSETS, axis=1)


def _stencil(g, X):
    """(i, w): the cell i holding X on g and the (STENCIL, X.size) weights
    of cells i + _OFFSETS, exactly one-hot at grid points, NaN at NaN."""
    t = (X - g.x_min) / g.dx
    i = np.minimum(np.floor(t), g.n_points - 1)  # t may round up to n
    d = (t - i) - _OFFSETS[:, None]
    pre, suf = np.ones_like(d), np.ones_like(d)
    for k in range(1, STENCIL):  # weights: prefix times suffix products
        pre[k] = pre[k - 1] * d[k - 1]
        suf[-1 - k] = suf[-k] * d[-k]
    return np.nan_to_num(i).astype(np.intp), pre * suf / _DENOM[:, None]


class VelocityField1D:
    """Exact band-limited evaluation of psi, dpsi/dx and the guidance velocity."""

    def __init__(self, wf: WaveFunction1D):
        g = wf.grid
        self.grid = g
        self.coef = np.fft.fft(wf.amplitudes) / g.n_points
        self.k = g.wavenumbers
        self.floor = NODE_FLOOR * float(np.max(wf.density()))

    def _series(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < self.grid.x_min) or np.any(x >= self.grid.x_max):
            raise GridExitError(f"position outside [{self.grid.x_min}, {self.grid.x_max})")
        phases = np.exp(1j * np.outer(self.k, x - self.grid.x_min))
        psi = self.coef @ phases
        dpsi = (1j * self.k * self.coef) @ phases
        return psi, dpsi

    def velocity(self, x):
        """(v, ok): guidance velocity at x (scalar or array) and the node
        mask, False with v NaN where |psi|^2 is below the floor."""
        psi, dpsi = self._series(x)
        ok = np.abs(psi) ** 2 >= self.floor
        v = np.full(psi.shape, np.nan)
        v[ok] = (dpsi[ok] / psi[ok]).imag
        return v, ok


class VelocityField2D:
    """Guidance velocity from one periodic stencil over (j_x, j_y, rho)."""

    def __init__(self, psi: WaveFunction2D):
        self.gx, self.gy = psi.grid_x, psi.grid_y
        amp = psi.amplitudes
        kx, ky = self.gx.wavenumbers, self.gy.wavenumbers
        dpsi_x = np.fft.ifft(1j * kx[:, None] * np.fft.fft(amp, axis=0), axis=0)
        dpsi_y = np.fft.ifft(1j * ky[None, :] * np.fft.fft(amp, axis=1), axis=1)
        # wrapped: cell (i, j)'s stencil is rows i..i+7, doubles 3j..3j+23
        lo, (n_x, n_y) = -_OFFSETS[0], amp.shape
        f = np.empty((n_x + STENCIL - 1, n_y + STENCIL - 1, 3))
        core = f[lo:lo + n_x, lo:lo + n_y]
        core[..., 0] = (np.conj(amp) * dpsi_x).imag
        core[..., 1] = (np.conj(amp) * dpsi_y).imag
        core[..., 2] = rho = psi.density()
        f[:lo], f[lo + n_x:] = f[n_x:n_x + lo], f[lo:STENCIL - 1]
        f[:, :lo], f[:, lo + n_y:] = f[:, n_y:n_y + lo], f[:, lo:STENCIL - 1]
        self._blocks = np.lib.stride_tricks.sliding_window_view(
            f.reshape(len(f), -1), (STENCIL, 3 * STENCIL))
        self.floor = NODE_FLOOR * float(rho.max())

    def _check_bounds(self, X, Y):
        if (np.any(X < self.gx.x_min) or np.any(X >= self.gx.x_max)
                or np.any(Y < self.gy.x_min) or np.any(Y >= self.gy.x_max)):
            raise GridExitError("position outside the grid domain")

    def velocity(self, X, Y):
        """(vx, vy, ok) at the points (X, Y); ok is the node mask, False
        with NaN velocity where rho is below the floor (or X, Y is NaN)."""
        X = np.atleast_1d(np.asarray(X, dtype=float))
        Y = np.atleast_1d(np.asarray(Y, dtype=float))
        self._check_bounds(X, Y)
        (ix, wx), (iy, wy) = _stencil(self.gx, X), _stencil(self.gy, Y)
        f = np.einsum("an,nab->nb", wx, self._blocks[ix, 3 * iy])
        f = np.einsum("an,nac->nc", wy, f.reshape(X.size, STENCIL, 3))
        ok = f[:, 2] >= self.floor
        v = np.divide(f[:, :2], f[:, 2:], out=np.full((X.size, 2), np.nan),
                      where=ok[:, None])
        return v[:, 0], v[:, 1], ok


def _rk4(f0, f1, f2, X, Y, dt, alive):
    """Masked RK4 step for an ensemble; returns updated arrays and mask."""
    Xn, Yn = X.copy(), Y.copy()
    ok = alive.copy()

    def ev(field, xs, ys, mask):
        # a stage point off the grid or on a node fails its trajectory
        vx = np.zeros_like(xs)
        vy = np.zeros_like(ys)
        good = mask & ((xs >= field.gx.x_min) & (xs < field.gx.x_max)
                       & (ys >= field.gy.x_min) & (ys < field.gy.x_max))
        idx = np.flatnonzero(good)
        if idx.size:
            vx[idx], vy[idx], m = field.velocity(xs[idx], ys[idx])
            good[idx[~m]] = False
        return vx, vy, good

    k1x, k1y, ok = ev(f0, X, Y, ok)
    k2x, k2y, ok = ev(f1, X + 0.5 * dt * k1x, Y + 0.5 * dt * k1y, ok)
    k3x, k3y, ok = ev(f1, X + 0.5 * dt * k2x, Y + 0.5 * dt * k2y, ok)
    k4x, k4y, ok = ev(f2, X + dt * k3x, Y + dt * k3y, ok)
    Xn[ok] = (X + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x))[ok]
    Yn[ok] = (Y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y))[ok]
    out = ((Xn < f2.gx.x_min) | (Xn >= f2.gx.x_max)
           | (Yn < f2.gy.x_min) | (Yn >= f2.gy.x_max))
    ok &= ~out
    Xn[~ok] = X[~ok]
    Yn[~ok] = Y[~ok]
    return Xn, Yn, ok


@dataclass(frozen=True)
class EnsembleResult:
    xs: np.ndarray        # (n_traj, steps + 1)
    ys: np.ndarray
    failed: np.ndarray    # bool, per trajectory
    final_state: WaveFunction2D

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(self.failed))


def evolve_trajectories(psi0: WaveFunction2D, potential: np.ndarray,
                        dt: float, steps: int, starts) -> EnsembleResult:
    """RK4-advance an ensemble of configurations through `steps` wave steps
    of psi0 in the potential (an array on psi0's grids).

    starts: array (n, 2) of initial (X, Y). Trajectories that hit a node or
    leave the grid are marked failed and frozen; the rest continue.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2:
        raise ValidationError("starts must have shape (n, 2)")
    X = starts[:, 0].copy()
    Y = starts[:, 1].copy()
    alive = np.ones(X.size, dtype=bool)
    xs = np.empty((X.size, steps + 1))
    ys = np.empty((X.size, steps + 1))
    xs[:, 0], ys[:, 0] = X, Y
    step, state = strang_step(psi0, potential, 0.5 * dt), psi0
    f0 = VelocityField2D(state)
    for s in range(steps):
        half = replace(state, amplitudes=step(state.amplitudes))
        state = replace(half, amplitudes=step(half.amplitudes))
        f1, f2 = VelocityField2D(half), VelocityField2D(state)
        X, Y, alive = _rk4(f0, f1, f2, X, Y, dt, alive)
        f0, xs[:, s + 1], ys[:, s + 1] = f2, X, Y
    return EnsembleResult(xs, ys, ~alive, state)


def sample_qeh(psi, n: int, seed: int) -> np.ndarray:
    """n draws from |Psi|^2 by inverse CDF over the flattened grid cells.

    Deterministic given seed (counter-based Philox stream); draw i is the
    i-th variate of the stream. Returns shape (n, 2) for 2-D states and
    (n,) for 1-D.
    """
    dens = psi.density()
    idx = draw_cells(dens, stream(seed).random(n))
    if isinstance(psi, WaveFunction1D):
        return psi.grid.points[idx]
    i, j = np.unravel_index(idx, dens.shape)
    return np.column_stack([psi.grid_x.points[i], psi.grid_y.points[j]])


def marginal_bin_probs(psi: WaveFunction2D, bins: int):
    """Per-axis bin probabilities of |Psi|^2 (bins aligned with grid cells)."""
    rho = psi.density()
    px = rho.sum(axis=1)
    py = rho.sum(axis=0)
    px /= px.sum()
    py /= py.sum()
    return (px.reshape(bins, -1).sum(axis=1), py.reshape(bins, -1).sum(axis=1))


def equivariance_check(psi0: WaveFunction2D, potential: np.ndarray,
                       dt: float, steps: int, n: int, seed: int,
                       bins: int = 16) -> dict:
    """Transport a QEH sample and test the final positions against |Psi_t|^2.

    Chi-square over the two marginal histograms (bins per axis, cells with
    expected count < 5 pooled). Returns {chi2, dof, p_value, n_failed}.
    """
    gx, gy = psi0.grid_x, psi0.grid_y
    starts = sample_qeh(psi0, n, seed)
    # spread each grid-cell draw uniformly over its cell; the bare lattice
    # of cell centers aliases through the flow map into the final histogram
    starts = starts + stream(seed, 1).uniform(
        -0.5, 0.5, starts.shape) * [gx.dx, gy.dx]
    starts = np.maximum(starts, [gx.x_min, gy.x_min])
    res = evolve_trajectories(psi0, potential, dt, steps, starts)
    keep = ~res.failed
    px, py = marginal_bin_probs(res.final_state, bins)

    def wrap(v, g):
        # bins aligned with cell boundaries (centers at grid points), so a
        # bin's probability is an exact sum of cell masses; periodic wrap
        lo = g.x_min - 0.5 * g.dx
        return np.mod(v - lo, g.x_max - g.x_min) + lo

    fx = wrap(res.xs[keep, -1], gx)
    fy = wrap(res.ys[keep, -1], gy)
    cx = np.histogram(fx, bins=bins,
                      range=(gx.x_min - 0.5 * gx.dx, gx.x_max - 0.5 * gx.dx))[0]
    cy = np.histogram(fy, bins=bins,
                      range=(gy.x_min - 0.5 * gy.dx, gy.x_max - 0.5 * gy.dx))[0]
    return {**chi2_joint(chi2_gof(cx, px), chi2_gof(cy, py)),
            "n_failed": res.n_failed}

