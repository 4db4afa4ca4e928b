"""Guidance velocities, trajectories and equilibrium sampling.

The free Gaussian has closed-form streamlines (oracles.gaussian_trajectory),
so velocity fields and the RK4 integrator are checked against an independent
route. The conditional-slice identity is checked pointwise on the grid where
both evaluation paths are exact.
"""

import warnings

import numpy as np
import pytest

import oracles
from conftest import random_state_2d
from oracles import product_2d
from cwflab.bohm import (
    NODE_FLOOR,
    VelocityField1D,
    VelocityField2D,
    equivariance_check,
    evolve_trajectories,
    marginal_bin_probs,
    sample_qeh,
)
from cwflab.errors import GridExitError, ValidationError
from cwflab.evolve import free_potential, propagate
from cwflab.qgrid import Grid1D, WaveFunction1D, WaveFunction2D, conditional_slice, normalize
from cwflab.states import gaussian_1d, two_branch_state


def two_packets(grid, centers, momenta):
    """Two unit-width packets at centers (x, y) with wave vectors (kx, ky):
    where they overlap, their fringes carry moving nodes."""
    x, y = grid.points[:, None], grid.points[None, :]
    amp = sum(np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 2.0 + 1j * (kx * x + ky * y))
              for (cx, cy), (kx, ky) in zip(centers, momenta))
    return normalize(WaveFunction2D(grid, grid, amp, norm_tag="unnormalized"))


class TestVelocity1D:
    def test_matches_spreading_oracle(self, grid256):
        psi0 = gaussian_1d(grid256, 0.0, 1.0)
        psi_t = propagate(psi0, free_potential(grid256), 0.5, 2)
        field = VelocityField1D(psi_t)
        xs = np.linspace(-2.5, 2.5, 11) + 0.031  # off-grid on purpose
        want = oracles.spreading_velocity(xs, 1.0)
        assert np.max(np.abs(field.velocity(xs)[0] - want)) < 1e-8

    def test_phase_ramp_drift(self, grid256):
        # at t = 0 a boosted packet moves rigidly at k0 everywhere
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=3.0)
        field = VelocityField1D(psi)
        xs = np.array([-1.7, 0.0, 0.45, 2.2])
        assert np.max(np.abs(field.velocity(xs)[0] - 3.0)) < 1e-8

    def test_node_is_masked(self, grid256):
        x = grid256.points
        wf = normalize(WaveFunction1D(grid256, x * np.exp(-(x**2) / 4.0),
                                      norm_tag="unnormalized"))
        v, ok = VelocityField1D(wf).velocity(np.array([0.0, 1.0]))
        assert ok.tolist() == [False, True]
        assert np.isnan(v[0]) and np.isfinite(v[1])

    def test_out_of_domain_raises(self, grid256):
        field = VelocityField1D(gaussian_1d(grid256, 0.0, 1.0))
        with pytest.raises(GridExitError):
            field.velocity(np.array([grid256.x_max]))


class TestVelocity2D:
    def make_product(self, grid, t):
        x = grid.points
        ax = oracles.free_gaussian(x, t, k0=1.5)
        ay = oracles.free_gaussian(x, t, sigma0=1.3, k0=-0.7)
        return WaveFunction2D(grid, grid, np.outer(ax, ay))

    def test_grid_point_values_exact(self, grid256):
        psi = self.make_product(grid256, 0.4)
        field = VelocityField2D(psi)
        for i, j in [(104, 140), (128, 128), (116, 120)]:
            X, Y = grid256.points[i], grid256.points[j]
            vx, vy, ok = field.velocity(X, Y)
            assert ok[0]
            assert abs(vx[0] - oracles.spreading_velocity(X, 0.4, k0=1.5)) < 1e-8
            assert abs(vy[0] - oracles.spreading_velocity(Y, 0.4, sigma0=1.3, k0=-0.7)) < 1e-8

    def test_off_grid_interpolation(self, grid256):
        psi = self.make_product(grid256, 0.4)
        field = VelocityField2D(psi)
        X = np.array([0.31, -1.22, 0.87])
        Y = np.array([-0.55, 0.4, 1.13])
        vx, vy, ok = field.velocity(X, Y)
        assert ok.all()
        wx = oracles.spreading_velocity(X, 0.4, k0=1.5)
        wy = oracles.spreading_velocity(Y, 0.4, sigma0=1.3, k0=-0.7)
        assert np.max(np.abs(vx - wx)) < 1e-3
        assert np.max(np.abs(vy - wy)) < 1e-3

    def test_nodal_state_against_fourier_series(self, grid128):
        # overlapping packets with different momenta: the velocity varies
        # fast between the fringes' nodes (the stencil errs by 3.6e-3 here)
        psi = two_packets(grid128, [(1.0, 0.5), (-1.0, -0.5)],
                          [(2.0, -1.0), (-2.0, 1.5)])
        field = VelocityField2D(psi)
        X, Y = np.random.default_rng(0).uniform(-3.0, 3.0, (2000, 2)).T
        vx, vy, ok = field.velocity(X, Y)
        wx, wy, rho = oracles.fourier_velocity_2d(psi, X, Y)
        keep = rho > 1e-2 * rho.max()
        assert ok[keep].all()
        assert np.max(np.abs(vx - wx)[keep]) < 5e-3
        assert np.max(np.abs(vy - wy)[keep]) < 5e-3
        empty = field.velocity([], [])
        assert [a.shape for a in empty] == [(0,), (0,), (0,)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vx, vy, ok = field.velocity([np.nan, 0.2], [0.1, np.nan])
        assert not ok.any() and np.isnan([vx, vy]).all()

    def test_node_and_exit(self, grid128):
        x = grid128.points
        ax = x * np.exp(-(x**2) / 4.0)
        ay = np.exp(-(x**2) / 4.0)
        psi = normalize(WaveFunction2D(grid128, grid128, np.outer(ax, ay),
                                       norm_tag="unnormalized"))
        field = VelocityField2D(psi)
        vx, vy, ok = field.velocity([0.0, 1.0], [0.5, 0.5])
        assert ok.tolist() == [False, True]
        assert np.isnan([vx[0], vy[0]]).all()
        assert np.isfinite([vx[1], vy[1]]).all()
        with pytest.raises(GridExitError):
            field.velocity(0.5, grid128.x_max + 1.0)

    def test_matches_dense_stencil_oracle(self, grid128):
        """The padded blocks and product-form weights against the dense
        64-point sum (oracles.lagrange_fields_2d): random points, points in
        the first and last cell of each axis, where the stencil reads the
        periodic wrap, and grid points, where the weights are one-hot."""
        gy = Grid1D(-6.0, 10.0, 64)
        # smooth enough that the stencil keeps rho positive everywhere
        psi = random_state_2d(grid128, gy, seed=4, band=0.05)
        field = VelocityField2D(psi)
        gx, rng = grid128, np.random.default_rng(2)
        X = rng.uniform(gx.x_min, gx.x_max, 600)
        Y = rng.uniform(gy.x_min, gy.x_max, 600)
        for g, Z in ((gx, X), (gy, Y)):
            u = rng.uniform(0.0, g.dx, 100)
            Z[:100], Z[100:200] = g.x_min + u, g.x_max - u
        # (X - x_min) / dx rounds up to n_x just below x_max
        X[200], Y[200] = np.nextafter(gx.x_max, 0.0), gy.x_min
        vx, vy, ok = field.velocity(X, Y)
        ref = oracles.lagrange_fields_2d(psi, X, Y)
        want = ref[:, :2] / ref[:, 2:]
        assert ok.all() and (ref[:, 2] >= field.floor).all()
        # fields f = (j, rho) off by e move v = j / rho by e (1 + |v|) / rho
        err = (np.abs(np.column_stack((vx, vy)) - want) * ref[:, 2:]
               / (1.0 + np.abs(want)))
        assert err.max() < 1e-13 * np.abs(ref).max()
        # at grid points, including the last row and column, exactly j / rho
        jx, jy, rho = oracles.grid_fields_2d(psi)
        i = np.append(rng.integers(0, gx.n_points, 200), gx.n_points - 1)
        j = np.append(rng.integers(0, gy.n_points, 200), gy.n_points - 1)
        vx, vy, ok = field.velocity(gx.points[i], gy.points[j])
        assert ok.all()
        assert np.array_equal(vx, jx[i, j] / rho[i, j])
        assert np.array_equal(vy, jy[i, j] / rho[i, j])


class TestConditionalIdentity:
    def test_cwf_velocity_matches_full_velocity(self, grid128):
        # guidance for X from the 2-D wave equals guidance from the slice
        # at the actual Y, evaluated where both routes are grid-exact
        psi0 = two_branch_state(grid128, grid128, x_sep=3.0, sigma_x=0.5, sigma_y=0.7)
        psi = propagate(psi0, free_potential(grid128, grid128), 0.15, 2)
        field = VelocityField2D(psi)
        rho = psi.density()
        cut = 1e-4 * rho.max()
        rng = np.random.default_rng(3)
        idx = np.argwhere(rho > cut)
        for i, j in idx[rng.choice(idx.shape[0], size=12, replace=False)]:
            X, Y = grid128.points[i], grid128.points[j]
            chi = conditional_slice(psi, Y)
            v_slice = VelocityField1D(chi).velocity(np.array([X]))[0][0]
            v_full = field.velocity(X, Y)[0][0]
            assert abs(v_slice - v_full) < 1e-8

    def test_conditional_wavefunction_is_slice(self, grid128):
        # chi(x) = Psi(x, Y) is the x-row at the grid point nearest Y
        psi = two_branch_state(grid128, grid128, x_sep=3.0, sigma_x=0.5, sigma_y=0.7)
        j = int(np.argmin(np.abs(grid128.points - 0.2)))
        a = conditional_slice(psi, 0.2).amplitudes
        assert np.array_equal(a, psi.amplitudes[:, j])


class TestTrajectories2D:
    def test_product_streamlines(self, grid128):
        wf = product_2d(gaussian_1d(grid128, 0.0, 1.0),
                        gaussian_1d(grid128, 0.0, 1.3))
        starts = np.array([[0.5, -0.9], [-1.0, 0.4], [1.3, 1.1]])
        res = evolve_trajectories(wf, free_potential(grid128, grid128), 0.02, 25, starts)
        assert res.n_failed == 0
        want_x = oracles.gaussian_trajectory(0.5, starts[:, 0])
        want_y = oracles.gaussian_trajectory(0.5, starts[:, 1], sigma0=1.3)
        assert np.max(np.abs(res.xs[:, -1] - want_x)) < 1e-4
        assert np.max(np.abs(res.ys[:, -1] - want_y)) < 1e-4

    def test_exit_marks_failed_and_freezes(self, grid128):
        # fringes of two interfering momenta (10 and 0) make the velocity
        # vary fast enough that from X = 7.05 every RK4 stage point stays
        # below x_max = 8 (at most 7.9) while the step itself ends near 8.1
        x = grid128.points
        packet = gaussian_1d(grid128, 4.0, np.sqrt(2.0)).amplitudes
        psi_x = normalize(WaveFunction1D(
            grid128, packet * (np.exp(10j * x) + 0.5), norm_tag="unnormalized"))
        gy = Grid1D(-4.0, 4.0, 32)
        wf = product_2d(psi_x, gaussian_1d(gy, 0.0, 1.0))
        starts = np.array([[7.05, 0.0], [2.0, 0.0]])
        res = evolve_trajectories(wf, free_potential(grid128, gy), 0.1, 3, starts)
        assert res.failed.tolist() == [True, False]
        assert res.n_failed == 1
        assert np.all(res.xs[0] == 7.05) and np.all(res.ys[0] == 0.0)
        assert np.all(np.diff(res.xs[1]) > 0.0) and res.xs[1, -1] > 4.0

    def test_strang_factors_change_no_bit(self, grid128):
        """The ensemble runner builds its half-step factors once; its final
        wave is bit for bit 2 * steps half steps of propagate."""
        psi0 = two_packets(grid128, [(1.0, 0.5), (-1.0, -0.5)],
                           [(2.0, -1.0), (-2.0, 1.5)])
        x, y = grid128.points[:, None], grid128.points[None, :]
        v = 0.5 * x**2 + 0.2 * y**2 + 0.3 * x * y
        starts = np.array([[0.3, -0.2], [-1.1, 0.6], [0.9, 0.9]])
        res = evolve_trajectories(psi0, v, 0.02, 6, starts)
        ref = propagate(psi0, v, 0.01, 12)
        assert np.array_equal(res.final_state.amplitudes, ref.amplitudes)

    def test_bad_starts_shape(self, grid128):
        wf = product_2d(gaussian_1d(grid128, 0.0, 1.0),
                        gaussian_1d(grid128, 0.0, 1.0))
        with pytest.raises(ValidationError):
            evolve_trajectories(wf, free_potential(grid128, grid128), 0.02, 1,
                                np.array([0.2, 0.3]))


class TestSampleQeh:
    def test_moments_1d(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        draws = sample_qeh(psi, 40000, seed=7)
        assert abs(np.mean(draws)) < 4.0 / np.sqrt(40000)
        assert 0.97 < np.std(draws) < 1.03
        offsets = (draws - grid256.x_min) / grid256.dx
        assert np.max(np.abs(offsets - np.round(offsets))) < 1e-9

    def test_histogram_gof(self, grid256):
        from cwflab.stats import chi2_gof

        psi = gaussian_1d(grid256, 0.0, 1.0)
        draws = sample_qeh(psi, 40000, seed=7)
        probs = psi.density().reshape(16, -1).sum(axis=1) * grid256.dx
        counts = np.histogram(draws, bins=16, range=(grid256.x_min, grid256.x_max))[0]
        assert chi2_gof(counts, probs / probs.sum())["p_value"] > 1e-4

    def test_2d_shape_and_symmetry(self, grid128):
        psi = two_branch_state(grid128, grid128, x_sep=3.0, sigma_x=0.5, sigma_y=0.7)
        draws = sample_qeh(psi, 20000, seed=21)
        assert draws.shape == (20000, 2)
        assert abs(np.mean(draws[:, 0])) < 4 * 1.6 / np.sqrt(20000)

    def test_determinism(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        a = sample_qeh(psi, 100, seed=5)
        b = sample_qeh(psi, 100, seed=5)
        c = sample_qeh(psi, 100, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEquivariance:
    def test_free_product_stays_equilibrated(self, grid128):
        wf = product_2d(gaussian_1d(grid128, 0.0, 1.0, k0=0.6),
                        gaussian_1d(grid128, 0.0, 1.3, k0=-0.4))
        report = equivariance_check(wf, free_potential(grid128, grid128),
                                    dt=0.02, steps=25, n=3000, seed=11)
        assert report["n_failed"] == 0
        assert report["p_value"] > 1e-4
        assert report["dof"] > 0

    def test_crossing_packets_stay_equilibrated(self, grid128):
        # packets at x = -1.5 and 1.5 run into each other (k = 3 and -3)
        # and overlap fully at the end: the sample is transported through
        # the moving nodes of their fringes
        wf = two_packets(grid128, [(1.5, 0.5), (-1.5, -0.5)],
                         [(-3.0, 0.0), (3.0, 0.0)])
        report = equivariance_check(wf, free_potential(grid128, grid128),
                                    dt=1e-2, steps=50, n=2000, seed=0)
        assert report["n_failed"] == 0
        assert report["p_value"] > 1e-3

    def test_marginal_probs_normalized(self, grid128):
        wf = product_2d(gaussian_1d(grid128, 0.0, 1.0),
                        gaussian_1d(grid128, 0.0, 1.3))
        px, py = marginal_bin_probs(wf, 16)
        assert abs(px.sum() - 1.0) < 1e-12
        assert abs(py.sum() - 1.0) < 1e-12


class TestArtifacts:
    def test_node_floor_constant(self):
        assert NODE_FLOOR == 1e-12
