import numpy as np
import pytest

from cwflab.errors import ValidationError
from cwflab.evolve import free_potential, harmonic_potential, propagate
from cwflab.labcli.fig1 import BoxModes
from cwflab.qgrid import Grid1D, WaveFunction1D, normalize
from cwflab.states import gaussian_1d

from conftest import random_state_1d, random_state_2d
from oracles import (box_potential, free_gaussian, hamiltonian_matrix,
                     inner_product, product_2d, spreading_width)


class TestPropagate1D:
    def test_free_gaussian_matches_closed_form(self, grid256):
        wf = gaussian_1d(grid256, sigma=1.0, k0=1.0)
        v = free_potential(grid256)
        t, steps = 1.0, 64
        out = propagate(wf, v, t / steps, steps)
        ref = free_gaussian(grid256.points, t, sigma0=1.0, k0=1.0)
        ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * grid256.dx)
        err = np.sqrt(np.sum(np.abs(out.amplitudes - ref) ** 2) * grid256.dx)
        assert err < 1e-6

    def test_free_width_growth(self, grid256):
        wf = gaussian_1d(grid256, sigma=1.0)
        v = free_potential(grid256)
        out = propagate(wf, v, 0.01, 100)
        x = grid256.points
        var = np.sum(x**2 * out.density()) * grid256.dx
        assert abs(np.sqrt(var) - spreading_width(1.0, 1.0)) < 1e-6

    def test_harmonic_ground_state_stationary(self, grid256):
        omega = 1.0
        sigma = np.sqrt(0.5 / omega)  # hbar = m = 1
        wf = gaussian_1d(grid256, sigma=sigma)
        v = harmonic_potential(grid256, omega)
        out = propagate(wf, v, 1e-4, 10_000)  # t = 1
        phase = np.vdot(wf.amplitudes, out.amplitudes)
        phase /= abs(phase)
        err = np.sqrt(np.sum(np.abs(out.amplitudes - phase * wf.amplitudes) ** 2) * grid256.dx)
        assert err < 1e-8
        # the removed global phase is exp(-i omega t / 2)
        assert abs(phase - np.exp(-0.5j * omega)) < 1e-6

    def test_norm_drift_under_1e9_per_1000_steps(self, grid256):
        wf = random_state_1d(grid256, seed=9)
        v = harmonic_potential(grid256, 2.0)
        out = propagate(wf, v, 0.25 * grid256.dx**2, 1000)
        assert abs(out.norm() - 1.0) < 1e-9

    def test_second_order_convergence(self, grid256):
        wf = gaussian_1d(grid256, center=1.0, sigma=0.8)
        v = harmonic_potential(grid256, 1.0)
        t = 0.5

        def err(n_steps, ref):
            out = propagate(wf, v, t / n_steps, n_steps)
            return np.linalg.norm(out.amplitudes - ref)

        ref = propagate(wf, v, t / 256, 256).amplitudes
        ratio = err(32, ref) / err(64, ref)
        assert 3.5 < ratio < 4.5

    def test_rejects_mismatched_potential(self, grid256, grid128):
        wf = gaussian_1d(grid256)
        v = free_potential(grid128)
        with pytest.raises(ValidationError):
            propagate(wf, v, 0.01, 1)


class TestPropagate2D:
    def test_product_state_evolves_as_product(self, grid128):
        gy = Grid1D(-8.0, 8.0, 128)
        psi = product_2d(gaussian_1d(grid128, sigma=0.9), gaussian_1d(gy, sigma=1.1))
        v = free_potential(grid128, gy)
        out = propagate(psi, v, 0.02, 25)
        fx = free_gaussian(grid128.points, 0.5, sigma0=0.9)
        fy = free_gaussian(gy.points, 0.5, sigma0=1.1)
        ref = np.outer(fx, fy)
        ref /= np.linalg.norm(ref)
        target = out.amplitudes / np.linalg.norm(out.amplitudes)
        phase = np.vdot(ref, target)
        assert abs(abs(phase) - 1.0) < 1e-8

    def test_norm_preserved(self, grid128):
        gy = Grid1D(-4.0, 4.0, 64)
        psi = random_state_2d(grid128, gy, seed=31)
        v = np.add.outer(harmonic_potential(grid128, 1.0), harmonic_potential(gy, 0.5))
        out = propagate(psi, v, 0.25 * min(grid128.dx, gy.dx)**2, 1000)
        assert abs(out.norm() - 1.0) < 1e-9


class TestBoxRevival:
    def test_two_level_revival(self):
        # moderate wall height: the splitting needs v0 * dt << 1 to resolve
        # the wall phases, so 1e6 walls would stall at ~1e-4 infidelity
        grid = Grid1D(-0.5, 1.5, 256)
        v = box_potential(grid, 0.0, 1.0, 1e4)
        h = hamiltonian_matrix(v, grid)
        evals, evecs = np.linalg.eigh(h)
        u1 = evecs[:, 0] / np.sqrt(grid.dx)
        u2 = evecs[:, 1] / np.sqrt(grid.dx)
        psi0 = normalize(WaveFunction1D(grid, (u1 + u2) / np.sqrt(2.0)))
        period = 2.0 * np.pi / (evals[1] - evals[0])
        steps = 2**15
        out = propagate(psi0, v, period / steps, steps)
        fid = abs(inner_product(psi0, out))
        assert fid > 1.0 - 1e-6

    def test_box_energies_match_dense_diagonalization(self):
        grid = Grid1D(-0.5, 1.5, 256)
        v = box_potential(grid, 0.0, 1.0, 1e6)
        evals = np.linalg.eigvalsh(hamiltonian_matrix(v, grid))
        analytic = BoxModes(np.ones(3), 0.0, 1.0).a
        assert np.allclose(evals[:3], analytic, rtol=5e-2)


class TestBoxEigenbasis:
    def test_exact_grid_orthonormality(self):
        grid = Grid1D(-0.5, 1.5, 256)
        u = BoxModes(np.ones(8), 0.0, 1.0).u(grid.points)
        gram = u @ u.T * grid.dx
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12
