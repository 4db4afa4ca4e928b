import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwflab.errors import (
    GridMismatchError,
    NormalizationError,
    OffGridError,
    ValidationError,
)
from cwflab.evolve import free_potential, propagate
from cwflab.qgrid import (
    Grid1D,
    WaveFunction1D,
    WaveFunction2D,
    conditional_slice,
    normalize,
    to_momentum,
    to_position,
)
from cwflab.states import gaussian_1d

from conftest import random_state_1d, random_state_2d
from oracles import (free_gaussian, gaussian_overlap, inner_product,
                     momentum_gaussian, product_2d)

GAUSSIAN_OVERLAP_D2 = 0.6065306597126334  # exp(-1/2), frozen from the closed form


class TestGrid1D:
    def test_points_and_spacing(self):
        g = Grid1D(-2.0, 2.0, 8)
        assert g.dx == 0.5
        assert np.allclose(g.points, np.arange(-2.0, 2.0, 0.5))
        assert g.points[-1] == 1.5  # right endpoint excluded

    @pytest.mark.parametrize("n", [0, 4, 7, 100, 255])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValidationError):
            Grid1D(0.0, 1.0, n)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            Grid1D(1.0, 1.0, 16)

    def test_conjugate_grid_covers_nyquist(self):
        g = Grid1D(-16.0, 16.0, 256)
        p = g.conjugate()
        assert p.n_points == g.n_points
        assert np.isclose(p.dx * g.dx * g.n_points, 2.0 * np.pi)
        assert np.isclose(p.x_min, -np.pi / g.dx)

    def test_index_of_nearest(self):
        g = Grid1D(0.0, 1.0, 8)
        assert g.index_of(0.0) == 0
        assert g.index_of(0.13) == 1
        assert g.index_of(0.9999) == 7
        with pytest.raises(OffGridError):
            g.index_of(1.0)
        with pytest.raises(OffGridError):
            g.index_of(-0.01)


class TestNormalization:
    def test_tag_is_asserted_not_repaired(self, grid256):
        amp = np.exp(-grid256.points**2)  # not unit norm
        with pytest.raises(NormalizationError):
            WaveFunction1D(grid256, amp, "normalized")

    def test_normalize_returns_unit_norm(self, grid256):
        wf = normalize(WaveFunction1D(grid256, np.exp(-grid256.points**2)))
        assert wf.norm_tag == "normalized"
        assert abs(wf.norm() - 1.0) < 1e-12

    def test_bad_tag_rejected(self, grid256):
        with pytest.raises(ValidationError):
            WaveFunction1D(grid256, np.ones(256), "renormalized")

    def test_non_finite_rejected(self, grid256):
        amp = np.ones(256, dtype=complex)
        amp[3] = np.nan
        with pytest.raises(ValidationError):
            WaveFunction1D(grid256, amp)

    def test_amplitudes_read_only(self, grid256):
        wf = gaussian_1d(grid256)
        with pytest.raises(ValueError):
            wf.amplitudes[0] = 1.0


class TestInnerProduct:
    def test_displaced_gaussian_overlap_closed_form(self, grid256):
        a = gaussian_1d(grid256, center=0.0, sigma=1.0)
        b = gaussian_1d(grid256, center=2.0, sigma=1.0)
        ov = inner_product(a, b)
        assert abs(ov - GAUSSIAN_OVERLAP_D2) < 1e-10
        assert abs(ov - gaussian_overlap(2.0)) < 1e-10

    def test_unit_norm(self, grid256):
        a = gaussian_1d(grid256)
        assert abs(inner_product(a, a) - 1.0) < 1e-12

    def test_grid_mismatch_raises(self, grid256, grid128):
        a = gaussian_1d(grid256)
        b = gaussian_1d(grid128)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_conjugate_symmetry_and_linearity(self, grid256):
        a = random_state_1d(grid256, seed=1)
        b = random_state_1d(grid256, seed=2)
        c = random_state_1d(grid256, seed=3)
        assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12
        lhs = inner_product(a, WaveFunction1D(grid256, 0.3 * b.amplitudes + 2j * c.amplitudes))
        rhs = 0.3 * inner_product(a, b) + 2j * inner_product(a, c)
        assert abs(lhs - rhs) < 1e-12


class TestMomentumTransform:
    def test_gaussian_transform_closed_form(self, grid256):
        wf = gaussian_1d(grid256, sigma=1.0)
        ft = to_momentum(wf)
        expected = momentum_gaussian(ft.grid.points, sigma=1.0)
        # compare up to the common discrete normalization
        scale = ft.amplitudes[128] / expected[128]
        assert abs(scale.imag) < 1e-12
        assert np.max(np.abs(ft.amplitudes - scale * expected)) < 1e-10

    def test_boosted_gaussian_peaks_at_k0(self, grid256):
        k0 = 2.0 * np.pi * 8 / 32.0  # exact momentum grid point
        ft = to_momentum(gaussian_1d(grid256, sigma=1.0, k0=k0))
        peak = ft.grid.points[np.argmax(np.abs(ft.amplitudes))]
        assert abs(peak - k0) < 1e-12

    def test_parseval(self, grid256):
        wf = random_state_1d(grid256, seed=7)
        ft = to_momentum(wf)
        assert abs(ft.norm() - wf.norm()) < 1e-12

    def test_inner_product_preserved(self, grid256):
        a = random_state_1d(grid256, seed=11)
        b = random_state_1d(grid256, seed=12)
        assert abs(inner_product(a, b) - inner_product(to_momentum(a), to_momentum(b))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_round_trip(self, seed):
        grid = Grid1D(-5.0, 11.0, 64)  # deliberately asymmetric domain
        wf = random_state_1d(grid, seed=seed)
        back = to_position(to_momentum(wf), grid)
        assert np.max(np.abs(back.amplitudes - wf.amplitudes)) < 1e-10

    def test_wrong_inverse_grid_rejected(self, grid256, grid128):
        ft = to_momentum(gaussian_1d(grid256))
        with pytest.raises(GridMismatchError):
            to_position(ft, grid128)


class TestConditionalSlice:
    def test_product_state_slices_proportional(self, grid128):
        psi_x = gaussian_1d(grid128, sigma=1.2)
        phi_y = gaussian_1d(grid128, sigma=0.7)
        psi = product_2d(psi_x, phi_y)
        for y in (-0.5, 0.0, 1.0):
            cut = conditional_slice(psi, y)
            assert cut.norm_tag == "unnormalized"
            j = grid128.index_of(y)
            expect = psi_x.amplitudes * phi_y.amplitudes[j]
            assert np.max(np.abs(cut.amplitudes - expect)) < 1e-14

    def test_nearest_grid_point_semantics(self, grid128):
        psi = random_state_2d(grid128, grid128, seed=3)
        y_j = grid128.points[40]
        a = conditional_slice(psi, y_j)
        b = conditional_slice(psi, y_j + 0.4 * grid128.dx)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_off_grid_rejected(self, grid128):
        psi = random_state_2d(grid128, grid128, seed=4)
        with pytest.raises(OffGridError):
            conditional_slice(psi, grid128.x_max)

    def test_free_evolved_product_slice_matches_analytic(self):
        grid = Grid1D(-16.0, 16.0, 256)
        psi0 = product_2d(gaussian_1d(grid, sigma=1.0), gaussian_1d(grid, sigma=1.5))
        t, steps = 1.0, 40
        psi_t = propagate(psi0, free_potential(grid, grid), t / steps, steps)
        cut = normalize(conditional_slice(psi_t, 0.0))
        ref = free_gaussian(grid.points, t, sigma0=1.0)
        ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx)
        phase = np.vdot(ref, cut.amplitudes)
        phase /= abs(phase)
        err = np.sqrt(np.sum(np.abs(cut.amplitudes - phase * ref) ** 2) * grid.dx)
        assert err < 1e-8
