"""Weak values, momentum-post-selected scans and the pointer protocol.

The pointer Monte Carlo runs through scan_pointer_protocol, the one entry
point, whose per-(site, Y bin) arrays hold the estimates and their exact
infinite-trial limit (ScanResult.expectation); both are checked against
each other and against the closed-form weak values, and the two pointer
models are cross-checked in the weak limit.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state_1d
from oracles import (
    gaussian_pointer_readings,
    product_2d,
    weak_value,
    window_weak_value,
)
from cwflab.errors import OffGridError, PostSelectionError, ValidationError
from cwflab.qgrid import (
    Grid1D,
    WaveFunction1D,
    WaveFunction2D,
    conditional_slice,
    momentum_fft,
    normalize,
    to_momentum,
)
from cwflab.states import beam_splitter, gaussian_1d, two_branch_state
from cwflab.stats import chi2_gof, draw_cells, stream
from cwflab import weakmeas
from cwflab.weakmeas import (
    CHUNK_TRIALS,
    OVERLAP_FLOOR,
    PointerProtocol,
    ScanResult,
    ScanState,
    scan_pointer_protocol,
    weak_value_scan,
)


def lsq_constant(target, scan):
    """Least-squares c minimizing |c*scan - target|."""
    return np.vdot(scan, target) / np.vdot(scan, scan)


class TestWeakValue:
    """The generic weak value of tests/oracles.py, which the momentum scan
    is checked against below."""

    def test_no_postselection_is_expectation(self, grid256):
        psi = gaussian_1d(grid256, 0.7, 1.0, k0=0.3)
        wv = weak_value(grid256.points, psi, psi)
        want = np.sum(grid256.points * psi.density()) * grid256.dx
        assert abs(wv - want) < 1e-12
        assert abs(wv.imag) < 1e-12

    def test_linearity_in_operator(self, grid256):
        rng = np.random.default_rng(8)
        n = grid256.n_points
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psi = random_state_1d(grid256, seed=1)
        b = random_state_1d(grid256, seed=2)
        wa = weak_value(A, psi, b)
        wb = weak_value(B, psi, b)
        wab = weak_value(2.5 * A - 1.3j * B, psi, b)
        assert abs(wab - (2.5 * wa - 1.3j * wb)) < 1e-10 * (1 + abs(wab))

    @settings(max_examples=15, deadline=None)
    @given(ar=st.floats(-3, 3), ai=st.floats(-3, 3), br=st.floats(-3, 3))
    def test_linearity_property(self, ar, ai, br):
        grid = Grid1D(-8.0, 8.0, 128)
        rng = np.random.default_rng(4)
        n = grid.n_points
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psi = gaussian_1d(grid, 0.2, 0.8, k0=0.5)
        b = gaussian_1d(grid, -0.4, 1.1)
        alpha = complex(ar, ai)
        combo = weak_value(alpha * A + br * B, psi, b)
        parts = alpha * weak_value(A, psi, b) + br * weak_value(B, psi, b)
        assert abs(combo - parts) <= 1e-10 * (1 + abs(combo) + abs(parts))

    def test_projector_with_orthogonal_numerator(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        k = grid256.index_of(0.5)
        proj = np.zeros(grid256.n_points)
        proj[k] = 1.0 / grid256.dx
        b_amp = psi.amplitudes.copy()
        b_amp[k] = 0.0
        b = normalize(WaveFunction1D(grid256, b_amp, norm_tag="unnormalized"))
        assert weak_value(proj, psi, b) == 0.0

    def test_orthogonal_postselection_raises(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        x = grid256.points
        odd = normalize(WaveFunction1D(grid256, x * np.exp(-(x**2) / 4.0),
                                       norm_tag="unnormalized"))
        with pytest.raises(PostSelectionError):
            weak_value(np.eye(grid256.n_points), psi, odd)

    def test_validation(self, grid256, grid128):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        with pytest.raises(ValidationError):
            weak_value(np.zeros((4, 4, 4)), psi, psi)
        with pytest.raises(ValidationError):
            weak_value(grid256.points, psi, gaussian_1d(grid128, 0.0, 1.0))
        with pytest.raises(ValidationError):
            weak_value(np.full(grid256.n_points, np.nan), psi, psi)


class TestMomentumScan:
    def test_real_gaussian_scan_is_real_positive(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        scan = weak_value_scan(psi, 0.0)
        assert np.max(np.abs(scan.imag)) < 1e-10
        core = np.abs(psi.amplitudes) > 0.05 * np.abs(psi.amplitudes).max()
        assert np.all(scan.real[core] > 0)

    def test_phase_ramp(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=1.3)
        scan = weak_value_scan(psi, 0.0)
        core = np.abs(psi.amplitudes) > 0.01 * np.abs(psi.amplitudes).max()
        x = grid256.points[core]
        mismatch = np.angle(scan[core] * np.exp(-1j * 1.3 * x))
        ref = mismatch[np.argmin(np.abs(x))]
        assert np.max(np.abs(mismatch - ref)) < 1e-8

    def test_reconstruction_up_to_constant(self, grid256):
        psi = random_state_1d(grid256, seed=9)
        scan = weak_value_scan(psi, 0.0)
        c = lsq_constant(psi.amplitudes, scan)
        resid = np.max(np.abs(c * scan - psi.amplitudes))
        assert resid < 1e-9 * np.max(np.abs(psi.amplitudes))

    def test_completeness_sum(self, grid256):
        psi = random_state_1d(grid256, seed=2)
        for p in (0.0, 0.4, -1.1):
            total = np.sum(weak_value_scan(psi, p)) * grid256.dx
            assert abs(total - 1.0) < 1e-9

    def test_momentum_amplitude_matches_transform(self, grid256):
        psi = gaussian_1d(grid256, 0.4, 1.0, k0=-0.6)
        tilde = to_momentum(psi)
        pgrid = grid256.conjugate()
        k = grid256.index_of(0.4)
        for i in (100, 128, 150):
            p = pgrid.points[i]
            # the scan divides exp(-i p x) psi(x) by <p|psi>
            scan = weak_value_scan(psi, p)
            direct = np.exp(-1j * p * grid256.points[k]) * psi.amplitudes[k] / scan[k]
            via_fft = np.sqrt(2.0 * np.pi) * tilde.amplitudes[i]
            assert abs(direct - via_fft) < 1e-12

    def test_vanishing_denominator_raises(self, grid256):
        x = grid256.points
        odd = normalize(WaveFunction1D(grid256, x * np.exp(-(x**2) / 4.0),
                                       norm_tag="unnormalized"))
        with pytest.raises(PostSelectionError):
            weak_value_scan(odd, 0.0)

    def test_matches_generic_weak_value_with_plane_wave_bra(self, grid256):
        # the scan at x equals weak_value with A = cell projector density
        # and b = delta-normalized plane wave
        psi = gaussian_1d(grid256, 0.2, 1.0, k0=0.9)
        p = 0.4
        k = grid256.index_of(-0.3)
        proj = np.zeros(grid256.n_points)
        proj[k] = 1.0 / grid256.dx
        plane = WaveFunction1D(grid256, np.exp(1j * p * grid256.points),
                               norm_tag="unnormalized")
        generic = weak_value(proj, psi, plane)
        direct = weak_value_scan(psi, p)[k]
        assert abs(generic - direct) < 1e-12 * abs(direct)


class TestEntangledScan:
    def test_factorized_equals_pure(self, grid128):
        psi_x = gaussian_1d(grid128, 0.4, 0.8, k0=0.7)
        psi_y = gaussian_1d(grid128, -0.2, 1.1)
        Psi = product_2d(psi_x, psi_y)
        for Y in (-0.2, 0.5, 1.0):
            ent = weak_value_scan(conditional_slice(Psi, Y), 0.3)
            pure = weak_value_scan(psi_x, 0.3)
            assert np.max(np.abs(ent - pure)) < 1e-12 * np.max(np.abs(pure))

    def test_post_bs_bins_give_branch_waves(self, grid128):
        # x_sep = 6 keeps the branch overlap near 1e-4, the test floor
        Psi = beam_splitter(two_branch_state(grid128, grid128, 6.0, 0.5, 0.7), 2.5)
        psi1 = gaussian_1d(grid128, +3.0, 0.5).amplitudes
        psi2 = gaussian_1d(grid128, -3.0, 0.5).amplitudes
        for Y, branch in ((2.5, psi1), (-2.5, psi2)):
            scan = weak_value_scan(conditional_slice(Psi, Y), 0.0)
            c = lsq_constant(branch, scan)
            assert np.max(np.abs(c * scan - branch)) < 5e-4 * np.max(np.abs(branch))

    def test_pre_bs_gives_superposition(self, grid128):
        Psi = two_branch_state(grid128, grid128, 3.0, 0.5, 0.7)
        both = (gaussian_1d(grid128, +1.5, 0.5).amplitudes
                + gaussian_1d(grid128, -1.5, 0.5).amplitudes) / np.sqrt(2.0)
        scan = weak_value_scan(conditional_slice(Psi, 0.35), 0.0)
        c = lsq_constant(both, scan)
        assert np.max(np.abs(c * scan - both)) < 1e-12 * np.max(np.abs(both))

    def test_scan_proportional_to_conditional_slice(self, grid128):
        Psi = beam_splitter(two_branch_state(grid128, grid128, 3.0, 0.5, 0.7), 2.5)
        for Y in (-2.5, -1.8, 2.2):
            sl = conditional_slice(Psi, Y).amplitudes
            scan = weak_value_scan(conditional_slice(Psi, Y), 0.0)
            c = lsq_constant(sl, scan)
            assert np.max(np.abs(c * scan - sl)) < 1e-12 * np.max(np.abs(sl))

    def test_zero_column_raises(self, grid128):
        psi_x = gaussian_1d(grid128, 0.0, 0.8)
        psi_y = gaussian_1d(grid128, 0.0, 0.8)
        amp = np.outer(psi_x.amplitudes, psi_y.amplitudes)
        j = grid128.index_of(2.0)
        amp[:, j] = 0.0
        Psi = WaveFunction2D(grid128, grid128, amp, norm_tag="unnormalized")
        with pytest.raises(PostSelectionError):
            weak_value_scan(conditional_slice(Psi, 2.0), 0.0)

    def test_off_grid_Y_raises(self, grid128):
        Psi = two_branch_state(grid128, grid128, 3.0, 0.5, 0.7)
        with pytest.raises(OffGridError):
            weak_value_scan(conditional_slice(Psi, 99.0), 0.0)


class TestPointerProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PointerProtocol(coupling=0.0, n_trials=10)
        with pytest.raises(ValidationError):
            PointerProtocol(coupling=0.1, n_trials=0)
        with pytest.raises(ValidationError):
            PointerProtocol(coupling=0.1, n_trials=10, pointer_model="dial")
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError):
                PointerProtocol(coupling=bad, n_trials=10,
                                pointer_model="gaussian")
            with pytest.raises(ValidationError):
                PointerProtocol(coupling=0.1, n_trials=10, pointer_width=bad)

    def test_weakness_ratio(self, grid256):
        q = PointerProtocol(coupling=0.02, n_trials=10)
        assert abs(q.weakness_ratio(grid256) - 0.02 / grid256.dx) < 1e-15
        g = PointerProtocol(coupling=0.02, n_trials=10, pointer_model="gaussian",
                            pointer_width=1.0)
        assert abs(g.weakness_ratio(grid256) - 2 * 0.02 / grid256.dx) < 1e-15


class TestPointerMonteCarlo:
    def test_qubit_matches_exact_expectation(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        proto = PointerProtocol(coupling=0.02, n_trials=400_000, seed=3)
        sites = [grid256.index_of(x) for x in (0.0, 0.5, -1.0)]
        res = scan_pointer_protocol(psi, sites, proto)
        assert not res.empty.any()
        assert (np.abs(res.estimate - res.expectation) < 3 * res.se).all()

    def test_mc_matches_analytic_weak_value(self, grid256):
        # statistical errors dominate the small finite-g bias here
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        proto = PointerProtocol(coupling=0.02, n_trials=400_000, seed=12)
        site = grid256.index_of(0.5)
        res = scan_pointer_protocol(psi, [site], proto)
        wv = weak_value_scan(psi, 0.0)[site]
        (re, im), (se_re, se_im) = res.estimate[0, 0], res.se[0, 0]
        assert abs(re - wv.real) < 3 * se_re
        assert abs(im - wv.imag) < 3 * se_im

    def test_acceptance_rate(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        proto = PointerProtocol(coupling=0.02, n_trials=400_000, seed=3)
        res = scan_pointer_protocol(psi, [grid256.index_of(0.0)], proto)
        p = res.state.acceptance
        se = np.sqrt(p * (1 - p) / proto.n_trials)
        assert abs(res.acceptance_rate[0] - p) < 4 * se

    def test_gaussian_pointer_agrees_with_qubit_weak_limit(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        site = grid256.index_of(0.5)
        pq = PointerProtocol(coupling=0.02, n_trials=1, seed=5)
        pg = PointerProtocol(coupling=0.02, n_trials=200_000, seed=5,
                             pointer_model="gaussian")
        exq = scan_pointer_protocol(psi, [site], pq).expectation[0, 0]
        res = scan_pointer_protocol(psi, [site], pg)
        exg = res.expectation[0, 0]
        assert (np.abs(exq - exg) < 5e-3).all()
        assert (np.abs(res.estimate[0, 0] - exg) < 3 * res.se[0, 0]).all()

    def test_determinism(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        proto = PointerProtocol(coupling=0.02, n_trials=3 * CHUNK_TRIALS // 2,
                                seed=17)
        sites = [grid256.index_of(0.5)]
        a = scan_pointer_protocol(psi, sites, proto)
        b = scan_pointer_protocol(psi, sites, proto)

        def numbers(result, name):
            value = getattr(result, name)
            if name == "state":
                return b"".join(np.asarray(getattr(value, k)).tobytes() for k
                                in ("amp", "den", "total", "acceptance"))
            return np.asarray(value).tobytes()

        for field in fields(ScanResult):
            assert numbers(a, field.name) == numbers(b, field.name), field.name

    def test_planes_bins_match_exact(self, grid128):
        Psi = beam_splitter(two_branch_state(grid128, grid128, 3.0, 0.5, 0.7), 2.5)
        edges = np.array([grid128.x_min, 0.0, grid128.x_max])
        proto = PointerProtocol(coupling=0.02, n_trials=300_000, seed=23,
                                y_bins=edges)
        res = scan_pointer_protocol(Psi, [grid128.index_of(1.5)], proto)
        assert res.estimate.shape == (1, 2, 2)
        assert not res.empty.any()
        assert (np.abs(res.estimate - res.expectation) < 3.5 * res.se).all()

    def test_empty_bin_flagged(self, grid128):
        Psi = beam_splitter(two_branch_state(grid128, grid128, 3.0, 0.5, 0.7), 2.5)
        edges = np.array([7.0, 7.5])
        proto = PointerProtocol(coupling=0.02, n_trials=20_000, seed=1,
                                y_bins=edges)
        res = scan_pointer_protocol(Psi, [grid128.index_of(1.5)], proto)
        assert res.empty[0, 0]
        assert np.isnan(res.estimate[0, 0]).all()

    @pytest.mark.parametrize("edges", [None, [1.0], [0.0, -1.0]])
    def test_two_particle_run_needs_increasing_edges(self, grid128, edges):
        """Y bins come only as edges: none, one, or decreasing are refused."""
        Psi = two_branch_state(grid128, grid128, 3.0, 0.5, 0.7)
        proto = PointerProtocol(coupling=0.02, n_trials=10, y_bins=edges)
        with pytest.raises(ValidationError, match="increasing"):
            scan_pointer_protocol(Psi, [64], proto)

    def test_site_given_as_position(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        proto = PointerProtocol(coupling=0.02, n_trials=10_000, seed=2)
        res = scan_pointer_protocol(psi, [0.5], proto)
        assert res.sites.tolist() == [grid256.index_of(0.5)]

    def test_result_arrays(self, grid128):
        """One scan: sites given as positions and indexes resolve; a bin
        whose trials fell in one basis only is empty, with NaN estimate and
        se, and keeps its counts; expectation is NaN only in the bin that
        holds no Y grid point, so no accepted mass."""
        Psi = beam_splitter(two_branch_state(grid128, grid128, 3.0, 0.5, 0.7),
                            2.5)
        edges = [grid128.x_min, 0.0, 4.0, 4.5, 7.0, 7.01, 7.05]
        proto = PointerProtocol(coupling=0.02, n_trials=4000, seed=1,
                                y_bins=edges)
        res = scan_pointer_protocol(Psi, [-3.0, 50, 1.5], proto)
        assert res.sites.tolist() == [grid128.index_of(-3.0), 50,
                                      grid128.index_of(1.5)]
        assert (res.estimate.shape == res.se.shape == res.expectation.shape
                == res.counts.shape == (3, 6, 2))
        assert res.counts.dtype == np.int64
        # this stream puts one re trial and no im trial at site -3.0, bin 3
        assert res.counts[0, 3].tolist() == [1, 0]
        filled = (res.counts > 0).all(axis=2)
        assert filled.any() and (~filled).any()
        np.testing.assert_array_equal(res.empty, ~filled)
        assert np.isnan(res.estimate[~filled]).all()
        assert np.isnan(res.se[~filled]).all()
        assert np.isfinite(res.estimate[filled]).all()
        assert np.isfinite(res.se[filled]).all()
        no_mass = np.zeros((3, 6, 2), dtype=bool)
        no_mass[:, 5] = True
        np.testing.assert_array_equal(np.isnan(res.expectation), no_mass)


def planes_b_on(model, **kw):
    """The planes scenario's default state behind the splitter, its grid and
    a protocol at its defaults (one Y bin each side of Y = 0)."""
    grid = Grid1D(-8.0, 8.0, 256)
    Psi = beam_splitter(two_branch_state(grid, grid, 6.0, 0.5, 0.7), 2.5)
    kw = {"y_bins": [grid.x_min, 0.0, grid.x_max], "n_trials": CHUNK_TRIALS,
          "p_x_bin": 0.5 * grid.conjugate().dx, **kw}
    proto = PointerProtocol(coupling=0.02, seed=4, pointer_width=0.2,
                            pointer_model=model, **kw)
    return Psi, grid, proto


def qubit_cell_law(Psi, site, proto):
    """Brute-force cell probabilities of the qubit readouts A, D, R, L,
    shape (4, n_p, n_y): couple the whole 2-D state at the site, transform
    it, project the ancilla, and divide by the position-space norm."""
    gx, gy = Psi.grid_x, Psi.grid_y
    a = proto.coupling / (gx.dx * proto.pointer_width)
    h = Psi.amplitudes.copy()
    h[site] *= np.cos(a)
    v = np.zeros_like(h)
    v[site] = np.sin(a) * Psi.amplitudes[site]
    uH, uV = momentum_fft(h, gx), momentum_fft(v, gx)
    norm = (np.abs(Psi.amplitudes) ** 2).sum() * gx.dx * gy.dx
    scale = 0.25 * gx.conjugate().dx * gy.dx / (2.0 * np.pi) / norm
    return np.array([np.abs(uH + c * uV) ** 2 * scale
                     for c in (-1.0, 1.0, 1j, -1j)])


def coupled_cell_probs(Psi, site, proto):
    """Brute-force whole-grid cell probabilities (n_p, n_y) of the state
    coupled at the site, over the position-space norm: for the qubit the
    sum of its four readout laws, for the gaussian pointer the uncoupled
    and coupled parts' weights plus their cross term times the overlap of
    the pointer mode with its shift."""
    if proto.pointer_model == "qubit":
        return qubit_cell_law(Psi, site, proto).sum(axis=0)
    gx, gy = Psi.grid_x, Psi.grid_y
    rest, part = Psi.amplitudes.copy(), np.zeros_like(Psi.amplitudes)
    part[site], rest[site] = rest[site], 0.0
    R, N = momentum_fft(rest, gx), momentum_fft(part, gx)
    s = proto.coupling / gx.dx
    overlap = np.exp(-s**2 / (8.0 * proto.pointer_width**2))
    nu = np.abs(R) ** 2 + np.abs(N) ** 2 + 2.0 * (np.conj(R) * N).real * overlap
    norm = (np.abs(Psi.amplitudes) ** 2).sum() * gx.dx * gy.dx
    return nu * gx.conjugate().dx * gy.dx / (2.0 * np.pi) / norm


def gaussian_law_site(system):
    """(Psi, site, proto, tables) of a gaussian-pointer site: a planes B/on
    site, or ("interfering") a packet three cells wide whose x y phase
    gives a complex weak value, of opposite imaginary parts in the two Y
    bins, and C < 0 cells in both bins, where |y| > 1.6."""
    if system == "planes":
        Psi, grid, proto = planes_b_on("gaussian")
        site = grid.index_of(3.0)
    else:
        gx, gy = Grid1D(-8.0, 8.0, 32), Grid1D(-8.0, 8.0, 64)
        x, y = gx.points[:, None], gy.points[None, :]
        Psi = normalize(WaveFunction2D(gx, gy, np.exp(
            -x**2 - y**2 / 9.0 + 2j * x * y)))
        proto = PointerProtocol(coupling=0.5, n_trials=1, seed=2,
                                pointer_width=0.5, p_x_bin=1.0,
                                y_bins=[-8.0, 0.0, 8.0],
                                pointer_model="gaussian")
        site = gx.index_of(0.5)
    state = ScanState(Psi, proto.p_x_bin, proto.y_bins)
    tab = weakmeas.site_tables(state, site, proto)
    if system == "interfering":
        assert all((tab.C[tab.bin_of_kept == b] < 0).any() for b in (0, 1))
    return Psi, site, proto, tab


def kept_amplitudes(Psi, site, tab):
    """(rest, num) at tab's kept cells: the momentum transforms of the state
    with the site's column zeroed and of that column alone."""
    c = tab.cells
    rest, part = Psi.amplitudes.copy(), np.zeros_like(Psi.amplitudes)
    part[site], rest[site] = rest[site], 0.0
    flat = tab.kept + c.rows.start * c.n_y
    return tuple(momentum_fft(a, Psi.grid_x).ravel()[flat]
                 for a in (rest, part))


class TestCountDraw:
    """The count draw of one site: its category law, the gaussian readings
    drawn for its window trials, and the records that view its chunk 0."""

    @pytest.mark.parametrize("model", ["qubit", "gaussian"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_total_is_the_whole_grid_mass(self, model, seed):
        """The state's norm normalises the window-row tables: the coupled
        cell probabilities sum to 1 over the whole grid, and the tables
        hold their window rows."""
        psi, _ = entangled_gaussians(seed)
        gy = psi.grid_y
        proto = PointerProtocol(coupling=0.3, n_trials=1,
                                pointer_model=model, p_x_bin=2.0,
                                y_bins=np.linspace(gy.x_min, gy.x_max, 17))
        state = ScanState(psi, proto.p_x_bin, proto.y_bins)
        for site in (5, psi.grid_x.n_points // 2):
            tab = weakmeas.site_tables(state, site, proto)
            full = coupled_cell_probs(psi, site, proto)
            assert full.sum() == pytest.approx(1.0, abs=1e-13)
            np.testing.assert_allclose(tab.q, full[tab.cells.rows],
                                       rtol=1e-10, atol=1e-16)
            assert tab.probs.sum() == pytest.approx(1.0, abs=1e-13)
            assert tab.probs[-1] == pytest.approx(
                1.0 - full[tab.cells.rows].sum(), abs=1e-13)

    @pytest.mark.parametrize("splitter", [True, False])
    def test_qubit_counts_follow_the_category_law(self, splitter):
        """Counts pooled over 400 chunk keys of a planes site (B/on, or the
        state before the splitter) against the brute-force (bin, basis,
        outcome) probabilities, chi-square; the tables' law equals them to
        roundoff."""
        Psi, grid, proto = planes_b_on("qubit", y_bins=[-3.0, 0.0, 3.0])
        if not splitter:
            Psi = two_branch_state(grid, grid, 6.0, 0.5, 0.7)
        site = grid.index_of(3.0)
        state = ScanState(Psi, proto.p_x_bin, proto.y_bins)
        tab = weakmeas.site_tables(state, site, proto)
        law = qubit_cell_law(Psi, site, proto)
        c = tab.cells
        window = law[:, np.abs(c.p_values) < proto.p_x_bin]
        want = [window[..., c.bin_of_y == b].sum(axis=(1, 2))
                for b in range(c.n_bins)]
        want = np.append(want, window[..., c.bin_of_y < 0].sum())
        want = np.append(want, 1.0 - want.sum())
        np.testing.assert_allclose(tab.probs, want, rtol=1e-10, atol=1e-15)
        counts, moments = weakmeas.tally(tab, 400 * CHUNK_TRIALS, 7, site)
        assert counts.sum() == 400 * CHUNK_TRIALS
        assert chi2_gof(counts, want)["p_value"] > 1e-3
        n = counts[:-2].reshape(-1, 2, 2)
        np.testing.assert_array_equal(moments[0], n.sum(axis=2))
        np.testing.assert_array_equal(moments[1], n[..., 1] - n[..., 0])

    @pytest.mark.parametrize("system", ["planes", "entangled"])
    def test_gaussian_readings_follow_the_table_means(self, system):
        """The readings drawn for one site's window trials: per (bin, basis)
        mean within 3 SE of the tables' expected reading, on a planes B/on
        site and on a random entangled state, whose weak values are complex
        (the planes state's are real)."""
        if system == "planes":
            Psi, grid, proto = planes_b_on("gaussian")
            site, chunks = grid.index_of(3.0), 100
        else:
            Psi, _ = entangled_gaussians(2)
            gy = Psi.grid_y
            proto = PointerProtocol(coupling=0.3, n_trials=1, p_x_bin=1.0,
                                    pointer_width=0.5,
                                    y_bins=np.linspace(gy.x_min, gy.x_max, 3),
                                    pointer_model="gaussian")
            site, chunks = Psi.grid_x.n_points // 2, 8
        state = ScanState(Psi, proto.p_x_bin, proto.y_bins)
        tab = weakmeas.site_tables(state, site, proto)
        counts, (n, total, total_sq) = weakmeas.tally(
            tab, chunks * CHUNK_TRIALS, 7, site)
        assert chi2_gof(counts, tab.probs)["p_value"] > 1e-3
        assert (n > 10_000).all()
        mean = total / n
        se = np.sqrt((total_sq / n - mean**2) / n)
        assert (np.abs(mean - tab.pooled()) < 3.0 * se).all()

    @pytest.mark.parametrize("system", ["planes", "interfering"])
    def test_slot_moments_follow_the_cell_law(self, system):
        """The slot-level readings of moments against the cell-level
        reference draw of tests/oracles.py, over 1,500 chunk keys of 4 to
        1,024 trials at one site, both ways from each key's counts. Per
        (bin, basis) slot the counts are equal, a slot of no reading has sum
        and sum of squares 0, one of one reading has sum^2 = sum of
        squares, and the pooled mean and mean square agree within 4 SE (a
        ratio estimator over the keys)."""
        Psi, site, proto, tab = gaussian_law_site(system)
        c = tab.cells
        sizes, n_keys, n_slots = (4, 16, 64, 256, 1024), 1500, 2 * c.n_bins
        rngs = [stream(proto.seed, site, k) for k in range(n_keys)]
        drawn = [rng.multinomial(sizes[k % len(sizes)], tab.probs)
                 for k, rng in enumerate(rngs)]
        got = np.array([tab.moments(rng, d) for rng, d in zip(rngs, drawn)])
        # the reference: every window trial's reading from its cell's law
        rest, num = kept_amplitudes(Psi, site, tab)
        cat = [np.repeat(np.arange(d.size - 2), d[:-2]) for d in drawn]
        key = np.repeat(np.arange(n_keys), [k.size for k in cat])
        cat = np.concatenate(cat)
        r = gaussian_pointer_readings(
            rest[cat // 2], num[cat // 2], tab.s, proto.pointer_width,
            cat % 2 == 1, np.random.default_rng(5))
        index = key * n_slots + 2 * tab.bin_of_kept[cat // 2] + cat % 2
        want = np.array([np.bincount(index, weights=w,
                                     minlength=n_keys * n_slots)
                         for w in (np.ones_like(r), r, r * r)])
        want = want.reshape(3, n_keys, n_slots).transpose(1, 0, 2)
        n, total, total_sq = got.transpose(1, 0, 2)
        np.testing.assert_array_equal(n, want[:, 0])
        assert (n == 0).any(axis=0).all() and (n == 1).any(axis=0).all()
        assert not total[n == 0].any() and not total_sq[n == 0].any()
        np.testing.assert_allclose(total_sq[n == 1], total[n == 1] ** 2,
                                   rtol=1e-12)
        for k in (1, 2):
            ratio = [m[:, k].sum(axis=0) / n.sum(axis=0) for m in (got, want)]
            var = sum(((m[:, k] - R * n) ** 2).sum(axis=0)
                      for m, R in zip((got, want), ratio)) / n.sum(axis=0)**2
            z = (ratio[0] - ratio[1]) / np.sqrt(var)
            assert (np.abs(z) < 4.0).all(), (k, z)

    @pytest.mark.parametrize("system", ["planes", "interfering"])
    def test_reading_shares_mix_to_the_cell_law(self, system):
        """The shares that moments splits each kept cell's readings into
        mix back to the cell's reading density, pointwise on a fine grid.
        Position: N(0), N(s) and N(s/2), all of width sigma_q, or where
        C < 0 the share |sqrt A phi(q) - sqrt B phi(q - s)|^2 in place of
        N(s/2); momentum: N(0, sigma_p^2) and N(0, sigma_p^2)(p)
        (1 + cos(p s - arg b)). Each share is normalised numerically, and
        the target is |rest phi(q) + num phi(q - s)|^2 and
        N(0, sigma_p^2)(p) |rest + num e^{-i p s}|^2."""
        Psi, site, proto, tab = gaussian_law_site(system)
        rest, num = (a[:, None] for a in kept_amplitudes(Psi, site, tab))
        s, sq, sp = tab.s, proto.pointer_width, 0.5 / proto.pointer_width

        def unit(f, x):   # f normalised on the even grid x
            return f / (f.sum(axis=-1, keepdims=True) * (x[1] - x[0]))

        q = np.linspace(-10.0 * sq, s + 10.0 * sq, 4001)
        phi0, phis = (np.exp(-((q - mu) / sq) ** 2 / 4.0) for mu in (0.0, s))
        half = np.where(tab.interferes[:, None], unit(np.abs(
            np.sqrt(tab.A)[:, None] * phi0 - np.sqrt(tab.B)[:, None] * phis)
            ** 2, q), unit(phi0 * phis, q))
        w0, ws, wh = tab.pos_split.T[:, :, None]
        got = w0 * unit(phi0**2, q) + ws * unit(phis**2, q) + wh * half
        want = unit(np.abs(rest * phi0 + num * phis) ** 2, q)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-9 * want.max())
        p = np.linspace(-12.0 * sp, 12.0 * sp, 4001)
        gauss = np.exp(-(p / sp) ** 2 / 2.0)
        pure = tab.mom_pure[:, None]
        got = pure * unit(gauss, p) + (1.0 - pure) * unit(
            gauss * (1.0 + np.cos(p * s - tab.arg_b[:, None])), p)
        want = unit(gauss * np.abs(rest + num * np.exp(-1j * p * s)) ** 2, p)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-9 * want.max())

    @pytest.mark.parametrize("model", ["qubit", "gaussian"])
    def test_window_of_every_row_leaves_no_trial_outside(self, model):
        """A window wider than the p grid: the outside category has no
        mass, every trial is inside, and the records need no whole-grid
        weights."""
        Psi, grid, proto = planes_b_on(model, p_x_bin=1e3, n_trials=5000,
                                       y_bins=[-3.0, 0.0, 3.0])
        site = grid.index_of(3.0)
        state = ScanState(Psi, proto.p_x_bin, proto.y_bins)
        tab = weakmeas.site_tables(state, site, proto)
        assert tab.q.shape == (grid.n_points, grid.n_points)
        assert tab.probs[-1] == pytest.approx(0.0, abs=1e-13)
        res = scan_pointer_protocol(Psi, [site], proto)
        assert res.acceptance_rate[0] == 1.0 == res.state.acceptance
        assert (res.counts.sum(axis=(1, 2)) < proto.n_trials).all()
        rec = weakmeas.replay_records(res.state, site, proto, 5000)
        assert (np.abs(rec["p_x"]) < proto.p_x_bin).all()
        np.testing.assert_array_equal(rec["accepted"], rec["y_bin"] >= 0)

    @pytest.mark.parametrize("model", ["qubit", "gaussian"])
    def test_records_view_the_chunk(self, model):
        """The records of all of chunk 0: their category counts are the
        chunk's, accepted records lie in the window and the Y bin, and
        their cells follow each category's cell law. On a coarse x grid
        the coupled cell carries a large weak value for Y > 0 and none for
        Y < 0, so the qubit outcomes tell the two halves of the bin apart."""
        gx, gy = Grid1D(-8.0, 8.0, 32), Grid1D(-8.0, 8.0, 128)
        Psi = beam_splitter(two_branch_state(gx, gy, 6.0, 0.5, 0.7), 2.5)
        proto = PointerProtocol(coupling=0.3, n_trials=CHUNK_TRIALS, seed=4,
                                pointer_width=0.4, y_bins=[-3.0, 3.0],
                                p_x_bin=0.5 * gx.conjugate().dx,
                                pointer_model=model)
        site = gx.index_of(3.0)
        state = ScanState(Psi, proto.p_x_bin, proto.y_bins)
        tab = weakmeas.site_tables(state, site, proto)
        c = tab.cells
        counts = weakmeas.tally(tab, CHUNK_TRIALS, proto.seed, site)[0]
        rec = weakmeas.replay_records(state, site, proto, CHUNK_TRIALS)
        inside = np.abs(rec["p_x"]) < proto.p_x_bin
        acc = rec["accepted"]
        np.testing.assert_array_equal(acc, inside & (rec["y_bin"] >= 0))
        assert (inside & (rec["y_bin"] < 0)).sum() == counts[-2] > 0
        assert (~inside).sum() == counts[-1]
        # the outside records' p rows follow the whole-grid law
        rows = coupled_cell_probs(Psi, site, proto).sum(axis=1)
        rows[c.rows] = 0.0
        p_all = np.rint((rec["p_x"] - c.p_values[0])
                        / gx.conjugate().dx).astype(int)
        seen = np.bincount(p_all[~inside], minlength=rows.size)
        assert not seen[c.rows].any()
        assert chi2_gof(seen[rows > 0], rows[rows > 0])["p_value"] > 1e-3
        y_idx = np.rint((rec["y"] - gy.x_min) / gy.dx).astype(int)
        p_row = np.rint((rec["p_x"] - c.p_values[c.rows.start])
                        / gx.conjugate().dx).astype(int)
        cell = (p_row * c.n_y + y_idx)[acc]
        im = rec["basis"][acc] == "im"
        if model == "gaussian":
            # a gaussian category is one (cell, basis): the counts match
            kept = np.searchsorted(tab.kept, cell)
            assert (tab.kept[kept] == cell).all()
            got = np.bincount(2 * kept + im, minlength=counts.size - 2)
            np.testing.assert_array_equal(got, counts[:-2])
            return
        law = qubit_cell_law(Psi, site, proto)[:, c.rows].reshape(4, -1)
        outcome = np.array([o for o in rec["outcome"][acc]])
        kind = 2 * im + (outcome > 0)
        for k in range(4):
            sel = kind == k
            assert sel.sum() == counts[k]
            w = law[k] * (c.bin_of_y[np.arange(law.shape[1]) % c.n_y] == 0)
            seen = np.bincount(cell[sel], minlength=w.size)
            assert (seen[w == 0] == 0).all()
            assert chi2_gof(seen[w > 0], w[w > 0])["p_value"] > 1e-3


class TestGuideLookup:
    """The records' cell lookup, stats.draw_cells: an inverse-CDF search
    of non-negative weights. It returns only cells of positive weight, in
    the order of u, and hits each cell with its share of an even grid of
    uniforms to within one."""

    @staticmethod
    def check(mass, extra_u=()):
        mass = np.asarray(mass, dtype=float)
        even = (np.arange(4096) + 0.5) / 4096
        u = np.concatenate([even, [0.0, np.nextafter(1.0, 0.0)],
                            np.asarray(extra_u, dtype=float)])
        cells = draw_cells(mass, u)
        assert (mass.ravel()[cells] > 0).all()
        hits = cells[:even.size]
        assert (np.diff(hits) >= 0).all()
        share = mass.ravel() / mass.sum() * even.size
        assert (np.abs(np.bincount(hits, minlength=mass.size) - share)
                <= 2.0).all()
        return cells

    @settings(max_examples=150, deadline=None)
    @given(runs=st.lists(st.tuples(st.booleans(), st.integers(1, 70)),
                         min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_mass_runs(self, runs, seed):
        """Stretches of zero mass anywhere, also first and last."""
        rng = np.random.default_rng(seed)
        mass = np.concatenate([np.zeros(n) if empty else rng.random(n)
                               for empty, n in runs])
        if not mass.any():
            mass[rng.integers(mass.size)] = 1.0
        self.check(mass, rng.random(2000))

    @pytest.mark.parametrize("n_p, n_y", [(1, 1), (2, 3), (7, 1), (9, 16)])
    def test_windows_on_the_first_and_last_rows(self, n_p, n_y):
        """The records' outside-window weights: (n_p, n_y) cells with a row
        range zeroed, at the grid's first and last rows and inside it."""
        rng = np.random.default_rng(n_p * 100 + n_y)
        for r0, r1 in {(0, 1), (n_p - 1, n_p), (0, 0), (n_p, n_p),
                       (n_p // 2, n_p // 2 + 1)}:
            mass = rng.random((n_p, n_y))
            mass[r0:r1] = 0.0
            if not mass.any():
                continue
            rows = self.check(mass, rng.random(500)) // n_y
            assert not ((r0 <= rows) & (rows < r1)).any()

    @pytest.mark.parametrize("size", [1, 2, 3, 100, 256, 257])
    def test_single_cell_carries_all_mass(self, size):
        for cell in {0, size // 2, size - 1}:
            mass = np.zeros(size)
            mass[cell] = 2.5
            assert (self.check(mass, [0.5]) == cell).all()

    def test_uneven_masses_with_ties(self):
        # masses spanning 30 decades make cdf steps far below one ulp of
        # the total; u just below 1 must still land on a massive cell
        rng = np.random.default_rng(11)
        mass = 10.0 ** rng.uniform(-30, 0, 3000)
        mass[::7] = 0.0
        mass[-5:] = 0.0
        self.check(mass, np.concatenate([rng.random(5000),
                                         1.0 - 2.0 ** -np.arange(40, 54)]))


class TestPerStateWork:
    """The per-state part of a scan: the momentum window."""

    @pytest.mark.parametrize("model", ["qubit", "gaussian"])
    def test_empty_window(self, grid128, model):
        """A window that holds no p cell accepts nothing and says so."""
        Psi = beam_splitter(two_branch_state(grid128, grid128, 3.0, 0.5, 0.7),
                            2.5)
        proto = PointerProtocol(coupling=0.02, n_trials=5000, seed=1,
                                p_x_bin=0.0, y_bins=[grid128.x_min, 0.0,
                                                     grid128.x_max],
                                pointer_model=model)
        sites = [grid128.index_of(x) for x in (-3.0, 1.5)]
        res = scan_pointer_protocol(Psi, sites, proto)
        assert (res.acceptance_rate == 0.0).all()
        assert res.state.acceptance == 0.0
        assert res.empty.all() and not res.counts.any()
        assert np.isnan(res.expectation).all()
        rec = weakmeas.replay_records(res.state, sites[1], proto, 1000)
        assert rec["trial"].size == 1000 and not rec["accepted"].any()


class TestBiasStudy:
    """Exact infinite-trial bias against the closed-form weak value.

    The estimator bias decomposes into a coupling-independent part from the
    finite momentum window plus even powers of g, so the doubling ratio
    crosses the [1.5, 2.5] band where the g^2 term overtakes the window
    term; these tests pin that doubling for each suite state.
    """

    @staticmethod
    def relative_bias(system, sites, scans, gval, edges=None):
        kw = {"y_bins": edges} if edges is not None else {}
        proto = PointerProtocol(coupling=gval, n_trials=1,
                                pointer_model="gaussian", **kw)
        est = scan_pointer_protocol(system, sites, proto).expectation
        est = est.view(complex)[..., 0]   # (n_sites, n_bins)
        want = np.column_stack([scan[sites] for scan in scans])
        return np.linalg.norm(est - want) / np.linalg.norm(want)

    def test_pure_state_upper_doubling(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0, k0=0.4)
        scan = weak_value_scan(psi, 0.0)
        sites = np.flatnonzero(np.abs(psi.amplitudes)
                               > 0.05 * np.abs(psi.amplitudes).max())
        b1 = self.relative_bias(psi, sites, [scan], 0.04)
        b2 = self.relative_bias(psi, sites, [scan], 0.08)
        assert 1.5 <= b2 / b1 <= 2.5

    def test_planes_state_lower_doubling(self):
        grid = Grid1D(-8.0, 8.0, 256)
        Psi = beam_splitter(two_branch_state(grid, grid, 6.0, 0.5, 0.7), 2.5)
        edges = np.array([grid.x_min, 0.0, grid.x_max])
        scan_m = weak_value_scan(conditional_slice(Psi, -2.5), 0.0)
        scan_p = weak_value_scan(conditional_slice(Psi, 2.5), 0.0)
        dens_x = Psi.density().sum(axis=1)
        sites = np.flatnonzero(dens_x > 0.0025 * dens_x.max())
        b1 = self.relative_bias(Psi, sites, [scan_m, scan_p], 0.02, edges)
        b2 = self.relative_bias(Psi, sites, [scan_m, scan_p], 0.04, edges)
        assert 1.5 <= b2 / b1 <= 2.5


def entangled_gaussians(seed):
    """(Psi, j): a random entangled state and a Y cell j drawn from its y
    marginal. Psi sums three Gaussians with random centres, widths, momenta
    and weights, times an x*y phase, on a square grid of 32 or 64 points
    per axis. The grid spans a random length, so dx is not a power of two."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(6.0, 9.0)
    grid = Grid1D(-half, half, int(rng.choice([32, 64])))
    x, y = grid.points[:, None], grid.points[None, :]
    amp = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for _ in range(3):
        (cx, cy), (sx, sy), (kx, ky) = (rng.uniform(-2.0, 2.0, 2),
                                        rng.uniform(0.7, 1.4, 2),
                                        rng.uniform(-0.5, 0.5, 2))
        amp += (rng.normal() + 1j * rng.normal()) * np.exp(
            -(x - cx) ** 2 / (4.0 * sx**2) - (y - cy) ** 2 / (4.0 * sy**2)
            + 1j * (kx * x + ky * y))
    amp *= np.exp(1j * rng.uniform(-0.2, 0.2) * x * y)
    psi = normalize(WaveFunction2D(grid, grid, amp))
    rho_y = psi.density().sum(axis=0)
    j = int(np.searchsorted(np.cumsum(rho_y) / rho_y.sum(),
                            rng.uniform(0.05, 0.95)))
    return psi, j


class TestConditionalReadout:
    """The paper's first claim on random entangled states, through the
    operational path: pointer coupling at one x cell, a momentum window
    around p = 0, a Y bin, then the scan's exact expectation. With a
    one-cell Y bin and a window holding only p = 0 the readout tends to
    c Psi(., Y), the conditional wave function; with a three-cell window,
    to the window's weak value (oracles.window_weak_value). The bias is
    even in the coupling, so it falls fourfold when g halves."""

    @staticmethod
    def protocol(psi, g, model="qubit", width=1.0, n_win=1, j=None):
        """One-cell Y bin at j (None: one bin over all of Y) and a window
        of n_win momentum cells."""
        gx, gy = psi.grid_x, psi.grid_y
        dp = 2.0 * np.pi / (gx.n_points * gx.dx)
        edges = np.linspace(gy.x_min, gy.x_max, 2) if j is None else [
            gy.points[j] - 0.5 * gy.dx, gy.points[j] + 0.5 * gy.dx]
        return PointerProtocol(coupling=g, n_trials=1, pointer_width=width,
                               p_x_bin=0.5 * n_win * dp, y_bins=edges,
                               pointer_model=model)

    @staticmethod
    def readout(psi, sites, proto):
        """The first Y bin's exact estimate re + i im at each site."""
        ex = scan_pointer_protocol(psi, sites, proto).expectation
        return ex.view(complex)[:, 0, 0]

    @staticmethod
    def sites(column):
        return np.flatnonzero(np.abs(column) > 0.2 * np.abs(column).max())

    @staticmethod
    def epsilon(psi, g, model, width):
        """The pointer's small parameter: the qubit angle g / (dx width),
        or the gaussian shift times momentum spread, g / (2 dx width)."""
        a = g / (psi.grid_x.dx * width)
        return a if model == "qubit" else 0.5 * a

    @staticmethod
    def deviation(got, want):
        return float(np.linalg.norm(got - want) / np.linalg.norm(want))

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["qubit", "gaussian"]),
           width=st.sampled_from([0.5, 1.0]), n_win=st.sampled_from([1, 3]))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_bias_is_second_order(self, seed, model, width, n_win):
        psi, j = entangled_gaussians(seed)
        column = psi.amplitudes[:, j]
        sites = self.sites(column)
        want = window_weak_value(column, psi.grid_x, n_win)[sites]
        dev = [self.deviation(self.readout(
            psi, sites, self.protocol(psi, g, model, width, n_win, j)), want)
            for g in (0.02, 0.01)]
        assert 3.5 <= dev[0] / dev[1] <= 4.5
        assert dev[0] < self.epsilon(psi, 0.02, model, width) ** 2

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["qubit", "gaussian"]),
           theta=st.floats(0.1, 6.2))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_global_phase_leaves_readout(self, seed, model, theta):
        psi, j = entangled_gaussians(seed)
        sites = self.sites(psi.amplitudes[:, j])
        turned = WaveFunction2D(psi.grid_x, psi.grid_y,
                                np.exp(1j * theta) * psi.amplitudes)
        proto = self.protocol(psi, 0.02, model, n_win=3, j=j)
        got = self.readout(turned, sites, proto)
        want = self.readout(psi, sites, proto)
        assert self.deviation(got, want) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["qubit", "gaussian"]),
           shift=st.sampled_from([-3, -1, 2, 5]))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_whole_cell_shift_shifts_readout(self, seed, model, shift):
        # the momentum phases of the coupled cell must follow the shift,
        # so the window holds p = +-dp as well as p = 0
        psi, j = entangled_gaussians(seed)
        sites = self.sites(psi.amplitudes[:, j])
        moved = WaveFunction2D(psi.grid_x, psi.grid_y,
                               np.roll(psi.amplitudes, shift, axis=0))
        proto = self.protocol(psi, 0.02, model, n_win=3, j=j)
        got = self.readout(moved, (sites + shift) % psi.grid_x.n_points,
                           proto)
        want = self.readout(psi, sites, proto)
        assert self.deviation(got, want) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["qubit", "gaussian"]))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_conjugation_conjugates_readout(self, seed, model):
        psi, j = entangled_gaussians(seed)
        sites = self.sites(psi.amplitudes[:, j])
        mirrored = WaveFunction2D(psi.grid_x, psi.grid_y,
                                  np.conj(psi.amplitudes))
        proto = self.protocol(psi, 0.02, model, j=j)
        got = self.readout(mirrored, sites, proto)
        want = np.conj(self.readout(psi, sites, proto))
        assert self.deviation(got, want) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(["qubit", "gaussian"]))
    @settings(derandomize=True, max_examples=8, deadline=None)
    def test_wide_y_bin_reads_no_conditional_wave(self, seed, model):
        """Pooling every Y cell mixes conditional wave functions that
        differ: the readout stays far from c Psi(., Y) for every Y however
        weak the coupling, the paper's condition of a suitable
        post-selection."""
        psi, _ = entangled_gaussians(seed)
        rho_x = psi.density().sum(axis=1)
        rho_y = psi.density().sum(axis=0)
        sites = np.flatnonzero(rho_x > 0.04 * rho_x.max())
        wants = [window_weak_value(psi.amplitudes[:, j], psi.grid_x, 1)[sites]
                 for j in np.flatnonzero(rho_y > 0.05 * rho_y.max())]
        got = [self.readout(psi, sites, self.protocol(psi, g, model))
               for g in (0.02, 0.005)]
        dev = [min(self.deviation(r, want) for want in wants) for r in got]
        assert dev[1] > 0.9 * dev[0]
        assert dev[1] > 10.0 * self.epsilon(psi, 0.005, model, 1.0) ** 2


class TestExports:
    def make_results(self, grid256):
        psi = gaussian_1d(grid256, 0.0, 1.0)
        proto = PointerProtocol(coupling=0.02, n_trials=20_000, seed=2)
        return scan_pointer_protocol(psi, [grid256.index_of(0.0),
                                           grid256.index_of(0.5)], proto)

    def test_weak_values_accessor(self, grid256):
        results = self.make_results(grid256)
        assert isinstance(results, ScanResult)
        assert results.empty.shape == (2, 1) and not results.empty.any()
        assert OVERLAP_FLOOR == 1e-12
