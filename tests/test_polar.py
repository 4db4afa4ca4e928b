"""Polarization density-matrix algebra: reduced and conditional matrices,
mixed-state weak values, and the entrywise direct reconstruction."""

import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwflab import polar
from cwflab.errors import OffGridError, PostSelectionError, ValidationError
from cwflab.qgrid import Grid1D


# circular polarizations: not used by the reconstruction, only as further
# post-selection states for the weak-value checks
L = polar.PolarizationState(np.array([1.0, 1.0j]) / np.sqrt(2.0), "L")
R = polar.PolarizationState(np.array([1.0, -1.0j]) / np.sqrt(2.0), "R")


def make_spec(n_y=64):
    return polar.HilbertSpec(Grid1D(-8.0, 8.0, n_y))


def random_mixed_2x2(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def embed_pol1(sigma, spec, pos_index=10):
    # sigma (x) |e><e| with e a basis vector of pol2 (x) pos2
    e = np.zeros(2 * spec.n_y)
    e[pos_index] = 1.0
    full = np.kron(sigma, np.outer(e, e))
    return polar.DensityOperator(oracles.factor_of(full, spec.dims), spec.dims,
                                 spec=spec)


def maximally_mixed_2x2():
    return polar.DensityOperator(np.eye(2) / np.sqrt(2.0), (2,))


def random_pure_composite(spec, seed):
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=4 * spec.n_y) + 1j * rng.normal(size=4 * spec.n_y)
    return polar.pure_dm(ket / np.linalg.norm(ket), spec)


def pointer_branches(spec, shift, width):
    ket = oracles.ket_psi2(spec, shift, width).reshape(spec.dims)
    return np.sqrt(2.0) * ket[0, 0], np.sqrt(2.0) * ket[1, 1]


class TestStates:
    def test_named_polarizations(self):
        for s in (polar.H, polar.V, polar.D, polar.A, L, R):
            assert abs(np.vdot(s.vector, s.vector) - 1.0) < 1e-15
        assert abs(np.vdot(polar.D.vector, polar.A.vector)) < 1e-15
        assert abs(np.vdot(L.vector, R.vector)) < 1e-15
        assert polar.D.label == "D"

    def test_bad_polarization_raises(self):
        with pytest.raises(ValidationError):
            polar.PolarizationState(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            polar.PolarizationState(np.array([1.0, 1.0]))

    def test_state_norms(self):
        spec = make_spec()
        assert abs(polar.make_state_psi1(spec).trace() - 1.0) < 1e-12
        assert abs(oracles.make_state_psi2(spec, 2.0).trace() - 1.0) < 1e-12

    def test_psi2_zero_shift_is_psi1(self):
        spec = make_spec()
        k1 = polar.ket_psi1(spec, width=0.5)
        k2 = oracles.ket_psi2(spec, 0.0, width=0.5)
        assert np.array_equal(k1, k2)

    def test_pointer_overlap_formula(self):
        spec = make_spec()
        for shift, width in ((1.0, 0.5), (2.0, 0.5), (1.5, 0.75)):
            plus, minus = pointer_branches(spec, shift, width)
            got = abs(np.vdot(plus, minus))
            want = np.exp(-(shift**2) / (2.0 * width**2))
            assert abs(got - want) < 1e-12

    def test_separated_pointers_nearly_orthogonal(self):
        spec = make_spec()
        width = 0.5
        plus, minus = pointer_branches(spec, 4.0 * width, width)
        assert abs(np.vdot(plus, minus)) < 1e-3

class TestDensityOperator:
    def test_validation(self):
        k = oracles.factor_of(np.array([[0.5, 0.1j], [-0.1j, 0.5]]), (2,))
        rho = polar.DensityOperator(k, (2,))
        assert abs(rho.matrix[0, 1] - 0.1j) < 1e-15
        with pytest.raises(ValidationError):
            polar.DensityOperator(np.eye(2), (2,))
        with pytest.raises(ValidationError):
            polar.DensityOperator(k, (2,), "half-normalized")
        with pytest.raises(ValidationError):
            polar.DensityOperator(k, (4,))

    def test_unnormalized_tag_allows_any_trace(self):
        rho = polar.DensityOperator(np.sqrt(0.3) * np.eye(2), (2,),
                                    "unnormalized")
        assert abs(rho.trace() - 0.6) < 1e-15

    def test_spec_dims_consistency(self):
        spec = make_spec(8)
        with pytest.raises(ValidationError):
            polar.DensityOperator(np.eye(2) / np.sqrt(2.0), (2,), spec=spec)

    def test_matrix_is_read_only(self):
        rho = maximally_mixed_2x2()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0


class TestReducedDm:
    def test_both_states_maximally_mixed(self):
        spec = make_spec()
        for rho in (polar.make_state_psi1(spec), oracles.make_state_psi2(spec, 2.0)):
            red = polar.reduced_dm(rho)
            assert np.max(np.abs(red.matrix - np.eye(2) / 2.0)) < 1e-12
            assert red.norm_tag == "trace-one"

    def test_product_state_keeps_polarization(self):
        spec = make_spec()
        e = np.zeros(2 * spec.n_y)
        e[37] = 1.0
        ket = np.kron(polar.D.vector, e)
        red = polar.reduced_dm(polar.pure_dm(ket, spec))
        want = np.outer(polar.D.vector, polar.D.vector.conj())
        assert np.max(np.abs(red.matrix - want)) < 1e-12

    def test_needs_full_space(self):
        rho = maximally_mixed_2x2()
        with pytest.raises(ValidationError):
            polar.reduced_dm(rho)


class TestConditionalDm:
    def test_branch_selection(self):
        spec = make_spec()
        rho = oracles.make_state_psi2(spec, 2.0, 0.5)
        cplus = polar.normalize_dm(polar.conditional_dm(rho, 2.0))
        cminus = polar.normalize_dm(polar.conditional_dm(rho, -2.0))
        assert np.max(np.abs(cplus.matrix - np.diag([1.0, 0.0]))) < 1e-12
        assert np.max(np.abs(cminus.matrix - np.diag([0.0, 1.0]))) < 1e-12

    def test_psi1_conditionals_stay_mixed(self):
        spec = make_spec()
        rho = polar.make_state_psi1(spec)
        for y in (0.0, 0.25, -0.75):
            c = polar.normalize_dm(polar.conditional_dm(rho, y))
            assert np.max(np.abs(c.matrix - np.eye(2) / 2.0)) < 1e-12

    def test_unnormalized_by_default(self):
        spec = make_spec()
        c = polar.conditional_dm(polar.make_state_psi1(spec), 0.0)
        assert c.norm_tag == "unnormalized"
        assert c.trace() < 1.0

    def test_averaging_law(self):
        spec = make_spec()
        for rho in (oracles.make_state_psi2(spec, 1.0, 0.5),
                    random_pure_composite(spec, 3)):
            acc = np.zeros((2, 2), dtype=np.complex128)
            for y in spec.pos2.points:
                acc += polar.conditional_dm(rho, float(y)).matrix
            assert np.max(np.abs(acc - polar.reduced_dm(rho).matrix)) < 1e-12

    def test_off_grid_raises(self):
        spec = make_spec()
        with pytest.raises(OffGridError):
            polar.conditional_dm(polar.make_state_psi1(spec), 0.111)

    def test_empty_slice_cannot_normalize(self):
        spec = make_spec()
        rho = oracles.make_state_psi2(spec, 2.0, 0.35)
        with pytest.raises(PostSelectionError):
            polar.normalize_dm(polar.conditional_dm(rho, -8.0))


class TestWeakValueMixed:
    def test_pure_state_reduction(self):
        spec = make_spec()
        rng = np.random.default_rng(7)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        e = np.zeros(2 * spec.n_y)
        e[11] = 1.0
        rho = polar.pure_dm(np.kron(a, e), spec)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = g + g.conj().T
        got = polar.weak_value_mixed(A, rho, polar.D)
        want = (polar.D.vector.conj() @ A @ a) / (polar.D.vector.conj() @ a)
        assert abs(got - want) < 1e-12

    def test_identity_observable(self):
        spec = make_spec()
        rho = oracles.make_state_psi2(spec, 2.0)
        for b in (polar.H, polar.D, L):
            assert abs(polar.weak_value_mixed(np.eye(2), rho, b) - 1.0) < 1e-12

    def test_no_postselection_is_trace(self):
        spec = make_spec()
        rho = oracles.make_state_psi2(spec, 1.0)
        got = polar.weak_value_mixed(polar.PI_HH, rho)
        want = np.trace(polar.PI_HH @ polar.reduced_dm(rho).matrix)
        assert abs(got - want) < 1e-12

    def test_maximally_mixed_oracle(self):
        rho = maximally_mixed_2x2()
        got = polar.weak_value_mixed(polar.PI_HH, rho, polar.D)
        # <D|pi_HH (I/2)|D> / <D|(I/2)|D> = (1/4)/(1/2)
        assert abs(got - 0.5) < 1e-15

    def test_orthogonal_postselection_raises(self):
        spec = make_spec()
        e = np.zeros(2 * spec.n_y)
        e[5] = 1.0
        rho = polar.pure_dm(np.kron(polar.H.vector, e), spec)
        with pytest.raises(PostSelectionError):
            polar.weak_value_mixed(polar.PI_HH, rho, polar.V)

    def test_shape_mismatch_raises(self):
        rho = maximally_mixed_2x2()
        with pytest.raises(ValidationError):
            polar.weak_value_mixed(np.eye(3), rho)


class TestDirectMeasurement:
    def test_no_postselection_equals_reduced(self):
        spec = make_spec()
        for rho in (polar.make_state_psi1(spec), oracles.make_state_psi2(spec, 2.0)):
            got = polar.direct_dm_measurement(rho)
            assert np.max(np.abs(got - np.eye(2) / 2.0)) < 1e-12

    def test_branch_postselection(self):
        spec = make_spec()
        rho = oracles.make_state_psi2(spec, 2.0, 0.5)
        got = polar.direct_dm_measurement(rho, Y_postselect=2.0)
        assert np.max(np.abs(got - np.diag([1.0, 0.0]))) < 1e-10

    def test_embedded_round_trip(self):
        spec = make_spec()
        for seed in (0, 1, 2):
            sigma = random_mixed_2x2(seed)
            rho = embed_pol1(sigma, spec)
            got = polar.direct_dm_measurement(rho)
            assert np.max(np.abs(got - sigma)) < 1e-10

    def test_composite_pure_reconstruction(self):
        spec = make_spec(n_y=16)
        rho = random_pure_composite(spec, 12)
        red = polar.reduced_dm(rho).matrix
        assert np.max(np.abs(polar.direct_dm_measurement(rho) - red)) < 1e-10
        for y in spec.pos2.points:
            cond = polar.conditional_dm(rho, float(y))
            if cond.trace() < 1e-6:
                continue
            got = polar.direct_dm_measurement(rho, Y_postselect=float(y))
            want = polar.normalize_dm(cond).matrix
            assert np.max(np.abs(got - want)) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_reconstruction_property(self, seed):
        spec = polar.HilbertSpec(Grid1D(-8.0, 8.0, 16))
        rho = random_pure_composite(spec, seed)
        got = polar.direct_dm_measurement(rho)
        assert np.max(np.abs(got - polar.reduced_dm(rho).matrix)) < 1e-10

    def test_resampled_rates(self):
        spec = make_spec()
        sigma = random_mixed_2x2(4)
        rho = embed_pol1(sigma, spec)
        exact = polar.direct_dm_measurement(rho)
        m1 = polar.direct_dm_measurement(rho, resample_n=10**6, seed=9)
        m2 = polar.direct_dm_measurement(rho, resample_n=10**6, seed=9)
        m3 = polar.direct_dm_measurement(rho, resample_n=10**6, seed=10)
        assert np.array_equal(m1, m2)
        assert np.max(np.abs(m1 - m3)) > 0.0
        # rates only enter the off-diagonals; binomial noise ~ 1/sqrt(n)
        assert m1[0, 0] == exact[0, 0] and m1[1, 1] == exact[1, 1]
        assert np.max(np.abs(m1 - exact)) < 5e-3


class TestBeamSplitter:
    def test_unitary(self):
        spec = make_spec(16)
        U = oracles.beam_splitter_matrix(spec, 1.0)
        assert np.array_equal(U @ U.conj().T, np.eye(4 * spec.n_y))

    def test_maps_psi1_to_psi2(self):
        spec = make_spec()
        shifted = polar.apply_beam_splitter(polar.make_state_psi1(spec), 2.0)
        want = oracles.make_state_psi2(spec, 2.0)
        assert np.max(np.abs(shifted.matrix - want.matrix)) < 1e-12

    @pytest.mark.parametrize("state", ["pure", "mixed_pol2_H", "mixed_pol2_V"])
    def test_matches_dense_conjugation(self, state):
        """The factor roll equals U rho U^dagger with the dense splitter."""
        spec = make_spec(64)
        if state == "pure":
            rho = polar.make_state_psi1(spec)
        else:
            cell = 10 if state == "mixed_pol2_H" else spec.n_y + 7
            rho = embed_pol1(random_mixed_2x2(5), spec, cell)
        U = oracles.beam_splitter_matrix(spec, 2.0)
        got = polar.apply_beam_splitter(rho, 2.0)
        assert got.factor.shape == rho.factor.shape
        want = U @ rho.matrix @ U.conj().T
        assert np.max(np.abs(got.matrix - want)) < 1e-12

    def test_non_integer_shift_raises(self):
        spec = make_spec()
        with pytest.raises(ValidationError):
            polar.apply_beam_splitter(polar.make_state_psi1(spec), 0.3)


class TestFactorAgainstDense:
    """Factor contractions against the dense 4 n_y x 4 n_y formulas."""

    @pytest.mark.parametrize("rank", [2, 3])
    def test_random_factor(self, rank):
        spec = make_spec(16)
        n_y = spec.n_y
        rng = np.random.default_rng(rank)
        k = rng.normal(size=spec.dims + (rank,)) \
            + 1j * rng.normal(size=spec.dims + (rank,))
        k /= np.linalg.norm(k)
        rho = polar.DensityOperator(k, spec.dims, spec=spec)
        flat = k.reshape(4 * spec.n_y, rank)
        m = flat @ flat.conj().T
        assert np.max(np.abs(rho.matrix - m)) < 1e-15
        red = polar.reduced_dm(rho).matrix
        assert np.max(np.abs(red - oracles.dense_reduced(m, n_y))) < 1e-12
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = g + g.conj().T
        got = polar.weak_value_mixed(obs, rho)
        assert abs(got - np.trace(np.kron(obs, np.eye(2 * n_y)) @ m)) < 1e-12
        for j in (0, 5, n_y - 1):
            Y = float(spec.pos2.points[j])
            cond = polar.conditional_dm(rho, Y).matrix
            assert np.max(np.abs(cond - oracles.dense_conditional(m, n_y, j))) < 1e-12
            for b in (None, polar.H, polar.D, L):
                vec = None if b is None else b.vector
                got = polar.weak_value_mixed(obs, rho, b, Y)
                want = oracles.dense_weak_value(obs, m, n_y, vec, j)
                assert abs(got - want) < 1e-12
        for b in (polar.V, polar.A, R):
            got = polar.weak_value_mixed(obs, rho, b)
            want = oracles.dense_weak_value(obs, m, n_y, b.vector)
            assert abs(got - want) < 1e-12

    def test_explicit_matrix_is_factored_at_its_rank(self):
        spec = make_spec(16)
        e = np.zeros(2 * spec.n_y)
        e[10] = 1.0
        full = np.kron(random_mixed_2x2(2), np.outer(e, e))
        k = oracles.factor_of(full, spec.dims)
        assert k.shape == spec.dims + (2,)
        rho = polar.DensityOperator(k, spec.dims, spec=spec)
        assert np.max(np.abs(rho.matrix - full)) < 1e-15

    def test_factor_shape_must_match_dims(self):
        spec = make_spec(16)
        with pytest.raises(ValidationError):
            polar.DensityOperator(np.ones((2, 2, 8, 1)) / 8.0, spec.dims,
                                  spec=spec)

    def test_scale_4096_cells_without_dense_matrices(self):
        """psi1 behind the splitter at n_y = 4096: the readouts match the
        reduced and the conditioned targets; a dense rho would need 4.3 GB."""
        tracemalloc.start()
        try:
            spec = polar.HilbertSpec(Grid1D(-8.0, 8.0, 4096))
            rho = polar.apply_beam_splitter(polar.make_state_psi1(spec), 3.0)
            red = polar.reduced_dm(rho).matrix
            assert np.max(np.abs(polar.direct_dm_measurement(rho) - red)) < 1e-10
            for Y in (3.0, -3.0):
                got = polar.direct_dm_measurement(rho, Y_postselect=Y)
                want = polar.normalize_dm(polar.conditional_dm(rho, Y)).matrix
                assert np.max(np.abs(got - want)) < 1e-10
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestExport:
    def test_json_dict(self):
        spec = make_spec()
        red = polar.reduced_dm(polar.make_state_psi1(spec))
        d = polar.dm_to_json_dict(red)
        assert d["basis"] == ["H", "V"]
        assert abs(d["trace"] - 1.0) < 1e-12
        assert d["norm_tag"] == "trace-one"
        assert np.max(np.abs(np.array(d["re"]) - np.eye(2) / 2.0)) < 1e-12

    def test_export_needs_2x2(self):
        spec = make_spec(8)
        with pytest.raises(ValidationError):
            polar.dm_to_json_dict(polar.make_state_psi1(spec))


def random_factor(spec, rank, seed):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=spec.dims + (rank,)) \
        + 1j * rng.normal(size=spec.dims + (rank,))
    return polar.DensityOperator(k / np.linalg.norm(k), spec.dims, spec=spec)


def max_dev(a, b):
    return float(np.max(np.abs(a - b)))


class TestCoupledPointer:
    """The density-matrix claim read through a coupled qubit pointer
    (oracles.pointer_rebuilt_dm): post-selected on the pos2 cell Y, the
    rebuilt pol1 matrix tends to the conditional density matrix at Y, with
    a bias 1 - cos a <= a^2 / 2 at coupling angle a."""

    @given(rank=st.integers(1, 3), cell=st.integers(0, 15),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_converges_to_conditional_dm(self, rank, cell, seed):
        spec = make_spec(16)
        rho = random_factor(spec, rank, seed)
        Y = float(spec.pos2.points[cell])
        target = polar.normalize_dm(polar.conditional_dm(rho, Y)).matrix
        dev = [max_dev(oracles.pointer_rebuilt_dm(rho.factor, a, [cell]),
                       target) for a in (0.1, 0.05)]
        assert 3.5 <= dev[0] / dev[1] <= 4.5
        assert dev[0] < 0.5 * 0.1**2
        # the readout tells the conditional from the reduced matrix
        assert dev[1] < max_dev(target, polar.reduced_dm(rho).matrix)

    @given(rank=st.integers(1, 3), cell=st.integers(0, 15),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_pol1_unitary_conjugates_rebuilt_matrix(self, rank, cell, seed):
        spec = make_spec(16)
        rho = random_factor(spec, rank, seed)
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)))[0]
        turned = np.tensordot(u, rho.factor, axes=(1, 0))
        a = 0.05
        got = oracles.pointer_rebuilt_dm(turned, a, [cell])
        want = u @ oracles.pointer_rebuilt_dm(rho.factor, a, [cell]) \
            @ u.conj().T
        assert max_dev(got, want) < a**2

    def test_pooling_both_branches_reads_neither(self):
        """Behind the splitter the branches sit at Y = +-3. One cell reads
        its branch's matrix; pooling both cells reads their mixture, which
        stays 1/2 from either branch however weak the coupling."""
        spec = make_spec(64)
        rho = polar.apply_beam_splitter(polar.make_state_psi1(spec), 3.0)
        cells = [spec.pos2.index_of(Y) for Y in (3.0, -3.0)]
        conds = [polar.conditional_dm(rho, Y) for Y in (3.0, -3.0)]
        branch = [polar.normalize_dm(c).matrix for c in conds]
        pooled = sum(c.matrix for c in conds)
        pooled /= np.trace(pooled).real
        for a in (0.1, 0.05, 0.025):
            for j, want in zip(cells, branch):
                got = oracles.pointer_rebuilt_dm(rho.factor, a, [j])
                assert max_dev(got, want) < 0.5 * a**2
            got = oracles.pointer_rebuilt_dm(rho.factor, a, cells)
            assert max_dev(got, pooled) < 0.5 * a**2
            assert min(max_dev(got, want) for want in branch) > 0.4
