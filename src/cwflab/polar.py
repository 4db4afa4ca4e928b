"""Two-photon polarization algebra with a discretized partner position.

The composite space is pol1 (x) pol2 (x) pos2 with pol = span{H, V} and
pos2 a finite grid (basis-level normalization: sum |phi|^2 = 1, grid
weight 1). Reduced and conditional density matrices, mixed-state weak
values and the entrywise direct reconstruction of the 2x2 polarization
matrix live here.

Off-diagonal reconstruction: with X = |D><D| - |A><A| and pi_HH = |H><H|,

    P(D) <pi_HH>_W^D - P(A) <pi_HH>_W^A = Tr[X pi_HH sigma] = <H|sigma|V>,

so the D/A route with pi_HH yields the (H, V) entry and the route with
pi_VV yields (V, H); the circular-basis variant carries an extra -i
(|L><L| - |R><R| = sigma_y). Both routes are implemented; tests pin their
agreement.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OffGridError, PostSelectionError, ValidationError
from .qgrid import Grid1D

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-12
POSTSELECT_FLOOR = 1e-12


@dataclass(frozen=True)
class HilbertSpec:
    """pol1 (x) pol2 (x) pos2; composite dimension 4 * n_y."""

    pos2: Grid1D

    @property
    def n_y(self) -> int:
        return self.pos2.n_points

    @property
    def dims(self) -> tuple:
        return (2, 2, self.n_y)

    @property
    def dim(self) -> int:
        return 4 * self.n_y


@dataclass(frozen=True)
class PolarizationState:
    vector: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.complex128).copy()
        if v.shape != (2,):
            raise ValidationError("polarization vector must have two components")
        if abs(np.vdot(v, v) - 1.0) > 1e-12:
            raise ValidationError("polarization state must be unit norm")
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)


H = PolarizationState(np.array([1.0, 0.0]), "H")
V = PolarizationState(np.array([0.0, 1.0]), "V")
D = PolarizationState(np.array([1.0, 1.0]) / np.sqrt(2.0), "D")
A = PolarizationState(np.array([1.0, -1.0]) / np.sqrt(2.0), "A")
L = PolarizationState(np.array([1.0, 1.0j]) / np.sqrt(2.0), "L")
R = PolarizationState(np.array([1.0, -1.0j]) / np.sqrt(2.0), "R")

PI_HH = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
PI_VV = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD operator on the composite space or a marginal of it.

    dims is the tensor factorization, e.g. (2, 2, n_y) for the full space
    or (2,) for a single polarization. Full-space operators carry their
    HilbertSpec so position-conditioned operations can resolve Y.
    """

    matrix: np.ndarray
    dims: tuple
    norm_tag: str = "trace-one"
    flags: frozenset = field(default_factory=frozenset)
    spec: HilbertSpec = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        dim = int(np.prod(self.dims))
        if self.spec is not None and tuple(self.dims) != self.spec.dims:
            raise ValidationError("dims do not match the attached HilbertSpec")
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix shape {m.shape} does not match dims {self.dims}")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
            raise ValidationError("density matrix is not Hermitian")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL * scale:
            raise ValidationError("density matrix is not positive semidefinite")
        if self.norm_tag == "trace-one":
            if abs(np.trace(m) - 1.0) > TRACE_TOL:
                raise ValidationError("trace-one matrix has trace != 1")
        elif self.norm_tag != "unnormalized":
            raise ValidationError(f"unknown norm_tag {self.norm_tag!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def pure_dm(ket: np.ndarray, spec: HilbertSpec, flags=frozenset()) -> DensityOperator:
    ket = np.asarray(ket, dtype=np.complex128)
    return DensityOperator(np.outer(ket, ket.conj()), spec.dims, "trace-one",
                           flags, spec)


def _sampled_gaussian(grid: Grid1D, center: float, width: float) -> np.ndarray:
    amp = np.exp(-((grid.points - center) ** 2) / (4.0 * width**2))
    return amp / np.linalg.norm(amp)


def ket_psi1(spec: HilbertSpec, width: float = 0.5) -> np.ndarray:
    """(|HH> + |VV>)/sqrt(2) with a shared Gaussian pointer at y = 0."""
    phi0 = _sampled_gaussian(spec.pos2, 0.0, width)
    ket = np.zeros(spec.dims, dtype=np.complex128)
    ket[0, 0] = phi0 / np.sqrt(2.0)
    ket[1, 1] = phi0 / np.sqrt(2.0)
    return ket.ravel()


def ket_psi2(spec: HilbertSpec, shift: float, width: float = 0.5) -> np.ndarray:
    """(phi+ |HH> + phi- |VV>)/sqrt(2) with pointers displaced to +-shift."""
    ket = np.zeros(spec.dims, dtype=np.complex128)
    ket[0, 0] = _sampled_gaussian(spec.pos2, +shift, width) / np.sqrt(2.0)
    ket[1, 1] = _sampled_gaussian(spec.pos2, -shift, width) / np.sqrt(2.0)
    return ket.ravel()


def make_state_psi1(spec: HilbertSpec, width: float = 0.5) -> DensityOperator:
    return pure_dm(ket_psi1(spec, width), spec)


def make_state_psi2(spec: HilbertSpec, shift: float, width: float = 0.5) -> DensityOperator:
    """Displaced-pointer state; flags record the well-separated regime."""
    flags = frozenset(["well-separated"]) if shift > 2.0 * width else frozenset()
    return pure_dm(ket_psi2(spec, shift, width), spec, flags)


def _as_full(rho: DensityOperator) -> np.ndarray:
    if len(rho.dims) != 3 or rho.spec is None:
        raise ValidationError("operation needs a density matrix on the full space")
    return rho.matrix


def reduced_dm(rho: DensityOperator) -> DensityOperator:
    """Partial trace over pol2 (x) pos2 down to the 2x2 pol1 matrix."""
    m = _as_full(rho)
    d = rho.dims
    six = m.reshape(d + d)
    red = np.einsum("ajybjy->ab", six)
    return DensityOperator(red, (2,), rho.norm_tag)


def _pos_index(spec_grid: Grid1D, Y: float) -> int:
    j = spec_grid.index_of(Y)
    if abs(spec_grid.points[j] - Y) > 1e-9 * spec_grid.dx:
        raise OffGridError(f"Y={Y} is not a pos2 grid point")
    return j


def conditional_dm(rho: DensityOperator, Y: float) -> DensityOperator:
    """Tr_pol2 of the position-diagonal block at Y; unnormalized."""
    m = _as_full(rho)
    d = rho.dims
    j = _pos_index(rho.spec.pos2, Y)
    six = m.reshape(d + d)
    block = six[:, :, j, :, :, j]
    cond = np.einsum("ajbj->ab", block)
    return DensityOperator(cond, (2,), "unnormalized")


def normalize_dm(rho: DensityOperator) -> DensityOperator:
    tr = np.trace(rho.matrix).real
    if tr <= POSTSELECT_FLOOR:
        raise PostSelectionError(f"cannot normalize: trace {tr:.3e}")
    return DensityOperator(rho.matrix / tr, rho.dims, "trace-one",
                           rho.flags, rho.spec)


def _promote_pol1(A: np.ndarray, dims: tuple) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    rest = int(np.prod(dims[1:])) if len(dims) > 1 else 1
    return np.kron(A, np.eye(rest))


def _selector(rho: DensityOperator, b: PolarizationState, Y) -> np.ndarray:
    """Projector |b><b| (x) I_pol2 (x) (|Y><Y| or I)."""
    pol = np.eye(2, dtype=np.complex128) if b is None else np.outer(b.vector, b.vector.conj())
    if len(rho.dims) == 1:
        return pol
    n_y = rho.dims[2]
    pos = np.eye(n_y)
    if Y is not None:
        j = _pos_index(rho.spec.pos2, Y)
        pos = np.zeros((n_y, n_y))
        pos[j, j] = 1.0
    return np.kron(pol, np.kron(np.eye(2), pos))


def weak_value_mixed(A: np.ndarray, rho: DensityOperator,
                     b: PolarizationState = None, Y: float = None) -> complex:
    """<b| A rho |b> / <b| rho |b> (with Y conditioning when given).

    A may be 2x2 (acting on pol1, promoted with identities) or full-space.
    With b is None and Y is None this is Tr[A rho].
    """
    A = np.asarray(A, dtype=np.complex128)
    dim = rho.matrix.shape[0]
    if A.shape == (2, 2) and dim != 2:
        A = _promote_pol1(A, rho.dims)
    if A.shape != rho.matrix.shape:
        raise ValidationError("operator shape does not match the density matrix")
    if b is None and Y is None:
        return complex(np.trace(A @ rho.matrix))
    S = _selector(rho, b, Y)
    den = np.trace(S @ rho.matrix)
    if abs(den) < POSTSELECT_FLOOR * max(rho.trace(), POSTSELECT_FLOOR):
        raise PostSelectionError(f"post-selection weight {abs(den):.3e} below floor")
    num = np.trace(S @ A @ rho.matrix)
    return complex(num / den)


def _postselect_probability(rho, b, Y) -> float:
    S = _selector(rho, b, Y)
    p = np.trace(S @ rho.matrix).real
    if Y is not None:
        base = np.trace(_selector(rho, None, Y) @ rho.matrix).real
        if base <= POSTSELECT_FLOOR:
            raise PostSelectionError("Y slice has vanishing weight")
        return p / base
    return p / rho.trace()


def direct_dm_measurement(rho: DensityOperator, Y_postselect: float = None,
                          four_phase: bool = False,
                          resample_n: int = None, seed: int = 0) -> np.ndarray:
    """Entrywise reconstruction of the 2x2 pol1 matrix from weak values.

    Diagonal entries are weak values of pi_HH / pi_VV without polarization
    post-selection; off-diagonals combine D/A post-selected weak values
    weighted by the post-selection rates (L/R variant behind four_phase).
    Rates are exact traces; resample_n draws them binomially instead, to
    emulate finite counting statistics.
    """
    Y = Y_postselect

    def rate(b):
        p = _postselect_probability(rho, b, Y)
        if resample_n is not None:
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([seed, ord(b.label or "?")])))
            return rng.binomial(resample_n, min(max(p, 0.0), 1.0)) / resample_n
        return p

    def wv(Apol, b):
        return weak_value_mixed(Apol, rho, b, Y)

    hh = wv(PI_HH, None)
    vv = wv(PI_VV, None)
    if four_phase:
        hv = -1j * (rate(L) * wv(PI_HH, L) - rate(R) * wv(PI_HH, R))
        vh = +1j * (rate(L) * wv(PI_VV, L) - rate(R) * wv(PI_VV, R))
    else:
        hv = rate(D) * wv(PI_HH, D) - rate(A) * wv(PI_HH, A)
        vh = rate(D) * wv(PI_VV, D) - rate(A) * wv(PI_VV, A)
    return np.array([[hh, hv], [vh, vv]], dtype=np.complex128)


def beam_splitter_matrix(spec: HilbertSpec, shift: float) -> np.ndarray:
    """|H><H|_2 (x) T(+shift) + |V><V|_2 (x) T(-shift) on the full space.

    T are cyclic cell translations, so shift must be an integer number of
    pos2 cells; edge support should be negligible for physical states.
    """
    dy = spec.pos2.dx
    cells = shift / dy
    if abs(cells - round(cells)) > 1e-9:
        raise ValidationError("shift must be an integer number of pos2 cells")
    c = int(round(cells))
    n_y = spec.n_y
    T_plus = np.roll(np.eye(n_y), c, axis=0)
    T_minus = np.roll(np.eye(n_y), -c, axis=0)
    block = np.zeros((2 * n_y, 2 * n_y))
    block[:n_y, :n_y] = T_plus
    block[n_y:, n_y:] = T_minus
    return np.kron(np.eye(2), block)


def apply_beam_splitter(rho: DensityOperator, shift: float) -> DensityOperator:
    _as_full(rho)
    U = beam_splitter_matrix(rho.spec, shift)
    return DensityOperator(U @ rho.matrix @ U.conj().T, rho.dims,
                           rho.norm_tag, rho.flags, rho.spec)


def dm_to_json_dict(rho: DensityOperator) -> dict:
    if rho.matrix.shape != (2, 2):
        raise ValidationError("JSON export is for 2x2 polarization matrices")
    return {
        "basis": ["H", "V"],
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
        "trace": rho.trace(),
        "norm_tag": rho.norm_tag,
    }
