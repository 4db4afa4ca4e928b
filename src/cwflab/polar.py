"""Two-photon polarization algebra with a discretized partner position.

The composite space is pol1 (x) pol2 (x) pos2 with pol = span{H, V} and
pos2 a finite grid (basis-level normalization: sum |phi|^2 = 1, grid
weight 1). Reduced and conditional density matrices, mixed-state weak
values and the entrywise direct reconstruction of the 2x2 polarization
matrix live here.

Representation: a DensityOperator holds a factor K of shape dims + (r,)
with rho = K K^dagger, so a full-space state is K[pol1, pol2, y, r] and a
pure state has r = 1. Every operation the scenarios use is a contraction
of K: a pol1 operator acts on axis 0, the pol2 trace is a sum, the Y
selector is an index and the beam splitter is a roll along y. Each costs
O(n_y r); the dense 4 n_y x 4 n_y matrix is formed only when `.matrix` is
asked for. Every operator is built from a factor, so it is Hermitian and
positive semidefinite by construction and no eigendecomposition is needed.

Off-diagonal reconstruction: with X = |D><D| - |A><A| and pi_HH = |H><H|,

    P(D) <pi_HH>_W^D - P(A) <pi_HH>_W^A = Tr[X pi_HH sigma] = <H|sigma|V>,

so the D/A route with pi_HH yields the (H, V) entry and the route with
pi_VV yields (V, H).
"""

from dataclasses import dataclass

import numpy as np

from .errors import OffGridError, PostSelectionError, ValidationError
from .qgrid import Grid1D
from .stats import stream

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

PI_HH = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
PI_VV = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


class DensityOperator:
    """Hermitian PSD operator rho = K K^dagger on the composite space or a
    marginal of it.

    dims is the tensor factorization, e.g. (2, 2, n_y) for the full space
    or (2,) for a single polarization, and the factor K has shape
    dims + (r,). Full-space operators carry their HilbertSpec so
    position-conditioned operations can resolve Y.
    """

    def __init__(self, factor, dims, norm_tag="trace-one", spec=None):
        dims = tuple(int(d) for d in dims)
        if spec is not None and dims != spec.dims:
            raise ValidationError("dims do not match the attached HilbertSpec")
        k = np.array(factor, dtype=np.complex128)
        if k.shape[:-1] != dims:
            raise ValidationError(f"factor shape {k.shape} does not match dims {dims}")
        trace = float(np.vdot(k, k).real)
        if norm_tag == "trace-one":
            if abs(trace - 1.0) > TRACE_TOL:
                raise ValidationError("trace-one matrix has trace != 1")
        elif norm_tag != "unnormalized":
            raise ValidationError(f"unknown norm_tag {norm_tag!r}")
        k.flags.writeable = False
        self.factor, self.dims, self.norm_tag, self.spec = k, dims, norm_tag, spec
        self._matrix, self._trace = None, trace

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, formed from the factor on first request."""
        if self._matrix is None:
            k = self.factor.reshape(-1, self.factor.shape[-1])
            m = k @ k.conj().T
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    def trace(self) -> float:
        return self._trace


def pure_dm(ket: np.ndarray, spec: HilbertSpec) -> DensityOperator:
    ket = np.asarray(ket, dtype=np.complex128)
    return DensityOperator(ket.reshape(spec.dims + (1,)), spec.dims,
                           spec=spec)


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


def make_state_psi1(spec: HilbertSpec, width: float = 0.5) -> DensityOperator:
    return pure_dm(ket_psi1(spec, width), spec)


def _as_full(rho: DensityOperator) -> np.ndarray:
    if len(rho.dims) != 3 or rho.spec is None:
        raise ValidationError("operation needs a density matrix on the full space")
    return rho.factor


def pos_index(spec_grid: Grid1D, Y: float) -> int:
    """The index of grid point Y on spec_grid; OffGridError between points."""
    j = spec_grid.index_of(Y)
    if abs(spec_grid.points[j] - Y) > 1e-9 * spec_grid.dx:
        raise OffGridError(f"Y={Y} is not a pos2 grid point")
    return j


def _pol1_rows(rho: DensityOperator, Y) -> np.ndarray:
    """The factor as (pol1, rest), restricted to the pos2 cell Y if given."""
    if Y is None:
        k = rho.factor
    else:
        k = _as_full(rho)[:, :, pos_index(rho.spec.pos2, Y)]
    return k.reshape(2, -1)


def reduced_dm(rho: DensityOperator) -> DensityOperator:
    """Partial trace over pol2 (x) pos2 down to the 2x2 pol1 matrix."""
    k = _as_full(rho)
    return DensityOperator(k.reshape(2, -1), (2,), rho.norm_tag)


def conditional_dm(rho: DensityOperator, Y: float) -> DensityOperator:
    """Tr_pol2 of the position-diagonal block at Y; unnormalized."""
    return DensityOperator(_pol1_rows(rho, Y), (2,), "unnormalized")


def normalize_dm(rho: DensityOperator) -> DensityOperator:
    tr = rho.trace()
    if tr <= POSTSELECT_FLOOR:
        raise PostSelectionError(f"cannot normalize: trace {tr:.3e}")
    return DensityOperator(rho.factor / np.sqrt(tr), rho.dims, spec=rho.spec)


def weak_value_mixed(A: np.ndarray, rho: DensityOperator,
                     b: PolarizationState = None, Y: float = None) -> complex:
    """<b| A rho |b> / <b| rho |b> (with Y conditioning when given).

    A is a 2x2 operator on pol1 (identity on the rest). With b is None and
    Y is None this is Tr[A rho].
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (2, 2):
        raise ValidationError("operator must be a 2x2 pol1 matrix")
    k = _pol1_rows(rho, Y)
    ak = A @ k
    if b is None and Y is None:
        return complex(np.vdot(k, ak))
    if b is not None:
        bc = b.vector.conj()
        k, ak = bc @ k, bc @ ak
    den = np.vdot(k, k).real
    if den < POSTSELECT_FLOOR * max(rho.trace(), POSTSELECT_FLOOR):
        raise PostSelectionError(f"post-selection weight {den:.3e} below floor")
    return complex(np.vdot(k, ak) / den)


def _postselect_probability(rho, b, Y) -> float:
    k = _pol1_rows(rho, Y)
    kb = b.vector.conj() @ k
    p = np.vdot(kb, kb).real
    if Y is not None:
        base = np.vdot(k, k).real
        if base <= POSTSELECT_FLOOR:
            raise PostSelectionError("Y slice has vanishing weight")
        return p / base
    return p / rho.trace()


def direct_dm_measurement(rho: DensityOperator, Y_postselect: float = None,
                          resample_n: int = None, seed: int = 0) -> np.ndarray:
    """Entrywise reconstruction of the 2x2 pol1 matrix from weak values.

    Diagonal entries are weak values of pi_HH / pi_VV without polarization
    post-selection; off-diagonals combine D/A post-selected weak values
    weighted by the post-selection rates. Rates are exact traces;
    resample_n draws them binomially instead, to emulate finite counting
    statistics.
    """
    Y = Y_postselect

    def rate(b):
        p = _postselect_probability(rho, b, Y)
        if resample_n is not None:
            return stream(seed, ord(b.label)).binomial(
                resample_n, min(max(p, 0.0), 1.0)) / resample_n
        return p

    def wv(Apol, b):
        return weak_value_mixed(Apol, rho, b, Y)

    hh = wv(PI_HH, None)
    vv = wv(PI_VV, None)
    hv = rate(D) * wv(PI_HH, D) - rate(A) * wv(PI_HH, A)
    vh = rate(D) * wv(PI_VV, D) - rate(A) * wv(PI_VV, A)
    return np.array([[hh, hv], [vh, vv]], dtype=np.complex128)


def apply_beam_splitter(rho: DensityOperator, shift: float) -> DensityOperator:
    """|H><H|_2 (x) T(+shift) + |V><V|_2 (x) T(-shift) applied to rho.

    T are cyclic cell translations, so shift must be an integer number of
    pos2 cells; edge support should be negligible for physical states.
    """
    k = _as_full(rho)
    cells = shift / rho.spec.pos2.dx
    if abs(cells - round(cells)) > 1e-9:
        raise ValidationError("shift must be an integer number of pos2 cells")
    c = int(round(cells))
    out = np.stack([np.roll(k[:, 0], c, axis=1), np.roll(k[:, 1], -c, axis=1)],
                   axis=1)
    return DensityOperator(out, rho.dims, rho.norm_tag, rho.spec)


def dm_to_json_dict(rho: DensityOperator) -> dict:
    if rho.dims != (2,):
        raise ValidationError("JSON export is for 2x2 polarization matrices")
    return {
        "basis": ["H", "V"],
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
        "trace": rho.trace(),
        "norm_tag": rho.norm_tag,
    }
