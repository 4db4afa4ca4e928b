"""Independent closed-form oracles used by the test suite.

Everything here is derived by hand from textbook formulas and implemented
without touching the package's numerical paths, so tests compare two
independent routes to the same quantity. Units are hbar = m = 1, as in the
package. `inner_product` is the grid inner product <a|b> with the cell
measure. The dense box Hamiltonian is the reference that the
split-operator box revival is checked against, the mode-pair sum is the
reference for the fig1 impulse flow, the generic weak value
<b|A|psi> / <b|psi> is the reference for the momentum scan of
`cwflab.weakmeas`, the dense stencil^2 Lagrange sum is the reference for
the 2-D guidance field of `cwflab.bohm`, and the dense 4 n_y x 4 n_y
polarization algebra at the end is the reference for the factored density
operators of `cwflab.polar`. The qubit-pointer readout rebuilds the
polarization matrix the way an experiment would, through a coupled
pointer, where `cwflab.polar` reads exact traces.
"""

import numpy as np

from cwflab import polar
from cwflab.errors import GridMismatchError, PostSelectionError, ValidationError
from cwflab.qgrid import Grid1D, WaveFunction1D, WaveFunction2D

OVERLAP_FLOOR = 1e-12


def inner_product(a, b) -> complex:
    """<a|b> with the grid cell measure. Grids must match exactly."""
    if isinstance(a, WaveFunction1D) and isinstance(b, WaveFunction1D):
        if a.grid != b.grid:
            raise GridMismatchError(f"{a.grid} vs {b.grid}")
        return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid.dx)
    if isinstance(a, WaveFunction2D) and isinstance(b, WaveFunction2D):
        if a.grid_x != b.grid_x or a.grid_y != b.grid_y:
            raise GridMismatchError("2-D grids differ")
        return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid_x.dx * a.grid_y.dx)
    raise ValidationError(f"cannot pair {type(a).__name__} with {type(b).__name__}")


def gaussian_amplitude(x, center=0.0, sigma=1.0, k0=0.0):
    """Unnormalized amplitude with |g|^2 std = sigma."""
    return np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)


def gaussian_overlap(d, sigma=1.0):
    """<g_0|g_d> for two equal-width Gaussians: exp(-d^2 / (8 sigma^2))."""
    return np.exp(-(d**2) / (8.0 * sigma**2))


def free_gaussian(x, t, x0=0.0, sigma0=1.0, k0=0.0):
    """Exact free evolution of a Gaussian packet (normalized, analytic).

    psi(x,t) = (2 pi sigma0^2)^(-1/4) (1 + i tau)^(-1/2)
               exp(-(x - x0 - k0 t)^2 / (4 sigma0^2 (1 + i tau)))
               exp(i (k0 x - k0^2 t / 2))
    with tau = t / (2 sigma0^2).
    """
    tau = t / (2.0 * sigma0**2)
    xi = x - x0 - k0 * t
    env = (2.0 * np.pi * sigma0**2) ** -0.25 / np.sqrt(1.0 + 1j * tau)
    return env * np.exp(-(xi**2) / (4.0 * sigma0**2 * (1.0 + 1j * tau))
                        + 1j * (k0 * x - k0**2 * t / 2.0))


def spreading_width(t, sigma0=1.0):
    """sigma(t) = sigma0 sqrt(1 + (t / (2 sigma0^2))^2)."""
    tau = t / (2.0 * sigma0**2)
    return sigma0 * np.sqrt(1.0 + tau**2)


def spreading_velocity(x, t, x0=0.0, sigma0=1.0, k0=0.0):
    """Guidance velocity of the free Gaussian: k0 + xi t / (4 sigma0^4 + t^2)."""
    xi = x - x0 - k0 * t
    return k0 + xi * t / (4.0 * sigma0**4 + t**2)


def gaussian_trajectory(t, start, x0=0.0, sigma0=1.0, k0=0.0):
    """Exact Bohmian path of the free Gaussian: streamlines scale with sigma(t)."""
    return x0 + k0 * t + (start - x0) * spreading_width(t, sigma0) / sigma0


def fourier_velocity_2d(wf: WaveFunction2D, X, Y):
    """Guidance velocity (vx, vy) and density of the band-limited 2-D Fourier series of wf, summed at the points."""
    gx, gy, amp = wf.grid_x, wf.grid_y, wf.amplitudes
    coef = np.fft.fft2(amp) / amp.size
    kx = 2.0 * np.pi * np.fft.fftfreq(gx.n_points, d=gx.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(gy.n_points, d=gy.dx)
    ex = np.exp(1j * np.outer(X - gx.x_min, kx))
    ey = np.exp(1j * np.outer(Y - gy.x_min, ky))
    psi = np.sum((ex @ coef) * ey, axis=1)
    dpx = np.sum(((1j * kx * ex) @ coef) * ey, axis=1)
    dpy = np.sum((ex @ coef) * (1j * ky * ey), axis=1)
    return (dpx / psi).imag, (dpy / psi).imag, np.abs(psi) ** 2


def grid_fields_2d(wf: WaveFunction2D):
    """(j_x, j_y, rho) of wf at its grid points, with spectral derivatives:
    j = Im(conj(psi) grad psi)."""
    amp = wf.amplitudes
    kx = 2.0 * np.pi * np.fft.fftfreq(wf.grid_x.n_points, d=wf.grid_x.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(wf.grid_y.n_points, d=wf.grid_y.dx)
    dpx = np.fft.ifft(1j * kx[:, None] * np.fft.fft(amp, axis=0), axis=0)
    dpy = np.fft.ifft(1j * ky[None, :] * np.fft.fft(amp, axis=1), axis=1)
    return (np.conj(amp) * dpx).imag, (np.conj(amp) * dpy).imag, np.abs(amp) ** 2


def lagrange_fields_2d(wf: WaveFunction2D, X, Y, stencil=8):
    """(j_x, j_y, rho), shape (n, 3), at the points as the dense sum over
    the stencil^2 grid points around each: cell indexes taken modulo the
    grid size and weights prod_{m != k} (d - o_m) / (o_k - o_m) over the
    offsets o = 1 - stencil/2 .. stencil/2 from the cell below the point."""
    fields = np.stack(grid_fields_2d(wf), axis=-1)
    offsets = np.arange(1 - stencil // 2, 1 + stencil // 2)
    others = np.array([np.delete(np.arange(stencil), k)
                       for k in range(stencil)])
    denom = np.prod(offsets[:, None] - offsets[others], axis=1)

    def axis(g, x):
        t = (np.asarray(x, dtype=float) - g.x_min) / g.dx
        i = np.floor(t)
        d = (t - i)[:, None] - offsets
        return ((i.astype(int)[:, None] + offsets) % g.n_points,
                np.prod(d[:, others], axis=2) / denom)

    ix, wx = axis(wf.grid_x, X)
    iy, wy = axis(wf.grid_y, Y)
    cells = fields[ix[:, :, None], iy[:, None, :]]
    return np.einsum("na,nb,nabc->nc", wx, wy, cells)


def momentum_gaussian(p, sigma=1.0, center_x=0.0):
    """Unitary-convention transform of a centered real Gaussian: width 1/(2 sigma)."""
    sp = 1.0 / (2.0 * sigma)
    return (2.0 * np.pi * sp**2) ** -0.25 * np.exp(-(p**2) / (4.0 * sp**2)
                                                   - 1j * p * center_x)


def box_potential(grid: Grid1D, box_min: float, length: float, v0: float = 1e6) -> np.ndarray:
    """Hard-wall box realized as a large finite potential outside [box_min, box_min+length]."""
    x = grid.points
    return np.where((x >= box_min) & (x <= box_min + length), 0.0, v0)


def hamiltonian_matrix(potential: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Dense Hermitian matrix of p^2/2 + V on the 1-D grid (spectral kinetic)."""
    if potential.shape != (grid.n_points,):
        raise ValidationError("potential does not match grid")
    n = grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    kin = k**2 / 2.0
    m = np.fft.ifft(kin[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    m += np.diag(potential)
    return 0.5 * (m + m.conj().T)


def box_flow_pairs(numbers, coeffs, box_min, length, w, X, Y, s):
    """(j_x, j_y, rho) of the fig1 impulse flow as a double sum over mode
    pairs (n, m) with weights Re(c_n conj c_m), from
        rho = sum R_nm u_n u_m phi_n phi_m
        j_x = sum R_nm u_n' u_m phi_n phi_m'
        j_y = sum R_nm (2 a_n u_n u_m - u_n' u_m' / 2) phi_n phi_m
    with u_n = sqrt(2/L) sin(n pi xi), phi_n = exp(-(Y - s a_n)^2 / 2w^2)."""
    c = np.asarray(coeffs, dtype=complex)
    R = np.real(np.outer(c, np.conj(c)))
    xi = (np.asarray(X) - box_min) / length
    rho = np.zeros_like(xi)
    jx = np.zeros_like(xi)
    jy = np.zeros_like(xi)
    terms = []
    for n in numbers:
        k = n * np.pi
        a = (k / length) ** 2 / 2.0
        z = np.asarray(Y) - s * a
        phi = np.exp(-(z**2) / (2.0 * w**2))
        terms.append((a, np.sqrt(2.0 / length) * np.sin(k * xi),
                      np.sqrt(2.0 / length) * (k / length) * np.cos(k * xi),
                      phi, -(z / w**2) * phi))
    for i, (a_n, u_n, du_n, phi_n, _) in enumerate(terms):
        for j, (_, u_m, du_m, phi_m, dphi_m) in enumerate(terms):
            rho += R[i, j] * u_n * u_m * phi_n * phi_m
            jx += R[i, j] * du_n * u_m * phi_n * dphi_m
            jy += R[i, j] * (2.0 * a_n * u_n * u_m
                             - 0.5 * du_n * du_m) * phi_n * phi_m
    return jx, jy, rho


def ket_psi2(spec, shift, width=0.5):
    """(phi+ |HH> + phi- |VV>)/sqrt(2), flat, with Gaussian pointers of
    std `width` displaced to +-shift on the pos2 grid (unit vector norm)."""
    y = spec.pos2.points

    def pointer(center):
        amp = np.exp(-((y - center) ** 2) / (4.0 * width**2))
        return amp / np.linalg.norm(amp)

    ket = np.zeros(spec.dims, dtype=np.complex128)
    ket[0, 0] = pointer(+shift) / np.sqrt(2.0)
    ket[1, 1] = pointer(-shift) / np.sqrt(2.0)
    return ket.ravel()


def make_state_psi2(spec, shift, width=0.5):
    """The displaced-pointer state as a density operator."""
    return polar.pure_dm(ket_psi2(spec, shift, width), spec)


def factor_of(matrix, dims):
    """A factor K of shape dims + (rank,) with matrix = K K^dagger, from
    eigh; eigenvalues at roundoff level relative to the largest drop out."""
    w, v = np.linalg.eigh(matrix)
    keep = w > w.size * np.finfo(float).eps * max(w[-1], 0.0)
    return (v[:, keep] * np.sqrt(w[keep])).reshape(tuple(dims) + (-1,))


def qubit_pointer_readout(k, a, pi, b, cells):
    """Exact readout of a qubit pointer coupled to the pol1 projector pi.

    exp(-i a pi sigma_y) acting on pointer |0> splits the factor K into the
    branches K - (1 - cos a) pi K (pointer |0>) and sin a pi K (pointer
    |1>). pol1 is post-selected on b (None: no selection) and pos2 on the
    cells, pol2 is traced out. Returns the coupled post-selection weight
    and (I_DA + i I_LR) / (2 sin a), from the pointer's D/A and L/R
    imbalances, which tends to <b|pi rho_Y|b> / <b|rho_Y|b> as a -> 0."""
    pk = np.tensordot(pi, k, axes=(1, 0))
    zero, one = (x[:, :, cells] for x in (k - (1.0 - np.cos(a)) * pk,
                                          np.sin(a) * pk))
    if b is not None:
        zero, one = (np.tensordot(b.vector.conj(), x, axes=(0, 0))
                     for x in (zero, one))
    weight = np.vdot(zero, zero).real + np.vdot(one, one).real
    p01 = np.vdot(one, zero)  # <0|P|1> of the pointer's selected state
    i_da, i_lr = 2.0 * p01.real / weight, -2.0 * p01.imag / weight
    return weight, (i_da + 1j * i_lr) / (2.0 * np.sin(a))


def pointer_rebuilt_dm(k, a, cells):
    """The pol1 matrix rebuilt entrywise from qubit-pointer readouts at
    coupling angle a (Lundeen & Bamber, PRL 108, 070402 (2012)): weak
    values of pi_HH and pi_VV on the diagonal, and the D minus A
    combinations, weighted by the coupled post-selection rates, off it."""
    def entry(pi):
        (w_d, v_d), (w_a, v_a) = (qubit_pointer_readout(k, a, pi, b, cells)
                                  for b in (polar.D, polar.A))
        return (w_d * v_d - w_a * v_a) / (w_d + w_a)

    hh, vv = (qubit_pointer_readout(k, a, pi, None, cells)[1]
              for pi in (polar.PI_HH, polar.PI_VV))
    return np.array([[hh, entry(polar.PI_HH)], [entry(polar.PI_VV), vv]])


def beam_splitter_matrix(spec, shift):
    """|H><H|_2 (x) T(+shift) + |V><V|_2 (x) T(-shift) as a dense matrix on
    pol1 (x) pol2 (x) pos2, with T cyclic translations by whole cells."""
    c = int(round(shift / spec.pos2.dx))
    n_y = spec.n_y
    block = np.zeros((2 * n_y, 2 * n_y))
    block[:n_y, :n_y] = np.roll(np.eye(n_y), c, axis=0)
    block[n_y:, n_y:] = np.roll(np.eye(n_y), -c, axis=0)
    return np.kron(np.eye(2), block)


def dense_selector(n_y, b=None, j=None):
    """|b><b| (x) I_pol2 (x) |j><j| on the full space; None means identity."""
    pol = np.eye(2) if b is None else np.outer(b, np.conj(b))
    pos = np.eye(n_y) if j is None else np.diag(np.eye(n_y)[j])
    return np.kron(pol, np.kron(np.eye(2), pos))


def dense_reduced(m, n_y):
    """Tr_{pol2, pos2} of a dense 4 n_y x 4 n_y matrix."""
    return np.einsum("ajybjy->ab", m.reshape(2, 2, n_y, 2, 2, n_y))


def dense_conditional(m, n_y, j):
    """Tr_pol2 of the pos2-diagonal block at cell j (unnormalized)."""
    six = m.reshape(2, 2, n_y, 2, 2, n_y)
    return np.einsum("ajbj->ab", six[:, :, j, :, :, j])


def dense_weak_value(a, m, n_y, b=None, j=None):
    """Tr[S (a (x) I) m] / Tr[S m] with S = dense_selector(n_y, b, j)."""
    s = dense_selector(n_y, b, j)
    full = np.kron(a, np.eye(2 * n_y))
    return np.trace(s @ full @ m) / np.trace(s @ m)


def weak_value(a, psi, b) -> complex:
    """<b|a|psi> / <b|psi> with a a dense matrix or a diagonal (1-D array).

    Raises PostSelectionError when |<b|psi>| is below OVERLAP_FLOOR of
    |psi| |b|, and ValidationError for mismatched grids, an operator that
    is neither vector nor matrix, or a non-finite result."""
    if b.grid != psi.grid:
        raise ValidationError("psi and b live on different grids")
    a = np.asarray(a)
    if a.ndim not in (1, 2):
        raise ValidationError("a must be a vector (diagonal) or a matrix")
    a_psi = a * psi.amplitudes if a.ndim == 1 else a @ psi.amplitudes
    den = np.vdot(b.amplitudes, psi.amplitudes) * psi.grid.dx
    if abs(den) < OVERLAP_FLOOR * psi.norm() * b.norm():
        raise PostSelectionError(f"post-selection overlap {abs(den):.3e} below floor")
    value = complex(np.vdot(b.amplitudes, a_psi) * psi.grid.dx / den)
    if not np.isfinite(value):
        raise ValidationError("weak value must be finite")
    return value


def window_weak_value(column, grid: Grid1D, n_cells: int) -> np.ndarray:
    """Weak value of the projector density at every x, post-selected on the
    n_cells momentum cells p = k dp, |k| <= n_cells // 2, around p = 0:

        column(x) sum_p conj(d_p) exp(-i p x) / sum_p |d_p|^2,

    with d_p = dx sum_x exp(-i p x) column(x) = <p|column> by dense sums,
    dp = 2 pi / (n dx). One cell (p = 0) gives column(x) / <0|column>: the
    column, which is the conditional wave function, times a constant."""
    dp = 2.0 * np.pi / (grid.n_points * grid.dx)
    half = n_cells // 2
    bras = np.exp(-1j * np.outer(dp * np.arange(-half, half + 1), grid.points))
    d = grid.dx * bras @ column
    return column * (np.conj(d) @ bras) / np.sum(np.abs(d) ** 2)


def product_2d(psi_x, phi_y):
    """The product state psi_x(x) phi_y(y), normalized if both factors are."""
    tag = ("normalized" if psi_x.norm_tag == phi_y.norm_tag == "normalized"
           else "unnormalized")
    return WaveFunction2D(psi_x.grid, phi_y.grid,
                          np.outer(psi_x.amplitudes, phi_y.amplitudes), tag)
