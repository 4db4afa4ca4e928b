"""Impulsive energy measurement of a particle in a box.

System: psi(x) = sum_n c_n u_n(x) in a hard box, pointer phi0(y) with
amplitude ~ exp(-y^2 / 2 w^2). The impulse e^{-i lam A p_y} (A the box
Hamiltonian) drags the pointer to y = lam * a_n on branch n. With the
kinetic terms frozen during the impulse the state at impulse parameter
s in [0, lam] is

    Psi_s(x, y) = sum_n c_n u_n(x) phi0(y - s a_n)

and the continuity equation of i d_s Psi = (A p_y) Psi fixes the flow

    j_x = Re[d_x Psi * conj(d_y Psi)]
    j_y = -Re[conj(Psi) d_x^2 Psi] - |d_x Psi|^2 / 2

(hbar = m = 1; the j_y form differs from the naive Re[conj(Psi) A Psi]
by a total x-derivative, which is what makes the pair divergence-free).
Both currents carry a single factor of u_n near a wall while the density
carries two, so the flow turns parallel to the wall instead of crossing
it.

For real c_n, Psi vanishes on moving nodal lines, where rho = |Psi|^2 = 0
but j_y = -|d_x Psi|^2 / 2 is not: v = j / rho grows like 1/d^2 at
distance d from a node, and trajectories cross nodes at finite s. The
field (j_x, j_y, rho) is smooth and divergence-free in (x, y, s), so
positions transport in Sundman time tau, ds/dtau = rho / rho_ref and
d(x, y)/dtau = (j_x, j_y) / rho_ref: the same curves, reparametrised, on
which a node crossing costs a few ordinary steps. Outcomes are read off Y
at s = lam.
"""

import numpy as np

from ..errors import ValidationError
from ..qgrid import Grid1D
from ..stats import chi2_gof, chi2_joint, normal_cdf, stream
from .config import ScenarioConfig, parse_complex_list
from .reports import check_record

EQUIVARIANCE_BINS = 16
EQUIVARIANCE_P_MIN = 1e-3


def _libm_pair(angle, out):
    """sin(angle) into out[0] and, when out has a second row, cos(angle)
    into out[1]."""
    np.sin(angle, out=out[0, ...])
    if len(out) > 1:
        np.cos(angle, out=out[1, ...])


def _tan_pair(angle, out):
    """sin(angle) and cos(angle) into out[0] and out[1] from u =
    tan(angle / 2): with d = 2 / (1 + u^2), sin = u d and cos = d - 1. numpy
    sends float64 tan to SIMD code but sin and cos to scalar libm; the pair
    costs about a sixth of those two and is within 3.3e-16 of them."""
    u, d = out[0, ...], out[1, ...]
    np.multiply(angle, 0.5, out=u)
    np.tan(u, out=u)
    np.multiply(u, u, out=d)
    d += 1.0
    np.divide(2.0, d, out=d)
    u *= d
    d -= 1.0


# A restart costs two exact pairs. In the field, two tan pairs cost about as
# much as five recurrence steps on the sine and cosine rows (10.4 ns against
# 2.2 ns a point, at 3,000 points on a 2-core x86-64 Xeon VM, numpy 2.4.6).
RESTART_GAP = 5


def _harmonics(t, numbers, out=None, pair=_libm_pair):
    """sin(n t) for each entry n >= 0 of the integer array numbers, shape
    numbers.shape + t.shape; or, into out of shape (2, numbers.size) +
    t.shape, sin(n t) and cos(n t) as its two rows.

    pair(angle, buf) writes the exact sin and cos of angle into buf's rows.
    From f_0 = (0, 1) and f_1 = pair(t) the Chebyshev recurrence f_{k+1} =
    2 cos(t) f_k - f_{k-1} reaches each wanted n, with an error below k^2
    eps after k steps. Where the next wanted n lies more than RESTART_GAP
    steps ahead, the recurrence restarts from pair(n t) and pair((n + 1) t)
    instead."""
    t, numbers = np.asarray(t), np.asarray(numbers)
    pos = {}   # harmonic -> its entries in numbers
    for i, k in enumerate(numbers.ravel().tolist()):
        pos.setdefault(k, []).append(i)
    top = max(pos)
    sines = out is None
    if sines:
        out = np.empty((1, numbers.size) + t.shape)
    rows = len(out)
    prev, cur, nxt = np.empty((3, 2) + t.shape)   # f_k, f_{k+1}, a spare
    prev[0], prev[1] = 0.0, 1.0
    pair(t, cur)
    two_c = 2.0 * cur[1]
    prev, cur, nxt = prev[:rows], cur[:rows], nxt[:rows]
    k = 0
    for want in sorted(pos):
        if want - k > RESTART_GAP:
            pair(want * t, prev)
            if want < top:
                pair((want + 1) * t, cur)
            k = want
        for k in range(k, want):   # f_{k+2} from f_{k+1} and f_k
            if k + 2 <= top:
                np.multiply(two_c, cur, out=nxt)
                nxt -= prev
            prev, cur, nxt = cur, nxt, prev
        k = want
        for i in pos[want]:
            out[:, i] = prev
    return out[0].reshape(numbers.shape + t.shape) if sines else out


class BoxModes:
    """Closed-form box eigenmodes restricted to the active coefficients."""

    def __init__(self, coeffs, box_min: float, length: float):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        active = np.nonzero(np.abs(coeffs) > 0)[0]
        if active.size == 0:
            raise ValidationError("state.c has no nonzero coefficient")
        self.numbers = active + 1
        self.c = coeffs[active]
        self.box_min = box_min
        self.length = length
        self.a = (self.numbers * np.pi / length) ** 2 / 2.0
        self.R = np.real(np.outer(self.c, np.conj(self.c)))
        # flow_velocity's coefficients: sqrt(2/L) times the real part of
        # each c_n and, unless every c_n is real, its imaginary part, times
        # (n pi / L, 1, 2 a_n, 1)
        parts = ([self.c.real, self.c.imag] if self.c.imag.any()
                 else [self.c.real])
        c = np.sqrt(2.0 / length) * np.array(parts)
        self.flow_sums = np.array([c * (self.numbers * np.pi / length), c,
                                   c * (2.0 * self.a), c])

    def u(self, x):
        """Mode values at points x; zero outside the box."""
        xi = (np.asarray(x) - self.box_min) / self.length
        inside = (xi > 0.0) & (xi < 1.0)
        return (np.sqrt(2.0 / self.length)
                * _harmonics(np.pi * xi, self.numbers) * inside)

    def min_gap(self) -> float:
        if self.a.size < 2:
            return float(self.a[0])
        return float(np.min(np.diff(np.sort(self.a))))


def flow_velocity(modes: BoxModes, w: float, X, Y, s):
    """(j_x, j_y, rho) of the impulse flow at positions (X, Y), one (3, n)
    array.

    s is a scalar or one impulse parameter per position. The mode sums
    Psi, d_x Psi, d_y Psi and d_x^2 Psi use the sines' continuation past
    the walls, so a Runge-Kutta stage that strays outside the box sees the
    same smooth field. They contract the coefficients sqrt(2/L) c_n times
    (n pi / L, 1, 2 a_n, 1) with the products (u' phi, u phi z, u phi, u
    phi) of each mode's sine, cosine, pointer Gaussian phi = exp(-z^2 /
    2w^2) and z = Y - s a_n. The coefficients (BoxModes.flow_sums) enter
    as their real part and, unless every c_n is real, their imaginary
    part: one or two rows of each sum."""
    n, sums = modes.numbers, modes.flow_sums
    W = np.empty((4, n.size, np.size(X)))   # u' phi, u phi z, u phi, phi
    z, phi = W[1], W[3]
    np.multiply(modes.a[:, None], s, out=z)
    np.subtract(Y, z, out=z)
    np.multiply(z, z, out=phi)
    phi *= -0.5 / (w * w)
    np.exp(phi, out=phi)
    t = np.pi * ((X - modes.box_min) / modes.length)
    # sines into W[2], cosines into W[0]
    _harmonics(t, n, out=W[2::-2], pair=_tan_pair)
    W[:3:2] *= phi
    z *= W[2]
    # rows: d_x Psi, -w^2 d_y Psi, -d_x^2 Psi and Psi, each by part
    P = np.empty((4, sums.shape[1], W.shape[2]))
    np.matmul(sums[:2], W[:2], out=P[:2])
    np.matmul(sums[2:].reshape(-1, n.size), W[2],
              out=P[2:].reshape(-1, W.shape[2]))
    psi_x, psi_z, minus_psi_xx, psi = P
    psi_z *= psi_x
    psi_z *= -1.0 / (w * w)
    psi_x *= psi_x
    psi_x *= 0.5
    minus_psi_xx *= psi
    minus_psi_xx -= psi_x
    psi *= psi
    # (j_x, j_y, rho), summed over the parts
    return P[1:, 0] if sums.shape[1] == 1 else P[1:].sum(axis=1)


POSITION_TOL = 1e-6     # absolute error allowed per step in x, y and s
MIN_STEP = 1e-10        # a step below this fraction of the first one fails
ROUND_BUDGET = 10_000   # lockstep rounds before unfinished trajectories fail
CDF_BISECTIONS = 40     # x draws resolve the box to 2**-40 of its length

# Dormand-Prince 5(4): stage rows (the last is the 5th-order solution, whose
# slope starts the next step), error weights b5 - b4, and the coefficients
# of the 4th-order continuous extension (Hairer, Norsett & Wanner, Solving
# ODEs I, sections II.4-5).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)


def _landing(z0, z1, h, K, lam):
    """Dense-output point where s = lam inside each step (s0 < lam <= s1).

    Newton on the s row of the continuous extension, started from the
    secant; s grows monotonically through the step since ds/dtau >= 0.
    K holds the step's seven stage slopes, shape (7, 3, n)."""
    r2 = z1 - z0
    r3 = h * K[0] - r2
    r4 = r2 - h * K[-1] - r3
    r5 = h * np.tensordot(_DP_D, K, axes=1)
    # the s row as z0 + t (p1 + t (p2 + t (p3 + t p4))), and its slope
    p1 = r2[2] + r3[2]
    p2 = r4[2] + r5[2] - r3[2]
    p3 = -(r4[2] + 2.0 * r5[2])
    p4 = r5[2]
    q2, q3, q4 = 2.0 * p2, 3.0 * p3, 4.0 * p4
    t = np.clip((lam - z0[2]) / r2[2], 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            s = z0[2] + t * (p1 + t * (p2 + t * (p3 + t * p4)))
            ds = p1 + t * (q2 + t * (q3 + t * q4))
            t = np.clip(np.where(ds > 0.0, t - (s - lam) / ds, t), 0.0, 1.0)
    t1 = 1.0 - t
    return z0 + t * (r2 + t1 * (r3 + t * (r4 + t1 * r5)))


def transport(modes: BoxModes, w: float, starts, lam: float, steps: int):
    """Transport (X, Y) over s in [0, lam] in Sundman time; returns
    (X, Y, failed).

    One lockstep loop of Dormand-Prince 5(4) steps, each trajectory with
    its own step. A step is accepted only when its error estimate is within
    POSITION_TOL and its endpoint is finite and inside the box; the step
    that crosses s = lam lands on it by dense output. rho_ref bounds rho,
    so ds/dtau <= 1 and the first step, lam / steps, advances s by at most
    lam / steps; every later step is capped at lam / steps over ds/dtau at
    its start. A trajectory whose step falls below MIN_STEP of the first,
    or that is unfinished after ROUND_BUDGET rounds, fails and freezes at
    its last accepted point."""
    Z = np.array([starts[:, 0], starts[:, 1], np.zeros(len(starts))],
                 dtype=float)
    n = Z.shape[1]
    rho_ref = 2.0 / modes.length * float(np.sum(np.abs(modes.c))) ** 2

    def admissible(z):
        return (np.isfinite(z).all(axis=0) & (z[0] > modes.box_min)
                & (z[0] < modes.box_min + modes.length))

    slope = flow_velocity(modes, w, *Z) / rho_ref
    first = lam / steps
    # the active trajectories, packed in index order: their indexes,
    # positions, slopes and next steps
    idx, z0, h = np.arange(n), Z.copy(), np.full(n, first)
    failed = np.zeros(n, dtype=bool)
    stages = np.empty(7 * 3 * n)
    stage_rows = [np.array(row) for row in _DP_A]
    for _ in range(ROUND_BUDGET):
        if idx.size == 0:
            break
        # the round's stage slopes, one row per stage
        K = stages[:7 * z0.size].reshape(7, 3, -1)
        K2 = K.reshape(7, -1)
        K[0] = slope
        for i, row in enumerate(stage_rows):
            z1 = (row @ K2[:i + 1]).reshape(z0.shape)
            z1 *= h
            z1 += z0
            np.divide(flow_velocity(modes, w, *z1), rho_ref, out=K[i + 1])
        err = np.max(np.abs(h * (_DP_E @ K2).reshape(z0.shape)),
                     axis=0) / POSITION_TOL
        ok = (err <= 1.0) & admissible(z1)
        land = ok & (z1[2] >= lam)
        if land.any():
            il = np.flatnonzero(land)
            zl = _landing(z0[:, il], z1[:, il], h[il], K[:, :, il], lam)
            stray = il[~admissible(zl)]
            ok[stray] = land[stray] = False
            zl[2] = lam
            z1[:, il] = zl
        with np.errstate(divide="ignore"):
            grow = 0.9 * err**-0.2
        grow = np.fmax(np.fmin(grow, np.where(ok, 5.0, 0.5)), 0.2)
        np.copyto(z0, z1, where=ok)
        slope = np.where(ok, K[6], K[0])
        with np.errstate(divide="ignore"):
            cap = first / slope[2]
        h = np.minimum(h * grow, cap)
        tiny = ~land & (h < MIN_STEP * first)
        done = land | tiny
        if done.any():   # write the finished ones out and drop them
            Z[:, idx[done]] = z0[:, done]
            failed[idx[tiny]] = True
            keep = ~done
            idx, z0, h, slope = idx[keep], z0[:, keep], h[keep], slope[:, keep]
    Z[:, idx] = z0
    failed[idx] = True
    return Z[0], Z[1], failed


def _pair_anti(modes: BoxModes, xi):
    """A[n, m, ...] = integral of u_n u_m from the left wall to box
    fraction xi (continuum, exact), from the sines of the harmonics
    |n - m| and n + m."""
    n = modes.numbers
    diff = np.abs(n[:, None] - n)
    add = n[:, None] + n
    sin_d, sin_a = _harmonics(np.pi * np.asarray(xi), np.stack([diff, add]))
    tail = (...,) + (None,) * np.ndim(xi)
    A = sin_d / (np.pi * np.maximum(diff, 1))[tail]
    A -= sin_a / (np.pi * add)[tail]
    A += (diff == 0)[tail] * xi
    return A


def sample_initial(modes: BoxModes, w: float, n: int, seed: int):
    """n exact draws from |Psi_0|^2 = |psi(x)|^2 |phi0(y)|^2, shape (n, 2).

    y is (w / sqrt 2) times a standard normal; x inverts the closed-form
    CDF sum_nm R_nm A_nm(xi) by vectorised bisection. Both come from one
    Philox stream keyed by seed."""
    rng = stream(seed)
    target = rng.random(n) * np.trace(modes.R)
    y = (w / np.sqrt(2.0)) * rng.standard_normal(n)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(CDF_BISECTIONS):
        mid = 0.5 * (lo + hi)
        mass = np.einsum("nm,nmi->i", modes.R, _pair_anti(modes, mid))
        lo = np.where(mass < target, mid, lo)
        hi = np.where(mass < target, hi, mid)
    x = modes.box_min + modes.length * 0.5 * (lo + hi)
    return np.column_stack([x, y])


def _flow_marginal_chi2(modes: BoxModes, w: float, s: float, x_range,
                        y_range, X, Y, bins: int) -> dict:
    """Histogram test of continuous positions against the closed-form
    continuum marginals of the state at impulse strength s (s=0: initial).

    The y marginal is a |c_n|^2 mixture of branch Gaussians (mode
    orthogonality removes the cross terms); the x marginal keeps the cross
    terms damped by the pointer branch overlaps."""
    x_edges = np.linspace(*x_range, bins + 1)
    y_edges = np.linspace(*y_range, bins + 1)
    weights = np.abs(modes.c) ** 2
    sigma = w / np.sqrt(2.0)
    cdf = normal_cdf((y_edges[None, :] - s * modes.a[:, None]) / sigma)
    py = weights @ np.diff(cdf, axis=1)

    shifts = s * (modes.a[:, None] - modes.a[None, :])
    overlaps = np.exp(-(shifts**2) / (4.0 * w**2))
    xi = np.clip((x_edges - modes.box_min) / modes.length, 0.0, 1.0)
    px = np.einsum("nm,nmb->b", modes.R * overlaps,
                   np.diff(_pair_anti(modes, xi), axis=-1))

    cx = np.histogram(X, bins=bins, range=x_range)[0]
    cy = np.histogram(Y, bins=bins, range=y_range)[0]
    return chi2_joint(chi2_gof(cx, px), chi2_gof(cy, py))


def run_fig1(cfg: ScenarioConfig) -> dict:
    """Collapse study: outcome frequencies, per-trajectory conditional-state
    overlap with the selected mode, and equivariance before and after."""
    st, g = cfg.state, cfg.grid
    box_min, length, w = st["box_min"], st["box_length"], st["w"]
    gx = Grid1D(g["x_min"], g["x_max"], g["n_x"])
    if not (g["x_min"] <= box_min and box_min + length <= g["x_max"]):
        raise ValidationError(
            f"config.state.box_min = {box_min:.6g} with box_length = "
            f"{length:.6g} puts the box outside the x grid "
            f"[{g['x_min']:.6g}, {g['x_max']:.6g}]")
    coeffs = parse_complex_list(st["c"])
    n_max = int(np.flatnonzero(coeffs)[-1]) + 1
    if length < 2.0 * n_max * gx.dx:
        raise ValidationError(
            f"config.state.box_length = {length:.6g} gives mode "
            f"{n_max} fewer than two x-grid points per half-wave (needs >= "
            f"2 n dx = {2.0 * n_max * gx.dx:.6g})")
    modes = BoxModes(coeffs, box_min, length)
    lam = st["lam"] if st["lam"] is not None else 8.0 * w / modes.min_gap()
    if lam * modes.min_gap() <= 3.0 * w:
        raise ValidationError(
            f"config.state.lam = {lam:.4g} and config.state.w = {w:.4g}: "
            f"impulse too weak: lam*min_gap = {lam * modes.min_gap():.4g} "
            f"<= 3w = {3.0 * w:.4g}")

    x_range, y_range = (g["x_min"], g["x_max"]), (g["y_min"], g["y_max"])
    top = lam * float(modes.a.max())   # the highest outcome target
    if not (g["y_min"] < 0.0 and g["y_max"] > top):
        raise ValidationError(
            f"config.grid: y_min = {g['y_min']:.6g} and y_max = "
            f"{g['y_max']:.6g} do not cover the outcome range (0, {top:.6g}]")

    n = cfg.n_trials
    starts = sample_initial(modes, w, n, cfg.seed)
    before = _flow_marginal_chi2(modes, w, 0.0, x_range, y_range,
                                 starts[:, 0], starts[:, 1], EQUIVARIANCE_BINS)

    X, Y, failed = transport(modes, w, starts, lam, st["flow_steps"])

    # outcome: nearest pointer branch; conditional state at Y is the mode
    # superposition reweighted by the branch amplitudes F_n = phi_n(Y)
    targets = lam * modes.a
    outcome = np.argmin(np.abs(Y[:, None] - targets[None, :]), axis=1)
    F = np.exp(-((Y[None, :] - targets[:, None]) ** 2) / (2.0 * w**2))
    weights = modes.c[:, None] * F
    norms = np.linalg.norm(weights, axis=0)
    overlap = np.abs(weights[outcome, np.arange(n)]) / np.maximum(norms, 1e-300)

    ok = ~failed
    n_ok = int(ok.sum())
    freq_rows = []
    checks = []
    for i, mode_number in enumerate(modes.numbers):
        p = float(np.abs(modes.c[i]) ** 2)
        f = float(np.mean(outcome[ok] == i)) if n_ok else float("nan")
        se = float(np.sqrt(p * (1.0 - p) / max(n_ok, 1)))
        freq_rows.append({"mode": int(mode_number), "expected": p,
                          "frequency": f, "se": se})
        checks.append(check_record(f"frequency_mode_{mode_number}",
                                   frequency=f,
                                   bounds=(p - 4.0 * se, p + 4.0 * se)))

    frac_good = float(np.mean(overlap[ok] >= 0.999)) if n_ok else float("nan")
    checks.append(check_record("overlap_fraction", fraction=frac_good,
                               bounds=(0.999, 1.0)))

    after = _flow_marginal_chi2(modes, w, lam, x_range, y_range, X[ok],
                                Y[ok], EQUIVARIANCE_BINS)
    for label, test in (("before", before), ("after", after)):
        checks.append(check_record(f"equivariance_{label}_p",
                                   p_value=test["p_value"],
                                   minimum=EQUIVARIANCE_P_MIN))

    report = {
        "lam": float(lam),
        "eigenvalues": [float(a) for a in modes.a],
        "outcome_targets": [float(t) for t in targets],
        "n_failed": int(failed.sum()),
        "frequencies": freq_rows,
        "overlap": {"fraction_above_0.999": frac_good,
                    "min": float(overlap[ok].min()) if n_ok else None},
        "equivariance": {"before": before, "after": after},
        "checks": checks,
    }

    m = min(n, cfg.report["records_cap"])
    records = {"trial": np.arange(m), "x0": starts[:m, 0],
               "y0": starts[:m, 1], "x_final": X[:m], "y_final": Y[:m],
               "outcome_mode": modes.numbers[outcome[:m]],
               "overlap": overlap[:m], "failed": failed[:m]}

    u_grid = modes.u(gx.points)
    wf_tables = {"psi_initial": (gx.points, modes.c @ u_grid)}
    for i, mode_number in enumerate(modes.numbers):
        wf_tables[f"mode_{int(mode_number)}"] = (gx.points, u_grid[i])
        sample = np.flatnonzero(ok & (outcome == i))
        if sample.size:
            yi = Y[sample[0]]
            fvec = np.exp(-((yi - targets) ** 2) / (2.0 * w**2))
            cwf = np.einsum("n,ni->i", modes.c * fvec, u_grid)
            cwf /= np.linalg.norm(cwf)
            wf_tables[f"cwf_branch_{int(mode_number)}"] = (gx.points, cwf)

    return {"report": report, "records": records, "wf_tables": wf_tables}
