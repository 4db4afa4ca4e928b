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
from ..stats import chi2_gof, chi2_joint, normal_cdf
from .config import ScenarioConfig, parse_complex_list
from .reports import check_record

EQUIVARIANCE_BINS = 16
EQUIVARIANCE_P_MIN = 1e-3


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

    def u(self, x):
        """Mode values at points x; zero outside the box."""
        xi = (np.asarray(x) - self.box_min) / self.length
        inside = (xi > 0.0) & (xi < 1.0)
        return (np.sqrt(2.0 / self.length)
                * np.sin(self.numbers[:, None] * np.pi * xi) * inside)

    def min_gap(self) -> float:
        if self.a.size < 2:
            return float(self.a[0])
        return float(np.min(np.diff(np.sort(self.a))))


def flow_velocity(modes: BoxModes, w: float, X, Y, s):
    """(j_x, j_y, rho) of the impulse flow at positions (X, Y).

    s is a scalar or one impulse parameter per position. The mode sums
    Psi, d_x Psi, d_y Psi and d_x^2 Psi use the sines' continuation past
    the walls, so a Runge-Kutta stage that strays outside the box sees the
    same smooth field."""
    k = modes.numbers[:, None] * np.pi
    theta = k * ((X - modes.box_min) / modes.length)
    z = Y - modes.a[:, None] * s
    phi = np.sqrt(2.0 / modes.length) * np.exp(-(z * z) / (2.0 * w * w))
    u_phi = np.sin(theta) * phi
    coef = np.stack([modes.c.real, modes.c.imag])
    # rows: real and imaginary part of each mode sum
    psi = coef @ u_phi
    psi_x = coef @ (np.cos(theta) * phi * (k / modes.length))
    psi_y = coef @ (u_phi * (-z / (w * w)))
    psi_xx = (coef * (-2.0 * modes.a)) @ u_phi
    rho = np.sum(psi * psi, axis=0)
    jx = np.sum(psi_x * psi_y, axis=0)
    jy = -np.sum(psi * psi_xx, axis=0) - 0.5 * np.sum(psi_x * psi_x, axis=0)
    return jx, jy, rho


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


def _combine(weights, ks):
    """sum_i weights[i] * ks[i] over the nonzero weights."""
    return sum(c * k for c, k in zip(weights, ks) if c != 0.0)


def _landing(z0, z1, h, ks, lam):
    """Dense-output point where s = lam inside each step (s0 < lam <= s1).

    Newton on the s row of the continuous extension, started from the
    secant; s grows monotonically through the step since ds/dtau >= 0."""
    r2 = z1 - z0
    r3 = h * ks[0] - r2
    r4 = r2 - h * ks[-1] - r3
    r5 = h * _combine(_DP_D, ks)
    t = np.clip((lam - z0[2]) / r2[2], 0.0, 1.0)
    for _ in range(6):
        t1 = 1.0 - t
        s = z0[2] + t * (r2[2] + t1 * (r3[2] + t * (r4[2] + t1 * r5[2])))
        ds = (r2[2] + (1.0 - 2.0 * t) * r3[2] + t * (2.0 - 3.0 * t) * r4[2]
              + 2.0 * t * t1 * (1.0 - 2.0 * t) * r5[2])
        with np.errstate(divide="ignore", invalid="ignore"):
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
    rho_ref = 2.0 / modes.length * float(np.sum(np.abs(modes.c))) ** 2

    def field(z):
        return np.array(flow_velocity(modes, w, z[0], z[1], z[2])) / rho_ref

    def admissible(z):
        return (np.isfinite(z).all(axis=0) & (z[0] > modes.box_min)
                & (z[0] < modes.box_min + modes.length))

    slope = field(Z)
    first = lam / steps
    h = np.full(Z.shape[1], first)
    active = np.ones(Z.shape[1], dtype=bool)
    failed = np.zeros(Z.shape[1], dtype=bool)
    for _ in range(ROUND_BUDGET):
        ia = np.flatnonzero(active)
        if ia.size == 0:
            break
        z0, hh = Z[:, ia], h[ia]
        ks = [slope[:, ia]]
        for row in _DP_A:
            z1 = z0 + hh * _combine(row, ks)
            ks.append(field(z1))
        err = np.max(np.abs(hh * _combine(_DP_E, ks)), axis=0) / POSITION_TOL
        ok = (err <= 1.0) & admissible(z1)
        land = ok & (z1[2] >= lam)
        if land.any():
            il = np.flatnonzero(land)
            zl = _landing(z0[:, il], z1[:, il], hh[il],
                          [k[:, il] for k in ks], lam)
            stray = il[~admissible(zl)]
            ok[stray] = land[stray] = False
            zl[2] = lam
            z1[:, il] = zl
        with np.errstate(divide="ignore"):
            grow = 0.9 * err**-0.2
        grow = np.where(ok, np.fmax(np.fmin(grow, 5.0), 0.2),
                        np.fmax(np.fmin(grow, 0.5), 0.2))
        acc = ia[ok]
        Z[:, acc] = z1[:, ok]
        slope[:, acc] = ks[-1][:, ok]
        with np.errstate(divide="ignore"):
            cap = first / slope[2, ia]
        h[ia] = np.minimum(hh * grow, cap)
        tiny = ~land & (h[ia] < MIN_STEP * first)
        failed[ia[tiny]] = True
        active[ia[land | tiny]] = False
    failed |= active
    return Z[0], Z[1], failed


def _anti(n: int, m: int, t):
    """Antiderivative of 2 sin(n pi t) sin(m pi t), zero at t = 0."""
    if n == m:
        return t - np.sin(2.0 * n * np.pi * t) / (2.0 * n * np.pi)
    return (np.sin((n - m) * np.pi * t) / ((n - m) * np.pi)
            - np.sin((n + m) * np.pi * t) / ((n + m) * np.pi))


def _pair_anti(modes: BoxModes, xi):
    """A[n, m, ...] = integral of u_n u_m from the left wall to box
    fraction xi (continuum, exact)."""
    return np.array([[_anti(int(n), int(m), xi) for m in modes.numbers]
                     for n in modes.numbers])


def sample_initial(modes: BoxModes, w: float, n: int, seed: int):
    """n exact draws from |Psi_0|^2 = |psi(x)|^2 |phi0(y)|^2, shape (n, 2).

    y is (w / sqrt 2) times a standard normal; x inverts the closed-form
    CDF sum_nm R_nm A_nm(xi) by vectorised bisection. Both come from one
    Philox stream keyed by seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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
    modes = BoxModes(parse_complex_list(st["c"]), st["box_min"],
                     st["box_length"])
    gx = Grid1D(g["x_min"], g["x_max"], g["n_x"])
    if not (g["x_min"] <= modes.box_min
            and modes.box_min + modes.length <= g["x_max"]):
        raise ValidationError(
            f"config.state.box_min = {modes.box_min:.6g} with box_length = "
            f"{modes.length:.6g} puts the box outside the x grid "
            f"[{g['x_min']:.6g}, {g['x_max']:.6g}]")
    n_max = int(modes.numbers.max())
    if modes.length < 2.0 * n_max * gx.dx:
        raise ValidationError(
            f"config.state.box_length = {modes.length:.6g} gives mode "
            f"{n_max} fewer than two x-grid points per half-wave (needs >= "
            f"2 n dx = {2.0 * n_max * gx.dx:.6g})")
    w = st["w"]
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
        "scenario": "fig1_collapse",
        "config": cfg.to_dict(),
        "lam": float(lam),
        "eigenvalues": [float(a) for a in modes.a],
        "outcome_targets": [float(t) for t in targets],
        "n_failed": int(failed.sum()),
        "frequencies": freq_rows,
        "overlap": {"fraction_above_0.999": frac_good,
                    "min": float(overlap[ok].min()) if n_ok else None},
        "equivariance": {"before": before, "after": after},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
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
