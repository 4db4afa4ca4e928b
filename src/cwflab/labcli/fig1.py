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
it. Positions transport by RK4 in s; outcomes are read off the final Y.
"""

import numpy as np

from .. import bohm
from ..errors import ValidationError
from ..qgrid import Grid1D
from ..states import box_superposition, gaussian_1d, product_2d
from ..stats import chi2_gof, chi2_joint
from .config import ScenarioConfig, parse_complex_list
from scipy import stats as _stats

EQUIVARIANCE_BINS = 16


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
        """Mode values and x-derivatives at points x; zero outside the box."""
        xi = (np.asarray(x) - self.box_min) / self.length
        inside = (xi > 0.0) & (xi < 1.0)
        k = self.numbers[:, None] * np.pi
        root = np.sqrt(2.0 / self.length)
        vals = root * np.sin(k * xi) * inside
        ders = root * (k / self.length) * np.cos(k * xi) * inside
        return vals, ders

    def min_gap(self) -> float:
        if self.a.size < 2:
            return float(self.a[0])
        return float(np.min(np.diff(np.sort(self.a))))


def _pointer(y, centers, w):
    """Gaussian pointer amplitudes (sans normalization) and y-derivatives."""
    centers = np.asarray(centers)
    if centers.ndim == 1:
        z = np.asarray(y) - centers[:, None]
    else:
        z = np.asarray(y) - centers
    phi = np.exp(-(z**2) / (2.0 * w**2))
    return phi, -(z / w**2) * phi


def flow_velocity(modes: BoxModes, w: float, X, Y, s):
    """(v_x, v_y, rho) of the impulse flow at positions (X, Y).

    s may be a scalar or a per-position array (adaptive substeps)."""
    u, du = modes.u(X)
    phi, dphi = _pointer(Y, np.multiply.outer(modes.a, np.asarray(s)), w)
    rho = np.zeros_like(np.asarray(X, dtype=float))
    jx = np.zeros_like(rho)
    jy = np.zeros_like(rho)
    n_act = modes.c.size
    for n in range(n_act):
        for m in range(n_act):
            r = modes.R[n, m]
            if r == 0.0:
                continue
            pp = phi[n] * phi[m]
            rho += r * u[n] * u[m] * pp
            jx += r * du[n] * u[m] * phi[n] * dphi[m]
            jy += r * (2.0 * modes.a[n] * u[n] * u[m]
                       - 0.5 * du[n] * du[m]) * pp
    with np.errstate(invalid="ignore", divide="ignore"):
        safe = np.maximum(rho, 1e-300)
        return jx / safe, jy / safe, rho


SUBSTEP_RHO = 1e-9      # fraction of rho_max that triggers step halving
SUBSTEP_DISP = 0.05     # per-step displacement that triggers halving
MIN_STEP_FRACTION = 2.0**-26
ADAPTIVE_BUDGET = 20_000


class _Flow:
    """Adaptive RK4 transport of the impulse flow.

    The flow is stiff: trajectories circulate in (x, y) while the pointer
    branches separate and the speed diverges near moving nodes. Every outer
    step is first taken in one RK4 sweep; trajectories whose sweep leaves
    the box, dips below a density safety floor, or moves farther than
    SUBSTEP_DISP are redone with per-trajectory adaptive substeps (halving
    on rejection, doubling on success). At the minimum substep a soft
    rejection is accepted; wall crossing, non-finite positions and density
    under the node floor freeze and flag the trajectory.
    """

    def __init__(self, modes: BoxModes, w: float, rho_max: float):
        self.modes = modes
        self.w = w
        self.lo = modes.box_min
        self.hi = modes.box_min + modes.length
        self.soft = SUBSTEP_RHO * rho_max
        self.hard = bohm.NODE_FLOOR * rho_max

    def _rk4(self, x, y, s, ds):
        f = flow_velocity
        k1x, k1y, r1 = f(self.modes, self.w, x, y, s)
        k2x, k2y, r2 = f(self.modes, self.w, x + 0.5 * ds * k1x,
                         y + 0.5 * ds * k1y, s + 0.5 * ds)
        k3x, k3y, r3 = f(self.modes, self.w, x + 0.5 * ds * k2x,
                         y + 0.5 * ds * k2y, s + 0.5 * ds)
        k4x, k4y, r4 = f(self.modes, self.w, x + ds * k3x,
                         y + ds * k3y, s + ds)
        xn = x + (ds / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        yn = y + (ds / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        _, _, rn = f(self.modes, self.w, xn, yn, s + ds)
        rmin = np.minimum.reduce([r1, r2, r3, r4, rn])
        return xn, yn, rmin

    def _classify(self, x, y, xn, yn, rmin):
        finite = np.isfinite(xn) & np.isfinite(yn)
        inside = finite & (xn > self.lo) & (xn < self.hi)
        disp = np.maximum(np.abs(xn - x), np.abs(yn - y))
        good = inside & (rmin >= self.soft) & (disp <= SUBSTEP_DISP)
        hard = ~inside | (rmin < self.hard)
        return good, hard

    def _adaptive(self, x, y, s0, span):
        """Advance the cohort over [s0, s0 + span] with per-element steps."""
        x = x.copy()
        y = y.copy()
        n = x.size
        done = np.zeros(n)
        dt = np.full(n, 0.5 * span)
        ok = np.ones(n, dtype=bool)
        active = np.ones(n, dtype=bool)
        dt_min = span * MIN_STEP_FRACTION
        for _ in range(ADAPTIVE_BUDGET):
            if not active.any():
                break
            ia = np.flatnonzero(active)
            step = np.minimum(dt[ia], span - done[ia])
            xn, yn, rmin = self._rk4(x[ia], y[ia], s0 + done[ia], step)
            good, hard = self._classify(x[ia], y[ia], xn, yn, rmin)
            tiny = dt[ia] <= dt_min
            accept = good | (tiny & ~hard)
            fail = tiny & hard
            acc = ia[accept]
            x[acc] = xn[accept]
            y[acc] = yn[accept]
            done[acc] += step[accept]
            dt[acc] = np.minimum(dt[acc] * 2.0, span)
            dt[ia[~accept & ~fail]] *= 0.5
            ok[ia[fail]] = False
            active[ia] = (done[ia] < span * (1.0 - 1e-12)) & ok[ia]
        leftover = active
        ok[leftover] = False
        return x, y, ok

    def step(self, x, y, s, ds):
        """One outer step for the whole cohort; returns (x, y, ok).

        Failed trajectories keep their last accepted position."""
        xn, yn, rmin = self._rk4(x, y, s, ds)
        good, _ = self._classify(x, y, xn, yn, rmin)
        ok = np.ones(x.size, dtype=bool)
        if not good.all():
            redo = ~good
            xb, yb, okb = self._adaptive(x[redo], y[redo], s, ds)
            xn[redo] = xb
            yn[redo] = yb
            ok[redo] = okb
        return xn, yn, ok


def transport(modes: BoxModes, w: float, starts, lam: float, steps: int):
    """Transport (X, Y) over s in [0, lam]; failed trajectories freeze.

    Returns (X, Y, failed)."""
    X = np.array(starts[:, 0], dtype=float)
    Y = np.array(starts[:, 1], dtype=float)
    failed = np.zeros(X.size, dtype=bool)
    _, _, rho0 = flow_velocity(modes, w, X, Y, 0.0)
    flow = _Flow(modes, w, float(rho0.max()))
    ds = lam / steps
    for k in range(steps):
        alive = ~failed
        if not alive.any():
            break
        xn, yn, ok = flow.step(X[alive], Y[alive], k * ds, ds)
        X[alive] = xn
        Y[alive] = yn
        idx = np.flatnonzero(alive)
        failed[idx[~ok]] = True
    return X, Y, failed


def _mode_pair_integrals(modes: BoxModes, edges):
    """I[n, m, b] = integral of u_n u_m over x bin b (continuum, exact)."""
    xi = np.clip((np.asarray(edges) - modes.box_min) / modes.length, 0.0, 1.0)
    nums = modes.numbers
    k = nums.size
    out = np.zeros((k, k, xi.size - 1))

    def anti(n, m, t):
        if n == m:
            return t - np.sin(2.0 * n * np.pi * t) / (2.0 * n * np.pi)
        return (np.sin((n - m) * np.pi * t) / ((n - m) * np.pi)
                - np.sin((n + m) * np.pi * t) / ((n + m) * np.pi))

    for i, n in enumerate(nums):
        for j, m in enumerate(nums):
            vals = anti(int(n), int(m), xi)
            out[i, j] = np.diff(vals)
    return out


def _flow_marginal_chi2(modes: BoxModes, w: float, s: float, gx: Grid1D,
                        gy: Grid1D, X, Y, bins: int) -> dict:
    """Histogram test of continuous positions against the closed-form
    continuum marginals of the state at impulse strength s (s=0: initial).

    The y marginal is a |c_n|^2 mixture of branch Gaussians (mode
    orthogonality removes the cross terms); the x marginal keeps the cross
    terms damped by the pointer branch overlaps."""
    x_edges = np.linspace(gx.x_min, gx.x_max, bins + 1)
    y_edges = np.linspace(gy.x_min, gy.x_max, bins + 1)
    weights = np.abs(modes.c) ** 2
    sigma = w / np.sqrt(2.0)
    cdf = _stats.norm.cdf(y_edges[None, :], loc=s * modes.a[:, None],
                          scale=sigma)
    py = weights @ np.diff(cdf, axis=1)

    shifts = s * (modes.a[:, None] - modes.a[None, :])
    overlaps = np.exp(-(shifts**2) / (4.0 * w**2))
    coupling = np.real(np.outer(modes.c, np.conj(modes.c))) * overlaps
    I = _mode_pair_integrals(modes, x_edges)
    px = np.einsum("nm,nmb->b", coupling, I)

    cx = np.histogram(X, bins=bins, range=(gx.x_min, gx.x_max))[0]
    cy = np.histogram(Y, bins=bins, range=(gy.x_min, gy.x_max))[0]
    return chi2_joint(chi2_gof(cx, px), chi2_gof(cy, py))


def run_fig1(cfg: ScenarioConfig) -> dict:
    """Collapse study: outcome frequencies, per-trajectory conditional-state
    overlap with the selected mode, and equivariance before and after."""
    st = cfg.state
    coeffs = parse_complex_list(st["c"])
    modes = BoxModes(coeffs, st["box_min"], st["box_length"])
    w = st["w"]
    lam = st["lam"] if st["lam"] is not None else 8.0 * w / modes.min_gap()
    if lam * modes.min_gap() <= 3.0 * w:
        raise ValidationError(
            f"impulse too weak: lam*min_gap = {lam * modes.min_gap():.4g} "
            f"<= 3w = {3.0 * w:.4g}")

    g = cfg.grid
    gx = Grid1D(g["x_min"], g["x_max"], g["n_x"])
    gy = Grid1D(g["y_min"], g["y_max"], g["n_y"])
    lam_a_max = lam * float(modes.a.max())
    if not (gy.x_min < 0.0 and gy.x_max > lam_a_max):
        raise ValidationError("y grid does not cover the outcome range")

    psi_x = box_superposition(gx, st["box_min"], st["box_length"], coeffs)
    phi_y = gaussian_1d(gy, 0.0, w / np.sqrt(2.0))
    psi0 = product_2d(psi_x, phi_y)

    n = cfg.n_trials
    starts = bohm.sample_qeh(psi0, n, cfg.seed)
    # spread each grid-cell draw uniformly over its cell; the bare lattice
    # of cell centers aliases through the flow map into the final histogram
    jit = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([cfg.seed, 1])))
    starts = starts + jit.uniform(-0.5, 0.5, starts.shape) * [gx.dx, gy.dx]
    before = _flow_marginal_chi2(modes, w, 0.0, gx, gy, starts[:, 0],
                                 starts[:, 1], EQUIVARIANCE_BINS)

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
    freqs_ok = True
    for i, mode_number in enumerate(modes.numbers):
        p = float(np.abs(modes.c[i]) ** 2)
        f = float(np.mean(outcome[ok] == i)) if n_ok else float("nan")
        se = float(np.sqrt(p * (1.0 - p) / max(n_ok, 1)))
        hit = bool(abs(f - p) <= 4.0 * se) if se > 0 else bool(f == p)
        freqs_ok &= hit
        freq_rows.append({"mode": int(mode_number), "expected": p,
                          "frequency": f, "se": se, "pass": hit})

    frac_good = float(np.mean(overlap[ok] >= 0.999)) if n_ok else float("nan")
    overlap_ok = bool(frac_good >= 0.999)

    after = _flow_marginal_chi2(modes, w, lam, gx, gy, X[ok], Y[ok],
                                EQUIVARIANCE_BINS)
    equi_ok = bool(before["p_value"] > 1e-3 and after["p_value"] > 1e-3)

    report = {
        "scenario": "fig1_collapse",
        "config": cfg.to_dict(),
        "lam": float(lam),
        "eigenvalues": [float(a) for a in modes.a],
        "outcome_targets": [float(t) for t in targets],
        "n_failed": int(failed.sum()),
        "frequencies": freq_rows,
        "overlap": {"fraction_above_0.999": frac_good,
                    "min": float(overlap[ok].min()) if n_ok else None,
                    "pass": overlap_ok},
        "equivariance": {"before": before, "after": after, "pass": equi_ok},
        "pass": bool(freqs_ok and overlap_ok and equi_ok),
    }

    cap = cfg.report.get("records_cap", 10_000)
    m = min(n, cap)
    records = [{"trial": i, "x0": starts[i, 0], "y0": starts[i, 1],
                "x_final": X[i], "y_final": Y[i],
                "outcome_mode": int(modes.numbers[outcome[i]]),
                "overlap": overlap[i], "failed": bool(failed[i])}
               for i in range(m)]
    record_fields = ("trial", "x0", "y0", "x_final", "y_final",
                     "outcome_mode", "overlap", "failed")

    wf_tables = {"psi_initial": (gx.points, psi_x.amplitudes)}
    u_grid, _ = modes.u(gx.points)
    for i, mode_number in enumerate(modes.numbers):
        wf_tables[f"mode_{int(mode_number)}"] = (gx.points, u_grid[i])
        sample = np.flatnonzero(ok & (outcome == i))
        if sample.size:
            yi = Y[sample[0]]
            fvec = np.exp(-((yi - targets) ** 2) / (2.0 * w**2))
            cwf = np.einsum("n,ni->i", modes.c * fvec, u_grid)
            cwf /= np.linalg.norm(cwf)
            wf_tables[f"cwf_branch_{int(mode_number)}"] = (gx.points, cwf)

    return {"report": report, "records": records,
            "record_fields": record_fields, "wf_tables": wf_tables}
