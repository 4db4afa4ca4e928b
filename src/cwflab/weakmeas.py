"""Weak values and the pointer-coupling measurement protocol.

Units are hbar = m = 1 throughout.

Closed forms
------------
A weak value is <b|A|psi> / <b|psi>. The momentum-post-selected scans
(weak_value_scan) take for A the site observable below and for b the
delta-normalized plane-wave bra <p|x> = exp(-i p x), so the denominator is
dx * sum_x psi(x) exp(-i p x); at grid momenta that equals sqrt(2 pi)
times the unitary transform and the completeness sum over x of
value(x) * dx equals 1 exactly.

The site observable is the projector density: the indicator of one grid
cell divided by dx (operator norm 1/dx), the grid regularization of a
position projector.

Pointer models and calibration
------------------------------
qubit pointer: a two-level ancilla starts in |H>; when the particle sits
in the coupled cell its polarization rotates by alpha = g / (dx * scale)
toward |V| (scale = pointer_width, default 1). After post-selecting the
particle on a momentum cell p (and a Y cell in the entangled case), the
ancilla state is proportional to

    (1 - W(1 - cos a))|H> + W sin a |V>,   W = dx * w,

with w the weak value of the projector density. Reading out in the
diagonal basis D/A = (|H> +- |V>)/sqrt(2) and the circular basis
L/R = (|H> +- i|V>)/sqrt(2) gives, exactly,

    P_D - P_A = +2 sin a * (Re W - |W|^2 (1 - cos a)) / n,
    P_L - P_R = +2 sin a * Im W / n,
    n = |1 - W(1 - cos a)|^2 + |W sin a|^2,

so (P_D - P_A) / (2 dx sin a) -> Re w and (P_L - P_R) / (2 dx sin a)
-> Im w as a -> 0, with corrections even in a. QUBIT_IMBALANCE_GAIN
names the factor 2 above.

gaussian pointer: a mode with position spread sigma_q = pointer_width
(momentum spread sigma_p = 1 / (2 sigma_q)) is shifted by
s = g / dx when the particle sits in the coupled cell. First order in
the coupling,

    <q> = GAUSSIAN_POSITION_GAIN * g * Re w,
    <p> = GAUSSIAN_MOMENTUM_GAIN * sigma_p^2 * g * Im w,

again with even-order corrections. Both models therefore share the same
weak limit, which the tests check directly.

Monte Carlo
-----------
The protocol samples the exact joint distribution of (momentum cell,
Y cell, readout) implied by the unitary coupling, so the simulation is
faithful at every coupling strength, not only to first order.
One engine serves every caller: coupling tables built from the coupled
state's momentum-space branches (qubit uH, uV; gaussian den, num) and one
per-chunk draw (cells, basis, readout uniform, model readout). Site scans,
both operation orderings of labcli.order and the per-trial records of
labcli.planes all pool or list the trials of that draw. Randomness is
counter-based (Philox) keyed by (seed, site, chunk) with a fixed chunk
size, which makes results independent of how chunks are distributed over
workers; partial sums merge in fixed chunk order.

Only the trials inside the momentum window are located to a cell. p
ascends, so the window is one flat cell range [s, e) of the (p, Y) CDF: a
trial is inside exactly when cdf[s-1] <= u < cdf[e-1], and its cell, that of
searchsorted(cdf, u, side="right"), is s plus the search of cdf[s:e]. The
cell weights span the grid; the readout tables hold the window rows only.

The state's momentum transform and expected acceptance are computed once
per state, the tables once per site. scan_pointer_protocol is the one
runner: it returns per-(site, Y bin) arrays (ScanResult) of the estimates,
their standard errors and counts, and the exact expectation of the tables.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionError, ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D, momentum_fft, to_momentum

OVERLAP_FLOOR = 1e-12
CHUNK_TRIALS = 1 << 16

QUBIT_IMBALANCE_GAIN = 2.0     # P_D - P_A = GAIN * sin(a) * Re W + O(a^2)
GAUSSIAN_POSITION_GAIN = 1.0   # <q> = GAIN * g * Re w + O(g^2)
GAUSSIAN_MOMENTUM_GAIN = 2.0   # <p> = GAIN * sigma_p^2 * g * Im w + O(g^2)


def _denominator_scale(psi: WaveFunction1D) -> float:
    tilde = to_momentum(psi)
    return float(np.sqrt(2.0 * np.pi) * np.max(np.abs(tilde.amplitudes)))


def weak_value_scan(psi: WaveFunction1D, p_x: float = 0.0) -> np.ndarray:
    """exp(-i p_x x) psi(x) / <p_x|psi> over the whole grid.

    At p_x = 0 the scan is proportional to psi itself.
    """
    ramped = np.exp(-1j * p_x * psi.grid.points) * psi.amplitudes
    den = complex(np.sum(ramped) * psi.grid.dx)  # <p_x|psi>
    scale = _denominator_scale(psi)
    if scale == 0.0 or abs(den) < OVERLAP_FLOOR * scale:
        raise PostSelectionError(f"momentum amplitude at p={p_x} below floor")
    return ramped / den


@dataclass(frozen=True)
class PointerProtocol:
    """Knobs of the pointer-coupling run.

    coupling: g in the impulsive system-pointer coupling.
    pointer_width: qubit model -> readout scale (alpha = g/(dx*scale));
        gaussian model -> position spread sigma_q of the pointer mode.
    p_x_bin: half-width of the accepted momentum window (None: 1.5 * dp).
    y_bins: bin count (uniform over the Y domain) or explicit edges.
    """

    coupling: float
    n_trials: int
    seed: int = 0
    pointer_width: float = 1.0
    p_x_bin: float = None
    y_bins: object = 16
    pointer_model: str = "qubit"

    def __post_init__(self):
        if not (0 < self.coupling < np.inf and 0 < self.pointer_width < np.inf):
            raise ValidationError(
                "coupling and pointer_width must be positive and finite")
        if self.n_trials <= 0:
            raise ValidationError("n_trials must be positive")
        if self.pointer_model not in ("qubit", "gaussian"):
            raise ValidationError(f"unknown pointer model {self.pointer_model!r}")

    def weakness_ratio(self, grid: Grid1D) -> float:
        """g * ||A|| / sigma_p with ||A|| = 1/dx for the cell projector density."""
        if self.pointer_model == "qubit":
            return self.coupling / (grid.dx * self.pointer_width)
        sigma_p = 1.0 / (2.0 * self.pointer_width)
        return self.coupling / (grid.dx * sigma_p)


@dataclass(frozen=True)
class ScanResult:
    """Per-(site, Y bin) arrays of a scan. estimate, se and expectation have
    shape (n_sites, n_bins, 2) with (re, im) on the last axis; expectation
    is the estimates' infinite-trial limit, NaN where a bin has no accepted
    mass. counts holds the trials (n_re, n_im) of each bin; a bin is empty,
    with NaN estimate and se, when either basis has no trial."""

    sites: np.ndarray              # resolved grid indexes
    acceptance_rate: np.ndarray    # per site, inside the momentum window
    acceptance_expected: float
    estimate: np.ndarray
    se: np.ndarray
    expectation: np.ndarray
    counts: np.ndarray
    empty: np.ndarray              # (n_sites, n_bins)


class _Cells:
    """The (p, Y) cell grid of a run: the momentum window |p| < window (the
    row range `rows`, the flat cell range `flat`), Y bins and cell measure.
    A lone particle (gy None) has one Y cell."""

    def __init__(self, gx, gy, window, y_bins):
        pgrid = gx.conjugate()
        self.gx, self.gy = gx, gy
        self.p_values = pgrid.points
        self.window = window if window is not None else 1.5 * pgrid.dx
        self.win_p = np.abs(self.p_values) < self.window
        first = int(np.argmax(self.win_p))   # 0 if the window is empty
        self.rows = slice(first, first + int(self.win_p.sum()))
        self.measure = pgrid.dx / (2.0 * np.pi)
        if gy is None:
            self.y_edges = np.array([0.0, 1.0])
            self.bin_of_y = np.zeros(1, dtype=int)
        else:
            self.measure *= gy.dx
            if np.isscalar(y_bins):
                edges = np.linspace(gy.x_min, gy.x_max, int(y_bins) + 1)
            else:
                edges = np.asarray(y_bins, dtype=float)
                if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
                    raise ValidationError("y_bins edges must be increasing")
            self.y_edges = edges
            idx = np.searchsorted(edges, gy.points, side="right") - 1
            idx[gy.points >= edges[-1]] = -1
            self.bin_of_y = idx
        self.n_y = self.bin_of_y.size
        self.flat = slice(self.rows.start * self.n_y, self.rows.stop * self.n_y)
        self.n_bins = self.y_edges.size - 1


class _CouplingTables:
    """Exact per-(p cell, Y cell) statistics of a coupled, post-selected run.

    The pointer models below reduce the coupled state's momentum-space
    branches (n_p, n_y) to cell weights nu on the whole grid, whose
    distribution and CDF this base holds, and to the expected (re, im)
    readings `means` on the window rows. Each model adds `gains`, which turn
    pooled readings into weak-value estimates, and readout(rng, cells,
    basis, u_read), which draws readings in window cells (flat indexes into
    the window rows). Tables from _site_tables also carry the site index.
    """

    def __init__(self, cells: _Cells, nu):
        self.cells = cells
        raw = nu * cells.measure
        self.total = raw.sum()
        self.cell_probs = raw / self.total
        self.cdf = np.cumsum(self.cell_probs.ravel())
        self.cdf /= self.cdf[-1]

    def pooled(self) -> np.ndarray:
        """Expected (re, im) reading over each Y bin's accepted cells, shape
        (n_bins, 2); NaN where a bin has no accepted mass. The sums run over
        the whole grid (zero outside the window rows)."""
        c = self.cells
        probs = self.cell_probs * c.win_p[:, None]
        means = np.zeros((2,) + probs.shape)
        means[:, c.rows] = self.means
        out = np.full((c.n_bins, 2), np.nan)
        for b in range(c.n_bins):
            cols = c.bin_of_y == b
            p = probs[:, cols]
            mass = p.sum()
            if mass > 0:
                out[b] = [(p * m).sum() / mass for m in means[:, :, cols]]
        return out

    def expectation(self) -> np.ndarray:
        """Infinite-trial limit of the (re, im) bin estimates, shape
        (n_bins, 2); NaN where a bin has no accepted mass."""
        return self.pooled() / self.gains


class _QubitTables(_CouplingTables):
    """Qubit pointer with ancilla branches uH, uV; reads +-1 in D/A or L/R
    with gain QUBIT_IMBALANCE_GAIN dx sin(alpha), 0 without coupling (then
    only the tables themselves are meaningful)."""

    def __init__(self, cells, uH, uV, alpha):
        nu = np.abs(uH) ** 2 + np.abs(uV) ** 2
        super().__init__(cells, nu)
        w = cells.rows
        # the operand order fixes the readings' last bits (numpy's SIMD
        # complex multiply is not bitwise commutative): do not swap it
        cross = np.conj(uV[w]) * uH[w]
        nu = nu[w]
        with np.errstate(invalid="ignore", divide="ignore"):
            safe = np.maximum(nu, 1e-300)
            self.means = (np.where(nu > 0, 2.0 * cross.real / safe, 0.0),
                          np.where(nu > 0, -2.0 * cross.imag / safe, 0.0))
        gain = QUBIT_IMBALANCE_GAIN * cells.gx.dx * np.sin(alpha)
        self.gains = np.array([gain, gain])

    def readout(self, rng, cells, basis, u_read):
        d_re, d_im = self.means
        d = np.where(basis, d_im.ravel()[cells], d_re.ravel()[cells])
        return np.where(u_read < 0.5 * (1.0 + d), 1.0, -1.0)


class _GaussianTables(_CouplingTables):
    """Gaussian pointer shifted by s = g / dx on the coupled share num of the
    uncoupled amplitude den; reads position (re) or momentum (im)."""

    def __init__(self, cells, den, num, proto: PointerProtocol):
        self.sigma_q = proto.pointer_width
        self.sigma_p = 1.0 / (2.0 * self.sigma_q)
        s = self.s = proto.coupling / cells.gx.dx
        damp = np.exp(-(s * self.sigma_p) ** 2 / 2.0)
        rest = den - num
        K = np.conj(rest) * num
        A, B, C = np.abs(rest) ** 2, np.abs(num) ** 2, 2.0 * K.real * damp
        nu = A + B + C
        super().__init__(cells, nu)
        w = cells.rows
        self.A, self.B, self.C, self.rest, self.num = (
            t[w] for t in (A, B, C, rest, num))
        with np.errstate(invalid="ignore", divide="ignore"):
            safe = np.maximum(nu[w], 1e-300)
            self.means = (
                (self.B * s + 0.5 * self.C * s) / safe,
                (2.0 * K[w].imag * s * self.sigma_p**2 * damp) / safe)
        self.gains = np.array([
            GAUSSIAN_POSITION_GAIN * proto.coupling,
            GAUSSIAN_MOMENTUM_GAIN * self.sigma_p**2 * proto.coupling])

    def readout(self, rng, cells, basis, u_read):
        out = np.empty(cells.size)
        pos, mom = cells[~basis], cells[basis]
        out[~basis] = _sample_position_readout(
            rng, self.A.ravel()[pos], self.B.ravel()[pos], self.C.ravel()[pos],
            self.s, self.sigma_q)
        out[basis] = _sample_momentum_readout(
            rng, self.rest.ravel()[mom], self.num.ravel()[mom], self.s,
            self.sigma_p)
        return out


def _state(system, proto: PointerProtocol):
    """The per-state part of a run: (cells, amp, den, acceptance_expected)
    with amp the amplitudes (n_x, n_y), den = momentum_fft(amp) and the
    uncoupled state's probability of landing inside the momentum window."""
    if isinstance(system, WaveFunction1D):
        gx, gy, amp = system.grid, None, system.amplitudes[:, None]
    elif isinstance(system, WaveFunction2D):
        gx, gy, amp = system.grid_x, system.grid_y, system.amplitudes
    else:
        raise ValidationError("system must be a 1-D or 2-D wave function")
    cells = _Cells(gx, gy, proto.p_x_bin, proto.y_bins)
    den = momentum_fft(amp, gx)
    base = np.abs(den) ** 2 * cells.measure
    base /= base.sum()
    return cells, amp, den, float(base[cells.win_p].sum())


def _site_tables(state, A_site, proto: PointerProtocol) -> _CouplingTables:
    """Tables of proto's pointer coupled at A_site (grid index or position)
    of the state that _state prepared."""
    cells, amp, den, _ = state
    gx = cells.gx
    site = A_site if isinstance(A_site, (int, np.integer)) \
        else gx.index_of(float(A_site))
    x_site = gx.points[site]
    num = gx.dx * np.exp(-1j * cells.p_values[:, None] * x_site) \
        * amp[site, None, :]
    if proto.pointer_model == "qubit":
        a = proto.coupling / (gx.dx * proto.pointer_width)
        tab = _QubitTables(cells, den + (np.cos(a) - 1.0) * num,
                           np.sin(a) * num, a)
    else:
        tab = _GaussianTables(cells, den, num, proto)
    tab.site = site
    return tab


def _norm_pdf(q, mean, sigma):
    return np.exp(-((q - mean) ** 2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))


def _sample_position_readout(rng, A, B, C, s, sigma):
    """Exact draws from |(1-W) phi(q) + W phi(q - s)|^2 per trial.

    The density is A*N(0) + B*N(s) + C*N(s/2) (C may be negative); sampling
    is mixture-proposal rejection with envelope A*N(0) + B*N(s) + |C|*N(s/2).
    """
    n = A.size
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        a, b, c = A[todo], B[todo], C[todo]
        absc = np.abs(c)
        u = rng.random(todo.size) * (a + b + absc)
        mean = np.where(u < a, 0.0, np.where(u < a + b, s, 0.5 * s))
        q = rng.normal(mean, sigma)
        accept = np.ones(todo.size, dtype=bool)
        neg = c < 0
        if np.any(neg):
            n0 = _norm_pdf(q[neg], 0.0, sigma)
            ns = _norm_pdf(q[neg], s, sigma)
            nh = _norm_pdf(q[neg], 0.5 * s, sigma)
            target = a[neg] * n0 + b[neg] * ns + c[neg] * nh
            envelope = a[neg] * n0 + b[neg] * ns + absc[neg] * nh
            accept[neg] = rng.random(neg.sum()) * envelope <= target
        out[todo[accept]] = q[accept]
        todo = todo[~accept]
    return out


def _sample_momentum_readout(rng, rest, num, s, sigma_p):
    """Exact draws from N(0, sigma_p^2)(p) |rest + num e^{-i p s}|^2 (normalized)."""
    n = rest.size
    out = np.empty(n)
    todo = np.arange(n)
    bound = (np.abs(rest) + np.abs(num)) ** 2
    while todo.size:
        p = rng.normal(0.0, sigma_p, todo.size)
        f = np.abs(rest[todo] + num[todo] * np.exp(-1j * p * s)) ** 2
        accept = rng.random(todo.size) * bound[todo] <= f
        out[todo[accept]] = p[accept]
        todo = todo[~accept]
    return out


def _window_lookup(cdf: np.ndarray, s: int, e: int, u: np.ndarray):
    """(trials, cells): the u whose searchsorted(cdf, u, side="right") lies
    in the cell range [s, e), and those cells. For a non-decreasing cdf it
    does exactly when cdf[s-1] <= u < cdf[e-1]; only those u are searched.
    """
    lo = cdf[s - 1] if s else 0.0
    hi = cdf[e - 1] if e else 0.0
    trials = np.flatnonzero((lo <= u) & (u < hi))
    return trials, s + np.searchsorted(cdf[s:e], u[trials], side="right")


def _chunk_rng(seed: int, site_index: int, chunk_id: int):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, site_index, chunk_id])))


@dataclass(frozen=True)
class _Chunk:
    """The trials of one chunk: basis of every trial (True: imaginary part),
    the count n_window inside the momentum window, the indexes kept of those
    also in a Y bin, and their cells (flat (p, Y)), bins and readings."""

    basis: np.ndarray
    n_window: int
    kept: np.ndarray
    cells: np.ndarray
    bins: np.ndarray
    reading: np.ndarray


def _draw_chunk(tab: _CouplingTables, seed: int, site_index: int,
                chunk_id: int, n: int) -> _Chunk:
    """n trials from the stream keyed (seed, site_index, chunk_id).

    Draw order: cell uniforms, bases, readout uniforms, then the pointer
    model's readings of the kept trials.
    """
    c = tab.cells
    rng = _chunk_rng(seed, site_index, chunk_id)
    inside, cells = _window_lookup(tab.cdf, c.flat.start, c.flat.stop,
                                   rng.random(n))
    basis = rng.random(n) < 0.5
    u_read = rng.random(n)
    bins = c.bin_of_y[cells % c.n_y]
    in_bin = bins >= 0
    kept, cells = inside[in_bin], cells[in_bin]
    reading = tab.readout(rng, cells - c.flat.start, basis[kept],
                          u_read[kept])
    return _Chunk(basis, inside.size, kept, cells, bins[in_bin], reading)


def _tally(tab: _CouplingTables, n_trials: int, seed: int, site_index: int):
    """Pool n_trials trials of one site's stream, chunk by chunk.

    Returns (n_window, stats): the trials inside the momentum window, and
    for the qubit pointer counts[bin, basis, outcome] (outcome 1 reads +1),
    for the gaussian pointer the count, sum and sum of squares of the
    readings, shape (3, n_bins, 2).
    """
    nb = tab.cells.n_bins
    qubit = isinstance(tab, _QubitTables)
    stats = (np.zeros((nb, 2, 2), dtype=np.int64) if qubit
             else np.zeros((3, nb, 2)))
    n_window = 0
    for chunk_id, done in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        chunk = _draw_chunk(tab, seed, site_index, chunk_id,
                            min(CHUNK_TRIALS, n_trials - done))
        n_window += chunk.n_window
        idx = chunk.bins * 2 + chunk.basis[chunk.kept]
        if qubit:
            stats += np.bincount(idx * 2 + (chunk.reading > 0),
                                 minlength=nb * 4).reshape(nb, 2, 2)
        else:
            powers = (1.0, chunk.reading, chunk.reading**2)
            for row, value in enumerate(powers):
                np.add.at(stats[row].ravel(), idx, value)
    return n_window, stats


def scan_pointer_protocol(system, sites, proto: PointerProtocol) -> ScanResult:
    """Monte-Carlo pointer protocol at each site (grid index or position).

    Per trial: sample the exact joint (momentum cell, Y cell) distribution of
    the coupled state, accept iff |p_x| < window, assign the trial to one of
    the two readout bases, sample the readout, and pool per Y bin. Empty bins
    are flagged, not errors. The per-state work is done once; each site's
    stream is keyed (seed, site, chunk).
    """
    state = _state(system, proto)
    rows = []
    for s in sites:
        tab = _site_tables(state, s, proto)
        n_window, stats = _tally(tab, proto.n_trials, proto.seed, tab.site)
        if isinstance(tab, _QubitTables):
            count = stats.sum(axis=2)
            stats = (count, stats[..., 1] - stats[..., 0], count)
        rows.append((tab.site, n_window, *stats, tab.expectation()))
        gains = tab.gains
        del tab   # one site's tables in memory at a time
    index, n_window, n, total, total_sq, exact = map(np.array, zip(*rows))
    empty = ~n.all(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / n
        var = np.maximum(total_sq / n - mean * mean, 0.0)
        est = mean / gains
        se = np.sqrt(var / n) / gains
    est[empty] = se[empty] = np.nan
    return ScanResult(index, n_window / proto.n_trials, state[3], est, se,
                      exact, n.astype(np.int64), empty)
