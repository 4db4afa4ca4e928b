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
faithful at every coupling strength, not only to first order. Randomness
is counter-based (Philox) keyed by (seed, site, chunk) with a fixed chunk
size, so results do not depend on how chunks are spread over workers.

The estimators need counts, not trials: each chunk is one multinomial
draw (tally) over categories whose probabilities the coupling tables sum
once per site. They are (Y bin, basis, outcome) for the qubit pointer and
(window cell in a Y bin, basis) for the gaussian pointer, which then draws
its window trials' readings from two rejection samplers; the last two
categories are "in the window but in no Y bin" and "outside the window".
A qubit chunk thus costs O(categories) whatever its trial count. The
tables hold the momentum-window rows only; their normaliser `total` is the
state's norm, sum |den|^2 * measure, which the coupled cell weights also
sum to over the whole grid (the coupling is unitary; Parseval).

The per-trial records (replay_records) are a view of chunk 0's draw: its
category labels expanded and permuted with the chunk's rng, each record's
cell drawn from its category's cell weights. Only cells outside the window
need whole-grid weights, built for the one record site. Scans, all three
arms of labcli.order and the records share this draw. The one runner,
scan_pointer_protocol, returns per-(site, Y bin) arrays (ScanResult) and
the ScanState it prepared, which the records reuse.

The public surface: weak_value_scan, PointerProtocol, Cells, ScanState,
QubitTables, site_tables, tally, replay_records, RECORD_FIELDS,
scan_pointer_protocol and ScanResult; the three gain constants and
CHUNK_TRIALS. Other names may change without notice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PostSelectionError, ValidationError
from .qgrid import Grid1D, WaveFunction1D, WaveFunction2D, momentum_fft, to_momentum
from .stats import draw_cells, stream

OVERLAP_FLOOR = 1e-12
CHUNK_TRIALS = 1 << 16

QUBIT_IMBALANCE_GAIN = 2.0     # P_D - P_A = GAIN * sin(a) * Re W + O(a^2)
GAUSSIAN_POSITION_GAIN = 1.0   # <q> = GAIN * g * Re w + O(g^2)
GAUSSIAN_MOMENTUM_GAIN = 2.0   # <p> = GAIN * sigma_p^2 * g * Im w + O(g^2)


def weak_value_scan(psi: WaveFunction1D, p_x: float = 0.0) -> np.ndarray:
    """exp(-i p_x x) psi(x) / <p_x|psi> over the whole grid.

    At p_x = 0 the scan is proportional to psi itself.
    """
    ramped = np.exp(-1j * p_x * psi.grid.points) * psi.amplitudes
    den = complex(np.sum(ramped) * psi.grid.dx)  # <p_x|psi>
    scale = float(np.sqrt(2.0 * np.pi)
                  * np.max(np.abs(to_momentum(psi).amplitudes)))
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
    y_bins: increasing Y bin edges; a two-particle run needs them.
    """

    coupling: float
    n_trials: int
    seed: int = 0
    pointer_width: float = 1.0
    p_x_bin: float = None
    y_bins: object = None
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
    estimate: np.ndarray
    se: np.ndarray
    expectation: np.ndarray
    counts: np.ndarray
    empty: np.ndarray              # (n_sites, n_bins)
    state: "ScanState"             # the scanned state, for replay_records


class Cells:
    """The (p, Y) cell grid of a run: the momentum window |p| < window (the
    row range `rows`), the Y bins between y_edges and the cell measure. A
    lone particle (gy None) has one Y cell and ignores y_edges."""

    def __init__(self, gx, gy, window, y_edges):
        pgrid = gx.conjugate()
        self.gx, self.gy = gx, gy
        self.p_values = pgrid.points
        window = window if window is not None else 1.5 * pgrid.dx
        self.win_p = np.abs(self.p_values) < window
        first = int(np.argmax(self.win_p))   # 0 if the window is empty
        self.rows = slice(first, first + int(self.win_p.sum()))
        self.measure = pgrid.dx / (2.0 * np.pi)
        if gy is None:
            self.bin_of_y, self.n_bins = np.zeros(1, dtype=int), 1
        else:
            self.measure *= gy.dx
            edges = np.asarray(y_edges, dtype=float)
            if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
                raise ValidationError("y_bins edges must be increasing")
            self.n_bins = edges.size - 1
            self.bin_of_y = np.where(gy.points < edges[-1], np.searchsorted(
                edges, gy.points, side="right") - 1, -1)
        self.n_y = self.bin_of_y.size


class _CouplingTables:
    """Exact per-(p cell, Y cell) statistics of one coupled site on the
    momentum-window rows.

    A pointer model gives cell weights nu and nu times the expected (re, im)
    reading, (rows, n_y) each; over the norm `total` they become the cell
    probabilities q and qm. `kept` lists the flat cells in a Y bin, `sums`
    the per-bin sums of q and qm. Each model adds `gains` (reading per weak
    value), `kappa` (nu = |den|^2 - 2 kappa (Re(conj(den) num) - |num|^2)),
    `probs` (the chunk draw's category law), draw_cells(cat, u) (cells and
    bases of window trials of categories cat), readings(rng, drawn) (the
    window trials' readings in category order) and moments(rng, drawn)
    (their count, sum and sum of squares per (bin, basis)).
    """

    def __init__(self, cells: Cells, nu, weighted, total: float):
        self.cells = cells
        scale = cells.measure / total
        self.q, self.qm = nu * scale, weighted * scale
        self.kept = np.flatnonzero(np.tile(cells.bin_of_y >= 0, nu.shape[0]))
        self.bin_of_kept = cells.bin_of_y[self.kept % cells.n_y]
        self.sums = np.array([
            np.bincount(self.bin_of_kept, weights=x.ravel()[self.kept],
                        minlength=cells.n_bins) for x in (self.q, *self.qm)])
        col = self.q.sum(axis=0)
        self.tail = [col[cells.bin_of_y < 0].sum(), max(1.0 - col.sum(), 0.0)]

    def pooled(self) -> np.ndarray:
        """Expected (re, im) reading over each Y bin's accepted cells, shape
        (n_bins, 2), NaN where a bin has no accepted mass; over the gains,
        the infinite-trial limit of the bin estimates."""
        mass, *m = self.sums
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mass > 0, np.array(m) / mass, np.nan).T


class QubitTables(_CouplingTables):
    """Qubit pointer at rotation alpha with window-row ancilla branches uH,
    uV; reads +-1 in D/A or L/R with gain QUBIT_IMBALANCE_GAIN dx sin(alpha),
    0 without coupling (then only the tables themselves are meaningful).
    Category 4 bin + 2 basis + outcome (outcome 1 reads +1) has probability
    (Q -+ M) / 4, with Q the bin's mass and M its sum of q * reading."""

    def __init__(self, cells, uH, uV, alpha, total):
        # the operand order fixes the readings' last bits (numpy's SIMD
        # complex multiply is not bitwise commutative): do not swap it
        cross = np.conj(uV) * uH
        super().__init__(cells, np.abs(uH) ** 2 + np.abs(uV) ** 2,
                         np.array([2.0 * cross.real, -2.0 * cross.imag]),
                         total)
        gain = QUBIT_IMBALANCE_GAIN * cells.gx.dx * np.sin(alpha)
        self.kappa = 1.0 - np.cos(alpha)
        self.gains = np.array([gain, gain])
        mass, *m = self.sums
        p = 0.25 * (mass[:, None, None]
                    + np.multiply.outer(np.array(m).T, [-1.0, 1.0]))
        self.probs = np.append(np.maximum(p, 0.0), self.tail)

    def draw_cells(self, cat, u):
        cells = np.empty(cat.size, dtype=int)
        for k in np.unique(cat):
            b, basis, sign = k // 4, k // 2 % 2, 2 * (k % 2) - 1
            w = (self.q + sign * self.qm[basis]) * (self.cells.bin_of_y == b)
            cells[cat == k] = draw_cells(np.maximum(w, 0.0), u[cat == k])
        return cells, cat // 2 % 2 == 1

    def readings(self, rng, drawn):
        return np.repeat(np.resize([-1.0, 1.0], drawn.size - 2), drawn[:-2])

    def moments(self, rng, drawn):
        c = drawn[:-2].reshape(-1, 2)
        n = c.sum(axis=1)
        return np.array([n, c[:, 1] - c[:, 0], n], dtype=float)


class _GaussianTables(_CouplingTables):
    """Gaussian pointer shifted by s = g / dx on the coupled share num of the
    uncoupled amplitude den; reads position (re) or momentum (im). Category
    2 j + basis, probability q / 2, is kept cell j read in that basis."""

    def __init__(self, cells, den, num, proto: PointerProtocol, total):
        self.sigma_q = proto.pointer_width
        self.sigma_p = 0.5 / proto.pointer_width
        s = self.s = proto.coupling / cells.gx.dx
        damp = np.exp(-(s * self.sigma_p) ** 2 / 2.0)
        self.kappa = 1.0 - damp
        rest = den - num
        K = np.conj(rest) * num
        A, B, C = np.abs(rest) ** 2, np.abs(num) ** 2, 2.0 * K.real * damp
        super().__init__(cells, A + B + C, np.array([
            B * s + 0.5 * C * s, 2.0 * K.imag * s * self.sigma_p**2 * damp]),
            total)
        self.A, self.B, self.C, self.rest, self.num = (
            t.ravel()[self.kept] for t in (A, B, C, rest, num))
        self.slot = 2 * self.bin_of_kept[:, None] + np.array([0, 1])
        self.probs = np.append(np.repeat(0.5 * self.q.ravel()[self.kept], 2),
                               self.tail)
        self.gains = np.array([
            GAUSSIAN_POSITION_GAIN * proto.coupling,
            GAUSSIAN_MOMENTUM_GAIN * self.sigma_p**2 * proto.coupling])

    def draw_cells(self, cat, u):
        return self.kept[cat // 2], cat % 2 == 1

    def readings(self, rng, drawn):
        """Exact draws, by rejection, from the position density
        A N(0) + B N(s) + C N(s/2) (envelope: |C| for C) and from the
        momentum density N(0, sigma_p^2)(p) |rest + num e^{-i p s}|^2."""
        cat = np.repeat(np.arange(drawn.size - 2), drawn[:-2])
        j, mom = cat // 2, cat % 2 == 1
        A, B, C, s = self.A, self.B, self.C, self.s
        out = np.empty(cat.size)

        def mixture(t):
            u = rng.random(t.size) * (A[t] + B[t] + np.abs(C[t]))
            return rng.normal(np.where(u < A[t], 0.0, np.where(
                u < A[t] + B[t], s, 0.5 * s)), self.sigma_q)

        def mixture_ratio(t, q):
            n0, ns, nh = (np.exp(-((q - mu) / self.sigma_q) ** 2 / 2.0)
                          for mu in (0.0, s, 0.5 * s))
            envelope = A[t] * n0 + B[t] * ns + np.abs(C[t]) * nh
            return 1.0 + (C[t] - np.abs(C[t])) * nh / envelope

        out[~mom] = _rejection(rng, j[~mom], mixture, mixture_ratio)
        rest, num = self.rest, self.num
        bound = (np.abs(rest) + np.abs(num)) ** 2
        out[mom] = _rejection(
            rng, j[mom], lambda t: rng.normal(0.0, self.sigma_p, t.size),
            lambda t, p: np.abs(rest[t] + num[t] * np.exp(-1j * p * s)) ** 2
            / bound[t])
        return out

    def moments(self, rng, drawn):
        slots = np.repeat(self.slot.ravel(), drawn[:-2])
        r = self.readings(rng, drawn)
        n = 2 * self.cells.n_bins
        return np.array([np.bincount(slots, weights=w, minlength=n)
                         for w in (np.ones_like(r), r, r * r)])


def _rejection(rng, cells, propose, ratio):
    """One exact draw per entry of cells: propose(t) draws candidates for
    cells t, accepted with probability ratio(t, x) (target / envelope)."""
    out = np.empty(cells.size)
    todo = np.arange(cells.size)
    while todo.size:
        x = propose(cells[todo])
        ok = rng.random(todo.size) <= ratio(cells[todo], x)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    return out


class ScanState(Cells):
    """The per-state part of a run: its Cells plus amp, the amplitudes
    (n_x, n_y); den = momentum_fft(amp); total, the state's norm
    sum |den|^2 * measure; and acceptance, the uncoupled state's
    probability of landing inside the momentum window."""

    def __init__(self, system, window, y_edges):
        if isinstance(system, WaveFunction1D):
            gx, gy, amp = system.grid, None, system.amplitudes[:, None]
        elif isinstance(system, WaveFunction2D):
            gx, gy, amp = system.grid_x, system.grid_y, system.amplitudes
        else:
            raise ValidationError("system must be a 1-D or 2-D wave function")
        super().__init__(gx, gy, window, y_edges)
        self.amp = amp
        self.den = momentum_fft(amp, gx)
        base = np.abs(self.den) ** 2 * self.measure
        total = base.sum()
        base /= total
        self.total = float(total)
        self.acceptance = float(base[self.win_p].sum())


def site_tables(state: ScanState, A_site, proto: PointerProtocol):
    """Tables of proto's pointer coupled at A_site (grid index or position)
    of state."""
    gx, rows = state.gx, state.rows
    site = A_site if isinstance(A_site, (int, np.integer)) \
        else gx.index_of(float(A_site))
    x_site = gx.points[site]
    num = gx.dx * np.exp(-1j * state.p_values[rows, None] * x_site) \
        * state.amp[site, None, :]
    den = state.den[rows]
    if proto.pointer_model == "qubit":
        a = proto.coupling / (gx.dx * proto.pointer_width)
        tab = QubitTables(state, den + (np.cos(a) - 1.0) * num,
                          np.sin(a) * num, a, state.total)
    else:
        tab = _GaussianTables(state, den, num, proto, state.total)
    tab.site = site
    return tab


def tally(tab: _CouplingTables, n_trials: int, seed: int, site_index: int):
    """Pool n_trials trials of one site's stream, one count draw per chunk.

    Chunk k draws, from the stream keyed (seed, site_index, k), one
    multinomial of its trials over tab.probs, then the readings of its
    window trials. Returns (counts, moments): the category counts summed
    over chunks (for the qubit pointer counts[:-2] reshape to [bin, basis,
    outcome]), and the readings' count, sum and sum of squares per
    (Y bin, basis), shape (3, n_bins, 2).
    """
    counts = np.zeros(tab.probs.size, dtype=np.int64)
    moments = np.zeros((3, 2 * tab.cells.n_bins))
    for chunk_id, done in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        rng = stream(seed, site_index, chunk_id)
        drawn = rng.multinomial(min(CHUNK_TRIALS, n_trials - done), tab.probs)
        counts += drawn
        moments += tab.moments(rng, drawn)
    return counts, moments.reshape(3, -1, 2)


# Columns of the per-trial records: trial index, accepted (inside the
# momentum window and a Y bin), the trial's p_x and Y cell, its Y bin
# (-1: none), readout basis ("re" or "im") and reading (None if rejected).
RECORD_FIELDS = ("trial", "accepted", "p_x", "y", "y_bin", "basis", "outcome")


def replay_records(state: ScanState, site_index: int,
                   proto: PointerProtocol, cap: int) -> dict:
    """Columns of RECORD_FIELDS for the first min(n_trials, cap) trials of
    chunk 0 of one site's run on state: a view of tally's draw of that
    chunk.

    The chunk's category labels, expanded and permuted with its rng, give
    the trials in order; each then draws a uniform for its cell within its
    category and one for its basis where the category has none. Only the
    cells outside the window need whole-grid weights.
    """
    tab = site_tables(state, site_index, proto)
    c = state
    if c.gy is None:
        raise ValidationError("trial records need a two-particle system")
    n = min(CHUNK_TRIALS, proto.n_trials)
    m = min(n, cap)
    rng = stream(proto.seed, tab.site, 0)
    drawn = rng.multinomial(n, tab.probs)
    values = tab.readings(rng, drawn)
    order = rng.permutation(n)[:m]
    cat = np.repeat(np.arange(drawn.size), drawn)[order]
    u = rng.random((m, 2))
    basis, cell = u[:, 1] < 0.5, np.empty(m, dtype=int)
    win, no_bin, out = (cat < drawn.size - 2, cat == drawn.size - 2,
                        cat == drawn.size - 1)
    cell[win], basis[win] = tab.draw_cells(cat[win], u[win, 0])
    if no_bin.any():
        cell[no_bin] = draw_cells(tab.q * (c.bin_of_y < 0), u[no_bin, 0])
    cell[~out] += c.rows.start * c.n_y
    if out.any():
        amp, den = c.amp, c.den
        num = c.gx.dx * np.outer(np.exp(-1j * c.p_values
                                        * c.gx.points[tab.site]), amp[tab.site])
        w = np.maximum(np.abs(den) ** 2 - 2.0 * tab.kappa * (
            (np.conj(den) * num).real - np.abs(num) ** 2), 0.0)
        w[c.rows] = 0.0
        cell[out] = draw_cells(w, u[out, 0])
    p_idx, y_idx = np.divmod(cell, c.n_y)
    accepted = order < values.size
    outcome = np.full(m, None, dtype=object)
    outcome[accepted] = values[order[accepted]].tolist()
    return dict(zip(RECORD_FIELDS, (
        np.arange(m), accepted, c.p_values[p_idx], c.gy.points[y_idx],
        c.bin_of_y[y_idx], np.where(basis, "im", "re"), outcome)))


def scan_pointer_protocol(system, sites, proto: PointerProtocol) -> ScanResult:
    """Monte-Carlo pointer protocol at each site (grid index or position).

    Per trial: sample the exact joint (momentum cell, Y cell) distribution of
    the coupled state, accept iff |p_x| < window, assign the trial to one of
    the two readout bases, sample the readout, and pool per Y bin; tally
    draws these trials as counts. Empty bins are flagged, not errors.
    """
    state = ScanState(system, proto.p_x_bin, proto.y_bins)
    rows = []
    for s in sites:
        tab = site_tables(state, s, proto)
        counts, moments = tally(tab, proto.n_trials, proto.seed, tab.site)
        rows.append((tab.site, proto.n_trials - counts[-1], *moments,
                     tab.pooled() / tab.gains))
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
    return ScanResult(index, n_window / proto.n_trials, est, se, exact,
                      n.astype(np.int64), empty, state)
