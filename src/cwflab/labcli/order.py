"""Operation-ordering study on the two-packet scenario.

The beam splitter is diagonal in the packet coordinate x (it translates the
pointer by a sign that depends only on x), and the weak coupling is a
controlled qubit rotation, also diagonal in x. The two therefore commute:
coupling before or after the splitter yields the same joint statistics of
(momentum window, detected Y, qubit readout). This module builds both
orderings explicitly, checks the induced measurement tables and the exact
post-selected weak values for machine-precision agreement, and runs the
Monte-Carlo arms with identical seeds through weakmeas.tally (both arms'
category laws come from the same tables code and match to roundoff, so the
shared stream draws the same counts).

A third arm reruns the splitter-first ordering with a fresh seed, standing
in for detection planes B and C: statistically indistinguishable Re/Im
readout histograms, tested per bin with a two-sample chi-square.
"""

import numpy as np

from ..errors import ValidationError
from ..qgrid import WaveFunction2D, momentum_fft
from ..states import beam_splitter
from ..stats import chi2_two_sample
from ..weakmeas import (RECORD_FIELDS, Cells, PointerProtocol, QubitTables,
                        ScanState, replay_records, tally)
from .config import ScenarioConfig
from .planes import packet_state, split_at_zero
from .reports import check_record

TABLE_TOL = 1e-12
P_VALUE_MIN = 1e-3


def _route_tables(amp, site_index: int, alpha: float, cells, total: float,
                  split=None):
    """Coupling tables of one operation ordering, plus its whole-grid cell
    probabilities and coherences, all over the state's norm total.

    Route "bs_first" (no split): amp is the split state, coupled at the
    site (the engine's convention); "coupling_first": amp is the state,
    coupled, then each branch is passed through split. Supports alpha = 0
    (no coupling; readout carries no signal). The coherences uH conj(uV)
    are normalized like the cell probabilities; the readout ratios blow
    roundoff up on negligible-mass cells, so the operator identity is
    checked on these instead.
    """
    h = amp.copy()
    h[site_index, :] *= np.cos(alpha)
    v = np.zeros_like(amp)
    v[site_index, :] = np.sin(alpha) * amp[site_index, :]
    if split is not None:
        h, v = split(h), split(v)
    uH, uV = momentum_fft(h, cells.gx), momentum_fft(v, cells.gx)
    tab = QubitTables(cells, uH[cells.rows], uV[cells.rows], alpha, total)
    scale = cells.measure / total
    return (tab, (np.abs(uH) ** 2 + np.abs(uV) ** 2) * scale,
            uH * np.conj(uV) * scale)


def _arm_counts(tab, n_trials: int, seed: int, site: int) -> np.ndarray:
    """One Monte-Carlo arm's counts[bin, basis, outcome]."""
    counts = tally(tab, n_trials, seed, site)[0]
    return counts[:-2].reshape(-1, 2, 2)


def run_order_invariance(cfg: ScenarioConfig) -> dict:
    """Both orderings: table identity, exact weak values, seeded MC arms."""
    st, pr = cfg.state, cfg.protocol
    gx, gy, psi, _, _ = packet_state(cfg)
    # the bs_first route and the records share one split of the state; the
    # coupling_first route splits its coupled branches, the commutation check
    psi_split = beam_splitter(psi, st["bs_shift"])

    def split(amp):
        return beam_splitter(WaveFunction2D(gx, gy, amp),
                             st["bs_shift"]).amplitudes

    alpha = pr["coupling"] / (gx.dx * pr["pointer_width"])
    degenerate = pr["coupling"] == 0.0
    dp = gx.conjugate().dx
    window = pr["p_x_window_dp"] * dp
    y_edges = split_at_zero(gy)
    for x in pr["sites"]:
        if not gx.x_min <= x < gx.x_max:
            raise ValidationError(
                f"config.protocol.sites: x = {x:g} outside the x grid "
                f"[{gx.x_min:g}, {gx.x_max:g})")
    site_indices = [int(gx.index_of(float(x))) for x in pr["sites"]]
    cells = Cells(gx, gy, window, y_edges)
    # the state's norm, which neither the coupling nor the splitter moves
    total = float((np.abs(momentum_fft(psi.amplitudes, gx)) ** 2).sum()
                  * cells.measure)

    table_dev = 0.0
    wv_dev = 0.0
    exact_rows = []
    mc_rows = []
    planes_rows = []
    checks = []
    all_equal = True
    for k, site in enumerate(site_indices):
        x_site = float(gx.points[site])
        t1, p1, x1 = _route_tables(psi_split.amplitudes, site, alpha, cells,
                                   total)
        t2, p2, x2 = _route_tables(psi.amplitudes, site, alpha, cells, total,
                                   split)
        table_dev = max(table_dev, float(np.abs(p1 - p2).max()),
                        float(np.abs(x1 - x2).max()))

        e1, e2 = t1.pooled(), t2.pooled()
        wv_dev = max(wv_dev, float(np.nanmax(np.abs(e1 - e2))))
        if not degenerate:
            e1, e2 = e1 / t1.gains, e2 / t1.gains
        for b in range(cells.n_bins):
            exact_rows.append({
                "x_site": x_site, "bin": b,
                "route_bs_first": {"re": float(e1[b, 0]),
                                   "im": float(e1[b, 1])},
                "route_coupling_first": {"re": float(e2[b, 0]),
                                         "im": float(e2[b, 1])}})

        c1 = _arm_counts(t1, cfg.n_trials, cfg.seed, site)
        c2 = _arm_counts(t2, cfg.n_trials, cfg.seed, site)
        for b in range(cells.n_bins):
            h1 = c1[b].ravel()
            h2 = c2[b].ravel()
            test = chi2_two_sample(h1, h2)
            equal = bool((h1 == h2).all())
            all_equal &= equal
            mc_rows.append({
                "x_site": x_site, "bin": b,
                "counts_bs_first": [int(v) for v in h1],
                "counts_coupling_first": [int(v) for v in h2],
                "identical": equal,
                "chi2": test["chi2"], "p_value": test["p_value"]})
            checks.append(check_record(f"mc_site{k}_bin{b}",
                                       p_value=test["p_value"],
                                       minimum=P_VALUE_MIN))

        c3 = _arm_counts(t1, cfg.n_trials, cfg.seed + 1, site)
        for b in range(cells.n_bins):
            test = chi2_two_sample(c1[b].ravel(), c3[b].ravel())
            planes_rows.append({
                "x_site": x_site, "bin": b,
                "chi2": test["chi2"], "p_value": test["p_value"]})
            checks.append(check_record(f"planes_b_vs_c_site{k}_bin{b}",
                                       p_value=test["p_value"],
                                       minimum=P_VALUE_MIN))

    checks = [check_record("table_identity", max_deviation=table_dev,
                           tol=TABLE_TOL),
              check_record("exact_weak_values", max_deviation=wv_dev,
                           tol=TABLE_TOL),
              *checks]

    records = {name: [] for name in RECORD_FIELDS}
    if not degenerate:
        proto = PointerProtocol(
            coupling=pr["coupling"], n_trials=cfg.n_trials, seed=cfg.seed,
            pointer_width=pr["pointer_width"])
        state = ScanState(psi_split, window, y_edges)
        records = replay_records(state, site_indices[0], proto,
                                 cfg.report["records_cap"])

    report = {
        "degenerate_no_coupling": degenerate,
        "alpha": float(alpha),
        "identical_seeds": True,
        "exact_weak_values": {"rows": exact_rows},
        "mc_comparison": {"n_trials_per_arm": cfg.n_trials, "rows": mc_rows,
                          "all_counts_identical": bool(all_equal)},
        "planes_b_vs_c": {"rows": planes_rows},
        "checks": checks,
    }
    return {"report": report, "records": records, "wf_tables": {}}
