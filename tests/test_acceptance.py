"""End-to-end acceptance checks for the whole laboratory.

Each test covers one headline guarantee and prints a single PASS/FAIL line
with the measured figure of merit, so `pytest -s` reads as a scorecard.
Wall-clock budgets are asserted alongside the numerical tolerances.
"""

import time

import numpy as np

from conftest import random_state_1d, random_state_2d
from cwflab import bohm, polar, weakmeas
from cwflab.labcli import cli, selftest
from cwflab.labcli.config import parse_config
from cwflab.labcli.density import run_density_dm
from cwflab.qgrid import Grid1D, conditional_slice
from cwflab.states import beam_splitter, gaussian_1d, two_branch_state


def _line(name: str, ok: bool, detail: str, t0: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} "
          f"[{time.time() - t0:.2f}s]")


def _scan_deviation(scan, target):
    # one global constant fixed at the target's largest amplitude
    j = int(np.argmax(np.abs(target)))
    const = scan[j] / target[j]
    return float(np.abs(scan - const * target).max() / np.abs(scan).max())


def test_pure_scan_identity():
    t0 = time.time()
    grid = Grid1D(-16.0, 16.0, 256)
    dev = 0.0
    for psi in (gaussian_1d(grid, 0.0, 1.0, k0=0.4),
                random_state_1d(grid, seed=3)):
        scan = weakmeas.weak_value_scan(psi)
        dev = max(dev, _scan_deviation(scan, psi.amplitudes))
    elapsed = time.time() - t0
    ok = dev < 1e-9 and elapsed < 1.0
    _line("pure-state scan identity", ok,
          f"max rel dev {dev:.2e} (tol 1e-9)", t0)
    assert dev < 1e-9
    assert elapsed < 1.0


def test_conditional_scan_identity():
    t0 = time.time()
    gx = Grid1D(-8.0, 8.0, 256)
    gy = Grid1D(-8.0, 8.0, 256)
    psi = beam_splitter(two_branch_state(gx, gy, 6.0, 0.5, 0.7), 2.5)
    rho_y = psi.density().sum(axis=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(23)))
    ys = rng.choice(gy.points, size=100, p=rho_y / rho_y.sum())
    dev = 0.0
    for y in ys:
        slc = conditional_slice(psi, float(y))
        scan = weakmeas.weak_value_scan(slc, 0.0)
        dev = max(dev, _scan_deviation(scan, slc.amplitudes))
    elapsed = time.time() - t0
    ok = dev < 1e-9 and elapsed < 10.0
    _line("conditional-slice scan identity", ok,
          f"max rel dev over 100 draws {dev:.2e} (tol 1e-9)", t0)
    assert dev < 1e-9
    assert elapsed < 10.0


def test_monte_carlo_convergence():
    t0 = time.time()
    grid = Grid1D(-16.0, 16.0, 256)
    pure = gaussian_1d(grid, 0.0, 1.0, k0=0.4)
    wv = weakmeas.weak_value_scan(pure)
    sites = (0.0, 0.5, -1.0)

    # pure state: sampled readout against the analytic weak value
    proto = weakmeas.PointerProtocol(coupling=0.02, n_trials=1_000_000,
                                     seed=5, pointer_width=1.0)
    res = weakmeas.scan_pointer_protocol(pure, sites, proto)
    w = wv[res.sites]
    z_pure = float(np.max(np.abs(
        res.estimate[:, 0] - np.column_stack([w.real, w.imag]))
        / res.se[:, 0]))

    # entangled planes state: per-bin readout against the vanishing-coupling
    # expectation, which is the bin-pooled weak value computed exactly
    gx = Grid1D(-8.0, 8.0, 256)
    gy = Grid1D(-8.0, 8.0, 256)
    planes = beam_splitter(two_branch_state(gx, gy, 6.0, 0.5, 0.7), 2.5)
    dp = gx.conjugate().dx
    edges = [gy.x_min, 0.0, gy.x_max]
    pairs = [(3.0, 1), (2.5, 1), (-3.0, 0), (-2.5, 0)]  # site, own branch bin
    kw = dict(pointer_width=0.5, p_x_bin=0.5 * dp, y_bins=edges)
    xs, own = zip(*pairs)
    exact = weakmeas.scan_pointer_protocol(
        planes, xs, weakmeas.PointerProtocol(coupling=1e-6, n_trials=1,
                                             **kw)).expectation
    res = weakmeas.scan_pointer_protocol(
        planes, xs, weakmeas.PointerProtocol(coupling=0.02,
                                             n_trials=1_000_000, seed=2, **kw))
    k = np.arange(len(pairs)), list(own)
    z_planes = float(np.max(np.abs(res.estimate[k] - exact[k]) / res.se[k]))

    # bias growth across one coupling doubling, on the exact expectation
    # path (Monte-Carlo noise at feasible N would bury a 1e-2 shift); the
    # smooth-pointer model keeps the readout linearization error visible
    def bias(g):
        p = weakmeas.PointerProtocol(coupling=g, n_trials=1,
                                     pointer_model="gaussian",
                                     pointer_width=1.0)
        res = weakmeas.scan_pointer_protocol(pure, sites, p)
        return float(np.max(np.abs(res.expectation.view(complex)[:, 0, 0]
                                   - wv[res.sites])))

    ratio = bias(0.08) / bias(0.04)

    elapsed = time.time() - t0
    ok = z_pure < 3.0 and z_planes < 3.0 and 1.5 < ratio < 2.5 \
        and elapsed < 600.0
    _line("Monte-Carlo readout convergence", ok,
          f"worst z pure {z_pure:.2f}, planes {z_planes:.2f} (< 3 SE); "
          f"bias doubling ratio {ratio:.2f} (in [1.5, 2.5])", t0)
    assert z_pure < 3.0
    assert z_planes < 3.0
    assert 1.5 < ratio < 2.5
    assert elapsed < 600.0


def test_monte_carlo_bias_doubling():
    """The O(g^2) estimator bias, resolved by Monte Carlo at 1e9 trials per
    site. Post-selecting p = 0 in the tail of a packet moving at k0 = 1.75
    amplifies the weak value, and with it the bias, far above the noise."""
    t0 = time.time()
    grid = Grid1D(-16.0, 16.0, 256)
    psi = gaussian_1d(grid, 0.0, 1.0, k0=1.75)
    kw = dict(pointer_width=1.0, p_x_bin=0.5 * grid.conjugate().dx)
    site = [0.5]
    # the vanishing-coupling limit: the window's weak value, computed exactly
    ref = weakmeas.scan_pointer_protocol(
        psi, site, weakmeas.PointerProtocol(coupling=1e-6, n_trials=1, **kw)
    ).expectation.view(complex)[0, 0, 0]
    bias, z_exact, z_bias = [], [], []
    for g in (0.06, 0.12):
        res = weakmeas.scan_pointer_protocol(
            psi, site, weakmeas.PointerProtocol(
                coupling=g, n_trials=1_000_000_000, seed=8, **kw))
        est, se = res.estimate[0, 0], res.se[0, 0]
        z_exact.append(float(np.max(np.abs(est - res.expectation[0, 0])
                                    / se)))
        bias.append(abs(complex(*est) - ref))
        z_bias.append(bias[-1] / float(np.hypot(*se)))
    ratio = bias[1] / bias[0]
    elapsed = time.time() - t0
    ok = (3.0 < ratio < 5.0 and max(z_exact) < 3.0 and min(z_bias) > 10.0
          and elapsed < 60.0)
    _line("Monte-Carlo O(g^2) bias doubling", ok,
          f"ratio {ratio:.2f} (in [3, 5]), bias {min(z_bias):.0f} SE or "
          f"more, worst z against the exact readout {max(z_exact):.2f} "
          "(< 3) at 1e9 trials", t0)
    assert 3.0 < ratio < 5.0
    assert max(z_exact) < 3.0
    assert min(z_bias) > 10.0
    assert elapsed < 60.0


def test_collapse_statistics():
    t0 = time.time()
    report = cli.run("fig1", {})["report"]
    z = max(abs(r["frequency"] - r["expected"]) / r["se"]
            for r in report["frequencies"])
    frac = report["overlap"]["fraction_above_0.999"]
    p_before = report["equivariance"]["before"]["p_value"]
    p_after = report["equivariance"]["after"]["p_value"]
    elapsed = time.time() - t0
    ok = bool(report["pass"]) and elapsed < 300.0
    _line("pointer-impulse collapse statistics", ok,
          f"freq worst z {z:.2f} (< 4 SE), overlap frac {frac:.4f} "
          f"(>= 0.999), equivariance p {p_before:.3f}/{p_after:.3f} "
          f"(> 1e-3)", t0)
    assert z <= 4.0
    assert frac >= 0.999
    assert p_before > 1e-3 and p_after > 1e-3
    assert report["pass"]
    assert elapsed < 300.0


def test_density_matrix_suite():
    t0 = time.time()
    by_name = {}
    for bs in (True, False):
        cfg = parse_config({"scenario": "density_dm",
                            "protocol": {"bs_inserted": bs}})
        rep = run_density_dm(cfg)["report"]
        tag = "bs_on" if bs else "bs_off"
        for c in rep["checks"]:
            by_name[f"{tag}.{c['name']}"] = c

    exact = ["bs_on.direct_equals_rdm",
             "bs_on.direct_equals_cdm_Y_plus",
             "bs_on.direct_equals_cdm_Y_minus",
             "bs_on.rdm_is_half_identity",
             "bs_on.cdm_Y_plus_matches_branch_target",
             "bs_on.cdm_Y_minus_matches_branch_target",
             "bs_off.cdm_Y_zero_matches_branch_target"]
    worst = max(by_name[n]["distance"] for n in exact)
    avg = max(by_name["bs_on.averaging_law"]["distance"],
              by_name["bs_off.averaging_law"]["distance"])
    elapsed = time.time() - t0
    ok = worst < 1e-10 and avg < 1e-12 and elapsed < 1.0
    _line("density-matrix suite", ok,
          f"worst entrywise distance {worst:.2e} (tol 1e-10), "
          f"averaging residual {avg:.2e} (tol 1e-12)", t0)
    assert worst < 1e-10
    assert avg < 1e-12
    assert elapsed < 1.0


def test_order_invariance():
    t0 = time.time()
    report = cli.run("order", {"n_trials": 1_000_000})["report"]
    by_name = {c["name"]: c for c in report["checks"]}
    table_dev = by_name["table_identity"]["max_deviation"]
    wv_dev = by_name["exact_weak_values"]["max_deviation"]
    p_rows = [r["p_value"] for r in report["mc_comparison"]["rows"]]
    p_rows += [r["p_value"] for r in report["planes_b_vs_c"]["rows"]]
    p_min = min(p_rows)
    elapsed = time.time() - t0
    ok = bool(report["pass"]) and elapsed < 600.0
    _line("operation-order invariance", ok,
          f"exact identity dev {max(table_dev, wv_dev):.2e} (tol 1e-12), "
          f"min chi2 p {p_min:.3f} (> 1e-3) at 1e6 per arm", t0)
    assert table_dev < 1e-12
    assert wv_dev < 1e-12
    assert p_min > 1e-3
    assert report["pass"]
    assert elapsed < 600.0


def test_numerical_infrastructure():
    t0 = time.time()
    round_trip = selftest.check_transform_round_trip()
    drift = selftest.check_norm_drift()
    conv = selftest.check_split_step_convergence()

    # guidance velocity of the conditional slice must equal the x component
    # of the full two-particle velocity along that row
    g = Grid1D(-8.0, 8.0, 128)
    v_dev = 0.0
    for seed in (4, 9):
        psi2 = random_state_2d(g, g, seed)
        field2 = bohm.VelocityField2D(psi2)
        rho_y = psi2.density().sum(axis=0)
        for j in np.argsort(rho_y)[-6:]:
            y = float(g.points[j])
            slc = conditional_slice(psi2, y)
            v1, ok1 = bohm.VelocityField1D(slc).velocity(g.points)
            vx, _, ok2 = field2.velocity(g.points, np.full(g.n_points, y))
            both = ok1 & ok2
            v_dev = max(v_dev, float(np.abs(v1[both] - vx[both]).max()))

    elapsed = time.time() - t0
    ok = (round_trip["pass"] and drift["pass"] and conv["pass"]
          and v_dev < 1e-8)
    _line("numerical infrastructure", ok,
          f"round trip {round_trip['observed']:.2e} (tol 1e-10), "
          f"norm drift {drift['observed']:.2e} (tol 1e-9 per 1e3 steps), "
          f"convergence ratio {conv['observed']:.2f} (in [3.5, 4.5]), "
          f"velocity agreement {v_dev:.2e} (tol 1e-8)", t0)
    assert round_trip["observed"] < 1e-10
    assert drift["observed"] < 1e-9
    assert 3.5 < conv["observed"] < 4.5
    assert v_dev < 1e-8
