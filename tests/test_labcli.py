"""Scenario runners, the config layer, and the command-line front end."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from oracles import box_flow_pairs
from test_config_keys import BASES

import cwflab
from cwflab.errors import ValidationError
from cwflab.qgrid import Grid1D
from cwflab.stats import chi2_gof
from cwflab.states import beam_splitter, two_branch_state
from cwflab.weakmeas import (
    CHUNK_TRIALS,
    GAUSSIAN_MOMENTUM_GAIN,
    GAUSSIAN_POSITION_GAIN,
    RECORD_FIELDS,
    PointerProtocol,
    ScanState,
    scan_pointer_protocol,
)
from cwflab.labcli import cli
from cwflab.labcli.config import (
    DEFAULTS,
    SCENARIOS,
    ConfigError,
    parse_config,
)
from cwflab.labcli import fig1
from cwflab.labcli.fig1 import (
    POSITION_TOL,
    BoxModes,
    _pair_anti,
    flow_velocity,
    run_fig1,
    sample_initial,
    transport,
)
from cwflab.labcli.order import run_order_invariance
from cwflab.labcli.planes import (
    detection_state,
    replay_records,
    run_photon_planes,
)
from cwflab.labcli.reports import check_record, jsonify, write_columns_csv


class TestConfig:
    @pytest.mark.parametrize("name", ["fig1_collapse", "photon_planes",
                                      "density_dm", "order_invariance"])
    def test_defaults_parse(self, name):
        cfg = parse_config({"scenario": name})
        assert cfg.scenario == name
        assert set(cfg.to_dict()) == {"scenario", *DEFAULTS[name]}
        if name != "density_dm":
            assert cfg.n_trials >= 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"scenario": "fig1_collapse",
                          "state": {"wobble": 1.0}})

    def test_non_unit_coefficients_rejected(self):
        with pytest.raises(ConfigError, match="unit-norm"):
            parse_config({"scenario": "fig1_collapse",
                          "state": {"c": [[1.0, 0.0], [1.0, 0.0]]}})

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config({"scenario": "density_dm"}, scenario="fig1_collapse")

    def test_plane_values(self):
        with pytest.raises(ConfigError, match="plane"):
            parse_config({"scenario": "photon_planes",
                          "protocol": {"plane": "Q"}})

    def test_coupling_positivity_by_scenario(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config({"scenario": "photon_planes",
                          "protocol": {"coupling": 0.0}})
        cfg = parse_config({"scenario": "order_invariance",
                            "protocol": {"coupling": 0.0}})
        assert cfg.protocol["coupling"] == 0.0
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config({"scenario": "order_invariance",
                          "protocol": {"coupling": -0.1}})

    def test_basic_field_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"scenario": "fig1_collapse", "seed": 1.5})
        with pytest.raises(ConfigError, match="n_trials"):
            parse_config({"scenario": "fig1_collapse", "n_trials": -1})
        with pytest.raises(ConfigError, match="x_min"):
            parse_config({"scenario": "photon_planes",
                          "grid": {"x_min": 2.0, "x_max": -2.0}})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, bad):
        # an infinite gaussian shift s = g / dx never accepts a draw, so the
        # run would hang: the parser must refuse it
        with pytest.raises(ConfigError, match="coupling"):
            parse_config({"scenario": "photon_planes",
                          "protocol": {"coupling": bad,
                                       "pointer_model": "gaussian"}})
        with pytest.raises(ConfigError, match="shift"):
            parse_config({"scenario": "density_dm", "state": {"shift": bad}})
        with pytest.raises(ConfigError, match="x_max"):
            parse_config({"scenario": "photon_planes",
                          "grid": {"x_max": bad}})
        with pytest.raises(ConfigError, match="sites"):
            parse_config({"scenario": "order_invariance",
                          "protocol": {"sites": [3.0, bad]}})
        with pytest.raises(ConfigError, match="coefficient"):
            parse_config({"scenario": "fig1_collapse",
                          "state": {"c": [[bad, 0.0], [0.0, 0.0]]}})


class TestReports:
    def test_columns_csv_matches_the_csv_module(self, tmp_path):
        """The columnar writer gives the bytes of csv.DictWriter fed the
        repr of each float, and an empty cell for None."""
        floats = np.array([0.1, -0.0, 1e-18, np.nan, np.inf, -2.5e300, 3.0])
        columns = {"trial": np.arange(7), "x": floats,
                   "ok": floats > 0, "basis": np.where(floats > 0, "im", "re"),
                   "outcome": np.array([None, 1.0, -1.0, None, 0.25, None,
                                        -0.5], dtype=object)}
        write_columns_csv(tmp_path / "cols.csv", columns)
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(columns))
            writer.writeheader()
            for i in range(7):
                writer.writerow({
                    k: repr(float(v[i])) if v.dtype.kind == "f" else
                    v[i].item() if v.dtype != object else v[i]
                    for k, v in columns.items()})
        assert ((tmp_path / "cols.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())
        write_columns_csv(tmp_path / "empty.csv", {"a": [], "b": []})
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\r\n"

    def test_few_distinct_values_give_the_per_cell_bytes(self, tmp_path):
        """Columns of few distinct values, formatted once per value, give
        the bytes of str on every cell: -0.0 among 0.0 (keyed on bits, not
        on value), NaNs of two payloads, bools, ints, two words, and a
        column of mostly distinct floats."""
        rng = np.random.default_rng(3)
        zeros = np.where(np.arange(129) < 127, -0.0, 0.0)
        nan = np.array([np.nan, -np.nan, np.inf, 1.5])[np.arange(129) % 4]
        columns = {"z": rng.permutation(zeros), "nan": nan,
                   "ok": rng.random(129) < 0.5,
                   "n": rng.integers(-3, 3, 129),
                   "basis": np.where(rng.random(129) < 0.5, "im", "re"),
                   "x": np.append(rng.normal(size=120), np.zeros(9))}
        write_columns_csv(tmp_path / "cols.csv", columns)
        want = ",".join(columns) + "\r\n" + "".join(
            ",".join(str(v[i].item()) for v in columns.values()) + "\r\n"
            for i in range(129))
        assert (tmp_path / "cols.csv").read_bytes() == want.encode()

    def test_check_record_bounds_are_inclusive(self):
        # 9,990 of 10,000 is exactly the double 0.999
        fraction = float(np.mean(np.arange(10_000) < 9_990))
        for value in (fraction, 1.0):
            assert check_record("c", fraction=value,
                                bounds=(0.999, 1.0))["pass"]
        for value in (np.nextafter(0.999, 0.0), np.nextafter(1.0, 2.0)):
            assert not check_record("c", fraction=value,
                                    bounds=(0.999, 1.0))["pass"]

    def test_check_record_tol_and_minimum_are_strict(self):
        assert not check_record("c", observed=1e-12, tol=1e-12)["pass"]
        assert check_record("c", observed=np.nextafter(1e-12, 0.0),
                            tol=1e-12)["pass"]
        assert not check_record("c", p_value=1e-3, minimum=1e-3)["pass"]
        assert check_record("c", p_value=np.nextafter(1e-3, 1.0),
                            minimum=1e-3)["pass"]

    def test_check_record_missing_value_or_limit_fails(self):
        rec = check_record("c", fidelity=None, minimum=0.99)
        assert rec == {"name": "c", "fidelity": None, "minimum": 0.99,
                       "pass": False}
        assert not check_record("c", fidelity=1.0, minimum=None)["pass"]
        assert not check_record("c", fidelity=np.nan, minimum=0.99)["pass"]
        assert not check_record("c", observed=np.nan, tol=1.0)["pass"]
        assert not check_record("c", observed=np.nan,
                                bounds=(0.0, 1.0))["pass"]


def _pass_paths(node, path=""):
    """Paths of every "pass" key in a report."""
    if isinstance(node, dict):
        found = [path + ".pass"] if "pass" in node else []
        for key, value in node.items():
            found += _pass_paths(value, f"{path}.{key}")
        return found
    if isinstance(node, list):
        return [p for i, value in enumerate(node)
                for p in _pass_paths(value, f"{path}[{i}]")]
    return []


# the reduced configs of every scenario, a density run that fails its
# branch targets, and the self-test battery
SHAPE_RUNS = [*BASES.values(),
              ("density", {"grid": {"n_y": 16}, "state": {"shift": 1.0}}),
              ("selftest", None)]


@pytest.mark.parametrize("command, config", SHAPE_RUNS,
                         ids=[c for c, _ in SHAPE_RUNS])
def test_every_verdict_is_a_check_record(tmp_path, capsys, command, config):
    """One check shape: every pass flag sits in the checks list, whose
    conjunction is the top-level pass, and the command prints one line per
    check. In process, run returns the same report and writes nothing."""
    out_dir = tmp_path / "out"
    result = cli.run(command, {**(config or {}), "output_dir": str(out_dir)})
    assert list(tmp_path.iterdir()) == []
    assert result["output_dir"] == str(out_dir)
    assert result["report"]["pass"] == all(
        c["pass"] for c in result["report"]["checks"])
    argv = [command, "--out", str(out_dir)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    rc = cli.main(argv)
    rep = json.loads((out_dir / "report.json").read_text())
    assert jsonify(result["report"]) == rep
    checks = rep["checks"]
    assert checks
    assert sorted(_pass_paths(rep)) == sorted(
        [".pass"] + [f".checks[{i}].pass" for i in range(len(checks))])
    names = [c["name"] for c in checks]
    assert len(set(names)) == len(names)
    assert rep["pass"] == all(c["pass"] for c in checks)
    assert rc == (0 if rep["pass"] else 3)
    for c in checks:
        assert len({"tol", "bounds", "minimum"} & set(c)) == 1, c
        assert len(c) == 4, c
    lines = capsys.readouterr().out.splitlines()
    verdict = {True: "PASS", False: "FAIL"}
    assert lines == [f"{verdict[c['pass']]} {c['name']}" for c in checks] + [
        f"{verdict[rep['pass']]} {rep['scenario']} overall",
        f"wrote {out_dir / 'report.json'}"]


@pytest.fixture(scope="module")
def fig1_result():
    return cli.run("fig1", {"n_trials": 2500})


class TestFig1:
    def test_equal_coefficients_pass(self, fig1_result):
        rep = fig1_result["report"]
        assert rep["pass"]
        for row in rep["frequencies"]:
            assert abs(row["frequency"] - 0.5) <= 4.0 * row["se"]
        assert rep["overlap"]["fraction_above_0.999"] >= 0.999
        assert rep["equivariance"]["before"]["p_value"] > 1e-3
        assert rep["equivariance"]["after"]["p_value"] > 1e-3
        assert rep["n_failed"] == 0

    def test_outcome_targets_are_spectrum_scaled(self, fig1_result):
        rep = fig1_result["report"]
        want = rep["lam"] * np.asarray(rep["eigenvalues"])
        assert np.allclose(rep["outcome_targets"], want)

    def test_records_and_tables(self, fig1_result):
        recs = fig1_result["records"]
        assert len(recs["trial"]) == 2500
        assert tuple(recs) == (
            "trial", "x0", "y0", "x_final", "y_final", "outcome_mode",
            "overlap", "failed")
        for key in ("psi_initial", "mode_1", "mode_2",
                    "cwf_branch_1", "cwf_branch_2"):
            assert key in fig1_result["wf_tables"]

    def test_records_cap(self):
        cfg = parse_config({"scenario": "fig1_collapse", "n_trials": 300,
                            "report": {"records_cap": 40}})
        assert len(run_fig1(cfg)["records"]["trial"]) == 40

    def test_deterministic_rerun(self):
        cfg = parse_config({"scenario": "fig1_collapse", "n_trials": 400})
        a = run_fig1(cfg)
        b = run_fig1(cfg)
        assert json.dumps(jsonify(a["report"]), sort_keys=True) == \
            json.dumps(jsonify(b["report"]), sort_keys=True)
        assert json.dumps(jsonify(a["records"])) == \
            json.dumps(jsonify(b["records"]))

    def test_single_mode_is_deterministic_outcome(self):
        out = cli.run("fig1", {"n_trials": 800,
                               "state": {"c": [[0.0, 0.0], [1.0, 0.0]]}})
        rep = out["report"]
        assert rep["pass"]
        assert [r["mode"] for r in rep["frequencies"]] == [2]
        assert rep["frequencies"][0]["frequency"] == 1.0
        assert rep["overlap"]["min"] >= 0.999

    def test_complex_coefficients_follow_weights(self):
        rep = cli.run("fig1", {"n_trials": 2500, "state": {
            "c": [[0.6, 0.0], [0.0, 0.8]]}})["report"]
        assert rep["pass"]
        expected = {1: 0.36, 2: 0.64}
        for row in rep["frequencies"]:
            assert row["expected"] == pytest.approx(expected[row["mode"]])
            assert abs(row["frequency"] - row["expected"]) <= 4.0 * row["se"]

    def test_weak_impulse_rejected(self):
        cfg = parse_config({"scenario": "fig1_collapse", "n_trials": 10,
                            "state": {"lam": 0.001}})
        with pytest.raises(ValidationError,
                           match=r"^config\.state\.lam = 0\.001 and "
                                 r"config\.state\.w = .*impulse too weak"):
            run_fig1(cfg)

    def test_box_edges_off_grid_points(self):
        """Neither wall sits on an x-grid point: the run passes, and the
        sampled initial state vanishes outside the box."""
        out = cli.run("fig1", {"n_trials": 2500, "state": {
            "box_min": 0.0003, "box_length": 0.9}})
        assert out["report"]["pass"]
        x, psi = out["wf_tables"]["psi_initial"]
        outside = (x <= 0.0003) | (x >= 0.9003)
        assert outside.any() and not np.any(psi[outside])

    def test_outcomes_must_fit_grid(self):
        cfg = parse_config({"scenario": "fig1_collapse", "n_trials": 10,
                            "state": {"lam": 0.4}})
        with pytest.raises(ValidationError):
            run_fig1(cfg)


EQUAL_PAIR = [2.0**-0.5, 2.0**-0.5]
THREE_MODES = [0.6, 0.48j, 0.64]
# modes 1 and 48: the sine table reaches mode 48 by 47 recurrence steps
HIGH_PAIR = [2.0**-0.5 if n in (1, 48) else 0.0 for n in range(1, 49)]


class TestFig1Flow:
    @pytest.mark.parametrize("coeffs", [EQUAL_PAIR, THREE_MODES, HIGH_PAIR])
    def test_flow_matches_mode_pair_sum(self, coeffs):
        modes = BoxModes(coeffs, 0.0, 1.0)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.01, 0.99, 400)
        Y = rng.uniform(-0.3, 1.3, 400)
        # the top mode's pointer branch y = s a_n sweeps [0, 2.6], so about
        # half the points sit on it
        s = rng.uniform(0.0, 2.6 / modes.a.max(), 400)
        got = flow_velocity(modes, 0.1, X, Y, s)
        want = box_flow_pairs(modes.numbers, modes.c, 0.0, 1.0, 0.1, X, Y, s)
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=0.0,
                                       atol=1e-12 * np.abs(r).max())

    @pytest.mark.parametrize("coeffs", [EQUAL_PAIR, THREE_MODES, HIGH_PAIR])
    def test_pair_antiderivative_is_identity_at_far_wall(self, coeffs):
        modes = BoxModes(coeffs, 0.0, 1.0)
        np.testing.assert_allclose(_pair_anti(modes, 1.0),
                                   np.eye(modes.numbers.size), rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("coeffs", [EQUAL_PAIR, THREE_MODES, HIGH_PAIR])
    def test_pair_antiderivative_matches_direct_sines(self, coeffs):
        # integral from 0 to xi of 2 sin(n pi t) sin(m pi t), each sine
        # from np.sin
        modes = BoxModes(coeffs, 0.0, 1.0)
        xi = np.random.default_rng(4).uniform(0.0, 1.0, 200)
        n = modes.numbers[:, None, None]
        m = modes.numbers[None, :, None]
        d = np.where(n == m, 1, n - m)
        want = (np.where(n == m, xi, np.sin(d * np.pi * xi) / (d * np.pi))
                - np.sin((n + m) * np.pi * xi) / ((n + m) * np.pi))
        np.testing.assert_allclose(_pair_anti(modes, xi), want, rtol=0.0,
                                   atol=1e-12)

    def test_flow_is_divergence_free_in_x_y_s(self):
        modes = BoxModes(THREE_MODES, 0.0, 1.0)
        rng = np.random.default_rng(4)
        X = rng.uniform(0.05, 0.95, 200)
        Y = rng.uniform(-0.2, 0.5, 200)
        s = rng.uniform(0.0, 0.03, 200)

        def diff(i, h):
            # central difference of (j_x, j_y, rho)[i] along (x, y, s)[i]
            plus = [X, Y, s]
            minus = [X, Y, s]
            plus[i] = plus[i] + h
            minus[i] = minus[i] - h
            return (flow_velocity(modes, 0.1, *plus)[i]
                    - flow_velocity(modes, 0.1, *minus)[i]) / (2.0 * h)

        # s moves the pointer by a_3 = 44 per unit, so it gets a finer step
        terms = [diff(0, 1e-6), diff(1, 1e-6), diff(2, 1e-8)]
        scale = max(np.abs(t).max() for t in terms)
        assert np.abs(sum(terms)).max() < 1e-7 * scale

    def test_node_and_wall_starts_reach_lam(self):
        # 1e-9 either side of u_1 + u_2's node at x = 2/3, where the
        # s-velocity diverges, and 1e-3 from each wall
        modes = BoxModes(EQUAL_PAIR, 0.0, 1.0)
        w = 0.1
        lam = 8.0 * w / modes.min_gap()
        xs = (2.0 / 3.0 - 1e-9, 2.0 / 3.0 + 1e-9, 1e-3, 1.0 - 1e-3)
        starts = np.array([[x, y] for x in xs for y in (-0.1, 0.0, 0.1)])
        X, Y, failed = transport(modes, w, starts, lam, 32)
        assert not failed.any()
        assert np.all((X > 0.0) & (X < 1.0)) and np.isfinite(Y).all()

    def test_transport_matches_tight_reference(self, monkeypatch):
        """Each endpoint agrees with DOP853 at rtol = atol = 1e-12 on the
        same Sundman-time ODE to within its step count times POSITION_TOL.
        The starts' reference paths keep rho / rho_ref above 1e-3 at every
        reference step, away from the moving node."""
        modes = BoxModes(EQUAL_PAIR, 0.0, 1.0)
        w = 0.1
        lam = 8.0 * w / modes.min_gap()
        rho_ref = 2.0 * float(np.sum(np.abs(modes.c))) ** 2
        calls = []

        def counted(*args):
            calls.append(1)
            return flow_velocity(*args)

        def rhs(tau, z):
            return flow_velocity(modes, w, *z[:, None])[:, 0] / rho_ref

        def at_lam(tau, z):
            return z[2] - lam
        at_lam.terminal = True

        monkeypatch.setattr(fig1, "flow_velocity", counted)
        for start in ((0.15, 0.0), (0.5, 0.08), (0.85, -0.08), (0.85, 0.0)):
            ref = integrate.solve_ivp(rhs, (0.0, 1e3), [*start, 0.0],
                                      method="DOP853", rtol=1e-12,
                                      atol=1e-12, events=at_lam)
            assert ref.status == 1
            assert flow_velocity(modes, w, *ref.y)[2].min() > 1e-3 * rho_ref
            calls.clear()
            X, Y, failed = transport(modes, w, np.array([start]), lam, 32)
            # one slope at the start, then six new stages per step
            steps = (len(calls) - 1) / 6
            end = ref.y_events[0][0]
            assert not failed[0]
            assert (max(abs(X[0] - end[0]), abs(Y[0] - end[1]))
                    <= steps * POSITION_TOL)

    def test_pooled_initial_sample_follows_closed_form(self):
        # 20 seeds x 10k draws; a grid-cell draw jittered inside its cell
        # (n_y = 256 on [-2, 4]) fails the y marginal at p ~ 1e-10
        modes = BoxModes(EQUAL_PAIR, 0.0, 1.0)
        w = 0.1
        sigma = w / np.sqrt(2.0)
        draws = np.concatenate([sample_initial(modes, w, 10_000, seed)
                                for seed in range(20)])
        bins = 32
        x_edges = np.linspace(0.0, 1.0, bins + 1)

        def density(x):
            # |(u_1 + u_2) / sqrt 2|^2 with u_n = sqrt 2 sin(n pi x)
            return (np.sin(np.pi * x) + np.sin(2.0 * np.pi * x)) ** 2

        px = [integrate.quad(density, a, b)[0]
              for a, b in zip(x_edges[:-1], x_edges[1:])]
        y_edges = np.linspace(-4.0 * sigma, 4.0 * sigma, bins + 1)
        py = np.diff(sps.norm.cdf(y_edges, scale=sigma))
        cx = np.histogram(draws[:, 0], bins=x_edges)[0]
        cy = np.histogram(draws[:, 1], bins=y_edges)[0]
        assert cx.sum() == draws.shape[0]
        assert chi2_gof(cx, np.asarray(px))["p_value"] > 1e-3
        assert chi2_gof(cy, py)["p_value"] > 1e-3


@pytest.fixture(scope="module")
def planes_uncollapsed():
    return cli.run("planes", {"n_trials": 30_000,
                              "protocol": {"bs_inserted": False}})


def _rows(columns):
    """Per-trial dicts of a {field: column} record set."""
    values = (np.asarray(column).tolist() for column in columns.values())
    return [dict(zip(columns, row)) for row in zip(*values)]


@pytest.fixture(scope="module")
def planes_collapsed():
    return cli.run("planes", {"n_trials": 30_000,
                              "protocol": {"bs_inserted": True, "plane": "B"}})


class TestPlanes:
    def test_uncollapsed_single_bin(self, planes_uncollapsed):
        rep = planes_uncollapsed["report"]
        assert rep["tag"] == "uncollapsed"
        assert not rep["bs_inserted"]
        assert len(rep["bins"]) == 1
        b = rep["bins"][0]
        assert b["target"] == "(psi_1+psi_2)/sqrt(2)"
        assert b["fidelity_exact_vs_target"] > 0.999
        assert rep["pass"]

    def test_collapsed_branch_targets(self, planes_collapsed):
        rep = planes_collapsed["report"]
        assert rep["tag"] == "collapsed"
        assert [b["target"] for b in rep["bins"]] == ["psi_2", "psi_1"]
        for b in rep["bins"]:
            assert b["tag"] == "collapsed"
            assert b["fidelity_exact_vs_target"] > 0.999
            assert b["fidelity_mc_vs_target_debiased"] > \
                b["fidelity_threshold"]
            assert b["cwf_check"]["mean_fidelity"] > b["fidelity_threshold"]
        assert rep["pass"]

    def test_weakness_ratio_reports_rotation_angle(self, planes_collapsed):
        rep = planes_collapsed["report"]
        cfg = rep["config"]
        dx = (cfg["grid"]["x_max"] - cfg["grid"]["x_min"]) / cfg["grid"]["n_x"]
        alpha = cfg["protocol"]["coupling"] / (dx * cfg["protocol"]["pointer_width"])
        assert rep["weakness_ratio"] == pytest.approx(alpha)

    def test_record_bins_consistent_with_y(self, planes_collapsed):
        rep = planes_collapsed["report"]
        cfg = rep["config"]
        edges = [cfg["grid"]["y_min"], 0.0, cfg["grid"]["y_max"]]
        window = rep["momentum_window"]
        seen_accepted = False
        for row in _rows(planes_collapsed["records"]):
            assert row["basis"] in ("re", "im")
            if row["accepted"]:
                seen_accepted = True
                assert abs(row["p_x"]) < window
                want = 0 if row["y"] < 0.0 else 1
                assert row["y_bin"] == want
                assert row["outcome"] in (-1, 1)
            else:
                assert row["outcome"] is None
        assert seen_accepted

    def test_overlapping_supports_rejected(self):
        cfg = parse_config({"scenario": "photon_planes", "n_trials": 100,
                            "state": {"x_sep": 1.0}})
        with pytest.raises(ValidationError, match="support"):
            run_photon_planes(cfg)


class TestDensity:
    def test_exact_identities(self):
        out = cli.run("density", {})
        rep = out["report"]
        assert rep["pass"] and rep["well_separated"]
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["direct_equals_rdm"]["distance"] < 1e-10
        assert by_name["cdm_Y_plus_matches_branch_target"]["distance"] < 1e-10
        assert by_name["cdm_Y_minus_matches_branch_target"]["distance"] < 1e-10
        assert by_name["averaging_law"]["distance"] < 1e-12
        assert out["records"] is None

    def test_bs_off_everything_is_half_identity(self):
        rep = cli.run("density",
                      {"protocol": {"bs_inserted": False}})["report"]
        assert rep["pass"]
        names = [c["name"] for c in rep["checks"]]
        assert "direct_equals_cdm_Y_zero" in names
        assert "cdm_Y_zero_matches_branch_target" in names

    def test_resampled_rates_within_tolerance(self):
        rep = cli.run("density",
                      {"protocol": {"resample_n": 1_000_000}})["report"]
        assert rep["pass"]
        tol = max(1e-10, 6.0 / np.sqrt(1_000_000))
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["direct_equals_rdm"]["tol"] == pytest.approx(tol)
        json.dumps(jsonify(rep))  # non-Hermitian estimates still serialize

    def test_overlapping_packets_fail_branch_targets(self):
        rep = cli.run("density", {"state": {"shift": 1.0}})["report"]
        assert not rep["well_separated"]
        assert not rep["pass"]
        by_name = {c["name"]: c for c in rep["checks"]}
        assert not by_name["cdm_Y_plus_matches_branch_target"]["pass"]
        assert by_name["averaging_law"]["pass"]


@pytest.fixture(scope="module")
def order_result():
    return cli.run("order", {"n_trials": 60_000})


class TestOrder:
    def test_operator_identity(self, order_result):
        rep = order_result["report"]
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["table_identity"]["max_deviation"] < 1e-12
        assert by_name["exact_weak_values"]["max_deviation"] < 1e-12
        assert rep["pass"]

    def test_identical_seeds_give_identical_counts(self, order_result):
        mc = order_result["report"]["mc_comparison"]
        assert mc["all_counts_identical"]
        for row in mc["rows"]:
            assert row["counts_bs_first"] == row["counts_coupling_first"]
            assert row["p_value"] == 1.0

    def test_plane_homogeneity(self, order_result):
        rows = order_result["report"]["planes_b_vs_c"]["rows"]
        assert rows
        for row in rows:
            assert row["p_value"] > 1e-3

    def test_records_replayed(self, order_result):
        recs = order_result["records"]
        assert tuple(recs) == RECORD_FIELDS and len(recs["trial"])

    def test_degenerate_no_coupling(self):
        out = cli.run("order", {"n_trials": 5000,
                                "protocol": {"coupling": 0.0}})
        rep = out["report"]
        assert rep["degenerate_no_coupling"]
        assert rep["pass"]
        assert tuple(out["records"]) == RECORD_FIELDS
        assert not any(map(len, out["records"].values()))
        for row in rep["exact_weak_values"]["rows"]:
            assert row["route_bs_first"] == {"re": 0.0, "im": 0.0}


def _protocol(cfg, gx, gy, **kw):
    pr = cfg.protocol
    return PointerProtocol(
        coupling=pr["coupling"], n_trials=cfg.n_trials, seed=cfg.seed,
        pointer_width=pr["pointer_width"],
        p_x_bin=pr["p_x_window_dp"] * gx.conjugate().dx,
        y_bins=[gy.x_min, 0.0, gy.x_max], **kw)


def _qubit_gain(proto, gx):
    return 2.0 * gx.dx * np.sin(proto.coupling / (gx.dx * proto.pointer_width))


class TestSharedStream:
    """The trial records, the protocol run and order's bs_first arm all
    draw the same trials from the (seed, site, chunk) stream."""

    @pytest.mark.parametrize("model", ["qubit", "gaussian"])
    def test_records_reproduce_the_run(self, model):
        n_trials = 20_000
        assert n_trials <= CHUNK_TRIALS
        cfg = parse_config({"scenario": "photon_planes", "n_trials": n_trials,
                            "protocol": {"bs_inserted": True, "plane": "B",
                                         "pointer_model": model}})
        psi_det, _, _, collapsed, gx, gy = detection_state(cfg)
        assert collapsed
        proto = _protocol(cfg, gx, gy, pointer_model=model)
        if model == "qubit":
            gains = [_qubit_gain(proto, gx)] * 2
        else:
            sigma_p = 1.0 / (2.0 * proto.pointer_width)
            gains = [GAUSSIAN_POSITION_GAIN * proto.coupling,
                     GAUSSIAN_MOMENTUM_GAIN * sigma_p**2 * proto.coupling]
        site = gx.index_of(3.0)
        result = scan_pointer_protocol(psi_det, [site], proto)
        rows = _rows(replay_records(result.state, site, proto, n_trials))
        assert len(rows) == n_trials
        for b, (counts, est) in enumerate(zip(result.counts[0],
                                              result.estimate[0])):
            in_bin = [r for r in rows if r["accepted"] and r["y_bin"] == b]
            assert len(in_bin) == counts.sum()
            for basis, n, value, se, gain in zip(
                    ("re", "im"), counts, est, result.se[0, b], gains):
                got = np.array([r["outcome"] for r in in_bin
                                if r["basis"] == basis])
                assert got.size == n > 0
                if model == "qubit":
                    assert set(got) <= {-1.0, 1.0}
                    assert round(value * gain * n) == got.sum()
                    assert got.mean() / gain == pytest.approx(value,
                                                              rel=1e-9)
                else:
                    # the run draws its gaussian readings per slot, the
                    # records per trial: two samples of one law, same size
                    assert abs(got.mean() / gain - value) < 5.0 * np.sqrt(
                        2.0) * se

    def test_capped_records_are_a_prefix(self):
        cfg = parse_config({"scenario": "photon_planes", "n_trials": 20_000,
                            "protocol": {"bs_inserted": True, "plane": "B",
                                         "pointer_model": "gaussian"}})
        psi_det, _, _, _, gx, gy = detection_state(cfg)
        proto = _protocol(cfg, gx, gy, pointer_model="gaussian")
        site = gx.index_of(3.0)
        state = ScanState(psi_det, proto.p_x_bin, proto.y_bins)
        full = _rows(replay_records(state, site, proto, cfg.n_trials))
        head = _rows(replay_records(state, site, proto, 777))
        assert head == full[:777]
        assert any(r["accepted"] for r in head)

    def test_order_bs_first_arm_matches_the_run(self):
        cfg = parse_config({"scenario": "order_invariance",
                            "n_trials": 100_000})
        g, st = cfg.grid, cfg.state
        gx = Grid1D(g["x_min"], g["x_max"], g["n_x"])
        gy = Grid1D(g["y_min"], g["y_max"], g["n_y"])
        psi = beam_splitter(two_branch_state(gx, gy, st["x_sep"],
                                             st["sigma_x"], st["sigma_y"]),
                            st["bs_shift"])
        proto = _protocol(cfg, gx, gy)
        gain = _qubit_gain(proto, gx)
        rows = run_order_invariance(cfg)["report"]["mc_comparison"]["rows"]
        sites = list(dict.fromkeys(row["x_site"] for row in rows))
        result = scan_pointer_protocol(psi, sites, proto)
        for row in rows:
            k, b = sites.index(row["x_site"]), row["bin"]
            (n_re, n_im), (re, im) = result.counts[k, b], result.estimate[k, b]
            # counts per [basis][outcome]; outcome 1 reads +1
            a0, a1, l0, l1 = row["counts_bs_first"]
            assert (n_re, n_im) == (a0 + a1, l0 + l1)
            assert round(re * gain * n_re) == a1 - a0
            assert round(im * gain * n_im) == l1 - l0


def _field_paths(tree, path=()):
    for key, value in tree.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, path + (key,))


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                     st.integers(), st.floats(),
                     st.sampled_from([math.inf, -math.inf, math.nan]))
_JSON_LIKE = st.one_of(
    _SCALARS, st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
                       max_size=4))


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from([(name, path) for name in SCENARIOS
                              for path in _field_paths(DEFAULTS[name])]),
       value=_JSON_LIKE)
def test_config_field_replaced_parses_or_is_refused(field, value):
    """One default field replaced by any JSON-like value: parse_config
    refuses it with ConfigError or returns only finite numbers. No
    scenario runs, since a drawn grid size could allocate without limit."""
    name, path = field
    data = copy.deepcopy(DEFAULTS[name])
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cfg = parse_config({"scenario": name, **data})
    except ConfigError:
        return
    for number in _numbers(cfg.to_dict()):
        assert math.isfinite(float(number)), (path, value)


class TestSelftest:
    def test_battery_passes(self):
        rep = cli.run("selftest", {})["report"]
        assert rep["pass"]
        names = {c["name"] for c in rep["checks"]}
        assert {"transform_round_trip", "split_step_convergence_ratio",
                "velocity_two_forms", "dm_averaging_law"} <= names
        for c in rep["checks"]:
            assert c["pass"], c


class TestCli:
    def test_malformed_config_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "n_trials": nope\n}\n')
        rc = cli.main(["fig1", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["fig1", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        # valid JSON once decoded as Latin-1, but not UTF-8
        path.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
        out_dir = tmp_path / "out"
        rc = cli.main(["density", "--config", str(path),
                       "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [["density"], ["selftest"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        afile = tmp_path / "afile"
        afile.write_text("")
        for out in (afile, afile / "x"):
            rc = cli.main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err.startswith("output error: ")
            assert captured.err.count("\n") == 1
            assert "Traceback" not in captured.err
        assert afile.read_text() == ""

    def test_invalid_flag_value_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        # density writes no records, so it takes no --trials; no command
        # takes --format (records go only to records.csv) or plane C
        for argv in (["planes", "--plane", "D"], ["density", "--trials", "5"],
                     ["density", "--format", "json"],
                     ["planes", "--plane", "C"],
                     ["order", "--format", "json"]):
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--out", str(out_dir)])
            assert err.value.code == 2
            assert not out_dir.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("command, config, flags", [
        ("planes", {"n_trials": True}, []),
        ("planes", {"protocol": {"coupling": "0.1"}}, []),
        ("order", {"protocol": {"coupling": "0.1"}}, []),
        ("fig1", {"state": {"flow_steps": 0}}, []),
        ("density", {"protocol": {"resample_n": 0}}, []),
        ("planes", {}, ["--seed", "-1"]),
        ("order", {}, ["--seed", "-1"]),
        # alpha = g / (dx * width) = pi to float precision: sin(alpha) ~ 1e-16
        ("planes", {"protocol": {"pointer_width": 0.10185916357881303}}, []),
        ("order", {"protocol": {"pointer_width": 0.10185916357881303}}, []),
        # json.load reads Infinity; these used to exit 1 or 3
        ("planes", {"protocol": {"coupling": math.inf}}, []),
        ("density", {"state": {"shift": math.inf}}, []),
        ("density", {"state": {"width": math.inf}}, []),
        # a floor >= 1 couples no site
        ("planes", {"protocol": {"site_density_floor": 2.0}}, []),
        # plane C is only order's fresh-seed arm, not a planes setting
        ("planes", {"protocol": {"plane": "C"}}, []),
        # flags aimed at a section that is not an object
        ("planes", {"protocol": 5}, ["--plane", "B"]),
        ("planes", {"protocol": 5}, ["--bs", "on"]),
        ("planes", {"protocol": {"cwf_samples": -1}}, []),
        ("planes", {"report": {"records_cap": -1}}, []),
        # keys that moved no number and were removed
        ("fig1", {"grid": {"n_y": 64}}, []),
        ("density", {"n_trials": 5}, []),
        ("density", {"report": {}}, []),
        ("planes", {"report": {"format": "xml"}}, []),
        # a box outside the x grid, and one whose modes the grid cannot
        # resolve: these used to exit 2 naming no key, or write NaN tables
        ("fig1", {"state": {"box_min": 5.0}}, []),
        ("fig1", {"state": {"box_length": 1e-9}}, []),
        ("fig1", {}, ["--trials", "0"]),
        ("planes", {}, ["--trials", "0"]),
        ("order", {}, ["--trials", "0"]),
        # positions off the grid: these used to name no key
        ("order", {"protocol": {"sites": [99.0]}}, []),
        ("density", {"state": {"shift": 100.0}}, []),
        ("density", {"state": {"shift": 3.01}}, []),
        # Y = 0 between y grid points: the y spacing is at fault, not the
        # shift; these used to name no key, or config.state.shift
        ("density", {"grid": {"y_min": -7.9},
                     "protocol": {"bs_inserted": False}}, []),
        ("density", {"grid": {"y_min": -7.9}}, []),
        # grids the engines refused naming no key
        ("planes", {"grid": {"n_x": 12}}, []),
        ("density", {"grid": {"n_y": 12}}, []),
        ("order", {"grid": {"y_min": 0.5}}, []),
        ("planes", {"grid": {"y_min": 0.5}}, ["--bs", "on"]),
        ("fig1", {"grid": {"y_min": 1.0}}, []),
        # settings that picked a second route to the same numbers
        ("density", {"protocol": {"four_phase": True}}, []),
        ("order", {"protocol": {"compare_planes": False}}, []),
        ("fig1", {"report": {"format": "csv"}}, []),
        # overlapping packets: this used to name no key
        ("planes", {"state": {"x_sep": 1.0}}, []),
        # these used to print a RuntimeWarning first; w also named no key
        ("fig1", {"state": {"w": 1e-300}}, []),
        ("fig1", {"state": {"box_length": 1e-300}}, []),
        # widths whose square is no normal double: these used to end in an
        # OverflowError traceback
        ("planes", {"state": {"sigma_x": 1e300}}, []),
        ("planes", {"state": {"sigma_y": 1e300}}, []),
        ("order", {"state": {"sigma_x": 1e300}}, []),
        ("order", {"state": {"sigma_y": 1e300}}, []),
        ("density", {"state": {"width": 1e300}}, []),
        ("density", {"state": {"width": 1e-300}}, []),
        # packets off the x grid, and an x grid on one side of x = 0: these
        # used to name no key, or the state keys instead of config.grid
        ("planes", {"state": {"x_sep": 180.0}}, []),
        ("order", {"state": {"x_sep": 180.0}}, []),
        ("planes", {"grid": {"x_min": 0.5}}, []),
        ("planes", {"grid": {"x_max": -0.5}}, []),
        ("order", {"grid": {"x_min": 0.5}}, []),
        # overlapping packets: order used to pass where planes refused
        ("order", {"state": {"x_sep": 1.0}}, []),
        # widths below a quarter of the grid spacing: these used to print an
        # overflow RuntimeWarning and exit 0
        ("density", {"state": {"width": 2e-154}}, []),
        ("planes", {"state": {"sigma_x": 2e-154}}, []),
        ("order", {"state": {"sigma_y": 2e-154}}, []),
    ])
    def test_invalid_config_exits_2(self, tmp_path, capsys, recwarn, command,
                                    config, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        rc = cli.main([command, "--config", str(path), "--out", str(out_dir),
                       *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config")
        assert "Traceback" not in err and "Warning" not in err
        # pytest captures warnings, so they would not reach err
        assert not [str(w.message) for w in recwarn]
        assert not out_dir.exists()
        # the message names each refused state key, a refused grid and a
        # refused --trials (test_off_grid_position_names_key_and_grid
        # checks the sites row)
        named = [f"config.state.{key}" for key in config.get("state", {})]
        if "grid" in config:
            named += ["config.grid", *config["grid"]]
        if "--trials" in flags:
            named.append("config.n_trials must be an integer >= 1")
        assert all(key in err for key in named)

    @pytest.mark.parametrize("command, config, message", [
        ("order", {"protocol": {"sites": [3.0, 99.0]}},
         "config.protocol.sites: x = 99 outside the x grid [-8, 8)"),
        ("density", {"state": {"shift": 100.0}},
         "config.state.shift: Y = +-100 outside the y grid [-8, 8)"),
        ("density", {"state": {"shift": 3.01}},
         "config.state.shift: shift must be an integer number of pos2 "
         "cells (dy = 0.25)"),
        ("density", {"grid": {"y_min": -7.9}},
         "config.grid: Y = 0 is not a y grid point (y_min = -7.9, "
         "dy = 0.248438)"),
        ("planes", {"state": {"x_sep": 180.0}},
         "config.state.x_sep = 180: packet centers x = +-90 outside the x "
         "range [-8, 8] of config.grid"),
        ("order", {"state": {"x_sep": 180.0}},
         "config.state.x_sep = 180: packet centers x = +-90 outside the x "
         "range [-8, 8] of config.grid"),
        ("planes", {"grid": {"x_min": 0.5}},
         "config.grid: x_min = 0.5 and x_max = 8 must straddle x = 0"),
        ("planes", {"grid": {"x_max": -0.5}},
         "config.grid: x_min = -8 and x_max = -0.5 must straddle x = 0"),
        ("order", {"state": {"x_sep": 1.0}},
         "config.state.x_sep = 1 and config.state.sigma_x = 0.5: packet "
         "supports overlap x = 0 (leaked mass 0.174 > 1e-06); increase x_sep "
         "or shrink sigma_x"),
    ])
    def test_off_grid_position_names_key_and_grid(self, tmp_path, capsys,
                                                  command, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = cli.main([command, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def fresh_stdout(code):
        """What code prints in a fresh interpreter that imports this tree's
        cwflab."""
        src = str(Path(cwflab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_import_leaves_out_scipy_stats(self):
        """Importing the command line must load no scipy module at all:
        the runtime needs only numpy, and scipy.special alone was most of
        every command's start-up. Checked in a fresh interpreter."""
        assert self.fresh_stdout(
            "import sys, cwflab.labcli.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))") == "[]"

    def test_setup_leaves_out_numpy_random(self):
        """Importing the command line and parsing every scenario's defaults
        loads no numpy.random module: it costs about 10 ms of a 200 ms
        start-up, and only a run draws random numbers (stats.stream loads
        it when called). Checked in a fresh interpreter."""
        assert self.fresh_stdout(
            "import sys, cwflab.labcli.cli; "
            "from cwflab.labcli.config import DEFAULTS, parse_config; "
            "[parse_config({'scenario': s}) for s in DEFAULTS]; "
            "print(len(DEFAULTS), sorted(m for m in sys.modules "
            "if m.startswith('numpy.random')))") == f"{len(DEFAULTS)} []"

    def test_selftest_exit_zero(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS selftest overall" in out

    @pytest.mark.parametrize("seed", [4, 100, 1110781798])
    def test_fig1_exits_zero(self, tmp_path, capsys, seed):
        args = ["fig1", "--seed", str(seed), "--out", str(tmp_path / "run")]
        assert cli.main(args) == 0
        capsys.readouterr()

    def test_fig1_rerun_byte_identical(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        args = ["fig1", "--seed", "7", "--trials", "400",
                "--out", str(out_dir)]
        assert cli.main(args) == 0
        first = {p.name: p.read_bytes()
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert cli.main(args) == 0
        second = {p.name: p.read_bytes()
                  for p in sorted(out_dir.rglob("*")) if p.is_file()}
        capsys.readouterr()
        assert set(first) == {"report.json", "records.csv", "psi_initial.csv",
                              "mode_1.csv", "mode_2.csv", "cwf_branch_1.csv",
                              "cwf_branch_2.csv"}
        assert first == second

    @pytest.mark.parametrize("args", [
        ["planes", "--bs", "on", "--seed", "4", "--trials", "20000"],
        ["order", "--seed", "4", "--trials", "3000"],
    ])
    def test_rerun_byte_identical(self, tmp_path, capsys, args):
        out_dir = tmp_path / "run"

        def artifacts():
            assert cli.main(args + ["--out", str(out_dir)]) == 0
            return {str(p.relative_to(out_dir)): p.read_bytes()
                    for p in sorted(out_dir.rglob("*")) if p.is_file()}

        first = artifacts()
        second = artifacts()
        capsys.readouterr()
        assert {"report.json", "records.csv"} <= set(first)
        assert first == second

    def test_planes_tags_follow_flags(self, tmp_path, capsys):
        out_dir = tmp_path / "p"
        rc = cli.main(["planes", "--bs", "on", "--plane", "A",
                       "--trials", "4000", "--out", str(out_dir)])
        capsys.readouterr()
        assert rc == 0
        rep = json.loads((out_dir / "report.json").read_text())
        assert rep["tag"] == "uncollapsed" and rep["plane"] == "A"
        rc = cli.main(["planes", "--bs", "on", "--trials", "4000",
                       "--out", str(out_dir)])
        capsys.readouterr()
        rep = json.loads((out_dir / "report.json").read_text())
        assert rep["tag"] == "collapsed"
        assert all(b["tag"] == "collapsed" for b in rep["bins"])

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "overlap.json"
        path.write_text('{"state": {"shift": 1.0}}')
        rc = cli.main(["density", "--config", str(path),
                       "--out", str(tmp_path / "d")])
        out = capsys.readouterr().out
        assert rc == 3
        assert "FAIL" in out
