"""Every config key moves a number.

Each row of KEY_ROWS perturbs one leaf of a scenario's DEFAULTS on top of a
reduced base config and runs the scenario through the command line. The
run's artifacts, with the config echo taken out of report.json, must then
differ from the base run's. A refactor that silently stops reading a key
fails its row, and a key added to DEFAULTS without a row fails the
coverage test.
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from cwflab.labcli import cli
from cwflab.labcli.config import DEFAULTS, parse_config

# command and reduced base overrides (small grids, few trials) per scenario
BASES = {
    # one mode: the flow has no nodes, so few adaptive steps
    "fig1_collapse": ("fig1", {
        "n_trials": 20, "grid": {"n_x": 64},
        "state": {"c": [[1.0, 0.0], [0.0, 0.0]]}}),
    "photon_planes": ("planes", {
        "n_trials": 1000, "grid": {"n_x": 64, "n_y": 64},
        "protocol": {"bs_inserted": True}}),
    "density_dm": ("density", {
        "grid": {"n_y": 16}, "state": {"shift": 2.0},
        "protocol": {"resample_n": 1000}}),
    "order_invariance": ("order", {
        "n_trials": 1000, "grid": {"n_x": 64, "n_y": 64}}),
}

# (scenario, dotted key, perturbed value); fig1's box edges and density's
# +-shift must stay on grid points
KEY_ROWS = [
    ("fig1_collapse", "seed", 1),
    ("fig1_collapse", "n_trials", 15),
    ("fig1_collapse", "output_dir", "elsewhere"),
    ("fig1_collapse", "grid.x_min", -2.5),
    ("fig1_collapse", "grid.x_max", 3.5),
    ("fig1_collapse", "grid.n_x", 32),
    ("fig1_collapse", "grid.y_min", -1.5),
    ("fig1_collapse", "grid.y_max", 3.5),
    ("fig1_collapse", "state.c", [[0.6, 0.0], [0.8, 0.0]]),
    ("fig1_collapse", "state.box_min", 0.125),
    ("fig1_collapse", "state.box_length", 0.875),
    ("fig1_collapse", "state.w", 0.12),
    ("fig1_collapse", "state.lam", 0.07),
    ("fig1_collapse", "state.flow_steps", 16),
    ("fig1_collapse", "report.records_cap", 10),
    ("photon_planes", "seed", 1),
    ("photon_planes", "n_trials", 800),
    ("photon_planes", "output_dir", "elsewhere"),
    ("photon_planes", "grid.x_min", -7.0),
    ("photon_planes", "grid.x_max", 7.0),
    ("photon_planes", "grid.n_x", 32),
    ("photon_planes", "grid.y_min", -7.0),
    ("photon_planes", "grid.y_max", 7.0),
    ("photon_planes", "grid.n_y", 32),
    ("photon_planes", "state.x_sep", 5.0),
    ("photon_planes", "state.sigma_x", 0.6),
    ("photon_planes", "state.sigma_y", 0.8),
    ("photon_planes", "state.bs_shift", 2.0),
    ("photon_planes", "protocol.coupling", 0.03),
    ("photon_planes", "protocol.pointer_model", "gaussian"),
    ("photon_planes", "protocol.pointer_width", 0.3),
    # the window is quantised by dp: 1.5 dp keeps three momentum cells
    ("photon_planes", "protocol.p_x_window_dp", 1.5),
    ("photon_planes", "protocol.plane", "A"),
    ("photon_planes", "protocol.bs_inserted", False),
    ("photon_planes", "protocol.site_density_floor", 0.1),
    ("photon_planes", "protocol.cwf_samples", 8),
    ("photon_planes", "report.records_cap", 100),
    ("density_dm", "seed", 1),
    ("density_dm", "output_dir", "elsewhere"),
    ("density_dm", "grid.y_min", -24.0),
    ("density_dm", "grid.y_max", 24.0),
    ("density_dm", "grid.n_y", 32),
    ("density_dm", "state.shift", 4.0),
    ("density_dm", "state.width", 0.6),
    ("density_dm", "protocol.bs_inserted", False),
    ("density_dm", "protocol.resample_n", 2000),
    ("order_invariance", "seed", 1),
    ("order_invariance", "n_trials", 800),
    ("order_invariance", "output_dir", "elsewhere"),
    ("order_invariance", "grid.x_min", -7.0),
    ("order_invariance", "grid.x_max", 7.0),
    ("order_invariance", "grid.n_x", 32),
    ("order_invariance", "grid.y_min", -7.0),
    ("order_invariance", "grid.y_max", 7.0),
    ("order_invariance", "grid.n_y", 32),
    ("order_invariance", "state.x_sep", 5.0),
    ("order_invariance", "state.sigma_x", 0.6),
    ("order_invariance", "state.sigma_y", 0.8),
    ("order_invariance", "state.bs_shift", 2.0),
    ("order_invariance", "protocol.coupling", 0.03),
    ("order_invariance", "protocol.pointer_width", 0.3),
    ("order_invariance", "protocol.p_x_window_dp", 1.5),
    ("order_invariance", "protocol.sites", [2.0, -2.0]),
    ("order_invariance", "report.records_cap", 100),
]


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _with(config: dict, key: str, value) -> dict:
    out = copy.deepcopy(config)
    *sections, leaf = key.split(".")
    node = out
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return out


def _digest(scenario: str, config: dict, work: Path) -> str:
    """sha256 over the paths and bytes of a run's artifacts, with the
    config echo taken out of report.json. The run's working directory is
    work, so output_dir lands inside it."""
    command, _ = BASES[scenario]
    work.mkdir()
    path = work / "config.json"
    path.write_text(json.dumps({"scenario": scenario, **config}))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        rc = cli.main([command, "--config", str(path)])
    assert rc in (0, 3)  # a report was written
    sha = hashlib.sha256()
    for p in sorted(work.rglob("*")):
        if not p.is_file() or p == path:
            continue
        data = p.read_bytes()
        if p.name == "report.json":
            report = json.loads(data)
            del report["config"]
            data = json.dumps(report, sort_keys=True).encode()
        sha.update(str(p.relative_to(work)).encode() + b"\0" + data)
    return sha.hexdigest()


@pytest.fixture(scope="module")
def base_digests(tmp_path_factory):
    work = tmp_path_factory.mktemp("base")
    return {name: _digest(name, base, work / name)
            for name, (_, base) in BASES.items()}


def test_rows_cover_every_default_key():
    want = {(name, key) for name in DEFAULTS for key in _leaves(DEFAULTS[name])}
    got = [(name, key) for name, key, _ in KEY_ROWS]
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("scenario, key, value", KEY_ROWS,
                         ids=[f"{s}:{k}" for s, k, _ in KEY_ROWS])
def test_key_moves_a_number(scenario, key, value, base_digests, tmp_path):
    base = BASES[scenario][1]
    config = _with(base, key, value)
    # the row changes the resolved value, not only the overrides
    assert (parse_config({"scenario": scenario, **config}).to_dict()
            != parse_config({"scenario": scenario, **base}).to_dict())
    assert _digest(scenario, config, tmp_path / "run") \
        != base_digests[scenario]
