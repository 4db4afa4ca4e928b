"""The four scenario workloads: which `cwflab` command lines each one runs.

Every run is one `cwflab.labcli.cli.main` call. Its config file holds the
scenario overrides; the workload seed and the artifact directory go on the
command line, so a rerun with the same seed writes to the same directory
and must reproduce the same bytes (`output_dir` is echoed into the report).
"""

import json
import os
from dataclasses import dataclass

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "collapse": "fig1 at 10k trajectories: ~90% of the time is the fig1 "
                "impulse flow (flow_velocity); no weakmeas, polar or evolve "
                "work",
    "scan": "planes B/on and A/off with the qubit pointer plus B/on with the "
            "gaussian pointer: coupling-table builds and per-trial samplers",
    "ordering": "order at 1e6 trials per arm: the sampler and route tables "
                "of labcli.order, with the table-identity and identical-seed "
                "count checks",
    "battery": "density at n_y=128 with the splitter on and off, plus the "
               "selftest battery: the only workload where polar and "
               "evolve/bohm 2-D transport work",
}

# (run name, config overrides); None marks the selftest battery, which
# takes no config and no seed.
_RUNS = {
    "collapse": [
        ("fig1", {"scenario": "fig1_collapse"}),
    ],
    "scan": [
        ("planes_B_on", {"scenario": "photon_planes",
                         "protocol": {"plane": "B", "bs_inserted": True}}),
        ("planes_A_off", {"scenario": "photon_planes",
                          "protocol": {"plane": "A", "bs_inserted": False}}),
        # at pointer_width 1.0 the gaussian readout noise buries the signal
        # at 1e5 trials per site and most seeds exit 3; at 0.2 both bins
        # resolve, and the per-trial rejection samplers still do the work
        ("planes_B_on_gaussian", {
            "scenario": "photon_planes",
            "protocol": {"plane": "B", "bs_inserted": True,
                         "pointer_model": "gaussian",
                         "pointer_width": 0.2}}),
    ],
    "ordering": [
        ("order", {"scenario": "order_invariance", "n_trials": 1_000_000}),
    ],
    "battery": [
        ("density_bs_on", {"scenario": "density_dm", "grid": {"n_y": 128},
                           "protocol": {"bs_inserted": True}}),
        ("density_bs_off", {"scenario": "density_dm", "grid": {"n_y": 128},
                            "protocol": {"bs_inserted": False}}),
        ("selftest", None),
    ],
}

_COMMAND = {"fig1_collapse": "fig1", "photon_planes": "planes",
            "density_dm": "density", "order_invariance": "order"}

NAMES = tuple(_RUNS)


@dataclass(frozen=True)
class Run:
    """One scenario invocation of a workload."""

    name: str
    argv: tuple
    config_path: str   # None for the selftest battery
    config: dict
    out_dir: str


def runs(workload: str, seed: int, work_dir: str) -> list:
    """The runs of `workload` for `seed`, with artifacts under work_dir."""
    out = []
    for name, config in _RUNS[workload]:
        out_dir = os.path.join(work_dir, name)
        if config is None:
            out.append(Run(name, ("selftest", "--out", out_dir), None, None,
                           out_dir))
            continue
        path = os.path.join(work_dir, f"{name}.json")
        argv = (_COMMAND[config["scenario"]], "--config", path,
                "--seed", str(seed), "--out", out_dir)
        out.append(Run(name, argv, path, config, out_dir))
    return out


def write_configs(run_list) -> None:
    """Write each run's config file; the runs then read only these files."""
    for run in run_list:
        if run.config_path is not None:
            os.makedirs(os.path.dirname(run.config_path), exist_ok=True)
            with open(run.config_path, "w") as fh:
                json.dump(run.config, fh, sort_keys=True)
