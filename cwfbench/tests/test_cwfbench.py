"""Tests of the benchmark itself (about a minute):

    python3 -m pytest cwfbench/tests

Traced runs go through the same code as `run.py --trace 1`, in this
process, with each scenario run traced on its own so counts can be read
per run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in layers.PER_LAYER if unit == "count"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """traced(workload) -> two repetitions of {run name: metrics}."""
    cache = {}

    def get(workload):
        if workload not in cache:
            run_list = workloads.runs(workload, 3,
                                      str(tmp_path_factory.mktemp(workload)))
            workloads.write_configs(run_list)
            cli, _ = child.load_cli(run_list)
            checker = child.Checker()
            reps = []
            for _ in range(2):
                per_run = {}
                for run in run_list:
                    tracer, _ = child.traced_counts(cli, [run], checker)
                    assert tracer.absent == [] and tracer.restored()
                    per_run[run.name] = layers.metrics(tracer.counts, 0.0)
                reps.append(per_run)
            assert checker.failed == 0, checker.errors
            cache[workload] = reps
        return cache[workload]

    return get


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "cwfbench/run.py"]
    assert spec["paths"] == ["cwfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "cold_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_between_traced_runs(traced, workload):
    first, second = traced(workload)
    for run in first:
        for name in COUNTS:
            assert first[run][name] == second[run][name], (run, name)


BYPASSED = {
    "polar.": ("collapse", "scan", "ordering"),
    "evolve.": ("collapse", "scan", "ordering"),
    "labcli.fig1.": ("scan", "ordering", "battery"),
    "weakmeas.run_pointer_protocol.": ("collapse", "ordering", "battery"),
}
# a layer every run of each workload uses, so the zeros above mean something
USED = {
    "collapse": "labcli.fig1.flow_velocity.calls",
    "scan": "weakmeas.run_pointer_protocol.calls",
    "ordering": "labcli.order.sampler.calls",
    "battery": "polar.weak_value_mixed.calls",
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_bypassed_layers_read_zero(traced, workload):
    prefixes = tuple(p for p, where in BYPASSED.items() if workload in where)
    per_run = traced(workload)[0].values()
    for metrics in per_run:
        for name, value in metrics.items():
            if name.startswith(prefixes):
                assert value == 0, name
    assert all(m[USED[workload]] > 0 for m in per_run)
    if workload == "battery":
        assert sum(m["evolve.propagate.calls"] for m in per_run) > 0


def test_tracer_reports_absent_targets_and_restores_originals():
    child.load_cli([])
    from cwflab import polar, weakmeas
    from cwflab.labcli import order, planes

    originals = {
        (weakmeas, "run_pointer_protocol"): weakmeas.run_pointer_protocol,
        (planes, "protocol_expectation"): planes.protocol_expectation,
        (order, "replay_records"): order.replay_records,
        (polar.DensityOperator, "__init__"): polar.DensityOperator.__init__,
    }
    gone = (layers.Layer("gone.function", "cwflab.labcli.order",
                         "_no_such_sampler", "nothing"),
            layers.Layer("gone.module", "cwflab.no_such_module", "run",
                         "nothing"))
    tracer = layers.Tracer(layers.LAYERS + gone)
    with pytest.raises(KeyError):
        with tracer:
            for (owner, attr), fn in originals.items():
                assert getattr(owner, attr) is not fn, attr
            raise KeyError("the traced run fails")
    assert tracer.absent == ["gone.function", "gone.module"]
    assert tracer.restored()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, attr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "cwfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "cwfbench/run.py", "--workload", "ordering",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_failed_run_names_its_failed_checks():
    report = {"pass": False,
              "frequencies": [{"mode": 1, "pass": True},
                              {"mode": 2, "pass": False}],
              "overlap": {"pass": True},
              "equivariance": {"before": {"p_value": 0.0372},
                               "after": {"p_value": 0.000114},
                               "pass": False}}
    assert child._failed_checks(report) == [
        "frequencies[1]",
        "equivariance (before p=0.0372, after p=0.000114)"]
