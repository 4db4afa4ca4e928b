"""Per-layer tracing from outside the program.

A `Tracer` wraps the public functions of each cwflab layer (and two private
names of `labcli.order`, whose sampler and route tables have no public
entry point) while it is active. Each wrapper records calls, inclusive
seconds and self seconds (inclusive minus the traced calls it made), plus
the work counts of `Layer.work`. Nothing in `src/` changes.

Every layer names the end-to-end metric and workload it should move, so
that a later change to one layer knows where its gain must show.
"""

import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from inspect import signature
from types import ModuleType
from typing import Callable


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _flow_points(arg, result, seconds):
    return {"labcli.fig1.flow_velocity.points": _size(arg("X"))}


def _transport_failed(arg, result, seconds):
    return {"labcli.fig1.n_failed": int(result[2].sum())}


def _protocol_work(arg, result, seconds):
    proto = arg("proto")
    return {"weakmeas.run_pointer_protocol.trials": proto.n_trials,
            "weakmeas.accepted": round(result.acceptance_rate
                                       * result.n_trials),
            f"weakmeas.trials.{proto.pointer_model}": proto.n_trials,
            f"weakmeas.s.{proto.pointer_model}": seconds,
            "weakmeas.empty_bins": sum(b.empty for b in result.bins)}


def _sampler_trials(arg, result, seconds):
    return {"labcli.order.sampler.trials": arg("n_trials")}


def _cell_steps(arg, result, seconds):
    return {"evolve.propagate.cell_steps": arg("wf").amplitudes.size
            * arg("steps")}


def _velocity_points(arg, result, seconds):
    return {"bohm.VelocityField2D.velocity.points": _size(arg("X"))}


def _trajectories_failed(arg, result, seconds):
    return {"bohm.evolve_trajectories.n_failed": result.n_failed}


def _qeh_draws(arg, result, seconds):
    return {"bohm.sample_qeh.draws": arg("n")}


def _emitted_bytes(arg, result, seconds):
    total = 0
    for base, _, files in os.walk(arg("output_dir")):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return {"labcli.reports.emit.bytes": total}


@dataclass(frozen=True)
class Layer:
    """One traced boundary: `attr` (a dotted path) inside `module`."""

    name: str
    module: str
    attr: str
    moves: str
    counters: tuple = ()    # (metric, unit) pairs that `work` records
    work: Callable = None   # (arg, result, seconds) -> counts; arg(name)
                            # returns the call's argument of that name


_COLLAPSE = "wall_s on collapse"
_SCAN = "wall_s and peak_rss_mb on scan"
_BATTERY = "wall_s on battery"
_POLAR = "wall_s and cold_s on battery"
_SMALL = "wall_s on scan and collapse (small today)"

LAYERS = (
    Layer("labcli.fig1.flow_velocity", "cwflab.labcli.fig1", "flow_velocity",
          _COLLAPSE, (("labcli.fig1.flow_velocity.points", "count"),),
          _flow_points),
    Layer("labcli.fig1.transport", "cwflab.labcli.fig1", "transport",
          _COLLAPSE, (("labcli.fig1.n_failed", "count"),), _transport_failed),
    # stands in for coupling-table build time
    Layer("weakmeas.protocol_expectation", "cwflab.weakmeas",
          "protocol_expectation", _SCAN),
    Layer("weakmeas.run_pointer_protocol", "cwflab.weakmeas",
          "run_pointer_protocol", _SCAN,
          (("weakmeas.run_pointer_protocol.trials", "count"),
           ("weakmeas.empty_bins", "count")), _protocol_work),
    Layer("labcli.order.sampler", "cwflab.labcli.order", "_mc_counts",
          "wall_s on ordering", (("labcli.order.sampler.trials", "count"),),
          _sampler_trials),
    Layer("labcli.order.route_tables", "cwflab.labcli.order",
          "_RouteTables.__init__", "wall_s on ordering"),
    Layer("labcli.planes.replay_records", "cwflab.labcli.planes",
          "replay_records", "wall_s on scan and ordering"),
    Layer("polar.DensityOperator.build", "cwflab.polar",
          "DensityOperator.__init__", _POLAR),
    Layer("polar.weak_value_mixed", "cwflab.polar", "weak_value_mixed",
          _POLAR),
    Layer("polar.direct_dm_measurement", "cwflab.polar",
          "direct_dm_measurement", _POLAR),
    Layer("polar.conditional_dm", "cwflab.polar", "conditional_dm", _POLAR),
    Layer("evolve.propagate", "cwflab.evolve", "propagate", _BATTERY,
          (("evolve.propagate.cell_steps", "count"),), _cell_steps),
    Layer("bohm.VelocityField2D.build", "cwflab.bohm",
          "VelocityField2D.__init__", _BATTERY),
    Layer("bohm.VelocityField2D.velocity", "cwflab.bohm",
          "VelocityField2D.velocity", _BATTERY,
          (("bohm.VelocityField2D.velocity.points", "count"),),
          _velocity_points),
    Layer("bohm.evolve_trajectories", "cwflab.bohm", "evolve_trajectories",
          _BATTERY, (("bohm.evolve_trajectories.n_failed", "count"),),
          _trajectories_failed),
    Layer("bohm.sample_qeh", "cwflab.bohm", "sample_qeh", _SMALL,
          (("bohm.sample_qeh.draws", "count"),), _qeh_draws),
    Layer("bohm.conditional_wavefunction", "cwflab.bohm",
          "conditional_wavefunction", _SMALL),
    Layer("qgrid.to_momentum", "cwflab.qgrid", "to_momentum", _SMALL),
    Layer("qgrid.to_position", "cwflab.qgrid", "to_position", _SMALL),
    Layer("qgrid.conditional_slice", "cwflab.qgrid", "conditional_slice",
          _SMALL),
    Layer("labcli.reports.emit", "cwflab.labcli.reports", "emit",
          "wall_s on every workload",
          (("labcli.reports.emit.bytes", "bytes"),), _emitted_bytes),
)

# Ratios computed from the raw counts once a traced run ends.
_RATIOS = (
    ("weakmeas.trials_per_s.qubit", "1/s",
     "weakmeas.trials.qubit", "weakmeas.s.qubit"),
    ("weakmeas.trials_per_s.gaussian", "1/s",
     "weakmeas.trials.gaussian", "weakmeas.s.gaussian"),
    ("weakmeas.accepted_ratio", "ratio",
     "weakmeas.accepted", "weakmeas.run_pointer_protocol.trials"),
    ("labcli.order.sampler.trials_per_s", "1/s",
     "labcli.order.sampler.trials", "labcli.order.sampler.s"),
)

OVERHEAD = ("trace.overhead_s", "s")

# Every per-layer metric with its unit, in report order.
PER_LAYER = tuple(
    [m for layer in LAYERS
     for m in ((f"{layer.name}.calls", "count"), (f"{layer.name}.s", "s"),
               (f"{layer.name}.self_s", "s"), *layer.counters)]
    + [(name, unit) for name, unit, _, _ in _RATIOS] + [OVERHEAD])


def metrics(counts: Counter, overhead_s: float) -> dict:
    """{metric: value} for every name in PER_LAYER; untouched layers read 0."""
    out = {name: counts.get(name, 0) for name, _ in PER_LAYER}
    for name, _, num, den in _RATIOS:
        out[name] = counts[num] / counts[den] if counts[den] else 0
    out[OVERHEAD[0]] = overhead_s
    return out


def _resolve(layer: Layer):
    """(owner, attribute, original) for the layer's target."""
    owner = importlib.import_module(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _import_sites(owner, attr: str, original):
    """Every place the target is reachable by name.

    A function imported with `from module import name` is bound in the
    importing module too; patching only the defining module would miss
    those calls. Class attributes have a single site.
    """
    if not isinstance(owner, ModuleType):
        return [(owner, attr)]
    return [(mod, key) for mod in list(sys.modules.values())
            if isinstance(mod, ModuleType)
            and (mod.__name__ == "cwflab" or mod.__name__.startswith("cwflab."))
            for key, value in list(vars(mod).items()) if value is original]


class Tracer:
    """Context manager that traces `layers` while it is active.

    Entering wraps each target at every import site; leaving puts the
    originals back. A target that cannot be found is listed in `absent`
    instead of raising, so the benchmark survives a layer being renamed or
    deleted. `counts` maps metric names to summed values.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.counts = Counter()
        self.absent = []
        self.patched = []    # (owner, attribute, original), in patch order
        self._stack = []     # traced child seconds of each open call

    def _wrap(self, layer: Layer, fn):
        counts, stack = self.counts, self._stack
        index = {name: i for i, name in enumerate(signature(fn).parameters)}
        calls, incl, own = (f"{layer.name}.calls", f"{layer.name}.s",
                            f"{layer.name}.self_s")

        @wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                counts[calls] += 1
                counts[incl] += dt
                counts[own] += dt - child
            if layer.work is not None:
                counts.update(layer.work(
                    lambda name: kwargs[name] if name in kwargs
                    else args[index[name]], result, dt))
            return result

        return traced

    def __enter__(self):
        try:
            for layer in self.layers:
                try:
                    owner, attr, original = _resolve(layer)
                except (ImportError, AttributeError):
                    self.absent.append(layer.name)
                    continue
                wrapper = self._wrap(layer, original)
                for site, key in _import_sites(owner, attr, original):
                    self.patched.append((site, key, original))
                    setattr(site, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for site, key, original in reversed(self.patched):
            setattr(site, key, original)
        return False

    def restored(self) -> bool:
        """True when every patched site holds its original again."""
        return all(getattr(site, key) is original
                   for site, key, original in self.patched)
