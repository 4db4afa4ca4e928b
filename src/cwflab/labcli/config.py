"""Scenario configuration: JSON schema, defaults, validation.

A config file is a JSON object with the top-level keys

    scenario    one of fig1_collapse | photon_planes | density_dm |
                order_invariance
    seed        integer RNG seed
    n_trials    Monte-Carlo trials (per coupled site for protocol scenarios)
    output_dir  artifact directory
    grid        {x_min, x_max, n_x, y_min, y_max, n_y}
    state       scenario-specific state parameters (see DEFAULTS)
    protocol    pointer-protocol knobs (see DEFAULTS)
    report      {records_cap}

Each scenario takes only the keys of its DEFAULTS entry: density_dm has no
n_trials, no report section and no x grid, fig1_collapse no grid.n_y.
Every key is optional; omitted keys take the scenario default and the fully
resolved config is echoed into each report. A given value must have its
default's JSON type (object, list, string, boolean, integer or number), and
every number must be finite: json.load accepts Infinity and NaN, which no
field admits. Complex state coefficients are written as numbers (real) or
[re, im] pairs.
"""

import copy
import sys
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

COEFF_TOL = 1e-10

# The qubit readout divides D/A and L/R imbalances, at most 2|sin a| in
# size, by 2 dx sin a with a = g / (dx * pointer_width). Below this floor
# (about the square root of double precision) resolving the imbalance takes
# more than ~1e15 trials, and near a = k pi the computed sin a is roundoff
# (~1e-16 k), so the run would report noise amplified by 1 / sin a.
SIN_ALPHA_FLOOR = 1e-8

# (section, key, type, lower bound) of the numeric fields: an int must reach
# its bound, a float (any finite JSON number) must exceed it, and a key whose
# default is null may be null. Booleans are not numbers here.
FIELD_BOUNDS = (
    (None, "seed", int, 0),
    (None, "n_trials", int, 1),
    ("state", "flow_steps", int, 1),
    ("protocol", "resample_n", int, 1),
    ("protocol", "cwf_samples", int, 1),
    ("report", "records_cap", int, 0),
    *(("state", key, float, 0.0) for key in (
        "w", "lam", "box_length", "sigma_x", "sigma_y", "x_sep", "width")),
    *(("protocol", key, float, 0.0) for key in (
        "coupling", "pointer_width", "p_x_window_dp")),
)


class ConfigError(ValidationError):
    pass


DEFAULTS = {
    "fig1_collapse": {
        "seed": 0,
        "n_trials": 10_000,
        "output_dir": "out",
        # y_min, y_max: the range of the equivariance y histogram
        "grid": {"x_min": -0.5, "x_max": 1.5, "n_x": 256,
                 "y_min": -2.0, "y_max": 4.0},
        "state": {
            "c": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            "box_min": 0.0,
            "box_length": 1.0,
            "w": 0.1,          # pointer amplitude scale: phi0 ~ exp(-y^2/2w^2)
            "lam": None,       # impulse strength; None -> 8 w / min-gap
            "flow_steps": 32,
        },
        "protocol": {},
        "report": {"records_cap": 10_000},
    },
    "photon_planes": {
        "seed": 0,
        "n_trials": 100_000,
        "output_dir": "out",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_x": 256,
                 "y_min": -8.0, "y_max": 8.0, "n_y": 256},
        "state": {"x_sep": 6.0, "sigma_x": 0.5, "sigma_y": 0.7,
                  "bs_shift": 2.5},
        "protocol": {
            "coupling": 0.02,
            "pointer_model": "qubit",
            # qubit rotation alpha = g/(dx*width); 0.2 puts alpha near pi/2,
            # the minimum-variance readout (estimand bias stays ~1e-6)
            "pointer_width": 0.2,
            "p_x_window_dp": 0.5,   # momentum window half-width in dp units
            "plane": "B",           # detect downstream of the splitter
            "bs_inserted": False,
            "site_density_floor": 1e-2,  # couple sites with rho_x above this
            "cwf_samples": 64,
        },
        "report": {"records_cap": 10_000},
    },
    "density_dm": {
        "seed": 0,  # read only with resample_n
        "output_dir": "out",
        "grid": {"y_min": -8.0, "y_max": 8.0, "n_y": 64},
        # shift/width = 6 puts the pointer-overlap tail exp(-shift^2/width^2)
        # below 1e-15, so the conditioned matrices hit their ideal targets
        "state": {"shift": 3.0, "width": 0.5},
        "protocol": {"bs_inserted": True, "resample_n": None},
    },
    "order_invariance": {
        "seed": 0,
        "n_trials": 100_000,
        "output_dir": "out",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_x": 256,
                 "y_min": -8.0, "y_max": 8.0, "n_y": 256},
        "state": {"x_sep": 6.0, "sigma_x": 0.5, "sigma_y": 0.7,
                  "bs_shift": 2.5},
        "protocol": {
            "coupling": 0.02,
            "pointer_width": 0.2,
            "p_x_window_dp": 0.5,
            "sites": [3.0, -3.0],
        },
        "report": {"records_cap": 10_000},
    },
}

SCENARIOS = tuple(DEFAULTS)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int
    output_dir: str
    grid: dict
    state: dict
    protocol: dict
    n_trials: int = None  # not a density_dm key
    report: dict = None   # only scenarios that write records have one

    def to_dict(self) -> dict:
        """The resolved config: the scenario name and its DEFAULTS keys."""
        return {key: copy.deepcopy(getattr(self, key))
                for key in ("scenario", *DEFAULTS[self.scenario])}


def _merge(defaults: dict, override: dict, path: str) -> dict:
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key {key!r}")
        default, where = defaults[key], f"{path}.{key}"
        need = _json_type_needed(value, default)
        if need:
            raise ConfigError(f"{where} must be {need}")
        out[key] = (_merge(default, value, where) if isinstance(default, dict)
                    else value)
    return out


def _json_type_needed(value, default):
    """What value lacks to take default's JSON type; None if nothing.

    A null default leaves the type to FIELD_BOUNDS.
    """
    if default is None:
        return None
    if _is_number(default, int):
        return None if _is_number(value, int) else "an integer"
    if _is_number(default):
        return None if _is_number(value) else "a finite number"
    for kind, need in ((bool, "true or false"), (str, "a string"),
                       (list, "a list"), (dict, "an object")):
        if isinstance(default, kind):
            return None if isinstance(value, kind) else need


def parse_complex_list(raw) -> np.ndarray:
    vals = []
    for item in raw:
        if _is_number(item):
            vals.append(complex(item))
        elif (isinstance(item, (list, tuple)) and len(item) == 2
              and all(_is_number(part) for part in item)):
            vals.append(complex(float(item[0]), float(item[1])))
        else:
            raise ConfigError(
                f"config.state.c: cannot parse coefficient {item!r}")
    return np.asarray(vals, dtype=np.complex128)


def _is_number(value, kind=float) -> bool:
    """A finite int (kind int) or finite int or float (kind float), not a
    bool; ints beyond the float range count as infinite."""
    types = (int, float) if kind is float else int
    return (isinstance(value, types) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_bounds(merged: dict, defaults: dict, name: str):
    for section, key, kind, low in FIELD_BOUNDS:
        values = merged.get(section, {}) if section else merged
        default = (defaults.get(section, {}) if section else defaults).get(key)
        if key not in values or (values[key] is None and default is None):
            continue
        value = values[key]
        # the ordering study admits coupling = 0 (both orderings degenerate)
        reach = kind is int or (name == "order_invariance"
                                and key == "coupling")
        if not (_is_number(value, kind)
                and (value >= low if reach else value > low)):
            need = (f"an integer >= {low}" if kind is int
                    else "a non-negative number" if reach
                    else "a positive number")
            path = ".".join(filter(None, ("config", section, key)))
            raise ConfigError(f"{path} must be {need}")


def parse_config(data: dict, scenario: str = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    name = data.get("scenario", scenario)
    if name is None:
        raise ConfigError("config is missing the scenario name")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    if scenario is not None and name != scenario:
        raise ConfigError(f"config is for scenario {name!r}, expected {scenario!r}")
    defaults = {"scenario": name, **DEFAULTS[name]}
    merged = _merge(defaults, data, "config")

    _check_bounds(merged, defaults, name)
    grid, pr = merged["grid"], merged["protocol"]
    for lo, hi in (("x_min", "x_max"), ("y_min", "y_max")):
        if lo in grid and not grid[lo] < grid[hi]:
            raise ConfigError(f"config.grid.{lo} must be a number below {hi}")
    for key in ("n_x", "n_y"):
        n = grid.get(key, 8)
        if n < 8 or n & (n - 1):
            raise ConfigError(f"config.grid.{key} must be a power of two >= 8")
    if "plane" in pr and pr["plane"] not in ("A", "B"):
        raise ConfigError("config.protocol.plane must be A or B")
    if "sites" in pr and not (pr["sites"]
                              and all(_is_number(x) for x in pr["sites"])):
        raise ConfigError("config.protocol.sites must be a non-empty list "
                          "of numbers")
    if pr.get("pointer_model", "qubit") == "qubit" and pr.get("coupling"):
        dx = (grid["x_max"] - grid["x_min"]) / grid["n_x"]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            alpha = np.float64(pr["coupling"]) / (dx * pr["pointer_width"])
            sin_alpha = abs(np.sin(alpha))
        # not >=: a NaN (alpha = inf) fails too
        if not sin_alpha >= SIN_ALPHA_FLOOR:
            raise ConfigError(
                f"config.protocol: qubit rotation alpha = g / (dx * "
                f"pointer_width) = {alpha:.6g} has |sin(alpha)| below "
                f"{SIN_ALPHA_FLOOR:g}, so the readout 2 dx sin(alpha) "
                "vanishes")
    st = merged["state"]
    for key in ("w", "sigma_x", "sigma_y", "width"):
        # Gaussians divide by width^2; a float power that overflows raises
        if key in st and not (sys.float_info.min <= st[key] * st[key]
                              <= sys.float_info.max):
            raise ConfigError(
                f"config.state.{key} = {st[key]:.6g}: {key}^2 must be a "
                f"normal double ({np.sqrt(sys.float_info.min):.6g} <= {key} "
                f"<= {np.sqrt(sys.float_info.max):.6g})")
    for key, axis in (("sigma_x", "x"), ("sigma_y", "y"), ("width", "y")):
        # at width >= step/4 the point nearest a center keeps e^-2 of |g|^2
        if key not in st:
            continue
        step = (grid[f"{axis}_max"] - grid[f"{axis}_min"]) / grid[f"n_{axis}"]
        if not st[key] >= step / 4.0:
            raise ConfigError(
                f"config.state.{key} = {st[key]:.6g} is below d{axis} / 4 "
                f"(d{axis} = {step:.6g}): the grid cannot resolve it")
    if "c" in st:
        c = parse_complex_list(st["c"])
        if abs(np.sum(np.abs(c) ** 2) - 1.0) > COEFF_TOL:
            raise ConfigError("config.state.c must be unit-norm within 1e-10")

    return ScenarioConfig(**merged)
