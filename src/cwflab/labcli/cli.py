"""Command-line front end.

Subcommands map onto the scenario runners plus the invariant battery:

    cwflab fig1     --seed 7 --trials 10000
    cwflab planes   --bs on --plane B
    cwflab density  --out run3
    cwflab order    --trials 1000000
    cwflab selftest

density writes no records, so it takes no --trials.

Exit codes: 0 all checks passed, 2 configuration, validation or output
error, 3 a numerical check failed. Identical flags and config produce
byte-identical artifacts.
"""

import argparse
import json
import sys

from ..errors import CwflabError
from . import reports
from .config import DEFAULTS, ConfigError, parse_config
from .density import run_density_dm
from .fig1 import run_fig1
from .order import run_order_invariance
from .planes import run_photon_planes
from .selftest import run_selftest

# command: (scenario, runner, help); selftest's scenario has no DEFAULTS
COMMANDS = {
    "fig1": ("fig1_collapse", run_fig1,
             "impulsive measurement collapsing the conditional wave"),
    "planes": ("photon_planes", run_photon_planes,
               "two-packet scan with detection planes A/B"),
    "density": ("density_dm", run_density_dm,
                "polarization density-matrix reconstruction"),
    "order": ("order_invariance", run_order_invariance,
              "operation-ordering invariance study"),
    "selftest": ("selftest", run_selftest,
                 "run the cross-module invariant battery"),
}


def run(command: str, data: dict) -> dict:
    """Run a key of COMMANDS in process and write nothing; data is its
    config object with the flags applied (selftest: only output_dir).
    Returns the report, stamped with scenario, config echo and pass (all
    checks pass), the records and wf_tables that reports.emit writes, and
    output_dir (None: no artifacts). Raises CwflabError where main exits 2."""
    scenario, runner, _ = COMMANDS[command]
    if scenario in DEFAULTS:
        cfg = parse_config(data, scenario=scenario)
        result, output_dir = runner(cfg), cfg.output_dir
        echo = {"config": cfg.to_dict()}
    elif set(data) - {"output_dir"}:
        raise ConfigError(f"{command} takes no config but output_dir")
    else:
        result, output_dir, echo = runner(), data.get("output_dir"), {}
    report = {"scenario": scenario, **echo, **result["report"],
              "pass": all(c["pass"] for c in result["report"]["checks"])}
    return {"report": report, "records": result.get("records"),
            "wf_tables": result.get("wf_tables"), "output_dir": output_dir}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwflab",
        description="Weak-measurement laboratory scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (scenario, _, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", help="write the artifacts here")
        keys = DEFAULTS.get(scenario)
        if keys is None:  # the battery takes no config
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config.seed")
        if "n_trials" in keys:
            p.add_argument("--trials", type=int,
                           help="override config.n_trials")
        if "plane" in keys["protocol"]:
            p.add_argument("--plane", choices=("A", "B"),
                           help="detection plane")
            p.add_argument("--bs", choices=("on", "off"),
                           help="insert or remove the beam splitter")
    return parser


def _load_data(args) -> dict:
    flags = vars(args)
    data = {}
    if flags.get("config"):
        with open(flags["config"], encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CwflabError("config must be a JSON object")
    for flag, key in (("seed", "seed"), ("trials", "n_trials"),
                      ("out", "output_dir")):
        if flags.get(flag) is not None:
            data[key] = flags[flag]
    if flags.get("plane") is not None:
        _set_flag(data, "protocol", "plane", flags["plane"])
    if flags.get("bs") is not None:
        _set_flag(data, "protocol", "bs_inserted", flags["bs"] == "on")
    return data


def _set_flag(data: dict, section: str, key: str, value) -> None:
    """Write a flag into its config section; a section that is not an
    object is left for parse_config to refuse."""
    if isinstance(data.setdefault(section, {}), dict):
        data[section][key] = value


def _print_report(report: dict) -> None:
    """One PASS/FAIL line per check, then the overall verdict."""
    lines = [(c["pass"], c["name"]) for c in report["checks"]]
    lines.append((report["pass"], f"{report['scenario']} overall"))
    for ok, label in lines:
        print("PASS" if ok else "FAIL", label)


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = run(args.command, _load_data(args))
    except json.JSONDecodeError as e:
        return _fail(f"config error: {args.config}:{e.lineno}:"
                     f"{e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        return _fail(f"config error: {args.config}: {e}")
    except OSError as e:
        return _fail(f"config error: {e}")
    except CwflabError as e:
        return _fail(f"error: {e}")

    report = result["report"]
    _print_report(report)
    if result["output_dir"] is not None:
        try:
            path = reports.emit(result["output_dir"], report,
                                records=result["records"],
                                wf_tables=result["wf_tables"])
        except OSError as e:
            return _fail(f"output error: {e}")
        print(f"wrote {path}")
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
