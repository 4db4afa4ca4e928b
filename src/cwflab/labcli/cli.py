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
from .config import parse_config
from .density import run_density_dm
from .fig1 import run_fig1
from .order import run_order_invariance
from .planes import run_photon_planes
from .selftest import run_selftest

COMMANDS = {
    "fig1": ("fig1_collapse", run_fig1),
    "planes": ("photon_planes", run_photon_planes),
    "density": ("density_dm", run_density_dm),
    "order": ("order_invariance", run_order_invariance),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwflab",
        description="Weak-measurement laboratory scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "fig1": "impulsive measurement collapsing the conditional wave",
        "planes": "two-packet scan with detection planes A/B",
        "density": "polarization density-matrix reconstruction",
        "order": "operation-ordering invariance study",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config.seed")
        p.add_argument("--out", help="override config.output_dir")
        if name != "density":
            p.add_argument("--trials", type=int,
                           help="override config.n_trials")
        if name == "planes":
            p.add_argument("--plane", choices=("A", "B"),
                           help="detection plane")
            p.add_argument("--bs", choices=("on", "off"),
                           help="insert or remove the beam splitter")
    p = sub.add_parser("selftest", help="run the cross-module invariant "
                                        "battery")
    p.add_argument("--out", help="also write report.json here")
    return parser


def _load_data(args) -> dict:
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CwflabError("config must be a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        data["n_trials"] = args.trials
    if args.out is not None:
        data["output_dir"] = args.out
    if getattr(args, "plane", None) is not None:
        _set_flag(data, "protocol", "plane", args.plane)
    if getattr(args, "bs", None) is not None:
        _set_flag(data, "protocol", "bs_inserted", args.bs == "on")
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

    if args.command == "selftest":
        result, out_dir = {"report": run_selftest()}, args.out
    else:
        scenario, runner = COMMANDS[args.command]
        try:
            cfg = parse_config(_load_data(args), scenario=scenario)
            result = runner(cfg)
        except json.JSONDecodeError as e:
            return _fail(f"config error: {args.config}:{e.lineno}:"
                         f"{e.colno}: {e.msg}")
        except UnicodeDecodeError as e:
            return _fail(f"config error: {args.config}: {e}")
        except OSError as e:
            return _fail(f"config error: {e}")
        except CwflabError as e:
            return _fail(f"error: {e}")
        out_dir = cfg.output_dir

    report = result["report"]
    _print_report(report)
    if out_dir is not None:
        try:
            path = reports.emit(out_dir, report,
                                records=result.get("records"),
                                wf_tables=result.get("wf_tables"))
        except OSError as e:
            return _fail(f"output error: {e}")
        print(f"wrote {path}")
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
