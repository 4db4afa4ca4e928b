"""Command-line front end.

Subcommands map onto the scenario runners plus the invariant battery:

    cwflab fig1     --seed 7 --trials 10000
    cwflab planes   --bs on --plane B --format json
    cwflab density  --out run3
    cwflab order    --trials 1000000
    cwflab selftest

density writes no records, so it takes no --trials or --format.

Exit codes: 0 all checks passed, 2 configuration or validation error,
3 a numerical check failed. Identical flags and config produce
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
        "planes": "two-packet scan with detection planes A/B/C",
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
            p.add_argument("--format", choices=("csv", "json"),
                           help="records container format")
        if name == "planes":
            p.add_argument("--plane", choices=("A", "B", "C"),
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
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CwflabError("config must be a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        data["n_trials"] = args.trials
    if args.out is not None:
        data["output_dir"] = args.out
    if getattr(args, "format", None) is not None:
        _set_flag(data, "report", "format", args.format)
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


def _pass_lines(node, prefix: str):
    """One (label, ok) pair per machine-checkable 'pass' field."""
    lines = []
    if isinstance(node, dict):
        if "pass" in node and isinstance(node["pass"], bool) and prefix:
            label = prefix
            if "name" in node:
                label = f"{prefix.rsplit('.', 1)[0]}.{node['name']}" \
                    if "." in prefix else str(node["name"])
            lines.append((label, node["pass"]))
        for key, value in node.items():
            if key in ("pass", "config"):
                continue
            child = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_pass_lines(value, child))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            lines.extend(_pass_lines(value, f"{prefix}[{i}]"))
    return lines


def _print_report(report: dict, stream) -> None:
    for label, ok in _pass_lines(report, ""):
        print(("PASS" if ok else "FAIL") + " " + label, file=stream)
    overall = report.get("pass", False)
    print(("PASS" if overall else "FAIL")
          + f" {report.get('scenario', 'run')} overall", file=stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout

    if args.command == "selftest":
        report = run_selftest()
        _print_report(report, out)
        if args.out:
            path = reports.emit(args.out, report)
            print(f"wrote {path}", file=out)
        return 0 if report["pass"] else 3

    scenario, runner = COMMANDS[args.command]
    try:
        data = _load_data(args)
        cfg = parse_config(data, scenario=scenario)
        result = runner(cfg)
    except json.JSONDecodeError as e:
        print(f"config error: {args.config}:{e.lineno}:{e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CwflabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = result["report"]
    path = reports.emit(cfg.output_dir, report,
                        records=result.get("records"),
                        wf_tables=result.get("wf_tables"),
                        fmt=cfg.report["format"] if cfg.report else None)
    _print_report(report, out)
    print(f"wrote {path}", file=out)
    return 0 if report["pass"] else 3


if __name__ == "__main__":
    sys.exit(main())
