"""One fresh interpreter's measurement of a workload; run.py starts it.

    python3 cwfbench/child.py MODE WORKLOAD SEED SECONDS WORK_DIR

MODE is one of
  setup    import `cwflab.labcli.cli` and parse the workload's configs
  cold     setup, then one cold iteration
  measure  setup, one cold iteration, then warm iterations for SECONDS
           (at least two, unless WARM_DEADLINE_S comes first)
  trace    setup, cold and warm iterations untraced, one traced iteration

An iteration runs every scenario of the workload once, in this process,
through `cwflab.labcli.cli.main`. The last line of standard output is one
JSON object with the measurements.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# no warm iteration may end later than this after the process starts, so
# that a seed whose iterations run several times longer still lets the
# whole benchmark run end within 180 s
WARM_DEADLINE_S = 120.0
STARTED = time.perf_counter()


def load_cli(run_list):
    """Import the command line and parse every config; (cli, seconds)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from cwflab.labcli import cli
    from cwflab.labcli.config import parse_config
    for run in run_list:
        if run.config_path is not None:
            with open(run.config_path) as fh:
                parse_config(json.load(fh))
    seconds = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"cwflab was imported from {cli.__file__}, "
                           f"not from {SRC}")
    return cli, seconds


def _digest(out_dir: str) -> str:
    """Hash of every artifact's relative path and bytes."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _failed_checks(node, path="") -> list:
    """Paths of a report's sub-checks that say `"pass": false`, each with
    the p-values it holds, so that a failed run shows why."""
    found = []
    if isinstance(node, dict):
        if path and node.get("pass") is False:
            p = [f"{k} p={v['p_value']:.3g}" for k, v in node.items()
                 if isinstance(v, dict) and "p_value" in v]
            found.append(path + (f" ({', '.join(p)})" if p else ""))
        for key, value in node.items():
            found += _failed_checks(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found += _failed_checks(value, f"{path}[{i}]")
    return found


class Checker:
    """Counts scenario runs and the failed ones.

    A run fails if it raises or exits non-zero, if its report.json does not
    say `"pass": true`, or if its artifacts differ in any byte from the
    first run of the same (config, seed, out path) in this process.
    `digests` keeps those first artifacts' hashes, so that run.py can
    compare them across processes.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}

    def check(self, run, rc) -> None:
        self.attempted += 1
        problem = None
        report_path = os.path.join(run.out_dir, "report.json")
        report = {}
        if os.path.isfile(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        if rc != 0 or report.get("pass") is not True:
            problem = (f"exit code {rc}, report.json pass = "
                       f"{report.get('pass')}; failed checks: "
                       f"{', '.join(_failed_checks(report)) or '-'}")
        else:
            digest = _digest(run.out_dir)
            if self.digests.setdefault(run.name, digest) != digest:
                problem = "artifacts differ from the first run"
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{run.name}: {problem}")


def _main_call(cli, argv):
    """cli.main's exit code, with its output captured; None if it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        return None


def iteration(cli, run_list, checker: Checker) -> float:
    """Run every scenario once; wall seconds, artifact emission included."""
    gc.collect()
    t0 = time.perf_counter()
    codes = [_main_call(cli, run.argv) for run in run_list]
    seconds = time.perf_counter() - t0
    for run, rc in zip(run_list, codes):
        checker.check(run, rc)
    return seconds


def _measure(cli, run_list, checker: Checker, seconds: float) -> dict:
    """A cold iteration, then warm ones for `seconds` (none if 0)."""
    out = {"cold_s": iteration(cli, run_list, checker)}
    if seconds:
        warm = []
        t0 = time.perf_counter()
        while len(warm) < 2 or time.perf_counter() - t0 < seconds:
            if warm and (time.perf_counter() - STARTED + warm[-1]
                         > WARM_DEADLINE_S):
                break
            warm.append(iteration(cli, run_list, checker))
        out["warm_s"] = warm
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_counts(cli, run_list, checker: Checker):
    """(tracer, traced seconds) of one traced iteration."""
    import layers
    with layers.Tracer() as tracer:
        seconds = iteration(cli, run_list, checker)
    return tracer, seconds


def _trace(cli, run_list, checker: Checker) -> dict:
    import layers
    iteration(cli, run_list, checker)
    untraced = iteration(cli, run_list, checker)
    tracer, traced = traced_counts(cli, run_list, checker)
    return {"metrics": layers.metrics(tracer.counts, traced - untraced),
            "absent": tracer.absent, "restored": tracer.restored()}


def _stamp() -> dict:
    """Versions of the numerical stack and the BLAS it runs on."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main(argv) -> int:
    mode, workload, seed, seconds, work_dir = argv
    if mode not in ("setup", "cold", "measure", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    run_list = workloads.runs(workload, int(seed), work_dir)
    cli, setup_s = load_cli(run_list)
    result = {"setup_s": setup_s}
    if mode != "setup":
        checker = Checker()
        if mode == "trace":
            result.update(_trace(cli, run_list, checker))
        else:
            result.update(_measure(cli, run_list, checker,
                                   float(seconds) if mode == "measure" else 0))
        result.update(attempted=checker.attempted, failed=checker.failed,
                      errors=checker.errors, digests=checker.digests,
                      stamp=_stamp())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
