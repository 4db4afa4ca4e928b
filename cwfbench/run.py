"""cwflab benchmark: time to a verified report set, per scenario workload.

    python3 cwfbench/run.py --workload {collapse,scan,ordering,battery}
                            --seed N --seconds S --trace {0,1}

It imports cwflab from the `src/` beside its own directory and builds
nothing; without that `src/` it exits 2. Each measurement runs in a fresh
interpreter started by this script, one at a time (cwfbench/child.py), with
BLAS threads capped at the number of usable cores:

  --trace 0  end-to-end metrics, tracing off:
             wall_s       median warm iteration of one process, over S
                          seconds of them and at least two
             cold_s       median first iteration of fresh processes, after
                          setup: the measuring one, plus as many more as
                          fit in S/2 seconds
             setup_s      median import + config parse of every fresh
                          interpreter (at least three)
             peak_rss_mb  peak resident memory of the measuring process
  --trace 1  per-layer metrics (cwfbench/layers.py) from one traced
             iteration, and the tracing overhead against an untraced one.

Every scenario run must exit 0, write `"pass": true` and reproduce its
artifacts byte for byte; `attempted` and `failed` count them, so
fail_ratio = failed / attempted. Artifacts go to a scratch directory under
`.cwfbench/` in the checkout, removed on exit. The last line of standard
output is the JSON result; the lines before it give the environment stamp
and every metric by name with its unit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI_SOURCE = os.path.join(ROOT, "src", "cwflab", "labcli", "cli.py")
SCRATCH = os.path.join(ROOT, ".cwfbench")

SETUP_SAMPLES = 3    # fresh interpreters timed for setup_s, at least
DEADLINE_S = 170.0   # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("cold_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _blas_threads() -> int:
    """Threads for BLAS: the caller's setting, but at most the usable cores."""
    cores = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    return max(1, min(wanted, cores))


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class _Children:
    """Starts child.py processes one after another under one deadline."""

    def __init__(self, workload, seed, seconds, work_dir, threads):
        self.args = [workload, str(seed), str(seconds), work_dir]
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                        OMP_NUM_THREADS=str(threads))
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, mode: str) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, *self.args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"child.py {mode} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _combine(results) -> dict:
    """Run counts of several processes; runs whose artifacts differ from
    the first process's count as failed too."""
    first = results[0]
    out = {"attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "errors": [e for r in results for e in r["errors"]]}
    for r in results[1:]:
        for name, digest in r["digests"].items():
            if first["digests"].get(name, digest) != digest:
                out["failed"] += 1
                out["errors"].append(
                    f"{name}: artifacts differ between fresh processes")
    return out


def _measure(children, seconds: float, trace: bool):
    """(run counts and stamp, {metric: value})."""
    if trace:
        res = children("trace")
        return res, res["metrics"]
    main = children("measure")
    # short cold iterations are noisy, so repeat them in fresh processes
    # while that fits in half of `seconds`
    more = int(0.5 * seconds // (main["setup_s"] + main["cold_s"]))
    fresh = [main] + [children("cold") for _ in range(more)]
    setups = [r["setup_s"] for r in fresh]
    setups += [children("setup")["setup_s"]
               for _ in range(SETUP_SAMPLES - len(setups))]
    res = dict(_combine(fresh), stamp=main["stamp"])
    return res, {"wall_s": statistics.median(main["warm_s"]),
                 "cold_s": statistics.median([r["cold_s"] for r in fresh]),
                 "setup_s": statistics.median(setups),
                 "peak_rss_mb": main["peak_rss_mb"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(CLI_SOURCE):
        print(f"error: no cwflab sources at {CLI_SOURCE}; run the benchmark "
              "from a cwflab checkout", file=sys.stderr)
        return 2

    threads = _blas_threads()
    os.makedirs(SCRATCH, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        workloads.write_configs(workloads.runs(args.workload, args.seed,
                                               work_dir))
        children = _Children(args.workload, args.seed, args.seconds,
                             work_dir, threads)
        res, values = _measure(children, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)   # only if no other run is using it
        except OSError:
            pass

    stamp = dict(res["stamp"], blas_threads=threads,
                 nproc=len(os.sched_getaffinity(0)),
                 machine=platform.machine(), git_commit=_git_commit())
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    restored = res.get("restored", True)

    print(json.dumps({"env": stamp}, sort_keys=True))
    for line in res["errors"]:
        print(f"FAILED {line}")
    if not restored:
        print("FAILED the tracer left a wrapper in place")
    if args.trace:
        for layer in layers.LAYERS:
            state = " (absent)" if layer.name in res["absent"] else ""
            print(f"layer {layer.name}{state} should move {layer.moves}")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} scenario runs)")
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name} {text} {m['unit']}")
    correct = res["failed"] == 0 and restored
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
