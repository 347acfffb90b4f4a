"""Bench entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a borelschur source tree.  Workloads: iso,
ideals, resolve, sweep (see perfbench/README.md).  The load is a closed
loop with one client: jobs run one after another in one fresh Python
process, with no threads and no subprocess fan-out.

``setup_s`` is the median over several fresh interpreters, each timed
from start to exit, that import ``borelschur`` and generate the
workload's inputs (for ``sweep`` this writes its cache file).  A separate
worker process then measures the passes.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of the traced passes, and the spans are
written to ``.bench_work/spans-<workload>-<seed>.json``.

Exit code 0 with a result line, 2 on a usage error or a missing source
tree, 1 when a step of the benchmark itself fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# sweep's set-up writes a 1 MB cache, so it is sampled fewer times
SETUP_REPEATS = {"sweep": 3}
DEFAULT_SETUP_REPEATS = 7
DEADLINE_S = 170


def _worker_argv(args, workdir, *extra):
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--workdir", workdir, *extra]


def time_setup(args, workdir, repeats, timeout):
    """Wall seconds of `repeats` fresh set-up processes.

    A blocking wait returns as soon as the child exits; a wait with a
    timeout polls, which would round every sample up to its poll step.
    The deadline is kept by a timer that kills the child instead.
    """
    times = []
    for k in range(repeats):
        sub = os.path.join(workdir, f"setup-{k}")
        os.mkdir(sub)
        start = time.perf_counter()
        proc = subprocess.Popen(_worker_argv(args, sub, "--setup-only"),
                                stdout=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
        shutil.rmtree(sub)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "borelschur", "cli.py")):
        print("error: run from the root of a borelschur source tree "
              "(src/borelschur/cli.py not found)", file=sys.stderr)
        return 2

    started = time.perf_counter()
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        setup_times = time_setup(
            args, workdir, SETUP_REPEATS.get(args.workload, DEFAULT_SETUP_REPEATS),
            timeout=DEADLINE_S / 3)
        proc = subprocess.run(
            _worker_argv(args, workdir, "--trace", str(args.trace)),
            capture_output=True, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(
                base, f"spans-{args.workload}-{args.seed}.json"))
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {len(result['jobs'])} jobs; "
          f"median pass wall {result['wall']:.4f} s, cpu {result['cpu']:.4f} s; "
          f"untraced pass walls {[round(t, 4) for t in result['walls']]}; "
          f"setup samples "
          f"{[round(t, 4) for t in setup_times]}; fail_frac "
          f"{failed / attempted:.4f} ({failed}/{attempted})", file=sys.stderr)
    for failure in result["failures"]:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_rel": {"value": result["wall_rel"], "unit": "yardsticks"},
            "cpu_rel": {"value": result["cpu_rel"], "unit": "yardsticks"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
