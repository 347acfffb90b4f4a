"""Append one entry to the performance trajectory, perfbench/trajectory.jsonl.

    python3 perfbench/record.py --label NAME --commit REV [--seed N]

Run it from the root of a borelschur source tree.  Each workload runs once
untraced and once traced through perfbench/run.py with the given seed,
for the run_seconds of BENCHMARK.json.
The entry holds both result objects, the tracing overhead per workload,
and an informational record that is not a bench metric: the net
non-blank line count of src/borelschur, the Python version and the
number of processors.
"""

import argparse
import glob
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402


def source_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "borelschur", "*.py"))):
        with open(path) as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    entry = {
        "label": args.label,
        "commit": args.commit,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "seed": args.seed,
        "seconds": seconds,
        "info": {"src_nonblank_lines": source_lines(os.getcwd()),
                 "python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0))},
        "untraced": {},
        "traced": {},
        "trace_overhead_s": {},
    }
    for name in NAMES:
        entry["untraced"][name] = bench(name, args.seed, seconds, 0)
        entry["traced"][name] = bench(name, args.seed, seconds, 1)
        entry["trace_overhead_s"][name] = (
            entry["traced"][name]["metrics"]["trace.overhead_s"]["value"])
        print(f"{name}: untraced {entry['untraced'][name]['metrics']}")
    with open(os.path.join(HERE, "trajectory.jsonl"), "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
