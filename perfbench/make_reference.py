"""Record the reference payload digests the gate compares against.

    python3 perfbench/make_reference.py [--commit REV]

Run it from the root of a borelschur source tree.  Every job that any
seed of any workload can emit is run once without a cache; each must exit
0 and pass the verdict and oracle checks before its sha256 is written to
perfbench/reference.json.  Re-record only on a commit whose payloads are
trusted: the gate holds every later commit to these bytes.
"""

import argparse
import json
import os
import platform
import sys

import gate
import workloads
from worker import call_cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="unknown",
                        help="the source revision the digests are taken at")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from borelschur import cli

    digests = {}
    for name in workloads.NAMES:
        for argv_ in workloads.universe(name):
            rc, payload = call_cli(cli, argv_)
            problems = ([f"exit code {rc!r}"] if rc != 0
                        else gate.verdict_problems(argv_, payload))
            if problems:
                print(f"refusing to record {gate.job_key(argv_)}: {problems}",
                      file=sys.stderr)
                return 1
            digests[gate.job_key(argv_)] = gate.digest(payload)
            print(f"{gate.digest(payload)[:12]} {gate.job_key(argv_)}")
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump({"commit": args.commit, "python": platform.python_version(),
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
