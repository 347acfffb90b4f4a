"""Gate self-check: good payloads pass the gate, damaged ones do not.

    python3 perfbench/selfcheck.py

Run it from the root of a borelschur source tree.  For each workload the
smallest job it can emit runs once (sweep's through a freshly written
cache file) and must pass the gate; the same payload with one byte
changed must fail it.  A transport job whose weight is not a composition
must exit 2 and fail the gate.  Prints one line per expectation and exits
0 when all of them hold, 1 otherwise.
"""

import os
import shutil
import sys
import tempfile

import gate
import workloads
from worker import call_cli, set_up


def _size(argv):
    flag = gate.int_flag
    return ((flag(argv, "--r") or 0) + (flag(argv, "--height") or 0),
            flag(argv, "--n"), argv)


def _corrupt(payload):
    k = len(payload) // 2
    return payload[:k] + chr(ord(payload[k]) ^ 1) + payload[k + 1:]


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    reference = gate.load_reference()
    base = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=base)
    held = []

    def expect(ok, text):
        held.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {text}")

    try:
        for name in workloads.NAMES:
            cli, jobs = set_up(name, 0, workdir)
            argv = min(jobs, key=_size)
            rc, payload = call_cli(cli, argv)
            found = gate.problems(argv, rc, payload, reference)
            expect(not found, f"{name}: `{gate.job_key(argv)}` passes the gate"
                   + (f" ({'; '.join(found)})" if found else ""))
            found = gate.problems(argv, rc, _corrupt(payload), reference)
            expect(bool(found), f"{name}: one byte changed fails the gate "
                   f"({'; '.join(found)})")
        argv = ["transport", "--n", "3", "--r", "4", "--lambda", "0,5,0"]
        rc, payload = call_cli(cli, argv)
        found = gate.problems(argv, rc, payload, reference)
        expect(rc == 2 and bool(found),
               f"usage error `{' '.join(argv)}` exits {rc!r} and fails the gate "
               f"({'; '.join(found)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(held) else 1


if __name__ == "__main__":
    sys.exit(main())
