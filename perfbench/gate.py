"""Correctness gate: decides whether one finished job counts as failed.

A job fails when its exit code is not 0, when a verdict field of its
payload is false, when a dimension disagrees with the independent oracle,
or when the payload's sha256 differs from the reference digest recorded
for the same job run without a cache.
"""

import hashlib
import json
import os

from workloads import oracle_dim

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"]


def job_key(argv):
    """The job without its --cache flag: cached and uncached runs share a key."""
    out = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--cache":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def digest(payload):
    return hashlib.sha256(payload.encode()).hexdigest()


def int_flag(argv, name):
    return int(argv[argv.index(name) + 1]) if name in argv else None


def verdict_problems(argv, payload):
    """Verdict and oracle checks on a JSON payload; [] when all hold."""
    try:
        data = json.loads(payload)
    except ValueError:
        return ["payload is not JSON"]
    command = argv[0]
    checks = {
        "basis": ("dimension_matches_formula",),
        "verify-iso": ("passed",),
        "check-ideals": ("passed",),
        "resolve": ("exact", "minimal"),
        "transport": ("verification.passed", "verification.complete"),
    }.get(command, ())
    problems = []
    for path in checks:
        value = data
        for part in path.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if value is not True:
            problems.append(f"{path} is {value!r}")
    dim_field = {"basis": "dimension", "verify-iso": "dim",
                 "check-ideals": "final_dim"}.get(command)
    if dim_field is not None:
        want = oracle_dim(int_flag(argv, "--n"), int_flag(argv, "--r"))
        if data.get(dim_field) != want:
            problems.append(f"{dim_field} {data.get(dim_field)!r} != oracle {want}")
    return problems


def problems(argv, rc, payload, reference):
    """Every reason the job fails the gate; [] when it passes."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    found = verdict_problems(argv, payload)
    want = reference.get(job_key(argv))
    if want is None:
        found.append("no reference digest")
    elif digest(payload) != want:
        found.append("payload digest differs from reference")
    return found
