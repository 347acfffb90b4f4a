"""Seeded job generators for the bench workloads.

A job is the argv list handed to ``borelschur.cli.main``.  Every workload
has a fixed job mix and the seed fixes the order of its jobs.  Drawing
the characteristic or the weight by seed would change the work itself
(one job costs up to twice another of the same shape), so two seeds would
measure different amounts of work; with a fixed mix the run-to-run spread
measures the program, not the draw.

Nothing here imports ``borelschur``: the compositions, the reachable
heights and the dimension oracle are computed independently, so they can
check the program's answers.
"""

import random
from math import comb

# sweep: the rank and height of the structure-constant cache written in set-up
SWEEP_CACHE = (3, 16)

# the workload names in the order BENCHMARK.json lists them
NAMES = ("iso", "ideals", "resolve", "sweep")

# transport at every composition of (3, 4): uncached in resolve, read
# through the sweep's cache file in sweep
TRANSPORT = {"n": 3, "r": 4, "length": 6, "height": 8, "char": 2}


def compositions(n, r):
    """All compositions of r with n non-negative parts, in lex order."""
    if n == 1:
        return [(r,)]
    return [(first,) + rest
            for first in range(r + 1)
            for rest in compositions(n - 1, r - first)]


def max_reachable_height(lam, r):
    """Largest height of mu - lam over compositions mu dominating lam.

    (r, 0, ..., 0) dominates every composition and maximises each prefix
    sum, so the height is sum over k < n of (r - lam_1 - ... - lam_k).
    """
    total = 0
    prefix = 0
    for part in lam[:-1]:
        prefix += part
        total += r - prefix
    return total


def oracle_dim(n, r):
    """dim S+(n, r): upper-triangular n x n matrices with entry sum r."""
    return comb(n * (n + 1) // 2 + r - 1, r)


def _argv(command, **flags):
    argv = [command]
    for key, value in flags.items():
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        argv += [f"--{key}", str(value)]
    return argv


def transport_job(n, r, lam, length, height, char, cache=None):
    """A transport job, refused unless its height covers every reachable weight.

    An incomplete cutoff fails exactness by design, which would read as a
    failure that is not a defect.
    """
    lam = tuple(lam)
    if len(lam) != n or sum(lam) != r or min(lam) < 0:
        raise ValueError(f"{lam} is not a composition of {r} with {n} parts")
    if height < max_reachable_height(lam, r):
        raise ValueError(f"height {height} does not cover lambda {lam}")
    argv = _argv("transport", n=n, r=r, char=char, **{"lambda": lam},
                 length=length, height=height)
    if cache is not None:
        argv += ["--cache", cache]
    return argv


def _iso_jobs():
    return [_argv("verify-iso", n=n, r=r, char=char)
            for n, r in ((2, 5), (3, 3), (4, 2))
            for char in (0, 2, 3)]


def _ideals_jobs():
    return [_argv("check-ideals", n=n, r=r, char=char)
            for n, r, char in ((3, 4, 3), (4, 2, 2), (3, 3, 0))]


def _resolve_fixed():
    return [_argv("resolve", n=3, char=2, length=5, height=12),
            _argv("resolve", n=4, char=3, length=4, height=7)]


def _transport_jobs(cache=None):
    t = TRANSPORT
    return [transport_job(t["n"], t["r"], lam, t["length"], t["height"],
                          t["char"], cache=cache)
            for lam in compositions(t["n"], t["r"])]


def jobs(name, seed, cache=None):
    """The workload's job list for this seed.

    ``cache`` is the path of the sweep cache file; other workloads take none.
    """
    if name == "sweep" and cache is None:
        raise ValueError("sweep needs the cache path")
    out = universe(name, cache)
    random.Random(f"{name}:{seed}").shuffle(out)
    return out


def universe(name, cache=None):
    """Every job the workload runs, in a fixed order."""
    if name == "iso":
        return _iso_jobs()
    if name == "ideals":
        return _ideals_jobs()
    if name == "resolve":
        return _resolve_fixed() + _transport_jobs()
    if name == "sweep":
        return _transport_jobs(cache)
    raise ValueError(f"unknown workload {name!r}")
