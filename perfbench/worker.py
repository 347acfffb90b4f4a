"""One workload run in a fresh interpreter: set-up, timed passes, gate.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Set-up imports ``borelschur``, generates the seeded job list and, for
``sweep``, writes the structure-constant cache file.  With
``--setup-only`` the process stops there, so the caller can time a fresh
interpreter's set-up.  Otherwise it runs the whole job list again and
again, one job at a time through ``borelschur.cli.main``, for about S
seconds.  Each job's payload is checked by the gate after its pass,
outside the timed region.  Between jobs a fixed reference loop (the
yardstick) is timed, so pass times can also be read relative to the
host's speed at that moment.  With ``--trace 1`` the first half of the time
runs untraced passes and the second half traced ones.  The last line of
standard output is one JSON object with the measurements.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import gate
import tracing
import workloads


def call_cli(cli, argv):
    """Run one job in-process; (exit code, payload written to stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc = f"crash: {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def set_up(name, seed, workdir):
    """Import the program and build the job list; (cli module, jobs)."""
    from borelschur import cli
    cache = None
    if name == "sweep":
        from borelschur.divided_powers import DividedPowerAlgebra
        rank, height = workloads.SWEEP_CACHE
        cache = os.path.join(workdir, f"structure-constants-{rank}-{height}.json")
        DividedPowerAlgebra(rank).save_cache(cache, height)
    return cli, workloads.jobs(name, seed, cache=cache)


def reference_loop():
    """A fixed pure-Python loop of the program's kind of work (rationals,
    tuple-keyed dicts, small allocations): the yardstick."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i, 7)
        key = (i % 97, (i * 31) % 1009)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def yardstick(walls, cpus):
    """Time the reference loop twice, appending wall and CPU seconds."""
    for _ in range(2):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        reference_loop()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)


def run_pass(cli, jobs, tracer=None, label=""):
    """Every job once; ({"wall", "cpu", "wall_rel", "cpu_rel"}, results).

    wall and cpu add up the jobs' own times.  The host's speed swings by
    a third and more over seconds, so the yardstick runs before the first
    job and after each job, outside the timed region, and wall_rel and
    cpu_rel divide the pass's time by the yardstick's mean time: the pass
    in units of the reference loop, measured at the same host speed.
    results is [(argv, exit code, payload)].
    """
    gc.collect()
    results = []
    wall = cpu = 0.0
    yard_walls, yard_cpus = [], []
    yardstick(yard_walls, yard_cpus)
    for k, argv in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(f"{label}{k}")
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        rc, payload = call_cli(cli, argv)
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        if tracer is not None:
            tracer.end_job()
        yardstick(yard_walls, yard_cpus)
        results.append((argv, rc, payload))
    times = {"wall": wall, "cpu": cpu,
             "wall_rel": wall / statistics.mean(yard_walls),
             "cpu_rel": cpu / statistics.mean(yard_cpus)}
    return times, results


def run_passes(cli, jobs, seconds, reference, tracer=None, label=""):
    """Passes until the next one would end more than half a pass after
    `seconds` (at least one).

    Returns ({"wall": [...], "cpu": [...], ...} per pass, per-pass tracer
    totals, attempted, failures).
    """
    series = {}
    totals = []
    attempted = 0
    failures = []
    start = time.perf_counter()
    while True:
        times, results = run_pass(cli, jobs, tracer, f"{label}{len(totals)}.")
        for key, value in times.items():
            series.setdefault(key, []).append(value)
        totals.append(tracer.take() if tracer is not None else None)
        for argv, rc, payload in results:
            attempted += 1
            found = gate.problems(argv, rc, payload, reference)
            if found:
                failures.append({"job": gate.job_key(argv), "problems": found})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(series["wall"]) / 2 > seconds:
            return series, totals, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # set-up is traced too, for the time sweep spends writing its cache
        tracer.install()
        tracer.begin_job("setup")
    cli, jobs = set_up(args.workload, args.seed, args.workdir)
    if args.setup_only:
        return 0
    setup_totals = None
    if tracer is not None:
        tracer.end_job()
        setup_totals = tracer.take()
        tracer.uninstall()

    reference = gate.load_reference()
    budget = args.seconds / 2 if tracer is not None else args.seconds
    series, _, attempted, failures = run_passes(cli, jobs, budget, reference)
    result = {key: statistics.median(values) for key, values in series.items()}
    result["jobs"] = [gate.job_key(j) for j in jobs]
    result["walls"] = series["wall"]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.install()
        t_series, totals, t_attempted, t_failures = run_passes(
            cli, jobs, budget, reference, tracer, "traced.")
        tracer.uninstall()
        attempted += t_attempted
        failures += t_failures
        per_pass = [tracing.layer_metrics(*t) for t in totals]
        layers = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                  for name, (_, unit) in per_pass[0].items()}
        # sweep writes its cache in set-up, outside every job
        saved = setup_totals[0].get("divided_powers.DividedPowerAlgebra.save_cache")
        if saved is not None:
            value, unit = layers["divided_powers.save_cache.self_s"]
            layers["divided_powers.save_cache.self_s"] = (value + saved[2], unit)
        traced_wall = statistics.median(t_series["wall"])
        layers["trace.untraced_wall_s"] = (result["wall"], "s")
        layers["trace.untraced_cpu_s"] = (result["cpu"], "s")
        layers["trace.traced_wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - result["wall"], "s")
        # the same overhead from yardstick-relative times, which the host's
        # speed swings between the two halves of the run do not move
        layers["trace.overhead_ratio"] = (
            statistics.median(t_series["wall_rel"]) / result["wall_rel"] - 1,
            "ratio")
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()}
        with open(os.path.join(args.workdir, "spans.json"), "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "job"],
                       "spans": tracer.spans}, fh)
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
