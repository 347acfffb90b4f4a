"""The bench harness's tracer, installed over the package, changes no
output: a refactor that leaves a wrapped target or a count probe reading
what is no longer there would crash `perfbench/run.py --trace 1`.  A
traced pass must also yield every per-layer metric that BENCHMARK.json
declares: the tracer leaves a metric out, without failing, when an
algebra no longer has the private table it counts."""

import json
import math
from pathlib import Path

from borelschur import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

JOBS = [
    "basis --n 2 --r 2 --char 2",
    "verify-iso --n 2 --r 2 --char 2",
    "resolve --n 3 --char 2 --length 3 --height 4",
    "transport --n 2 --r 2 --char 2 --lambda 1,1 --length 4 --height 4",
    "transport --n 3 --r 2 --char 2 --lambda 1,1,0 --length 3 --height 4"
    " --cache {cache}",
    "check-ideals --n 3 --r 2 --char 3",
]


def run_jobs(capsys, cache, tracer=None):
    """Every job once, each between begin_job and end_job as the bench's
    passes run them; [(exit code, stdout)]."""
    out = []
    for k, job in enumerate(JOBS):
        if tracer is not None:
            tracer.begin_job(k)
        code = cli.main(job.format(cache=cache).split())
        if tracer is not None:
            tracer.end_job()
        out.append((code, capsys.readouterr().out))
    return out


def test_traced_jobs_match_untraced(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cache = tmp_path / "cache.json"
    # writes the cache, which the traced run then reads
    untraced = run_jobs(capsys, cache)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_jobs(capsys, cache, tracer)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(code == 0 for code, _ in untraced)
    agg, counts = tracer.take()
    assert agg["cli.main"][0] == len(JOBS)
    assert agg["divided_powers.DividedPowerAlgebra.load_cache"][0] == 1

    # the worker adds the trace.* metrics, which time whole passes
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if not m["name"].startswith("trace.")}
    metrics = tracing.layer_metrics(agg, counts)
    assert set(metrics) == set(declared)
    for name, (value, unit) in metrics.items():
        assert unit == declared[name], name
        assert isinstance(value, (int, float)) and math.isfinite(value), name
