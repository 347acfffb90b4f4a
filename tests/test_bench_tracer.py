"""The bench harness's tracer, installed over the package, changes no
output: a refactor that leaves a wrapped target or a count probe reading
what is no longer there would crash `perfbench/run.py --trace 1`."""

from pathlib import Path

from borelschur import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

JOBS = [
    "basis --n 2 --r 2 --char 2",
    "verify-iso --n 2 --r 2 --char 2",
    "resolve --n 3 --char 2 --length 3 --height 4",
    "transport --n 2 --r 2 --char 2 --lambda 1,1 --length 4 --height 4",
    "check-ideals --n 3 --r 2 --char 3",
]


def run_jobs(capsys):
    out = []
    for argv in JOBS:
        code = cli.main(argv.split())
        out.append((code, capsys.readouterr().out))
    return out


def test_traced_jobs_match_untraced(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    untraced = run_jobs(capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_jobs(capsys)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(code == 0 for code, _ in untraced)
    agg, _ = tracer.take()
    assert agg["cli.main"][0] == len(JOBS)
