import hashlib
import json
import os
import subprocess
import sys

import pytest

from borelschur import cli
from borelschur.cli import build_parser, main
from borelschur.divided_powers import DividedPowerAlgebra


def source_env():
    """Environment in which a child interpreter imports this source tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_basis_counts(capsys):
    code, out, err = run_cli(["basis", "--n", "2", "--r", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 6 and len(data["basis"]) == 6
    code, out, _ = run_cli(["basis", "--n", "3", "--r", "2"], capsys)
    assert json.loads(out)["dimension"] == 21
    code, out, _ = run_cli(["basis", "--n", "3", "--r", "0"], capsys)
    data = json.loads(out)
    assert data["dimension"] == 1
    assert data["basis"][0]["matrix"] == [[0, 0, 0]] * 3


def test_basis_csv(capsys):
    code, out, _ = run_cli(["basis", "--n", "2", "--r", "1", "--format", "csv"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,base,head,exponents"
    assert len(lines) == 4


def test_verify_iso(capsys):
    code, out, err = run_cli(["verify-iso", "--n", "2", "--r", "2",
                              "--char", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["dim"] == 6
    assert "pass" in err


def test_resolve(capsys):
    code, out, _ = run_cli(["resolve", "--n", "2", "--char", "2",
                            "--length", "2", "--height", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["betti"]["1"] == [[1], [2], [4]]
    assert data["exact"] and data["minimal"]
    code, out, _ = run_cli(["resolve", "--n", "2", "--char", "0",
                            "--length", "0", "--height", "2"], capsys)
    data = json.loads(out)
    assert data["betti"] == {"0": [[0]]}


def test_transport(capsys):
    code, out, _ = run_cli(["transport", "--n", "2", "--r", "2", "--char", "2",
                            "--lambda", "0,2", "--length", "6",
                            "--height", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["passed"]
    assert data["weights"][0] == [[0, 2]]
    assert sorted(tuple(w) for w in data["weights"][1]) == [(1, 1), (2, 0)]


def test_transport_csv(capsys):
    code, out, _ = run_cli(["transport", "--n", "2", "--r", "2", "--char", "2",
                            "--lambda", "0,2", "--length", "6", "--height", "4",
                            "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "degree,weight,count"


def test_check_ideals(capsys):
    code, out, _ = run_cli(["check-ideals", "--n", "2", "--r", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["steps"] == []
    code, out, _ = run_cli(["check-ideals", "--n", "3", "--r", "2",
                            "--char", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and len(data["steps"]) == 3
    assert all(s["two_idempotent"] for s in data["steps"])
    assert all(t["tor1"] == 0 and t["tor2"] == 0 for t in data["tor"])


def test_usage_errors(capsys):
    # bad weight: not a composition of r
    code, _, err = run_cli(["transport", "--n", "2", "--r", "2",
                            "--lambda", "3,0"], capsys)
    assert code == 2 and "error" in err
    # csv where it makes no sense: only basis and transport register it
    for argv in ["verify-iso --n 2 --r 2", "resolve --n 2",
                 "check-ideals --n 2 --r 2"]:
        with pytest.raises(SystemExit) as exc:
            main(f"{argv} --format csv".split())
        assert exc.value.code == 2
    # argparse rejects a composite characteristic with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "--n", "2", "--char", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n,r", [(5, 8), (6, 8), (2, 1500)])
def test_verify_iso_checks_the_tensor_cap_first(n, r, capsys, monkeypatch):
    """Over the tensor-space cap, no algebra is built and no cache written."""
    def refuse(*args):
        raise AssertionError("work done before the cap was checked")

    monkeypatch.setattr(cli, "BorelAlgebra", refuse)
    monkeypatch.setattr(DividedPowerAlgebra, "save_cache", refuse)
    code, _, err = run_cli(f"verify-iso --n {n} --r {r} --cache x".split(),
                           capsys)
    assert code == 2 and "exceeds the supported cap" in err


def test_cache_flag_only_on_commands_that_multiply(capsys):
    with pytest.raises(SystemExit) as exc:
        main("basis --n 2 --r 2 --cache x".split())
    assert exc.value.code == 2
    for argv in ["verify-iso --n 2 --r 2", "resolve --n 2",
                 "check-ideals --n 2 --r 2",
                 "transport --n 2 --r 2 --lambda 1,1"]:
        args = build_parser().parse_args(f"{argv} --cache x".split())
        assert args.cache == "x"


def test_out_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "basis.json"
    code, out, err = run_cli(["basis", "--n", "2", "--r", "2",
                              "--out", str(out_path)], capsys)
    assert code == 0
    assert "basis of size 6" in out          # summary on stdout
    data = json.loads(out_path.read_text())
    assert data["dimension"] == 6


def test_byte_stability(tmp_path):
    """Identical configuration must produce identical bytes."""
    paths = []
    for k in (1, 2):
        p = tmp_path / f"t{k}.json"
        cmd = [sys.executable, "-m", "borelschur.cli", "transport",
               "--n", "2", "--r", "2", "--char", "2", "--lambda", "1,1",
               "--length", "4", "--height", "4", "--out", str(p)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=source_env())
        assert proc.returncode == 0, proc.stderr
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize("argv,digest", [
    ("resolve --n 3 --char 2 --length 4 --height 6",
     "fb3562d6bb126469a34b4ee54bc5a8cf133b409d29a67d76d5733049553d2c67"),
    ("transport --n 3 --r 3 --char 2 --lambda 1,1,1 --length 5 --height 6",
     "2c6f3c44650e9b82a4d9e7bcf6a2ff7e4950883e8fb38a86f1ca788964ac0d20"),
    ("check-ideals --n 3 --r 2 --char 0",
     "867418482b0cf3af8b9b8a70a310cd96bc896777f1ddfa70c9720fbbd980f247"),
    ("resolve --n 3 --char 2 --length 2 --height 16",
     "863b4ba1570535676b2c80c9ba830b884e146afe0fecb121ad5514c4eafab61b"),
    ("check-ideals --n 4 --r 3 --char 2",
     "86081c815eca1efba3c765afeadb6332616b7668b7e79788b1312a851027ec94"),
    ("transport --n 4 --r 3 --char 3 --lambda 1,1,1,0 --length 4 --height 6",
     "d0632a9f7a380042e8c23fde87beb3881309e6002139f51474f155c38b6a9ea7"),
    ("verify-iso --n 3 --r 3 --char 2",
     "47d5410d6b158d4ff55c3ad95945ef680ed8b171eeb685a86493962993b4d140"),
    ("verify-iso --n 2 --r 5 --char 0",
     "60344bff1b10230098fc779c6afe72d6793f7baaaf3c3d05cc9fed74dc937a5b"),
    ("verify-iso --n 4 --r 2 --char 3",
     "4378cb1b965f8de1b030c2f6f64e7899b45271a7b0e0b89d3f2b4e9825efa750"),
])
def test_payload_bytes_are_pinned(argv, digest, capsys):
    """Payload bytes of jobs that run both resolution routes, the Tor
    check and the tensor-space check; a change that alters them changes
    the program's output."""
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["resolve", "--n", "2", "--char", "2",
                                "--length", "3", "--height", "6",
                                "--cache", str(cache)], capsys)
        assert code == 0
        outs.append(out)
    assert cache.exists()
    cache.unlink()
    code, out, _ = run_cli(["resolve", "--n", "2", "--char", "2",
                            "--length", "3", "--height", "6",
                            "--cache", str(cache)], capsys)
    assert code == 0
    outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def _signed(header, body):
    """Cache bytes: the header with the digest of body, a newline, body."""
    header = dict(header, sha256=hashlib.sha256(body).hexdigest())
    return json.dumps(header).encode() + b"\n" + body


def _cache_lines(path):
    """Header and body lines of a cache file, parsed."""
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), [json.loads(line) for line in body.splitlines()]


def _line_bytes(lines):
    return b"".join(json.dumps(line, separators=(",", ":")).encode() + b"\n"
                    for line in lines)


@pytest.mark.parametrize("text", [
    "[1]",
    _signed({"schema": 3, "n": 3, "height": 4},
            b"[]\n[[[1], [0, 0, 0], []]]\n[]\n[]\n[]\n").decode(),
], ids=["[1]", "short-exponents"])
def test_malformed_cache_is_rebuilt(tmp_path, capsys, text):
    argv = ["resolve", "--n", "3", "--char", "2", "--length", "3",
            "--height", "4"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    header, lines = _cache_lines(cache)
    assert header["n"] == 3 and header["height"] == 4 and len(lines) == 5
    assert all(len(e1) == 3 for line in lines for e1, _, _ in line)


def _sampled(line):
    """The entries of a cache line that every load straightens again: the
    last one and the first one with two or more terms."""
    return line[-1:] + [e for e in line if len(e[2]) > 1][:1]


def test_tampered_cache_is_rebuilt(tmp_path, capsys):
    """Raising 78 coefficients of a rank-3 height-4 cache keeps its shape;
    the digest still rejects it and the rebuilt run matches the uncached one.
    No raised term is on an entry that every load re-derives."""
    argv = ["resolve", "--n", "3", "--char", "0", "--length", "3",
            "--height", "4"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 4)
    header, lines = _cache_lines(cache)
    terms = [t for line in lines for e in line if e not in _sampled(line)
             for t in e[2]][:78]
    assert len(terms) == 78
    for t in terms:
        t[1] += 1
    tampered = _line_bytes(lines)

    # with a matching digest the tampered table loads and changes the answer
    cache.write_bytes(_signed(header, tampered))
    assert DividedPowerAlgebra(3).load_cache(cache, 4)
    _, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert out != expected

    # under the stored digest it is refused and rebuilt
    cache.write_bytes(json.dumps(header).encode() + b"\n" + tampered)
    assert not DividedPowerAlgebra(3).load_cache(cache, 4)
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert DividedPowerAlgebra(3).load_cache(cache, 4)


def _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit):
    """edit(lines) changes one coefficient of a rank-3 height-4 cache; the
    file, signed again, must be refused and rebuilt byte for byte."""
    argv = ["resolve", "--n", "3", "--char", "0", "--length", "3",
            "--height", "4"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 4)
    saved = cache.read_bytes()
    header, lines = _cache_lines(cache)
    edit(lines)
    cache.write_bytes(_signed(header, _line_bytes(lines)))
    alg = DividedPowerAlgebra(3)
    assert not alg.load_cache(cache, 4)
    assert alg._products == {}
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert cache.read_bytes() == saved


@pytest.mark.parametrize("k", [0, 4])
def test_resigned_edit_of_a_last_entry_is_rebuilt(tmp_path, capsys, k):
    """A coefficient edit that is signed again passes the digest, but the
    last entry of each line is straightened again on load."""
    def edit(lines):
        lines[k][-1][2][0][1] += 1

    _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit)


@pytest.mark.parametrize("k", [2, 4])
def test_resigned_edit_of_a_multi_term_entry_is_rebuilt(tmp_path, capsys, k):
    """The last entry of a line is a product with the unit, so the first
    entry with two or more terms is straightened again too: here
    e_12 * e_23^(k-1), whose term e_13 e_23^(k-2) comes from the rule
    for e_12 and e_23 out of order."""
    def edit(lines):
        e1, e2, terms = _sampled(lines[k])[1]
        assert (e1, e2) == ([1, 0, 0], [0, 0, k - 1])
        assert terms[0] == [[0, 1, k - 2], 1] and len(terms) == 2
        terms[0][1] += 1

    _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit)


def test_bad_line_above_the_job_height_is_checked_when_needed(tmp_path,
                                                              capsys):
    """A signed file with a malformed entry on line 5 serves height 4,
    is refused at height 5, and the CLI rebuilds it there."""
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 6)
    header, lines = _cache_lines(cache)
    lines[5][0][2][0][1] = 1.5
    cache.write_bytes(_signed(header, _line_bytes(lines)))
    assert DividedPowerAlgebra(3).load_cache(cache, 4)
    assert not DividedPowerAlgebra(3).load_cache(cache, 5)
    argv = ["resolve", "--n", "3", "--char", "2", "--length", "3",
            "--height", "5"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert _cache_lines(cache)[0]["height"] == 5
    assert DividedPowerAlgebra(3).load_cache(cache, 5)


def test_transport_reads_a_higher_cache(tmp_path, capsys):
    """A height-8 job on a height-16 file reads only lines 0..8, uses the
    file as it is and prints the bytes of the uncached run."""
    argv = ["transport", "--n", "3", "--r", "4", "--lambda", "2,1,1",
            "--length", "6", "--height", "8"]
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 16)
    saved = cache.read_bytes()
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert cache.read_bytes() == saved


@pytest.mark.parametrize("argv", [
    "resolve --n 3 --height -1",
    "resolve --n 3 --length -2",
    "transport --n 3 --r 4 --lambda 2,1,1 --height -3",
    "transport --n 3 --r 4 --lambda 2,1,1 --length -1",
])
def test_negative_cutoffs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


def test_python_dash_m_runs_from_a_source_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "borelschur", "verify-iso", "--n", "2",
         "--r", "2", "--char", "2"],
        capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"]
