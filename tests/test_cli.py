import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borelschur import tensor_space
from borelschur.cli import COMMANDS, build_parser, main
from borelschur.combinatorics import compositions
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import CHARACTERISTIC_CAP, PrimeField


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


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2)])
def test_transport_at_length_zero_passes(n, r, capsys):
    """With no d_1 the top is simple when P_0 is the one summand at
    lambda, however many arrows start there."""
    for lam in compositions(n, r):
        code, out, _ = run_cli(["transport", "--n", str(n), "--r", str(r),
                                "--lambda", ",".join(map(str, lam)),
                                "--length", "0", "--height", "2"], capsys)
        data = json.loads(out)
        assert data["weights"] == [[list(lam)]]
        assert data["verification"]["top_is_simple"], lam
        assert code == 0 and data["verification"]["passed"]


def test_transport_csv(capsys):
    code, out, _ = run_cli(["transport", "--n", "2", "--r", "2", "--char", "2",
                            "--lambda", "0,2", "--length", "6", "--height", "4",
                            "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "degree,weight,count"


@pytest.mark.parametrize("lam", ["1,0", "0,1"])
def test_transport_summary_is_one_line_in_both_formats(lam, capsys):
    """The summary names the size, the characteristic and the weight as
    the --lambda flag writes it, in json and in csv alike."""
    argv = ["transport", "--n", "2", "--r", "1", "--char", "3", "--lambda",
            lam, "--length", "3", "--height", "2"]
    summaries = []
    for fmt in ("json", "csv"):
        code, _, err = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0
        summaries.append(err)
    assert summaries[0] == summaries[1]
    assert summaries[0] == (f"transport n=2 r=1 char 3 lambda={lam}: pass "
                            "(complete=True, terminated=True)\n")


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


@pytest.mark.parametrize("char", [10 ** 400, 2 ** 61 - 1])
def test_huge_characteristic_is_refused_at_once(char, capsys):
    """A characteristic at or above the cap is refused before any
    primality test: no float overflow, no trial division to sqrt(p)."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "2", "--r", "1", "--char", str(char)])
    assert exc.value.code == 2
    assert "error: argument --char" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"below {CHARACTERISTIC_CAP}"):
        PrimeField(char)
    assert time.perf_counter() - start < 2


def test_characteristic_cap_boundary():
    assert CHARACTERISTIC_CAP == 2 ** 31
    assert PrimeField(CHARACTERISTIC_CAP - 1).p == 2 ** 31 - 1  # a prime
    with pytest.raises(ValueError):
        PrimeField(CHARACTERISTIC_CAP)


@pytest.mark.parametrize("n,r", [(5, 8), (6, 8), (2, 1500), (1, 300_001)])
def test_verify_iso_checks_the_tensor_cap_first(n, r, capsys, monkeypatch):
    """Over the tensor-space cap, no algebra and no tensor action is built."""
    def refuse(*args):
        raise AssertionError("work done before the cap was checked")

    monkeypatch.setattr(DividedPowerAlgebra, "__init__", refuse)
    monkeypatch.setattr(tensor_space, "TensorAction", refuse)
    code, _, err = run_cli(f"verify-iso --n {n} --r {r}".split(), capsys)
    assert code == 2 and "exceeds the supported cap" in err


def test_cache_flag_only_on_transport(tmp_path, capsys):
    """Only transport reads the cache; every other command refuses the
    flag as a usage error and writes no file."""
    cache = tmp_path / "cache.json"
    for argv in ["basis --n 2 --r 2", "verify-iso --n 2 --r 2",
                 "resolve --n 2", "check-ideals --n 2 --r 2"]:
        with pytest.raises(SystemExit) as exc:
            main(f"{argv} --cache {cache}".split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not cache.exists()
    args = build_parser().parse_args(
        f"transport --n 2 --r 2 --lambda 1,1 --cache {cache}".split())
    assert args.cache == str(cache)


def test_out_file_and_summary(tmp_path, capsys):
    out_path = tmp_path / "basis.json"
    code, out, err = run_cli(["basis", "--n", "2", "--r", "2",
                              "--out", str(out_path)], capsys)
    assert code == 0
    assert "basis of size 6" in out          # summary on stdout
    data = json.loads(out_path.read_text())
    assert data["dimension"] == 6


@pytest.mark.parametrize("target", ["missing/basis.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    """A missing directory or a directory as --out is reported, exit 2."""
    code, out, err = run_cli(["basis", "--n", "2", "--r", "1",
                              "--out", str(tmp_path / target)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


SMALL = st.integers(-1, 3)


@st.composite
def argvs(draw):
    """Command lines of the accepted grammar: each command with its own
    flags, small and sometimes invalid values, and sometimes --out."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--n", str(draw(SMALL))]
    if command != "resolve":
        argv += ["--r", str(draw(SMALL))]
    if draw(st.booleans()):
        argv += ["--char", str(draw(st.integers(0, 5)))]
    if command == "transport":
        lam = draw(st.lists(SMALL, max_size=4))
        argv += ["--lambda", ",".join(map(str, lam))]
    if command in ("resolve", "transport"):
        for flag in ("--length", "--height"):
            if draw(st.booleans()):
                argv += [flag, str(draw(SMALL))]
    out = draw(st.sampled_from([None, "payload.json", "missing/payload.json"]))
    return argv, out


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_fuzzed_argv_ends_in_an_exit_code(tmp_path, capsys, drawn):
    """Every drawn command line ends with 0, 1 or 2, or argparse's exit 2,
    and raises nothing else."""
    argv, out = drawn
    if out is not None:
        argv = argv + ["--out", str(tmp_path / out)]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)
    capsys.readouterr()


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
    ("check-ideals --n 3 --r 4 --char 3",
     "69470d75a83efb95d13ce30f319b02e526c2846456b3a12f8d27a7b75940d6ce"),
    ("resolve --n 4 --char 3 --length 4 --height 7",
     "01b21212776679ef48d8626bd3ed987e0a0d004e1c3e3466ce764f1032563408"),
    ("resolve --n 3 --char 0 --length 4 --height 8",
     "fdf291a1b251cbb062a068a1ec2c01132749783d3699d2ee55d5e1b9fb90023a"),
    ("transport --n 3 --r 4 --char 2 --lambda 2,1,1 --length 6 --height 8",
     "b48821343231f6cc915dd79627d5622ec2343df09522eaa3eb5eb161505b5f74"),
    ("basis --n 3 --r 2 --char 0",
     "59fbb84c4a03d9c64daf3411452bdbe0fba5f87bc9021033a77a9ab83c4f433b"),
    ("basis --n 3 --r 2 --char 0 --format csv",
     "19d2783cdd7e3e832bae04c18481be5983b8c744304bac4139f265d6ce93dcf2"),
    ("transport --n 3 --r 3 --char 2 --lambda 1,1,1 --length 5 --height 6"
     " --format csv",
     "1d82bd4a85431846737873730cae7821ab05ed1fa6bdb10d21b7f0f94d8aaa30"),
    ("check-ideals --n 4 --r 2 --char 2",
     "574f6fa9ee1837acad418e7ccad98085d14a9033cc30bea84b9fb4b3cadd9cd5"),
    ("check-ideals --n 3 --r 3 --char 0",
     "46de475da0257be46eb461cebc30b9b25fb9c28fdd7c8a3b055489f0c3f4335b"),
    ("check-ideals --n 5 --r 2 --char 0",
     "e287f615cd2cfaba15de954af479a33eed2c893f5391d43e794403e92f3c7910"),
    ("resolve --n 4 --char 0 --length 4 --height 6",
     "f42f47ceecf516a5433b711f0dc64d2e7aabd70f8970be25adc55775dd857436"),
    ("verify-iso --n 3 --r 3 --char 0",
     "7f0d384c7bf75af8eab6efdf8a84b205f60e13c13cd3cf573db184d2bd8c88c1"),
    ("verify-iso --n 4 --r 2 --char 0",
     "01f0ccd0f7abddef8aafa2a71529a3e94765f890b8f65dc6ee94f1266e02a36e"),
    ("transport --n 3 --r 4 --char 0 --lambda 2,1,1 --length 6 --height 8",
     "320962f47ce11743588c7b04cb77c3f4f3f3200d67f13fc21306bbb6ea533846"),
    ("resolve --n 3 --char 2 --length 5 --height 12",
     "1d998df57f5d8dc74b124b3e8ebf0d59adf52eb31f338218ea51ae3741d4cc7e"),
    ("check-ideals --n 4 --r 4 --char 2",
     "12f10c0a3a4fb5bdeaa2c58c937b623fef5cb76cf48ddcc39e76a7d8fe0b69d4"),
    ("verify-iso --n 3 --r 4 --char 2",
     "359df7f41dcc8a016e56b18c64e0c668447fbb1b05b4c7cf7d67f26797b5451c"),
    ("verify-iso --n 2 --r 7 --char 3",
     "30c9966e346a7c7ddcad4e74b5f5fc7225450dad28ea03d3c8d4365d7454b571"),
    ("resolve --n 4 --char 2 --length 4 --height 7",
     "d03269b62c092cc7f2c7a3e7058b00182276ca5cb1f0eb805058015fe74d42f6"),
    ("resolve --n 5 --char 2 --length 3 --height 4",
     "46d721aa7a7d38b349e1a3170a8faeccf7bf22f661a8b5aee549f08a09affc15"),
    ("transport --n 4 --r 3 --char 2 --lambda 1,1,1,0 --length 4 --height 6",
     "75e430c09aeeaca2d388d751a0915e77a7e64970716c92142e9950f8d53b89ce"),
    # eleven exact spots: "10" and "11" sort between "1" and "2"
    ("transport --n 2 --r 2 --char 2 --lambda 0,2 --length 12 --height 16",
     "a1506f60c39c07a29eb901513696c85cbc6ce9d45bd42a6a37c38877c07986cc"),
])
def test_payload_bytes_are_pinned(argv, digest, capsys):
    """Payload bytes of jobs that run both resolution routes, the Tor
    check and the tensor-space check; a change that alters them changes
    the program's output."""
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    """Transport prints the same bytes with no cache, with a cache it
    writes, and with a cache it reads."""
    def refuse(*args):
        raise AssertionError("a warm cache was written again")

    jobs = [
        "transport --n 3 --r 3 --char 2 --lambda 1,1,1 --length 4"
        " --height 6",
        "transport --n 3 --r 3 --char 2 --lambda 1,1,1 --length 4"
        " --height 6 --format csv",
    ]
    for k, job in enumerate(jobs):
        argv = job.split()
        flags = ["--cache", str(tmp_path / f"cache-{k}.json")]
        outs = [run_cli(argv, capsys), run_cli(argv + flags, capsys)]
        with monkeypatch.context() as patch:
            patch.setattr(DividedPowerAlgebra, "save_cache", refuse)
            outs.append(run_cli(argv + flags, capsys))
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[0] == outs[1] == outs[2], job


def cached_job(char, height):
    """A rank-3 transport job that loads its cache at exactly `height`
    (4 or more): transport loads at max(height, r(n-1)), and r(n-1) = 4."""
    return (f"transport --n 3 --r 2 --char {char} --lambda 0,0,2 --length 3"
            f" --height {height}").split()


def _header_bytes(header):
    return json.dumps(header).encode() + b"\n"


def _signed(header, body):
    """Cache bytes: the header with the digest of each line of body, a
    newline, body."""
    digests = [hashlib.sha256(line).hexdigest()
               for line in body.splitlines(keepends=True)]
    return _header_bytes(dict(header, sha256=digests)) + body


def _cache_lines(path):
    """Header and body lines of a cache file, parsed."""
    header, body = path.read_bytes().split(b"\n", 1)
    return json.loads(header), [json.loads(line) for line in body.splitlines()]


def _line_bytes(lines):
    return b"".join(json.dumps(line, separators=(",", ":")).encode() + b"\n"
                    for line in lines)


@pytest.mark.parametrize("text", [
    "[1]",
    _signed({"schema": 4, "n": 3, "height": 4},
            b"[]\n[]\n[[[1],[0,0,1],[[[0,1,0],1]]]]\n[]\n[]\n").decode(),
], ids=["[1]", "short-exponents"])
def test_malformed_cache_is_rebuilt(tmp_path, capsys, text):
    argv = cached_job(2, 4)
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


def _schema_3_bytes(n, h):
    """The schema-3 file of (n, h), byte for byte: every product of pair
    height <= h, one line per pair height, one digest of the whole body."""
    alg = DividedPowerAlgebra(n)
    alg.fill_cache(h)
    lines = [[] for _ in range(h + 1)]
    for (e1, e2), terms in sorted(alg._products.items()):
        lines[alg.monomial_height(e1) + alg.monomial_height(e2)].append(
            [e1, e2, terms])
    body = _line_bytes(lines)
    header = {"height": h, "n": n, "schema": 3,
              "sha256": hashlib.sha256(body).hexdigest()}
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + body


def test_schema_3_cache_is_rebuilt(tmp_path, capsys):
    argv = cached_job(2, 4)
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    cache.write_bytes(_schema_3_bytes(3, 4))
    alg = DividedPowerAlgebra(3)
    assert not alg.load_cache(cache, 4)
    assert alg._products == {}
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert _cache_lines(cache)[0]["schema"] == 4
    assert DividedPowerAlgebra(3).load_cache(cache, 4)


def _sampled(line):
    """The entries of a cache line that every load straightens again: the
    first one and the last one."""
    return line[:1] + line[1:][-1:]


def test_tampered_cache_is_rebuilt(tmp_path, capsys):
    """Raising 78 coefficients of a rank-3 height-5 cache keeps its shape;
    the digests still reject it and the rebuilt run matches the uncached
    one.  No raised term is on an entry that every load re-derives."""
    argv = cached_job(0, 5)
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 5)
    header, lines = _cache_lines(cache)
    terms = [t for line in lines for e in line if e not in _sampled(line)
             for t in e[2]][:78]
    assert len(terms) == 78
    for t in terms:
        t[1] += 1
    tampered = _line_bytes(lines)

    # with matching digests the tampered table loads and changes the answer
    cache.write_bytes(_signed(header, tampered))
    assert DividedPowerAlgebra(3).load_cache(cache, 5)
    _, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert out != expected

    # under the stored digests it is refused and rebuilt
    cache.write_bytes(_header_bytes(header) + tampered)
    assert not DividedPowerAlgebra(3).load_cache(cache, 5)
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert DividedPowerAlgebra(3).load_cache(cache, 5)


def _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit):
    """edit(lines) changes one coefficient of a rank-3 height-4 cache; the
    file, signed again, must be refused and rebuilt byte for byte."""
    argv = cached_job(0, 4)
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


@pytest.mark.parametrize("k", [3, 4])
def test_resigned_edit_of_a_last_entry_is_rebuilt(tmp_path, capsys, k):
    """A coefficient edit that is signed again passes the digest, but the
    last entry of each line is straightened again on load: here
    e_12^(k-1) * e_23."""
    def edit(lines):
        e1, e2, terms = lines[k][-1]
        assert (e1, e2) == ([k - 1, 0, 0], [0, 0, 1])
        terms[0][1] += 1

    _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit)


@pytest.mark.parametrize("k", [2, 4])
def test_resigned_edit_of_a_multi_term_entry_is_rebuilt(tmp_path, capsys, k):
    """The first entry of each line is straightened again too: here
    e_12 * e_23^(k-1), whose term e_13 e_23^(k-2) comes from the rule
    for e_12 and e_23 out of order."""
    def edit(lines):
        e1, e2, terms = lines[k][0]
        assert (e1, e2) == ([1, 0, 0], [0, 0, k - 1])
        assert terms[0] == [[0, 1, k - 2], 1] and len(terms) == 2
        terms[0][1] += 1

    _check_resigned_edit_is_rebuilt(tmp_path, capsys, edit)


def _check_line_5_is_checked_when_needed(tmp_path, capsys, body):
    """A rank-3 file of height 6 whose line 5 is spoiled by body(header,
    lines) serves height 4, is refused at height 5, and the CLI rebuilds
    it there."""
    cache = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(cache, 6)
    header, lines = _cache_lines(cache)
    cache.write_bytes(body(header, lines))
    assert DividedPowerAlgebra(3).load_cache(cache, 4)
    assert not DividedPowerAlgebra(3).load_cache(cache, 5)
    argv = cached_job(2, 5)
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert out == expected
    assert _cache_lines(cache)[0]["height"] == 5
    assert DividedPowerAlgebra(3).load_cache(cache, 5)


def test_bad_line_above_the_job_height_is_checked_when_needed(tmp_path,
                                                              capsys):
    """Line 5 holds a malformed entry and is signed again."""
    def body(header, lines):
        lines[5][0][2][0][1] = 1.5
        return _signed(header, _line_bytes(lines))

    _check_line_5_is_checked_when_needed(tmp_path, capsys, body)


@pytest.mark.parametrize("change", ["cut", "changed"])
def test_bytes_after_the_job_height_are_not_read(tmp_path, capsys, change):
    """The file is cut off inside line 5, or line 5 changed after it was
    signed; a height-4 job never reads those bytes."""
    def body(header, lines):
        out = _line_bytes(lines[:5])
        if change == "cut":
            return _header_bytes(header) + out + _line_bytes(lines[5:6])[:40]
        lines[5][0][2][0][1] += 1
        return _header_bytes(header) + out + _line_bytes(lines[5:])

    _check_line_5_is_checked_when_needed(tmp_path, capsys, body)


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
