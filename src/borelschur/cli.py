"""Batch command-line interface.

One job per invocation, no daemon state.  The machine-readable payload
goes to --out when given (human summary on stdout) and to stdout
otherwise (summary on stderr, so the payload stays clean).  Exit code 0
means every verdict passed, 1 means some verdict failed, 2 is a usage
error.
"""

import argparse
import json
import sys

from .arrows import BorelAlgebra
from .combinatorics import is_composition, tri_count
from .divided_powers import DividedPowerAlgebra
from .fields import field_of_characteristic
from .idempotents import chain_report
from .resolutions import minimal_resolution
from .tensor_space import check_tensor_dimension, verify_isomorphism
from .transport import ext_table_csv, transport_resolution


def _prime_or_zero(text):
    value = int(text)
    if value != 0:
        field_of_characteristic(value)  # raises on non-prime
    return value


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _parse_lambda(text):
    try:
        return tuple(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weight {text!r}")


def _add_common(p, need_r=True, need_lambda=False, need_cutoffs=False,
                need_cache=True):
    p.add_argument("--n", type=int, required=True, help="matrix size")
    if need_r:
        p.add_argument("--r", type=int, required=True, help="tensor degree")
    p.add_argument("--char", type=_prime_or_zero, default=0,
                   help="field characteristic: 0 or a prime (default 0)")
    if need_lambda:
        p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True,
                       help="weight as comma-separated integers, e.g. 1,1")
    if need_cutoffs:
        p.add_argument("--length", type=_non_negative, default=4,
                       help="homological length cutoff (default 4)")
        p.add_argument("--height", type=_non_negative, default=4,
                       help="degree height cutoff (default 4)")
    if need_cache:
        p.add_argument("--cache",
                       help="path to the structure-constant cache file")
    p.add_argument("--out", help="write the payload to this file")


def _add_format(p):
    """Only `basis` and `transport` have a natural table to write as csv."""
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="payload format (default json)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borelschur",
        description="Exact Borel-Schur algebra computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="marginal-matrix basis of the algebra")
    _add_common(p, need_cache=False)
    _add_format(p)

    p = sub.add_parser("verify-iso",
                       help="check the arrow realization against tensor space")
    _add_common(p)

    p = sub.add_parser("resolve",
                       help="minimal graded resolution of the trivial module")
    _add_common(p, need_r=False, need_cutoffs=True)

    p = sub.add_parser("transport",
                       help="transported resolution of a simple module")
    _add_common(p, need_lambda=True, need_cutoffs=True)
    _add_format(p)

    p = sub.add_parser("check-ideals",
                       help="layered idempotent-ideal diagnostics")
    _add_common(p)

    return parser


def _with_cache(alg, args, needed_height):
    if args.cache:
        if not alg.load_cache(args.cache, needed_height):
            alg.save_cache(args.cache, needed_height)
    return alg


def _interval_height(n, r):
    # largest arrow height inside the interval truncation
    return r * (n - 1)


def cmd_basis(args):
    field = field_of_characteristic(args.char)
    borel = BorelAlgebra(args.n, args.r, field)
    payload = borel.to_json()
    payload["command"] = "basis"
    payload["count_formula"] = tri_count(args.n, args.r)
    ok = payload["dimension"] == payload["count_formula"]
    payload["dimension_matches_formula"] = ok
    summary = [f"basis of size {borel.dim} for n={args.n}, r={args.r}, "
               f"char {args.char}"]
    if args.format == "csv":
        lines = ["index,base,head,exponents"]
        for k, entry in enumerate(payload["basis"]):
            lines.append(",".join([
                str(k),
                " ".join(str(x) for x in entry["base"]),
                " ".join(str(x) for x in entry["head"]),
                " ".join(str(x) for x in entry["exponents"]),
            ]))
        return "\n".join(lines) + "\n", ok, summary
    return payload, ok, summary


def cmd_verify_iso(args):
    field = field_of_characteristic(args.char)
    check_tensor_dimension(args.n, args.r)
    dpa = DividedPowerAlgebra(args.n)
    _with_cache(dpa, args, _interval_height(args.n, args.r))
    borel = BorelAlgebra(args.n, args.r, field, alg=dpa)
    report = verify_isomorphism(args.n, args.r, field, borel=borel)
    report["command"] = "verify-iso"
    status = "pass" if report["passed"] else "FAIL"
    summary = [f"isomorphism n={args.n} r={args.r} char {args.char}: {status} "
               f"(dim {report['dim']})"]
    return report, report["passed"], summary


def cmd_resolve(args):
    field = field_of_characteristic(args.char)
    alg = DividedPowerAlgebra(args.n)
    _with_cache(alg, args, args.height)
    complex_ = minimal_resolution(alg, field, args.length, args.height)
    payload = complex_.to_json()
    payload["command"] = "resolve"
    payload["betti"] = {str(i): [list(g) for g in degs]
                        for i, degs in complex_.betti().items()}
    exact = complex_.verify_exactness()
    minimal = complex_.verify_minimality()
    payload["exact"] = exact
    payload["minimal"] = minimal
    summary = [f"resolution n={args.n} char {args.char} length {args.length} "
               f"height {args.height}: module ranks "
               f"{[len(d) for d in complex_.degrees]}"]
    return payload, exact and minimal, summary


def cmd_transport(args):
    field = field_of_characteristic(args.char)
    if not is_composition(args.lam, args.r) or len(args.lam) != args.n:
        raise ValueError(f"--lambda {args.lam} is not a composition of "
                         f"{args.r} with {args.n} parts")
    alg = DividedPowerAlgebra(args.n)
    _with_cache(alg, args, max(args.height, _interval_height(args.n, args.r)))
    complex_ = minimal_resolution(alg, field, args.length, args.height)
    borel = BorelAlgebra(args.n, args.r, field, alg=alg)
    transported = transport_resolution(complex_, args.lam, args.r, borel=borel)
    report = transported.verify()
    if args.format == "csv":
        ok = report["passed"]
        summary = [f"transport lambda={args.lam}: "
                   f"{'pass' if ok else 'FAIL'}"]
        return ext_table_csv(transported), ok, summary
    payload = transported.to_json()
    payload["command"] = "transport"
    payload["verification"] = {
        k: report[k]
        for k in ("passed", "d_squared_zero", "minimal", "top_is_simple",
                  "structure", "complete", "terminated", "dims", "ranks")
    }
    payload["verification"]["exact_spots"] = {
        str(i): v for i, v in report["exact_spots"].items()
    }
    payload["ext"] = [
        {"degree": i, "weight": list(w), "count": c}
        for (i, w), c in sorted(transported.ext_dimensions().items())
    ]
    ok = report["passed"]
    summary = [f"transport n={args.n} r={args.r} char {args.char} "
               f"lambda={','.join(str(x) for x in args.lam)}: "
               f"{'pass' if ok else 'FAIL'} "
               f"(complete={transported.complete}, "
               f"terminated={transported.terminated})"]
    return payload, ok, summary


def cmd_check_ideals(args):
    field = field_of_characteristic(args.char)
    dpa = DividedPowerAlgebra(args.n)
    _with_cache(dpa, args, _interval_height(args.n, args.r))
    report = chain_report(args.n, args.r, field, alg=dpa)
    payload = {
        "command": "check-ideals",
        "n": report["n"],
        "r": report["r"],
        "char": report["char"],
        "passed": report["passed"],
        "final_dim": report["final_dim"],
        "expected_dim": report["expected_dim"],
        "hypotheses": {
            "zj_condition": report["hypotheses"]["zj_condition"],
            "yj_condition": report["hypotheses"]["yj_condition"],
        },
        "steps": [
            {
                "layer": s.get("layer"),
                "point": list(s["point"]),
                "dim_AeA": s.get("dim_AeA"),
                "dim_tensor": s.get("dim_tensor"),
                "two_idempotent": s.get("two_idempotent"),
            }
            for s in report["steps"]
        ],
        "tor": [
            {"lambda": list(lam), "tor1": t[1], "tor2": t[2]}
            for lam, t in sorted(report["tor"].items())
        ],
    }
    status = "pass" if report["passed"] else "FAIL"
    summary = [f"idempotent chain n={args.n} r={args.r} char {args.char}: "
               f"{status} ({len(report['steps'])} removal steps, final dim "
               f"{report['final_dim']})"]
    return payload, report["passed"], summary


COMMANDS = {
    "basis": cmd_basis,
    "verify-iso": cmd_verify_iso,
    "resolve": cmd_resolve,
    "transport": cmd_transport,
    "check-ideals": cmd_check_ideals,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok, summary = COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for line in summary:
            print(line)
    else:
        sys.stdout.write(text)
        for line in summary:
            print(line, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
