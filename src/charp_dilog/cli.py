"""Command-line surface: dilogarithm tables, regulator runs, cycle invariants,
and the seeded verification suites.

Exit codes: 0 success, 1 verification failure, 2 input error.  All randomness
flows from one seed (--seed, or CHARP_DILOG_SEED); identical configurations
print byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .gf import BadPrime, Fq, FqElem, GFError
from .localfield import LocalFieldError
from .regulator import GoodFunction, LiftedPoint, RegulatorInput, finite_point, regulate
from .suites import SUITES, UnknownSuite, run_suite
from .tpoly import Trunc, TruncError
from . import bloch, cycles


class ParseError(Exception):
    """Malformed input file or option."""


LI1_MAX_P = 500  # li1 tabulates p values of a degree p - 1 polynomial: O(p^2) work
_LI2P_MAX_P = 50_000  # li2p evaluates a degree p - 1 polynomial: O(p) work, <= 1 s
# residue-formula sets the limit: one trial of every suite took at most 3.8 s at p = 61 and
# 6.6 s at 67 (worst of 3 runs with process start, 2-vCPU VM; budget 5 s)
_VERIFY_MAX_P = 61


def _check_max_p(args, max_p: int) -> None:
    """Reject p above a command's bound before any work."""
    if args.p > max_p:
        raise ParseError(f"{args.command} supports p <= {max_p}, got p = {args.p}")


def _is_int(x) -> bool:
    """A JSON integer: bools, floats and strings are not read as numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _field_from(p: int, ext) -> Fq:
    base = Fq(p)
    if ext is None:
        return base
    if not isinstance(ext, list) or not all(map(_is_int, ext)):
        raise ParseError(f"'ext' must be omitted, null or an array of integer coefficients, "
                         f"got {json.dumps(ext)}")
    try:
        return Fq(p, modulus=ext, base=base)
    except ValueError as exc:
        raise ParseError(f"'ext': {exc}") from exc


def _elem_to_json(x: FqElem):
    if x.field.base is None:
        return x.raw
    return [_elem_to_json(c) for c in x.coeffs()]


def _elem_from_json(field: Fq, data, where: str) -> FqElem:
    """A field element; an error message starts with its key path ``where``."""
    try:
        if _is_int(data):
            return field.from_int(data)
        if field.base is None:
            raise ParseError(f"{where}: prime-field element must be an integer, "
                             f"got {json.dumps(data)}")
        if not isinstance(data, list):
            raise ParseError(f"{where}: extension-field element must be an integer or an "
                             f"array, got {json.dumps(data)}")
        return field.from_coeffs([_elem_from_json(field.base, c, f"{where}[{i}]")
                                  for i, c in enumerate(data)])
    except (GFError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _trunc_from_json(field: Fq, m: int, data, where: str) -> Trunc:
    """A truncated element, as a bare coefficient array or {"m":..,"coeffs":[..]};
    an error message starts with its key path ``where``."""
    if isinstance(data, dict):
        given = data.get("m", m)
        if not _is_int(given):
            raise ParseError(f"{where}: element modulus 'm' must be an integer, "
                             f"got {json.dumps(given)}")
        if given != m:
            raise ParseError(f"{where}: element modulus {given} does not match {m}")
        data, where = data.get("coeffs", []), f"{where}.coeffs"
    if not isinstance(data, list):
        raise ParseError(f"{where}: truncated elements are coefficient arrays")
    if len(data) > m:
        raise ParseError(f"{where}: too many coefficients for modulus {m}")
    return Trunc(field, m, [_elem_from_json(field, c, f"{where}[{i}]")
                            for i, c in enumerate(data)])


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _input_field(data: dict) -> Fq:
    """The field named by an input file's 'p' and optional 'ext'."""
    p = data.get("p") if isinstance(data, dict) else None
    if not _is_int(p):
        raise ParseError(f"input needs an integer field 'p', got {json.dumps(p)}")
    try:
        return _field_from(p, data.get("ext"))
    except GFError as exc:
        raise ParseError(str(exc)) from exc


def _regulator_input_from_json(data: dict) -> RegulatorInput:
    field = _input_field(data)
    points = []
    entries = data.get("points", [])
    if not isinstance(entries, list):
        raise ParseError("'points' must be an array")
    for j, entry in enumerate(entries):
        if entry == "inf":
            points.append(LiftedPoint(None))
            continue
        if not isinstance(entry, dict) or not isinstance(entry.get("poly"), list):
            raise ParseError("each point is 'inf' or an object with a 'poly' array")
        coeffs = [_trunc_from_json(field, 2, c, f"points[{j}].poly[{k}]")
                  for k, c in enumerate(entry["poly"])]
        try:
            points.append(finite_point(field, coeffs))
        except (ValueError, GFError) as exc:
            raise ParseError(f"bad point polynomial: {exc}") from exc
    fns = {}
    for key in ("f", "g", "h"):
        if key not in data:
            raise ParseError(f"missing function {key!r}")
        fn_data = data[key]
        if not isinstance(fn_data, dict):
            raise ParseError(f"function {key!r} must be an object")
        unit = _trunc_from_json(field, 2, fn_data.get("unit", [1]), f"{key}.unit")
        factors = fn_data.get("factors", [])
        if not (isinstance(factors, list) and all(
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
                for pair in factors)):
            raise ParseError(f"factors of {key!r} are [point, exponent] integer pairs, "
                             f"got {json.dumps(factors)}")
        fns[key] = GoodFunction(unit, tuple(map(tuple, factors)))
    try:
        return RegulatorInput(field, tuple(points), fns["f"], fns["g"], fns["h"])
    except (ValueError, GFError) as exc:
        raise ParseError(str(exc)) from exc


def _cycle_from_json(data: dict) -> cycles.ParamCycle:
    field = _input_field(data)
    p = field.p
    coords = []
    for key in ("y1", "y2", "y3"):
        if key not in data:
            raise ParseError(f"missing coordinate {key!r}")
        coord = data[key]
        if not (isinstance(coord, dict) and isinstance(coord.get("num"), list)
                and isinstance(coord.get("den"), list)):
            raise ParseError(f"coordinate {key!r} must be an object with num and den arrays")
        try:
            num = [_trunc_from_json(field, p, c, f"{key}.num[{i}]")
                   for i, c in enumerate(coord["num"])]
            den = [_trunc_from_json(field, p, c, f"{key}.den[{i}]")
                   for i, c in enumerate(coord["den"])]
        except TruncError as exc:
            raise ParseError(f"bad coordinate {key}: {exc}") from exc
        if not num or not den:
            raise ParseError(f"coordinate {key} needs nonempty num and den")
        coords.append((num, den))
    return cycles.make_cycle(field, coords)


def _emit(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        if rows:
            # a total row may carry more fields than the rows before it
            fields = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(out, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    else:
        for row in rows:
            out.write("  ".join(f"{k}={v}" for k, v in row.items()) + "\n")


def cmd_li1(args, out) -> int:
    _check_max_p(args, LI1_MAX_P)
    field = _field_from(args.p, None)
    rows = []
    if args.x is not None:
        xs = [field.from_int(args.x)]
    else:
        xs = list(field.elements())
    for x in xs:
        rows.append({"x": _elem_to_json(x), "li1": _elem_to_json(bloch.pounds1(x))})
    _emit(rows, args.format, out)
    return 0


def cmd_dilog(args, out) -> int:
    if args.max_p is not None:
        _check_max_p(args, args.max_p)
    field = _field_from(args.p, args.ext)
    x = Trunc(field, 2, [_elem_from_json(field, getattr(args, name), f"--{name}")
                         for name in ("s", "a")])
    sym = bloch.symbol(x)
    value = args.closed_form(sym)
    _emit([{"s": args.s, "a": args.a, "value": _elem_to_json(value)}], args.format, out)
    return 0


def cmd_regulator(args, out) -> int:
    data = _load_json(args.input)
    inp = _regulator_input_from_json(data)
    total, breakdown = regulate(inp, lift_seed=args.seed, deep=args.deep)
    rows = [{"point": str(idx), "value": _elem_to_json(v)} for idx, v in breakdown]
    rows.append({"point": "total", "value": _elem_to_json(total)})
    _emit(rows, args.format, out)
    return 0


def cmd_cycle(args, out) -> int:
    data = _load_json(args.input)
    cyc = _cycle_from_json(data)
    try:
        pts = cycles.boundary(cyc, deep=args.deep)
    except cycles.NotAdmissible as exc:
        rows = [{"failure": f.code, "coordinate": f.coordinate + 1, "detail": f.detail}
                for f in exc.report.failures]
        _emit(rows, args.format, out)
        return 1
    value = cycles.zero_cycle_value(pts, cyc.field, deep=args.deep)
    rows = []
    for pt in pts:
        rows.append({"face": f"({pt.face[0]},{pt.face[1]})", "at": repr(pt.where),
                     "sign": pt.sign})
    rows.append({"face": "total", "at": "", "sign": "", "value": _elem_to_json(value)})
    _emit(rows, args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    _check_max_p(args, _VERIFY_MAX_P)
    if args.trials is not None and args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    results = []
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        results.append(run_suite(name, args.p, trials=args.trials, seed=args.seed))
    if args.format == "json":
        json.dump([r.to_dict() for r in results], out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for r in results:
            status = "pass" if r.ok else "FAIL"
            out.write(f"{r.name} p={r.p} trials={r.trials} seed={r.seed} "
                      f"checks={r.checks} {status}\n")
            for note in r.notes:
                out.write(f"  note: {note}\n")
            for failure in r.failures:
                out.write(f"  counterexample: {json.dumps(failure, sort_keys=True)}\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charp-dilog",
        description="Exact characteristic-p dilogarithms, regulators and cycle invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p=False, ext=False, seed=False, inp=False, formats=("plain", "json", "csv")):
        # input-file commands take the prime from the file, and only the
        # regulators and the suites draw random numbers
        if p:
            sp.add_argument("--p", type=int, default=5, help="prime characteristic (>= 5)")
        sp.add_argument("--format", choices=formats, default="plain")
        if ext:
            sp.add_argument("--ext", type=json.loads, default=None,
                            help="extension modulus coefficients over F_p, e.g. [2,0,1]")
        if seed:
            # a string default goes through ``type``, so a bad variable is an
            # input error of the commands that read the seed alone
            sp.add_argument("--seed", type=int, default=os.environ.get("CHARP_DILOG_SEED", "0"))
        if inp:
            sp.add_argument("--input", required=True, help="JSON input file")

    sp = sub.add_parser("li1", help="table of the truncated-logarithm polynomial",
                        description=f"Values of li1 over F_p, for 5 <= p <= {LI1_MAX_P}.")
    common(sp, p=True)
    sp.add_argument("--x", type=int, default=None, help="single argument instead of a table")
    sp.set_defaults(handler=cmd_li1)

    for name, help_text, closed_form, max_p in (
            ("li2", "additive dilogarithm at [s + a t]", bloch.li2, None),
            ("li2p", "deep dilogarithm at [s + a t]", bloch.li2p, _LI2P_MAX_P)):
        bound = f", for 5 <= p <= {max_p}" if max_p else ""
        sp = sub.add_parser(name, help=help_text, description=f"The {help_text}{bound}.")
        common(sp, p=True, ext=True)
        sp.add_argument("--s", type=json.loads, required=True)
        sp.add_argument("--a", type=json.loads, required=True)
        sp.set_defaults(handler=cmd_dilog, closed_form=closed_form, max_p=max_p)

    for name, deep, help_text in (("rho-k", True, "deep regulator of a good-function triple"),
                                  ("rho", False, "depth-3 regulator of a good-function triple")):
        sp = sub.add_parser(name, help=help_text)
        common(sp, seed=True, inp=True)
        sp.set_defaults(handler=cmd_regulator, deep=deep)

    sp = sub.add_parser("cycle", help="invariants of a parametrized cycle")
    cyc_sub = sp.add_subparsers(dest="cycle_command", required=True)
    for name, deep in (("rho-k", True), ("rho", False)):
        csp = cyc_sub.add_parser(name)
        common(csp, inp=True)
        csp.set_defaults(handler=cmd_cycle, deep=deep)

    sp = sub.add_parser("verify", help="run a seeded verification suite",
                        description="Run a seeded verification suite, "
                                    f"for 5 <= p <= {_VERIFY_MAX_P}.")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    common(sp, p=True, seed=True, formats=("plain", "json"))
    sp.add_argument("--trials", type=int, default=None)
    sp.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return args.handler(args, out)
    except (ParseError, BadPrime, UnknownSuite, TruncError, LocalFieldError,
            GFError, cycles.NotAdmissible, bloch.BlochError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
