"""Command-line front end.

Four subcommands:

    reduce       monic quintic (descending coefficients) to y^5 + P y + Q,
                 verified, emitting the full transformation trace
    solve        closed-form roots for degrees one through four
    obstruction  the degree-six blockage report for a trinomial quartic
    verify       re-check a previously emitted trace file

Exit codes: 0 success, 1 verification failure, 2 degenerate input (an
ansatz denominator that vanishes even at halved roots, or a quintic with a
repeated root that a kept step merges, in either mode; no trace is
emitted), 64 usage error (a non-finite coefficient or trace value
included).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import mpmath

from .errors import ConsistencyError, DegenerateDenominator
from .pipeline import (ReductionTrace, quartic_obstruction_G,
                       reduce_general_quintic)
from .polynomials import UniPoly
from .roots import RootConfig, obstruction_consistency, verify_trace
from .scalars import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, Scalar, as_tol,
                      context, noise_tol)
from .solvers import solve_monic

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_DEGENERATE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        raise UsageError(message)


def _too_long(token: str) -> bool:
    """Would Fraction(token), before reduction, have a numerator or
    denominator of more digits than Python prints?  Judged from a decimal
    token's digits and its exponent e, before 10^|e| is built."""
    m = re.fullmatch(r"[-+]?(\d*)\.?(\d*)[eE]([-+]?\d+)", token.replace("_", ""))
    if not m or not sys.get_int_max_str_digits():
        return False
    whole, frac, e = len(m[1]), len(m[2]), float(m[3])  # inf when e is that long
    return max(whole + max(e, frac), 1 + frac - e) > sys.get_int_max_str_digits()


def _parse_coeff(token: str, mode: str, prec: int) -> Scalar:
    token = token.strip()
    if _too_long(token):  # complex too: the charpoly's exact block spans the exponents
        raise UsageError("coefficient %r has too many digits to print" % token)
    if mode in ("rational", "auto"):
        try:
            f = Fraction(token)
            return Scalar.rational(f.numerator, f.denominator)
        except (ValueError, ZeroDivisionError):
            if mode == "rational":
                raise UsageError("not a rational coefficient: %r" % token)
    try:
        # read at prec + 16 bits, then rounded to prec
        x = context(prec + 16).mpf(token)
    except ValueError:
        raise UsageError("cannot parse coefficient: %r" % token)
    if not mpmath.isfinite(x):
        raise UsageError("not a finite coefficient: %r" % token)
    return Scalar.from_mpc(x, prec)


def _poly_from_args(args, prec: int) -> UniPoly:
    if not args.coeffs:
        raise UsageError("--coeffs is required")
    # tokens like -1/2 would read as options, so quoted/comma-joined lists
    # are accepted too: --coeffs "1 -1/2 0.25 1 0 3"
    tokens = []
    for chunk in args.coeffs:
        tokens.extend(t for t in re.split(r"[,\s]+", chunk.strip()) if t)
    if not tokens:
        raise UsageError("--coeffs is required")
    cs = [_parse_coeff(t, args.mode, prec) for t in tokens]
    return UniPoly(list(reversed(cs)), "z")  # CLI takes descending


def _emit(args, payload: str):
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _config(args) -> RootConfig:
    return RootConfig(precision_bits=args.precision_bits, tol=args.tol,
                      seed=args.seed)


def _scalar_text(s: Scalar, dps: int = 20) -> str:
    if s.is_rational:
        return str(s.fraction)
    return mpmath.nstr(s.to_mpc(), dps)


def cmd_reduce(args) -> int:
    poly = _poly_from_args(args, args.precision_bits)
    if poly.degree != 5:
        raise UsageError("reduce expects six descending coefficients of a quintic")
    if not poly.is_monic():
        raise UsageError("reduce expects a monic quintic (leading coefficient 1)")
    cfg = _config(args)
    trace = reduce_general_quintic(poly, prec=cfg.precision_bits, tol=cfg.tol)
    report = verify_trace(trace, cfg)
    if args.output == "json":
        _emit(args, _json_dump({"trace": trace.to_json(),
                                "verify": report.to_json()}))
    else:
        lines = ["steps: " + (", ".join(s.kind for s in trace.steps) or "(none)")]
        lines.append("P = %s" % _scalar_text(trace.bring_p))
        lines.append("Q = %s" % _scalar_text(trace.bring_q))
        lines.append("max forward residual = %s" % mpmath.nstr(report.max_forward_residual, 8))
        lines.append("verified: %s" % ("yes" if report.matched else "NO"))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.matched else EXIT_VERIFY


def cmd_solve(args) -> int:
    poly = _poly_from_args(args, args.precision_bits)
    if poly.degree > 4:
        raise UsageError("solve handles degrees 1 through 4; for a quintic, "
                         "use 'reduce' and back-solve the trinomial")
    if poly.degree < 1:
        raise UsageError("nothing to solve at degree %d" % poly.degree)
    monic = poly if poly.is_monic() else poly.monic()[0]
    res = solve_monic(monic, prec=args.precision_bits, tol=args.tol)
    if args.output == "json":
        _emit(args, _json_dump({
            "method": res.method,
            "roots": [r.to_json() for r in res.roots],
            "residuals": [mpmath.nstr(r, 25) for r in res.residuals],
        }))
    else:
        lines = ["method: %s" % res.method]
        for r, e in zip(res.roots, res.residuals):
            lines.append("%s   (residual %s)" % (_scalar_text(r), mpmath.nstr(e, 5)))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_obstruction(args) -> int:
    poly = _poly_from_args(args, args.precision_bits)
    if poly.degree != 4 or not poly.is_monic():
        raise UsageError("obstruction expects a monic quartic (five descending "
                         "coefficients)")
    if not (poly.coeff(3).is_exact_zero() and poly.coeff(2).is_exact_zero()):
        raise UsageError("obstruction expects the trinomial shape z^4 + p z + q")
    cfg = _config(args)
    rep = quartic_obstruction_G(poly.coeff(1), poly.coeff(0))
    slack = obstruction_consistency(rep, cfg)
    if args.output == "json":
        _emit(args, _json_dump({
            "a": rep.a.to_json(),
            "obstruction": rep.obstruction.to_json(),
            "degree": rep.degree,
            "degenerate": bool(rep.degenerate),
            "consistency": mpmath.nstr(slack, 25),
        }))
    else:
        lines = ["G(c) = %s" % rep.obstruction,
                 "degree: %d%s" % (rep.degree, "  (degenerate)" if rep.degenerate else ""),
                 "root-consistency slack: %s" % mpmath.nstr(slack, 8)]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not getattr(args, "infile", None):
        raise UsageError("verify needs --in <trace.json>")
    if args.infile == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.infile) as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError("cannot read trace file: %s" % exc)
    try:
        data = json.loads(raw)
    except ValueError as exc:  # not JSON, or an integer too long to read
        raise UsageError("malformed trace: %s: %s" % (type(exc).__name__, exc))
    body = data.get("trace", data) if isinstance(data, dict) else None
    if body is None:
        raise UsageError("trace file has no trace object")
    cfg = _config(args)
    try:
        trace = ReductionTrace.from_json(body, cfg.precision_bits)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError("malformed trace: %s: %s" % (type(exc).__name__, exc))
    report = verify_trace(trace, cfg)
    if args.output == "json":
        _emit(args, _json_dump(report.to_json()))
    else:
        _emit(args, "verified: %s\nmax forward residual: %s\n" % (
            "yes" if report.matched else "NO",
            mpmath.nstr(report.max_forward_residual, 8)))
    return EXIT_OK if report.matched else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="bringform",
                     description="quintic reduction to y^5 + P y + Q by "
                                 "low-degree subsidiary transformations")
    sub = parser.add_subparsers(dest="command")

    def common(p, coeffs=True):
        if coeffs:
            p.add_argument("--coeffs", nargs="+",
                           help="descending coefficients, rational or decimal")
        p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
        p.add_argument("--tol", default=DEFAULT_TOLERANCE)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("rational", "complex", "auto"),
                       default="auto")
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write to this file instead of stdout")

    common(sub.add_parser("reduce", help="reduce a monic quintic"))
    common(sub.add_parser("solve", help="closed-form roots, degree <= 4"))
    common(sub.add_parser("obstruction", help="quartic pure-form blockage report"))
    pv = sub.add_parser("verify", help="re-check an emitted trace")
    pv.add_argument("--in", dest="infile", help="trace JSON file, or - for stdin")
    common(pv, coeffs=False)
    return parser


def _validate(args):
    if args.precision_bits < 64 or args.precision_bits > 1 << 20:
        raise UsageError("--precision-bits must be between 64 and 2^20")
    try:
        t = as_tol(args.tol)
    except ValueError:
        raise UsageError("--tol must be a number, got %r" % args.tol)
    if not (t > 0 and t < 1):  # also refuses nan and inf
        raise UsageError("--tol must lie strictly between 0 and 1, got %r" % args.tol)
    floor = noise_tol(args.precision_bits)
    if t < floor and args.command != "obstruction":  # the one command that reads no tol
        raise UsageError("--tol %s is finer than %d bits resolve; use --tol 1e%d or coarser"
                         % (args.tol, args.precision_bits,
                            math.ceil(floor.man_exp[1] * math.log10(2))))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("choose a subcommand: reduce, solve, obstruction, verify")
        _validate(args)
        handler = {"reduce": cmd_reduce, "solve": cmd_solve,
                   "obstruction": cmd_obstruction, "verify": cmd_verify}[args.command]
        return handler(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDenominator as exc:
        print("degenerate input: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except ConsistencyError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
