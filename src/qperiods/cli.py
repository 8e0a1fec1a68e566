"""Batch command-line interface: classification, defects and symbols,
counting, series, local factors, global periods, and the verification suite
of `qperiods.checks`.  Each command parses its arguments, calls the library
and prints; the decisions it reports are made in the library.

Exit codes: 0 success (all checks pass), 1 check failure, 2 usage error,
3 internal consistency error (two independent routes to one result
disagreed, which is a bug in qperiods).
JSON output is deterministic: sorted keys, exact rationals as "p/q" strings,
no timings.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .localfield import (make_field, quadratic_defect, hilbert_symbol,
                         InternalConsistencyError)
from .qform import DiagonalForm, invariants, is_anisotropic
from .counting import (count_level_naive, count_level_histogram, x_series,
                       x_series_at, pi_truncated)
from .kernels import EnumBudgetError
from .closedforms import (case_for_form, closed_profile, UnsupportedCase,
                          pi_geometric)
from .ratfunc import pretty_rf
from .periods import (evaluate_period, local_factor_report, _PRETTY_NAMES,
                      _STR_DIGITS, _decimal_digits, _frac_str)


class UsageError(Exception):
    pass


def _emit(args, obj, human: str):
    if getattr(args, "json", False):
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Input grammars
# ---------------------------------------------------------------------------

def parse_field(text: str):
    """Field specs: "q2"/"2" (base dyadic), "q4" (unramified quadratic
    dyadic), odd "3"/"q9" alike, or "ram(c1,c0)" for the ramified dyadic
    extension by x^2 + c1 x + c0."""
    t = text.strip().lower()
    m = re.fullmatch(r"ram\((-?\d+),(-?\d+)\)", t)
    if m:
        try:
            return make_field(2, 1, "ramified",
                              c1=int(m.group(1)), c0=int(m.group(2)))
        except ValueError as ex:
            raise UsageError(str(ex))
    m = re.fullmatch(r"q?(\d+)", t)
    if not m:
        raise UsageError("cannot parse field %r" % text)
    q = int(m.group(1))
    r = math.isqrt(q)
    try:
        if r >= 2 and r * r == q:
            return make_field(r, 2, "unramified")
        return make_field(q)
    except ValueError as ex:
        raise UsageError(str(ex))


_ELT = re.compile(r"(?P<sign>-)?(?:(?P<c>\d+)\*?)?(?:(?P<w>w)(?:\^(?P<k>\d+))?)?")


def _coefficient(m, negative, field):
    """(-1 if negative) c w^k from the groups c, w and k of a match of _ELT
    or _TERM; c defaults to 1, and k to 1 when w is there."""
    c = int(m.group("c") or 1)
    val = field.elt(-c if negative else c)
    if m.group("w"):
        val = val * field.uniformizer() ** int(m.group("k") or 1)
    return val


def parse_element(text, field):
    """Element grammar: an integer, optionally times w^k with w the
    uniformizer ("5", "-3", "2*w", "w^3"); or a coordinate pair "(a,b)"
    for quadratic extensions."""
    s = text.replace(" ", "")
    m = re.fullmatch(r"\((-?\d+),(-?\d+)\)", s)
    if m:
        if field.ncoords != 2:
            raise UsageError("pair syntax needs a two-coordinate field")
        return field.elt(int(m.group(1)), int(m.group(2)))
    m = _ELT.fullmatch(s)
    if not s or not m or (m.group("c") is None and not m.group("w")):
        raise UsageError("cannot parse element %r" % text)
    return _coefficient(m, m.group("sign"), field)


_TERM = re.compile(r"(?:(?P<c>\d+)\*?)?(?:(?P<w>w)(?:\^(?P<k>\d+))?\*?)?"
                   r"x(?:_?\d+)?(?:\^2)?")


def parse_form(text, field):
    """Diagonal-form grammar "c*x_i^2 +- ...": integer coefficients,
    optionally times w^k, acting on squared variables; variable indices
    are decorative.  Example: "x1^2 + x2^2 - 3*w*x3^2"."""
    s = text.replace(" ", "")
    if not s:
        raise UsageError("empty form")
    if s[0] not in "+-":
        s = "+" + s
    toks = re.findall(r"[+-][^+-]+", s)
    if "".join(toks) != s:
        raise UsageError("cannot parse form %r" % text)
    coeffs = []
    for tok in toks:
        m = _TERM.fullmatch(tok[1:])
        if not m:
            raise UsageError("cannot parse term %r" % tok)
        coeffs.append(_coefficient(m, tok[0] == "-", field))
    return coeffs


def _build_form(args, field) -> DiagonalForm:
    planes = getattr(args, "planes", 0) or 0
    try:
        return DiagonalForm(field, parse_form(args.form, field), planes=planes)
    except ValueError as ex:
        raise UsageError(str(ex))


def parse_n_range(text: str):
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not m:
        raise UsageError("cannot parse range %r (use A or A..B)" % text)
    a = int(m.group(1))
    b = int(m.group(2)) if m.group(2) else a
    if b < a:
        raise UsageError("empty range %r" % text)
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# Simple commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    field = parse_field(args.field)
    B = _build_form(args, field)
    iv = invariants(B)
    aniso = is_anisotropic(B)
    case = None
    if aniso and B.planes == 0:
        try:
            c = case_for_form(B)
            case = {"tag": c.tag, "d": c.d}
        except UnsupportedCase:
            case = None
    obj = iv.to_json()
    obj.update({
        "field": field.to_json(),
        "anisotropic": aniso,
        "case": case,
    })
    human = ("m=%d disc=%s kind=%s d=%s hmi=%+d anisotropic=%s case=%s"
             % (iv.m, obj["disc_repr"], obj["disc_kind"], obj["d"], iv.hmi,
                "yes" if aniso else "no",
                case["tag"] if case else "-"))
    _emit(args, obj, human)
    return 0


def cmd_defect(args) -> int:
    field = parse_field(args.field)
    val = parse_element(args.value, field)
    if val.is_zero():
        raise UsageError("quadratic defect of 0 is undefined")
    res = quadratic_defect(field, val)
    ideal = "0" if res.is_square else "pi^%d*o" % res.d
    obj = {"value": args.value, "ord": res.o, "kind": res.kind,
           "d": res.d, "defect_ideal": ideal}
    _emit(args, obj, "defect(%s): kind=%s d=%s ideal=%s (ord %d)"
          % (args.value, res.kind, res.d, ideal, res.o))
    return 0


def cmd_hilbert(args) -> int:
    field = parse_field(args.field)
    a = parse_element(args.a, field)
    b = parse_element(args.b, field)
    if a.is_zero() or b.is_zero():
        raise UsageError("the symbol needs nonzero entries")
    s = hilbert_symbol(field, a, b)
    _emit(args, {"a": args.a, "b": args.b, "symbol": s},
          "(%s, %s) = %+d" % (args.a, args.b, s))
    return 0


def cmd_count(args) -> int:
    field = parse_field(args.field)
    B = _build_form(args, field)
    if not args.zero and args.rho is None:
        raise UsageError("need one of --rho, --zero")
    rho = field.elt(0) if args.zero else parse_element(args.rho, field)
    if args.method == "naive":
        value = count_level_naive(B, rho, args.ell)
    else:
        value = count_level_histogram(B, rho, args.ell)
    obj = {"ell": args.ell, "method": args.method, "value": _frac_str(value)}
    _emit(args, obj, "X_%d = %s" % (args.ell, _frac_str(value)))
    return 0


def cmd_xseries(args) -> int:
    field = parse_field(args.field)
    B = _build_form(args, field)
    if args.closed:
        if args.rho is not None:
            raise UsageError("--closed takes --T or --zero, not --rho")
        prof = closed_profile(B)
        if args.zero:
            coeffs = prof.zero_series(field.q, args.L)
        else:
            if args.T is None:
                raise UsageError("--closed needs --T or --zero")
            coeffs = prof.series_at(args.T, field.q, args.L)
        mode = "closed"
    else:
        kw = {"direct": args.direct}
        if args.zero:
            series = x_series_at(B, None, args.L, **kw)
        elif args.T is not None:
            series = x_series_at(B, args.T, args.L, **kw)
        elif args.rho is not None:
            series = x_series(B, parse_element(args.rho, field), args.L, **kw)
        else:
            raise UsageError("need one of --rho, --T, --zero")
        coeffs = list(series.coeffs)
        mode = "oracle"
    strs = [_frac_str(Fraction(c)) for c in coeffs]
    _emit(args, {"L": args.L, "mode": mode, "coeffs": strs},
          "coeffs " + ",".join(strs))
    return 0


def cmd_pi(args) -> int:
    field = parse_field(args.field)
    B = _build_form(args, field)
    if args.symbolic:
        if args.L is not None or args.T_max is not None:
            raise UsageError("--symbolic takes no --L or --T-max")
        rf = pi_geometric(closed_profile(B))
        text = pretty_rf(rf, _PRETTY_NAMES)
        _emit(args, {"pi": text}, "Pi = %s" % text)
        return 0
    if args.alpha_value is None:
        raise UsageError("need --symbolic or --alpha-value with --L/--T-max")
    try:
        a_val = Fraction(args.alpha_value)
    except (ValueError, ZeroDivisionError):
        raise UsageError("cannot parse --alpha-value %r" % args.alpha_value)
    L = 6 if args.L is None else args.L
    T_max = 24 if args.T_max is None else args.T_max
    coeffs = pi_truncated(B, a_val, L, T_max)
    strs = [_frac_str(c) for c in coeffs]
    _emit(args, {"alpha_value": args.alpha_value, "L": L,
                 "T_max": T_max, "coeffs": strs},
          "coeffs " + ",".join(strs))
    return 0


def cmd_localfactor(args) -> int:
    obj = local_factor_report(args.n, args.alpha)
    human = "local factor at 2 (n=%d): %s  [consistent=%s]" % (
        args.n, obj["normalized"], obj["consistent"])
    if "value" in obj:
        human += "  value(alpha=%d)=%s" % (args.alpha, obj["value"])
    _emit(args, obj, human)
    return 0 if obj["consistent"] else 1


def _sci(x: Fraction) -> str:
    """x >= 0 as "%.3e" prints float(x), in exact arithmetic and so also
    past the float range (about 1.8e308): x is rounded to 53 significant
    bits, then to four digits, half to even each time."""
    if not x:
        return "0.000e+00"
    b = 53 - x.numerator.bit_length() + x.denominator.bit_length()
    if x * Fraction(2) ** b >= 1 << 53:
        b -= 1
    x = round(x * Fraction(2) ** b) / Fraction(2) ** b
    e = _decimal_digits(x.numerator) - _decimal_digits(x.denominator)
    if x < Fraction(10) ** e:
        e -= 1
    m = round(x * 1000 / Fraction(10) ** e)
    if m == 10000:
        m, e = 1000, e + 1
    return "%d.%03de%+03d" % (m // 1000, m % 1000, e)


def cmd_period(args) -> int:
    pv = evaluate_period(args.n, args.alpha, args.pmax)
    # first, so a bad --digits is reported as such and not as a digit limit
    human = ("period(n=%d, alpha=%d, pmax=%d) ~ %s  tail <= %s\n"
             "  %s  [up to a multiplicative constant]"
             % (args.n, args.alpha, args.pmax, pv.decimal(args.digits),
                _sci(pv.tail_bound), pv.expression))
    obj = None
    if args.json:
        # only --json spells out value and tail_bound as fractions; for a
        # large alpha they have more digits than Python converts from int to
        # str by default
        digits = max(_decimal_digits(m) for x in (pv.value, pv.tail_bound)
                     for m in (x.numerator, x.denominator))
        if digits > _STR_DIGITS:
            raise UsageError(
                "--json prints value and tail_bound as exact fractions, "
                "which have up to %d digits at alpha = %d; drop --json to "
                "print the decimal" % (digits, args.alpha))
        obj = pv.to_json(args.digits)
    _emit(args, obj, human)
    return 0


def cmd_verify(args) -> int:
    from . import checks  # loaded here only: no other command needs it
    subsets = [s for s in checks.SUBSETS if getattr(args, s)] or checks.SUBSETS
    ns = parse_n_range(args.n) if args.n else range(3, 19)
    if ns.start < 3:  # as localfactor and period refuse such an n
        raise UsageError("need n >= 3 (smaller targets are anisotropic)")
    results = checks.run_checks(subsets, ns, args.quick)
    ok = all(p for _, p, _ in results)
    obj = {"pass": ok, "checks": [{"name": n, "pass": p, "detail": d}
                                  for n, p, d in results]}
    lines = [("ok   " if p else "FAIL ") + n + ("  (%s)" % d if d else "")
             for n, p, d in results]
    lines.append("verify: %d/%d checks passed"
                 % (sum(p for _, p, _ in results), len(results)))
    _emit(args, obj, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qperiods",
        description="Exact dyadic local densities of quadratic forms and "
                    "the global period tables built from them.")
    sub = ap.add_subparsers(dest="command", required=True)

    # the options several subcommands share, in the order they come
    shared = {"--field": {"required": True}, "--form": {"required": True},
              "--planes": {"type": int, "default": 0}}

    def add(name, fn, help_, *options):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (sorted keys)")
        for flag in options:
            p.add_argument(flag, **shared[flag])
        return p

    add("classify", cmd_classify, "invariants of a diagonal form", *shared)

    p = add("defect", cmd_defect, "quadratic defect of an element", "--field")
    p.add_argument("--value", required=True)

    p = add("hilbert", cmd_hilbert, "Hilbert symbol of two elements",
            "--field")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("count", cmd_count, "one level density X_ell", *shared)
    p.add_argument("--rho", default=None)
    p.add_argument("--zero", action="store_true")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--method", choices=("histogram", "naive"),
                   default="histogram")

    p = add("xseries", cmd_xseries, "level series, by counting or closed form",
            *shared)
    p.add_argument("--rho", default=None)
    p.add_argument("--T", type=int, default=None,
                   help="target w^(2T) instead of --rho")
    p.add_argument("--zero", action="store_true", help="target 0")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--closed", action="store_true",
                   help="use the closed form (needs --T or --zero)")
    p.add_argument("--direct", action="store_true",
                   help="disable the stabilized extension")

    p = add("pi", cmd_pi, "Pi, symbolic or numerically truncated",
            "--field", "--form")
    # --symbolic ignores the numeric flags, so a value given with it is
    # refused rather than dropped; --L and --T-max default to None so that
    # cmd_pi can tell them apart from their numeric defaults, 6 and 24
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--symbolic", action="store_true")
    mode.add_argument("--alpha-value", default=None,
                      help="numeric q^-alpha as a fraction, e.g. 1/4")
    p.add_argument("--L", type=int, default=None, help="default 6")
    p.add_argument("--T-max", dest="T_max", type=int, default=None,
                   help="default 24")

    p = add("localfactor", cmd_localfactor,
            "even-prime local factor for the dimension-n chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=None)

    p = add("period", cmd_period, "global period by truncated Euler product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--digits", type=int, default=12)

    p = add("verify", cmd_verify, "run the verification suite")
    p.add_argument("--lemmas", action="store_true")
    p.add_argument("--closedforms", action="store_true")
    p.add_argument("--tables", action="store_true")
    p.add_argument("--n", default=None, help="table rows, e.g. 3..18")
    p.add_argument("--quick", action="store_true")

    return ap


# a value may start with "-", as the element -w, the form -x1^2+x2^2 and
# the element -3*w do, and argparse would take such a word for an option:
# a word "-..." after a long option is joined to it, --a -w to --a=-w, so
# that argparse reads it as the value of the option it resolves, an
# abbreviation such as --val included.  -h stays the help flag, and a flag
# joined to a value is refused, as the separate word was.
def _join_values(argv):
    out = []
    for word in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and word.startswith("-") and not word.startswith("--")
                and word not in ("-", "-h")):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as ex:
        code = ex.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (UsageError, EnumBudgetError, ValueError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except InternalConsistencyError as ex:
        print("error: internal consistency: %s" % ex, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
