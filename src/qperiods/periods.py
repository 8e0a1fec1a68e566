"""Global layer over the rationals: the dimension table of local factors at
the even prime, the attached quadratic characters, and numeric evaluation of
the resulting period expressions by truncated Euler products.

Everything runs over the base dyadic field (q = 2, e = 1) with beta = 0.
The headline quantities are only defined up to multiplicative constants
independent of alpha, so every table entry drops exactly those constants and
every check is a proportionality check with the constant exhibited.

Conventions, for a target dimension n >= 3: k hyperbolic planes are split
off until the kernel (dimension m = n - 2k) is anisotropic, and the table
entries are written in

    z = q^-k,   w = q^-(k+1),   u = q^-n,   a = q^-alpha.
"""

from fractions import Fraction
from itertools import compress
import math
from math import prod

from .ratfunc import (RF, IQv, AVv, VAR_AV,
                      ratio_if_proportional, pretty_rf)
from .closedforms import (PiecewiseGeometric, closed_profile, pi_geometric,
                          zeta_Z, local_factor_chain)
from .qform import witt_profile

ONE = RF.const(1)
HALF = Fraction(1, 2)

# evaluate_period refuses a larger p_max before its sieve allocates
# p_max + 1 bytes; at this limit it takes a few seconds
P_MAX_LIMIT = 10 ** 7

_PRETTY_NAMES = ("z", "1/q", "a")


# Python 3.11 converts ints of at most this many digits to str by default
_STR_DIGITS = 4300


def _decimal_digits(m: int) -> int:
    """The number of decimal digits of |m|, without converting it to str."""
    m = abs(m)
    # 2^(b-1) <= m < 2^b leaves two candidates, d and d + 1
    d = int(m.bit_length() * math.log10(2))
    return d + 1 if 10 ** d <= m else max(d, 1)


def _frac_str(x: Fraction) -> str:
    """x as "p/q", or, once a part has more than the _STR_DIGITS digits
    Python converts to str by default, as "<d digits>/<d digits>"."""
    digits = [_decimal_digits(m) for m in (x.numerator, x.denominator)]
    if max(digits) <= _STR_DIGITS:
        return "%d/%d" % (x.numerator, x.denominator)
    return "%s<%d digits>/<%d digits>" % ("-" * (x < 0), *digits)


def _pretty(f: RF) -> str:
    return pretty_rf(f, _PRETTY_NAMES)


def _at_q2(f: RF, alpha: int) -> Fraction:
    """f at q = 2 and a = 2^-alpha; ZeroDivisionError at a pole."""
    return f.value(iq=HALF, av=HALF ** alpha)


def constant_ratio_at_q2(pairs):
    """The constant c with fv == c*gv on every sampled pair (fv, gv) of
    values of f and g at q = 2, or None (also when every gv is 0).

    The samples are taken at q = 2 because some table entries fold the
    two-element square-root multiplicity, an integer 2, into powers of q:
    they match the assembled forms only once q is the number 2, not as
    rational functions in q.
    """
    return _constant_ratio(((fv.numerator, fv.denominator),
                            (gv.numerator, gv.denominator))
                           for fv, gv in pairs)


def _constant_ratio(pairs):
    """constant_ratio_at_q2 on values given as unreduced integer pairs
    ((fn, fd), (gn, gd)), denominators nonzero: fv = c gv is tested as
    fv gv0 = fv0 gv by cross-multiplying, and only the ratio c = fv0/gv0
    of the first pair with gv0 != 0 is reduced."""
    pairs = list(pairs)
    base = next((pair for pair in pairs if pair[1][0]), None)
    if base is None:
        return None
    (fn0, fd0), (gn0, gd0) = base
    a, b = gn0 * fd0, fn0 * gd0
    if any(fn * gd * a != gn * fd * b for (fn, fd), (gn, gd) in pairs):
        return None
    return Fraction(b, a)


def primes_up_to(N: int):
    """All primes <= N by a plain sieve."""
    if N < 2:
        return []
    flags = bytearray([1]) * (N + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= N:
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
        p += 1
    return list(compress(range(N + 1), flags))


def mod4_character(m: int) -> int:
    """The quadratic character attached to discriminant -1 (chi1) on odd
    integers: +1 on 1 mod 4, -1 on 3 mod 4, multiplicative."""
    if m % 2 == 0:
        raise ValueError("the mod-4 character needs an odd argument")
    return 1 if m % 4 == 1 else -1


# ---------------------------------------------------------------------------
# zeta / L factors of the uncorrected period
# ---------------------------------------------------------------------------

class ZLFactor:
    """One Euler-product factor of a period expression.

    The argument is s = a_mult*alpha + shift.  kind "zeta" uses the trivial
    character, kind "L" the mod-4 character chi1.  power +1 places the
    factor in the numerator, -1 in the denominator.  The table's entries
    are products of zeta factors taken at p = 2, written Z(s) there.
    """

    __slots__ = ("kind", "a_mult", "shift", "power")

    def __init__(self, kind: str, a_mult: int, shift: int, power: int = 1):
        if kind not in ("zeta", "L"):
            raise ValueError("kind must be 'zeta' or 'L'")
        if power not in (1, -1):
            raise ValueError("power must be +1 or -1")
        self.kind = kind
        self.a_mult = a_mult
        self.shift = shift
        self.power = power

    def exponent(self, alpha: int) -> int:
        return self.a_mult * alpha + self.shift

    def local_z(self) -> RF:
        """Z(s) = 1/(1 - q^-s), the zeta factor at p = 2, in (iq, av)."""
        return zeta_Z(self.a_mult, self.shift)

    def dyadic_rf(self) -> RF:
        """The same factor at p = 2 as a rational function in (iq, av);
        chi1 kills the even prime, so L factors contribute 1."""
        if self.kind == "L":
            return ONE
        f = self.local_z()
        return f if self.power == 1 else ONE / f

    def render(self, zeta: str = "zeta") -> str:
        """The factor as text, with `zeta` naming the zeta function."""
        arg = _linear_in_alpha(self.a_mult, self.shift)
        if self.kind == "zeta":
            return "%s(%s)" % (zeta, arg)
        return "L(%s, chi1)" % arg

    def __repr__(self):
        return "ZLFactor(%r, %d, %d, power=%+d)" % (
            self.kind, self.a_mult, self.shift, self.power)


class _LogShiftedZ(ZLFactor):
    """The local factor Z(alpha+shift-log_q x) = zeta_Z(1, shift, x), whose
    argument also carries the rational function x, printed as `name`.  It
    lives at p = 2 only: exponent() leaves x out."""

    __slots__ = ("x", "name")

    def __init__(self, shift: int, x: RF, name: str, power: int):
        super().__init__("zeta", 1, shift, power)
        self.x, self.name = x, name

    def local_z(self) -> RF:
        return zeta_Z(1, self.shift, self.x)

    def render(self, zeta: str = "zeta") -> str:
        return "%s(%s-log_q %s)" % (zeta, _linear_in_alpha(1, self.shift),
                                    self.name)


def _linear_in_alpha(a_mult: int, shift: int) -> str:
    s = "alpha" if a_mult == 1 else "%d*alpha" % a_mult
    if shift > 0:
        s += "+%d" % shift
    elif shift < 0:
        s += "-%d" % (-shift)
    return s


def _render_product(factors, a_power=0, zeta="zeta") -> str:
    """The factors' product times a^a_power as text, a = q^-alpha: "*"
    joins factors, "a*" leads a numerator, " q^-alpha" ends a denominator,
    and a denominator of more than one item is parenthesized."""
    num = [f.render(zeta) for f in factors if f.power == 1]
    den = [f.render(zeta) for f in factors if f.power == -1]
    head = ("a*" if a_power == 1 else "") + ("*".join(num) or "1")
    text = "*".join(den) + (" q^-alpha" if a_power == -1 else "")
    if len(den) + (a_power == -1) > 1:
        text = "(%s)" % text
    return head + " / " + text.lstrip() if text else head


def _entry_rf(factors, a_power=0) -> RF:
    """The same product as a rational function in (iq, av): the numerator
    factors' Z over the denominator factors' Z (times a if a_power = -1),
    times a if a_power = +1."""
    num = [f.local_z() for f in factors if f.power == 1]
    den = [f.local_z() for f in factors if f.power == -1]
    if a_power == -1:
        den.append(AVv)
    rf = prod(num[1:], start=num[0]) if num else ONE
    if den:
        rf = rf / prod(den[1:], start=den[0])
    return rf * AVv if a_power == 1 else rf


def uncorrected_factors(n: int, delta: int):
    """The zeta/L content of the global period before the even-prime
    correction: zeta(alpha-n)/L(alpha-floor(n/2), chi) for odd n and
    zeta(alpha-n) L(alpha-n/2, chi)/zeta(2*alpha-n) for even n, with the
    trivial character when delta = +1 and chi1 when delta = -1."""
    kind = "zeta" if delta == 1 else "L"
    half = n // 2
    if n % 2 == 1:
        return (ZLFactor("zeta", 1, -n), ZLFactor(kind, 1, -half, -1))
    return (ZLFactor("zeta", 1, -n), ZLFactor(kind, 1, -half),
            ZLFactor("zeta", 2, -n, -1))


# ---------------------------------------------------------------------------
# The table, one row per residue of n mod 8 (rows labelled 3..10 by the
# smallest n they cover), parameterized by ell = (n - row)/8.
# ---------------------------------------------------------------------------

def _row_base(n: int) -> int:
    return 3 + (n - 3) % 8


def _q(e: int) -> RF:
    return RF.monomial(0, e)


def _Z(a_mult: int, shift: int, power: int = 1) -> ZLFactor:
    return ZLFactor("zeta", a_mult, shift, power)


def _x1_entry(row, n, k):
    """The kernel's X profile in the numeric variables (iq only), with the
    T dependence through u^T = q^(-nT), normalized so the constant part
    is 1: X = 1 + c u^T from T = T0 on.  Returns (profile, display
    string)."""
    u, w, z = _q(n), _q(k + 1), _q(k)
    exc, T0 = {}, 0
    if row == 3:
        c, text = -u, "1 - u*u^T"
    elif row == 4:
        c, text = -w, "1 - w*u^T"
    elif row == 5:
        c, text = -(u + z) / (ONE + z), "1 - ((u+z)/(1+z))*u^T"
    elif row == 6:
        # The kernel is zero-dimensional: it represents only 0, so X
        # vanishes at T = 0 and picks up one level per step afterwards.
        # The delta-like shortcut "1 at T = 0, else 0" fails the
        # proportionality check (a); see the flags.
        c, text = -ONE, "1 - u^T"
    elif row == 7:
        c = u * (ONE - w - u) / (ONE + w - u)
        text = "1 + ((1-w-u)/(1+w-u))*u*u^T"
    elif row == 8:
        c, text = w, "1 + w*u^T"
    elif row == 9:
        c, text = -(u - w) / (ONE - w), "1 - ((u-w)/(1-w))*u^T"
    elif row == 10:
        exc, T0 = {0: (ONE - w * IQv) / (ONE - w)}, 1
        c = (ONE - w * IQv ** 2) / (IQv * (ONE - w))
        text = "(1-w/q)/(1-w) at T=0;  1 + ((1-w/q^2)/(q^-1 (1-w)))*u^T for T>=1"
    else:
        raise ValueError("row %d" % row)
    tail = [(ONE, (0, 0)), (c, (0, n))]
    return PiecewiseGeometric(n, 1, exc, T0, tail), text


def _row7_head(n, k) -> RF:
    """1 + w + u, the denominator of row 7's v = 2u/(1+w+u)."""
    return ONE + _q(k + 1) + _q(n)


_ROW7_V = ",  v = 2u/(1+w+u)"


def _row_entries(row, n, k, ell):
    """Pi (common alpha-free factors dropped) and the even-prime correction
    of the row, each as (factors, power of a), then v and the flags.  Pi
    is Z(alpha) Z(alpha+n) times its factors; row 7's Pi also carries
    (1 - a v), see GlobalPeriodSpec.pi2.  Flags record rows where a
    tempting shortcut form is rejected by the consistency checks."""
    h, l4 = n // 2, 4 * ell
    v = {4: -_q(k + 1), 5: -_q(k), 8: _q(k + 1), 9: _q(k + 1)}.get(row)
    if row == 7:
        v = 2 * _q(n) / _row7_head(n, k)
    pi, pi_a, corr, corr_a = {
        3: ((), 0, (_Z(1, -(l4 + 1)),), -1),
        4: ((_Z(1, h), _Z(2, n, -1)), 0, (_Z(1, -h),), -1),
        5: ((_Z(1, k), _Z(2, n - 1, -1)), 0,
            (_Z(1, -(l4 + 3)), _Z(2, -(n + 1), -1)), -1),
        # One power of a = q^-alpha survives the dropped constants here:
        # Pi = a(1-u)/((1-a)(1-au)) up to the T-free factor 1/(1-z).
        6: ((), 1, (_Z(2, -n), _Z(1, -h, -1)), 0),
        7: ((), 0, (_Z(1, -(l4 + 3)), _LogShiftedZ(-n, v, "v", -1)), -1),
        8: ((_Z(1, k + 1, -1),), 0, (_Z(2, -n), _Z(1, -h, -1)), -1),
        9: ((_Z(1, k + 1, -1),), 0, (_Z(1, -(l4 + 5), -1),), -1),
        10: ((_Z(1, h), _Z(1, k + 1, -1), _Z(2, n, -1)), 0,
             (_Z(1, -(l4 + 6), -1),), -1),
    }[row]
    flags = {
        6: ("row 6: the entry X = [T = 0] would make Pi = 1 and the "
            "correction Z(2*alpha-%d)/(Z(alpha)Z(alpha-%d)Z(alpha-%d) "
            "q^-alpha); both fail checks (a) and (c) against the "
            "zero-dimensional densities, which give X = 1 - u^T and a "
            "q^-alpha-free correction" % (n, n, h),),
        7: ("row 7: the denominator is Z(alpha-%d-log_q v) with "
            "v = 2u/(1+w+u); the variant Z(alpha-%d-log_q(1+w+u)) with "
            "numerator Z(alpha-%d) fails check (c)" % (n, n + 1, l4 + 1),),
    }.get(row, ())
    return ((_Z(1, 0), _Z(1, n)) + pi, pi_a), (corr, corr_a), v, flags


class GlobalPeriodSpec:
    """The table row for dimension n >= 3: the Witt data, the kernel's X
    entry, Pi, the uncorrected zeta/L expression, and the even-prime
    correction.  Pi and the correction are stored once each, as (factors,
    power of a); their rational functions and their text derive from it."""

    __slots__ = ("n", "row", "ell", "delta", "witt", "x1", "x1_str",
                 "pi2_entry", "correction2_entry", "v", "flags",
                 "uncorrected")

    def __init__(self, n: int):
        self.n, self.witt = n, witt_profile(n)
        self.row = _row_base(n)
        self.ell = (n - self.row) // 8
        self.delta = self.witt.delta
        self.x1, self.x1_str = _x1_entry(self.row, n, self.witt.k)
        (self.pi2_entry, self.correction2_entry, self.v,
         self.flags) = _row_entries(self.row, n, self.witt.k, self.ell)
        self.uncorrected = uncorrected_factors(n, self.delta)

    @property
    def chi(self) -> str:
        return "chi0" if self.delta == 1 else "chi1"

    @property
    def pi2(self) -> RF:
        rf = _entry_rf(*self.pi2_entry)
        return rf * (ONE - AVv * self.v) if self.row == 7 else rf

    @property
    def pi2_str(self) -> str:
        text = _render_product(*self.pi2_entry, zeta="Z")
        return text + " * (1 - a*v)" + _ROW7_V if self.row == 7 else text

    @property
    def correction2(self) -> RF:
        return _entry_rf(*self.correction2_entry)

    @property
    def correction2_str(self) -> str:
        text = _render_product(*self.correction2_entry, zeta="Z")
        return text + _ROW7_V if self.row == 7 else text

    def uncorrected_str(self) -> str:
        return _render_product(self.uncorrected)

    def local2_rf(self) -> RF:
        """The exact even-prime local factor: the uncorrected expression's
        factor at p = 2 times the correction."""
        return (prod((f.dyadic_rf() for f in self.uncorrected), start=ONE)
                * self.correction2)

    def to_json(self) -> dict:
        w = self.witt
        return {
            "n": self.n,
            "row": self.row,
            "ell": self.ell,
            "k": w.k,
            "m": w.m,
            "delta": self.delta,
            "hmi": w.hmi,
            "chi": self.chi,
            "x": self.x1_str,
            "pi": self.pi2_str,
            "v": None if self.v is None else _pretty(self.v),
            "uncorrected": self.uncorrected_str(),
            "correction2": self.correction2_str,
            "flags": list(self.flags),
        }

    def __repr__(self):
        return "GlobalPeriodSpec(n=%d, row=%d, delta=%+d, chi=%s)" % (
            self.n, self.row, self.delta, self.chi)


def table_row(n: int) -> GlobalPeriodSpec:
    """Assemble the full row for dimension n >= 3."""
    return GlobalPeriodSpec(n)


# ---------------------------------------------------------------------------
# Symbolic verification of a row
# ---------------------------------------------------------------------------

def _verdict(ratio, show) -> dict:
    return {"pass": ratio is not None,
            "ratio": None if ratio is None else show(ratio)}


# closed_profile of each chain kernel, keyed by its Witt class (m, delta,
# hmi): n mod 8 fixes the class, so rows n and n + 8 share one entry
_KERNEL_PROFILES = {}


def _kernel_profile(wp) -> PiecewiseGeometric:
    """closed_profile(wp.kernel_form), built once per Witt class; the
    profile is shared, so callers only read it."""
    key = (wp.m, wp.delta, wp.hmi)
    if key not in _KERNEL_PROFILES:
        _KERNEL_PROFILES[key] = closed_profile(wp.kernel_form)
    return _KERNEL_PROFILES[key]


def _values_at_q2(prof: PiecewiseGeometric, Ts, k=None):
    """prof.value_at(T) at q = 2 and z = 2^-k for each T, as an unreduced
    pair (numerator, denominator) of ints, with each tail coefficient
    evaluated once.  From T0 on X(T) = sum_j c_j r_j^T with c_j = a_j/b_j
    and r_j = 2^-e_j, so X(T) is an integer over prod_j b_j * 2^E with E
    the largest e_j T (or 0): no gcd is taken.  The profile must be free
    of av, and of z when k is None (ValueError otherwise)."""
    z = None if k is None else HALF ** k
    cs, es = [], []
    for c, (ez, eiq) in prof.tail:
        if ez and k is None:
            raise ValueError("no value given for z in the ratio z^%d" % ez)
        cs.append(c.value(z=z, iq=HALF))
        es.append(ez * (k or 0) + eiq)
    # a_j times the other coefficients' denominators
    scaled = [c.numerator * prod(d.denominator for i, d in enumerate(cs)
                                 if i != j) for j, c in enumerate(cs)]
    den = prod(c.denominator for c in cs)
    out = []
    for T in Ts:
        if T < prof.T0:
            x = prof.exceptional[T].value(z=z, iq=HALF)
            out.append((x.numerator, x.denominator))
            continue
        E = max([e * T for e in es] + [0])
        out.append((sum(a << (E - e * T) for a, e in zip(scaled, es)),
                    den << E))
    return out


def verify_table_row(n: int) -> dict:
    """Three symbolic checks of the row for dimension n.

    (a) the closed-form X of the kernel, specialized to beta = k and
        evaluated at q = 2, is a T-independent multiple of the row's X
        entry (T in 0..3, exact rationals);
    (b) summing av^T against the row's X entry reproduces the row's Pi up
        to a constant free of av;
    (c) Pi(alpha-n, k)/(av Z(alpha)) equals the uncorrected expression's
        even-prime factor times the correction, up to a constant free
        of av.

    Failures are reported, not raised.
    """
    spec = table_row(n)
    wp, pi2 = spec.witt, spec.pi2
    # the kernel's X at beta = k, that is z = q^-k
    ca = _constant_ratio(zip(
        _values_at_q2(_kernel_profile(wp), range(4), k=wp.k),
        _values_at_q2(spec.x1, range(4))))
    cb = ratio_if_proportional(pi_geometric(spec.x1), pi2,
                               constant_free_of=(VAR_AV,))
    # the table's Pi is already at beta = k, so the z substitution is a no-op
    cc = ratio_if_proportional(local_factor_chain(pi2, n, wp.k),
                               spec.local2_rf(), constant_free_of=(VAR_AV,))
    checks = {"a": _verdict(ca, _frac_str), "b": _verdict(cb, _pretty),
              "c": _verdict(cc, _pretty)}

    return {**spec.to_json(), "checks": checks,
            "pass": all(entry["pass"] for entry in checks.values())}


def local_factor_report(n: int, alpha: int = None) -> dict:
    """The even-prime local factor for dimension n: the chain assembled
    from the kernel's closed form, the table's normalized entry, and the
    verdict whether they agree up to a constant free of alpha, with that
    constant as "ratio".  Given alpha, also the entry's value at q = 2.

    The constant is sought symbolically first, then by sampling at q = 2
    over alpha = n+2..n+6 (see constant_ratio_at_q2).
    """
    spec = table_row(n)
    chain = local_factor_chain(
        pi_geometric(_kernel_profile(spec.witt)), n, spec.witt.k)
    table = spec.local2_rf()
    ratio = ratio_if_proportional(chain, table, constant_free_of=(VAR_AV,))
    if ratio is not None:
        ratio_repr = _pretty(ratio)
    else:
        c = constant_ratio_at_q2((_at_q2(chain, a), _at_q2(table, a))
                                 for a in range(n + 2, n + 7))
        ratio_repr = None if c is None else _frac_str(c)
    report = {
        "n": n,
        "local_factor": _pretty(chain),
        "normalized": _pretty(table),
        "ratio": ratio_repr,
        "consistent": ratio_repr is not None,
    }
    if alpha is not None:
        _check_alpha(n, alpha, table)
        report["alpha"] = alpha
        report["value"] = _frac_str(_at_q2(table, alpha))
    return report


def _check_alpha(n: int, alpha: int, entry: RF = None):
    """Reject alpha outside the convergence range alpha > n + 1.  Given
    the even-prime entry, say so when alpha is a pole of it; that is
    tested for alpha >= 0 only, where a = 2^-alpha stays small."""
    if alpha > n + 1:
        return
    if entry is not None and alpha >= 0:
        try:
            _at_q2(entry, alpha)
        except ZeroDivisionError:
            raise ValueError("alpha = %d sits on a pole; needs alpha > %d"
                             % (alpha, n + 1))
    raise ValueError("need alpha > n + 1 = %d for convergence, got %d"
                     % (n + 1, alpha))


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

class PeriodValue:
    """An Euler-product value with a proven absolute error bound.

    value is a rational approximation, not the truncated product itself:
    the full product lies in [value - tail_bound, value + tail_bound],
    which covers both the omitted primes and the rounding of the included
    ones.  Meaningful up to a multiplicative constant independent of alpha.
    """

    __slots__ = ("n", "alpha", "p_max", "value", "tail_bound", "expression")

    def __init__(self, n, alpha, p_max, value, tail_bound, expression):
        self.n = n
        self.alpha = alpha
        self.p_max = p_max
        self.value = value
        self.tail_bound = tail_bound
        self.expression = expression

    def decimal(self, digits: int = 12) -> str:
        """The value rounded to `digits` places, or, once that takes more
        than _STR_DIGITS digits, to `digits` significant digits in
        scientific notation."""
        if digits < 1:
            raise ValueError("digits must be at least 1, got %d" % digits)
        if digits > _STR_DIGITS:
            raise ValueError("digits must be at most %d, got %d"
                             % (_STR_DIGITS, digits))
        y = abs(self.value)
        sign = "-" if self.value < 0 else ""
        m = (y.numerator * 10 ** digits + y.denominator // 2) // y.denominator
        if m < 10 ** _STR_DIGITS:
            s = str(m).rjust(digits + 1, "0")
            return sign + s[:-digits] + "." + s[-digits:]
        e = _decimal_digits(m) - 1 - digits  # y < 10^(e + 1), up to rounding
        x = y / Fraction(10) ** (e + 1 - digits)
        m = (x.numerator + x.denominator // 2) // x.denominator
        if m == 10 ** digits:
            m, e = m // 10, e + 1
        s = str(m)
        return "%s%s%se%+d" % (sign, s[0], "." + s[1:] if digits > 1 else "",
                               e)

    def to_json(self, digits: int = 12) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "p_max": self.p_max,
            "value": _frac_str(self.value),
            "tail_bound": _frac_str(self.tail_bound),
            "decimal": self.decimal(digits),
            "precision": ("%d decimal digits; the full product lies within "
                          "tail_bound of value" % digits),
            "expression": self.expression,
            "normalization": "up to a multiplicative constant",
        }

    def __repr__(self):
        return "PeriodValue(n=%d, alpha=%d, p_max=%d, value~%s)" % (
            self.n, self.alpha, self.p_max, self.decimal(6))


def _as_integer(alpha) -> int:
    if isinstance(alpha, Fraction):
        if alpha.denominator != 1:
            raise ValueError(
                "alpha must be an integer for exact evaluation; got %s" % alpha)
        return int(alpha)
    if isinstance(alpha, int):
        return alpha
    raise ValueError("alpha must be an integer, got %r" % (alpha,))


def _prime_terms(factors, alpha: int):
    """What _local_products reads of each factor, (s, is_zeta, power) with
    s = exponent(alpha), computed once for every prime."""
    return tuple((f.exponent(alpha), f.kind == "zeta", f.power)
                 for f in factors)


def _local_products(terms, primes):
    """For each odd prime p of primes, the product of the factors' local
    factors at p as an unreduced pair (numerator, denominator), the factors
    given by _prime_terms: p^s/(p^s - chi(p)) for each, inverted when its
    power is -1, with chi trivial for zeta and the mod-4 character for L.
    Every s must be >= 2, as _check_alpha ensures."""
    for p in primes:
        chi = 1 if p & 3 == 1 else -1  # mod4_character(p), without its checks
        num = den = 1
        for s, is_zeta, power in terms:
            ps = p ** s
            d = ps - (1 if is_zeta else chi)
            if power == 1:
                num *= ps
                den *= d
            else:
                num *= d
                den *= ps
        yield num, den


def _enclosing_product(pairs, B: int):
    """(lo, hi) with lo <= 2^B prod(num/den) <= hi over positive fractions
    given as pairs (num, den): a running product of numbers scaled by 2^B,
    lo rounded down and hi rounded up at every step."""
    lo = hi = 1 << B
    for num, den in pairs:
        q, r = divmod(num << B, den)
        lo = (lo * q) >> B
        hi = -((-hi * (q + (r > 0))) >> B)
    return lo, hi


def _round_up_64(x: Fraction) -> Fraction:
    """x >= 0 rounded up to 64 significant bits: m/2^k with m the ceiling
    of x 2^k, for the k with 2^63 <= x 2^k < 2^64, so larger than x by a
    relative factor below 2^-63; x itself when its numerator and
    denominator fit in 64 bits."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= 64 and den.bit_length() <= 64:
        return x
    # x 2^k lies in (2^63, 2^65) for this k, and in [2^63, 2^64) after the
    # correction
    k = 64 - (num.bit_length() - den.bit_length())
    num, den = (num << k, den) if k >= 0 else (num, den << -k)
    if num >= den << 64:
        k -= 1
        den <<= 1
    m = -(-num // den)
    return Fraction(m, 1 << k) if k >= 0 else Fraction(m << -k)


def evaluate_period(n: int, alpha, p_max: int) -> PeriodValue:
    """The period expression for dimension n at a concrete integer alpha:
    the exact even-prime factor c2 times the product over odd primes
    p <= p_max of the uncorrected local factors, with p_max at most
    P_MAX_LIMIT.

    The odd primes go into one outward-rounded fixed-point product: two
    integers lo <= hi scaled by 2^B, each leaf num/den taken as
    q = floor(num 2^B / den), lo rounded down with q and hi rounded up with
    q + 1 when the division is inexact.  Every leaf is positive, so the
    exact truncated product T lies in c2 [lo, hi]/2^B.  value is c2 times
    the midpoint and rho = |c2| (hi - lo)/2^(B+1) its rounding radius.

    The omitted odd primes p > p_max multiply T by R with
    (1-S)^K <= R <= (1-S)^-K, where K is the number of zeta/L factors,
    s = alpha - n the smallest exponent, and S = p_max^(1-s)/(s-1) bounds
    sum_{p > p_max} p^-s; let rel = (1-S)^-K - 1.  tail_bound is
    (|value| + rho) rel + rho rounded up to 64 significant bits, so the
    full product lies in [value - tail_bound, value + tail_bound].  B is
    chosen so that rho stays below 2^-64 |T| rel, and with no odd prime
    (p_max = 2) value is c2 exactly and rho = 0.
    """
    alpha = _as_integer(alpha)
    _check_alpha(n, alpha)
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    if p_max > P_MAX_LIMIT:
        raise ValueError("p_max must be at most %d, got %d"
                         % (P_MAX_LIMIT, p_max))
    spec = table_row(n)
    c2 = _at_q2(spec.local2_rf(), alpha)

    K = len(spec.uncorrected)
    s = alpha - n
    S = Fraction(1, (s - 1) * p_max ** (s - 1))
    rel = (Fraction(1) / (1 - S)) ** K - 1

    primes = primes_up_to(p_max)[1:]
    # 2^-L <= rel.  Each step moves lo and hi by at most 2^-B/x + 2^-B/X
    # relative, where the leaf x and the partial product X both stay above
    # 1/2, so rho <= 4 len(primes) 2^-B |T| <= 2^-64 |T| rel.
    L = rel.denominator.bit_length() - rel.numerator.bit_length() + 1
    B = 66 + max(128, L) + len(primes).bit_length()
    terms = _prime_terms(spec.uncorrected, alpha)
    lo, hi = _enclosing_product(_local_products(terms, primes), B)

    value = c2 * Fraction(lo + hi, 1 << (B + 1))
    rho = abs(c2) * Fraction(hi - lo, 1 << (B + 1))
    tail = _round_up_64((abs(value) + rho) * rel + rho)

    expression = "%s * C2,  C2 = %s" % (spec.uncorrected_str(),
                                        spec.correction2_str)
    return PeriodValue(n, alpha, p_max, value, tail, expression)
