"""Exact rational functions over Q in the three indeterminates z, iq, av.

z is the generating-series variable, iq stands for the inverse residue
size 1/q, and av is the weight a single uniformizer power carries in
t-weighted sums.  Exponents may be negative (Laurent terms show up in a
few tail coefficients), and all coefficients are exact rationals, held as
integers over a common denominator, so every comparison is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

VAR_Z, VAR_IQ, VAR_AV = 0, 1, 2
VAR_NAMES = ("z", "iq", "av")

Mono = tuple

# Fraction(n, d) for coprime n and d > 0, without a gcd: a classmethod
# from Python 3.12, a keyword before it
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda n, d: Fraction(n, d, _normalize=False))


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


ONE_MONO: Mono = (0, 0, 0)


class Poly:
    """Laurent polynomial over Q, keyed by exponent triples.

    As FLINT's fmpq_poly does, it stores integer numerators (`nums`, none
    zero) over one positive common denominator `den`, in lowest terms, so
    arithmetic runs on ints and equal polynomials have equal fields.
    `terms` is a read-only view of the coefficients as Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        fr = {}
        if terms:
            for mono, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    fr[tuple(mono)] = c
        # each prime of the lcm divides some reduced denominator fully, so
        # its numerator keeps the result in lowest terms
        self.den = math.lcm(*(c.denominator for c in fr.values()))
        self.nums = {m: c.numerator * (self.den // c.denominator)
                     for m, c in fr.items()}

    @classmethod
    def const(cls, c) -> "Poly":
        return cls.monomial(coeff=c)

    @classmethod
    def var(cls, idx: int) -> "Poly":
        mono = [0, 0, 0]
        mono[idx] = 1
        return cls({tuple(mono): 1})

    @classmethod
    def monomial(cls, ez: int = 0, eiq: int = 0, eav: int = 0, coeff=1) -> "Poly":
        # an int is a numerator over 1, and a Fraction is in lowest terms
        # with a positive denominator
        if type(coeff) is int:
            return _poly({(ez, eiq, eav): coeff} if coeff else {}, 1)
        if type(coeff) is Fraction:
            if not coeff:
                return _poly({}, 1)
            return _poly({(ez, eiq, eav): coeff.numerator}, coeff.denominator)
        return cls({(ez, eiq, eav): coeff})

    @property
    def terms(self):
        d = self.den
        return MappingProxyType({m: Fraction(c, d)
                                 for m, c in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    # The operations test `type(other) is Poly` before coercing anything:
    # nearly every operand is a Poly already.

    def __eq__(self, other):
        if type(other) is not Poly:
            other = _coerce_poly(other)
            if other is None:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self.nums.items()}, self.den)

    def __add__(self, other) -> "Poly":
        if type(other) is not Poly:
            other = _coerce_poly(other)
            if other is None:
                return NotImplemented
        # both operands are in lowest terms, so adding zero gives the other
        if not other.nums:
            return self
        if not self.nums:
            return other
        d = self.den
        if d == other.den:  # nothing to rescale
            out = self.nums.copy()
            for m, c in other.nums.items():
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            return _reduced(out, d)
        g = math.gcd(d, other.den)
        fa, fb = other.den // g, d // g
        out = {m: c * fa for m, c in self.nums.items()}
        for m, c in other.nums.items():
            s = out.get(m, 0) + c * fb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _reduced(out, d * fa)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Poly:
            other = _coerce_poly(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:
            other = _coerce_poly(other)
            if other is None:
                return NotImplemented
        # Poly is never mutated, so a product with zero or 1 can be an
        # operand itself, and a one-term operand is a shift and a scale:
        # the same fields the double loop gives
        a, b = ((self, other) if len(self.nums) <= len(other.nums)
                else (other, self))
        if len(a.nums) == 1:
            (m, c1), = a.nums.items()
            if c1 == 1 and a.den == 1 and m == ONE_MONO:
                return b
            a0, a1, a2 = m
            return _reduced({(a0 + b0, a1 + b1, a2 + b2): c1 * c2
                             for (b0, b1, b2), c2 in b.nums.items()},
                            a.den * b.den)
        if not a.nums:
            return a
        out = {}
        get = out.get
        bn = other.nums.items()
        for (a0, a1, a2), c1 in self.nums.items():
            for (b0, b1, b2), c2 in bn:
                m = (a0 + b0, a1 + b1, a2 + b2)
                out[m] = get(m, 0) + c1 * c2
        return _reduced({m: c for m, c in out.items() if c},
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial; use RF")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, mono: Mono) -> "Poly":
        return _poly({_mono_mul(m, mono): c for m, c in self.nums.items()},
                     self.den)

    def min_exp(self, idx: int) -> int:
        if not self.nums:
            return 0
        return min(m[idx] for m in self.nums)

    def subst_monomial(self, idx: int, coeff, mono: Mono = ONE_MONO) -> "Poly":
        """Replace the variable `idx` by coeff * X^mono (coeff a nonzero Fraction)."""
        coeff = _frac(coeff)
        if coeff == 0:
            raise ValueError("substitution coefficient must be nonzero")
        if not self.nums:
            return self
        # a term with exponent t of the variable moves by t * (d0, d1, d2)
        d0, d1, d2 = (e - (i == idx) for i, e in enumerate(mono))
        out = {}
        get = out.get
        a, b = coeff.numerator, coeff.denominator
        if a == b == 1:  # no weights and no scale
            for m, c in self.nums.items():
                t = m[idx]
                new = (m[0] + t * d0, m[1] + t * d1, m[2] + t * d2)
                out[new] = get(new, 0) + c
            if len(out) == len(self.nums):  # no terms met: self's numerators
                return _poly(out, self.den)
            return _reduced({m: c for m, c in out.items() if c}, self.den)
        # coeff^t = a^(t - lo) b^(hi - t) * a^lo / b^hi for coeff = a/b and
        # lo <= t <= hi: integer weights times one common scale sn/sd
        ts = {m[idx] for m in self.nums}
        lo, hi = min(ts), max(ts)
        weight = {t: a ** (t - lo) * b ** (hi - t) for t in ts}
        for m, c in self.nums.items():
            t = m[idx]
            new = (m[0] + t * d0, m[1] + t * d1, m[2] + t * d2)
            out[new] = get(new, 0) + c * weight[t]
        sn = a ** max(lo, 0) * b ** max(-hi, 0)
        sd = b ** max(hi, 0) * a ** max(-lo, 0)
        if sd < 0:
            sn, sd = -sn, -sd
        return _reduced({m: c * sn for m, c in out.items() if c},
                        self.den * sd)

    def eval_partial(self, z=None, iq=None, av=None) -> "Poly":
        p = self
        for idx, val in ((VAR_Z, z), (VAR_IQ, iq), (VAR_AV, av)):
            if val is not None:
                p = p.subst_monomial(idx, val, ONE_MONO)
        return p

    def as_fraction(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if len(self.nums) == 1 and ONE_MONO in self.nums:
            return Fraction(self.nums[ONE_MONO], self.den)
        raise ValueError("polynomial is not constant: %s" % (self,))

    def value(self, z=None, iq=None, av=None) -> Fraction:
        """The value at a point, as eval_partial(z, iq, av).as_fraction()
        gives it, summed in integers over one common denominator.

        Every variable the polynomial uses must be given (ValueError
        otherwise); a negative power of a variable given as 0 raises
        ZeroDivisionError.
        """
        # x^t = a^(t - lo) b^(hi - t) * a^lo / b^hi for x = a/b, as in
        # subst_monomial: one integer weight per exponent, one scale
        weights, sn, sd = [], 1, self.den
        for idx, x in enumerate((z, iq, av)):
            ts = {m[idx] for m in self.nums}
            if not any(ts):
                weights.append(None)
                continue
            if x is None:
                raise ValueError("no value given for %s in %s"
                                 % (VAR_NAMES[idx], format_poly(self)))
            x = _frac(x)
            a, b = x.numerator, x.denominator
            lo, hi = min(ts), max(ts)
            if lo < 0 and not a:
                raise ZeroDivisionError("%s^%d at %s = 0"
                                        % (VAR_NAMES[idx], lo, VAR_NAMES[idx]))
            weights.append({t: a ** (t - lo) * b ** (hi - t) for t in ts})
            if lo >= 0:
                sn *= a ** lo
            else:
                sd *= a ** -lo
            if hi >= 0:
                sd *= b ** hi
            else:
                sn *= b ** -hi
        total = 0
        for m, c in self.nums.items():
            for w, t in zip(weights, m):
                if w is not None:
                    c *= w[t]
            total += c
        num = total * sn
        if num and sd > 0 and sd & (sd - 1) == 0:
            # a dyadic value, such as any at q = 2 and a = 2^-alpha: the
            # common trailing zero bits are the gcd, which on numbers of
            # 10^5 bits costs far more than the sum
            k = min((num & -num).bit_length(), sd.bit_length()) - 1
            return _coprime_fraction(num >> k, sd >> k)
        return Fraction(num, sd)

    def uses_var(self, idx: int) -> bool:
        return any(m[idx] for m in self.nums)

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)

    def sorted_terms(self):
        return sorted(self.terms.items())


def _poly(nums, den) -> Poly:
    """A Poly from nonzero integer numerators over den > 0, already in
    lowest terms."""
    p = Poly.__new__(Poly)
    p.nums, p.den = nums, den
    return p


def _reduced(nums, den) -> Poly:
    """A Poly from nonzero integer numerators over den > 0, reduced."""
    if den != 1:  # over 1 it is in lowest terms already
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return _poly(nums, den)


def _coerce_poly(x) -> Optional[Poly]:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return None


# shared by the RFs that need them: Poly is never mutated
_ZERO_POLY = _poly({}, 1)
_ONE_POLY = _poly({ONE_MONO: 1}, 1)


def format_poly(p: Poly, names=VAR_NAMES) -> str:
    if not p.nums:
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for idx, e in enumerate(mono):
            if e == 0:
                continue
            if e == 1:
                factors.append(names[idx])
            else:
                factors.append("%s^%d" % (names[idx], e))
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        elif coeff == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(str(coeff) + "*" + "*".join(factors))
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


class RF:
    """Quotient of two Laurent polynomials; equality by cross-multiplication.

    The pair is normalized, not gcd-reduced: no exponent of either part is
    negative, and the lex-least term of `den` has coefficient 1 (zero is
    0/1).  Products and sums of normalized pairs keep both properties: the
    least exponent of a product in each variable is the sum of its
    operands', and its lex-least term the product of theirs.  So the
    operations skip `_normalize`, and only a quotient rescales, by the
    lead of the divisor's numerator; the fields are those `_normalize`
    gives.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = _ONE_POLY if den is None else _coerce_poly(den)
        if den is None or num is None:
            raise TypeError("RF expects Poly/int/Fraction arguments")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _normalize(num, den)

    @classmethod
    def const(cls, c) -> "RF":
        return _kept_rf(Poly.const(c), _ONE_POLY)

    @classmethod
    def var(cls, idx: int) -> "RF":
        return cls(Poly.var(idx))

    @classmethod
    def monomial(cls, ez=0, eiq=0, eav=0, coeff=1) -> "RF":
        # a negative exponent moves to the denominator, as _normalize's
        # shift moves it
        num = Poly.monomial(max(ez, 0), max(eiq, 0), max(eav, 0), coeff)
        if ez >= 0 and eiq >= 0 and eav >= 0:
            return _kept_rf(num, _ONE_POLY)
        return _kept_rf(num, Poly.monomial(max(-ez, 0), max(-eiq, 0),
                                           max(-eav, 0)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if type(other) is not RF:
            other = _coerce_rf(other)
            if other is None:
                return NotImplemented
        return self.num * other.den == other.num * self.den

    def __neg__(self):
        return _kept_rf(-self.num, self.den)

    def __add__(self, other):
        if type(other) is not RF:
            other = _coerce_rf(other)
            if other is None:
                return NotImplemented
        return _kept_rf(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RF:
            other = _coerce_rf(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not RF:
            other = _coerce_rf(other)
            if other is None:
                return NotImplemented
        return _kept_rf(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RF:
            other = _coerce_rf(other)
            if other is None:
                return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _kept_rf(*_lead_one(self.num * other.den,
                                   self.den * other.num, other.num))

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k >= 0:
            return _kept_rf(self.num ** k, self.den ** k)
        if self.num.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return _raw_rf(self.den ** (-k), self.num ** (-k))

    def subst_monomial(self, idx: int, coeff, mono: Mono = ONE_MONO) -> "RF":
        return RF(self.num.subst_monomial(idx, coeff, mono),
                  self.den.subst_monomial(idx, coeff, mono))

    def eval_partial(self, z=None, iq=None, av=None) -> "RF":
        return RF(self.num.eval_partial(z, iq, av), self.den.eval_partial(z, iq, av))

    def as_fraction(self) -> Fraction:
        return self.num.as_fraction() / self.den.as_fraction()

    def value(self, z=None, iq=None, av=None) -> Fraction:
        """The value at a point, by Poly.value of numerator and
        denominator; ZeroDivisionError where the denominator vanishes."""
        d = self.den.value(z, iq, av)
        if not d:
            raise ZeroDivisionError("denominator vanishes at z=%s, iq=%s, av=%s"
                                    % (z, iq, av))
        return self.num.value(z, iq, av) / d

    def uses_var(self, idx: int) -> bool:
        return self.num.uses_var(idx) or self.den.uses_var(idx)

    def series_z(self, order: int, iq=None) -> list:
        """Power-series coefficients in z up to z^order (exact Fractions)
        with iq set to the given value; no av may be left.
        """
        if order < 0:
            raise ValueError("negative truncation order")
        num = self.num.eval_partial(iq=iq)
        den = self.den.eval_partial(iq=iq)
        for p in (num, den):
            if p.uses_var(VAR_IQ) or p.uses_var(VAR_AV):
                raise ValueError("series_z needs numeric iq and av")
        shift = den.min_exp(VAR_Z)
        nmin = num.min_exp(VAR_Z) if num else shift
        if nmin < shift:
            raise ValueError("pole at z = 0; no power series")
        ncoef = [0] * (order + 1)
        dcoef = [0] * (order + 1)
        for m, c in num.nums.items():
            k = m[0] - shift
            if k <= order:
                ncoef[k] += c
        for m, c in den.nums.items():
            k = m[0] - shift
            if k <= order:
                dcoef[k] += c
        d0 = dcoef[0]
        if d0 == 0:
            raise ValueError("denominator vanishes at z = 0 after shift")
        # ncoef/dcoef = sum_k A_k z^k / d0^(k+1) with integer A_k; the
        # common denominators contribute den.den / num.den
        A = []
        for k in range(order + 1):
            acc = ncoef[k] * d0 ** k
            for j in range(1, k + 1):
                acc -= dcoef[j] * A[k - j] * d0 ** (j - 1)
            A.append(acc)
        return [Fraction(a * den.den, d0 ** (k + 1) * num.den)
                for k, a in enumerate(A)]

    def __repr__(self):
        if self.den == Poly.const(1):
            return "RF(%s)" % format_poly(self.num)
        return "RF((%s)/(%s))" % (format_poly(self.num), format_poly(self.den))


def _raw_rf(num: Poly, den: Poly) -> RF:
    """RF(num, den) for Polys with den nonzero, without the checks."""
    out = RF.__new__(RF)
    out.num, out.den = _normalize(num, den)
    return out


def _kept_rf(num: Poly, den: Poly) -> RF:
    """RF(num, den) for a pair that _normalize leaves as it is, unless num
    is zero."""
    out = RF.__new__(RF)
    if num.nums:
        out.num, out.den = num, den
    else:
        out.num, out.den = _ZERO_POLY, _ONE_POLY
    return out


def _normalize(num: Poly, den: Poly):
    """Shift out negative exponents and make the pair primitive-ish."""
    if num.is_zero():
        return _ZERO_POLY, _ONE_POLY
    # the least exponent of each variable over both polynomials, read only
    # when some exponent is negative
    if min(map(min, num.nums)) < 0 or min(map(min, den.nums)) < 0:
        shift = tuple(max(-lo, 0)
                      for lo in map(min, zip(*num.nums, *den.nums)))
        num = num.shift(shift)
        den = den.shift(shift)
    return _lead_one(num, den, den)


def _lead_one(num: Poly, den: Poly, by: Poly):
    """num and den scaled alike so that den's lex-least term has
    coefficient 1.  den is by times a Poly whose lex-least coefficient is
    1, so by's lex-least coefficient is den's."""
    lead = by.nums[min(by.nums)]
    if lead != by.den:  # scale both by by.den / lead
        s, t = (by.den, lead) if lead > 0 else (-by.den, -lead)
        num = _reduced({m: c * s for m, c in num.nums.items()}, num.den * t)
        den = _reduced({m: c * s for m, c in den.nums.items()}, den.den * t)
    return num, den


def _coerce_rf(x) -> Optional[RF]:
    if isinstance(x, RF):
        return x
    if isinstance(x, Poly):
        return RF(x)
    if isinstance(x, (int, Fraction)):
        return RF.const(x)
    return None


# Convenience generators.
Zv = RF.var(VAR_Z)
IQv = RF.var(VAR_IQ)
AVv = RF.var(VAR_AV)


def ratio_if_proportional(f: RF, g: RF, constant_free_of=(VAR_Z, VAR_IQ, VAR_AV)):
    """Return c with f = c*g where c avoids the listed variables, else None.

    When both inputs vanish identically the ratio is unconstrained and the
    constant 1 is returned.
    """
    if f.is_zero() and g.is_zero():
        return RF.const(1)
    if f.is_zero() or g.is_zero():
        return None
    P = f.num * g.den
    Q = g.num * f.den
    banned = tuple(constant_free_of)
    bz, biq, bav = VAR_Z in banned, VAR_IQ in banned, VAR_AV in banned

    def grouped(poly):
        # a term's key keeps the banned exponents, its rest the others
        groups = {}
        for m, c in poly.nums.items():
            e0, e1, e2 = m
            key = (e0 if bz else 0, e1 if biq else 0, e2 if bav else 0)
            rest = (0 if bz else e0, 0 if biq else e1, 0 if bav else e2)
            groups.setdefault(key, {})[rest] = c
        return {k: _reduced(v, poly.den) for k, v in groups.items()}

    gp, gq = grouped(P), grouped(Q)
    keys = sorted(set(gp) | set(gq))
    polys = [(gp.get(k, _ZERO_POLY), gq.get(k, _ZERO_POLY)) for k in keys]
    base = None
    for i, (pk, qk) in enumerate(polys):
        if qk.nums:
            base = i
            break
    if base is None:
        return None
    p0, q0 = polys[base]
    for i, (pk, qk) in enumerate(polys):
        if i != base and pk * q0 != p0 * qk:
            return None
    c = _raw_rf(p0, q0)
    if any(c.uses_var(i) for i in banned):
        return None
    return c


def pretty_rf(f: RF, names=("z", "iq", "a")) -> str:
    num = format_poly(f.num, names)
    den = format_poly(f.den, names)
    if den == "1":
        return num
    return "(%s) / (%s)" % (num, den)


def geometric_inverse_factor(ez: int = 0, eiq: int = 0, eav: int = 0, coeff=1) -> RF:
    """The factor 1/(1 - coeff * z^ez iq^eiq av^eav)."""
    return RF(Poly.const(1), Poly.const(1) - Poly.monomial(ez, eiq, eav, coeff))
