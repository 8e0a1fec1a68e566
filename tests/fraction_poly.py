"""The Fraction-coefficient Laurent polynomial that ratfunc.Poly replaced,
kept as an oracle: one dict of Fraction coefficients, no common
denominator.  `series_z(num, den, order, iq)` is the power-series
expansion RF.series_z made from such a pair.
"""

from fractions import Fraction

VAR_Z, VAR_IQ, VAR_AV = 0, 1, 2
ONE_MONO = (0, 0, 0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _mono_mul(m1, m2):
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


class FractionPoly:
    """Laurent polynomial with Fraction coefficients, keyed by exponent triples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tt = {}
        if terms:
            for mono, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    tt[tuple(mono)] = c
        self.terms = tt

    @classmethod
    def const(cls, c) -> "FractionPoly":
        return cls({ONE_MONO: _frac(c)})

    @classmethod
    def var(cls, idx: int) -> "FractionPoly":
        mono = [0, 0, 0]
        mono[idx] = 1
        return cls({tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, ez: int = 0, eiq: int = 0, eav: int = 0, coeff=1) -> "FractionPoly":
        return cls({(ez, eiq, eav): _frac(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "FractionPoly":
        return FractionPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "FractionPoly":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = FractionPoly()
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "FractionPoly":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = FractionPoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FractionPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial; use RF")
        result = FractionPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, mono: tuple) -> "FractionPoly":
        return FractionPoly({_mono_mul(m, mono): c for m, c in self.terms.items()})

    def min_exp(self, idx: int) -> int:
        if not self.terms:
            return 0
        return min(m[idx] for m in self.terms)

    def subst_monomial(self, idx: int, coeff, mono: tuple = ONE_MONO) -> "FractionPoly":
        """Replace the variable `idx` by coeff * X^mono (coeff a nonzero Fraction)."""
        coeff = _frac(coeff)
        if coeff == 0:
            raise ValueError("substitution coefficient must be nonzero")
        out = {}
        for m, c in self.terms.items():
            t = m[idx]
            rest = list(m)
            rest[idx] = 0
            new = _mono_mul(tuple(rest), tuple(e * t for e in mono))
            s = out.get(new, Fraction(0)) + c * coeff ** t
            if s:
                out[new] = s
            else:
                out.pop(new, None)
        p = FractionPoly()
        p.terms = out
        return p

    def eval_partial(self, z=None, iq=None, av=None) -> "FractionPoly":
        p = self
        for idx, val in ((VAR_Z, z), (VAR_IQ, iq), (VAR_AV, av)):
            if val is not None:
                p = p.subst_monomial(idx, val, ONE_MONO)
        return p

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and ONE_MONO in self.terms:
            return self.terms[ONE_MONO]
        raise ValueError("polynomial is not constant: %s" % (self,))

    def uses_var(self, idx: int) -> bool:
        return any(m[idx] for m in self.terms)

    def __repr__(self):
        return "FractionPoly(%r)" % (self.sorted_terms(),)

    def sorted_terms(self):
        return sorted(self.terms.items())


def _coerce_poly(x):
    if isinstance(x, FractionPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPoly.const(x)
    return None


def series_z(num, den, order: int, iq=None) -> list:
    """Power-series coefficients in z up to z^order (exact Fractions)
    with iq set to the given value; no av may be left.
    """
    if order < 0:
        raise ValueError("negative truncation order")
    num = num.eval_partial(iq=iq)
    den = den.eval_partial(iq=iq)
    for p in (num, den):
        if p.uses_var(VAR_IQ) or p.uses_var(VAR_AV):
            raise ValueError("series_z needs numeric iq and av")
    shift = den.min_exp(VAR_Z)
    nmin = num.min_exp(VAR_Z) if num else shift
    if nmin < shift:
        raise ValueError("pole at z = 0; no power series")
    ncoef = [Fraction(0)] * (order + 1)
    dcoef = [Fraction(0)] * (order + 1)
    for m, c in num.terms.items():
        k = m[0] - shift
        if k <= order:
            ncoef[k] += c
    for m, c in den.terms.items():
        k = m[0] - shift
        if k <= order:
            dcoef[k] += c
    if dcoef[0] == 0:
        raise ValueError("denominator vanishes at z = 0 after shift")
    out = [Fraction(0)] * (order + 1)
    inv0 = 1 / dcoef[0]
    for k in range(order + 1):
        acc = ncoef[k]
        for j in range(1, k + 1):
            acc -= dcoef[j] * out[k - j]
        out[k] = acc * inv0
    return out

