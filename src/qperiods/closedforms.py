"""Closed forms for the level generating series of anisotropic forms.

Conventions used throughout: z stands for q^-beta, iq for 1/q, av for
q^-alpha, w = z*iq, u = z^2*iq^n, ce = ceil(e/2), fe = floor(e/2), where
e = ord 2 of the field.  X denotes the generating series sum_l z^l X_l
for a target pi^(2T) (or 0), and Pi the further sum over T weighted by
av^T.

A PiecewiseGeometric packages the T-dependence of X: finitely many
exceptional small-T values, then a tail sum_j c_j r_j^T of geometric
terms with monomial ratios.  The zero-target value is always the
T-independent part of the tail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .qform import anisotropic_representative, invariants, is_anisotropic
from .ratfunc import (
    RF, VAR_AV, VAR_Z, AVv, IQv, Zv, geometric_inverse_factor as _geom,
)

ONE = RF.const(1)
ZERO = RF.const(0)


class UnsupportedCase(ValueError):
    """A configuration with no closed form (e.g. a second-method case
    requested over a ramified field)."""


def _m(ez, eiq, coeff=1):
    return RF.monomial(ez, eiq, 0, coeff)


def _ce(e):
    return (e + 1) // 2


def _fe(e):
    return e // 2


class PiecewiseGeometric:
    """X(T) = exceptional[T] for T < T0, else sum_j c_j * r_j^T.

    `tail` is a list of (c_j: RF, r_j: (ez, eiq)) pairs; the ratio (0, 0)
    marks the constant part, which is also the zero-target value.
    """

    __slots__ = ("n", "e", "exceptional", "T0", "tail", "zero_value")

    def __init__(self, n, e, exceptional, T0, tail, zero_value=None):
        self.n = n
        self.e = e
        self.exceptional = dict(exceptional)
        self.T0 = T0
        self.tail = list(tail)
        for T in range(T0):
            if T not in self.exceptional:
                raise ValueError("missing exceptional value at T=%d" % T)
        if zero_value is None:
            zero_value = ZERO
            for c, r in self.tail:
                if r == (0, 0):
                    zero_value = zero_value + c
        self.zero_value = zero_value

    def value_at(self, T: int) -> RF:
        if T < 0:
            raise ValueError("negative T")
        if T < self.T0:
            return self.exceptional[T]
        acc = ZERO
        for c, (ez, eiq) in self.tail:
            acc = acc + c * _m(ez * T, eiq * T)
        return acc

    def series_at(self, T, q, order):
        """Exact z-power-series coefficients of X(T) at a concrete q."""
        return self.value_at(T).series_z(order, iq=Fraction(1, q))

    def zero_series(self, q, order):
        return self.zero_value.series_z(order, iq=Fraction(1, q))

    def __repr__(self):
        return ("PiecewiseGeometric(n=%d, e=%d, T0=%d, %d tail terms)"
                % (self.n, self.e, self.T0, len(self.tail)))


class ClosedFormCase:
    """Which closed-form family applies: a tag plus the parameters it needs."""

    __slots__ = ("tag", "m", "e", "d", "disc_kind", "hmi")

    def __init__(self, tag, m, e, d=None, disc_kind=None, hmi=None):
        self.tag = tag
        self.m = m
        self.e = e
        self.d = d
        self.disc_kind = disc_kind
        self.hmi = hmi

    def __repr__(self):
        bits = ["%s, m=%d, e=%d" % (self.tag, self.m, self.e)]
        if self.d is not None:
            bits.append("d=%d" % self.d)
        if self.hmi is not None:
            bits.append("hmi=%+d" % self.hmi)
        return "ClosedFormCase(%s)" % ", ".join(bits)


# ---------------------------------------------------------------------------
# The case table.  First-method builders take any e >= 0; second-method
# builders insist on e == 1.
# ---------------------------------------------------------------------------

def _zeros_below(T0):
    return {T: ZERO for T in range(T0)}


def _empty(e, d):
    # X(T) = (1 - z^(2T+1-e))/(1 - z) once pi^(2T) falls inside 2o
    T0 = _ce(e)
    inv = _geom(1)
    return PiecewiseGeometric(0, e, _zeros_below(T0), T0,
                              [(inv, (0, 0)), (-_m(1 - e, 0) * inv, (2, 0))])


def _unit_level_head(e):
    # (iq^ce + w iq^fe)/(1 - zw): the T-independent part shared by the
    # one-variable unit cases
    return (_m(0, _ce(e)) + _m(1, _fe(e) + 1)) * _geom(2, 1)


def _unit_square(e, d):
    A = _unit_level_head(e)
    C = (-(ONE + Zv) * _m(e + 1, e + 1) * _geom(2, 1)
         + _m(e + 1, e + 1, 2) * _geom(1, 1))
    return PiecewiseGeometric(1, e, {}, 0, [(A, (0, 0)), (C, (2, 1))])


def _unit_nonsquare(e, d):
    if d is None or not (d == 2 * e or (d % 2 == 1 and 1 <= d < 2 * e)):
        raise ValueError("defect exponent d must be odd below 2e, or 2e")
    T0 = max(0, (e - d + 1) // 2)
    A = _unit_level_head(e)
    k1 = (d + 2 - e) // 2   # ceil((d+1-e)/2)
    k2 = (d + 1 - e) // 2
    C = -(_m(2 * k1, _ce(e) + k1) + _m(2 * k2 + 1, _fe(e) + 1 + k2)) * _geom(2, 1)
    return PiecewiseGeometric(1, e, _zeros_below(T0), T0,
                              [(A, (0, 0)), (C, (2, 1))])


def _prime(e, d):
    T0 = _ce(e)
    ce, fe = _ce(e), _fe(e)
    A = (_m(0, fe) + _m(1, ce)) * _geom(2, 1)
    C = -(_m(2 - 2 * ce, fe + 1 - ce) + _m(1 - 2 * fe, ce - fe)) * _geom(2, 1)
    return PiecewiseGeometric(1, e, _zeros_below(T0), T0,
                              [(A, (0, 0)), (C, (2, 1))])


def _binary_prime(sign, e, d):
    A = _m(0, e) * _geom(1, 1)
    C = _m(e + 1, 2 * e + 1, sign) * _geom(1, 1)
    return PiecewiseGeometric(2, e, {}, 0, [(A, (0, 0)), (C, (2, 2))])


def _binary_unit4_minus(e, d):
    ce, fe = _ce(e), _fe(e)
    head = _m(0, fe) + _m(1, ce)
    A = ((head - _m(e + 2, e + 1) - _m(e + 1, e)) * _geom(2, 1)
         + (_m(e + 1, e) + _m(e + 2, e + 2)) * _geom(2, 2))
    C = -(_m(1 - e, -e) + _m(2 - e, 2 - e)) * _geom(2, 2)
    exc = _zeros_below(_ce(e))
    for T in range(_ce(e), e):
        exc[T] = (head - _m(2 * T - e + 2, T + 1)
                  - _m(2 * T - e + 1, T)) * _geom(2, 1)
    return PiecewiseGeometric(2, e, exc, e, [(A, (0, 0)), (C, (2, 2))])


def _binary_odd_defect_minus(e, d):
    if d is None or d % 2 == 0 or d < 1:
        raise ValueError("this case needs an odd defect exponent")
    if d == 1 and e > 1:
        pw = 2 * ((e + 2) // 2) - e
        A = _m(0, e) * _geom(1, 1)
        C = -_m(pw, e + pw) * _geom(1, 1)
        return PiecewiseGeometric(2, e, {}, 0, [(A, (0, 0)), (C, (2, 2))])
    if e + 1 >= d:
        s = (1 - d) // 2
        T0 = e // 2
        A = _m(0, e + s) * _geom(1, 1)
        C = -_m(2 - e, 2 + s) * _geom(1, 1)
        return PiecewiseGeometric(2, e, _zeros_below(T0), T0,
                                  [(A, (0, 0)), (C, (2, 2))])
    # d > e + 1: the assembly identities of criterion 4 reach this branch
    # (e = 0 with d = 3, 5; e = 1 with d = 3, 5; e = 2 with d = 5)
    s = (1 - d) // 2
    A = (_unit_level_head(e)
         - _m(d - e + 1, (d + 1) // 2) * (ONE - IQv) * _geom(1, 1) * _geom(2, 1))
    C = -_m(2 - e, 2 + s) * _geom(1, 1)
    return PiecewiseGeometric(2, e, {}, 0, [(A, (0, 0)), (C, (2, 2))])


def _binary_odd_defect_plus(e, d):
    # |2|(1 + w^(2T+1))/(1 - w)
    A = _m(0, 1) * _geom(1, 1)
    C = _m(1, 2) * _geom(1, 1)
    return PiecewiseGeometric(2, e, {}, 0, [(A, (0, 0)), (C, (2, 2))])


def _binary_unit4_plus(e, d):
    exc = {0: _m(0, 1) * _geom(1, 1)}
    A = _m(0, 1) * (ONE + Zv) * _geom(2, 2)
    C = _m(0, 1) * (Zv + _m(2, 2)) * _m(-1, -1) * _geom(2, 2)
    return PiecewiseGeometric(2, e, exc, 1, [(A, (0, 0)), (C, (2, 2))])


def _ternary_prime(e, d):
    exc = {0: _m(0, 1) * _geom(1, 1)}
    A = _m(0, 1) * (ONE + _m(1, 1)) * _geom(2, 3)
    C = (ONE - _m(2, 4)) * _geom(1, 1) * _geom(2, 3)
    return PiecewiseGeometric(3, e, exc, 1, [(A, (0, 0)), (C, (2, 3))])


def _ternary_head():
    # |2|(1 + w iq)/(1 - u): shared constant part of the ternary unit cases
    return _m(0, 1) * (ONE + _m(1, 2)) * _geom(2, 3)


def _ternary_odd_defect(e, d):
    A = _ternary_head()
    C = _m(1, 2) * (ONE - _m(2, 4)) * _geom(1, 1) * _geom(2, 3)
    return PiecewiseGeometric(3, e, {}, 0, [(A, (0, 0)), (C, (2, 3))])


def _ternary_square(e, d):
    # |2|(1 + w iq)(1 - u^(T+1))/(1 - u)
    A = _ternary_head()
    C = -A * _m(2, 3)
    return PiecewiseGeometric(3, e, {}, 0, [(A, (0, 0)), (C, (2, 3))])


def _ternary_unit4(e, d):
    A = _ternary_head()
    C = (_m(2, 4) * (ONE + _m(1, 1)) * (ONE - _m(1, 2))
         * _geom(1, 1) * _geom(2, 3))
    return PiecewiseGeometric(3, e, {}, 0, [(A, (0, 0)), (C, (2, 3))])


def _quaternary(e, d):
    exc = {0: _m(0, 1) * _geom(1, 1)}
    A = _m(0, 1) * _geom(1, 2)
    C = (ONE - _m(1, 3)) * _geom(1, 1) * _geom(1, 2)
    return PiecewiseGeometric(4, e, exc, 1, [(A, (0, 0)), (C, (2, 4))])


# tag -> (m, discriminant kind, symbol product, builder, needs e = 1).  The
# first three columns are the key case_for_form looks up: kind "unit" covers
# both nonsquare unit kinds in dimension 1, and only binary forms are split
# by their symbol product.
_CASES = {
    "empty":                   (0, "square", None, _empty, False),
    "unit_square":             (1, "square", None, _unit_square, False),
    "unit_nonsquare":          (1, "unit", None, _unit_nonsquare, False),
    "prime":                   (1, "prime", None, _prime, False),
    "binary_prime_plus":       (2, "prime", 1, partial(_binary_prime, 1), False),
    "binary_prime_minus":      (2, "prime", -1, partial(_binary_prime, -1), False),
    "binary_unit4_minus":      (2, "unit4", -1, _binary_unit4_minus, False),
    "binary_unit4_plus":       (2, "unit4", 1, _binary_unit4_plus, True),
    "binary_odd_defect_minus": (2, "unitd", -1, _binary_odd_defect_minus, False),
    "binary_odd_defect_plus":  (2, "unitd", 1, _binary_odd_defect_plus, True),
    "ternary_prime":           (3, "prime", None, _ternary_prime, True),
    "ternary_odd_defect":      (3, "unitd", None, _ternary_odd_defect, True),
    "ternary_square":          (3, "square", None, _ternary_square, True),
    "ternary_unit4":           (3, "unit4", None, _ternary_unit4, True),
    "quaternary":              (4, "square", None, _quaternary, True),
}

CASE_TAGS = tuple(_CASES)
_TAG_OF = {row[:3]: tag for tag, row in _CASES.items()}


def _row(tag, e):
    """The table row of a tag, refusing a case without a closed form at e."""
    if tag not in _CASES:
        raise ValueError("unknown case tag %r" % (tag,))
    row = _CASES[tag]
    if row[4] and e != 1:
        raise UnsupportedCase(
            "%s has a closed form only for unramified dyadic fields (e = 1); "
            "got e = %d" % (tag, e))
    return row


def x_closed(case: ClosedFormCase) -> PiecewiseGeometric:
    """The closed form for the case, as a piecewise-geometric profile
    in (z, iq) with symbolic T."""
    builder = _row(case.tag, case.e)[3]
    if case.e < 0:
        raise ValueError("negative e")
    return builder(case.e, case.d)


def case_for_form(B) -> ClosedFormCase:
    """Classify an anisotropic diagonal form into its closed-form case.

    The rational invariants pick the case, but each builder holds only for
    the lattice shape of case_representative: a form whose number of
    odd-order coefficients differs from the representative's has another
    series, and is refused with UnsupportedCase."""
    if B.planes:
        raise ValueError("forms with hyperbolic planes are isotropic; "
                         "split them off first")
    if not is_anisotropic(B):
        raise ValueError("closed forms cover anisotropic forms only")
    inv = invariants(B)
    m, kind = inv.m, inv.disc_kind
    if m == 1 and kind in ("unit4", "unitd"):
        kind = "unit"
    tag = _TAG_OF.get((m, kind, inv.hmi if m == 2 else None))
    if tag is None:
        raise ValueError("no closed-form case for an anisotropic form with "
                         "m = %d and %s discriminant" % (m, inv.disc_kind))
    rep = case_representative(B.field, tag, inv.d)
    if _odd_order_count(B) != _odd_order_count(rep):
        raise UnsupportedCase(
            "the %s closed form holds for the lattice shape of %r, with %d "
            "odd-order coefficients; this form has %d"
            % (tag, rep, _odd_order_count(rep), _odd_order_count(B)))
    return ClosedFormCase(tag, m, B.field.e, d=inv.d, disc_kind=inv.disc_kind,
                          hmi=inv.hmi if m >= 2 else None)


def _odd_order_count(B) -> int:
    return sum(int(a.ord()) % 2 for a in B.coeffs)


def case_representative(field, tag, d=None):
    """An anisotropic diagonal form over `field` whose case is (tag, d), d
    picking the discriminant's defect exponent where the tag allows several.
    UnsupportedCase if the tag has no closed form at this field's e."""
    m, kind, hmi = _row(tag, field.e)[:3]
    if kind == "unit":
        kind = "unit4" if d == 2 * field.e else "unitd"
    return anisotropic_representative(field, m, disc_kind=kind, d=d, hmi=hmi)


def closed_profile(B) -> PiecewiseGeometric:
    return x_closed(case_for_form(B))


# ---------------------------------------------------------------------------
# Assembly: X from level densities, Pi from X two independent ways
# ---------------------------------------------------------------------------

def x_from_levels(levels, e: int, n: int, T: int) -> RF:
    """sum_{l < 2T+e+1} z^l X_l + z^(2T+e+1)/(1-w) X_{2T+e+1}.

    Levels are exact rationals at a concrete q, so the result mixes numeric
    coefficients with the symbolic 1/(1-w) tail.
    """
    cut = 2 * T + e + 1
    if len(levels) != cut + 1:
        raise ValueError("need exactly X_0..X_%d, got %d values"
                         % (cut, len(levels)))
    acc = ZERO
    for l in range(cut):
        acc = acc + _m(l, 0, Fraction(levels[l]))
    return acc + _m(cut, 0, Fraction(levels[cut])) * _geom(1, 1)


def x_from_levels_zero(levels, e: int, n: int) -> RF:
    """sum_{l < e} z^l X_l + (z^e X_e + z^(e+1) X_{e+1})/(1-u)."""
    if len(levels) != e + 2:
        raise ValueError("need exactly X_0..X_%d, got %d values"
                         % (e + 1, len(levels)))
    acc = ZERO
    for l in range(e):
        acc = acc + _m(l, 0, Fraction(levels[l]))
    tail = _m(e, 0, Fraction(levels[e])) + _m(e + 1, 0, Fraction(levels[e + 1]))
    return acc + tail * _geom(2, n)


def pi_from_x(X: PiecewiseGeometric) -> RF:
    """Pi(alpha, beta) assembled from X at T < e, T = e, and the zero target:

        sum_{T<e} av^T X(T) + av^e X(e)/(1-av u)
                            + av^e (av - av u) X(0-target)/((1-av)(1-av u)).
    """
    e, n = X.e, X.n
    u_inv = _geom(2, n, 1)            # 1/(1 - av u), u = z^2 iq^n
    acc = ZERO
    for T in range(e):
        acc = acc + RF.monomial(0, 0, T) * X.value_at(T)
    ave = RF.monomial(0, 0, e)
    acc = acc + ave * X.value_at(e) * u_inv
    au = AVv * _m(2, n)
    acc = acc + ave * (AVv - au) * X.zero_value * _geom(0, 0, 1) * u_inv
    return acc


def pi_geometric(X: PiecewiseGeometric) -> RF:
    """Direct summation sum_T av^T X(T) using the geometric tails."""
    acc = ZERO
    for T in range(X.T0):
        acc = acc + RF.monomial(0, 0, T) * X.exceptional[T]
    for c, (ez, eiq) in X.tail:
        if (ez, eiq) != (0, 0) and (ez < 0 or eiq < 0 or ez + eiq <= 0):
            raise ValueError("tail ratio z^%d iq^%d does not contract" % (ez, eiq))
        head = RF.monomial(ez * X.T0, eiq * X.T0, X.T0)
        acc = acc + c * head * _geom(ez, eiq, 1)
    return acc


def dimension_reduce(f: RF, k: int) -> RF:
    """Add k hyperbolic planes to an m-variable expression:

        X or Pi for m+2k variables  =  [Z(beta+1)/Z(beta+k+1)] times the
        m-variable expression with beta replaced by beta+k (z -> z iq^k).
    """
    if k < 0:
        raise ValueError("negative plane count")
    if k == 0:
        return f
    pref = (ONE - _m(1, k + 1)) * _geom(1, 1)
    return pref * f.subst_monomial(VAR_Z, 1, (1, k, 0))


def zeta_Z(alpha_mult: int = 1, shift: int = 0, extra: RF = None) -> RF:
    """1/(1 - av^alpha_mult q^-shift [extra]): the zeta factor at
    alpha_mult * alpha + shift, optionally with a rational-function ratio
    spliced into the argument."""
    if extra is None:
        return _zeta_Z(alpha_mult, shift)
    return ONE / (ONE - RF.monomial(0, shift, alpha_mult) * extra)


@lru_cache(maxsize=256)  # RF is never mutated, so a result can be shared
def _zeta_Z(alpha_mult: int, shift: int) -> RF:
    return ONE / (ONE - RF.monomial(0, shift, alpha_mult))


def local_factor_chain(pi: RF, n: int, k: int) -> RF:
    """The beta = 0 local factor of the n-variable split form whose
    anisotropic kernel has generating function Pi = pi:
    Pi(alpha - n, k)/(av Z(alpha)), up to a multiplicative constant (e = 1
    throughout the chain).  av -> av iq^-n comes before z -> iq^k; RF is
    not gcd-reduced, so that order fixes the printed form."""
    pi = pi.subst_monomial(VAR_AV, 1, (0, -n, 1))
    pi = pi.subst_monomial(VAR_Z, 1, (0, k, 0))
    return pi * (ONE - AVv) * RF.monomial(0, 0, -1)


def halfstep_sum(L: int, o: int) -> RF:
    """Closed form of sum_{0 <= l < L} z^l iq^ceil((l+o)/2): the even/odd
    split gives two geometric pieces with ratio zw."""
    if L < 0:
        raise ValueError("negative length")
    J0 = (L + 1) // 2
    J1 = L // 2
    inv = _geom(2, 1)
    even = _m(0, (o + 1) // 2) * (ONE - _m(2 * J0, J0)) * inv
    odd = _m(1, o // 2 + 1) * (ONE - _m(2 * J1, J1)) * inv
    return even + odd
