import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qperiods.ratfunc import (Poly, RF, Zv, IQv, AVv, VAR_Z, VAR_IQ, VAR_AV,
                              ratio_if_proportional, pretty_rf,
                              format_poly, geometric_inverse_factor,
                              _normalize, _raw_rf)

from fraction_poly import FractionPoly, series_z as fraction_series_z


def test_poly_basics():
    p = Poly.monomial(2, 0, 0, 3) + Poly.const(1)
    assert p == Poly({(2, 0, 0): Fraction(3), (0, 0, 0): Fraction(1)})
    assert not Poly().terms
    assert Poly.const(0).is_zero()
    assert (p - p).is_zero()


def test_poly_laurent_exponents():
    p = Poly.monomial(0, -2, 0)
    assert p.min_exp(VAR_IQ) == -2
    q = p * Poly.monomial(0, 5, 0)
    assert q == Poly.monomial(0, 3, 0)


def test_poly_subst_monomial():
    # z -> z*iq turns z^2 into z^2 iq^2
    p = Poly.monomial(2, 0, 0) + Poly.monomial(1, 1, 0)
    got = p.subst_monomial(VAR_Z, 1, (1, 1, 0))
    assert got == Poly.monomial(2, 2, 0) + Poly.monomial(1, 2, 0)
    # with a scalar: av -> 2*av
    q = Poly.monomial(0, 0, 2).subst_monomial(VAR_AV, 2, (0, 0, 1))
    assert q == Poly.monomial(0, 0, 2, 4)


def test_poly_eval_partial_and_fraction():
    p = Poly.monomial(1, 1, 0, 6) + Poly.monomial(0, 0, 1)
    half = p.eval_partial(z=Fraction(1, 2), iq=Fraction(1, 3))
    assert half == Poly.monomial(0, 0, 1) + Poly.const(1)
    assert half.eval_partial(av=2).as_fraction() == 3
    with pytest.raises(ValueError):
        half.as_fraction()


def test_rf_normalization_cancels():
    f = (RF.const(1) - Zv ** 2) / (RF.const(1) - Zv)
    assert f == RF.const(1) + Zv
    assert (Zv / Zv) == RF.const(1)


def test_rf_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RF(Poly.const(1), Poly.const(0))
    with pytest.raises(ZeroDivisionError):
        Zv / RF.const(0)


def test_rf_equality_cross_multiplied():
    f = RF(Poly.monomial(1, 0, 0), Poly.monomial(0, 1, 0))
    g = RF(Poly.monomial(1, 1, 0), Poly.monomial(0, 2, 0))
    assert f == g
    assert f != g + RF.const(1)


def test_rf_series_geometric():
    f = RF.const(1) / (RF.const(1) - Zv * IQv)
    assert f.series_z(4, iq=Fraction(1, 2)) == [
        Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
        Fraction(1, 16)]
    with pytest.raises(ValueError):
        f.series_z(3)  # iq still symbolic
    assert f.series_z(0, iq=Fraction(1, 2)) == [Fraction(1)]
    with pytest.raises(ValueError, match="negative truncation order"):
        f.series_z(-1, iq=Fraction(1, 2))


def test_rf_series_pole_at_zero():
    with pytest.raises(ValueError):
        (RF.const(1) / Zv).series_z(2)


def test_rf_eval_partial_pole():
    f = RF.const(1) / (RF.const(1) - Zv)
    with pytest.raises(ZeroDivisionError):
        f.eval_partial(z=1)


def test_geometric_inverse_factor():
    assert geometric_inverse_factor(1, 1) == RF.const(1) / (RF.const(1) - Zv * IQv)
    g = geometric_inverse_factor(0, 2, 0, Fraction(3, 2))
    assert g * (RF.const(1) - RF.monomial(0, 2, 0, Fraction(3, 2))) == RF.const(1)


def test_ratio_if_proportional():
    f = (RF.const(2) * AVv) / (RF.const(1) - Zv)
    g = AVv / (RF.const(1) - Zv)
    assert ratio_if_proportional(f, g) == RF.const(2)
    # ratio depends on av, so banning av makes it fail
    h = AVv * AVv / (RF.const(1) - Zv)
    assert ratio_if_proportional(h, g, constant_free_of=(VAR_AV,)) is None
    assert ratio_if_proportional(h, g, constant_free_of=(VAR_Z,)) == AVv
    # fully banned: f/g must be an honest constant
    assert ratio_if_proportional(g + RF.const(1), g) is None
    # nothing banned: any nonzero quotient counts
    assert ratio_if_proportional(g + RF.const(1), g, ()) == (g + RF.const(1)) / g


def test_ratio_zero_cases():
    z = RF.const(0)
    assert ratio_if_proportional(z, z) == RF.const(1)
    # zero against nonzero is treated as a mismatch, not as c = 0
    assert ratio_if_proportional(z, Zv) is None
    assert ratio_if_proportional(Zv, z) is None


def test_pretty_printing():
    f = (RF.const(1) - Zv * IQv) / (RF.const(1) - AVv)
    s = pretty_rf(f, ("z", "1/q", "a"))
    assert "z*1/q" in s and "a" in s
    assert format_poly(Poly.const(1) - Poly.monomial(1, 0, 0)) == "1 - z"


small_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    p = Poly()
    for _ in range(draw(st.integers(0, 4))):
        c = draw(small_coeffs)
        ez = draw(st.integers(0, 3))
        eiq = draw(st.integers(-2, 3))
        eav = draw(st.integers(0, 2))
        p = p + Poly.monomial(ez, eiq, eav, c)
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
nonzero_fractions = st.builds(Fraction, st.integers(-40, 40).filter(bool),
                              st.integers(1, 12))
monos = st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 2))


@st.composite
def laurent_terms(draw, max_terms=5):
    """Coefficient dicts with Fraction coefficients and negative exponents
    in every variable."""
    return draw(st.dictionaries(monos, fractions, max_size=max_terms))


def oracle(p: Poly) -> FractionPoly:
    return FractionPoly(dict(p.terms))


def assert_canonical(p: Poly):
    # integer numerators over one positive denominator, in lowest terms
    assert p.den > 0 and all(p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


def same_rf(f: RF, g: RF) -> bool:
    """f == g, decided by RF and by oracle cross-multiplication alike."""
    want = oracle(f.num) * oracle(g.den) == oracle(g.num) * oracle(f.den)
    assert (f == g) == want
    return want


@given(laurent_terms(), laurent_terms(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_poly_matches_fraction_oracle(a, b, k):
    pa, pb, oa, ob = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
    assert pa.terms == oa.terms
    results = [(pa + pb, oa + ob), (pa - pb, oa - ob), (pa * pb, oa * ob),
               (-pa, -oa), (pa ** k, oa ** k), (pa + 3, oa + 3),
               (Fraction(2, 3) * pb, Fraction(2, 3) * ob)]
    for got, want in results:
        assert_canonical(got)
        assert got.terms == want.terms
    assert (pa == pb) == (oa == ob)
    assert pa + pb - pb == pa and (pa == pa * 1)


@given(laurent_terms(), st.integers(0, 2), nonzero_fractions, monos,
       st.tuples(*[st.one_of(st.none(), nonzero_fractions)] * 3))
@settings(max_examples=150, deadline=None)
def test_substitution_matches_fraction_oracle(a, idx, c, mono, point):
    pa, oa = Poly(a), FractionPoly(a)
    for coeff in (c, 1):  # 1 takes a path without weights
        got = pa.subst_monomial(idx, coeff, mono)
        assert_canonical(got)
        assert got.terms == oa.subst_monomial(idx, coeff, mono).terms
    z, iq, av = point
    got = pa.eval_partial(z=z, iq=iq, av=av)
    assert_canonical(got)
    assert got.terms == oa.eval_partial(z=z, iq=iq, av=av).terms
    with pytest.raises(ValueError):
        pa.subst_monomial(idx, 0)


@given(laurent_terms(), laurent_terms(), nonzero_fractions, st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_series_z_matches_fraction_oracle(a, b, iq, order):
    # no av: series_z needs every variable but z numeric
    a = {(m[0], m[1], 0): c for m, c in a.items()}
    b = {(m[0], m[1], 0): c for m, c in b.items()}
    if not any(b.values()):
        return
    f = RF(Poly(a), Poly(b))
    try:
        want = fraction_series_z(FractionPoly(a), FractionPoly(b), order, iq)
    except ValueError:
        with pytest.raises(ValueError):
            f.series_z(order, iq=iq)
        return
    assert f.series_z(order, iq=iq) == want


def oracle_value(terms, point) -> Fraction:
    z, iq, av = point
    return FractionPoly(terms).eval_partial(z=z, iq=iq, av=av).as_fraction()


@given(laurent_terms(), laurent_terms(),
       st.tuples(nonzero_fractions, nonzero_fractions, nonzero_fractions))
@settings(max_examples=150, deadline=None)
def test_value_matches_fraction_oracle(a, b, point):
    z, iq, av = point
    assert Poly(a).value(z=z, iq=iq, av=av) == oracle_value(a, point)
    if not any(b.values()):
        return
    f = RF(Poly(a), Poly(b))
    den = oracle_value(b, point)
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            f.value(z=z, iq=iq, av=av)
    else:
        assert f.value(z=z, iq=iq, av=av) == oracle_value(a, point) / den


dyadics = st.builds(lambda n, k: Fraction(n) * Fraction(2) ** k,
                    st.integers(-9, 9), st.integers(-6, 6))


@given(st.dictionaries(monos, dyadics, max_size=5),
       st.tuples(*[dyadics.filter(bool)] * 3))
@settings(max_examples=150, deadline=None)
def test_dyadic_value_matches_the_fraction_path(terms, point):
    # dyadic coefficients at dyadic points: the value is reduced by its
    # trailing zero bits, not a gcd, and must equal the Fraction in both
    # fields, so the printed value stays the same
    z, iq, av = point
    got = Poly(terms).value(z=z, iq=iq, av=av)
    want = oracle_value(terms, point)
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)


def test_dyadic_value_of_large_powers_matches_the_fraction_path():
    # the shape of localfactor's value at q = 2, a = 2^-alpha, at a
    # smaller alpha: exponents of 10^4 over a power-of-two denominator
    half = Fraction(1, 2)
    p = Poly({(0, 20000, 3): 1, (0, 25000, 2): -1, (0, 30000, 1): -3,
              (0, 35000, 0): Fraction(5, 8)})
    for av in (half ** 10002, Fraction(3, 1 << 10002), Fraction(1, 3)):
        got = p.value(iq=half, av=av)
        want = oracle_value(dict(p.terms), (None, half, av))
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)


def test_value_needs_every_variable_used_and_refuses_poles():
    p = Poly.monomial(2, -1, 0, 3) + Poly.const(1)
    assert p.value(z=Fraction(1, 2), iq=Fraction(2, 3)) == Fraction(17, 8)
    # av is not used, so it need not be given, and a value for it is ignored
    assert p.value(z=2, iq=3, av=Fraction(5, 7)) == 5
    with pytest.raises(ValueError):
        p.value(z=2)
    with pytest.raises(ValueError):
        RF(Poly.const(1), p).value(iq=3)
    # 0 is a point like any other, unless it meets a negative power
    assert p.value(z=0, iq=3) == 1
    with pytest.raises(ZeroDivisionError):
        p.value(z=1, iq=0)
    f = RF.const(1) / (RF.const(1) - Zv * IQv)
    assert f.value(z=Fraction(1, 2), iq=Fraction(1, 2)) == Fraction(4, 3)
    with pytest.raises(ZeroDivisionError):
        f.value(z=2, iq=Fraction(1, 2))


@given(laurent_terms(4), laurent_terms(4))
@settings(max_examples=60, deadline=None)
def test_rf_field_laws(a, b):
    f = RF(Poly(a), Poly.const(1) + Poly.monomial(1, 0, 0))
    g = RF(Poly(b), Poly.const(1) - Poly.monomial(0, 1, 0, Fraction(1, 2)))
    assert same_rf(f + g - g, f)
    if not g.is_zero():
        assert same_rf((f / g) * g, f)
    assert same_rf(f * g, g * f)
    assert same_rf(f, g) == (f - g).is_zero()


# ---------------------------------------------------------------------------
# The fast paths of Poly.__mul__, Poly.__add__ and _normalize against the
# general code they short-cut, kept here as oracles: every result must have
# the same fields, not just compare equal, since RF is not gcd-reduced and
# its printed form depends on them.
# ---------------------------------------------------------------------------

def slow_reduced(nums, den) -> Poly:
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {m: c // g for m, c in nums.items()}
        den //= g
    p = Poly.__new__(Poly)
    p.nums, p.den = nums, den
    return p


def slow_mul(p: Poly, q: Poly) -> Poly:
    out = {}
    for (a0, a1, a2), c1 in p.nums.items():
        for (b0, b1, b2), c2 in q.nums.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            out[m] = out.get(m, 0) + c1 * c2
    return slow_reduced({m: c for m, c in out.items() if c}, p.den * q.den)


def slow_add(p: Poly, q: Poly) -> Poly:
    g = math.gcd(p.den, q.den)
    fa, fb = q.den // g, p.den // g
    out = {m: c * fa for m, c in p.nums.items()}
    for m, c in q.nums.items():
        s = out.get(m, 0) + c * fb
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return slow_reduced(out, p.den * fa)


def slow_normalize(num: Poly, den: Poly):
    if num.is_zero():
        return Poly(), Poly.const(1)
    shift = tuple(max(-lo, 0) for lo in map(min, zip(*num.nums, *den.nums)))
    if any(shift):
        num = num.shift(shift)
        den = den.shift(shift)
    lead = den.nums[min(den.nums)]
    if lead != den.den:
        s, t = (den.den, lead) if lead > 0 else (-den.den, -lead)
        num = slow_reduced({m: c * s for m, c in num.nums.items()},
                           num.den * t)
        den = slow_reduced({m: c * s for m, c in den.nums.items()},
                           den.den * t)
    return num, den


def same_fields(got: Poly, want: Poly):
    assert (got.nums, got.den) == (want.nums, want.den)
    assert_canonical(got)


nonneg_monos = st.tuples(st.integers(0, 3), st.integers(0, 3),
                         st.integers(0, 2))
# operands that take each fast path: the constant 1, zero, one term (with
# and without negative exponents), and general Laurent polynomials
fast_path_polys = st.one_of(
    st.just(Poly.const(1)), st.just(Poly()),
    st.builds(lambda m, c: Poly({m: c}), monos, nonzero_fractions),
    st.builds(lambda m, c: Poly({m: c}), nonneg_monos, st.integers(-5, 5)),
    st.dictionaries(nonneg_monos, fractions, max_size=4).map(Poly),
    laurent_terms().map(Poly))


@st.composite
def over_den(draw, d):
    """A Poly whose lowest-terms denominator is d: integer numerators over
    d, one of them 1."""
    nums = draw(st.dictionaries(monos, st.integers(-9, 9), max_size=4))
    nums[draw(monos)] = 1
    return Poly({m: Fraction(c, d) for m, c in nums.items()})


@st.composite
def fast_path_pairs(draw):
    """Two operands, independent or over one common denominator: 1, as
    the integer polynomials are, or some d > 1."""
    kind = draw(st.sampled_from(("any", "over 1", "over d")))
    if kind == "any":
        return draw(fast_path_polys), draw(fast_path_polys)
    d = 1 if kind == "over 1" else draw(st.integers(2, 12))
    a, b = draw(over_den(d)), draw(over_den(d))
    assert a.den == b.den == d
    return a, b


@given(fast_path_pairs())
@settings(max_examples=400, deadline=None)
def test_poly_fast_paths_keep_the_fields(pair):
    a, b = pair
    same_fields(a * b, slow_mul(a, b))
    same_fields(b * a, slow_mul(b, a))
    same_fields(a + b, slow_add(a, b))
    same_fields(b + a, slow_add(b, a))
    if b:
        for got, want in zip(_normalize(a, b), slow_normalize(a, b)):
            same_fields(got, want)
        # the RF operations chain the products and sums into _normalize
        f, g = _raw_rf(a, b), _raw_rf(a + b, b)
        ops = [(f + g,
                slow_add(slow_mul(f.num, g.den), slow_mul(g.num, f.den)),
                slow_mul(f.den, g.den)),
               (f * g, slow_mul(f.num, g.num), slow_mul(f.den, g.den))]
        if g.num:
            ops.append((f / g, slow_mul(f.num, g.den), slow_mul(f.den, g.num)))
        for got, num, den in ops:
            want = slow_normalize(num, den)
            same_fields(got.num, want[0])
            same_fields(got.den, want[1])
            rebuilt = RF(num, den)
            same_fields(got.num, rebuilt.num)
            same_fields(got.den, rebuilt.den)
        # negation and powers of a normalized pair
        for got, (num, den) in ((-f, (-f.num, f.den)),
                                (f - g, (slow_add(slow_mul(f.num, g.den),
                                                  slow_mul(-g.num, f.den)),
                                         slow_mul(f.den, g.den))),
                                (f ** 2, (slow_mul(f.num, f.num),
                                          slow_mul(f.den, f.den))),
                                (f ** 0, (Poly.const(1), Poly.const(1)))):
            want = slow_normalize(num, den)
            same_fields(got.num, want[0])
            same_fields(got.den, want[1])


@given(nonneg_monos, st.integers(-10 ** 30, 10 ** 30))
@settings(max_examples=100, deadline=None)
def test_int_constructors_keep_the_fields(mono, c):
    want = Poly({mono: Fraction(c)})
    same_fields(Poly.monomial(*mono, coeff=c), want)
    same_fields(Poly.const(c), Poly({(0, 0, 0): Fraction(c)}))
    # Fractions take the general path
    same_fields(Poly.monomial(*mono, coeff=Fraction(c, 3)),
                Poly({mono: Fraction(c, 3)}))


scalars = st.one_of(st.integers(-6, 6), fractions)


def as_rf(x) -> RF:
    """x as an RF, through the general constructor."""
    return RF(x) if isinstance(x, Poly) else RF(Poly({(0, 0, 0): x}))


@given(fast_path_polys, fast_path_polys, scalars)
@settings(max_examples=300, deadline=None)
def test_scalar_operands_keep_the_fields(a, b, x):
    c = Poly({(0, 0, 0): x})
    for got, want in ((a + x, slow_add(a, c)), (x + a, slow_add(c, a)),
                      (a - x, slow_add(a, -c)), (x - a, slow_add(c, -a)),
                      (a * x, slow_mul(a, c)), (x * a, slow_mul(c, a))):
        same_fields(got, want)
    if not b:
        return
    f = _raw_rf(a, b)
    cases = [(f + x, f + as_rf(x)), (x + f, as_rf(x) + f),
             (f - x, f - as_rf(x)), (x - f, as_rf(x) - f),
             (f * x, f * as_rf(x)), (x * f, as_rf(x) * f),
             (f * a, f * as_rf(a)), (a * f, as_rf(a) * f)]
    if x:
        cases.append((f / x, f / as_rf(x)))
    if a:
        cases.append((x / f, as_rf(x) / f))
    for got, want in cases:
        # the RF-with-RF operations are held to _normalize above
        same_fields(got.num, want.num)
        same_fields(got.den, want.den)
    assert (f == x) == (f == as_rf(x))


@given(monos, st.one_of(st.integers(-10 ** 20, 10 ** 20), fractions))
@settings(max_examples=200, deadline=None)
def test_raw_rf_constructors_keep_the_fields(mono, c):
    # each raw-built RF against the general constructor and the oracle
    cases = [(RF.monomial(*mono, coeff=c), Poly.monomial(*mono, coeff=c)),
             (RF.const(c), Poly.const(c)),
             (RF.monomial(*mono), Poly.monomial(*mono))]
    for got, p in cases:
        for want in (RF(p), _raw_rf(p, Poly.const(1))):
            same_fields(got.num, want.num)
            same_fields(got.den, want.den)
        want = slow_normalize(p, Poly.const(1))
        same_fields(got.num, want[0])
        same_fields(got.den, want[1])


def slow_ratio(f: RF, g: RF, constant_free_of=(VAR_Z, VAR_IQ, VAR_AV)):
    """ratio_if_proportional as it was before its direct grouping and
    equality test, kept as an oracle: the fields (num, den) of the ratio,
    or None."""
    if f.is_zero() and g.is_zero():
        return Poly.const(1), Poly.const(1)
    if f.is_zero() or g.is_zero():
        return None
    P = slow_mul(f.num, g.den)
    Q = slow_mul(g.num, f.den)
    banned = tuple(constant_free_of)

    def grouped(poly):
        groups = {}
        for m, c in poly.nums.items():
            key = tuple(m[i] if i in banned else 0 for i in range(3))
            rest = tuple(0 if i in banned else m[i] for i in range(3))
            groups.setdefault(key, {})[rest] = c
        return {k: slow_reduced(v, poly.den) for k, v in groups.items()}

    gp, gq = grouped(P), grouped(Q)
    keys = sorted(set(gp) | set(gq))
    polys = [(gp.get(k, Poly()), gq.get(k, Poly())) for k in keys]
    base = None
    for pk, qk in polys:
        if not qk.is_zero():
            base = (pk, qk)
            break
    if base is None:
        return None
    p0, q0 = base
    for pk, qk in polys:
        if not slow_add(slow_mul(pk, q0), -slow_mul(p0, qk)).is_zero():
            return None
    num, den = slow_normalize(p0, q0)
    if any(num.uses_var(i) or den.uses_var(i) for i in banned):
        return None
    return num, den


BANNED_SUBSETS = [(), (VAR_Z,), (VAR_IQ,), (VAR_AV,), (VAR_Z, VAR_IQ),
                  (VAR_Z, VAR_AV), (VAR_IQ, VAR_AV), (VAR_Z, VAR_IQ, VAR_AV)]


@given(fast_path_polys, fast_path_polys.filter(bool), fast_path_polys,
       st.sampled_from(["random", "proportional", "zero"]),
       st.sampled_from([(), (VAR_Z,), (VAR_IQ,), (VAR_AV,), (VAR_Z, VAR_IQ)]))
@settings(max_examples=300, deadline=None)
def test_ratio_keeps_the_fields_for_every_banned_subset(a, b, c, kind, free):
    g = _raw_rf(a, b)
    if kind == "random":
        f = _raw_rf(c, b + 1) if b + 1 else _raw_rf(c, b)
    elif kind == "proportional":
        # c free of the variables in `free`, so some banned subsets accept
        k = Poly({m: v for m, v in c.terms.items()
                  if not any(m[i] for i in free)})
        f = g * _raw_rf(k, Poly.const(1)) if k else g
    else:  # f = 0, against g = 0 when a is zero
        f = RF.const(0)
        if not a:
            g = RF.const(0)
    for banned in BANNED_SUBSETS:
        got = ratio_if_proportional(f, g, banned)
        want = slow_ratio(f, g, banned)
        if want is None:
            assert got is None, banned
            continue
        same_fields(got.num, want[0])
        same_fields(got.den, want[1])
