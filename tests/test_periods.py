import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qperiods.ratfunc import RF, IQv, AVv, VAR_AV, VAR_Z, ratio_if_proportional
from qperiods.closedforms import (PiecewiseGeometric, closed_profile,
                                  pi_geometric, zeta_Z, local_factor_chain)
from qperiods import periods, qform
from qperiods.periods import (mod4_character, primes_up_to, ZLFactor,
                              uncorrected_factors,
                              PeriodValue, table_row,
                              verify_table_row, evaluate_period,
                              constant_ratio_at_q2, local_factor_report,
                              _round_up_64, _enclosing_product, _row_base,
                              _row7_head, _entry_rf, _Z, _LogShiftedZ)

ONE = RF.const(1)
DATA = Path(__file__).parent / "data"


def test_chi1_values():
    # chi1 on the odd primes is the mod-4 character; the Euler product
    # skips the even prime, where chi1 vanishes
    assert [mod4_character(p) for p in (5, 13, 7, 3)] == [1, 1, -1, -1]
    for even in (2, 0, -4):
        with pytest.raises(ValueError):
            mod4_character(even)


def test_mod4_character():
    assert mod4_character(1) == 1
    assert mod4_character(-3) == 1
    assert mod4_character(7) == -1
    with pytest.raises(ValueError):
        mod4_character(6)
    odds = [-9, -7, -5, -3, -1, 1, 3, 5, 7, 9, 11, 15, 21]
    for a in odds:
        for b in odds:
            assert mod4_character(a * b) == mod4_character(a) * mod4_character(b)
    for p in (3, 7, 11, 19):
        assert mod4_character(p) == -1
    for p in (5, 13, 17):
        assert mod4_character(p) == 1


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2) == [2]
    assert primes_up_to(1) == []


def test_zl_factor_values():
    with pytest.raises(ValueError):
        ZLFactor("gamma", 1, 0)
    with pytest.raises(ValueError):
        ZLFactor("zeta", 1, 0, power=2)
    f = ZLFactor("zeta", 1, -3)
    assert f.exponent(5) == 2

    def at(f, p, alpha):
        (pair,) = periods._local_products(periods._prime_terms([f], alpha),
                                          [p])
        return Fraction(*pair)

    assert at(f, 3, 5) == Fraction(9, 8)
    assert at(ZLFactor("zeta", 1, -3, power=-1), 3, 5) == Fraction(8, 9)
    # chi1(3) = -1 flips the sign inside the L factor
    assert at(ZLFactor("L", 1, 0), 3, 2) == Fraction(9, 10)
    assert at(ZLFactor("L", 1, 0), 5, 2) == Fraction(25, 24)
    terms = periods._prime_terms([f, ZLFactor("L", 1, 0, power=-1)], 5)
    assert terms == ((2, True, 1), (5, False, -1))
    assert list(periods._local_products(terms, [3])) == [(9 * 244, 8 * 243)]


def test_zl_factor_dyadic_side():
    assert ZLFactor("L", 1, -2).dyadic_rf() == ONE
    assert ZLFactor("zeta", 1, -3).dyadic_rf() == zeta_Z(1, -3)
    assert ZLFactor("zeta", 2, -6, power=-1).dyadic_rf() == ONE / zeta_Z(2, -6)
    assert ZLFactor("zeta", 1, -3).render() == "zeta(alpha-3)"
    assert ZLFactor("zeta", 2, -14).render() == "zeta(2*alpha-14)"
    assert ZLFactor("L", 1, -2).render() == "L(alpha-2, chi1)"


def test_uncorrected_factor_shapes():
    def rendered(n, delta):
        fs = uncorrected_factors(n, delta)
        num = [f.render() for f in fs if f.power == 1]
        den = [f.render() for f in fs if f.power == -1]
        return num, den

    assert rendered(3, 1) == (["zeta(alpha-3)"], ["zeta(alpha-1)"])
    assert rendered(5, -1) == (["zeta(alpha-5)"], ["L(alpha-2, chi1)"])
    assert rendered(6, 1) == (["zeta(alpha-6)", "zeta(alpha-3)"],
                              ["zeta(2*alpha-6)"])
    assert rendered(4, -1) == (["zeta(alpha-4)", "L(alpha-2, chi1)"],
                               ["zeta(2*alpha-4)"])


def test_table_row_n5():
    spec = table_row(5)
    assert (spec.row, spec.ell, spec.delta, spec.chi) == (5, 0, -1, "chi1")
    assert spec.witt.k == 2
    assert spec.x1_str == "1 - ((u+z)/(1+z))*u^T"
    assert spec.pi2_str == "Z(alpha)*Z(alpha+5)*Z(alpha+2) / Z(2*alpha+4)"
    assert spec.uncorrected_str() == "zeta(alpha-5) / L(alpha-2, chi1)"


def test_table_row_n10_exceptional_start():
    spec = table_row(10)
    assert (spec.row, spec.witt.k) == (10, 3)
    w = RF.monomial(0, 4)
    assert spec.x1.T0 == 1
    assert spec.x1.value_at(0) == (ONE - w * IQv) / (ONE - w)


def test_table_row_n4_strings():
    spec = table_row(4)
    assert spec.uncorrected_str() == \
        "zeta(alpha-4)*L(alpha-2, chi1) / zeta(2*alpha-4)"
    assert spec.correction2_str == "Z(alpha-2) / q^-alpha"


def test_table_row_n12_is_the_shifted_row_4():
    spec = table_row(12)
    assert (spec.row, spec.ell) == (4, 1)
    assert spec.correction2_str == "Z(alpha-6) / q^-alpha"


def test_correction_strings_per_shift():
    assert table_row(3).correction2_str == "Z(alpha-1) / q^-alpha"
    assert table_row(11).correction2_str == "Z(alpha-5) / q^-alpha"
    assert table_row(9).correction2_str == "1 / (Z(alpha-5) q^-alpha)"
    assert table_row(17).correction2_str == "1 / (Z(alpha-9) q^-alpha)"


def test_local2_rf_collapses_for_n3():
    assert table_row(3).local2_rf() == zeta_Z(1, -3) / AVv


def _table_text_at_q2(text, n, k, alpha):
    """A printed Pi or correction evaluated from its text alone at q = 2:
    Z(s) = 1/(1 - 2^-s), a = q^-alpha = 2^-alpha, and row 7's
    Z(s-log_q v) = 1/(1 - 2^-s v) with v = 2u/(1+w+u)."""
    expr, _, v = text.partition(",  v = ")
    expr = (expr.replace("-log_q v)", ", v)").replace(") q^-alpha", ")*a")
            .replace("q^-alpha", "a"))
    two = Fraction(2)
    env = {"alpha": alpha, "a": two ** -alpha, "u": two ** -n,
           "w": two ** -(k + 1), "Z": lambda s, x=1: 1 / (1 - two ** -s * x)}
    if v:
        env["v"] = eval(v.replace("2u", "2*u"), env)
    return eval(expr, env)


def test_printed_entries_read_back_as_their_rational_functions():
    # read independently of the factor tuples they are rendered from, the
    # Pi and correction texts must give the entries' values exactly
    for n in range(3, 67):
        spec = table_row(n)
        alpha = n + 2
        for text, rf in ((spec.pi2_str, spec.pi2),
                         (spec.correction2_str, spec.correction2)):
            want = rf.eval_partial(iq=Fraction(1, 2),
                                   av=Fraction(1, 2) ** alpha).as_fraction()
            assert _table_text_at_q2(text, n, spec.witt.k, alpha) == want, \
                (n, text)


def test_to_json_shape():
    j = table_row(7).to_json()
    assert j["n"] == 7 and j["row"] == 7 and j["ell"] == 0
    assert j["k"] == 3 and j["m"] == 1
    assert j["chi"] == "chi0" and j["delta"] == 1
    assert isinstance(j["v"], str)
    assert j["flags"]
    assert set(j) == {"n", "row", "ell", "k", "m", "delta", "hmi", "chi", "x",
                      "pi", "v", "uncorrected", "correction2", "flags"}
    assert table_row(3).to_json()["v"] is None
    assert table_row(3).to_json()["flags"] == []


def test_table_row_rejects_small_n():
    for n in (2, 1, 0, -5):
        with pytest.raises(ValueError):
            table_row(n)


def test_specialize_profile():
    from qperiods.ratfunc import Zv
    prof = PiecewiseGeometric(1, 1, {0: Zv}, 1, [(Zv ** 2, (2, 1))])
    sp = specialize_profile(prof, 3)
    assert sp.value_at(0) == IQv ** 3
    assert sp.value_at(2) == IQv ** 20  # iq^6 * (iq^7)^2


def test_verify_rows_all_pass():
    reports = [verify_table_row(n) for n in range(3, 19)]
    for r in reports:
        assert r["pass"]
        for name in ("a", "b", "c"):
            assert r["checks"][name]["pass"]
            assert r["checks"][name]["ratio"] is not None
    flagged = sorted(r["n"] for r in reports if r["flags"])
    assert flagged == [6, 7, 14, 15]


def test_table_rows_match_golden_file():
    # display strings and check ratios of every row up to n = 66, one
    # sorted-key JSON line per row
    lines = [json.dumps({"n": n, "row": table_row(n).to_json(),
                         "checks": verify_table_row(n)["checks"]},
                        sort_keys=True) + "\n" for n in range(3, 67)]
    with open(DATA / "table_rows.jsonl") as fh:
        assert "".join(lines) == fh.read()


def test_table_rows_match_golden_file_from_cold_kernel_memos():
    # with both per-class memos empty, rows n + 8 come first, so each Witt
    # class's kernel and closed profile are built at a row other than the
    # smallest one of the class
    qform._chain_kernel.cache_clear()
    periods._KERNEL_PROFILES.clear()
    ns = list(range(66, 2, -1))
    got = {n: json.dumps({"n": n, "row": table_row(n).to_json(),
                          "checks": verify_table_row(n)["checks"]},
                         sort_keys=True) + "\n" for n in ns}
    assert len(periods._KERNEL_PROFILES) == 8
    with open(DATA / "table_rows.jsonl") as fh:
        assert "".join(got[n] for n in range(3, 67)) == fh.read()
    for n in range(3, 11):
        a, b = table_row(n).witt, table_row(n + 8).witt
        assert (periods._kernel_profile(a)
                is periods._kernel_profile(b))


def test_verify_single_row_report():
    r = verify_table_row(5)
    assert r["pass"] and r["n"] == 5
    assert isinstance(r["checks"]["a"]["ratio"], str)


# ---------------------------------------------------------------------------
# The documented near-miss entries must keep failing the checks.
# ---------------------------------------------------------------------------

def _t_ratio_constant(prof, entry):
    vals = [(prof.value_at(T).eval_partial(iq=Fraction(1, 2)).as_fraction(),
             entry.value_at(T).eval_partial(iq=Fraction(1, 2)).as_fraction())
            for T in range(4)]
    c = None
    for fv, gv in vals:
        if gv != 0:
            c = fv / gv
            break
    return c is not None and all(fv == c * gv for fv, gv in vals)


def _check_c_holds(spec, pi2, corr):
    local2 = local_factor_chain(pi2, spec.n, spec.witt.k)
    target = ONE
    for f in spec.uncorrected:
        target = target * f.dyadic_rf()
    target = target * corr
    return ratio_if_proportional(local2, target,
                                 constant_free_of=(VAR_AV,)) is not None


def specialize_profile(prof: PiecewiseGeometric, k: int) -> PiecewiseGeometric:
    """Substitute z -> q^-k (that is, beta = k) into a profile in (z, iq);
    tail ratios z^a iq^b collapse to iq^(ak+b)."""
    def sub(f):
        return f.subst_monomial(VAR_Z, 1, (0, k, 0))
    exc = {T: sub(val) for T, val in prof.exceptional.items()}
    tail = [(sub(c), (0, ez * k + eiq)) for c, (ez, eiq) in prof.tail]
    return PiecewiseGeometric(prof.n, prof.e, exc, prof.T0, tail,
                              sub(prof.zero_value))


def rejected_variants(n: int) -> dict:
    """Shortcut table entries that look plausible but fail the symbolic
    checks, so that the tests can prove they stay rejected."""
    row, k = _row_base(n), qform.witt_profile(n).k
    ell = (n - row) // 8
    out = {}
    if row == 6:
        out["x1"] = PiecewiseGeometric(n, 1, {0: ONE}, 1, [])
        out["pi2"] = ONE
        out["correction2"] = _entry_rf(
            (_Z(2, -n), _Z(1, 0, -1), _Z(1, -n, -1), _Z(1, -(n // 2), -1)), -1)
    elif row == 7:
        out["correction2"] = _entry_rf(
            (_Z(1, -(4 * ell + 1)),
             _LogShiftedZ(-(n + 1), _row7_head(n, k), "(1+w+u)", -1)), -1)
    return out


def test_rejected_variants_row6():
    spec = table_row(6)
    bad = rejected_variants(6)
    assert set(bad) == {"x1", "pi2", "correction2"}
    kernel = specialize_profile(closed_profile(spec.witt.kernel_form),
                                spec.witt.k)
    # the adopted entries really do pass
    assert _t_ratio_constant(kernel, spec.x1)
    assert _check_c_holds(spec, spec.pi2, spec.correction2)
    # the variant family hangs together under checks (b) and (c)...
    assert pi_geometric(bad["x1"]) == bad["pi2"]
    assert _check_c_holds(spec, bad["pi2"], bad["correction2"])
    # ...but its X disagrees with the zero-dimensional kernel's densities,
    # and its correction cannot repair the Pi those densities force
    assert not _t_ratio_constant(kernel, bad["x1"])
    assert not _check_c_holds(spec, spec.pi2, bad["correction2"])


def test_rejected_variants_row7():
    for n in (7, 15):
        spec = table_row(n)
        bad = rejected_variants(n)
        assert set(bad) == {"correction2"}
        assert _check_c_holds(spec, spec.pi2, spec.correction2)
        assert not _check_c_holds(spec, spec.pi2, bad["correction2"])


def test_rejected_variants_other_rows_empty():
    assert rejected_variants(3) == {}
    assert rejected_variants(8) == {}


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def test_evaluate_period_domain_errors():
    with pytest.raises(ValueError):
        evaluate_period(6, 7, 97)          # alpha = n + 1
    with pytest.raises(ValueError):
        evaluate_period(6, Fraction(21, 2), 97)
    with pytest.raises(ValueError):
        evaluate_period(6, "10", 97)
    with pytest.raises(ValueError):
        evaluate_period(6, 10, 1)


def test_evaluate_period_even_prime_only():
    pv = evaluate_period(3, 10, 2)
    assert pv.value == Fraction(131072, 127)
    assert evaluate_period(3, Fraction(10), 2).value == pv.value
    # tail bound: K = 2 factors, s = 7, S = 1/(6 * 2^6)
    rel = (Fraction(1) / (1 - Fraction(1, 384))) ** 2 - 1
    assert pv.tail_bound == pv.value * rel


def test_evaluate_period_reference_value():
    pv = evaluate_period(6, 10, 97)
    assert pv.decimal(12) == "1.082833296781"
    assert pv.tail_bound < Fraction(2, 10 ** 6)
    j = pv.to_json()
    assert j["value"] == "%d/%d" % (pv.value.numerator, pv.value.denominator)
    assert j["normalization"] == "up to a multiplicative constant"
    assert "zeta(alpha-6)" in j["expression"]


def test_evaluate_period_converges_within_bound():
    cuts = (5, 11, 23, 47, 97)
    vals = [evaluate_period(6, 10, P) for P in cuts]
    for a, b in zip(vals, vals[1:]):
        assert abs(b.value - a.value) <= a.tail_bound


def test_tail_bound_at_least_halves_when_cutoff_doubles():
    for n, alpha in ((6, 10), (3, 9)):
        for P in (3, 7, 13, 26):
            big = evaluate_period(n, alpha, P).tail_bound
            small = evaluate_period(n, alpha, 2 * P).tail_bound
            assert small <= big / 2


def _sequential_period(n, alpha, p_max):
    """The exact truncated product T by a running product of Fractions, the
    oracle for evaluate_period's fixed-point product: (T, rel, S, K) with
    the full product inside T [(1-S)^K, (1-S)^-K] and rel = (1-S)^-K - 1."""
    spec = table_row(n)
    half = Fraction(1, 2)
    value = spec.local2_rf().eval_partial(
        iq=half, av=half ** alpha).as_fraction()
    for p in primes_up_to(p_max):
        if p == 2:
            continue
        for f in spec.uncorrected:
            chi = 1 if f.kind == "zeta" else mod4_character(p)
            base = 1 - Fraction(chi, p ** f.exponent(alpha))
            value *= Fraction(1) / base if f.power == 1 else base
    K = len(spec.uncorrected)
    s = alpha - n
    S = Fraction(1, (s - 1) * p_max ** (s - 1))
    return value, (Fraction(1) / (1 - S)) ** K - 1, S, K


def test_fixed_point_product_encloses_the_exact_product():
    cases = [(n, n + d, P) for n in range(3, 19) for d in (2, 3, 7)
             for P in (2, 3, 5, 97, 1000)] + [(66, 69, 1000)]
    assert {table_row(n).chi for n, _, _ in cases} == {"chi0", "chi1"}
    for n, alpha, P in cases:
        pv = evaluate_period(n, alpha, P)
        T, rel, S, K = _sequential_period(n, alpha, P)
        tail = abs(T) * rel
        # the rounding stays far below the truncation tail
        assert abs(pv.value - T) <= tail / 2 ** 64, (n, alpha, P)
        # the full product's range lies inside the reported interval
        ends = (T * (1 - S) ** K, T / (1 - S) ** K)
        assert pv.value - pv.tail_bound <= min(ends), (n, alpha, P)
        assert max(ends) <= pv.value + pv.tail_bound, (n, alpha, P)
        assert tail <= pv.tail_bound <= tail * (1 + Fraction(1, 2 ** 62)), \
            (n, alpha, P)
        oracle = PeriodValue(n, alpha, P, T, tail, "")
        assert pv.decimal(12) == oracle.decimal(12), (n, alpha, P)


def test_enclosing_product_rounds_outward():
    rng = random.Random(7)
    for B in (0, 1, 4, 16, 64):
        for _ in range(200):
            pairs = [(rng.randint(1, 50), rng.randint(1, 50))
                     for _ in range(rng.randint(0, 6))]
            exact = Fraction(1 << B)
            for num, den in pairs:
                exact *= Fraction(num, den)
            lo, hi = _enclosing_product(iter(pairs), B)
            assert lo <= exact <= hi, (B, pairs)
    # no rounding when every partial product is a multiple of 2^-B
    assert _enclosing_product([(3, 2), (5, 4)], 4) == (30, 30)
    # leaves near 1: each end moves by a few units per step
    pairs = [(p ** 3, p ** 3 - 1) for p in primes_up_to(1000)[1:]]
    lo, hi = _enclosing_product(pairs, 64)
    assert hi - lo <= 4 * len(pairs)


def slow_local_product(terms, p):
    """The per-prime leaf _local_products replaced, kept as an oracle."""
    chi = mod4_character(p)
    num = den = 1
    for s, is_zeta, power in terms:
        ps = p ** s
        d = ps - (1 if is_zeta else chi)
        num, den = (num * ps, den * d) if power == 1 else (num * d, den * ps)
    return num, den


@pytest.mark.parametrize("n", [3, 6, 66])
@pytest.mark.parametrize("p_max", [1000, 30000])
def test_local_products_keep_every_leaf_and_both_ends(n, p_max):
    terms = periods._prime_terms(table_row(n).uncorrected, n + 3)
    primes = primes_up_to(p_max)[1:]
    want = [slow_local_product(terms, p) for p in primes]
    assert list(periods._local_products(terms, primes)) == want
    B = 66 + 128 + len(primes).bit_length()
    assert (_enclosing_product(periods._local_products(terms, primes), B)
            == _enclosing_product(want, B))


def test_tail_bound_covers_the_rounding_radius(monkeypatch):
    # lower lo far past the truncation tail: the midpoint moves off T by
    # about T/128, and only the rounding radius in tail_bound still covers T
    real = periods._enclosing_product

    def lopsided(pairs, B):
        lo, hi = real(pairs, B)
        return lo - (1 << (B - 6)), hi
    monkeypatch.setattr(periods, "_enclosing_product", lopsided)
    for n, alpha, P in ((6, 10, 97), (7, 10, 97), (3, 6, 1000)):
        pv = evaluate_period(n, alpha, P)
        T, rel, S, K = _sequential_period(n, alpha, P)
        assert abs(pv.value - T) > abs(T) * rel
        ends = (T * (1 - S) ** K, T / (1 - S) ** K)
        assert pv.value - pv.tail_bound <= min(ends), (n, alpha, P)
        assert max(ends) <= pv.value + pv.tail_bound, (n, alpha, P)


def test_evaluate_period_refuses_p_max_past_the_limit(monkeypatch):
    def no_sieve(N):
        raise AssertionError("the sieve ran for p_max = %d" % N)
    monkeypatch.setattr(periods, "primes_up_to", no_sieve)
    with pytest.raises(ValueError, match="p_max must be at most %d"
                       % periods.P_MAX_LIMIT):
        evaluate_period(6, 9, periods.P_MAX_LIMIT + 1)


def test_round_up_64():
    small = Fraction(3, 2 ** 64 - 1)
    assert _round_up_64(small) is small
    for x in (Fraction(3 ** 100 + 1, 7), Fraction(7, 3 ** 100),
              Fraction(2 ** 64 + 1, 3 ** 41), Fraction(2 ** 65 + 1, 2 ** 65),
              Fraction(2 ** 200)):
        r = _round_up_64(x)
        m = r.numerator
        while m % 2 == 0:
            m //= 2
        assert m.bit_length() <= 64 and r.denominator & (r.denominator - 1) == 0
        assert x <= r <= x * (1 + Fraction(1, 2 ** 63)), x


def test_period_value_decimal():
    assert PeriodValue(3, 9, 2, Fraction(1, 8), Fraction(0), "x").decimal(3) \
        == "0.125"
    assert PeriodValue(3, 9, 2, Fraction(-2, 3), Fraction(0), "x").decimal(4) \
        == "-0.6667"
    assert PeriodValue(3, 9, 2, Fraction(5), Fraction(0), "x").decimal(2) \
        == "5.00"
    pv = PeriodValue(3, 9, 2, Fraction(1, 8), Fraction(1, 8), "x")
    for digits in (0, -2):
        with pytest.raises(ValueError, match="digits must be at least 1"):
            pv.decimal(digits)
        with pytest.raises(ValueError, match="digits must be at least 1"):
            pv.to_json(digits)


def test_period_value_decimal_past_the_str_digit_limit():
    def dec(value, digits):
        return PeriodValue(3, 9, 2, value, Fraction(0), "x").decimal(digits)
    # the fixed-point form up to 4,300 digits, then significant digits
    assert dec(Fraction(10 ** 4290, 3), 10) == "3" * 4290 + "." + "3" * 10
    assert dec(Fraction(10 ** 4290, 3), 11) == "3.3333333333e+4289"
    assert dec(Fraction(-123456789) * 10 ** 4400, 4) == "-1.235e+4408"
    assert dec(Fraction(99995) * 10 ** 4400, 4) == "1.000e+4405"
    assert dec(Fraction(99994) * 10 ** 4400, 4) == "9.999e+4404"
    assert dec(Fraction(10) ** 5000 - Fraction(1, 3), 1) == "1e+5000"
    assert dec(Fraction(1, 8), 4300).endswith("125" + "0" * 4297)
    with pytest.raises(ValueError, match="digits must be at most 4300"):
        dec(Fraction(1, 8), 4301)


# ---------------------------------------------------------------------------
# The q = 2 constant-ratio test and the local-factor verdict
# ---------------------------------------------------------------------------

def test_constant_ratio_at_q2_accepts_the_folded_rows():
    # n = 7 mod 8: the table folds a 2 into powers of q, so the symbolic
    # test finds no constant and only sampling at q = 2 does
    half = Fraction(1, 2)
    for n in (7, 15, 23):
        spec = table_row(n)
        chain = local_factor_chain(
            pi_geometric(closed_profile(spec.witt.kernel_form)), n,
            spec.witt.k)
        table = spec.local2_rf()
        assert ratio_if_proportional(chain, table,
                                     constant_free_of=(VAR_AV,)) is None
        pairs = [tuple(f.eval_partial(iq=half, av=half ** a).as_fraction()
                       for f in (chain, table)) for a in range(n + 2, n + 7)]
        c = constant_ratio_at_q2(pairs)
        assert c is not None and c != 0
        report = local_factor_report(n)
        assert report["consistent"] is True
        assert Fraction(report["ratio"]) == c


def test_constant_ratio_at_q2_values():
    assert constant_ratio_at_q2([(6, 3), (0, 0), (-4, -2)]) == 2
    F = Fraction
    assert constant_ratio_at_q2(iter([(F(1), F(3)), (F(2), F(6))])) == F(1, 3)
    # a non-constant ratio
    assert constant_ratio_at_q2([(2, 1), (3, 1)]) is None
    # gv == 0 with fv != 0 breaks proportionality
    assert constant_ratio_at_q2([(2, 1), (5, 0)]) is None
    # no pair with gv != 0 leaves no constant to report
    assert constant_ratio_at_q2([(0, 0), (1, 0)]) is None
    assert constant_ratio_at_q2([]) is None


def fraction_constant_ratio(pairs):
    """constant_ratio_at_q2 as it was written on Fractions, the oracle of
    the cross-multiplying integer version."""
    pairs = list(pairs)
    c = next((Fraction(fv) / gv for fv, gv in pairs if gv != 0), None)
    if c is None or any(fv != c * gv for fv, gv in pairs):
        return None
    return c


def test_integer_constant_ratio_matches_fraction_oracle():
    rng = random.Random(24)

    def unreduced(x):
        # the pair of x scaled by a random nonzero factor, sign included
        k = rng.choice([1, -1]) * rng.randrange(1, 50)
        return (x.numerator * k, x.denominator * k)

    def value():
        return Fraction(rng.choice([0, 0, rng.randrange(-99, 100)]),
                        rng.randrange(1, 30))

    for _ in range(2000):
        c = value()
        gs = [value() for _ in range(rng.randrange(0, 5))]
        # proportional, with one value sometimes perturbed
        fs = [c * g for g in gs]
        if fs and rng.random() < 0.5:
            i = rng.randrange(len(fs))
            fs[i] += rng.choice([value(), Fraction(1, 7)])
        pairs = list(zip(fs, gs))
        want = fraction_constant_ratio(pairs)
        got = periods._constant_ratio(
            (unreduced(f), unreduced(g)) for f, g in pairs)
        assert got == want
        assert constant_ratio_at_q2(pairs) == want
        if want is not None:
            assert type(got) is Fraction


def test_values_at_q2_match_value_at():
    # one kernel per Witt class (n mod 8), and each row's X entry
    half = Fraction(1, 2)
    for n in range(3, 11):
        spec = table_row(n)
        k = spec.witt.k
        for prof, kk in ((periods._kernel_profile(spec.witt), k),
                         (spec.x1, None)):
            z = None if kk is None else half ** kk
            got = periods._values_at_q2(prof, range(6), k=kk)
            want = [prof.value_at(T).value(z=z, iq=half) for T in range(6)]
            assert [Fraction(*pair) for pair in got] == want
    # the kernels' ratios use z, so they need k
    with pytest.raises(ValueError, match="no value given for z"):
        periods._values_at_q2(periods._kernel_profile(table_row(5).witt),
                              range(2))

