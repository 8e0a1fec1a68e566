from fractions import Fraction

import pytest

from qperiods.kernels import EnumBudgetError
from itertools import combinations_with_replacement

from qperiods import counting
from qperiods.localfield import make_field, hilbert_symbol, square_class_reps
from qperiods.qform import DiagonalForm, is_anisotropic
from qperiods.counting import (TruncatedSeries, count_level_naive,
                               count_level_histogram, x_series, x_series_at,
                               x_series_many, pi_truncated, conic_measure,
                               residually_anisotropic_pair)

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)


def test_truncated_series_container():
    s = TruncatedSeries([1, Fraction(1, 2), Fraction(1, 4)])
    assert s.L == 2 and len(s) == 3
    assert s[1] == Fraction(1, 2)
    assert list(s) == [1, Fraction(1, 2), Fraction(1, 4)]
    assert s == [1, Fraction(1, 2), Fraction(1, 4)]


def test_truncated_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([2])  # a measure cannot exceed 1
    with pytest.raises(ValueError):
        TruncatedSeries([Fraction(-1, 2)])


def test_histogram_equals_naive_counting():
    grid = [
        (Q2, [1], 0), (Q2, [1, -5], 0), (Q2, [1, 1, 1], 0), (Q2, [1, -5], 1),
        (Q2, [2, 3], 0),
        (Q4, [1], 0), (Q4, [1, -5], 0),
        (R2, [1], 0), (R2, [3, 1], 0),
        (F3, [1, 1], 0), (F3, [1, -1], 1),
    ]
    for field, coeffs, planes in grid:
        B = DiagonalForm(field, coeffs, planes=planes)
        pi = field.uniformizer()
        for rho in [field.zero(), field.one(), pi, pi * pi, field.elt(-3)]:
            for ell in (0, 1, 2, 3):
                a = count_level_naive(B, rho, ell)
                b = count_level_histogram(B, rho, ell)
                assert a == b, (field.q, coeffs, planes, rho, ell)


def test_empty_form_counts():
    B = DiagonalForm(Q2, [])
    assert count_level_histogram(B, Q2.zero(), 3) == 1
    assert count_level_histogram(B, Q2.one(), 3) == 0
    # the empty sum still hits targets divisible by the modulus
    assert count_level_histogram(B, Q2.elt(16), 3) == 1


def test_x_series_spec_example():
    B = DiagonalForm(Q2, [1])
    assert list(x_series(B, Q2.elt(1), 4)) == [
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4),
        Fraction(1, 8)]


def test_x_series_stabilized_equals_direct():
    # note <1, -5> would be isotropic over Q4: 5 generates the unramified
    # extension, so it is a square up there; use a prime discriminant
    forms = [DiagonalForm(Q2, [1]), DiagonalForm(Q2, [1, 1, 1]),
             DiagonalForm(Q4, [1, -2]), DiagonalForm(R2, [1]),
             DiagonalForm(F3, [1, 1])]
    for B in forms:
        pi = B.field.uniformizer()
        for rho in [None, B.field.one(), pi * pi]:
            fast = x_series(B, rho, 8)
            slow = x_series(B, rho, 8, direct=True)
            assert fast == slow, (B, rho)


def test_x_series_many_matches_one_level_at_a_time():
    # the batch reads every level from one distribution; the single-entry
    # kernel counts each level on its own ring
    forms = [DiagonalForm(Q2, [1, 3]), DiagonalForm(Q2, [1], planes=1),
             DiagonalForm(Q4, [1, -2]), DiagonalForm(R2, [1, 3]),
             DiagonalForm(F3, [1, 1], planes=1)]
    for B in forms:
        pi = B.field.uniformizer()
        rhos = [None, B.field.one(), pi, pi * pi, B.field.elt(2)]
        for direct, L in ((True, 5), (False, 7)):
            if not direct and B.planes:
                continue
            got = x_series_many(B, rhos, L, direct=direct)
            for rho, s in zip(rhos, got):
                if direct:
                    assert list(s) == [count_level_histogram(B, rho, l)
                                       for l in range(L + 1)], (B, rho)
                else:
                    assert s == x_series(B, rho, L, verify=L), (B, rho)
    assert x_series_many(DiagonalForm(Q2, [1]), [], 3) == []


# every ring below 2^14 classes; L reaches the first derived level of a
# target of ord 9 (ord - e + 1) but on Q4 and Q9
DERIVED_FIELDS = [(Q2, 11), (Q4, 6), (R2, 10),
                  (make_field(2, 1, "ramified", c1=2, c0=2), 10), (F3, 8),
                  (make_field(3, 2, "unramified"), 4)]


@pytest.mark.parametrize("field,L", DERIVED_FIELDS,
                         ids=["q2", "q4", "ram(0,-2)", "ram(2,2)", "q3", "q9"])
def test_derived_targets_match_direct_counts(field, L):
    # every target of ord >= 2e + 2 is derived from the ring two levels
    # down; hold it, the counted targets and the zero target against
    # direct counts on every anisotropic form of m <= 2 over the square
    # classes and every eleventh of m = 3 (odd-ord coefficients such as
    # <2, 6> have primitive values of ord 2e + 1)
    reps = square_class_reps(field)
    w = field.uniformizer()
    nonsquare = [u for u in reps if u.is_unit()][-1]
    rhos = ([None] + [w ** k for k in range(10)]
            + [nonsquare * w ** k for k in range(10)])
    seen = 0
    for m in (1, 2, 3):
        for coeffs in combinations_with_replacement(reps, m):
            B = DiagonalForm(field, list(coeffs))
            if not is_anisotropic(B):
                continue
            seen += 1
            if m == 3 and seen % 11:
                continue
            got = x_series_many(B, rhos, L)
            want = x_series_many(B, rhos, L, direct=True)
            for rho, a, b in zip(rhos, got, want):
                assert a == b, (B, rho)


def test_derived_target_counts_its_small_ring_only(monkeypatch):
    # x_1^2 + x_2^2 over Q131: T = 1 comes from T = 0, so every count is
    # over o/131 or below and none is over o/131^2 or o/131^3
    F131 = make_field(131)
    rings = []
    real = counting.kernels.solution_count
    monkeypatch.setattr(counting.kernels, "solution_count",
                        lambda ring, *a, **kw: rings.append(ring.size)
                        or real(ring, *a, **kw))
    B = DiagonalForm(F131, [1, 1])
    assert list(x_series_at(B, 1, 4)) == [
        1, Fraction(1, 131 ** 2), Fraction(1, 131 ** 2),
        Fraction(132, 131 ** 4), Fraction(132, 131 ** 5)]
    assert max(rings) == 131


def test_derived_chains_walk_each_target_once(monkeypatch):
    # pi_truncated at T_max = 300 over Q2 derives T = 2..300, one rho / pi^2
    # each: rebuilding every target's chain down to T = 1 took 44,850
    calls = []
    real = counting._down
    monkeypatch.setattr(counting, "_down",
                        lambda field, rho: calls.append(rho) or real(field, rho))
    B = DiagonalForm(Q2, [1, 1, 1])
    pi_truncated(B, Fraction(1, 3), 4, 300)
    assert len(calls) <= 299
    # chains shared in any order give each target its own series
    w = Q2.uniformizer()
    rhos = [w ** 12, w ** 6, w ** 16, w ** 6, 3 * w ** 10, w ** 4, None]
    got = x_series_many(B, rhos, 9)
    assert got == [x_series_many(B, [rho], 9)[0] for rho in rhos]
    assert got[:3] == [x_series(B, rho, 9, direct=True) for rho in rhos[:3]]


def test_x_series_verify_recounts_derived_levels(monkeypatch):
    # pi^4 over Q2 (e = 1) is derived from level ord - e + 1 = 4 on, pi^2
    # is counted to level ord + e + 1 = 4; verify recounts from there
    levels = []
    real = counting.count_level_histogram
    monkeypatch.setattr(counting, "count_level_histogram",
                        lambda B, rho, l: levels.append(l) or real(B, rho, l))
    B = DiagonalForm(Q2, [1, 1, 1])
    x_series(B, Q2.elt(16), 8, verify=2)
    x_series(B, Q2.elt(4), 8, verify=2)
    assert levels == [4, 5, 5, 6]


def test_x_series_verify_mode_is_quiet():
    B = DiagonalForm(Q2, [1, -5])
    x_series(B, Q2.one(), 9, verify=3)  # recount three extended levels


def test_x_series_rejects_isotropic_unless_direct():
    B = DiagonalForm(Q2, [1, -1])
    with pytest.raises(ValueError):
        x_series(B, Q2.one(), 3)
    assert x_series(B, Q2.one(), 3, direct=True)[0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        x_series(DiagonalForm(Q2, [1], planes=1), Q2.one(), 3)


def test_x_series_zero_target_two_step_law():
    B = DiagonalForm(Q2, [1, -5])
    s = x_series(B, None, 9)
    n, q = B.n, B.field.q
    for l in range(2, 8):
        assert s[l + 2] == s[l] / Fraction(q ** n)


def test_x_series_at_canonical_targets():
    B = DiagonalForm(Q2, [1, 1, 1])
    assert x_series_at(B, 1, 5) == x_series(B, Q2.elt(4), 5)
    assert x_series_at(B, None, 5) == x_series(B, None, 5)
    with pytest.raises(ValueError):
        x_series_at(B, -1, 5)


def test_pi_truncated_is_the_weighted_sum():
    B = DiagonalForm(Q2, [1])
    a = Fraction(1, 3)
    got = pi_truncated(B, a, 3, 4)
    want = [Fraction(0)] * 4
    for T in range(5):
        s = x_series_at(B, T, 3)
        for i in range(4):
            want[i] += a ** T * s[i]
    assert list(got) == want
    with pytest.raises(ValueError, match="negative T_max"):
        pi_truncated(B, a, 3, -1)


def test_residually_anisotropic_pair():
    for field in (Q2, Q4):
        u, v = residually_anisotropic_pair(field)
        a = field.one() + field.elt(2) * u
        b = field.one() + field.elt(2) * v
        assert hilbert_symbol(field, a, b) == -1
    with pytest.raises(ValueError):
        residually_anisotropic_pair(R2)
    with pytest.raises(ValueError):
        residually_anisotropic_pair(F3)


def test_conic_measure_lemma_values():
    for field in (Q2, Q4):
        q = field.q
        u, v = residually_anisotropic_pair(field)
        # unit constant term, no linear part: P(0, 0) = d0 is a unit
        for ell in (1, 2, 3):
            got = conic_measure(field, u, v, ell, C=1, bx=0, ay=0, d0=1)
            assert got == Fraction(1, q ** ell) + Fraction(1, q ** (ell + 1))


def test_conic_measure_validation():
    u, v = residually_anisotropic_pair(Q2)
    with pytest.raises(ValueError):
        conic_measure(Q2, u, v, 0)
    with pytest.raises(ValueError):
        conic_measure(R2, R2.elt(1), R2.elt(1), 2)


def test_count_level_naive_budget_forwarded():
    B = DiagonalForm(Q2, [1, 1, 1, 1])
    with pytest.raises(EnumBudgetError):
        count_level_naive(B, Q2.one(), 5, budget=1000)
