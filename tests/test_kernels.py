import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperiods import kernels
from qperiods.closedforms import closed_profile
from qperiods.counting import count_level_histogram, x_series, x_series_many
from qperiods.localfield import make_field
from qperiods.qform import DiagonalForm, anisotropic_representative

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
Q9 = make_field(3, 2, "unramified")
F131 = make_field(131)  # past every p the NTT engine took at its own length

COUNTS = Path(__file__).parent / "data" / "counts.jsonl"


def flat_classes(ring):
    """Every class of the ring as a tuple of ints, in flat-index order."""
    return list(zip(*(c.tolist() for c in
                      np.unravel_index(np.arange(ring.size), ring.moduli))))


def counts_by_target(ring, coeffs, planes=0):
    """solution_count at every target, in flat-index order."""
    return [kernels.solution_count(ring, coeffs, t, planes)
            for t in flat_classes(ring)]


def brute_square_histogram(ring, coeff):
    # flat histogram indexed like ResidueRing.flat_index
    h = np.zeros(ring.size, dtype=object)
    cc = ring.reduce(coeff.coords)
    for x in ring.elements():
        v = ring.mul(cc, ring.mul(x, x))
        h[ring.flat_index(v)] += 1
    return h


def brute_plane_histogram(ring):
    """Histogram of 2xy over the pairs (x, y), by flat index."""
    two = ring.reduce(ring.field.elt(2).coords)
    h = np.zeros(ring.size, dtype=np.int64)
    for x in ring.elements():
        for y in ring.elements():
            h[ring.flat_index(ring.mul(two, ring.mul(x, y)))] += 1
    return h


def test_square_term_histogram_matches_brute_force():
    # the count of c x^2 = t at every t is the histogram of c x^2
    for field in (Q2, Q4, R2, F3):
        ring = field.ring(3)
        for a in (field.elt(1), field.elt(-5), field.uniformizer()):
            got = counts_by_target(ring, [a.coords])
            want = brute_square_histogram(ring, a)
            assert got == [int(x) for x in want]
            assert sum(got) == ring.size


def test_plane_histogram_counts_2xy():
    for field in (Q2, F3):
        ring = field.ring(2)
        got = counts_by_target(ring, [], planes=1)
        assert got == brute_plane_histogram(ring).tolist()


def test_plane_histogram_matches_pairs_on_every_field():
    for field in (Q2, Q4, R2, F3, F5):
        for level in (0, 1, 2, 3):
            ring = field.ring(level)
            if ring.size > 64:
                continue
            want = brute_plane_histogram(ring).tolist()
            assert counts_by_target(ring, [], planes=1) == want, \
                (field, level)


def brute_convolution(hists):
    """Every entry of the convolution of the histograms, shift by shift
    (in int64 when the product of the histogram sums fits)."""
    shape = hists[0].shape
    axes = tuple(range(len(shape)))
    fits = math.prod(int(h.sum()) for h in hists) < 1 << 62
    out = np.zeros(shape, dtype=np.int64 if fits else object)
    out[(0,) * len(shape)] = 1
    for h in hists:
        nxt = np.zeros(shape, dtype=out.dtype)
        for j in np.ndindex(shape):
            if h[j]:
                nxt += np.roll(out, j, axis=axes) * int(h[j])
        out = nxt
    return out


def _random_coefficient(rng, field, top):
    """pi^o u for a random unit u and ord o <= top, or 0."""
    if rng.random() < 0.1:
        return field.zero()
    while True:
        u = field.elt(*[rng.randrange(-60, 60) for _ in range(field.ncoords)])
        if u.is_unit():
            return u * field.uniformizer() ** rng.randint(0, top)


def _convolution_of_summands(ring, coeffs, planes):
    """Brute-force convolution of the summands' histograms, flat."""
    hists = [brute_square_histogram(ring, c) for c in coeffs]
    if planes:
        hists += [brute_plane_histogram(ring)] * planes
    return brute_convolution([h.reshape(ring.moduli) for h in hists]).ravel()


# rings of one and two axes, and a residue field past p = 127
CONVOLUTION_RINGS = ((Q2, 4), (Q2, 9), (F3, 5), (F5, 3), (F7, 2), (Q4, 1),
                     (Q4, 3), (Q9, 2), (R2, 6),
                     (make_field(2, 1, "ramified", c1=2, c0=2), 5), (F131, 1))


def test_convolution_entry_matches_brute_force():
    # each count is the target's entry of the convolution of the
    # summands' histograms, on rings past the enumeration's reach
    rng = random.Random(7)
    for field, level in CONVOLUTION_RINGS:
        ring = field.ring(level)
        for n in (1, 2, 3):
            coeffs = [_random_coefficient(rng, field, level) for _ in range(n)]
            planes = int(ring.size <= 64 and n < 3)
            want = _convolution_of_summands(ring, coeffs, planes)
            targets = list(range(ring.size))
            if len(targets) > 200:  # a sample, always with the corners
                targets = targets[::7] + [targets[-1]]
            classes = flat_classes(ring)
            for t in targets:
                got = kernels.solution_count(
                    ring, [c.coords for c in coeffs], classes[t], planes)
                assert got == want[t], (field, level, coeffs, planes, t)


def test_convolution_entry_large_values_exact():
    # counts far past 2^63 come out exact, through the head's Python-int
    # convolution too: over Q2 the head's Ramanujan combination of 50 unit
    # terms of level 3 is near 2^75, past int64, as its entries are
    rng = random.Random(11)
    for field, level, n, top in ((Q2, 3, 50, 0), (Q4, 2, 17, 1),
                                 (R2, 5, 14, 1)):
        ring = field.ring(level)
        coeffs = [_random_coefficient(rng, field, top) for _ in range(n)]
        want = _convolution_of_summands(ring, coeffs, 0)
        assert max(want) >= 1 << 64
        assert counts_by_target(ring, [c.coords for c in coeffs]) \
            == want.tolist()


def _deepest_level(field, nvars):
    """The deepest level whose count bound, L nvars ceil(log2 q) bits,
    fits COUNT_BITS."""
    return kernels.COUNT_BITS // (nvars * (field.q - 1).bit_length())


def test_convolution_entry_exact_at_its_bound():
    # counts whose bound has exactly COUNT_BITS bits, or just under, are
    # exact: x^2 = 1 has the roots +-1 (and +-1 + 2^(L-1) at p = 2),
    # x^2 = 0 the x of ord >= L/2, and 2yz = 2 the units y with z = 1/y
    # mod 2^(L-1); one level deeper the count is refused
    L = _deepest_level(Q2, 1)
    assert L == kernels.COUNT_BITS
    ring = Q2.ring(L)
    assert kernels.solution_count(ring, [(1,)], (1,)) == 4
    assert kernels.solution_count(ring, [(1,)], (0,)) == 2 ** (L // 2)
    assert kernels.solution_count(ring, [(1,)], (2 ** (L - 1),)) == 0
    ring = Q2.ring(_deepest_level(Q2, 2))
    assert kernels.solution_count(ring, [], (2,), planes=1) == 2 ** ring.level
    assert kernels.solution_count(ring, [], (1,), planes=1) == 0
    L = _deepest_level(F3, 1)
    assert kernels.solution_count(F3.ring(L), [(1,)], (1,)) == 2
    for field, nvars in ((Q2, 1), (Q2, 2), (F3, 1)):
        ring = field.ring(_deepest_level(field, nvars) + 1)
        with pytest.raises(kernels.EnumBudgetError, match="bits"):
            kernels.solution_count(ring, [(1,)] * nvars, (1,))


def test_is_prime_is_exact_below_its_limit():
    # against a sieve, and on strong pseudoprimes to the bases 2..7, to
    # 2, 7 and 61, and to the bases 2..37 (the least one, Sorenson and
    # Webster's psi_12)
    N = 10 ** 5
    sieve = np.ones(N, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(N) + 1):
        sieve[d * d::d] = False
    assert [kernels._is_prime(n) for n in range(N)] == sieve.tolist()
    # 4759123141 is the least strong pseudoprime to the bases 2, 7 and 61
    # (Jaeschke), where the test switches to all 13 bases
    for n, want in ((3215031751, False), (318665857834031151167461, False),
                    (kernels._SMALL_TEST_LIMIT, False), (4759123129, True),
                    (2 ** 61 - 1, True), (10 ** 24 + 7, True),
                    (kernels._PRIME_TEST_LIMIT - 1, False)):
        assert kernels._is_prime(n) == want, n
        if want:
            assert make_field(n).p == n
    # psi_13, a strong pseudoprime to all 13 bases, is where it stops
    with pytest.raises(ValueError, match="not decided"):
        make_field(kernels._PRIME_TEST_LIMIT)
    with pytest.raises(ValueError, match="not prime"):
        make_field(318665857834031151167461)


def test_solution_count_matches_naive():
    cases = [
        (Q2, [1], 0), (Q2, [1, -5], 0), (Q2, [3, 2], 0), (Q2, [1, 1, 1], 0),
        (Q2, [1], 1), (Q2, [1, -5], 1),
        (Q4, [1, -5], 0), (R2, [1, 3], 0), (F3, [1, 1], 1),
    ]
    for field, coeffs, planes in cases:
        coeff_coords = [field.elt(c).coords for c in coeffs]
        for level in (1, 2, 3):
            ring = field.ring(level)
            for target in [field.zero(), field.one(), field.elt(2)]:
                t = ring.reduce(target.coords)
                fast = kernels.solution_count(ring, coeff_coords, t,
                                              planes=planes)
                slow = kernels.naive_count(ring, coeff_coords, t,
                                           planes=planes)
                assert fast == slow, (field.q, coeffs, planes, level)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solution_count_matches_naive_on_every_field(data):
    field = data.draw(st.sampled_from((Q2, Q4, R2, F3, F5, F7, Q9)))
    planes = data.draw(st.integers(0, 1))
    ncoeffs = data.draw(st.integers(1 - planes, 3))
    nvars = ncoeffs + 2 * planes
    # keep the oracle's size^nvars enumeration near 2^16 points
    top = max(1, min(3, int(16 // (nvars * math.log2(field.q)))))
    ring = field.ring(data.draw(st.integers(1, top)))
    elt = st.tuples(*[st.integers(-40, 40)] * field.ncoords)
    coeffs = data.draw(st.lists(elt, min_size=ncoeffs, max_size=ncoeffs))
    target = data.draw(elt)
    got = kernels.solution_count(ring, coeffs, target, planes=planes)
    assert got == kernels.naive_count(ring, coeffs, target, planes=planes)


@pytest.mark.parametrize("field, ell", [(Q2, 15), (Q4, 7)])
def test_quaternary_cliff_levels_match_closed_form(field, ell):
    B = anisotropic_representative(field, 4)
    want = closed_profile(B).series_at(0, field.q, ell)[ell]
    assert count_level_histogram(B, field.one(), ell) == want


def test_plane_at_level_11_counts_exactly():
    B = DiagonalForm(Q2, [1], planes=1)
    assert count_level_histogram(B, Q2.one(), 11) == Fraction(1, 2048)


RAMIFIED = tuple(make_field(2, 1, "ramified", c1=c1, c0=c0)
                 for c1, c0 in ((0, -2), (2, 2), (0, 6)))


def brute_primitive_zero(ring, coeffs):
    """Is sum c x^2 = 0 for some tuple with a unit entry?  Every tuple at
    once, by broadcasting; the one class of the zero ring lies in pi*o."""
    xs = ring.coords()
    sq = ring.mul(xs, xs)
    unit = ring.is_unit(xs) & (ring.level > 0)
    n = len(coeffs)
    acc, primitive = (0,) * len(ring.moduli), np.zeros((1,) * n, dtype=bool)
    for i, c in enumerate(coeffs):
        shape = (1,) * i + (ring.size,) + (1,) * (n - i - 1)
        acc = ring.add(acc, tuple(v.reshape(shape) for v in
                                  ring.mul(ring.reduce(c.coords), sq)))
        primitive = primitive | unit.reshape(shape)
    zero = np.logical_and.reduce([v == 0 for v in acc])
    return bool(np.any(zero & primitive))


def test_primitive_zero_exists_matches_enumeration():
    # the non-units come from the ring two levels down (x = pi y); the
    # coefficients 2 and pi reach its pi^2 scaling, and levels 0 and 1,
    # where only x = 0 is left
    for field in (Q2, Q4, RAMIFIED[0], RAMIFIED[1], F3, F5, Q9):
        one, two, pi = field.elt(1), field.elt(2), field.uniformizer()
        for coeffs in ([one, field.elt(-1)], [one, one, one],
                       [one, field.elt(-5)], [one, two], [one, pi],
                       [two, pi], [pi, one, pi]):
            # keep the enumeration's size^n tuples near 2^16
            top = int(16 // (len(coeffs) * math.log2(field.q)))
            for level in range(top + 1):
                ring = field.ring(level)
                got = kernels.primitive_zero_exists(
                    ring, [c.coords for c in coeffs])
                assert got == brute_primitive_zero(ring, coeffs), (
                    field.to_json(), [c.coords for c in coeffs], level)


def test_naive_count_budget():
    ring = Q2.ring(6)
    with pytest.raises(kernels.EnumBudgetError):
        kernels.naive_count(ring, [(1,), (1,), (1,)], (0,), budget=100)


ALL_FIELDS = (Q2, Q4, F3, F5, F7, Q9) + RAMIFIED
ALL_IDS = ("q2", "q4", "q3", "q5", "q7", "q9", "ram(0,-2)", "ram(2,2)",
           "ram(0,6)")


def _class_inputs(field, level):
    """Coefficients over o/pi^level: two units and each times a unit
    square, a uniformizer multiple and its unit-square multiple, 0, and
    a coefficient of ord >= level, as reduced coordinates."""
    ring = field.ring(level)
    pi = field.uniformizer()
    u = next(field.elt(k) for k in (3, 2) if field.elt(k).is_unit())
    v = field.elt(5 if field.p != 5 else 7)
    base = [field.elt(1), field.elt(-1) if field.p != 2 else field.elt(-3),
            pi]
    coeffs = base + [c * u * u for c in base] + [base[0] * v * v]
    coeffs += [field.zero(), pi ** level * field.elt(-1)]
    return ring, [ring.reduce(c.coords) for c in coeffs]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
def test_square_classes_group_by_histogram_on_every_field(field):
    # c x^2 and c' x^2 have one histogram of counts exactly when c' = c u^2
    # for a unit u of the ring: c and c u^2 together, 0 and ord >= level
    # together, nothing else merged
    for level in range(4):
        ring, coeffs = _class_inputs(field, level)
        squares = {ring.mul(x, x) for x in ring.elements() if ring.is_unit(x)}
        hists = [counts_by_target(ring, [c]) for c in coeffs]
        for c, h in zip(coeffs, hists):
            orbit = {ring.mul(c, s) for s in squares}
            for c2, h2 in zip(coeffs, hists):
                assert (h == h2) == (c2 in orbit), (field, level, c, c2)
        if level:
            assert len(set(map(tuple, hists))) < len(coeffs)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
def test_grouped_counts_match_naive_on_every_field(field):
    # repeated classes, zero and ord >= level coefficients, with and
    # without a plane, against the enumeration
    for level in (1, 2):
        ring, coeffs = _class_inputs(field, level)
        c, cu, pi, zero, deep = (coeffs[0], coeffs[3], coeffs[2], coeffs[7],
                                 coeffs[8])
        for cc, planes in (([c, cu], 0), ([c, cu, c], 0), ([zero, deep], 0),
                           ([pi, coeffs[5], zero], 0), ([c, cu], 1),
                           ([deep], 1)):
            if ring.size ** (len(cc) + 2 * planes) > 1 << 16:
                continue
            for t in ((0,) * len(ring.moduli), coeffs[0], coeffs[2]):
                got = kernels.solution_count(ring, cc, t, planes=planes)
                want = kernels.naive_count(ring, cc, t, planes=planes)
                assert got == want, (field, level, cc, planes, t)


@pytest.mark.parametrize("field, coeffs, planes, top", [
    (Q2, [1, 3, 5], 0, 4), (Q2, [1], 1, 4), (Q4, [1, -2], 0, 3),
    (Q4, [3], 1, 2), (R2, [1, 3], 0, 5), (R2, [1], 1, 4),
    (F3, [1, 2], 0, 3), (F3, [1], 1, 3)])
def test_value_distribution_matches_solution_count_and_naive(field, coeffs,
                                                             planes, top):
    # the whole value distribution over o/pi^top, one count per target:
    # its coset sums are the counts at every coarser level, and at the top
    # it is the enumeration's
    ring = field.ring(top)
    cc = [field.elt(c).coords for c in coeffs]
    n = len(cc) + 2 * planes
    dist = counts_by_target(ring, cc, planes)
    for level in range(top + 1):
        low = field.ring(level)
        cover = (ring.size // low.size) ** n
        sums = dict.fromkeys(low.elements(), 0)
        for t, v in zip(flat_classes(ring), dist):
            sums[low.reduce(t)] += v
        for t, total in sums.items():
            got, rest = divmod(total, cover)
            assert rest == 0
            want = kernels.solution_count(low, cc, t, planes=planes)
            assert got == want, (field.q, coeffs, planes, level, t)
            if level == top:
                assert want == kernels.naive_count(ring, cc, t, planes=planes)


def _field(spec):
    return make_field(spec["p"], spec["f"], spec["variant"], spec["c1"],
                      spec["c0"])


def test_counts_match_the_golden_file():
    # tests/data/counts.jsonl holds 1,064 counts recorded from the
    # multi-prime NTT engine this formula replaced, most past
    # naive_count's budget: Q2 to level 20, Q3 to 12, Q4 and Q9 to 6, three
    # ramified fields to 14, Q131 at level 2 and Q17161 at level 1, with
    # targets of every valuation, coefficients of every valuation up to
    # past the level, and 0 to 2 planes
    lines = COUNTS.read_text().splitlines()
    assert len(lines) == 1064
    for line in lines:
        case = json.loads(line)
        ring = _field(case["field"]).ring(case["level"])
        got = kernels.solution_count(ring, [tuple(c) for c in case["coeffs"]],
                                     tuple(case["target"]), case["planes"])
        assert got == case["count"], case


# every field family the formula serves: Q_p for p = 2 and odd p up to
# past 127, Q_(p^2) for p = 2, 3, 5, 7 and 131, and five ramified fields
PROBE_FIELDS = [make_field(p) for p in (2, 3, 5, 7, 11, 131, 257)] + [
    make_field(p, 2, "unramified") for p in (2, 3, 5, 7, 131)] + [
    make_field(2, 1, "ramified", c1=c1, c0=c0)
    for c1, c0 in ((0, -2), (2, 2), (0, 6), (2, -2), (4, 6))]


def test_gauss_count_matches_naive_on_the_probe_fields():
    # n = 0..6 squares and 0..2 planes, coefficients and targets of every
    # valuation from 0 to past the level, against the enumeration
    rng = random.Random(2024)
    for case in range(600):
        field = PROBE_FIELDS[case % len(PROBE_FIELDS)]
        most = int(17 / math.log2(field.q))  # variables over o/pi
        planes = min(rng.choice((0, 0, 1, 2)), most // 2)
        n = rng.randint(0, min(6, most) - 2 * planes)
        nvars = max(n + 2 * planes, 1)
        top = 1  # the deepest level whose enumeration stays near 2^17
        while field.q ** ((top + 1) * nvars) <= 1 << 17:
            top += 1
        ring = field.ring(rng.randint(1, top))
        coeffs = [ring.reduce(_random_coefficient(rng, field, ring.level + 1)
                              .coords) for _ in range(n)]
        target = ring.reduce(_random_coefficient(rng, field, ring.level + 1)
                             .coords)
        got = kernels.solution_count(ring, coeffs, target, planes)
        assert got == kernels.naive_count(ring, coeffs, target, planes), (
            field, ring.level, coeffs, target, planes)


@pytest.mark.parametrize("field, top", [
    (Q2, 8), (F3, 6), (F5, 5), (Q4, 8), (Q9, 5)] + [
    (f, 10) for f in PROBE_FIELDS[-5:]], ids=[
    "q2", "q3", "q5", "q4", "q9", "ram(0,-2)", "ram(2,2)", "ram(0,6)",
    "ram(2,-2)", "ram(4,6)"])
def test_gauss_sum_recursion_holds_from_level_2e_plus_2(field, top):
    # G_j(b) = q G_(j-2)(b) for every unit b exactly when the units' part
    # sum over units x of psi(b x^2) vanishes at every unit frequency b,
    # that is, when the histogram of the unit squares of o/pi^j is
    # constant on the cosets of pi^(j-1) o.  It holds at every j from
    # 2e + 2 to top, which the count uses, and fails at j = 2e + 1, where
    # the head begins
    for j in range(2 * field.e + 1, top + 1):
        ring, low = field.ring(j), field.ring(j - 1)
        xs = ring.coords()
        unit = ring.is_unit(xs)
        sq = ring.mul(tuple(c[unit] for c in xs), tuple(c[unit] for c in xs))
        hist = np.bincount(ring.flat_index(sq), minlength=ring.size)
        # classes with one residue mod pi^(j-1) share one coset
        coset = low.flat_index(low.reduce(np.unravel_index(
            np.arange(ring.size), ring.moduli)))
        lo = np.full(low.size, hist.max() + 1)
        hi = np.full(low.size, -1)
        np.minimum.at(lo, coset, hist)
        np.maximum.at(hi, coset, hist)
        assert np.array_equal(lo, hi) == (j >= 2 * field.e + 2), (field, j)


def _refuse_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work done before the bound was checked")
    monkeypatch.setattr(kernels, "_split", fail)


def test_convolution_entry_refuses_bound_past_prime_table():
    # a count's bound, L nvars ceil(log2 q) bits, is refused past
    # COUNT_BITS: 19 squares over o/2^1725 take 32,775 bits, one level less
    # 32,756.  19 squares over o/2^20, whose bound of 2^380 passed the CRT
    # prime table the formula replaced, answer, and their count at a unit
    # target lifts by 2^18 a level, as it does from level 3 on
    with pytest.raises(kernels.EnumBudgetError, match="bits"):
        kernels.solution_count(Q2.ring(1725), [(1,)] * 19, (1,))
    assert kernels.solution_count(Q2.ring(1724), [(1,)] * 19, (1,)) > 0
    n19 = kernels.solution_count(Q2.ring(19), [(1,)] * 19, (1,))
    assert kernels.solution_count(Q2.ring(20), [(1,)] * 19, (1,)) \
        == 2 ** 18 * n19 > 1 << 360


def test_solution_count_refuses_long_axes_before_any_histogram(monkeypatch):
    # past COUNT_BITS the count is refused before a coefficient is split or
    # a head is built, on rings of one and two axes, with planes, and past
    # p = 127
    _refuse_work(monkeypatch)
    for ring, n, planes in ((Q2.ring(40000), 1, 0), (F3.ring(4100), 4, 0),
                            (Q4.ring(8200), 0, 1), (F131.ring(4100), 1, 0)):
        with pytest.raises(kernels.EnumBudgetError, match="bits"):
            kernels.solution_count(ring, [(1,)] * n, (1,), planes)


def test_form_histograms_refuse_long_axes_before_any_histogram(monkeypatch):
    # the same refusal for a form's level measure and for a series counted
    # level by level
    _refuse_work(monkeypatch)
    B = DiagonalForm(Q2, [1, 1])
    with pytest.raises(kernels.EnumBudgetError, match="bits"):
        count_level_histogram(B, Q2.one(), 20000)
    # a series' counts pass the bound together at level 180, each of them
    # far below it
    with pytest.raises(kernels.EnumBudgetError, match="bits"):
        x_series(B, 1, 180, direct=True)
    monkeypatch.undo()
    assert len(x_series(B, 1, 179, direct=True)) == 180
    # the bound holds per target: nine series in sixteen variables over Q2
    # to level 21, 4,048 bits each and past the bound together, answer as
    # each does alone
    B16 = DiagonalForm(Q2, [1] * 16)
    rhos = [Q2.elt(2 * t + 1) for t in range(9)]
    assert [s.coeffs for s in x_series_many(B16, rhos, 21, direct=True)] == [
        x_series(B16, rho, 21, direct=True).coeffs for rho in rhos]


def test_odd_head_answers_at_any_residue_field_size():
    # the F_q count of the head needs no table over o/pi, so p = 10^9 + 7
    # and q = p^2 answer: x^2 + y^2 = 1 has q - eta(-1) points over F_q,
    # where eta(-1) = -1 at p = 3 mod 4 and +1 in F_(p^2); a smooth point
    # lifts to q^(n-1) points a level; x^2 + y^2 + z^2 = 0 has q^2 over F_q
    p = 1000000007
    for field, eta in ((make_field(p), -1), (make_field(p, 2, "unramified"), 1),
                       (make_field(131, 2, "unramified"), 1)):
        q, one = field.q, field.one().coords
        for level in (1, 2, 3):
            ring = field.ring(level)
            assert kernels.solution_count(ring, [one, one], one) \
                == (q - eta) * q ** (level - 1)
        zero = field.zero().coords
        assert kernels.solution_count(field.ring(1), [one] * 3, zero) == q * q


def test_one_plan_per_ring_shared_by_every_prime():
    # four coefficients in two square classes over o/2^12: a second count
    # on the ring, at another target, builds no head table
    ring = Q2.ring(12)
    coeffs = [(1,), (9,), (-3 % 4096,), (-3 * 25 % 4096,)]
    kernels._head_counts.cache_clear()
    got = kernels.solution_count(ring, coeffs, (1,))
    built = kernels._head_counts.cache_info().misses
    assert built > 0
    assert kernels.solution_count(ring, coeffs, (5,)) >= 0
    assert kernels._head_counts.cache_info().misses == built
    assert got == closed_profile(DiagonalForm(Q2, [1, 1, -3, -3])) \
        .series_at(0, 2, 11)[11] * ring.size ** 4


def test_square_transforms_kept_for_the_last_two_rings():
    # primitive_zero_exists on Q4 counts o/pi^6 and o/pi^4: a second call
    # builds no head table, and neither does a count with the same
    # coefficient classes in another order, nor, since the tables are kept
    # per field, a call after a count over a third ring
    ring = Q4.ring(6)
    coeffs = [(1, 0), (1, 1), (2, 1), (0, 2)]
    kernels._head_counts.cache_clear()
    first = kernels.primitive_zero_exists(ring, coeffs)
    built = kernels._head_counts.cache_info().misses
    assert built > 0
    assert kernels.primitive_zero_exists(ring, coeffs) == first
    kernels.solution_count(ring, coeffs[::-1], (4, 0))
    assert kernels._head_counts.cache_info().misses == built
    kernels.solution_count(Q4.ring(5), coeffs, (0, 0))
    built = kernels._head_counts.cache_info().misses
    assert kernels.primitive_zero_exists(ring, coeffs) == first
    assert kernels._head_counts.cache_info().misses == built
