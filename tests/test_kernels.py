import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperiods import kernels
from qperiods.closedforms import closed_profile
from qperiods.counting import count_level_histogram, x_series
from qperiods.localfield import make_field
from qperiods.qform import DiagonalForm, anisotropic_representative

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
Q9 = make_field(3, 2, "unramified")
F131 = make_field(131)  # no leaf of 131 fits: the padded fallback


def brute_square_histogram(ring, coeff):
    # flat histogram indexed like ResidueRing.flat_index; the library reshapes
    # two-coordinate rings, so compare through ravel()
    h = np.zeros(ring.size, dtype=object)
    cc = ring.reduce(coeff.coords)
    for x in ring.elements():
        v = ring.mul(cc, ring.mul(x, x))
        h[ring.flat_index(v)] += 1
    return h


def test_square_term_histogram_matches_brute_force():
    for field in (Q2, Q4, R2, F3):
        ring = field.ring(3)
        for a in (field.elt(1), field.elt(-5), field.uniformizer()):
            got = np.asarray(kernels.square_histograms(ring, [a.coords])[0]).ravel()
            want = brute_square_histogram(ring, a)
            assert [int(x) for x in got] == [int(x) for x in want]
            assert int(np.sum(got)) == ring.size


def test_plane_histogram_counts_2xy():
    for field in (Q2, F3):
        ring = field.ring(2)
        got = kernels.plane_histogram(ring)
        h = np.zeros(ring.size, dtype=object)
        two = ring.reduce(field.elt(2).coords)
        for x in ring.elements():
            for y in ring.elements():
                v = ring.mul(two, ring.mul(x, y))
                h[ring.flat_index(v)] += 1
        assert [int(a) for a in got] == [int(a) for a in h]


def test_plane_histogram_matches_pairs_on_every_field():
    for field in (Q2, Q4, R2, F3, F5):
        for level in (0, 1, 2, 3):
            ring = field.ring(level)
            if ring.size > 64:
                continue
            two = ring.reduce(field.elt(2).coords)
            want = np.zeros(ring.size, dtype=np.int64)
            for x in ring.elements():
                for y in ring.elements():
                    v = ring.mul(two, ring.mul(x, y))
                    want[ring.flat_index(v)] += 1
            got = kernels.plane_histogram(ring)
            assert got.shape == ring.moduli
            assert list(got.ravel()) == list(want), (field, level)


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
            nxt += np.roll(out, j, axis=axes) * int(h[j])
        out = nxt
    return out


def _engine(p, hists):
    """The stacked histograms, their shape, the transform lengths _plan
    gives a ring of residue prime p with this shape, and the first primes
    of p's table past the product of the histograms' sums."""
    stack = np.array(hists, dtype=np.int64)
    shape = stack.shape[1:]
    lengths = kernels._plan(p, shape, len(hists), 0)[0]
    table = kernels._ntt_primes(p if lengths == shape else 2)
    bound = math.prod(int(h.sum()) for h in hists)
    k = next(k for k in range(1, len(table) + 1)
             if math.prod(table[:k]) > bound)
    return stack, shape, lengths, table[:k]


def engine_entry(p, hists, target):
    """Entry `target` of the convolution of the histograms through the
    engine's steps: _forward, _entry_mod per prime and CRT."""
    stack, shape, lengths, primes = _engine(p, hists)
    return kernels._crt([kernels._entry_mod(
        p, kernels._forward(stack, lengths, p), [1] * len(hists), lengths,
        shape, target) for p in primes], primes)


def engine_distribution(p, hists):
    """Every entry of the convolution through _forward, _distribution_mod
    per prime and CRT, as an array of exact ints."""
    stack, shape, lengths, primes = _engine(p, hists)
    res = [kernels._distribution_mod(p, kernels._forward(stack, lengths, p),
                                     [1] * len(hists), lengths, shape)
           for p in primes]
    out = np.empty(shape, dtype=object)
    for t in np.ndindex(shape):
        out[t] = kernels._crt([r[t] for r in res], primes)
    return out


# each shape with the residue prime p of its ring: axes of p < 128 are
# cyclic at their own length; 131, with no leaf up to 128, is padded and
# folded back
ENGINE_SHAPES = ((2, (1,)), (2, (4,)), (2, (8,)), (2, (16,)), (3, (9,)),
                 (3, (27,)), (5, (25,)), (5, (125,)), (7, (49,)),
                 (2, (4, 8)), (3, (9, 3)), (2, (2, 1)), (2, (512,)),
                 (3, (243,)), (2, (2, 256)), (3, (81, 81)), (131, (131,)))


def test_convolution_entry_matches_brute_force():
    rng = np.random.default_rng(7)
    for p, shape in ENGINE_SHAPES:
        lengths = kernels._plan(p, shape, 3, 0)[0]
        assert (lengths == shape) == (p < kernels._LEAF), shape
        for n in (1, 2, 3):
            hists = [rng.integers(0, 50, shape) for _ in range(n)]
            want = brute_convolution(hists)
            targets = list(np.ndindex(shape))
            if len(targets) > 600:  # a sample, always with the corners
                targets = targets[::97] + [targets[-1]]
            for t in targets:
                assert engine_entry(p, hists, t) == want[t], \
                    (shape, n, t)


def test_convolution_entry_large_values_exact():
    # counts far past 2^63 need several primes and must still come out exact
    rng = np.random.default_rng(11)
    for p, shape in ((2, (8,)), (3, (9,))):
        hists = [rng.integers(10 ** 12, 2 * 10 ** 12, shape) for _ in range(3)]
        want = brute_convolution(hists)
        assert max(want.ravel()) > 1 << 100
        for t in np.ndindex(shape):
            assert engine_entry(p, hists, t) == want[t]


def test_convolution_entry_exact_at_its_bound():
    # a point mass makes the count equal the product of the histogram sums,
    # so one prime too few would show as a wrong residue
    for e in range(10, 62, 3):
        w = (1 << e) + 1
        hists = [np.array([w, 0, 0, 0]), np.array([0, 0, 3, 0])]
        assert engine_entry(2, hists, (2,)) == 3 * w
        hists = [np.array([0, w, 0]), np.array([0, w, 0]), np.array([w, 0, 0])]
        assert engine_entry(3, hists, (2,)) == w ** 3
        assert engine_entry(3, hists, (0,)) == 0


def test_convolution_entry_refuses_bound_past_prime_table():
    # 19 squares over o/2^20 have a bound of 2^380, past the table's
    # product; 18 of them (2^360) are not
    with pytest.raises(kernels.PrimeBoundError, match="count bound"):
        kernels.solution_count(Q2.ring(20), [(1,)] * 19, (0,))
    assert len(kernels._plan(2, (1 << 20,), 18, 0)[1]) == 12
    # a whole distribution over o/3^12 with a bound of 3^240, past 2^380
    with pytest.raises(kernels.PrimeBoundError, match="count bound"):
        kernels.ValueDistribution(F3.ring(12), [(1,)] * 12, 4)
    assert issubclass(kernels.PrimeBoundError, kernels.EnumBudgetError)


def test_ntt_is_exact_at_extreme_residues():
    # residues near p drive the float partial sums of the leaf products to
    # their largest values; compare with the defining sum, on one leaf, on
    # two and three levels of the four-step, and along a middle axis
    for ell, n in ((2, 8), (2, 128), (2, 256), (2, 1 << 15), (3, 81),
                   (3, 729), (3, 3 ** 8), (5, 125), (5, 5 ** 5), (7, 49),
                   (7, 343)):
        assert kernels._ell_k(n) == (ell, round(math.log(n, ell)))
        table = kernels._ntt_primes(ell)
        for p in (table[0], table[-1]):
            freq = kernels._slots(n)[1]
            w = pow(kernels._generator(p, ell), (p - 1) // n, p)
            x = np.full((2, n, 3), p - 1, dtype=np.int64)
            x[1, 1::2] -= 1
            x[:, :, 1] = np.arange(n) * 7919 % p
            got = x.copy()
            kernels._ntt(got, p)
            slots = range(n) if n <= 256 else (0, 1, 2, n // 3, n - 1)
            for s in slots:
                wf = pow(w, int(freq[s]), p)
                powers = np.array([pow(wf, i, p) for i in range(n)])
                want = (x * powers[None, :, None] % p).sum(axis=1) % p
                assert np.array_equal(got[:, s], want), (p, n, s)
                # the entry weights of _fold are the inverse powers
                t = 5 * s % n
                assert kernels._fold(p, n, t)[s] == pow(wf, -t, p), (p, n, s)


def _ell_tables():
    """Every prime ell < 128 with its prime table and the lengths ell^k up
    to 2^23 that the natural-length transform may use."""
    for ell in filter(kernels._is_prime, range(2, kernels._LEAF)):
        lengths = [ell]
        while lengths[-1] * ell <= 1 << 23:
            lengths.append(lengths[-1] * ell)
        yield ell, lengths, kernels._ntt_primes(ell)


def test_leaf_products_stay_below_float_precision():
    # a leaf-product partial sum is at most p - 1 times a column sum of the
    # absolute limbs: check every leaf length with every prime of every
    # table that may use it
    limbs = kernels._limbs.__wrapped__  # keep the engine's cache small
    for ell, _, table in _ell_tables():
        leaves = [ell ** j for j in range(1, 8) if ell ** j <= kernels._LEAF]
        for p in table:
            for L in leaves:
                col = np.abs(limbs(p, L)).sum(axis=0)
                assert (p - 1) * int(col.max()) < 1 << 53, (p, L)
    # so every transform takes the longest leaves its length allows
    for ell, n in ((2, 1 << 7), (3, 3 ** 4), (5, 5 ** 3), (7, 7 ** 2),
                   (11, 11 ** 2), (127, 127)):
        p = kernels._ntt_primes(ell)[0]
        assert kernels._slots(n)[0] == n
    # the bound is checked, not assumed
    with pytest.raises(ArithmeticError, match="2\\^53"):
        limbs((1 << 40) * 3 + 1, 4)


# the CRT primes of an earlier fixed table for powers of two
FIXED_TABLE = (2130706433, 2113929217, 2088763393, 2013265921, 1811939329,
               1711276033, 1484783617, 1300234241, 1224736769, 1107296257,
               998244353, 469762049)


def test_prime_table_is_ntt_friendly():
    # each table: distinct primes P < 2^31 with P = 1 mod every length it
    # serves, reaching the product of the fixed table in at most 13 primes
    small = np.array([d for d in range(2, 46341) if kernels._is_prime(d)])
    assert len(small) == 4792  # the primes below sqrt(2^31)
    for ell, lengths, table in _ell_tables():
        assert len(set(table)) == len(table) <= 13, ell
        assert math.prod(table) >= math.prod(FIXED_TABLE), ell
        assert list(table) == sorted(table, reverse=True), ell
        for p in table:
            assert p < 1 << 31 and all(p % n == 1 for n in lengths), (ell, p)
            assert np.all(p % small[small < p]), (ell, p)
    # for ell = 2 the first eleven are the fixed table's, so every count
    # that needs at most eleven primes does the same arithmetic
    assert kernels._ntt_primes(2)[:11] == FIXED_TABLE[:11]


def test_one_prime_table_per_field():
    # every level of a field plans from the table of its residue prime
    kernels._plan.cache_clear()
    kernels._ntt_primes.cache_clear()
    B = DiagonalForm(F3, [1, 1, 1])
    for ell in range(1, 9):
        count_level_histogram(B, F3.one(), ell)
    assert kernels._ntt_primes.cache_info().currsize == 1
    # and the padded axes of p > 127 from the table of 2
    count_level_histogram(DiagonalForm(F131, [1]), F131.one(), 1)
    assert kernels._ntt_primes.cache_info().currsize == 2


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


def _coefficients(field):
    """Units, p, the uniformizer and 0: every kind of square term."""
    pairs = ((3, 1), (2, 5)) if field.ncoords == 2 else ()
    units = [u for u in (field.elt(1), field.elt(-5), field.elt(7),
                         *(field.elt(*c) for c in pairs)) if u.is_unit()]
    return [c.coords for c in units + [field.elt(field.p),
                                       field.uniformizer(), field.zero()]]


@pytest.mark.parametrize("field", (Q2, F3, F5, F7, Q4, Q9) + RAMIFIED, ids=(
    "q2", "q3", "q5", "q7", "q4", "q9", "ram(0,-2)", "ram(2,2)", "ram(0,6)"))
def test_square_terms_read_at_the_dual_of_multiplication(field):
    # the transform of c x^2's histogram is the squares' transform read at
    # the dual c*(f), slot for slot, on one axis and on two
    for level in range(5):
        ring = field.ring(level)
        table = kernels._ntt_primes(field.p)
        cs = _coefficients(field)
        for p in (table[0], table[-1]):
            ts = kernels._square_transform(ring, p)
            hists = kernels.square_histograms(ring, cs)
            want = kernels._forward(hists, ring.moduli, p)
            for c, w in zip(cs, want):
                idx = kernels._dual_index(ring, c)
                got = np.broadcast_to(ts[idx], ring.moduli)
                assert np.array_equal(got, w), (field, level, c)


def test_square_transform_on_one_axis_is_the_gauss_sums():
    # the closed form equals the NTT of the squares' histogram exactly, for
    # every prime ell below the leaf bound and every level up to 2^16
    for ell in filter(kernels._is_prime, range(2, kernels._LEAF)):
        field, level = make_field(ell), 0
        while ell ** level <= 1 << 16:
            ring = field.ring(level)
            (m,) = ring.moduli
            table = kernels._ntt_primes(ell)
            for p in (table[0], table[-1]):
                a = kernels._forward(kernels._square_histogram(ring)[None],
                                     ring.moduli, p)[0]
                want = np.empty(m, dtype=np.int64)
                want[kernels._slots(m)[1]] = a
                got = kernels._square_transform(ring, p)
                assert np.array_equal(got, want), (ell, level, p)
            level += 1


def test_one_axis_counts_build_no_transform_of_the_squares(monkeypatch):
    # T(S) on Z/ell^L comes from the Gauss sums: a count or a distribution
    # without planes runs no forward transform; two axes, a plane and a
    # padded axis still do
    kernels._square_transforms.cache_clear()
    cases = [(F3.ring(4), [(1,), (2,), (3,)], (5,)),
             (Q2.ring(5), [(1,), (3,), (5,), (2,)], (6,)),
             (F7.ring(2), [(1,), (3,)], (0,))]
    want = [kernels.naive_count(*case) for case in cases]

    def fail(*args, **kwargs):
        raise AssertionError("a forward transform was built")
    monkeypatch.setattr(kernels, "_forward", fail)
    for (ring, coeffs, target), n in zip(cases, want):
        assert kernels.solution_count(ring, coeffs, target) == n
        dist = kernels.ValueDistribution(ring, coeffs)
        assert dist.count(ring.moduli, target) == n
    for ring, coeffs, target, planes in ((Q4.ring(2), [(1, 0)], (1, 0), 0),
                                         (F3.ring(3), [(1,)], (1,), 1),
                                         (F131.ring(1), [(1,)], (1,), 0)):
        with pytest.raises(AssertionError, match="forward transform"):
            kernels.solution_count(ring, coeffs, target, planes)


def test_transposed_dual_fails_on_q4():
    # multiplication by g (g^2 = -g - 1) on Q4 has the matrix
    # [[0, -1], [1, -1]], which is not symmetric: reading T(S) at the
    # transpose of the dual gives another transform
    ring = Q4.ring(2)
    p = kernels._plan(Q4.p, ring.moduli, 1, 0)[1][0]
    m = ring.moduli[0]
    f0, f1 = (kernels._slots(m)[1] for _ in range(2))
    f0 = f0[:, None]
    c = (0, 1)
    cols = [ring.mul(c, e) for e in ((1, 0), (0, 1))]  # c e_j
    ts = kernels._square_transform(ring, p)
    want = kernels._forward(kernels.square_histograms(ring, [c]),
                            ring.moduli, p)[0]
    dual = [(f0 * cols[j][0] + f1 * cols[j][1]) % m for j in (0, 1)]
    transposed = [(f0 * cols[0][j] + f1 * cols[1][j]) % m for j in (0, 1)]
    assert np.array_equal(ts[dual[0] * m + dual[1]], want)
    assert not np.array_equal(ts[transposed[0] * m + transposed[1]], want)


def test_square_transforms_kept_for_the_last_two_rings(monkeypatch):
    # primitive_zero_exists on Q4 counts o/pi^6 and o/pi^4, each with
    # several primes: a second call transforms nothing
    ring = Q4.ring(6)
    coeffs = [(1, 0), (1, 1), (2, 1)]
    first = kernels.primitive_zero_exists(ring, coeffs)
    assert len(kernels._plan(Q4.p, ring.moduli, 3, 0)[1]) >= 2

    def fail(*args, **kwargs):
        raise AssertionError("a transform of the squares was rebuilt")
    monkeypatch.setattr(kernels, "_forward", fail)
    assert kernels.primitive_zero_exists(ring, coeffs) == first
    monkeypatch.undo()
    # a third ring evicts the oldest, o/pi^6, and keeps o/pi^4
    kernels.solution_count(Q4.ring(5), coeffs, (0, 0))
    monkeypatch.setattr(kernels, "_forward", fail)
    kernels.solution_count(Q4.ring(4), coeffs, (0, 0))
    with pytest.raises(AssertionError, match="rebuilt"):
        kernels.solution_count(ring, coeffs, (0, 0))


def test_count_at_p_131_takes_the_padded_fallback():
    # 131 has no leaf up to 128: its axes are padded to a power of two
    for level, coeffs in ((1, [1, 2]), (1, [5]), (2, [1]), (2, [7])):
        ring = F131.ring(level)
        lengths = kernels._plan(F131.p, ring.moduli, len(coeffs), 0)[0]
        assert lengths[0] & (lengths[0] - 1) == 0 and lengths != ring.moduli
        cc = [(c,) for c in coeffs]
        for t in (0, 1, 2, 130, 131 * 5 + 3):
            want = kernels.naive_count(ring, cc, (t,))
            assert kernels.solution_count(ring, cc, (t,)) == want
    # a plane alone, and with a square: no square histogram, or one
    ring = F131.ring(1)
    for cc in ([], [(3,)]):
        for t in (0, 1, 5):
            want = kernels.naive_count(ring, cc, (t,), planes=1)
            assert kernels.solution_count(ring, cc, (t,), planes=1) == want
        if level == 1:
            dist = kernels.ValueDistribution(ring, cc)
            for t in range(131):
                want = kernels.naive_count(ring, cc, (t,))
                assert dist.count(ring.moduli, (t,)) == want


def test_naive_count_budget():
    ring = Q2.ring(6)
    with pytest.raises(kernels.EnumBudgetError):
        kernels.naive_count(ring, [(1,), (1,), (1,)], (0,), budget=100)


def _refuse_histograms(monkeypatch):
    # the plan refuses before any square, histogram or transform of the
    # squares is built
    def fail(*args, **kwargs):
        raise AssertionError("histogram built before the axis check")
    for name in ("square_histograms", "plane_histogram", "_squares"):
        monkeypatch.setattr(kernels, name, fail)


# Q4 at level 23: each axis passes, their 2^46-entry product does not
LONG_AXES = ((Q2.ring(24), 0), (F3.ring(15), 1), (Q4.ring(23), 0))


def test_solution_count_refuses_long_axes_before_any_histogram(monkeypatch):
    _refuse_histograms(monkeypatch)
    for ring, planes in LONG_AXES:
        with pytest.raises(kernels.PrimeBoundError, match="axis length"):
            kernels.solution_count(ring, [(1,)], (1,), planes=planes)


def test_form_histograms_refuse_long_axes_before_any_histogram(monkeypatch):
    # whole distributions of a form's values, and x_series built on them
    _refuse_histograms(monkeypatch)
    for ring, planes in LONG_AXES:
        with pytest.raises(kernels.PrimeBoundError, match="axis length"):
            kernels.ValueDistribution(ring, [(1,)], planes)
    with pytest.raises(kernels.PrimeBoundError, match="axis length"):
        x_series(DiagonalForm(Q2, [1]), 1, 30, direct=True)


def test_value_distribution_matches_brute_force():
    rng = np.random.default_rng(5)
    for p, shape in ENGINE_SHAPES:
        for n in (1, 2, 3):
            hists = [rng.integers(0, 50, shape) for _ in range(n)]
            want = brute_convolution(hists)
            got = engine_distribution(p, hists)
            for t in np.ndindex(shape):
                assert got[t] == want[t], (shape, n, t)
            assert sum(got.ravel()) == sum(want.ravel())


@pytest.mark.parametrize("field, coeffs, planes, top", [
    (Q2, [1, 3, 5], 0, 4), (Q2, [1], 1, 4), (Q4, [1, -2], 0, 3),
    (Q4, [3], 1, 2), (R2, [1, 3], 0, 5), (R2, [1], 1, 4),
    (F3, [1, 2], 0, 3), (F3, [1], 1, 3)])
def test_value_distribution_matches_solution_count_and_naive(field, coeffs,
                                                             planes, top):
    # every target at every level up to top, read from one distribution
    ring = field.ring(top)
    cc = [field.elt(c).coords for c in coeffs]
    n = len(cc) + 2 * planes
    dist = kernels.ValueDistribution(ring, cc, planes)
    for level in range(top + 1):
        low = field.ring(level)
        cover = (ring.size // low.size) ** n
        for t in low.elements():
            got, rest = divmod(dist.count(low.moduli, t), cover)
            assert rest == 0
            want = kernels.solution_count(low, cc, t, planes=planes)
            assert got == want, (field.q, coeffs, planes, level, t)
            if level == top:
                assert want == kernels.naive_count(ring, cc, t, planes=planes)


def test_value_distribution_exact_past_two_primes():
    # a count bound of 2^(11 * 7) needs three primes of the table
    ring = Q2.ring(11)
    cc = [(1,), (3,), (5,), (7,), (1,)]
    dist = kernels.ValueDistribution(ring, cc, 1)
    assert len(dist.primes) >= 3
    total = 0
    for t in range(ring.size):
        got = dist.count(ring.moduli, (t,))
        total += got
        if t % 97 == 0:
            assert got == kernels.solution_count(ring, cc, (t,), planes=1)
    assert total == ring.size ** 7
    for level in (1, 5, 9):
        low = Q2.ring(level)
        for t in (0, 1, 3, low.size - 1):
            want = kernels.solution_count(low, cc, (t,), planes=1)
            assert dist.count(low.moduli, (t,)) \
                == want * (ring.size // low.size) ** 7


def _unfiltered_primes(ell, small):
    """The prime table of ell as _ntt_primes defines it, every candidate
    decided by trial division by all the primes below sqrt(2^31)."""
    n = ell
    while n * ell <= 1 << 23:
        n *= ell
    primes, P = [], (2 ** 31 - 2) // n * n + 1
    while math.prod(primes) < kernels._CRT_REACH and P > n:
        if np.all(P % small[small < P]):
            primes.append(P)
        P -= n
    return tuple(primes)


def test_prime_tables_equal_the_unfiltered_search():
    # the gcd trial division and the three-base Miller-Rabin test drop no
    # candidate and admit no composite, for every prime ell < 128
    small = np.array([d for d in range(2, 46341) if kernels._is_prime(d)])
    assert len(small) == 4792 and np.all(small % 2 + (small == 2))
    for ell in filter(kernels._is_prime, range(2, kernels._LEAF)):
        want = _unfiltered_primes(ell, small)
        assert kernels._ntt_primes.__wrapped__(ell) == want, ell


def test_leaf_products_exact_at_p_minus_1_on_the_longest_leaves():
    # every residue p - 1 (or p - 1 and p - 2 alternating) drives the limb
    # sums to their extremes, and the floor-division reductions must
    # still give each entry of the defining sum, on the row branch (one
    # column) and the column branch alike
    for ell in (2, 3, 5, 7, 11, 127):
        L = ell ** int(math.log(kernels._LEAF, ell) + 1e-9)
        table = kernels._ntt_primes(ell)
        for p in (table[0], table[-1]):
            w = kernels._root(p, L)
            mat = [[pow(w, f * i % L, p) for i in range(L)]
                   for f in range(L)]
            for cols in (1, 3):
                x = np.full((2, L, cols), p - 1, dtype=np.int64)
                x[1, 1::2] -= 1
                got = x.copy()
                kernels._leaf_product(got, p, kernels._limbs(p, L))
                for b in range(2):
                    for c in range(cols):
                        col = [int(v) for v in x[b, :, c]]
                        want = [sum(m * v for m, v in zip(row, col)) % p
                                for row in mat]
                        assert got[b, :, c].tolist() == want, (p, L, cols)


def test_mod_is_a_floor_reduction():
    p = kernels._ntt_primes(2)[0]
    x = np.array([-(1 << 53) + 1, -p, -1, 0, p - 1, p, (1 << 53) - 1,
                  (1 << 62) + 12345], dtype=np.int64)
    want = [int(v) % p for v in x]
    assert kernels._mod(x.copy(), p).tolist() == want


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
    # one class per distinct histogram of c x^2, each with the number of
    # coefficients sharing it: c and c u^2 together, 0 and ord >= level
    # together, nothing else merged
    for level in range(4):
        ring, coeffs = _class_inputs(field, level)
        hists = kernels.square_histograms(ring, coeffs)
        keys = [h.tobytes() for h in hists]
        reps, mults = kernels._square_classes(ring, coeffs)
        rep_keys = [keys[coeffs.index(r)] for r in reps]
        assert sorted(rep_keys) == sorted(set(keys)), (field, level)
        assert mults == [keys.count(k) for k in rep_keys], (field, level)
        if level:
            assert len(reps) < len(coeffs)


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


def test_padded_path_groups_classes_and_planes():
    # p = 131 pads each class's histogram: c and c u^2, 0 and 131 (ord 1
    # at level 1) share one; with a plane, and the whole distribution
    ring = F131.ring(1)
    reps, mults = kernels._square_classes(
        ring, [(5,), (5 * 49 % 131,), (0,), (131 % 131,)])
    assert mults == [2, 2]
    for cc in ([(5,), (5 * 49,)], [(5,), (0,), (131,)], [(3,)]):
        for t in ((0,), (1,), (77,)):
            want = kernels.naive_count(ring, cc, t)
            assert kernels.solution_count(ring, cc, t) == want, (cc, t)
    # a repeated class with a plane is past the enumeration's budget:
    # against the convolution of the histograms, shift by shift
    cc = [(3,), (3 * 4,)]
    want = brute_convolution([*kernels.square_histograms(ring, cc),
                              kernels.plane_histogram(ring)])
    for t in (0, 1, 77, 130):
        assert kernels.solution_count(ring, cc, (t,), planes=1) == want[t]
    dist = kernels.ValueDistribution(ring, [(5,), (5 * 49,), (0,)])
    for t in range(0, 131, 13):
        want = kernels.naive_count(ring, [(5,), (5 * 49,), (0,)], (t,))
        assert dist.count(ring.moduli, (t,)) == want


def test_one_plan_per_ring_shared_by_every_prime(monkeypatch):
    # four coefficients in two square classes over o/2^12, counted with
    # two or more primes: two dual indices in all, and a second count on
    # the ring builds none
    ring = Q2.ring(12)
    coeffs = [(1,), (9,), (-3 % 4096,), (-3 * 25 % 4096,)]
    kernels._summands.cache_clear()
    calls = []
    dual = kernels._dual_index
    monkeypatch.setattr(kernels, "_dual_index",
                        lambda ring, c: calls.append(c) or dual(ring, c))
    got = kernels.solution_count(ring, coeffs, (1,))
    plan = kernels._summands(ring, tuple(coeffs), 0)
    assert len(plan.primes) >= 2 and plan.mults == [2, 2]
    assert calls == [(1,), (4093,)]
    assert kernels.solution_count(ring, coeffs, (5,)) >= 0
    assert len(calls) == 2
    assert got == closed_profile(DiagonalForm(Q2, [1, 1, -3, -3])) \
        .series_at(0, 2, 11)[11] * ring.size ** 4
