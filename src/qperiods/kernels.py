"""Exact counting kernels over residue rings.

solution_count gives N_L(t), the number of tuples over o/pi^L with
sum c_i x_i^2 + planes * 2yz = t, by one integer formula on every field:
the classical evaluation of a local density as a finite sum of Gauss sums
(T. Yang, J. Number Theory 72 (1998) 309-356 for odd p, and 108 (2004)
287-345 for p = 2).  For psi a character of o/pi^L whose multiples give
every character,

    q^L N_L(t) = sum over f of psi(-t f) prod_i G(c_i f) P(f)^planes,

with G(b) = sum_x psi(b x^2) and P(f) = sum_(y,z) psi(2 f y z).  Group the
frequencies f by k = ord f.  f = 0 gives q^(L (n + 2 planes)).  For k < L
let J = L - k and H = min(J, 2e + 1), e = ord 2:

- P(f) = q^L #{y : 2 f y = 0} = q^(L + min(L, k + e));
- a coefficient c = pi^o w (w the unit of unit_part: only the square
  class of c / pi^o matters) gives G(c f) = q^L if k + o >= L; otherwise,
  with j = L - k - o, G(c f) = q^(k + o) G_j(w a) for f = pi^k a, G_j the
  Gauss sum over o/pi^j.  For j >= 2e + 2 the units' part of G_j vanishes
  (x -> x (1 + pi^(j-e-1) z) moves it by a nontrivial character) and the
  rest is x = pi y, so G_j = q G_(j-2).  With r = max(0, ceil((j - 2e -
  1)/2)), G(c f) = q^(k + o + r) G_j'(w a), j' = j - 2r <= 2e + 1: the
  coefficient joins the head at level j';
- summed over the units a mod pi^J, psi(-t f) times the head's Gauss sums
  is a Ramanujan sum over the head's values.  With #_h the number of x_i
  mod pi^(j'_i) with sum pi^(H - j'_i) w_i x_i^2 = t / pi^(J - H) mod
  pi^h, it is q^(J - H) (q^H #_H - q^(H-1) #_(H-1)), and zero unless
  ord t >= J - H.

So a count is at most L + 1 integer terms, and no root of unity, float,
modulus or array of the ring's size enters.  Only the head depends on the
parity of p.  At odd p, H = 1 and the head is the count of a diagonal form
over F_q (R. Lidl and H. Niederreiter, Finite Fields, Thms 6.26 and 6.27):
q #_1 - #_0 = eps (q - 1 or -1) q^(m/2) for m head terms of level 1, m
even, and eps eta(t') q^((m+1)/2) for m odd, where eps = eta(-1)^floor(m/2)
prod eta(w_i) and eta, the quadratic character of F_q, comes from Euler's
criterion.  At p = 2 the head is an integer histogram convolution over
o/pi^H, at most 64 classes (8 on Q2, 64 on Q4, 32 on a ramified field),
kept per field and per head of coefficient classes.

A count is below q^(L (n + 2 planes)), and its big integers cost time in
proportion to L times their size: past COUNT_BITS bits it is refused with
EnumBudgetError before any work (check_count_bits), and so is a series
whose counts pass it together.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd, prod

import numpy as np

from . import localfield


class EnumBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured point budget."""


DEFAULT_ENUM_BUDGET = 1 << 26

# Residue classes one exhaustive table or search may visit; every p <= 101
# fits the anisotropy search over o/pi^(3e+3) (101^3 classes).
SEARCH_BUDGET = 1 << 20

# Bits of the counts one call makes, bounded by L n ceil(log2 q) a count: a
# Q2 count in four variables reaches it at level 8,192, a Q3 count in five
# at level 3,276, and a series counted level by level in two variables over
# Q2 at level 180
COUNT_BITS = 1 << 15


def check_count_bits(field, nvars, level_sum, deepest):
    """EnumBudgetError when counts in nvars variables over o/pi^L, with
    levels L up to deepest that sum to level_sum, would pass COUNT_BITS
    bits together.  A count is below q^(L nvars), so it has at most L nvars
    ceil(log2 q) bits; this bound is read without building a ring or a
    power of q."""
    bits = level_sum * nvars * (field.q - 1).bit_length()
    if bits > COUNT_BITS:
        raise EnumBudgetError(
            "counts over o/pi^L, L <= %d, with q = %d and n + 2 planes = %d "
            "take up to %d bits, beyond the bound of %d bits"
            % (deepest, field.q, nvars, bits, COUNT_BITS))


def _check_search_budget(what, ring):
    """EnumBudgetError when the exhaustive `what` over ring would pass
    SEARCH_BUDGET, the one budget of every table and cross-check search."""
    if ring.size > SEARCH_BUDGET:
        raise EnumBudgetError("%s over %d residue classes exceeds the budget "
                              "of %d" % (what, ring.size, SEARCH_BUDGET))


# ---------------------------------------------------------------------------
# Primality of a field's p
# ---------------------------------------------------------------------------

# Below this bound no composite is a strong pseudoprime to all of the
# first 13 prime bases (Sorenson and Webster, Math. Comp. 86 (2017)), and
# below _SMALL_TEST_LIMIT none is one to the bases 2, 7 and 61 (G. Jaeschke,
# Math. Comp. 61 (1993)), which decide every smaller p at once
_PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_TEST_LIMIT = 4759123141
_SMALL_BASES = (2, 7, 61)
# a number sharing no factor with this product has no prime factor <= 41
_BASE_PRODUCT = prod(_PRIME_BASES)


def _is_prime(n) -> bool:
    """Deterministic Miller-Rabin, exact below _PRIME_TEST_LIMIT;
    ValueError past it."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError("primality of %d is not decided: the test is exact "
                         "only below %d" % (n, _PRIME_TEST_LIMIT))
    if gcd(n, _BASE_PRODUCT) > 1:
        return n in _PRIME_BASES
    if n < 43 * 43:  # no prime factor up to 41, none past it
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _SMALL_BASES if n < _SMALL_TEST_LIMIT else _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficients and targets: valuation and what the head reads of the unit
# ---------------------------------------------------------------------------

def _eta(field, coords) -> int:
    """The quadratic character of a unit's residue at odd p: w^((q-1)/2)
    in F_q, +1 or -1 (Euler's criterion), by repeated squaring in o/pi."""
    ring = field.ring(1)
    one = ring.reduce(field.one().coords)
    x, n, acc = ring.reduce(coords), (field.q - 1) // 2, one
    while n:
        if n & 1:
            acc = ring.mul(acc, x)
        x = ring.mul(x, x)
        n >>= 1
    return 1 if acc == one else -1


@lru_cache(maxsize=4096)
def _split(field, coords):
    """(o, key) for a nonzero element, o = ord and key what the head reads
    of its unit part w: eta(w) at odd p, and at p = 2 the residues of w mod
    pi^j for j <= 2e + 1.  (inf, None) for zero."""
    if not any(coords):
        return math.inf, None
    o, w = localfield.unit_part(field, field.elt(*coords))
    if field.p != 2:
        return o, _eta(field, w.coords)
    return o, tuple(field.ring(j).reduce(w.coords)
                    for j in range(2 * field.e + 2))


# ---------------------------------------------------------------------------
# The head at p = 2: histograms over o/pi^H, H <= 2e + 1
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _classes(field, H):
    """For the classes a, b of o/pi^H by flat index, the flat index of each
    sum a + b, and that of each class a in o/pi^(H-1)."""
    ring, low = field.ring(H), field.ring(H - 1)
    cls = np.unravel_index(np.arange(ring.size), ring.moduli)
    add = ring.flat_index(ring.add(tuple(c[:, None] for c in cls),
                                   tuple(c[None, :] for c in cls)))
    return add, low.flat_index(low.reduce(cls))


@lru_cache(maxsize=1024)
def _square_values(field, H, jp, w):
    """Histogram over o/pi^H, by flat index, of pi^(H - jp) w x^2 for x in
    o/pi^jp (w a unit's residue mod pi^jp)."""
    ring = field.ring(H)
    xs = field.ring(jp).coords()
    c = ring.reduce(field._mul((field.uniformizer() ** (H - jp)).coords, w))
    return np.bincount(ring.flat_index(ring.mul(c, ring.mul(xs, xs))),
                       minlength=ring.size)


@lru_cache(maxsize=1024)
def _head_counts(field, H, config):
    """#_H and #_(H-1) at every t' in o/pi^H, by flat index, for a head,
    the sorted tuple of (j', w mod pi^j'): the number of x with sum pi^(H -
    j') w x^2 = t' mod pi^H and mod pi^(H-1).  A convolution of the terms'
    histograms, in int64 while their total q^(sum j') fits and in Python
    ints past it."""
    add, lower = _classes(field, H)
    bits = sum(jp for jp, _ in config) * (field.q - 1).bit_length()
    dist = np.zeros(len(add), dtype=np.int64 if bits < 62 else object)
    dist[0] = 1
    for jp, w in config:
        hist = _square_values(field, H, jp, w)
        nxt = np.zeros_like(dist)
        for b in np.flatnonzero(hist):
            nxt[add[:, b]] += dist * int(hist[b])  # a -> a + b permutes
        dist = nxt
    low = np.zeros(field.ring(H - 1).size, dtype=dist.dtype)
    np.add.at(low, lower, dist)
    return dist, low[lower]


@lru_cache(maxsize=1024)
def _scaled_index(field, H, d, u):
    """Flat index in o/pi^H of pi^d u, u a unit's residue mod pi^(H - d)."""
    ring = field.ring(H)
    return int(ring.flat_index(ring.mul(
        (field.uniformizer() ** d).coords, u)))


def _dyadic_head(field, H, head, d, t_key):
    """(q^H #_H - q^(H-1) #_(H-1), 0) for the head terms (j', residues of
    w) and the target t' = pi^d u_t, zero for d >= H."""
    q = field.q
    config = tuple(sorted((jp, w[jp]) for jp, w in head))
    at_h, below = _head_counts(field, H, config)
    ti = 0 if d >= H else _scaled_index(field, H, d, t_key[H - d])
    return q ** H * int(at_h[ti]) - q ** (H - 1) * int(below[ti]), 0


def _odd_head(field, H, head, d, eta_t):
    """(factor, exponent) with q #_1 - #_0 = factor q^exponent over F_q
    (H = 1): the diagonal form of the head terms of level 1 at t', which
    is zero for d >= 1 and a unit of character eta_t for d = 0."""
    q, m, eps = field.q, 0, 1
    for jp, eta in head:
        if jp:
            m += 1
            eps *= eta
    if m // 2 % 2 and q % 4 == 3:  # eta(-1)^floor(m/2)
        eps = -eps
    if m % 2 == 0:
        return eps * (q - 1 if d else -1), m // 2
    return (0 if d else eps * eta_t), (m + 1) // 2


# ---------------------------------------------------------------------------
# Solution counting
# ---------------------------------------------------------------------------

def solution_count(ring, coeff_list, target_coords, planes=0) -> int:
    """Number of tuples over the ring with sum c x^2 + planes * 2yz equal
    to the target, by the Gauss-sum formula of the module docstring: one
    term per frequency valuation.  EnumBudgetError past COUNT_BITS."""
    field, L = ring.field, ring.level
    q, e, n = field.q, field.e, len(coeff_list)
    nvars = n + 2 * planes
    check_count_bits(field, nvars, L, L)
    terms = [_split(field, ring.reduce(c)) for c in coeff_list]
    o_t, t_key = _split(field, ring.reduce(target_coords))
    head_of = _dyadic_head if field.p == 2 else _odd_head
    powers = [(L * nvars, 1)]  # (exponent, factor) of each term factor q^exp
    for k in range(L):
        J = L - k
        H = min(J, 2 * e + 1)
        if o_t < J - H:
            continue
        exp = J - H + planes * (L + min(L, k + e))
        head = []
        for o, w in terms:
            if k + o >= L:
                exp += L
            else:
                j = J - o
                r = max(0, (j - 2 * e) // 2)
                exp += k + o + r
                head.append((j - 2 * r, w))
        factor, extra = head_of(field, H, head, o_t - (J - H), t_key)
        if factor:
            powers.append((exp + extra, factor))
    # Horner's rule from the largest power down: each step multiplies by a
    # small power of q, where a power per term would cost L big powers
    powers.sort(reverse=True)
    total, low = 0, powers[0][0]
    for exp, factor in powers:
        total = total * q ** (low - exp) + factor
        low = exp
    if low >= L:
        return total * q ** (low - L)
    count, rest = divmod(total, q ** (L - low))
    if rest:
        raise localfield.InternalConsistencyError(
            "the Gauss-sum count over o/pi^%d is not divisible by q^%d"
            % (L, L))
    return count


def primitive_zero_exists(ring, coeffs) -> bool:
    """Does B = sum a_i x_i^2 = 0 mod pi^L, L the ring's level, have a
    solution with a unit coordinate, that is, one not in pi*o?  The
    solutions in pi*o are counted two levels down: such a tuple is x =
    pi y with y mod pi^(L-1), B(pi y) = pi^2 B(y) vanishes mod pi^L
    exactly when B(y) = 0 mod pi^(L-2), and each y mod pi^(L-2) lifts to
    q^n classes mod pi^(L-1).  Below L = 2 only x = 0 is in pi*o."""
    coeff_list = [c.coords if hasattr(c, "coords") else c for c in coeffs]
    zero = (0,) * len(ring.moduli)
    full = solution_count(ring, coeff_list, zero)
    if ring.level < 2:
        return full > 1
    field = ring.field
    return full > field.q ** len(coeff_list) * solution_count(
        field.ring(ring.level - 2), coeff_list, zero)


# ---------------------------------------------------------------------------
# Naive chunked enumeration (the slow ground-truth baseline)
# ---------------------------------------------------------------------------

def naive_count(ring, coeff_list, target_coords, planes=0,
                budget=DEFAULT_ENUM_BUDGET) -> int:
    """Full enumeration over all coordinate tuples, in vectorized chunks.

    Work is proportional to size^(n + 2*planes); the budget guard fails
    loudly instead of thrashing.
    """
    size = ring.size
    nvars = len(coeff_list) + 2 * planes
    total_points = size ** nvars
    if total_points > budget:
        raise EnumBudgetError(
            "naive enumeration needs %d points (budget %d); "
            "use the histogram kernel" % (total_points, budget))
    target = ring.reduce(target_coords)
    if nvars == 0:
        return 1 if all(c == 0 for c in target) else 0

    # per-variable value tables (each of length `size`, or size^2 per plane)
    xs = ring.coords()
    sq = ring.mul(xs, xs)
    tables = [ring.mul(ring.reduce(c), sq) for c in coeff_list]
    two = ring.reduce(ring.field.elt(2))
    for _ in range(planes):
        k = len(xs[0])
        pair_x = tuple(np.repeat(c, k) for c in xs)
        pair_y = tuple(np.tile(c, k) for c in xs)
        tables.append(ring.mul(ring.mul(two, pair_x), pair_y))

    # build the running sum over a suffix of variables small enough to hold
    inner = tables[-1]
    i = len(tables) - 2
    while i >= 0 and len(inner[0]) * len(tables[i][0]) <= (1 << 22):
        sums = ring.add([c[:, None] for c in tables[i]], [c[None, :] for c in inner])
        inner = tuple(c.ravel() for c in sums)
        i -= 1
    outer_tables = tables[:i + 1]

    def count_against(partial):
        want = ring.sub(target, partial)
        ok = inner[0] == want[0]
        for c, wc in zip(inner[1:], want[1:]):
            ok &= c == wc
        return int(np.count_nonzero(ok))

    if not outer_tables:
        return count_against((0,) * len(ring.moduli))
    total = 0
    idx = [0] * len(outer_tables)
    lengths = [len(t[0]) for t in outer_tables]
    while True:
        partial = tuple(0 for _ in ring.moduli)
        for t, j in zip(outer_tables, idx):
            partial = ring.add(partial, tuple(int(tc[j]) for tc in t))
        total += count_against(partial)
        k = len(idx) - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < lengths[k]:
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            break
    return total
