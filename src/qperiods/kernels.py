"""Exact vectorized counting kernels over residue rings.

A count of sum c x^2 + planes * 2xy = t over o/pi^L is one entry of the
convolution of the summands' histograms over the additive group of the
ring.  One engine transforms the summands by number-theoretic transforms
modulo as many primes as the count's bound (#x)^terms (#pairs)^planes
needs, and joins residues by CRT; every count is an exact integer.

A count costs one plan per ring and one transform pass per CRT prime.
_summands makes the plan, kept for the last two rings and shared by
every prime: the transform lengths and primes, and the distinct summands
with their multiplicities.  Coefficients are grouped by square class, since
c and c u^2 (u a unit) have one histogram, and each class keeps the dual
index described below, which does not depend on the prime.  Per prime,
_transforms yields the transform of each distinct summand, and two readers
take them: solution_count reads one entry by a dot product, and
ValueDistribution reads the whole convolution by one inverse transform, so
that every target at every coarser level is a coset sum of it.
Multiplicities are raised by repeated squaring.

One transform routine, a mixed-radix four-step NTT, serves every length
ell^k.  It cuts the axis into leaves ell^j <= 128, and each leaf is one
exact float64 matrix product, with a twiddle multiplication between
levels.  The slot order (_slots) is the same modulo every prime.  _plan
alone decides the shape, from the ring's residue prime p.  Every axis has
length p^k, so below 128 (Q2, Q4, Q3, Q9 and the ramified rings) each axis
keeps its own length, modulo the primes P = 1 mod every power of p up to
2^23: one table per p, shared by every level of the field.  There a square
term has no histogram and no transform of its own.  The transform of
c x^2's histogram is T(S), the transform of the squares' histogram, read
at the dual of multiplication by c (c f on one axis).  T(S) is ring data,
kept for the last two rings.  On one axis, Z/m with m = ell^L for the
base field Q_ell, T(S)(f) = sum_x w^(f x^2) is a quadratic Gauss sum, and
_gauss_sums builds it in O(m) from the closed forms (B. C. Berndt, R. J.
Evans and K. S. Williams, Gauss and Jacobi Sums, 1998, ch. 1): ell^k
G_j(a) at f = ell^k a, j = L - k, with G_j(a) = ell^(j/2) or ell^((j-1)/2)
(a/ell) g for odd ell, and 0, 2^(j/2) (1 + i^a) or 2^((j+1)/2) zeta^a for
ell = 2.  Rings of two axes (Q4, Q9 and the ramified rings) still take
T(S) from the NTT of S, and the plane is always transformed.  Only p > 127
pads: each summand's histogram is transformed zero-padded to a power of
two, with the table of p = 2, and the result is folded back.  No table
is built at import time.

Every reduction mod P is a floor division, x - (x // P) P (_mod).  numpy
divides by a scalar through libdivide, several times faster than its
remainder, and the floor also reduces the signed limb sums of a leaf
product.

Ring arithmetic is not repeated here: values come from the ResidueRing
methods (coords, mul, add, ord_of, is_unit) applied to whole arrays of
elements, and histograms use the ring's flat layout (flat_index).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, log, prod
from operator import mul

import numpy as np


class EnumBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured point budget."""


DEFAULT_ENUM_BUDGET = 1 << 26

# Residue classes one exhaustive table or search may visit; every p <= 101
# fits the anisotropy search over o/pi^(3e+3) (101^3 classes).
SEARCH_BUDGET = 1 << 20


def _check_search_budget(what, ring):
    """EnumBudgetError when the exhaustive `what` over ring would pass
    SEARCH_BUDGET, the one budget of every table and cross-check search."""
    if ring.size > SEARCH_BUDGET:
        raise EnumBudgetError("%s over %d residue classes exceeds the budget "
                              "of %d" % (what, ring.size, SEARCH_BUDGET))


# ---------------------------------------------------------------------------
# Histograms of quadratic values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)  # the last two rings
def _squares(ring):
    """x^2 for every class x of the ring: ring data that every coefficient
    and every count over the ring shares."""
    xs = ring.coords()
    return ring.mul(xs, xs)


def square_histograms(ring, coeff_list):
    """Histograms of c * x^2 for every c in coeff_list, stacked on axis 0."""
    sq = _squares(ring)
    cc = np.array([ring.reduce(c) for c in coeff_list], dtype=np.int64)
    cc = cc.reshape(-1, len(ring.moduli))  # (0, ncoords) for no coefficient
    idx = ring.flat_index(ring.mul(cc.T[:, :, None], sq))
    idx += ring.size * np.arange(len(cc))[:, None]
    h = np.bincount(idx.ravel(), minlength=ring.size * len(cc))
    return h.reshape((len(cc),) + ring.moduli)


@lru_cache(maxsize=2)  # the last two rings
def plane_histogram(ring):
    """Histogram of 2xy over pairs (x, y); the hyperbolic-plane summand.

    Counted by valuations: a pair with ord x + ord y = s < level has a
    product of ord s, spread uniformly over the elements of that ord (units
    act transitively on them), and doubling shifts ord by e = ord 2.
    """
    level = ring.level
    ords = ring.ord_of(np.indices(ring.moduli))  # the ord of 0 is level
    per_ord = np.bincount(ords.ravel(), minlength=level + 1)
    s = np.arange(level + 1)
    pairs = np.zeros(level + 1, dtype=np.int64)
    np.add.at(pairs, np.minimum(np.add.outer(s, s) + ring.field.e, level),
              np.outer(per_ord, per_ord))
    return pairs[ords] // per_ord[ords]


# ---------------------------------------------------------------------------
# Exact counting engine: multi-prime number-theoretic transforms
# ---------------------------------------------------------------------------

class PrimeBoundError(EnumBudgetError):
    """The prime table cannot reconstruct this count exactly."""


_LEAF = 128  # a leaf this long or shorter takes one exact matrix product
_CHUNK = 1 << 13  # entries per leaf product, to bound its float temporaries
# every prime table passes this product: 12 or 13 primes for each p < _LEAF
_CRT_REACH = 1 << 365


# Below this bound no composite is a strong pseudoprime to all of the
# first 13 prime bases (Sorenson and Webster, Math. Comp. 86 (2017)), and
# below _SMALL_TEST_LIMIT none is one to the bases 2, 7 and 61 (G. Jaeschke,
# Math. Comp. 61 (1993)), which decide every candidate of a prime table
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


def _ell_k(n):
    """(ell, k) with n = ell^k for a transform length n, a power of the
    ring's p below _LEAF or of 2 on a padded axis ((2, 0) for n = 1)."""
    ell = next((d for d in range(2, _LEAF) if n % d == 0), 2)
    return ell, round(log(n, ell))


@lru_cache(maxsize=None)
def _ntt_primes(ell):
    """The CRT primes for transforms of every length ell^k <= 2^23: the
    primes P < 2^31 (residue products fit in int64) with P = 1 mod the
    largest such length, largest first, until their product passes
    _CRT_REACH (tests check that every prime ell < _LEAF gets there with
    at most 13 primes)."""
    n = ell
    while n * ell <= 1 << 23:
        n *= ell
    primes, reach = [], 1
    for P in range((2 ** 31 - 2) // n * n + 1, n, -n):
        if reach >= _CRT_REACH:
            break
        if _is_prime(P):  # a gcd trial-divides it before Miller-Rabin
            primes.append(P)
            reach *= P
    return tuple(primes)


@lru_cache(maxsize=None)
def _generator(p, ell):
    """The least c that is no ell-th power mod p: c^((p - 1)/n) has order
    exactly n for every power n of ell dividing p - 1, so the roots of all
    such lengths are powers of one another and share their leaf matrices."""
    return next(c for c in range(2, p) if pow(c, (p - 1) // ell, p) != 1)


def _root(p, n):
    """The n-th root of unity mod p that is a power of _generator."""
    return pow(_generator(p, _ell_k(n)[0]), (p - 1) // n, p)


def _powers(w, count, p):
    """[1, w, ..., w^(count - 1)] mod p, as Python ints."""
    return list(accumulate(range(count - 1), lambda x, _: x * w % p,
                           initial=1))


@lru_cache(maxsize=64)
def _limbs(p, L):
    """The length-L DFT matrix mod p as float limbs, L x 2L: a signed low
    16 bits, then the high bits.  A partial sum of a leaf product is at
    most p - 1 times a column sum of absolute limbs, below 2^53 for every
    P < 2^31 and L <= _LEAF (each limb is at most 2^15); ArithmeticError
    otherwise."""
    pw = np.array(_powers(_root(p, L), L, p), dtype=np.int64)
    low = (pw + 0x8000 & 0xFFFF) - 0x8000
    exps = _mod(np.multiply.outer(np.arange(L), np.arange(L)), L)
    limbs = np.empty((L, 2 * L))
    limbs[:, :L] = low.astype(float)[exps]
    limbs[:, L:] = ((pw - low) >> 16).astype(float)[exps]
    if (p - 1) * int(np.abs(limbs).sum(axis=0).max()) >= 1 << 53:
        raise ArithmeticError("leaf products of length %d mod %d could "
                              "pass 2^53" % (L, p))
    return limbs


def _leaf_length(ell, k):
    """The first leaf of a length-ell^k transform: the exponent k spread
    evenly over the fewest levels of leaves ell^j <= _LEAF (a leaf product
    costs flops in proportion to its length)."""
    j = 1
    while ell ** (j + 1) <= _LEAF:
        j += 1
    return ell ** -(-k // -(-k // j))


@lru_cache(maxsize=64)
def _slots(n):
    """The first leaf L of a length-n _ntt and the frequency f that each
    output slot holds, the same modulo every prime: frequency f1 + L f2
    lands in slot (f1, slot of f2)."""
    L = _leaf_length(*_ell_k(n)) if n > 1 else 1
    if L == n:
        return L, np.arange(n)
    return L, (np.arange(L)[:, None] + L * _slots(n // L)[1]).ravel()


@lru_cache(maxsize=256)
def _twiddles(p, n):
    """The table of a length-n _ntt mod p (n a prime power dividing
    p - 1, P < 2^31), for w = _root(p, n), a power of the leaf roots: the
    twiddles w^(f1 i2) of its first level (n > L), or the powers of w
    (n = L).  The powers of w are one outer product of the first b powers
    and the powers of w^b, b^2 >= n."""
    w = _root(p, n)
    b = isqrt(n - 1) + 1
    lo = _powers(w, b, p)
    hi = _powers(lo[-1] * w % p, -(-n // b), p)
    pw = _mod(np.multiply.outer(hi, lo), p).ravel()[:n]
    L = _slots(n)[0]
    if L == n:
        return pw
    return pw[np.outer(np.arange(L), np.arange(n // L))]


def _mod(x, p):
    """x mod p, in place, for an int64 array x.  Past about 1,000 entries
    a floor division runs faster: numpy divides by a scalar through
    libdivide, several times faster than its remainder, and x - (x // p) p
    lies in [0, p) for negative x too.  Below that the one remainder call
    costs less than the three of the floor division."""
    if x.size < 1024:
        x %= p
    else:
        x -= x // p * p
    return x


def _fold(p, n, t):
    """w^(-t f) mod p for the frequency f in each output slot of a
    length-n _ntt: the weights that read entry t back from a product of
    transforms.  Level by level, with u = -t = a (n / L) + b mod n,
    w^(u f1) = w^(f1 b) w_L^(f1 a) for the leaf root w_L = w^(n / L)."""
    L, table = _slots(n)[0], _twiddles(p, n)
    u = -t % n
    if L == n:
        return table[u * np.arange(n) % n]
    m = n // L
    a, b = divmod(u, m)
    head = _mod(table[:, b] * _twiddles(p, L)[a * np.arange(L) % L], p)
    return _mod(head[:, None] * _fold(p, m, t % m), p).ravel()


def _leaf_product(x, p, limbs):
    """Transform axis 1 of a 3-D array (B, L, M) of residues mod p in place
    by the leaf matrix: float64 products with the limbs, exact because
    every partial sum stays below 2^53, recombined mod p."""
    B, L, M = x.shape
    cols = min(M, max(1, _CHUNK // L))
    rows = max(1, _CHUNK // (L * cols))
    for r in range(0, B, rows):
        for c in range(0, M, cols):
            v = x[r:r + rows, :, c:c + cols]
            if M == 1:  # a plain product over rows runs far faster
                v = v[..., 0]
                y = v.astype(float) @ limbs
            else:
                y = limbs.T @ v.astype(float)
            y = y.astype(np.int64)  # axis 1 holds the low, then high limbs
            low = y[:, :L]
            low += _mod(y[:, L:], p) << 16
            v[...] = _mod(low, p)


def _ntt(a, p):
    """Forward NTT mod p, in place, along axis 1 of a C-contiguous 3-D
    array (B, n, C) of residues; slot s of that axis then holds the
    frequency _slots(n)[1][s].

    One mixed-radix four-step transform (D. H. Bailey, J. Supercomputing
    4, 1990) serves every length n = ell^k: with the leaf L of _slots and
    i = i1 (n / L) + i2, a leaf product transforms over i1 for each i2,
    the twiddles w^(f1 i2) multiply, and the length-n/L transform over i2
    runs the same way, so frequency f1 + L f2 lands in slot (f1, slot of
    f2).
    """
    B, n, C = a.shape
    if n == 1:
        return
    L = _slots(n)[0]
    _leaf_product(a.reshape(B, L, -1), p, _limbs(p, L))
    if L < n:
        x = a.reshape(B, L, n // L, C)
        x *= _twiddles(p, n)[:, :, None]
        _mod(x, p)
        _ntt(a.reshape(B * L, n // L, C), p)


@lru_cache(maxsize=256)
def _plan(p, shape, terms, planes):
    """Transform length of each axis and the CRT primes for every count of
    a form with these summands over a ring of this shape, whose axes are
    powers of its residue prime p: counts up to (#x)^terms (#pairs)^planes.
    Below _LEAF each axis keeps its own length (the transform is cyclic on
    Z/m), modulo the primes of _ntt_primes(p).  Otherwise each axis is
    padded past (terms + planes) (m - 1), the support of the linear
    convolution, to a power of two, modulo those of _ntt_primes(2).
    PrimeBoundError past 2^23 on an axis or in all, or past the table's
    product; refuses before anything is allocated."""
    lengths = shape if p < _LEAF else tuple(
        1 << ((terms + planes) * (m - 1)).bit_length() for m in shape)
    i = lengths.index(max(lengths))
    if lengths[i] > 1 << 23:
        axis = "%d^%d" % (p, round(log(shape[i], p)))
        if lengths[i] != shape[i]:
            axis += ", padded to 2^%d," % (lengths[i].bit_length() - 1)
        raise PrimeBoundError("axis length %s is beyond the prime table"
                              % axis)
    if prod(lengths) > 1 << 23:
        raise PrimeBoundError("axis lengths %s give a transform of %d "
                              "entries, beyond 2^23" % (lengths, prod(lengths)))
    table = _ntt_primes(p if p < _LEAF else 2)
    bound = prod(shape) ** (terms + 2 * planes)
    k = next((k for k, m in enumerate(accumulate(table, mul), 1)
              if m > bound), 0)
    if not k:
        raise PrimeBoundError("count bound %d is beyond the prime table"
                              % bound)
    return lengths, table[:k]


def _forward(stack, lengths, p):
    """Each histogram of the stack, zero-padded to `lengths`, transformed
    mod p along every axis; slots hold frequencies as _ntt leaves them."""
    a = np.zeros((len(stack),) + lengths, dtype=np.int64)
    head = a[(slice(None),) + tuple(map(slice, stack.shape[1:]))]
    head[...] = stack
    _mod(head, p)
    for ax, n in enumerate(lengths):
        _ntt(a.reshape(len(stack) * prod(lengths[:ax]), n, -1), p)
    return a


def _product(acc, a, mults, p):
    """acc (int64, updated in place; None for 1) times each transform of
    the iterable a to its multiplicity, mod p, by repeated squaring."""
    for x, c in zip(a, mults):
        while c:
            if c & 1:
                if acc is None:
                    acc = x.astype(np.int64)  # a copy, as x may be squared
                else:
                    acc *= x
                    _mod(acc, p)
            c >>= 1
            if c:
                x = _mod(np.multiply(x, x, dtype=np.int64), p)
    return acc


def _entry_mod(p, a, mults, lengths, shape, target):
    """The target entry mod p of the convolution whose distinct factors
    have the transforms a (histograms of this shape, transformed at these
    lengths as _forward leaves them) with these multiplicities, by one dot
    product with the weights of _fold (summed over t, t + m, ... on a
    padded axis)."""
    acc = None
    for ax, (n, m, t) in enumerate(zip(lengths, shape, target)):
        ws = range(int(t) % m, n, m)  # one w unless the axis is padded
        fold = sum(_fold(p, n, w) for w in ws) % p if len(ws) > 1 \
            else _fold(p, n, ws[0])
        fold = fold.reshape((n,) + (1,) * (len(lengths) - ax - 1))
        acc = fold if acc is None else _mod(acc * fold, p)
    acc = _product(acc, a, mults, p)
    return int(acc.sum()) * pow(prod(lengths), -1, p) % p


def _distribution_mod(p, a, mults, lengths, shape):
    """The whole convolution mod p, on the histogram shape, of the factors
    with the transforms a and multiplicities of _entry_mod."""
    acc = _product(None, a, mults, p)
    if acc is None:
        acc = np.ones(lengths, dtype=np.int64)
    # the inverse is the forward transform of the negated frequencies: put
    # frequency -f in natural slot f, transform, and read the result in the
    # slot order the transform leaves
    for ax, n in enumerate(lengths):
        freq = _slots(n)[1]
        x = acc.reshape(prod(lengths[:ax]), n, -1)
        b = np.empty_like(x)
        b[:, -freq % n] = x
        _ntt(b, p)
        x[:, freq] = b
    acc *= pow(prod(lengths), -1, p)
    _mod(acc, p)
    # a padded axis holds the linear convolution: fold it back onto Z/m
    for ax, (n, m) in enumerate(zip(lengths, shape)):
        if n != m:
            x = np.moveaxis(acc, ax, 0)
            x = np.concatenate([x, np.zeros((-n % m,) + x.shape[1:],
                                            dtype=np.int64)])
            acc = np.moveaxis(x.reshape((-1, m) + x.shape[1:]).sum(0) % p,
                              0, ax)
    return acc


def _crt(residues, primes) -> int:
    """The integer below the product of the primes with these residues."""
    count, modulus = 0, 1
    for r, p in zip(residues, primes):
        count += modulus * ((int(r) - count) * pow(modulus, -1, p) % p)
        modulus *= p
    return count


# ---------------------------------------------------------------------------
# Per-ring plans: square classes and their dual indices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)  # the last two rings
def _square_histogram(ring):
    """S, the histogram of x^2 over the ring, in the ring's shape."""
    h = np.bincount(ring.flat_index(_squares(ring)), minlength=ring.size)
    return h.astype(np.int32).reshape(ring.moduli)  # counts up to 2^23


# the last two rings: a primitive-zero search alternates o/pi^L and o/pi^(L-2)
@lru_cache(maxsize=2)
def _square_transforms(ring):
    """The ring's T(S) per prime p, filled by _square_transform."""
    return {}


def _gauss_sums(m, p):
    """T(S) mod p on Z/m, m = ell^L, flat in natural frequency order: the
    quadratic Gauss sums T(S)(f) = sum over x mod m of w^(f x^2), w =
    _root(p, m), in closed form (B. C. Berndt, R. J. Evans and K. S.
    Williams, Gauss and Jacobi Sums, Wiley 1998, ch. 1).  T(S)(0) = m, and
    f = ell^k a with ell not dividing a and j = L - k >= 1 gives ell^k
    G_j(a), where
    - for odd ell, G_j(a) = ell^(j/2) for even j and ell^((j-1)/2) (a/ell)
      g for odd j, with g = sum over x mod ell of u^(x^2), u = w^(m/ell);
    - for ell = 2, G_1 = 0, G_j(a) = 2^(j/2) (1 + i^a) for even j and
      2^((j+1)/2) zeta^a for odd j >= 3, with i = w^(m/4), zeta = w^(m/8).
    These are identities in a primitive m-th root of unity, so they hold
    mod every P = 1 mod m.  G_j(a) has period ell, 4 or 8 in a: level k
    tiles one period over the multiples of ell^k, and the next level
    overwrites those of ell^(k+1), so the whole costs O(m)."""
    w = _root(p, m)
    ell, L = _ell_k(m)
    if ell == 2:  # G_j(a) / 2^(j // 2) over a period, for odd and even j
        odd = [2 * z for z in _powers(pow(w, m // 8, p), 8, p)] if m >= 8 \
            else []
        even = [1 + i for i in _powers(pow(w, m // 4, p), 4, p)] if m >= 4 \
            else []
    else:
        u = _powers(pow(w, m // ell, p), ell, p)
        g = sum(u[x * x % ell] for x in range(ell))
        squares = {x * x % ell for x in range(1, ell)}
        odd = [0] + [g if a in squares else -g for a in range(1, ell)]
        even = [1]
    ts = np.empty(m, dtype=np.int32)  # residues below P < 2^31
    for k in range(L):
        j = L - k
        period = [0] if ell == 2 and j == 1 else odd if j % 2 else even
        scale = ell ** (k + j // 2)
        ts[::ell ** k] = np.tile([scale * x % p for x in period],
                                 ell ** j // len(period))
    ts[0] = m
    return ts


def _square_transform(ring, p):
    """T(S) mod p, flat in natural frequency order, for the histogram S of
    x^2 over a ring at its own lengths: ring data that serves every
    coefficient.  A one-axis ring Z/ell^L (the base field Q_ell, ell <
    _LEAF) takes the closed form of _gauss_sums; a ring of two axes (Q4, Q9
    and the ramified rings) transforms S by _forward."""
    per_prime = _square_transforms(ring)
    if p not in per_prime:
        if len(ring.moduli) == 1:
            per_prime[p] = _gauss_sums(ring.moduli[0], p)
        else:
            a = _forward(_square_histogram(ring)[None], ring.moduli, p)[0]
            ts = np.empty(a.shape, dtype=np.int32)  # residues below P < 2^31
            ts[np.ix_(*(_slots(m)[1] for m in ring.moduli))] = a
            per_prime[p] = ts.ravel()
    return per_prime[p]


@lru_cache(maxsize=2)  # the last two rings
def _unit_squares(ring):
    """u^2 for the units u of the ring, each square once, as coordinates."""
    sq = np.unravel_index(np.flatnonzero(_square_histogram(ring).ravel()),
                          ring.moduli)
    return tuple(v[ring.is_unit(sq)] for v in sq)


def _square_classes(ring, coeffs):
    """The distinct histograms of c x^2 for c in coeffs (reduced): one
    representative coefficient of each and how many coeffs share it.  Two
    coefficients share a histogram exactly when c' = c u^2 for a unit u:
    the values of c x^2 of least ord are the c u^2.  So only coefficients
    of one ord are compared, and each class's orbit c U^2 is built only
    when a later coefficient needs the test."""
    reps, ords, mults, orbits = [], [], [], []
    for c in coeffs:
        o = min(ring.field._ord(c), ring.level)
        for i, rep in enumerate(reps):
            if c == rep:
                break
            if o != ords[i]:
                continue
            if orbits[i] is None:
                orbits[i] = np.zeros(ring.size, dtype=bool)
                orbits[i][ring.flat_index(
                    ring.mul(rep, _unit_squares(ring)))] = True
            if orbits[i][ring.flat_index(c)]:
                break
        else:
            reps.append(c)
            ords.append(o)
            mults.append(0)
            orbits.append(None)
            i = len(reps) - 1
        mults[i] += 1
    return reps, mults


def _dual_index(ring, c):
    """The flat natural index of c*(f) for the frequency f of every slot
    (the same modulo every prime), so that T(H_c) = T(S)[index] for the
    histogram H_c of c x^2.  Slot f holds the character chi_f(x) =
    w^(sum_i f_i x_i M / m_i), w of order M = max m, and chi_f(c x) =
    chi_c*(f)(x) for the dual c*(f)_j = sum_i f_i (c e_j)_i (M / m_i) /
    (M / m_j) mod m_j, e_j the basis vectors; on one axis c*(f) = c f mod
    n."""
    moduli = ring.moduli
    M, d = max(moduli), len(moduli)
    freqs = [_slots(m)[1].reshape((-1,) + (1,) * (d - i - 1))
             for i, m in enumerate(moduli)]
    idx = np.zeros(moduli, dtype=np.int32)  # at most 2^23 classes
    for j, mj in enumerate(moduli):
        ce = ring.mul(c, tuple(int(i == j) for i in range(d)))
        terms = [f * (x * (M // mi))
                 for f, x, mi in zip(freqs, ce, moduli) if x]
        if terms:
            g = sum(terms[1:], terms[0])
            if M > mj:  # exact: x -> chi_f(c x) is a character
                g //= M // mj
            idx = idx * mj + _mod(g, mj)
        else:
            idx *= mj
    return idx.astype(np.int32)


_Summands = namedtuple("_Summands", "lengths primes mults terms")


@lru_cache(maxsize=2)  # the last two rings, as _square_transforms
def _summands(ring, coeffs, planes):
    """The plan of every count of sum c x^2 + planes * 2xy over the ring
    (coeffs reduced), shared by every CRT prime: the transform lengths and
    primes of _plan, and each distinct summand with its multiplicity, the
    square classes first, then the plane.  On natural lengths the terms
    are the dual indices of the classes; on padded ones the histograms of
    every summand, stacked."""
    lengths, primes = _plan(ring.field.p, ring.moduli, len(coeffs), planes)
    reps, mults = _square_classes(ring, coeffs)
    mults += [planes] * bool(planes)
    if lengths == ring.moduli:
        terms = [_dual_index(ring, c) for c in reps]
    else:
        plane = [plane_histogram(ring)] if planes else []
        terms = np.array([*square_histograms(ring, reps), *plane])
    return _Summands(lengths, primes, mults, terms)


def _transforms(ring, plan, p):
    """The transforms mod p of the plan's distinct summands, as _forward
    leaves them, one at a time.  On natural lengths a square class is T(S)
    read at its dual index and only the plane is transformed."""
    if plan.lengths != ring.moduli:
        yield from _forward(plan.terms, plan.lengths, p)
        return
    ts = _square_transform(ring, p)
    for idx in plan.terms:
        yield ts.take(idx)
    if len(plan.terms) < len(plan.mults):
        yield _forward(plane_histogram(ring)[None], plan.lengths, p)[0]


# ---------------------------------------------------------------------------
# Solution counting
# ---------------------------------------------------------------------------

class ValueDistribution:
    """For sum c x^2 + planes * 2xy over a ring, the number N(v) of
    tuples with value v, for every v at once.

    Per prime, one inverse transform returns the whole convolution.  The
    entries stay residues mod each prime the count bound needs, and
    `count` joins only the coset sum it returns by CRT: every such sum is
    at most the bound, so it is exact however many primes that takes.
    """

    __slots__ = ("primes", "residues")

    def __init__(self, ring, coeffs, planes=0):
        plan = _summands(ring, tuple(map(ring.reduce, coeffs)), planes)
        self.primes = plan.primes
        self.residues = np.array([_distribution_mod(
            p, _transforms(ring, plan, p), plan.mults, plan.lengths,
            ring.moduli) for p in plan.primes])

    def count(self, moduli, target) -> int:
        """The sum of N(v) over v = target mod moduli, where each modulus
        divides its axis length (the coset of a coarser quotient)."""
        coset = (slice(None),) + tuple(slice(int(t) % m, None, m)
                                       for t, m in zip(target, moduli))
        sums = self.residues[coset].reshape(len(self.primes), -1).sum(1)
        return _crt(sums % np.array(self.primes), self.primes)


def solution_count(ring, coeff_list, target_coords, planes=0) -> int:
    """Number of tuples over the ring with sum of terms equal to target:
    one entry of the convolution of the summands' histograms, read by a
    dot product per prime."""
    target = ring.reduce(target_coords)
    if not (coeff_list or planes):
        return 1 if all(c == 0 for c in target) else 0
    plan = _summands(ring, tuple(map(ring.reduce, coeff_list)), planes)
    return _crt([_entry_mod(p, _transforms(ring, plan, p), plan.mults,
                            plan.lengths, ring.moduli, target)
                 for p in plan.primes], plan.primes)


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
