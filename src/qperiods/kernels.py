"""Exact vectorized counting kernels over residue rings.

A count of sum c x^2 + planes * 2xy = t over o/pi^L is one entry of the
convolution of the summands' histograms over the additive group of the
ring.  One engine transforms the summands by number-theoretic transforms
modulo as many primes as the count's bound (#x)^terms (#pairs)^planes
needs, and joins residues by CRT; every count is an exact integer.
_summand_transforms gives, for one prime, the transforms of a form's
distinct summands with their multiplicities, and two readers use them:
solution_count takes one entry by a dot product per prime, and
ValueDistribution the whole convolution by one inverse transform per
prime, so that every target at every coarser level is a coset sum of it.

One transform routine, a mixed-radix four-step NTT, serves every length
ell^k: it cuts the axis into leaves ell^j <= 128, each one exact float64
matrix product, with a twiddle multiplication between levels.  _plan
alone decides the shape, from the ring's residue prime p: every axis has
length p^k, so below 128 (Q2, Q4, Q3, Q9 and the ramified rings) each
axis keeps its own length, modulo the primes P = 1 mod every power of p
up to 2^23, one table per p that every level of the field shares.  There
a square term has no histogram and no transform of its own: the
transform of c x^2's histogram is T(S), the transform of the squares'
histogram, read at the dual of multiplication by c (c f on one axis);
T(S) is ring data, kept for the last two rings.  Only p > 127 pads: each
term's histogram is transformed zero-padded to a power of two, with the
table of p = 2, and the result is folded back.  No table is built at
import time.

Ring arithmetic is not repeated here: values come from the ResidueRing
methods (coords, mul, add, ord_of, is_unit) applied to whole arrays of
elements, and histograms use the ring's flat layout (flat_index).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import log, prod
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
# first 13 prime bases (Sorenson and Webster, Math. Comp. 86 (2017))
_PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n) -> bool:
    """Deterministic Miller-Rabin to the first 13 prime bases, exact
    below _PRIME_TEST_LIMIT; ValueError past it."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError("primality of %d is not decided: the test is exact "
                         "only below %d" % (n, _PRIME_TEST_LIMIT))
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
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
    primes, P = [], (2 ** 31 - 2) // n * n + 1
    while prod(primes) < _CRT_REACH and P > n:
        if _is_prime(P):
            primes.append(P)
        P -= n
    return tuple(primes)


@lru_cache(maxsize=None)
def _generator(p, ell):
    """The least c that is no ell-th power mod p: c^((p - 1)/n) has order
    exactly n for every power n of ell dividing p - 1, so the roots of all
    such lengths are powers of one another and share their leaf matrices."""
    return next(c for c in range(2, p) if pow(c, (p - 1) // ell, p) != 1)


@lru_cache(maxsize=64)
def _limbs(p, L):
    """The length-L DFT matrix mod p as float limbs, L x 2L: a signed low
    16 bits, then the high bits.  A partial sum of a leaf product is at
    most p - 1 times a column sum of absolute limbs, below 2^53 for every
    P < 2^31 and L <= _LEAF (each limb is at most 2^15); ArithmeticError
    otherwise."""
    ell = _ell_k(L)[0]
    root = pow(_generator(p, ell), (p - 1) // L, p)
    pw = np.array([pow(root, j, p) for j in range(L)], dtype=np.int64)
    mat = pw[np.outer(np.arange(L), np.arange(L)) % L]
    low = (mat + 0x8000 & 0xFFFF) - 0x8000
    limbs = np.hstack([low, (mat - low) >> 16]).astype(float)
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


@lru_cache(maxsize=256)
def _tables(p, n):
    """Length-n tables mod p (n a prime power dividing p - 1), for the
    n-th root of unity w that is a power of _generator, as every leaf root
    is: the leaf length L, the negated frequency of each output slot of
    _ntt, and either the twiddles w^(f1 i2) of the first level (n > L) or
    the powers of w (n = L)."""
    ell, k = _ell_k(n)
    root = pow(_generator(p, ell), (p - 1) // n, p)
    pw = np.ones(1, dtype=np.int64)
    while len(pw) < n:
        pw = np.concatenate([pw, pw * pow(root, len(pw), p) % p])
    pw = pw[:n]
    L = _leaf_length(ell, k) if n > 1 else 1
    if L == n:
        return L, -np.arange(n) % n, pw
    m = n // L
    freq = np.arange(L)[:, None] + L * (-_tables(p, m)[1] % m)
    return L, -freq.ravel() % n, pw[np.outer(np.arange(L), np.arange(m))]


def _fold(p, n, t):
    """w^(-t f) mod p for the frequency f in each output slot of a
    length-n _ntt: the weights that read entry t back from a product of
    transforms.  Level by level, with u = -t = a (n / L) + b mod n,
    w^(u f1) = w^(f1 b) w_L^(f1 a) for the leaf root w_L = w^(n / L)."""
    L, _, table = _tables(p, n)
    u = -t % n
    if L == n:
        return table[u * np.arange(n) % n]
    m = n // L
    a, b = divmod(u, m)
    head = table[:, b] * _tables(p, L)[2][a * np.arange(L) % L] % p
    return (head[:, None] * _fold(p, m, t % m) % p).ravel()


def _leaf_product(x, p, limbs):
    """Transform axis 1 of a 3-D array (B, L, M) of residues mod p in place
    by the leaf matrix: float64 products with the limbs, exact because
    every partial sum stays below 2^53, recombined mod p."""
    B, L, M = x.shape
    # a multiple of p past 2^37: shifted up by 16 bits it keeps every sum
    # non-negative, where numpy's remainder runs several times faster
    lift = -(-(1 << 37) // p) * p
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
            v[...] = (y[:, :L] + (y[:, L:] % p + lift << 16)) % p


def _ntt(a, p):
    """Forward NTT mod p, in place, along axis 1 of a C-contiguous 3-D
    array (B, n, C) of residues; slot s of that axis then holds the
    frequency -negfreq[s] of _tables.

    One mixed-radix four-step transform (D. H. Bailey, J. Supercomputing
    4, 1990) serves every length n = ell^k: with the leaf L of _tables and
    i = i1 (n / L) + i2, a leaf product transforms over i1 for each i2,
    the twiddles w^(f1 i2) multiply, and the length-n/L transform over i2
    runs the same way, so frequency f1 + L f2 lands in slot (f1, slot of
    f2).
    """
    B, n, C = a.shape
    if n == 1:
        return
    L, _, twiddles = _tables(p, n)
    _leaf_product(a.reshape(B, L, -1), p, _limbs(p, L))
    if L < n:
        x = a.reshape(B, L, n // L, C)
        x *= twiddles[:, :, None]
        x %= p
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
    shape = stack.shape[1:]
    if shape == lengths:
        a = stack % p
    else:
        a = np.zeros((len(stack),) + lengths, dtype=np.int64)
        np.remainder(stack, p, out=a[(slice(None),) + tuple(map(slice, shape))])
    for ax, n in enumerate(lengths):
        _ntt(a.reshape(len(stack) * prod(lengths[:ax]), n, -1), p)
    return a


def _product(acc, a, mults, p):
    """acc times each transform of a to its multiplicity, mod p, in place."""
    for i, c in enumerate(mults):
        for _ in range(c):
            acc *= a[i]
            acc %= p
    return acc


def _entry_mod(p, a, mults, shape, target):
    """The target entry mod p of the convolution whose distinct factors
    have the transforms a (histograms of this shape, as _forward leaves
    them) with these multiplicities, by one dot product with the weights
    of _fold (summed over t, t + m, ... on a padded axis)."""
    lengths = a.shape[1:]
    acc = None
    for ax, (n, m, t) in enumerate(zip(lengths, shape, target)):
        ws = range(int(t) % m, n, m)  # one w unless the axis is padded
        fold = sum(_fold(p, n, w) for w in ws) % p if len(ws) > 1 \
            else _fold(p, n, ws[0])
        fold = fold.reshape((n,) + (1,) * (len(lengths) - ax - 1))
        acc = fold if acc is None else acc * fold % p
    acc = _product(acc, a, mults, p)
    return int(acc.sum()) * pow(prod(lengths), -1, p) % p


def _distribution_mod(p, a, mults, shape):
    """The whole convolution mod p, on the histogram shape, of the factors
    with the transforms a and multiplicities of _entry_mod."""
    lengths = a.shape[1:]
    acc = _product(np.ones(lengths, dtype=np.int64), a, mults, p)
    # the inverse is the forward transform of the negated frequencies: put
    # frequency -f in natural slot f, transform, and read the result in the
    # slot order the transform leaves
    for ax, n in enumerate(lengths):
        negfreq = _tables(p, n)[1]
        x = acc.reshape(prod(lengths[:ax]), n, -1)
        b = np.empty_like(x)
        b[:, negfreq] = x
        _ntt(b, p)
        x[:, -negfreq % n] = b
    acc = acc * pow(prod(lengths), -1, p) % p
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


# the last two rings: a primitive-zero search alternates o/pi^L and o/pi^(L-2)
@lru_cache(maxsize=2)
def _square_transforms(ring):
    """The ring's T(S) per prime p, filled by _square_transform."""
    return {}


def _square_transform(ring, p):
    """T(S) mod p, flat in natural frequency order, for the histogram S of
    x^2 over a ring at its own lengths: ring data that serves every
    coefficient."""
    per_prime = _square_transforms(ring)
    if p not in per_prime:
        s = np.bincount(ring.flat_index(_squares(ring)), minlength=ring.size)
        a = _forward(s.reshape((1,) + ring.moduli), ring.moduli, p)[0]
        ts = np.empty(a.shape, dtype=np.int32)  # residues below P < 2^31
        ts[np.ix_(*(-_tables(p, m)[1] % m for m in ring.moduli))] = a
        per_prime[p] = ts.ravel()
    return per_prime[p]


def _dual_indices(ring, coeffs, p):
    """For each c, the flat natural index of c*(f) for the frequency f of
    every slot, so that T(H_c) = T(S)[index] for the histogram H_c of c x^2.
    Slot f holds the character chi_f(x) = w^(sum_i f_i x_i M / m_i), w of
    order M = max m, and chi_f(c x) = chi_c*(f)(x) for the dual c*(f)_j =
    sum_i f_i (c e_j)_i (M / m_i) / (M / m_j) mod m_j, e_j the basis
    vectors; on one axis c*(f) = c f mod n."""
    moduli = ring.moduli
    M, d = max(moduli), len(moduli)
    freqs = [(-_tables(p, m)[1] % m).reshape((-1,) + (1,) * (d - i - 1))
             for i, m in enumerate(moduli)]
    for c in coeffs:
        idx = None
        for j, mj in enumerate(moduli):
            ce = ring.mul(c, tuple(int(i == j) for i in range(d)))
            terms = [f * (x * (M // mi))
                     for f, x, mi in zip(freqs, ce, moduli) if x]
            g = sum(terms[1:], terms[0]) if terms else 0
            if M > mj:  # exact: x -> chi_f(c x) is a character
                g //= M // mj
            g %= mj
            idx = g if idx is None else idx * mj + g
        yield idx


def _summand_transforms(ring, coeff_list, planes, p, lengths):
    """The transforms mod p, as _forward leaves them, of the distinct
    summands of sum c x^2 + planes * 2xy, stacked, and their
    multiplicities.  On a natural shape a square term is T(S) read at the
    dual of c; a padded one transforms the histogram of each term."""
    cs = {}  # distinct coefficients mod the ring, with their multiplicities
    for c in coeff_list:
        c = ring.reduce(c)
        cs[c] = cs.get(c, 0) + 1
    mults = list(cs.values()) + [planes] * bool(planes)
    plane = [plane_histogram(ring)] if planes else []
    if lengths != ring.moduli:
        hists = [*square_histograms(ring, list(cs)), *plane]
        return _forward(np.array(hists), lengths, p), mults
    a = np.empty((len(mults),) + lengths, dtype=np.int64)
    ts = _square_transform(ring, p)
    for i, idx in enumerate(_dual_indices(ring, cs, p)):
        a[i] = ts[idx]
    if planes:
        a[-1] = _forward(plane[0][None], lengths, p)[0]
    return a, mults


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
        lengths, self.primes = _plan(ring.field.p, ring.moduli,
                                     len(coeffs), planes)
        self.residues = np.array([_distribution_mod(
            p, *_summand_transforms(ring, coeffs, planes, p, lengths),
            ring.moduli) for p in self.primes])

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
    lengths, primes = _plan(ring.field.p, ring.moduli, len(coeff_list),
                            planes)
    return _crt([_entry_mod(
        p, *_summand_transforms(ring, coeff_list, planes, p, lengths),
        ring.moduli, target) for p in primes], primes)


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
