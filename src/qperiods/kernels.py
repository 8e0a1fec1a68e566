"""Exact vectorized counting kernels over residue rings.

Each variable contributes a histogram of its values over the additive group
of the ring, and a count is one entry of their convolution.  One engine
transforms the histograms by number-theoretic transforms modulo as many
primes as the count's bound needs, and joins residues by CRT; every count
is an exact integer.  It reads the transforms back two ways:
convolution_entry takes one entry by a dot product per prime, and
ValueDistribution takes the whole convolution by one inverse transform per
prime, so that every target at every coarser level is a coset sum of it.

Ring arithmetic is not repeated here: values come from the ResidueRing
methods (coords, mul, add, ord_of, is_unit) applied to whole arrays of
elements, and histograms use the ring's flat layout (flat_index).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import mul

import numpy as np


class EnumBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured point budget."""


DEFAULT_ENUM_BUDGET = 1 << 26

# Residue classes one exhaustive table or search may visit; every p <= 101
# fits the anisotropy search over o/pi^(3e+3) (101^3 classes).
SEARCH_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# Histograms of quadratic values
# ---------------------------------------------------------------------------

def square_histograms(ring, coeff_list, restrict_nonunit=False):
    """Histograms of c * x^2 for every c in coeff_list, stacked on axis 0."""
    xs = ring.coords()
    if restrict_nonunit and ring.level:  # at level 0 the one class is in pi*o
        keep = ~ring.is_unit(xs)
        xs = tuple(c[keep] for c in xs)
    sq = ring.mul(xs, xs)
    cc = np.array([ring.reduce(c) for c in coeff_list], dtype=np.int64)
    cc = cc.reshape(-1, len(ring.moduli)).T[:, :, None]
    idx = ring.flat_index(ring.mul(cc, sq))
    idx += ring.size * np.arange(len(coeff_list))[:, None]
    h = np.bincount(idx.ravel(), minlength=ring.size * len(coeff_list))
    return h.reshape((len(coeff_list),) + ring.moduli)


def plane_histogram(ring, restrict_nonunit=False):
    """Histogram of 2xy over pairs (x, y); the hyperbolic-plane summand.

    Counted by valuations: a pair with ord x + ord y = s < level has a
    product of ord s, spread uniformly over the elements of that ord (units
    act transitively on them), and doubling shifts ord by e = ord 2.
    """
    level = ring.level
    ords = ring.ord_of(np.indices(ring.moduli))  # the ord of 0 is level
    per_ord = np.bincount(ords.ravel(), minlength=level + 1)
    s = np.arange(level + 1)
    free = per_ord * (s >= min(restrict_nonunit, level))  # level 0: 0 is pi*o
    pairs = np.zeros(level + 1, dtype=np.int64)
    np.add.at(pairs, np.minimum(np.add.outer(s, s) + ring.field.e, level),
              np.outer(free, free))
    return pairs[ords] // per_ord[ords]


# ---------------------------------------------------------------------------
# Exact counting engine: multi-prime number-theoretic transforms
# ---------------------------------------------------------------------------

class PrimeBoundError(EnumBudgetError):
    """The prime table cannot reconstruct this count exactly."""


# Primes below 2^31 (residue products fit in int64), 2^23 | p - 1, largest first
_NTT_PRIMES = (2130706433, 2113929217, 2088763393, 2013265921, 1811939329,
               1711276033, 1484783617, 1300234241, 1224736769, 1107296257,
               998244353, 469762049)
_LEAF = 128  # blocks this long take one exact matrix product


@lru_cache(maxsize=64)
def _tables(p, n):
    """Length-n tables mod p: radix-2 stage twiddles, the leaf DFT matrix as
    low 16-bit and high float limbs, the negated frequency of each output
    slot, and powers of an n-th root of unity (a power of one nonresidue,
    so all lengths share one leaf matrix)."""
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    root = pow(c, (p - 1) // n, p)  # c is a nonresidue: order exactly n
    pw = np.ones(1, dtype=np.int64)
    while len(pw) < n:
        pw = np.concatenate([pw, pw * pow(root, len(pw), p) % p])
    idx = np.arange(n)
    if n <= _LEAF:
        mat = pw[np.outer(idx, idx) % n]
        limbs = np.hstack([mat & 0xFFFF, mat >> 16]).astype(float)
        return [], limbs, -idx % n, pw
    bits = (n // _LEAF).bit_length() - 1
    # the stages leave block b holding frequencies rev(b) + (n / leaf) * j
    freq = n // _LEAF * (idx % _LEAF)
    for b in range(bits):
        freq |= (idx // _LEAF >> b & 1) << (bits - 1 - b)
    stages = [pw[:n // 2:1 << s] for s in range(bits)]
    return stages, _tables(p, _LEAF)[1], -freq % n, pw


def _ntt(a, p):
    """Forward NTT mod p, in place, along the rows of a 2-D array of
    residues; slot s then holds the frequency -negfreq[s] of _tables.

    Radix-2 decimation-in-frequency stages cut each row into leaf blocks,
    and float64 matrix products transform those.  Every partial sum is at
    most p - 1 times a column sum of a leaf limb, below 2^53 for every
    table prime (tests check it), so every sum is an exact integer.
    """
    stages, limbs = _tables(p, a.shape[1])[:2]
    for w in stages:
        blk = a.reshape(len(a), -1, 2 * len(w))
        u, v = blk[..., :len(w)], blk[..., len(w):]
        t = (u - v) * w % p
        u += v
        u %= p
        v[...] = t
    leaf = len(limbs)
    x = a.reshape(-1, leaf)
    for r in range(0, len(x), 32):  # 32 blocks at a time bound the temporaries
        c = x[r:r + 32]
        y = (c.astype(float) @ limbs).astype(np.int64)
        c[...] = (y[:, :leaf] + (y[:, leaf:] % p << 16)) % p


def _padded_lengths(shape, count):
    """Transform length of each axis for a convolution of `count` histograms
    of this shape: a power of two stays cyclic, any other m is padded past
    count (m - 1); PrimeBoundError past 2^23, the order of the roots of
    unity every table prime has, or past 2^23 entries in all."""
    lengths = tuple(m if m & (m - 1) == 0
                    else 1 << (count * (m - 1)).bit_length() for m in shape)
    if max(lengths) > 1 << 23:
        raise PrimeBoundError("axis length %d is beyond the prime table"
                              % max(lengths))
    if prod(lengths) > 1 << 23:
        raise PrimeBoundError("axis lengths %s give a transform of %d "
                              "entries, beyond 2^23" % (lengths, prod(lengths)))
    return lengths


def _forward(stack, lengths, p):
    """Each histogram of the stack, zero-padded to `lengths`, transformed
    mod p along every axis; slots hold frequencies as _ntt leaves them."""
    shape = stack.shape[1:]
    a = np.zeros((len(stack),) + lengths, dtype=np.int64)  # odd axes padded
    np.remainder(stack, p, out=a[(slice(None),) + tuple(map(slice, shape))])
    for ax, n in enumerate(lengths):
        a = np.ascontiguousarray(a.swapaxes(1 + ax, -1))  # copy unless last
        _ntt(a.reshape(-1, n), p)
        a = a.swapaxes(1 + ax, -1)
    return a


def _product(acc, a, mults, p):
    """acc times each transform of a to its multiplicity, mod p, in place."""
    for i, c in enumerate(mults):
        for _ in range(c):
            acc *= a[i]
            acc %= p
    return acc


def _entry_mod(p, stack, mults, lengths, target):
    """The target entry mod p; see convolution_entry."""
    a = _forward(stack, lengths, p)
    acc = None
    for ax, (n, m, t) in enumerate(zip(lengths, stack.shape[1:], target)):
        negfreq, pw = _tables(p, n)[2:]
        fold = sum(pw[negfreq * w & (n - 1)] for w in range(int(t) % m, n, m))
        fold = fold.reshape((n,) + (1,) * (len(lengths) - ax - 1)) % p
        acc = fold if acc is None else acc * fold % p
    acc = _product(acc, a, mults, p)
    return int(acc.sum()) * pow(prod(lengths), -1, p) % p


def _distribution_mod(p, stack, mults, lengths):
    """The whole convolution mod p, on the histogram shape; see
    ValueDistribution."""
    acc = _product(np.ones(lengths, dtype=np.int64),
                   _forward(stack, lengths, p), mults, p)
    # the inverse is the forward transform of the negated frequencies: put
    # frequency -f in natural slot f, transform, and read the result in the
    # slot order the transform leaves
    for ax, n in enumerate(lengths):
        negfreq = _tables(p, n)[2]
        x = acc.swapaxes(ax, -1)
        b = np.empty(x.shape, dtype=np.int64)
        b[..., negfreq] = x
        _ntt(b.reshape(-1, n), p)
        x = np.empty_like(b)
        x[..., -negfreq % n] = b
        acc = x.swapaxes(ax, -1)
    acc = acc * pow(prod(lengths), -1, p) % p
    # a padded axis holds the linear convolution: fold it back onto Z/m
    for ax, (n, m) in enumerate(zip(lengths, stack.shape[1:])):
        if n != m:
            x = np.moveaxis(acc, ax, 0)
            x = np.concatenate([x, np.zeros((-n % m,) + x.shape[1:],
                                            dtype=np.int64)])
            acc = np.moveaxis(x.reshape((-1, m) + x.shape[1:]).sum(0) % p,
                              0, ax)
    return acc


def _group(hists):
    """Distinct histograms stacked, their multiplicities, and the primes
    that reconstruct any count up to the product of their sums."""
    groups = {}  # equal histograms share one transform
    for h in hists:
        groups.setdefault(h.tobytes(), [h, 0])[1] += 1
    stack = np.array([h for h, _ in groups.values()], dtype=np.int64)
    mults = [c for _, c in groups.values()]
    bound = prod(int(h.sum()) ** c for h, c in zip(stack, mults))
    k = next((i for i, m in enumerate(accumulate(_NTT_PRIMES, mul), 1)
              if m > bound), 0)
    if not k:
        raise PrimeBoundError("count bound %d is beyond the prime table"
                              % bound)
    return stack, mults, _NTT_PRIMES[:k]


def _crt(residues, primes) -> int:
    """The integer below the product of the primes with these residues."""
    count, modulus = 0, 1
    for r, p in zip(residues, primes):
        count += modulus * ((int(r) - count) * pow(modulus, -1, p) % p)
        modulus *= p
    return count


def convolution_entry(hists, target) -> int:
    """Entry `target` of the convolution of integer histograms over the
    group Z/m0 (x Z/m1), m the histogram shape.

    Each distinct histogram is transformed once per prime and the
    transforms multiplied; one dot product per prime reads back the target
    entry alone, and CRT joins the residues.  Power-of-two axes are cyclic;
    an odd axis is zero-padded past n(m - 1), the support of the linear
    convolution of n histograms, and the target folded over t, t + m, ...
    """
    stack, mults, primes = _group(hists)
    lengths = _padded_lengths(stack.shape[1:], len(hists))
    return _crt([_entry_mod(p, stack, mults, lengths, target)
                 for p in primes], primes)


class ValueDistribution:
    """Every entry of the convolution of integer histograms at once, as
    convolution_entry computes one: for a form's histograms, the number
    N(v) of tuples with value v, for every v in the ring.

    Per prime, the transforms are multiplied and one inverse transform
    returns the whole convolution; a padded axis is folded back onto Z/m.
    The entries stay residues mod each prime the count bound needs, and
    `count` joins only the coset sum it returns by CRT: every such sum is
    at most the bound, so it is exact however many primes that takes.
    """

    __slots__ = ("primes", "residues")

    def __init__(self, hists):
        stack, mults, self.primes = _group(hists)
        lengths = _padded_lengths(stack.shape[1:], len(hists))
        self.residues = np.array([_distribution_mod(p, stack, mults, lengths)
                                  for p in self.primes])

    def count(self, moduli, target) -> int:
        """The sum of N(v) over v = target mod moduli, where each modulus
        divides its axis length (the coset of a coarser quotient)."""
        coset = (slice(None),) + tuple(slice(int(t) % m, None, m)
                                       for t, m in zip(target, moduli))
        sums = self.residues[coset].reshape(len(self.primes), -1).sum(1)
        return _crt(sums % np.array(self.primes), self.primes)


# ---------------------------------------------------------------------------
# Solution counting
# ---------------------------------------------------------------------------

def form_histograms(ring, coeff_list, planes=0, restrict_nonunit=False):
    """The histogram of each summand of sum c x^2 + planes * 2xy; refuses
    an axis the primes cannot transform before allocating anything."""
    _padded_lengths(ring.moduli, len(coeff_list) + planes)
    hists = list(square_histograms(ring, coeff_list, restrict_nonunit))
    if planes:
        hists += [plane_histogram(ring, restrict_nonunit)] * planes
    return hists


def solution_count(ring, coeff_list, target_coords, planes=0,
                   restrict_nonunit=False) -> int:
    """Number of tuples over the ring with sum of terms equal to target."""
    if not (coeff_list or planes):
        return 1 if all(c == 0 for c in ring.reduce(target_coords)) else 0
    hists = form_histograms(ring, coeff_list, planes, restrict_nonunit)
    return convolution_entry(hists, ring.reduce(target_coords))


def primitive_zero_exists(ring, coeffs) -> bool:
    """Does sum a_i x_i^2 = 0 mod pi^level admit a solution with a unit coord?"""
    coeff_list = [c.coords if hasattr(c, "coords") else c for c in coeffs]
    zero = (0,) * len(ring.moduli)
    full = solution_count(ring, coeff_list, zero)
    sub = solution_count(ring, coeff_list, zero, restrict_nonunit=True)
    return full > sub


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
