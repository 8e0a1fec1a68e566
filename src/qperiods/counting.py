"""Ground-truth solution-measure oracles.

X_ell(rho) is the measure of {a in o^n : B(a) = rho mod 2 pi^ell},
computed exactly: by honest enumeration, by the kernel's Gauss-sum
formula (kernels.solution_count: an integer sum of one term per frequency
valuation, after T. Yang, J. Number Theory 72 (1998) and 108 (2004)), or
(past the stabilization level) by the Hensel scaling laws.
count_level_histogram counts one level and target; x_series_many counts
every level of several targets, one solution_count per (target, level),
and x_series is its one-target case.  Everything returns Fractions;
nothing here is symbolic.

The stabilized mode of an anisotropic form counts only the zero target
and the targets with ord rho < 2e + 2.  A deeper target comes from the
ring two levels down: X_l(rho) = X_l(0) while e + l <= ord rho, and
X_l(rho) = q^-n X_(l-2)(rho / pi^2) past that, because every solution
there is x = pi y.  Its hypothesis, that no primitive vector has ord B >=
2e + 2, is the one the zero-target law X_(e+2) = X_e / q^n rests on, so
the series of every target costs the rings of T <= e alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from . import kernels
from .localfield import InternalConsistencyError, LocalField, unit_part
from .qform import DiagonalForm, is_anisotropic


class TruncatedSeries:
    """Coefficients X_0..X_L of the level generating series in z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("need at least X_0")
        for c in self.coeffs:
            if c < 0 or c > 1:
                raise ValueError("level measures live in [0, 1], got %s" % (c,))

    @property
    def L(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return self.coeffs == tuple(Fraction(c) for c in other)

    def __repr__(self):
        return "TruncatedSeries(%s)" % (", ".join(str(c) for c in self.coeffs))


def _as_element(field, rho):
    return field.zero() if rho is None else field.elt(rho)


def _coeff_coords(B: DiagonalForm):
    return [a.coords for a in B.coeffs]


def _level_measure(B: DiagonalForm, rho, ell: int, count) -> Fraction:
    """The measure of {a : B(a) = rho mod 2 pi^ell} from count(ring, coeffs,
    target), the number of solutions over o/2 pi^ell."""
    if ell < 0:
        raise ValueError("negative level")
    field = B.field
    ring = field.ring(ell + field.e)
    target = ring.reduce(_as_element(field, rho).coords)
    if B.n == 0:
        return Fraction(1 if all(t == 0 for t in target) else 0)
    return Fraction(count(ring, _coeff_coords(B), target), ring.size ** B.n)


def count_level_naive(B: DiagonalForm, rho, ell: int,
                      budget=kernels.DEFAULT_ENUM_BUDGET) -> Fraction:
    """Measure of {a : B(a) = rho mod 2 pi^ell} by full enumeration."""
    return _level_measure(B, rho, ell, partial(
        kernels.naive_count, planes=B.planes, budget=budget))


def count_level_histogram(B: DiagonalForm, rho, ell: int) -> Fraction:
    """Same measure through the kernel's Gauss-sum count over o/2 pi^ell,
    refused past the kernel's bound before the ring is built."""
    level = ell + B.field.e
    kernels.check_count_bits(B.field, B.n, level, level)
    return _level_measure(B, rho, ell, partial(
        kernels.solution_count, planes=B.planes))


def _cutoff(field, rho) -> int:
    """The last level the stabilized mode counts, ord(2 rho) + 1 (e + 1 for
    rho = 0); the stabilization laws give the levels past it."""
    return field.e + 1 + (0 if rho.is_zero() else int(rho.ord()))


def _derived(field, rho) -> bool:
    """Is rho a target the stabilized mode derives, ord rho >= 2e + 2,
    rather than counts?"""
    return not rho.is_zero() and int(rho.ord()) >= 2 * field.e + 2


def _first_law_level(field, rho) -> int:
    """The first level of rho's stabilized series that a law supplies
    rather than a count: ord rho - e + 1 for a derived target, where the
    recursion starts, else _cutoff + 1."""
    if _derived(field, rho):
        return int(rho.ord()) - field.e + 1
    return _cutoff(field, rho) + 1


def _down(field, rho):
    """rho / pi^2 up to a unit square, u pi^(o - 2) for (o, u) =
    unit_part(rho); X depends on a target only modulo unit squares."""
    o, u = unit_part(field, rho)
    return u * field.uniformizer() ** (o - 2)


def x_series_many(B: DiagonalForm, rhos, L: int,
                  direct: bool = False) -> list:
    """x_series(B, rho, L, direct=direct) for every rho in rhos: each
    counted level of each counted target is one solution_count.

    The stabilized mode counts only the zero target and the targets with
    ord rho < 2e + 2; a deeper target is derived from the ring two levels
    down (x = pi y).  At the levels with e + l <= ord rho, rho = 0 mod
    2 pi^l, so X_l(rho) = X_l(0).  At the others a solution has ord B(a) =
    ord rho >= 2e + 2, so it is not primitive, and X_l(rho) = q^-n
    X_(l-2)(rho / pi^2).  That no primitive vector has ord B >= 2e + 2 is
    the hypothesis of the zero-target law X_(e+2) = X_e / q^n as well, so
    the recursion assumes nothing more.  Each derived target's rho / pi^2
    is found once per call, so a chain such as T = 3 -> 2 -> 1 stops at a
    target already walked, and a derived target is never counted.
    """
    if L < 0:
        raise ValueError("negative truncation order")
    field = B.field
    rhos = [_as_element(field, rho) for rho in rhos]
    if not direct and not is_anisotropic(B):
        raise ValueError("stabilized extension needs an anisotropic form")
    below = {}  # each derived target's rho / pi^2, found once per call
    for rho in rhos:
        while not direct and _derived(field, rho) and rho not in below:
            below[rho] = _down(field, rho)
            rho = below[rho]
    bases = {rho for rho in rhos + list(below.values()) if rho not in below}
    if below:
        bases.add(field.zero())
    counted = {rho: L if direct else min(L, _cutoff(field, rho))
               for rho in bases}
    # each target's series is bounded on its own, as one x_series call
    # would be: its levels l + e of o/2 pi^l, l = 0..k, sum to
    # (k + 1)(k + 2e) / 2, largest at the deepest counted target
    k = max(counted.values(), default=0)
    kernels.check_count_bits(field, B.n, (k + 1) * (k + 2 * field.e) // 2,
                             k + field.e)
    count = partial(kernels.solution_count, planes=B.planes)
    done = {}
    for rho, k in counted.items():
        vals = [_level_measure(B, rho, l, count) for l in range(k + 1)]
        if rho.is_zero():
            step = Fraction(1, field.q ** B.n)
            while len(vals) <= L:
                vals.append(vals[-2] * step)
        else:
            step = Fraction(1, field.q)
            while len(vals) <= L:
                vals.append(vals[-1] * step)
        done[rho] = vals
    step = Fraction(1, field.q ** B.n)
    for rho in rhos:
        path = []  # rho and its derived targets down to one already done
        while rho not in done:
            path.append(rho)
            rho = below[rho]
        for rho in reversed(path):
            cut = _first_law_level(field, rho)
            done[rho] = done[field.zero()][:cut] + [
                v * step for v in done[below[rho]][cut - 2:L - 1]]
    return [TruncatedSeries(done[rho]) for rho in rhos]


def x_series(B: DiagonalForm, rho, L: int, verify: int = 0,
             direct: bool = False) -> TruncatedSeries:
    """X_0..X_L for a target rho = unit * pi^(2T), or rho = 0 (pass None or 0).

    In the default stabilized mode, levels beyond ord(2 rho) + 1 come from
    the one-step law X_{l+1} = X_l / q (two-step X_{l+2} = X_l / q^n for the
    zero target), and a target with ord rho >= 2e + 2 comes whole from the
    recursion X_l(rho) = q^-n X_(l-2)(rho / pi^2) past level ord rho - e
    (X_l(0) up to it; see x_series_many).  Those shortcuts are only sound
    for anisotropic forms, so isotropic input is rejected unless `direct`
    asks for full counting.  `verify` recomputes that many levels a law
    supplies, from the first one on, by direct counting, one level at a
    time through count_level_histogram.
    """
    series = x_series_many(B, [rho], L, direct)[0]
    if verify > 0 and not direct:
        rho = _as_element(B.field, rho)
        first = _first_law_level(B.field, rho)
        for l in range(first, min(L, first + verify - 1) + 1):
            got = count_level_histogram(B, rho, l)
            if got != series.coeffs[l]:
                raise InternalConsistencyError(
                    "stabilized X_%d = %s but direct count gives %s"
                    % (l, series.coeffs[l], got))
    return series


def x_series_at(B: DiagonalForm, T: Optional[int], L: int, **kw) -> TruncatedSeries:
    """x_series for the canonical target pi^(2T); T = None means rho = 0."""
    if T is None:
        return x_series(B, None, L, **kw)
    if T < 0:
        raise ValueError("negative T")
    return x_series(B, B.field.uniformizer() ** (2 * T), L, **kw)


def pi_truncated(B: DiagonalForm, a_value, L: int, T_max: int):
    """Coefficientwise truncation sum_{T <= T_max} a^T x_series(B, T, L),
    returned as a tuple of L + 1 exact rationals (a polynomial in z).

    `a_value` stands for q^(-alpha); the caller owns the tail bound.
    """
    if T_max < 0:
        raise ValueError("negative T_max")
    a = Fraction(a_value)
    w = B.field.uniformizer()
    total = [Fraction(0)] * (L + 1)
    apow = Fraction(1)
    for s in x_series_many(B, [w ** (2 * T) for T in range(T_max + 1)], L):
        for i, c in enumerate(s.coeffs):
            total[i] += apow * c
        apow *= a
    return tuple(total)


# ---------------------------------------------------------------------------
# The mod-2 projective-line conic count (unramified fields only)
# ---------------------------------------------------------------------------

def residually_anisotropic_pair(field: LocalField):
    """Units u, v with (1+2u, 1+2v) = -1, i.e. u x^2 + xy + v y^2 = 0 mod 2
    forces x = y = 0 mod 2.  Cross-checked both ways."""
    from .localfield import hilbert_symbol
    if field.e != 1:
        raise ValueError("needs an unramified dyadic field")
    ring1 = field.ring(1)
    two = field.elt(2)
    units = [ring1.lift(c) for c in ring1.elements() if ring1.is_unit(c)]
    for u in units:
        for v in units:
            if hilbert_symbol(field, 1 + two * u, 1 + two * v) == -1:
                # the mod-2 conic's only zero is x = y = 0 mod 2
                if conic_measure(field, u, v, 1) != Fraction(1, field.q ** 2):
                    raise InternalConsistencyError(
                        "symbol -1 but the mod-2 conic has a nonzero point")
                return u, v
    raise InternalConsistencyError("no residually anisotropic pair found")


def conic_measure(field: LocalField, u, v, ell: int, C=1, bx=0, ay=0, d0=0) -> Fraction:
    """Measure of {(x, y) : u x^2 + C xy + v y^2 + bx*x + ay*y + d0 = 0 mod 2^ell}
    counted directly (vectorized over all residue pairs)."""
    if field.e != 1:
        raise ValueError("the conic count is for unramified dyadic fields")
    if ell < 1:
        raise ValueError("need ell >= 1")
    ring = field.ring(ell)
    xs = ring.coords()
    sq = ring.mul(xs, xs)
    u, v, C, bx, ay, d0 = (ring.reduce(_as_element(field, c))
                           for c in (u, v, C, bx, ay, d0))
    # the parts in x alone and in y alone once over the ring; only C x y is
    # formed over the size^2 pairs (x runs slowest, as np.repeat lays it)
    fx = ring.add(ring.add(ring.mul(u, sq), ring.mul(bx, xs)), d0)
    gy = ring.add(ring.mul(v, sq), ring.mul(ay, xs))
    cx = ring.mul(C, xs)
    pair_x = partial(np.repeat, repeats=ring.size)
    pair_y = partial(np.tile, reps=ring.size)
    val = ring.add(ring.add(tuple(map(pair_x, fx)), tuple(map(pair_y, gy))),
                   ring.mul(tuple(map(pair_x, cx)), tuple(map(pair_y, xs))))
    zero = np.logical_and.reduce([c == 0 for c in val])
    return Fraction(int(zero.sum()), ring.size ** 2)
