"""Ground-truth solution-measure oracles.

X_ell(rho) is the measure of {a in o^n : B(a) = rho mod 2 pi^ell},
computed exactly: by honest enumeration, by the histogram-convolution
kernel, or (past the stabilization level) by the Hensel scaling laws.
count_level_histogram counts one level and target on its own;
x_series_many reads every level of several targets from one value
distribution of the form, and x_series is its one-target case.
Everything returns Fractions; nothing here is symbolic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from . import kernels
from .localfield import InternalConsistencyError, LocalField
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
    if rho is None:
        return field.zero()
    if isinstance(rho, int):
        return field.elt(rho)
    return rho


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
    """Same measure through per-coordinate value histograms convolved over
    the additive group of o/2 pi^ell."""
    return _level_measure(B, rho, ell, partial(
        kernels.solution_count, planes=B.planes))


def _cutoff(field, rho) -> int:
    """The last level the stabilized mode counts, ord(2 rho) + 1 (e + 1 for
    rho = 0); the stabilization laws give the levels past it."""
    return field.e + 1 + (0 if rho.is_zero() else int(rho.ord()))


def x_series_many(B: DiagonalForm, rhos, L: int,
                  direct: bool = False) -> list:
    """x_series(B, rho, L, direct=direct) for every rho in rhos, all read
    from one value distribution of B over the deepest ring they count.

    A level-l measure is a coset sum of that distribution: reduction to a
    lower level is componentwise, and every tuple over the deep ring
    covers (deep size / level size)^n tuples over o/2 pi^l.
    """
    if L < 0:
        raise ValueError("negative truncation order")
    field = B.field
    rhos = [_as_element(field, rho) for rho in rhos]
    if not direct and not is_anisotropic(B):
        raise ValueError("stabilized extension needs an anisotropic form")
    counted = [L if direct else min(L, _cutoff(field, rho)) for rho in rhos]
    deep = field.ring(max(counted, default=0) + field.e)
    dist = kernels.ValueDistribution(
        deep, _coeff_coords(B), B.planes) if B.n else None

    def count(ring, coeffs, target):
        return (dist.count(ring.moduli, target)
                // (deep.size // ring.size) ** B.n)

    out = []
    for rho, k in zip(rhos, counted):
        vals = [_level_measure(B, rho, l, count) for l in range(k + 1)]
        if rho.is_zero():
            step = Fraction(1, field.q ** B.n)
            while len(vals) <= L:
                vals.append(vals[-2] * step)
        else:
            step = Fraction(1, field.q)
            while len(vals) <= L:
                vals.append(vals[-1] * step)
        out.append(TruncatedSeries(vals))
    return out


def x_series(B: DiagonalForm, rho, L: int, verify: int = 0,
             direct: bool = False) -> TruncatedSeries:
    """X_0..X_L for a target rho = unit * pi^(2T), or rho = 0 (pass None or 0).

    In the default stabilized mode, levels beyond ord(2 rho) + 1 come from
    the one-step law X_{l+1} = X_l / q (two-step X_{l+2} = X_l / q^n for the
    zero target); that shortcut is only sound for anisotropic forms, so
    isotropic input is rejected unless `direct` asks for full counting.
    `verify` recomputes that many extended levels by direct counting, one
    level at a time through count_level_histogram.
    """
    series = x_series_many(B, [rho], L, direct)[0]
    if verify > 0 and not direct:
        rho = _as_element(B.field, rho)
        cutoff = _cutoff(B.field, rho)
        for l in range(cutoff + 1, min(L, cutoff + verify) + 1):
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
    xs = tuple(np.repeat(c, ring.size) for c in ring.coords())
    ys = tuple(np.tile(c, ring.size) for c in ring.coords())
    val = ring.reduce(_as_element(field, d0))
    # one term at a time, so one monomial of size^2 classes is held at once
    for coef, mono in ((u, (xs, xs)), (C, (xs, ys)), (v, (ys, ys)),
                       (bx, (xs,)), (ay, (ys,))):
        term = ring.reduce(_as_element(field, coef))
        for m in mono:
            term = ring.mul(term, m)
        val = ring.add(val, term)
    zero = np.logical_and.reduce([c == 0 for c in val])
    return Fraction(int(zero.sum()), ring.size ** 2)
