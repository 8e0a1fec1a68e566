"""Supported local fields and exact arithmetic in their residue rings o/pi^L.

A field is its two polynomials.  Its ring of integers is o = W[pi]: W =
Z_p[g] is the Galois ring cut out by a Galois polynomial of degree f, and
pi is a root of an Eisenstein polynomial of degree e0 over W, and
LocalField(p, gal, eis, label) builds every table from those two alone.
Coordinate (i, j) of an element is the integer coefficient of g^i pi^j,
taken mod p^ceil((L - j)/e0) in o/pi^L, and a product is one bilinear sum
over structure constants built from the two polynomials.  make_field is
the one place that maps a spelling to its polynomials: (f, e0) = (1, 1),
Q_p with pi = p; (2, 1), the unramified quadratic extension; and (1, 2),
for p = 2 the ramified quadratic extension by x^2 + c1*x + c0.  Every
element enters through field.elt, which reads integers exactly and
refuses an element of another field.

Elements carry exact integer coordinates, so valuations are exact and all
measures come out as Fractions.  On top of the ring layer sit the
square-class table, the quadratic defect, the Hilbert symbol,
square-root counting, and the companion-unit search used by the binary
and ternary form constructions.

Square classes and defects come from one table per field over
o/pi^(2e+1): by the local square theorem (O'Meara, Introduction to
Quadratic Forms, section 63) a unit is a square exactly when its residue
there is one.  An element is split as pi^ord times a unit (unit_part), and its
class and defect are read from the table, so no call scans the ring once
the table exists.

The Hilbert symbol is a symmetric bilinear form on the F2-space K*/K*^2
(O'Meara, section 63; Serre, A Course in Arithmetic, ch. III).  Every
symbol is read from its Gram matrix, built once per field and checked for
nondegeneracy, (x, -x) = 1 and the unit4 pairing (SquareClasses.gram).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import kernels


class InternalConsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagreed."""


def _v(p: int, x: int):
    """p-adic valuation of a rational integer, inf for 0.

    For p = 2 it is the position of the lowest set bit.  Otherwise
    p, p^2, p^4, ... are divided out while they divide x, and then the
    same powers in reverse order pick up the rest, one binary digit of
    the valuation each: O(log v) divisions instead of v.
    """
    x = int(x)
    if x == 0:
        return math.inf
    if p == 2:
        return (x & -x).bit_length() - 1
    v, powers = 0, []
    pk = p
    while x % pk == 0:
        x //= pk
        v += 1 << len(powers)
        powers.append(pk)
        pk *= pk
    for i in range(len(powers) - 1, -1, -1):
        if x % powers[i] == 0:
            x //= powers[i]
            v += 1 << i
    return v


def _smallest_nonresidue(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return r
    raise ValueError("no quadratic nonresidue found for p = %d" % p)


def _reduce(terms, gal, eis):
    """Coordinates of the sum of the monomials c g^i pi^j in terms, a list
    of ((i, j), c) that the call consumes, reduced by g^f = -(gal[f-1] g^(f-1) + ... + gal[0]) and
    pi^e0 = -(eis[e0-1] pi^(e0-1) + ... + eis[0]), eis[j] in W."""
    f, e0 = len(gal), len(eis)
    out = [0] * (f * e0)
    while terms:
        (i, j), c = terms.pop()
        if i >= f:
            terms += [((i - f + k, j), -c * a) for k, a in enumerate(gal) if a]
        elif j >= e0:
            terms += [((i + k, j - e0 + m), -c * a)
                      for m, w in enumerate(eis) for k, a in enumerate(w) if a]
        else:
            out[i + f * j] += c
    return tuple(out)


class LocalField:
    """One field, given by its ring of integers o = W[pi]: gal is the Galois
    polynomial of W over Z_p and eis the Eisenstein polynomial of pi over
    W, as coefficient tuples (see _reduce), so f and e0 are their degrees.
    label is make_field's spelling of the field; only __repr__ and to_json
    read it.  Use make_field to construct."""

    def __init__(self, p, gal, eis, label):
        self.p = p
        self.f = len(gal)
        self.e0 = len(eis)
        self.q = p ** self.f
        self.label = label
        self.ncoords = self.e0 * self.f
        self.e = self.e0 if p == 2 else 0  # ord 2, and 0 (tame) for odd p
        basis = [(k % self.f, k // self.f) for k in range(self.ncoords)]  # g^i pi^j
        self._pi_exps = tuple(j for _, j in basis)
        # each coordinate's monomial as printed: g^i w^j, w the uniformizer
        self._names = tuple(("g^%d" % i if i > 1 else "g" * i)
                            + ("w^%d" % j if j > 1 else "w" * j) for i, j in basis)
        table = [[_reduce([((i1 + i2, j1 + j2), 1)], gal, eis)
                  for i2, j2 in basis] for i1, j1 in basis]
        # coordinate k of a * b sums c * a[i] * b[j] over the terms (k, i, j, c)
        self._mul_terms = tuple((k, i, j, c[k]) for i, row in enumerate(table)
                                for j, c in enumerate(row)
                                for k in range(self.ncoords) if c[k])
        self._pi = _reduce([((0, 1), 1)], gal, eis)
        # pi pi' = eis[0] for pi' = -(pi^(e0-1) + eis[e0-1] pi^(e0-2) + ...
        # + eis[1]); unit_part multiplies by pi' eis[0] / p
        self._unit_factor = _reduce(
            [((i + k, j), -a * (b // p)) for j, w in enumerate(eis[1:] + ((1,),))
             for i, a in enumerate(w) for k, b in enumerate(eis[0])], gal, eis)
        self._rings = {}
        self._defect_cache = {}
        self._symbol_cache = {}

    # -- construction helpers -------------------------------------------------

    def elt(self, *coords) -> "FieldElt":
        if len(coords) == 1 and isinstance(coords[0], FieldElt):
            src = coords[0]
            if src.field is not self:
                raise ValueError("element belongs to a different field")
            return src
        coords = tuple(map(operator.index, coords))
        if len(coords) > self.ncoords:
            raise ValueError("too many coordinates for this field")
        coords = coords + (0,) * (self.ncoords - len(coords))
        return FieldElt(self, coords)

    def uniformizer(self) -> "FieldElt":
        return FieldElt(self, self._pi)

    def one(self) -> "FieldElt":
        return self.elt(1)

    def zero(self) -> "FieldElt":
        return self.elt(0)

    @cached_property
    def square_classes(self) -> "SquareClasses":
        """The unit square-class table, built on first use."""
        return SquareClasses(self)

    def ring(self, level: int) -> "ResidueRing":
        if level < 0:
            raise ValueError("level must be >= 0")
        if level not in self._rings:
            self._rings[level] = ResidueRing(self, level)
        return self._rings[level]

    # -- arithmetic on raw coordinate tuples (no modulus) ---------------------

    def _mul(self, a, b):
        """One bilinear sum over the structure constants, on ints and int64
        arrays alike (c * a[i] * b[j] stays within |c| times a product of
        two reduced coordinates, so int64 products of reduced classes fit)."""
        out = [0] * self.ncoords
        for k, i, j, c in self._mul_terms:
            out[k] = out[k] + (a[i] * b[j] if c == 1 else c * a[i] * b[j])
        return tuple(out)

    def _ord(self, coords):
        """min over (i, j) of e0 * v_p(a_ij) + j; inf for 0."""
        return min(self.e0 * _v(self.p, c) + j
                   for c, j in zip(coords, self._pi_exps))

    def _moduli(self, level):
        """p^ceil((level - j)/e0) for each coordinate (i, j) of o/pi^level."""
        return tuple(self.p ** -((j - level) // self.e0) for j in self._pi_exps)

    # -- identity / serialization ---------------------------------------------

    def __repr__(self):
        variant, c1, c0 = self.label
        if variant == "ramified":
            return "LocalField(p=2, ramified x^2%+dx%+d)" % (c1, c0)
        return "LocalField(p=%d, f=%d, %s)" % (self.p, self.f, variant)

    def to_json(self):
        variant, c1, c0 = self.label
        return {"p": self.p, "f": self.f, "variant": variant,
                "c1": c1, "c0": c0}


_field_cached = lru_cache(maxsize=None)(LocalField)


def _integer(name, x):
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, x)) from None


def make_field(p: int, f: int = 1, variant: str = "base",
               c1: int = None, c0: int = None) -> LocalField:
    """The field of one spelling, with its defining polynomials: "base" is
    Q_p, pi = p; "unramified" (f = 2 only) has g^2 = -g - 1 for p = 2 and
    g^2 = r, the least nonresidue, for odd p; "ramified" (p = 2, f = 1
    only) has pi^2 + c1 pi + c0 = 0, which must be Eisenstein, and no other
    variant takes c1 or c0.  p, f, c1 and c0 must be integers, and p below
    kernels._PRIME_TEST_LIMIT, where primality is decided exactly.  One
    spelling gives one object.
    """
    p, f = _integer("p", p), _integer("f", f)
    if not kernels._is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if f not in (1, 2):
        raise ValueError("residue degree f must be 1 or 2")
    if variant in ("base", "unramified"):
        for name, c in (("c1", c1), ("c0", c0)):
            if c is not None:
                raise ValueError("%s = %r is given, but only the ramified "
                                 "variant has Eisenstein coefficients"
                                 % (name, c))
    if variant == "base":
        if f != 1:
            raise ValueError("base variant has f = 1; use variant='unramified'")
        return _field_cached(p, (-1,), ((-p,),), ("base", None, None))
    if variant == "unramified":
        if f != 2:
            raise ValueError("unramified quadratic variant needs f = 2")
        gal = (1, 1) if p == 2 else (-_smallest_nonresidue(p), 0)
        return _field_cached(p, gal, ((-p, 0),), ("unramified", None, None))
    if variant == "ramified":
        if p != 2 or f != 1:
            raise ValueError("ramified quadratic support is p = 2, f = 1 only")
        if c1 is None or c0 is None:
            raise ValueError("ramified variant needs Eisenstein c1, c0")
        c1, c0 = _integer("c1", c1), _integer("c0", c0)
        if c1 % 2 != 0 or c0 % 2 != 0 or (c0 // 2) % 2 == 0:
            raise ValueError("need ord c1 >= 1 and ord c0 = 1 (c0 = 2 mod 4)")
        return _field_cached(2, (-1,), ((c0,), (c1,)), ("ramified", c1, c0))
    raise ValueError("unknown variant %r" % (variant,))


class FieldElt:
    """Ring-of-integers element with exact integer coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def ord(self):
        return self.field._ord(self.coords)

    def is_unit(self) -> bool:
        return self.ord() == 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _coerce(self, other):
        if isinstance(other, FieldElt):
            if other.field is not self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return self.field.elt(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElt(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElt(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElt(self.field, self.field._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not integral")
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        """The nonzero terms c g^i w^j, w the uniformizer; a lone
        coefficient 1 in front of a generator is dropped."""
        text = "".join("%+d%s" % (c, name) for c, name in
                       zip(self.coords, self.field._names) if c).lstrip("+")
        return text[1:] if text[:1] == "1" and text[1:2].isalpha() else text or "0"


class ResidueRing:
    """The quotient o/pi^L with componentwise canonical representatives.

    This is the one implementation of ring arithmetic.  A ring element is a
    tuple of coordinates, and every operation works on coordinates that are
    Python ints or equal-length int64 arrays alike, so one call handles a
    single element or a whole batch (such as coords()).
    """

    def __init__(self, field, level):
        self.field = field
        self.level = level
        self.moduli = field._moduli(level)
        self.size = field.q ** level

    def reduce(self, x):
        coords = x.coords if isinstance(x, FieldElt) else x
        return tuple([c % m for c, m in zip(coords, self.moduli)])

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def mul(self, a, b):
        return self.reduce(self.field._mul(a, b))

    def ord_of(self, coords):
        """Valuation of each class, capped at the ring level, as an int64
        array: one divisibility step per level (a class has ord >= k
        exactly when every coordinate vanishes in o/pi^k)."""
        o = np.zeros(np.broadcast(*coords).shape, dtype=np.int64)
        for k in range(1, self.level + 1):
            o += np.logical_and.reduce([c % s == 0 for c, s in
                                        zip(coords, self.field._moduli(k))])
        return o

    def flat_index(self, coords):
        """Position of each class in the one flat layout of the ring's
        histograms and tables: mixed radix with the first coordinate
        most significant, so the last runs fastest there, unlike in
        coords()."""
        index = coords[0]
        for c, m in zip(coords[1:], self.moduli[1:]):
            index = index * m + c
        return index

    def is_unit(self, coords):
        """ord == 0, read from the j = 0 coordinates mod p in one pass.
        Every class of the zero ring (level 0) is a unit."""
        f = self.field
        unit = self.level == 0
        for c in coords[:f.f]:
            unit = unit | (c % f.p != 0)
        return unit

    def coords(self):
        """One int64 array per coordinate, jointly listing every class; x
        runs fastest, so the rational integers come first."""
        axes = [np.arange(m, dtype=np.int64) for m in self.moduli]
        return tuple(c.ravel() for c in np.meshgrid(*axes))

    def elements(self):
        """Every class as a tuple of ints, in coords() order."""
        return list(zip(*(c.tolist() for c in self.coords())))

    def lift(self, coords) -> FieldElt:
        return self.field.elt(*coords)


# ---------------------------------------------------------------------------
# Quadratic defect
# ---------------------------------------------------------------------------

class DefectResult:
    """Outcome of quadratic_defect: kind "square" or "defect" with exponent d.

    d is the absolute exponent (the defect ideal is pi^d * o), and o is the
    valuation of the input, so d - o is the defect of the unit part.
    """

    __slots__ = ("kind", "d", "o")

    def __init__(self, kind, d, o):
        self.kind = kind
        self.d = d
        self.o = o

    @property
    def is_square(self):
        return self.kind == "square"

    def __repr__(self):
        if self.kind == "square":
            return "DefectResult(square, ord=%d)" % self.o
        return "DefectResult(defect d=%d, ord=%d)" % (self.d, self.o)

    def __eq__(self, other):
        return (isinstance(other, DefectResult)
                and (self.kind, self.d, self.o) == (other.kind, other.d, other.o))


def unit_part(field: LocalField, x):
    """(ord x, u) with u a unit in the square class of x / pi^ord(x), by
    exact coordinate arithmetic: with pi pi' = N the Eisenstein constant,
    u = x (pi' N/p)^o / p^o = (x / pi^o) (N/p)^(2o), and p^o divides
    every coordinate."""
    x = field.elt(x)
    if x.is_zero():
        raise ValueError("zero has no square class")
    o = int(x.ord())
    if o:
        x = x * FieldElt(field, field._unit_factor) ** o
    return o, field.elt(*[c // field.p ** o for c in x.coords])


class SquareClasses:
    """The unit square classes of a field, from one pass over o/pi^(2e+1).

    index maps each unit residue, in the ring's flat layout, to its class
    (-1 for non-units).  reps holds the first unit of each class in
    elements() order, so class 0 is the squares (rep 1).  kinds holds each
    class's kind: ("square", None), or for a nonsquare class its defect d,
    max ord(r - x^2) at that level, as ("unit4", 2e) or ("unitd", odd d).
    gram, built on first use, is the Hilbert symbol on these classes.
    """

    def __init__(self, field):
        self.field = field
        ring = field.ring(2 * field.e + 1)
        kernels._check_search_budget("square-class table", ring)
        xs = ring.coords()
        sq = ring.mul(xs, xs)
        unit = ring.is_unit(xs)
        units, unit_sq = (tuple(c[unit] for c in v) for v in (xs, sq))
        order = ring.flat_index(units)
        self.ring = ring
        self.index = np.full(ring.size, -1, dtype=np.int64)
        self.reps, self.kinds = [], []
        free = np.flatnonzero(self.index[order] < 0)
        while len(free):
            r = tuple(int(c[free[0]]) for c in units)
            self.index[ring.flat_index(ring.mul(r, unit_sq))] = len(self.reps)
            best = int(ring.ord_of(ring.sub(r, sq)).max())
            self.reps.append(ring.lift(r))
            self.kinds.append(
                ("square", None) if best > 2 * field.e
                else ("unit4" if best == 2 * field.e else "unitd", best))
            free = np.flatnonzero(self.index[order] < 0)

    def of(self, u) -> int:
        """Class index of the unit u."""
        return int(self.index[self.ring.flat_index(self.ring.reduce(u))])

    @cached_property
    def gram(self):
        """(coords, rows): coords[i] is the F2 vector of unit class i as a
        bit mask, so pi^s u with u in class i has the vector s | coords[i],
        and rows[v] is the mask of the vectors w with (v, w) = -1.

        Bit 0 is pi, and each class the walk over reps finds unspanned
        adds a bit.  The Gram entries over that basis are the tame formula
        for odd p and one _symbol_by_search per pair for p = 2.  Checked:
        nondegenerate, (x, -x) = 1 and (unit4, x) = (-1)^ord(x) for all x.
        """
        field, reps = self.field, self.reps
        coords, basis = {0: 0}, []
        for i, r in enumerate(reps):
            if i not in coords:
                bit = 2 << len(basis)
                basis.append(r)
                for j, v in list(coords.items()):
                    coords[self.of(reps[j] * r)] = v | bit
        minus = coords[self.of(field.elt(-1))]
        if field.p == 2:
            elems = [field.uniformizer()] + basis
            gram = [0] * len(elems)
            for i, x in enumerate(elems):
                for j in range(i, len(elems)):
                    if _symbol_by_search(field, x, elems[j]) < 0:
                        gram[i] |= 1 << j
                        gram[j] |= 1 << i
        else:
            # (pi, pi) = (pi, -1) = chi(-1), (pi, u) = -1 and (u, u) = 1
            gram = [minus >> 1 | 2, 1]
        rows = [0]
        for g in gram:
            rows += [r ^ g for r in rows]
        unit4 = coords[[k for k, _ in self.kinds].index("unit4")]
        for v, row in enumerate(rows):
            # row & w has an odd number of bits exactly when (v, w) = -1
            if ((v and not row) or (row & (v ^ minus)).bit_count() % 2
                    or (rows[unit4] & v).bit_count() % 2 != v & 1):
                raise InternalConsistencyError(
                    "Hilbert symbol Gram matrix of %r breaks a law at the "
                    "class vector %d" % (field, v))
        return [coords[i] for i in range(len(reps))], rows


def quadratic_defect(field: LocalField, rho) -> DefectResult:
    """Classify rho = eta^2 + b by the largest attainable ord(b).

    With rho = pi^o u: for odd o that is o itself; for even o it is o
    plus the defect of u's class, and rho is a square when u's class is.
    """
    rho = field.elt(rho)
    if rho.is_zero():
        raise ValueError("quadratic defect of 0 is undefined here")
    hit = field._defect_cache.get(rho.coords)
    if hit is None:
        o, u = unit_part(field, rho)
        table = field.square_classes
        du = 0 if o % 2 else table.kinds[table.of(u)][1]
        hit = (DefectResult("square", None, o) if du is None
               else DefectResult("defect", o + du, o))
        field._defect_cache[rho.coords] = hit
    return hit


def is_square(field: LocalField, rho) -> bool:
    return quadratic_defect(field, rho).is_square


def unit_defect_kind(field: LocalField, rho):
    """("square", None) | ("unit4", 2e) | ("unitd", odd d) for a unit rho."""
    rho = field.elt(rho)
    if not rho.is_unit():
        raise ValueError("unit expected")
    return square_class_kind(field, rho)


# ---------------------------------------------------------------------------
# Unit square classes
# ---------------------------------------------------------------------------

def unit_class_reps(field: LocalField):
    """Canonical unit square-class representatives: the first unit of each
    class in the fixed elements() order of the ring at level 2e + 1, so
    the list and everything searched through it is deterministic."""
    return field.square_classes.reps


def square_class_key(field: LocalField, x):
    """(ord mod 2, index of the unit-class representative) for nonzero x."""
    o, u = unit_part(field, x)
    return o % 2, field.square_classes.of(u)


def square_class_rep(field: LocalField, x) -> FieldElt:
    """The canonical element unit_rep * pi^(ord mod 2) in the class of x."""
    par, i = square_class_key(field, x)
    rep = unit_class_reps(field)[i]
    return rep * field.uniformizer() if par else rep


def square_class_reps(field: LocalField):
    """All square classes of the field: unit reps and pi times them."""
    pi = field.uniformizer()
    units = unit_class_reps(field)
    return list(units) + [u * pi for u in units]


def square_class_kind(field: LocalField, x):
    """The kind of the square class of nonzero x: ("prime", None) for odd
    ord x, else the kind of the unit class of x / pi^ord(x), ("square",
    None), ("unit4", 2e) or ("unitd", odd d) with d its defect exponent."""
    par, i = square_class_key(field, x)
    return ("prime", None) if par else field.square_classes.kinds[i]


def first_class_of_kind(field: LocalField, kind, d=None):
    """The first class in square_class_reps order whose kind is `kind` and,
    when d is given, whose defect exponent is d; None if there is none.
    So "square" gives 1 and "prime" gives pi."""
    for x in square_class_reps(field):
        k, xd = square_class_kind(field, x)
        if k == kind and d in (None, xd):
            return x
    return None


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------

def _symbol_by_search(field: LocalField, a, b) -> int:
    """Ground truth: does a x^2 + b y^2 - z^2 have a primitive zero?"""
    ring = field.ring(2 * field.e + 3)
    kernels._check_search_budget("symbol search", ring)
    found = kernels.primitive_zero_exists(ring, [a, b, field.elt(-1)])
    return 1 if found else -1


def hilbert_symbol(field: LocalField, a, b) -> int:
    """+1 iff a x^2 + b y^2 = z^2 has a nontrivial solution.

    Read as (-1)^(v_a^T G v_b), with v_a and v_b the F2 vectors of the
    classes of a and b, from the Gram matrix G that SquareClasses.gram
    builds and checks once per field: an entry breaking a law of the
    symbol is an internal error, never a silent answer."""
    ka, kb = square_class_key(field, a), square_class_key(field, b)
    key = (min(ka, kb), max(ka, kb))
    hit = field._symbol_cache.get(key)
    if hit is None:
        coords, rows = field.square_classes.gram
        (s, i), (t, j) = key
        odd = (rows[s | coords[i]] & (t | coords[j])).bit_count() & 1
        hit = -1 if odd else 1
        field._symbol_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# Square-root counting (the measure of {x : x^2 = rho mod pi^l})
# ---------------------------------------------------------------------------

def count_square_roots(field: LocalField, rho, ell: int) -> Fraction:
    """Exact measure of square roots of rho modulo pi^ell, meas(o) = 1."""
    rho = field.elt(rho)
    if ell < 0:
        raise ValueError("negative modulus exponent")
    if ell == 0:
        return Fraction(1)
    q = field.q
    o = rho.ord()
    if o >= ell:
        # condition is x^2 = 0 mod pi^ell
        return Fraction(1, q ** ((ell + 1) // 2))
    res = quadratic_defect(field, rho)
    o = int(o)
    if not res.is_square:
        if res.d < ell:
            return Fraction(0)
        return Fraction(1, q ** ((ell + 1) // 2))
    if ell > 2 * field.e + o:
        return Fraction(2, q ** (ell - field.e - o // 2))
    return Fraction(1, q ** ((ell + 1) // 2))


# ---------------------------------------------------------------------------
# Companion units
# ---------------------------------------------------------------------------

def pick_companion_unit(field: LocalField, delta) -> FieldElt:
    """A partner a with (a, delta) = -1, preferring the shapes used in the
    binary constructions: pi when delta has defect 4o, by the unit4 law the
    Gram matrix checks, else a unit of defect pi*o found through
    hilbert_symbol by the fixed traversal."""
    kind, d = unit_defect_kind(field, delta)
    if kind == "square":
        raise ValueError("delta is a square; no companion exists")
    if kind == "unit4":
        return field.uniformizer()
    for u in unit_class_reps(field):
        if (square_class_kind(field, u) == ("unitd", 1)
                and hilbert_symbol(field, u, delta) == -1):
            return u
    raise InternalConsistencyError("companion search exhausted for %r" % (delta,))
