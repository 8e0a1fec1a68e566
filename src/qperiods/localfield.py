"""Supported local fields and exact arithmetic in their residue rings o/pi^L.

Three families are implemented:

* the base field of p-adic numbers (any prime p),
* its unramified quadratic extension, modelled at level L by the rank-2
  Galois ring Z/p^L [g] with g^2 = -c1*g - c0,
* for p = 2 only, a ramified quadratic extension cut out by an Eisenstein
  polynomial x^2 + c1*x + c0 (c1 even, c0 = 2 mod 4), where o/pi^L is
  Z/2^ceil(L/2) + Z/2^floor(L/2) * pi.

Elements carry exact integer coordinates, so valuations are exact and all
measures come out as Fractions.  On top of the ring layer sit the
quadratic-defect classifier, the Hilbert symbol (rule-based answers are
always cross-checked against a primitive-solution search), square-root
counting, and the companion-unit search used by the binary and ternary
form constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class InternalConsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagreed."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _v(p: int, x: int):
    """p-adic valuation of a rational integer, inf for 0."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _smallest_nonresidue(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return r
    raise ValueError("no quadratic nonresidue found for p = %d" % p)


class LocalField:
    """Descriptor for one supported field; use make_field to construct."""

    def __init__(self, p, f, variant, c1=None, c0=None):
        self.p = p
        self.f = f
        self.variant = variant  # "base" | "unramified" | "ramified"
        self.q = p ** f
        if variant == "ramified":
            self.c1, self.c0 = c1, c0
            self.ncoords = 2
            self.e = 2  # ord 2
            self.eram = 2
        elif variant == "unramified":
            if p == 2:
                # g generates the Galois ring, g^2 = -g - 1 (cube root of 1)
                self.c1, self.c0 = 1, 1
            else:
                r = _smallest_nonresidue(p)
                self.c1, self.c0 = 0, -r
            self.ncoords = 2
            self.e = 1 if p == 2 else 0
            self.eram = 1
        else:
            self.c1 = self.c0 = None
            self.ncoords = 1
            self.e = 1 if p == 2 else 0
            self.eram = 1
        self._rings = {}
        self._defect_cache = {}
        self._class_cache = {}
        self._symbol_cache = {}
        self._unit_reps = None

    # -- construction helpers -------------------------------------------------

    def elt(self, *coords) -> "FieldElt":
        if len(coords) == 1 and isinstance(coords[0], FieldElt):
            src = coords[0]
            if src.field is not self:
                raise ValueError("element belongs to a different field")
            return src
        coords = tuple(int(c) for c in coords)
        if len(coords) > self.ncoords:
            raise ValueError("too many coordinates for this field")
        coords = coords + (0,) * (self.ncoords - len(coords))
        return FieldElt(self, coords)

    def uniformizer(self) -> "FieldElt":
        if self.variant == "ramified":
            return self.elt(0, 1)
        return self.elt(self.p)

    def one(self) -> "FieldElt":
        return self.elt(1)

    def zero(self) -> "FieldElt":
        return self.elt(0)

    def ring(self, level: int) -> "ResidueRing":
        if level < 0:
            raise ValueError("level must be >= 0")
        if level not in self._rings:
            self._rings[level] = ResidueRing(self, level)
        return self._rings[level]

    # -- arithmetic on raw coordinate tuples (no modulus) ---------------------

    def _mul(self, a, b):
        if self.ncoords == 1:
            return (a[0] * b[0],)
        x1, y1 = a
        x2, y2 = b
        return (x1 * x2 - self.c0 * y1 * y2,
                x1 * y2 + x2 * y1 - self.c1 * y1 * y2)

    def _ord(self, coords):
        if self.ncoords == 1:
            v = _v(self.p, coords[0])
            return v if self.eram == 1 else 2 * v
        x, y = coords
        if self.variant == "ramified":
            return min(2 * _v(2, x), 2 * _v(2, y) + 1)
        return min(_v(self.p, x), _v(self.p, y))

    # -- identity / serialization ---------------------------------------------

    def __repr__(self):
        if self.variant == "ramified":
            return "LocalField(p=2, ramified x^2%+dx%+d)" % (self.c1, self.c0)
        return "LocalField(p=%d, f=%d, %s)" % (self.p, self.f, self.variant)

    def to_json(self):
        return {"p": self.p, "f": self.f, "variant": self.variant,
                "c1": self.c1 if self.variant == "ramified" else None,
                "c0": self.c0 if self.variant == "ramified" else None}

    @staticmethod
    def from_json(obj) -> "LocalField":
        if obj["variant"] == "ramified":
            return make_field(obj["p"], obj["f"], "ramified",
                              c1=obj["c1"], c0=obj["c0"])
        return make_field(obj["p"], obj["f"], obj["variant"])


@lru_cache(maxsize=None)
def _field_cached(p, f, variant, c1, c0):
    return LocalField(p, f, variant, c1, c0)


def make_field(p: int, f: int = 1, variant: str = "base",
               c1: int = None, c0: int = None) -> LocalField:
    """Build a field descriptor.

    variant is "base", "unramified" (requires f = 2), or "ramified"
    (p = 2, f = 1 only, with Eisenstein data x^2 + c1 x + c0).
    """
    if not _is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if f not in (1, 2):
        raise ValueError("residue degree f must be 1 or 2")
    if variant == "base":
        if f != 1:
            raise ValueError("base variant has f = 1; use variant='unramified'")
        return _field_cached(p, 1, "base", None, None)
    if variant == "unramified":
        if f != 2:
            raise ValueError("unramified quadratic variant needs f = 2")
        return _field_cached(p, 2, "unramified", None, None)
    if variant == "ramified":
        if p != 2 or f != 1:
            raise ValueError("ramified quadratic support is p = 2, f = 1 only")
        if c1 is None or c0 is None:
            raise ValueError("ramified variant needs Eisenstein c1, c0")
        c1, c0 = int(c1), int(c0)
        if c1 % 2 != 0 or c0 % 2 != 0 or (c0 // 2) % 2 == 0:
            raise ValueError("need ord c1 >= 1 and ord c0 = 1 (c0 = 2 mod 4)")
        return _field_cached(2, 1, "ramified", c1, c0)
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
        if self.field.ncoords == 1:
            return "%d" % self.coords[0]
        x, y = self.coords
        gen = "w" if self.field.variant == "ramified" else "g"
        if y == 0:
            return "%d" % x
        if x == 0:
            return "%d%s" % (y, gen) if y != 1 else gen
        return "%d%+d%s" % (x, y, gen)

    def to_json(self, level: int = None):
        obj = {"coords": [str(c) for c in self.coords]}
        if level is not None:
            obj["level"] = level
        return obj


def elt_from_json(field: LocalField, obj) -> FieldElt:
    return field.elt(*[int(s) for s in obj["coords"]])


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
        if field.ncoords == 1:
            self.moduli = (field.p ** level,)
        elif field.variant == "ramified":
            self.moduli = (2 ** ((level + 1) // 2), 2 ** (level // 2))
        else:
            self.moduli = (field.p ** level, field.p ** level)
        self.size = field.q ** level

    def reduce(self, x):
        coords = x.coords if isinstance(x, FieldElt) else x
        return tuple(c % m for c, m in zip(coords, self.moduli))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def mul(self, a, b):
        return self.reduce(self.field._mul(a, b))

    def ord_of(self, coords):
        """Valuation of each class, capped at the ring level, as an int64
        array: one divisibility step per level (a class of ord >= k has
        every coordinate divisible by the k-th step)."""
        f = self.field
        o = np.zeros(np.broadcast(*coords).shape, dtype=np.int64)
        for k in range(1, self.level + 1):
            steps = ((2 ** ((k + 1) // 2), 2 ** (k // 2))
                     if f.variant == "ramified" else (f.p ** k,) * f.ncoords)
            o += np.logical_and.reduce([c % s == 0 for c, s in zip(coords, steps)])
        return o

    def is_unit(self, coords):
        """ord == 0, read from the residues mod p in one pass.  Every class
        of the zero ring (level 0) is a unit."""
        f = self.field
        unit = self.level == 0
        for c in coords[:1] if f.variant == "ramified" else coords:
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
    """Outcome of the defect scan: kind "square" or "defect" with exponent d.

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


def quadratic_defect(field: LocalField, rho, level: int = None) -> DefectResult:
    """Classify rho = eta^2 + b by the largest attainable ord(b).

    The scan is exhaustive over o/pi^L with L = ord(rho) + 2e + 2 by
    default; a caller-supplied smaller level is rejected since it cannot
    separate the classes.
    """
    rho = field.elt(rho) if isinstance(rho, int) else rho
    if rho.is_zero():
        raise ValueError("quadratic defect of 0 is undefined here")
    o = int(rho.ord())
    min_level = o + 2 * field.e + 2
    if level is None:
        level = min_level
    elif level < min_level:
        raise ValueError("working level %d too small, need >= %d" % (level, min_level))
    ring = field.ring(level)
    target = ring.reduce(rho)
    key = (target, level)
    hit = field._defect_cache.get(key)
    if hit is not None:
        return hit
    xs = ring.coords()
    best = int(ring.ord_of(ring.sub(target, ring.mul(xs, xs))).max())
    if best >= o + 2 * field.e + 1:
        result = DefectResult("square", None, o)
    else:
        result = DefectResult("defect", best, o)
    field._defect_cache[key] = result
    return result


def is_square(field: LocalField, rho) -> bool:
    return quadratic_defect(field, rho).is_square


def unit_defect_kind(field: LocalField, rho):
    """("square", None) | ("unit4", 2e) | ("unitd", odd d) for a unit rho."""
    res = quadratic_defect(field, rho)
    if res.o != 0:
        raise ValueError("unit expected")
    if res.is_square:
        return ("square", None)
    if res.d == 2 * field.e:
        return ("unit4", res.d)
    return ("unitd", res.d)


# ---------------------------------------------------------------------------
# Unit square classes
# ---------------------------------------------------------------------------

def unit_class_reps(field: LocalField):
    """Canonical unit square-class representatives, in traversal order.

    The traversal is the fixed elements() order of the ring at level
    2e + 1 (unit squares are exactly the classes of 1 there), so the
    representative list and everything searched through it is
    deterministic.
    """
    if field._unit_reps is not None:
        return field._unit_reps
    ring = field.ring(2 * field.e + 1)
    reps = []
    for coords in ring.elements():
        if not ring.is_unit(coords):
            continue
        cand = ring.lift(coords)
        if any(is_square(field, cand * r) for r in reps):
            continue
        reps.append(cand)
    field._unit_reps = reps
    return reps


def square_class_key(field: LocalField, x):
    """(ord mod 2, index of the unit-class representative) for nonzero x."""
    x = field.elt(x) if isinstance(x, int) else x
    if x.is_zero():
        raise ValueError("zero has no square class")
    o = int(x.ord())
    # strip even uniformizer powers where coordinate division is exact;
    # the ramified model keeps the full element and pays with a larger scan
    if field.variant != "ramified":
        t = (o // 2) * (2 // field.eram)  # p-exponent of the square part
        pt = field.p ** t
        x = field.elt(*[c // pt for c in x.coords])
        o = int(x.ord())
    key0 = (x.coords, o)
    hit = field._class_cache.get(key0)
    if hit is not None:
        return hit
    reps = unit_class_reps(field)
    pio = field.uniformizer() ** o
    for i, r in enumerate(reps):
        if is_square(field, x * pio * r):
            out = (o % 2, i)
            field._class_cache[key0] = out
            return out
    raise InternalConsistencyError("unit class of %r not found" % (x,))


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


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------

def _residue_char(field: LocalField, u) -> int:
    """Quadratic character of the residue of a unit, odd p only."""
    p = field.p
    if field.f == 1:
        t = pow(u.coords[0] % p, (p - 1) // 2, p)
    else:
        a, b = u.coords[0] % p, u.coords[1] % p
        r = -field.c0  # generator relation g^2 = r
        norm = (a * a - r * b * b) % p
        t = pow(norm, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _split_odd(field, x):
    """(parity of ord, unit part) for odd p, by exact coordinate division."""
    o = int(x.ord())
    pt = field.p ** o  # ord counts pi = p powers directly
    unit = field.elt(*[c // pt for c in x.coords])
    return o, unit


def _symbol_tame(field: LocalField, a, b) -> int:
    s, u = _split_odd(field, a)
    t, v = _split_odd(field, b)
    chi_u = _residue_char(field, u)
    chi_v = _residue_char(field, v)
    if field.f == 2:
        chi_m1 = 1  # -1 is a square in the residue field of order p^2
    else:
        chi_m1 = 1 if field.p % 4 == 1 else -1
    out = 1
    if s % 2 and t % 2:
        out *= chi_m1
    if t % 2:
        out *= chi_u
    if s % 2:
        out *= chi_v
    return out


def _symbol_by_rules(field: LocalField, a, b, akind, bkind, apar, bpar):
    """Closed-form value where the case analysis is solid, else None."""
    if akind[0] == "square" and apar == 0:
        return 1
    if bkind[0] == "square" and bpar == 0:
        return 1
    if field.p != 2:
        return _symbol_tame(field, a, b)
    if akind[0] == "unit4" and apar == 0:
        return -1 if bpar else 1
    if bkind[0] == "unit4" and bpar == 0:
        return -1 if apar else 1
    if field.f == 2 and apar == 0 and bpar == 0:
        # express each unit as square * (1 + 2c); the symbol is (-1)^Tr(c d)
        c = _one_plus_2c(field, a)
        d = _one_plus_2c(field, b)
        prod = field._mul(c, d)
        return -1 if prod[1] % 2 else 1
    return None


def _one_plus_2c(field, u):
    """Residue pair of c where u * eta^2 = 1 + 2c; unramified dyadic only."""
    ring = field.ring(2 * field.e + 1)
    xs = ring.coords()
    x, y = ring.sub(ring.mul(ring.reduce(u), ring.mul(xs, xs)), (1, 0))
    hits = np.flatnonzero(ring.is_unit(xs) & (x % 2 == 0) & (y % 2 == 0))
    if not len(hits):
        raise InternalConsistencyError("unit not expressible as square*(1+2c)")
    return (int(x[hits[0]]) // 2 % 2, int(y[hits[0]]) // 2 % 2)


def _symbol_by_search(field: LocalField, a, b) -> int:
    """Ground truth: does a x^2 + b y^2 - z^2 have a primitive zero?"""
    from . import kernels
    level = 2 * field.e + 3
    ring = field.ring(level)
    found = kernels.primitive_zero_exists(ring, [a, b, field.elt(-1)])
    return 1 if found else -1


def hilbert_symbol(field: LocalField, a, b) -> int:
    """+1 iff a x^2 + b y^2 = z^2 has a nontrivial solution.

    Rule-based answers (squares, the defect-4o partner rule, the tame
    formula, the unramified trace rule) are cross-checked against the
    enumeration whenever the search ring is affordable; a disagreement is
    an internal error, never a silent answer.
    """
    a = field.elt(a) if isinstance(a, int) else a
    b = field.elt(b) if isinstance(b, int) else b
    if a.is_zero() or b.is_zero():
        raise ValueError("hilbert symbol needs nonzero arguments")
    ka = square_class_key(field, a)
    kb = square_class_key(field, b)
    key = (min(ka, kb), max(ka, kb))
    hit = field._symbol_cache.get(key)
    if hit is not None:
        return hit
    ra = square_class_rep(field, a)
    rb = square_class_rep(field, b)
    akind = unit_defect_kind(field, unit_class_reps(field)[ka[1]])
    bkind = unit_defect_kind(field, unit_class_reps(field)[kb[1]])
    rule = _symbol_by_rules(field, ra, rb, akind, bkind, ka[0], kb[0])
    search = None
    if field.q ** (2 * field.e + 3) <= 1 << 13:
        search = _symbol_by_search(field, ra, rb)
    if rule is None and search is None:
        raise InternalConsistencyError("no rule and search ring too large")
    if rule is not None and search is not None and rule != search:
        raise InternalConsistencyError(
            "hilbert symbol mismatch for %r, %r: rules say %d, search says %d"
            % (ra, rb, rule, search))
    out = search if search is not None else rule
    field._symbol_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Square-root counting (the measure of {x : x^2 = rho mod pi^l})
# ---------------------------------------------------------------------------

def count_square_roots(field: LocalField, rho, ell: int) -> Fraction:
    """Exact measure of square roots of rho modulo pi^ell, meas(o) = 1."""
    rho = field.elt(rho) if isinstance(rho, int) else rho
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
    binary constructions: pi when delta has defect 4o, else a unit of
    defect pi*o found by the fixed traversal.  Every candidate is verified
    through hilbert_symbol before being returned."""
    delta = field.elt(delta) if isinstance(delta, int) else delta
    kind, d = unit_defect_kind(field, delta)
    if kind == "square":
        raise ValueError("delta is a square; no companion exists")
    if kind == "unit4":
        pi = field.uniformizer()
        if hilbert_symbol(field, pi, delta) != -1:
            raise InternalConsistencyError("(pi, delta) != -1 for defect-4o delta")
        return pi
    for u in unit_class_reps(field):
        ukind, ud = unit_defect_kind(field, u)
        if ukind == "unitd" and ud == 1 and hilbert_symbol(field, u, delta) == -1:
            return u
    raise InternalConsistencyError("companion search exhausted for %r" % (delta,))
