"""Diagonal quadratic forms, their invariants, and anisotropy.

A form is B(x) = sum a_i x_i^2 with coefficient valuations normalized
into {0, 1}, optionally extended by hyperbolic-plane summands 2*x*y
(those only matter to the counting layer; they are isotropic by
construction).  Classification is by dimension, signed discriminant and
the product-of-symbols invariant.  Anisotropy is decided from those
invariants alone; the primitive-zero enumeration `_anisotropic_by_search`
is the oracle that `qperiods verify` and the tests hold the rule against.
"""

from __future__ import annotations

from functools import cache

from .localfield import (
    FieldElt, InternalConsistencyError, LocalField, first_class_of_kind,
    hilbert_symbol, is_square, make_field, pick_companion_unit,
    square_class_key, square_class_kind, square_class_rep, square_class_reps,
    unit_class_reps,
)
# unused here, but perfbench's tracer test asserts this alias is rewrapped
from .localfield import quadratic_defect  # noqa: F401
from . import kernels


class DiagonalForm:
    """Immutable diagonal form; `planes` counts extra 2xy summands."""

    __slots__ = ("field", "coeffs", "planes")

    def __init__(self, field: LocalField, coeffs, planes: int = 0):
        self.field = field
        self.planes = int(planes)
        if self.planes < 0:
            raise ValueError("negative plane count")
        given = tuple(field.elt(c) for c in coeffs)
        for a in given:
            if a.is_zero():
                raise ValueError("zero coefficient")
        self.coeffs = tuple(_normalize_coeff(field, a) for a in given)

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs) + 2 * self.planes

    def effective_diagonal(self):
        """Coefficients with planes replaced by the field-equivalent <2, -2>.

        Good enough for discriminant and symbol products, which only see
        the quadratic space, not the integral structure.
        """
        extra = []
        for _ in range(self.planes):
            extra.extend([self.field.elt(2), self.field.elt(-2)])
        return list(self.coeffs) + extra

    def __eq__(self, other):
        return (isinstance(other, DiagonalForm)
                and self.field is other.field
                and self.coeffs == other.coeffs
                and self.planes == other.planes)

    def __repr__(self):
        parts = [repr(a) for a in self.coeffs]
        if self.planes:
            parts.append("%d planes" % self.planes)
        return "DiagonalForm<%s>" % ", ".join(parts) if parts else "DiagonalForm<0>"


def _normalize_coeff(field, a) -> FieldElt:
    """a itself at ord 0 or 1, else the canonical rep of its square class,
    unit_rep * pi^(ord mod 2)."""
    return a if a.ord() <= 1 else square_class_rep(field, a)


class FormInvariants:
    """(dimension, signed discriminant class, symbol product)."""

    __slots__ = ("m", "disc_rep", "disc_kind", "d", "hmi")

    def __init__(self, m, disc_rep, disc_kind, d, hmi):
        self.m = m
        self.disc_rep = disc_rep
        self.disc_kind = disc_kind
        self.d = d
        self.hmi = hmi

    def __repr__(self):
        extra = " d=%d" % self.d if self.d is not None else ""
        return ("FormInvariants(m=%d, disc=%r [%s%s], hmi=%+d)"
                % (self.m, self.disc_rep, self.disc_kind, extra, self.hmi))

    def to_json(self):
        return {"m": self.m, "disc_repr": repr(self.disc_rep),
                "disc_kind": self.disc_kind, "d": self.d, "hmi": self.hmi}


def invariants(B: DiagonalForm) -> FormInvariants:
    """Signed discriminant (class representative plus defect kind) and the
    product of Hilbert symbols over coefficient pairs."""
    field = B.field
    eff = B.effective_diagonal()
    m = len(eff)
    prod = field.one()
    for a in eff:
        prod = prod * a
    if m // 2 % 2:
        prod = -prod
    rep = square_class_rep(field, prod)
    kind, d = square_class_kind(field, rep)
    hmi = 1
    for i in range(m):
        for j in range(i + 1, m):
            hmi *= hilbert_symbol(field, eff[i], eff[j])
    return FormInvariants(m, rep, kind, d, hmi)


# ---------------------------------------------------------------------------
# Anisotropy
# ---------------------------------------------------------------------------

def is_anisotropic(B: DiagonalForm) -> bool:
    """The invariant rule for m <= 4 (Serre, A Course in Arithmetic, ch. IV,
    2.2, thm 6; O'Meara 63 for any local field) decides; the search below is
    its oracle in `qperiods verify` and the tests, on no other path."""
    field = B.field
    if B.planes:
        return False
    inv = invariants(B)
    m = inv.m
    if m <= 1:
        return True
    if m == 2:
        return inv.disc_kind != "square"
    if m == 3:
        return inv.hmi == -hilbert_symbol(field, field.elt(-1), inv.disc_rep)
    if m == 4:
        return (inv.disc_kind == "square"
                and inv.hmi == -hilbert_symbol(field, -1, -1))
    return False


def _anisotropic_by_search(B: DiagonalForm):
    field = B.field
    if B.n == 0:
        return True
    if B.planes:
        # a plane already carries the primitive zero (1, 0, ..)
        return False
    ring = field.ring(3 * field.e + 3)  # modulus 2 pi^(2e+3)
    kernels._check_search_budget("anisotropy search", ring)
    return not kernels.primitive_zero_exists(ring, B.coeffs)


# ---------------------------------------------------------------------------
# Representatives of the anisotropic classes
# ---------------------------------------------------------------------------

def _unit_with_symbol(field, delta, sign):
    for u in unit_class_reps(field):
        if hilbert_symbol(field, u, delta) == sign:
            return u
    return None


def _resolve_disc(field, disc, disc_kind, d):
    if disc is not None:
        return square_class_rep(field, disc)
    # only the odd defects tell classes of one kind apart
    rep = first_class_of_kind(field, disc_kind,
                              d if disc_kind == "unitd" else None)
    if rep is not None:
        return rep
    if disc_kind == "unitd":
        raise ValueError("no unit class with odd defect d=%r" % (d,))
    raise ValueError("disc_kind must be square|prime|unit4|unitd, got %r" % (disc_kind,))


def _ternary_by_search(field, delta, need):
    """Scan <al, be, -al*be*delta> over square-class pairs for the one
    with symbol product `need` (it is then automatically anisotropic)."""
    classes = square_class_reps(field)
    for al in classes:
        for be in classes:
            form = DiagonalForm(field, [al, be, -(al * be * delta)])
            if invariants(form).hmi == need:
                return form
    return None


def _quaternary_template(field) -> DiagonalForm:
    a = _unit_with_symbol(field, field.elt(-1), -1)
    if a is not None:
        return DiagonalForm(field, [field.one(), field.one(), -a, -a])
    # -1 is a square (or odd p): use the quaternion norm form of (u, pi)
    u = first_class_of_kind(field, "unit4")
    pi = field.uniformizer()
    return DiagonalForm(field, [field.one(), -u, -pi, u * pi])


def anisotropic_representative(field: LocalField, m: int, disc=None,
                               disc_kind=None, d=None, hmi=None) -> DiagonalForm:
    """A concrete anisotropic diagonal form with the requested invariants.

    The shapes are the ones the closed forms are stated for: binary
    a(x1^2 - D x2^2) with a chosen through the companion-unit search,
    ternary x1^2 - a(x2^2 - D x3^2) or a(x1^2 + x2^2) - D x3^2, and the
    quaternary x1^2 + x2^2 - a(x3^2 + x4^2).  Unrealizable requests are
    rejected with the classification rule that rules them out.
    """
    if m < 0 or m > 4:
        raise ValueError("anisotropic forms have 0 <= m <= 4")
    if m == 0:
        return DiagonalForm(field, [])
    if m == 1:
        delta = _resolve_disc(field, disc, disc_kind or "square", d)
        return _check_request(DiagonalForm(field, [delta]), delta, hmi, 1)
    if m == 2:
        delta = _resolve_disc(field, disc, disc_kind, d)
        kind = square_class_kind(field, delta)[0]
        if kind == "square":
            raise ValueError("binary form with square discriminant is isotropic")
        want = 1 if hmi is None else hmi
        one = field.one()
        if want == 1:
            form = DiagonalForm(field, [one, -delta])
        elif kind == "unit4":
            pi = field.uniformizer()
            form = DiagonalForm(field, [pi, -(pi * delta)])
        elif kind == "prime":
            a = first_class_of_kind(field, "unit4")
            form = DiagonalForm(field, [a, -(a * delta)])
        else:
            a = pick_companion_unit(field, delta)
            form = DiagonalForm(field, [a, -(a * delta)])
        return _check_request(form, delta, want, m)
    if m == 3:
        delta = _resolve_disc(field, disc, disc_kind, d)
        kind = square_class_kind(field, delta)[0]
        need = -hilbert_symbol(field, field.elt(-1), delta)
        if hmi is not None and hmi != need:
            raise ValueError(
                "ternary forms with this discriminant are anisotropic only "
                "with symbol product %+d" % need)
        one = field.one()
        if kind in ("prime", "unitd"):
            a = _unit_with_symbol(field, delta, -1)
            if a is None:
                raise InternalConsistencyError("no unit companion for %r" % (delta,))
            form = DiagonalForm(field, [one, -a, a * delta])
        else:
            a = _unit_with_symbol(field, field.elt(-1), -1)
            if a is not None:
                form = DiagonalForm(field, [a, a, -delta])
            else:
                form = _ternary_by_search(field, delta, need)
                if form is None:
                    raise InternalConsistencyError(
                        "no ternary representative found for %r" % (delta,))
        return _check_request(form, delta, need, m)
    # m == 4
    if disc is not None and not is_square(field, disc):
        raise ValueError("quaternary anisotropic forms have square discriminant")
    if disc_kind not in (None, "square"):
        raise ValueError("quaternary anisotropic forms have square discriminant")
    need = -hilbert_symbol(field, -1, -1)
    if hmi is not None and hmi != need:
        raise ValueError("the quaternary anisotropic class has symbol product %+d"
                         % need)
    return _check_request(_quaternary_template(field), field.one(), need, 4)


def _check_request(form: DiagonalForm, delta, hmi, m) -> DiagonalForm:
    inv = invariants(form)
    field = form.field
    ok = (inv.m == m
          and square_class_key(field, inv.disc_rep) == square_class_key(field, delta)
          and (hmi is None or inv.hmi == hmi))
    if not ok:
        raise InternalConsistencyError(
            "constructed %r has invariants %r, wanted disc %r hmi %r"
            % (form, inv, delta, hmi))
    return form


# ---------------------------------------------------------------------------
# The dimension-mod-8 splitting chain
# ---------------------------------------------------------------------------

_M_OF_RESIDUE = {3: 3, 4: 2, 5: 1, 6: 0, 7: 1, 0: 2, 1: 3, 2: 4}
_HMI_PATTERN = (1, -1, -1, 1)


class WittProfile:
    __slots__ = ("n", "k", "m", "delta", "hmi", "kernel", "kernel_form")

    def __init__(self, n, k, m, delta, hmi, kernel, kernel_form):
        self.n = n
        self.k = k
        self.m = m
        self.delta = delta
        self.hmi = hmi
        self.kernel = kernel
        self.kernel_form = kernel_form

    def __repr__(self):
        return ("WittProfile(n=%d, k=%d, m=%d, delta=%+d, hmi=%+d)"
                % (self.n, self.k, self.m, self.delta, self.hmi))


def witt_profile(n: int) -> WittProfile:
    """Split hyperbolic planes off the dimension-(n+2) unimodular form of
    trivial invariants until the kernel is anisotropic at the dyadic place.

    The kernel dimension depends on n mod 8 only; the signed discriminant
    is (-1)^floor((n+2)/2) throughout the chain, and the symbol invariant
    follows the period-four pattern 1, -1, -1, 1 in the number of planes
    removed.  So n mod 8 fixes the Witt class (m, delta, hmi), and n and
    n + 8 share one kernel form (see _chain_kernel).
    """
    if n < 3:
        raise ValueError("need n >= 3 (smaller targets are anisotropic)")
    m = _M_OF_RESIDUE[n % 8]
    k = (n - m) // 2
    delta = 1 if ((n + 2) // 2) % 2 == 0 else -1
    steps = (n + 2 - m) // 2
    hmi = _HMI_PATTERN[steps % 4]
    kernel_form, kern = _chain_kernel(m, delta, hmi)
    return WittProfile(n, k, m, delta, hmi, kern, kernel_form)


@cache
def _chain_kernel(m: int, delta: int, hmi: int):
    """The anisotropic kernel of the Witt class (m, delta, hmi) over Q2 and
    its invariants, found and checked once per class; there are eight
    classes, one per n mod 8, and every n of a class shares the result."""
    field = make_field(2)
    if m == 0:
        kernel_form = DiagonalForm(field, [])
    elif m == 1:
        kernel_form = anisotropic_representative(field, 1, disc=field.elt(delta))
    else:
        kernel_form = anisotropic_representative(field, m, disc=field.elt(delta), hmi=hmi)
    kern = invariants(kernel_form)
    if kern.hmi != hmi and m >= 2:
        raise InternalConsistencyError("chain symbol %+d vs kernel %+d" % (hmi, kern.hmi))
    return kernel_form, kern
