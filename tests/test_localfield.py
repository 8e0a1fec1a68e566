import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qperiods import localfield
from qperiods.localfield import (make_field, quadratic_defect, is_square,
                                 unit_defect_kind, unit_class_reps,
                                 square_class_key, square_class_rep,
                                 square_class_reps, hilbert_symbol,
                                 count_square_roots, ResidueRing,
                                 InternalConsistencyError, LocalField,
                                 _symbol_by_search)
from qperiods.cli import parse_field
from qperiods.qform import (DiagonalForm, invariants, _quaternary_template,
                            _normalize_coeff)
from qperiods.counting import count_level_histogram, x_series

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)
F9 = make_field(3, 2, "unramified")
F5 = make_field(5)

ALL_FIELDS = [Q2, Q4, R2, F3, F9]
RING_FIELDS = [Q2, Q4, R2, F3, F5]
# c0 = 6 has an odd part, so unit parts must not divide by c0^ord
CLASS_FIELDS = RING_FIELDS + [make_field(2, 1, "ramified", c1=0, c0=6),
                              make_field(2, 1, "ramified", c1=2, c0=2), F9]


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 2, "base")
    with pytest.raises(ValueError):
        make_field(3, 1, "ramified", c1=0, c0=-3)
    with pytest.raises(ValueError):
        make_field(2, 1, "ramified", c1=0, c0=-4)  # ord c0 = 2, not Eisenstein
    with pytest.raises(ValueError):
        make_field(2, 1, "ramified")  # coefficients missing
    # a non-integer is refused, not truncated (c1 = 0.5, c0 = 2.9 to x^2 + 2)
    for args, kwargs, name in [((2, 1, "ramified"), dict(c1=0.5, c0=2.9), "c1"),
                               ((2, 1, "ramified"), dict(c1=0, c0=2.9), "c0"),
                               ((2.0,), {}, "p"),
                               ((2, 2.0, "unramified"), {}, "f")]:
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            make_field(*args, **kwargs)
    # c1 and c0 belong to the ramified variant only, and are not ignored
    for args, kwargs in [((2, 1, "base"), dict(c1=0.5, c0="x")),
                         ((3, 2, "unramified"), dict(c1=7))]:
        with pytest.raises(ValueError, match="c1 = .* only the ramified"):
            make_field(*args, **kwargs)
    with pytest.raises(ValueError, match="c0 = -2 is given"):
        make_field(2, 1, "base", c0=-2)


def test_make_field_is_cached():
    assert make_field(2) is Q2
    assert make_field(2, 2, "unramified") is Q4
    assert make_field(2, 1, "ramified", c1=0, c0=-2) is R2


def test_field_shape_constants():
    assert (Q2.q, Q2.e, Q2.ncoords) == (2, 1, 1)
    assert (Q4.q, Q4.e, Q4.ncoords) == (4, 1, 2)
    assert (R2.q, R2.e, R2.ncoords) == (2, 2, 2)
    assert (F3.q, F3.e) == (3, 0)
    assert (F9.q, F9.e) == (9, 0)


def test_ramified_uniformizer_squares_to_minus_c0():
    w = R2.uniformizer()
    assert w * w == R2.elt(2)
    assert int(w.ord()) == 1
    assert int(R2.elt(2).ord()) == 2


def test_unramified_generator_relation():
    # second coordinate g satisfies g^2 = -c1 g - c0; for q = 4 a cube root
    # of unity: g^2 + g + 1 = 0
    g = Q4.elt(0, 1)
    assert g * g + g + 1 == Q4.zero()
    assert g.is_unit()


def test_elt_ord_and_arithmetic():
    assert int(Q2.elt(12).ord()) == 2
    assert Q2.elt(5) + Q2.elt(3) == Q2.elt(8)
    assert Q2.elt(5) * 3 == Q2.elt(15)
    assert 1 - Q2.elt(3) == Q2.elt(-2)
    assert Q2.elt(7) ** 2 == Q2.elt(49)
    assert F3.elt(0).is_zero()
    with pytest.raises(ValueError):
        Q2.elt(1) + F3.elt(1)
    with pytest.raises(TypeError):
        Q2.elt(Fraction(3, 2))  # not truncated to 1


_Q2_FORM = DiagonalForm(Q2, [1, 1])


@pytest.mark.parametrize("call", [
    lambda x: DiagonalForm(Q2, [x]),
    lambda x: count_level_histogram(_Q2_FORM, x, 3),
    lambda x: x_series(_Q2_FORM, x, 3),
    lambda x: quadratic_defect(Q2, x),
    lambda x: localfield.unit_part(Q2, x),
    lambda x: count_square_roots(Q2, x, 3),
    lambda x: hilbert_symbol(Q2, x, 3),
], ids=["DiagonalForm", "count_level_histogram", "x_series",
        "quadratic_defect", "unit_part", "count_square_roots",
        "hilbert_symbol"])
@pytest.mark.parametrize("foreign", [Q4.elt(1, 1), F3.elt(5)], ids=["q4", "q3"])
def test_an_element_of_another_field_is_refused(call, foreign):
    with pytest.raises(ValueError, match="different field"):
        call(foreign)


def test_dyadic_unit_defects():
    # mod-8 classes of odd integers decide everything over the base field
    assert is_square(Q2, 1) and is_square(Q2, 17) and is_square(Q2, -7)
    assert unit_defect_kind(Q2, Q2.elt(5)) == ("unit4", 2)
    assert unit_defect_kind(Q2, Q2.elt(-3)) == ("unit4", 2)
    assert unit_defect_kind(Q2, Q2.elt(3))[0] == "unitd"
    assert unit_defect_kind(Q2, Q2.elt(3))[1] == 1
    assert unit_defect_kind(Q2, Q2.elt(7)) == ("unitd", 1)
    assert unit_defect_kind(Q2, Q2.elt(1)) == ("square", None)


def test_defect_result_fields():
    # d is the absolute pi-exponent of the defect ideal, so scaling by
    # squares shifts it: 20 = 4 * 5 has ideal 16 o
    res = quadratic_defect(Q2, Q2.elt(20))
    assert res.o == 2 and res.kind == "defect" and res.d == 4
    assert not res.is_square
    assert quadratic_defect(Q2, Q2.elt(12)).d == 3
    assert quadratic_defect(Q2, Q2.elt(6)).d == 1  # odd ord: the ideal is (6)
    sq = quadratic_defect(Q2, Q2.elt(16))
    assert sq.is_square and sq.o == 4
    with pytest.raises(ValueError):
        quadratic_defect(Q2, Q2.elt(0))


def test_odd_residue_defects():
    # odd primes: units are squares or single nonsquare class, defect o
    assert is_square(F3, 1) and is_square(F3, 4)
    kind, d = unit_defect_kind(F3, F3.elt(2))
    assert (kind, d) == ("unit4", 0)


def test_ramified_defect_range():
    # over the ramified field odd defects up to 2e - 1 = 3 all occur
    seen = set()
    for u in unit_class_reps(R2):
        res = quadratic_defect(R2, u)
        seen.add(None if res.is_square else res.d)
    assert seen == {None, 1, 3, 4}


@pytest.mark.parametrize("field", RING_FIELDS)
@pytest.mark.parametrize("level", range(5))
def test_ring_ops_on_arrays_match_field_arithmetic(field, level):
    ring = field.ring(level)
    m = ring.moduli
    # x fastest, so the rational integers come first
    order = [xy[::-1] for xy in itertools.product(*map(range, m[::-1]))]
    assert ring.elements() == order
    a = ring.coords()
    assert all(c.dtype == np.int64 for c in a)
    assert list(zip(*(c.tolist() for c in a))) == order
    b = tuple(c[::-1] for c in a)  # pairs each element with another

    def canon(elt):
        return tuple(c % mod for c, mod in zip(elt.coords, m))

    ops = {"mul": ring.mul(a, b), "add": ring.add(a, b), "sub": ring.sub(a, b)}
    ords, units = ring.ord_of(a), ring.is_unit(a)
    assert ords.shape == units.shape == (ring.size,)
    for i, (x, y) in enumerate(zip(order, order[::-1])):
        X, Y = field.elt(*x), field.elt(*y)
        for name, want in (("mul", X * Y), ("add", X + Y), ("sub", X - Y)):
            assert tuple(int(c[i]) for c in ops[name]) == canon(want), name
        o = min(X.ord(), level)
        assert ords[i] == o
        assert units[i] == (o == 0) == ring.is_unit(x)


def brute_defect(field, rho):
    """quadratic_defect by hand: the largest ord(rho - eta^2), eta over
    o/pi^L, in FieldElt arithmetic."""
    o = int(rho.ord())
    L = o + 2 * field.e + 2
    best = 0
    for eta in itertools.product(*map(range, field.ring(L).moduli)):
        eta = field.elt(*eta)
        best = max(best, min((rho - eta * eta).ord(), L))
    if best >= o + 2 * field.e + 1:
        return ("square", None, o)
    return ("defect", best, o)


def probes(field):
    """Every unit residue at level 2e + 1, and a few of them times pi, pi^2,
    2 and 2 pi.  With c0 = 6, 2 / pi^2 = -1/3 is not in Z[w]."""
    ring = field.ring(2 * field.e + 1)
    units = [ring.lift(x) for x in ring.elements() if ring.is_unit(x)]
    pi = field.uniformizer()
    return units + [u * pi for u in units[:6]] + [
        u * t for t in (pi * pi, field.elt(2), 2 * pi) for u in units[:4]]


@pytest.mark.parametrize("field", CLASS_FIELDS)
def test_quadratic_defect_matches_brute_force_scan(field):
    for rho in probes(field):
        res = quadratic_defect(field, rho)
        assert (res.kind, res.d, res.o) == brute_defect(field, rho), rho


@pytest.mark.parametrize("field", CLASS_FIELDS)
def test_square_class_key_matches_brute_force_classes(field):
    # x joins the class of the first earlier probe m with x * m a square;
    # every unit class has a unit probe and those come first, so each
    # class's first member has ord 0 or 1 and the scans stay small
    firsts, labels = [], []
    for x in probes(field):
        for i, m in enumerate(firsts):
            if ((x.ord() - m.ord()) % 2 == 0
                    and brute_defect(field, x * m)[0] == "square"):
                labels.append(i)
                break
        else:
            labels.append(len(firsts))
            firsts.append(x)
    keys = [square_class_key(field, x) for x in probes(field)]
    assert len(set(keys)) == len(firsts)
    for x, key, label in zip(probes(field), keys, labels):
        assert key[0] == int(x.ord()) % 2
        assert key == keys[labels.index(label)], x


def test_classes_are_read_without_scans(monkeypatch):
    for field in CLASS_FIELDS:
        field.square_classes

    def scan(ring):
        raise AssertionError("ring scanned after the table was built")
    monkeypatch.setattr(ResidueRing, "coords", scan)
    monkeypatch.setattr(ResidueRing, "elements", scan)
    for field in CLASS_FIELDS:
        pi = field.uniformizer()
        unit_class_reps(field)
        for k in range(5):
            # a unit no earlier test memoized, times pi^k
            x = field.elt(*(1000003, 7)[:field.ncoords]) * pi ** k
            assert quadratic_defect(field, x).o == k
            assert square_class_key(field, x)[0] == k % 2


@pytest.mark.parametrize("field, reps", [
    (Q2, [(1,), (3,), (5,), (7,)]),
    (Q4, [(1, 0), (3, 0), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (1, 3)]),
    (R2, [(1, 0), (3, 0), (5, 0), (7, 0), (1, 1), (3, 1), (1, 3), (3, 3)]),
    (F3, [(1,), (2,)]),
    (F5, [(1,), (2,)]),
])
def test_unit_class_reps_keep_the_traversal_order(field, reps):
    assert [u.coords for u in unit_class_reps(field)] == reps


def test_unit_class_rep_counts():
    assert len(unit_class_reps(Q2)) == 4
    assert len(unit_class_reps(Q4)) == 8
    assert len(unit_class_reps(R2)) == 8
    assert len(unit_class_reps(F3)) == 2
    assert len(unit_class_reps(F9)) == 2


def test_unit_classes_are_distinct_and_complete():
    for field in ALL_FIELDS:
        reps = unit_class_reps(field)
        for i, u in enumerate(reps):
            for v in reps[i + 1:]:
                assert not is_square(field, u * v)
        # a few arbitrary even-order elements land in exactly one class
        for probe in (1, 3, 5, 7, 9, -1, -5):
            x = field.elt(probe)
            if int(x.ord()) % 2:
                continue  # 3 is the uniformizer over the odd fields
            hits = [u for u in reps if is_square(field, u * x)]
            assert len(hits) == 1


def test_square_class_key_and_rep():
    for field in (Q2, R2, F3):
        pi = field.uniformizer()
        for x in [field.elt(3), field.elt(5) * pi, field.elt(-7) * pi ** 3,
                  field.elt(12)]:
            par, idx = square_class_key(field, x)
            assert par == int(x.ord()) % 2
            rep = square_class_rep(field, x)
            assert is_square(field, rep * x) or _same_class(field, rep, x)
    with pytest.raises(ValueError):
        square_class_key(Q2, Q2.elt(0))


def _same_class(field, a, b):
    # a/b a square, checked multiplicatively: a*b in (squares) * b^2
    return is_square(field, a * b)


def test_square_class_reps_cover_both_parities():
    reps = square_class_reps(Q2)
    assert len(reps) == 8
    assert sorted(int(r.ord()) for r in reps) == [0, 0, 0, 0, 1, 1, 1, 1]


KNOWN_Q2_SYMBOLS = [
    # classical values over the dyadic rationals: for units,
    # (a, b) = (-1)^(eps(a) eps(b)) with eps(u) = (u-1)/2 mod 2,
    # and (2, u) = (-1)^((u^2-1)/8)
    (2, 7, +1), (2, -1, +1), (2, 5, -1), (2, 3, -1),
    (-1, -1, -1), (-1, 3, -1), (-1, 5, +1), (-1, 7, -1),
    (3, 3, -1), (5, 5, +1), (3, 5, +1), (2, 2, +1), (6, 3, +1),
]


def test_hilbert_symbol_known_values():
    for a, b, want in KNOWN_Q2_SYMBOLS:
        assert hilbert_symbol(Q2, a, b) == want, (a, b)


def test_hilbert_symbol_squares_always_plus():
    for field in ALL_FIELDS:
        pi = field.uniformizer()
        for x in [field.elt(3), pi, field.elt(5) * pi]:
            assert hilbert_symbol(field, field.elt(1), x) == 1
            assert hilbert_symbol(field, x * x, field.elt(-1)) == 1


DYADIC_FIELDS = [Q2, Q4] + [make_field(2, 1, "ramified", c1=c1, c0=c0)
                             for c1, c0 in ((0, 2), (0, -2), (0, 6), (0, -6),
                                            (2, 2), (2, -2))]
TAME_FIELDS = [F3, F5, make_field(7), F9]


def _cli_name(field):
    """The field as the command line spells it, for test ids."""
    variant, c1, c0 = field.label
    if variant == "ramified":
        return "ram(%d,%d)" % (c1, c0)
    return "q%d" % field.q


def _symbols_match_search(field):
    classes = square_class_reps(field)
    for a in classes:
        for b in classes:
            assert hilbert_symbol(field, a, b) == _symbol_by_search(
                field, a, b), (field, a, b)


@pytest.mark.parametrize("field", DYADIC_FIELDS, ids=_cli_name)
def test_hilbert_symbol_matches_search_on_every_dyadic_class_pair(field):
    _symbols_match_search(field)


def test_hilbert_symbol_tame_case():
    # odd residue characteristic: the tame formula in the Gram matrix,
    # so (pi, u) = -1 exactly for nonsquare units and (pi, pi) = (pi, -1)
    for field in TAME_FIELDS:
        _symbols_match_search(field)


@pytest.mark.parametrize("field", DYADIC_FIELDS + TAME_FIELDS, ids=_cli_name)
def test_quaternary_template_symbol_product_is_minus_symbol_of_minus_ones(
        field):
    assert (invariants(_quaternary_template(field)).hmi
            == -hilbert_symbol(field, -1, -1))


def test_gram_build_refuses_an_entry_that_breaks_a_law(monkeypatch):
    # (pi, pi) flipped on a fresh Q2: then (pi, -pi) = -1
    field = LocalField(2, (-1,), ((-2,),), ("base", None, None))
    pi = field.uniformizer()

    def lying_search(f, a, b):
        flip = -1 if a == pi and b == pi else 1
        return flip * _symbol_by_search(f, a, b)
    monkeypatch.setattr(localfield, "_symbol_by_search", lying_search)
    with pytest.raises(InternalConsistencyError, match="breaks a law"):
        hilbert_symbol(field, 3, 5)


def test_hilbert_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(Q2, Q2.elt(0), Q2.elt(1))


@given(st.sampled_from(range(8)), st.sampled_from(range(8)),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_hilbert_symmetry_random(ia, ib, oa, ob):
    reps = square_class_reps(Q4)
    a = reps[ia] * Q4.elt(2) ** oa
    b = reps[ib] * Q4.elt(2) ** ob
    assert hilbert_symbol(Q4, a, b) == hilbert_symbol(Q4, b, a)


def test_count_square_roots_spot_values():
    # odd squares: every odd number squares to 1 mod 8
    assert count_square_roots(Q2, Q2.elt(1), 3) == Fraction(1, 2)
    assert count_square_roots(Q2, Q2.elt(1), 4) == Fraction(1, 4)
    assert count_square_roots(Q2, Q2.elt(1), 5) == Fraction(1, 8)
    # nonsquare units have no roots once the level separates them
    assert count_square_roots(Q2, Q2.elt(3), 3) == 0
    assert count_square_roots(Q2, Q2.elt(5), 3) == 0
    # shallow levels cannot tell: mod 2 everything odd is 1
    assert count_square_roots(Q2, Q2.elt(3), 1) == Fraction(1, 2)
    assert count_square_roots(Q2, Q2.elt(0), 0) == 1
    with pytest.raises(ValueError):
        count_square_roots(Q2, Q2.elt(1), -1)


def test_count_square_roots_vs_enumeration_sample():
    for field, L in [(Q2, 4), (R2, 4), (F3, 3)]:
        ring6 = field.ring(L + 2)
        for coords in ring6.elements():
            rho = ring6.lift(coords)
            if rho.is_zero():
                continue
            for ell in (1, L):
                rl = field.ring(ell)
                target = tuple(rl.reduce(rho))
                hits = sum(1 for x in rl.elements()
                           if tuple(rl.mul(x, x)) == target)
                assert count_square_roots(field, rho, ell) == \
                    Fraction(hits, rl.size), (field, rho, ell)


# One line per field spelling, pinning what the ring layer gives: identity,
# shape, ring moduli, the uniformizer, the unit classes and their Gram
# matrix, and ord, unit part, normalized coefficient and square-class key of
# every unit-class rep times pi^k.  Rewrite tests/data/fields.jsonl from
# _field_record only for a deliberate change to one of these.
FIELD_SPELLINGS = ("q2", "q4", "ram(0,2)", "ram(0,-2)", "ram(0,6)",
                   "ram(0,-6)", "ram(2,2)", "ram(2,-2)", "3", "5", "7", "q9",
                   "131")


def _field_record(spelling):
    field = parse_field(spelling)
    table = field.square_classes
    pi = field.uniformizer()
    elements = []
    for rep in table.reps:
        for k in range(4):
            x = rep * pi ** k
            o, u = localfield.unit_part(field, x)
            elements.append([repr(x), x.ord(), o, repr(u),
                             repr(_normalize_coeff(field, x)),
                             list(square_class_key(field, x))])
    return {"spelling": spelling, "json": field.to_json(),
            "repr": repr(field), "q": field.q, "e": field.e,
            "ncoords": field.ncoords,
            "moduli": [list(field.ring(L).moduli) for L in range(8)],
            "uniformizer": repr(pi),
            "reps": [repr(r) for r in table.reps],
            "kinds": [list(k) for k in table.kinds],
            "gram": list(table.gram), "elements": elements}


def test_ring_layer_matches_golden_file():
    lines = [json.dumps(_field_record(s), sort_keys=True) + "\n"
             for s in FIELD_SPELLINGS]
    path = Path(__file__).parent / "data" / "fields.jsonl"
    assert "".join(lines) == path.read_text()


def slow_v(p: int, x: int):
    """localfield._v as it was, one division per factor p: the oracle."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 131])
def test_valuation_matches_one_division_per_factor(p):
    rng = random.Random(p)
    assert localfield._v(p, 0) == math.inf
    for k in list(range(0, 70)) + [127, 128, 129, 255, 256, 1000, 1999, 2000]:
        for sign in (1, -1):
            u = rng.randrange(1, 10 ** 6)
            u += u % p == 0  # a unit
            x = sign * p ** k * u
            assert localfield._v(p, x) == slow_v(p, x) == k
    for _ in range(500):
        x = rng.randrange(-2 ** rng.randrange(1, 400), 2 ** 400)
        assert localfield._v(p, x) == slow_v(p, x)
    # int64 coordinates are read as ints
    assert localfield._v(p, np.int64(-7 * p ** 3)) == 3
