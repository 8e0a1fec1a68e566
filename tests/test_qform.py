import itertools

import pytest

from qperiods.localfield import (make_field, is_square, hilbert_symbol,
                                 square_class_key, square_class_reps)
from qperiods.kernels import EnumBudgetError
from qperiods.qform import (DiagonalForm, invariants, is_anisotropic,
                            anisotropic_representative, witt_profile,
                            _anisotropic_by_search)

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)


def test_diagonal_form_shape():
    B = DiagonalForm(Q2, [1, -5], planes=1)
    assert B.m == 2 and B.n == 4
    assert B.coeffs[1] == Q2.elt(-5)
    # planes are spelled out as <2, -2> pairs for invariant purposes
    assert len(B.effective_diagonal()) == 4
    assert DiagonalForm(Q2, []).m == 0


def test_diagonal_form_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        DiagonalForm(Q2, [1, 0])
    with pytest.raises(ValueError):
        DiagonalForm(Q2, [1], planes=-1)


def test_invariants_signed_discriminant():
    # binary: disc is minus the determinant, so <1, 7> carries -7 = square
    inv = invariants(DiagonalForm(Q2, [1, 7]))
    assert inv.m == 2 and inv.disc_kind == "square"
    inv = invariants(DiagonalForm(Q2, [1, -7]))
    assert inv.disc_kind == "unitd" and inv.d == 1
    inv = invariants(DiagonalForm(Q2, [1, -5]))
    assert inv.disc_kind == "unit4" and inv.d == 2
    inv = invariants(DiagonalForm(Q2, [1, -2]))
    assert inv.disc_kind == "prime"
    # unary keeps the coefficient class itself
    assert invariants(DiagonalForm(Q2, [3])).disc_kind == "unitd"


def test_invariants_symbol_product():
    # single symbol for a binary form
    for a, b in [(1, 1), (3, 5), (7, 2), (5, 10)]:
        inv = invariants(DiagonalForm(Q2, [a, b]))
        assert inv.hmi == hilbert_symbol(Q2, Q2.elt(a), Q2.elt(b))
    # empty and unary products are empty: +1
    assert invariants(DiagonalForm(Q2, [])).hmi == 1
    assert invariants(DiagonalForm(Q2, [7])).hmi == 1


def test_invariants_count_planes_like_split_pairs():
    # the plane shorthand and the explicit <1, -1> spelling describe the
    # same quadratic space, so all invariants agree
    for k in (1, 2, 3):
        short = invariants(DiagonalForm(Q2, [1, -5], planes=k))
        spelled = invariants(DiagonalForm(Q2, [1, -5] + [1, -1] * k))
        assert short.m == spelled.m == 2 + 2 * k
        assert short.disc_kind == spelled.disc_kind
        assert short.d == spelled.d
        assert short.hmi == spelled.hmi


def test_known_anisotropic_forms():
    assert is_anisotropic(DiagonalForm(Q2, []))
    assert is_anisotropic(DiagonalForm(Q2, [1]))
    assert is_anisotropic(DiagonalForm(Q2, [1, 1, 1]))
    assert is_anisotropic(DiagonalForm(Q2, [1, 1, 1, 1]))
    assert is_anisotropic(DiagonalForm(Q2, [7, -2]))
    assert is_anisotropic(DiagonalForm(F3, [1, 1]))


def test_known_isotropic_forms():
    assert not is_anisotropic(DiagonalForm(Q2, [1, -1]))
    assert not is_anisotropic(DiagonalForm(Q2, [1, 7]))  # disc -7 square
    assert not is_anisotropic(DiagonalForm(Q2, [1, 1, 1, 1, 1]))
    assert not is_anisotropic(DiagonalForm(Q2, [1, 1], planes=1))
    assert not is_anisotropic(DiagonalForm(F3, [1, 1, 1, 1, 1]))


def test_anisotropic_representative_binary_all_kinds():
    for field in (Q2, Q4, R2, F3):
        for kind in ("prime", "unit4", "unitd"):
            if kind == "unitd" and field.e == 0:
                continue  # no odd defects in the tame case
            for hmi in (1, -1):
                if kind == "unitd" and hmi == 1 and field.e == 1:
                    pass  # realizable, keep
                try:
                    B = anisotropic_representative(field, 2, disc_kind=kind,
                                                   hmi=hmi)
                except ValueError:
                    continue  # combination ruled out over this field
                inv = invariants(B)
                assert inv.m == 2 and inv.hmi == hmi
                assert inv.disc_kind == kind
                assert is_anisotropic(B)


def test_anisotropic_representative_rejections():
    with pytest.raises(ValueError):
        anisotropic_representative(Q2, 5)
    with pytest.raises(ValueError):
        anisotropic_representative(Q2, 2, disc_kind="square")
    with pytest.raises(ValueError):
        anisotropic_representative(Q2, 4, disc=Q2.elt(5))
    # ternary symbol is forced by the discriminant
    delta = Q2.elt(2)
    need = -hilbert_symbol(Q2, Q2.elt(-1), delta)
    with pytest.raises(ValueError):
        anisotropic_representative(Q2, 3, disc=delta, hmi=-need)


def test_anisotropic_representative_ternary_kinds():
    for kind in ("prime", "unitd", "square", "unit4"):
        B = anisotropic_representative(Q2, 3, disc_kind=kind)
        inv = invariants(B)
        assert inv.m == 3 and inv.disc_kind == kind
        assert is_anisotropic(B)
        assert inv.hmi == -hilbert_symbol(Q2, Q2.elt(-1), inv.disc_rep)


def test_anisotropic_representative_unary_defect_request():
    B = anisotropic_representative(R2, 1, disc_kind="unitd", d=3)
    inv = invariants(B)
    assert inv.disc_kind == "unitd" and inv.d == 3


def test_witt_profile_pattern():
    ms = [witt_profile(n).m for n in range(3, 11)]
    assert ms == [3, 2, 1, 0, 1, 2, 3, 4]
    for n in range(3, 19):
        p = witt_profile(n)
        assert p.m == witt_profile(((n - 3) % 8) + 3).m
        assert p.n == n and 2 * p.k + p.m == n
        assert p.delta == (-1) ** ((n + 2) // 2)
        assert p.kernel_form.m == p.m
        assert is_anisotropic(p.kernel_form)
        if p.m >= 1:
            key = square_class_key(Q2, p.kernel.disc_rep)
            assert key == square_class_key(Q2, Q2.elt(p.delta))
        if p.m >= 2:
            assert p.kernel.hmi == p.hmi


def test_witt_profile_period_eight():
    for n in range(3, 11):
        a, b = witt_profile(n), witt_profile(n + 8)
        assert (a.m, a.delta, a.hmi) == (b.m, b.delta, b.hmi)
        assert b.k == a.k + 4
        # one kernel per Witt class: n and n + 8 share the form and its
        # invariants
        assert b.kernel_form is a.kernel_form and b.kernel is a.kernel


def test_witt_profile_rejects_small_n():
    for n in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            witt_profile(n)


def test_witt_profile_delta_sign_examples():
    # delta = (-1)^floor((n+2)/2), period four in n
    assert witt_profile(3).delta == +1
    assert witt_profile(4).delta == -1
    assert witt_profile(5).delta == -1
    assert witt_profile(6).delta == +1
    assert witt_profile(7).delta == +1


def _ram(c1, c0):
    return make_field(2, 1, "ramified", c1=c1, c0=c0)


@pytest.mark.parametrize("field, top", [
    (Q2, 4), (F3, 4), (make_field(5), 4), (make_field(7), 4),
    (make_field(3, 2, "unramified"), 4), (Q4, 3), (R2, 3), (_ram(0, 2), 3),
    (_ram(0, 6), 3), (_ram(0, -6), 3), (_ram(2, 2), 3), (_ram(2, -2), 3)],
    ids=["q2", "3", "5", "7", "q9", "q4", "ram(0,-2)", "ram(0,2)", "ram(0,6)",
         "ram(0,-6)", "ram(2,2)", "ram(2,-2)"])
def test_anisotropy_rule_matches_search_on_every_diagonal_form(field, top):
    # every multiset of square classes of size m <= top: the invariant rule
    # (Serre, ch. IV, 2.2, thm 6) against the primitive-zero search
    classes = square_class_reps(field)
    forms = [c for m in range(1, top + 1)
             for c in itertools.combinations_with_replacement(classes, m)]
    if top < 4:
        # m = 4 over the quadratic extensions of Q2: anisotropy is invariant
        # under scaling, so <1, b, c, d> reaches every similarity class, in
        # 816 forms where all multisets would be 3,876
        forms += [(field.one(),) + c for c in
                  itertools.combinations_with_replacement(classes, 3)]
    for coeffs in forms:
        B = DiagonalForm(field, coeffs)
        assert is_anisotropic(B) == _anisotropic_by_search(B), B


def test_anisotropy_search_over_f131_passes_its_budget():
    # 131^3 residue classes: the rule answers, the oracle refuses
    B = DiagonalForm(make_field(131), [1, 1])
    assert is_anisotropic(B)
    with pytest.raises(EnumBudgetError, match="anisotropy search"):
        _anisotropic_by_search(B)
