from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from qperiods import checks, closedforms, periods, qform
from qperiods.localfield import make_field, square_class_reps
from qperiods.qform import (DiagonalForm, anisotropic_representative,
                            is_anisotropic)
from qperiods.counting import count_level_histogram, x_series_at, x_series_many
from qperiods.ratfunc import RF, Zv, IQv, AVv, VAR_Z, VAR_AV
from qperiods.closedforms import (ClosedFormCase, PiecewiseGeometric,
                                  UnsupportedCase, CASE_TAGS, case_for_form,
                                  case_representative, x_closed, closed_profile, x_from_levels,
                                  x_from_levels_zero, pi_from_x, pi_geometric,
                                  dimension_reduce, zeta_Z,
                                  local_factor_chain, halfstep_sum)
from qperiods.cli import main
from qperiods.periods import verify_table_row

Q2 = make_field(2)
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)

ONE = RF.const(1)


def test_case_tags_cover_the_known_families():
    assert set(CASE_TAGS) == {
        "empty", "unit_square", "unit_nonsquare", "prime",
        "binary_prime_plus", "binary_prime_minus", "binary_unit4_minus",
        "binary_unit4_plus", "binary_odd_defect_minus",
        "binary_odd_defect_plus", "ternary_prime", "ternary_odd_defect",
        "ternary_square", "ternary_unit4", "quaternary"}


def test_case_for_form_small_examples():
    assert case_for_form(DiagonalForm(Q2, [])).tag == "empty"
    assert case_for_form(DiagonalForm(Q2, [1])).tag == "unit_square"
    c = case_for_form(DiagonalForm(Q2, [3]))
    assert (c.tag, c.d) == ("unit_nonsquare", 1)
    c = case_for_form(DiagonalForm(Q2, [5]))
    assert (c.tag, c.d) == ("unit_nonsquare", 2)
    assert case_for_form(DiagonalForm(Q2, [2])).tag == "prime"
    # disc -1 has the odd-exponent defect over the 2-adics
    assert case_for_form(DiagonalForm(Q2, [1, 1, 1])).tag == "ternary_odd_defect"
    assert case_for_form(DiagonalForm(Q2, [1, 1, 1, 1])).tag == "quaternary"
    assert case_for_form(DiagonalForm(F3, [2, 3])).tag == "binary_prime_minus"


def test_case_for_form_rejections():
    with pytest.raises(ValueError):
        case_for_form(DiagonalForm(Q2, [1, -1]))  # isotropic
    with pytest.raises(ValueError):
        case_for_form(DiagonalForm(Q2, [1], planes=1))


SECOND_METHOD = ("binary_unit4_plus", "binary_odd_defect_plus",
                 "ternary_prime", "ternary_odd_defect", "ternary_square",
                 "ternary_unit4", "quaternary")


def test_case_representative_round_trips_through_case_for_form():
    # every verify configuration: Q2, Q4, ramified e = 2 and Q3
    for field, tag, d in checks._matrix_configs():
        c = case_for_form(case_representative(field, tag, d))
        assert c.tag == tag and d in (None, c.d), (field.q, field.e, tag, d)


def test_second_method_cases_refused_on_ramified_and_odd_fields():
    for field in (R2, F3):
        for tag in SECOND_METHOD:
            with pytest.raises(UnsupportedCase):
                x_closed(ClosedFormCase(tag, 0, field.e, d=1))
            with pytest.raises(UnsupportedCase):
                case_for_form(case_representative(field, tag))
        # forms built without the case table meet the same refusal
        for B in (anisotropic_representative(field, 2, disc_kind="unit4", hmi=1),
                  anisotropic_representative(field, 3, disc_kind="prime"),
                  anisotropic_representative(field, 4)):
            with pytest.raises(UnsupportedCase):
                case_for_form(B)


@pytest.mark.parametrize("field,n_refused", [
    (Q2, 54), (make_field(2, 2, "unramified"), 328), (R2, 14), (F3, 0),
    (make_field(5), 0), (make_field(3, 2, "unramified"), 0)],
    ids=["q2", "q4", "ram(0,-2)", "q3", "q5", "q9"])
def test_closed_forms_match_counts_or_are_refused(field, n_refused,
                                                  monkeypatch):
    # every anisotropic diagonal form with m <= 4 over the square classes:
    # its closed form equals its counted series (T = 0..3 and the zero
    # target), or it is refused for its lattice shape, and then the closed
    # form its invariants alone would pick is wrong
    reps = square_class_reps(field)
    w = field.uniformizer()
    L = 6
    refused = []
    for m in range(5):
        for coeffs in combinations_with_replacement(reps, m):
            B = DiagonalForm(field, list(coeffs))
            if not is_anisotropic(B):
                continue
            try:
                prof = closed_profile(B)
            except UnsupportedCase as ex:
                if "odd-order" in str(ex):
                    refused.append(B)
                continue
            *series, zero = x_series_many(
                B, [w ** (2 * T) for T in range(4)] + [None], L)
            assert [prof.series_at(T, field.q, L) for T in range(4)] == [
                list(s) for s in series], B
            assert prof.zero_series(field.q, L) == list(zero), B
    assert len(refused) == n_refused
    monkeypatch.setattr(closedforms, "_odd_order_count", lambda B: 0)
    for B in refused:
        prof = closed_profile(B)
        *series, zero = x_series_many(
            B, [w ** (2 * T) for T in range(4)] + [None], L)
        assert ([prof.series_at(T, field.q, L) for T in range(4)]
                + [prof.zero_series(field.q, L)]) != [
            list(s) for s in series] + [list(zero)], B


def test_closed_forms_refuse_other_lattice_shapes():
    # <2, 2> has the invariants of <1, -3> but two odd-order coefficients
    with pytest.raises(UnsupportedCase, match="odd-order"):
        case_for_form(DiagonalForm(Q2, [2, 2]))
    assert main(["xseries", "--field", "q2", "--form", "2*x1^2+2*x2^2",
                 "--T", "1", "--L", "5", "--closed"]) == 2


def test_x_closed_second_method_needs_e_1():
    for tag in SECOND_METHOD:
        for e in (0, 2):
            with pytest.raises(UnsupportedCase):
                x_closed(ClosedFormCase(tag, 0, e, d=1))
    with pytest.raises(ValueError):
        x_closed(ClosedFormCase("no_such_tag", 1, 1))


def test_x_closed_first_method_spans_e():
    for tag, d in [("empty", None), ("unit_square", None),
                   ("unit_nonsquare", 1), ("prime", None),
                   ("binary_prime_plus", None), ("binary_unit4_minus", None),
                   ("binary_odd_defect_minus", 1)]:
        for e in (0, 1, 2):
            if tag == "unit_nonsquare" and e == 0:
                continue  # odd residue has no odd-exponent defect
            prof = x_closed(ClosedFormCase(tag, 0, e, d=d))
            assert isinstance(prof, PiecewiseGeometric)


def test_empty_profile_values():
    prof = x_closed(ClosedFormCase("empty", 0, 1))
    # target 1 is never hit by the empty form; pi^2 is hit at levels 0, 1
    assert prof.value_at(0) == RF.const(0)
    assert prof.value_at(1) == ONE + Zv
    assert prof.zero_value == ONE / (ONE - Zv)
    with pytest.raises(ValueError):
        prof.value_at(-1)


def test_profiles_match_counting_spot_checks():
    for B in (DiagonalForm(Q2, [1]), DiagonalForm(Q2, [2]),
              DiagonalForm(F3, [2, 3]), DiagonalForm(R2, [3])):
        prof = closed_profile(B)
        for T in (0, 2):
            assert x_series_at(B, T, 5) == prof.series_at(T, B.field.q, 5)
        assert x_series_at(B, None, 5) == prof.zero_series(B.field.q, 5)


def test_piecewise_geometric_exceptional_checks():
    with pytest.raises(ValueError):
        PiecewiseGeometric(1, 1, {}, 2, [(ONE, (2, 1))])
    prof = PiecewiseGeometric(1, 1, {0: RF.const(7)}, 1, [(ONE, (2, 1))])
    assert prof.value_at(0) == RF.const(7)
    assert prof.value_at(2) == RF.monomial(4, 2)


def test_zero_value_defaults_to_constant_tail_part():
    prof = PiecewiseGeometric(
        2, 1, {}, 0, [(ONE / (ONE - Zv), (0, 0)), (Zv, (2, 1))])
    assert prof.zero_value == ONE / (ONE - Zv)
    override = PiecewiseGeometric(2, 1, {}, 0, [(Zv, (2, 1))],
                                  zero_value=RF.const(5))
    assert override.zero_value == RF.const(5)


def test_pi_assemblies_agree_on_samples():
    for B in (DiagonalForm(Q2, []), DiagonalForm(Q2, [1]),
              DiagonalForm(Q2, [1, 1, 1]), DiagonalForm(Q2, [1, 1, 1, 1]),
              DiagonalForm(F3, [2, 3])):
        prof = closed_profile(B)
        assert pi_from_x(prof) == pi_geometric(prof)


def test_pi_geometric_refuses_divergent_tail():
    bad = PiecewiseGeometric(1, 1, {}, 0, [(ONE, (-1, 0))])
    with pytest.raises(ValueError):
        pi_geometric(bad)


def test_x_from_levels_rebuilds_closed_form():
    for B, T in [(DiagonalForm(Q2, [1]), 0), (DiagonalForm(Q2, [1]), 1),
                 (DiagonalForm(Q2, [1, 1, 1]), 1), (DiagonalForm(F3, [3]), 0)]:
        field = B.field
        e, n = field.e, B.n
        iq = Fraction(1, field.q)
        cut = 2 * T + e + 1
        rho = field.uniformizer() ** (2 * T)
        levels = [count_level_histogram(B, rho, l) for l in range(cut + 1)]
        got = x_from_levels(levels, e, n, T).eval_partial(iq=iq)
        assert got == closed_profile(B).value_at(T).eval_partial(iq=iq)
    with pytest.raises(ValueError):
        x_from_levels([Fraction(1, 2)], 1, 1, 1)


def test_x_from_levels_zero_rebuilds_zero_target():
    for B in (DiagonalForm(Q2, [1]), DiagonalForm(Q2, [1, -5]),
              DiagonalForm(F3, [2, 3])):
        field = B.field
        e, n = field.e, B.n
        iq = Fraction(1, field.q)
        levels = [count_level_histogram(B, None, l) for l in range(e + 2)]
        got = x_from_levels_zero(levels, e, n).eval_partial(iq=iq)
        assert got == closed_profile(B).zero_value.eval_partial(iq=iq)
    with pytest.raises(ValueError):
        x_from_levels_zero([1, 1, 1], 2, 2)


def test_dimension_reduce_round_trip():
    f = (ONE + Zv * AVv) / (ONE - Zv * IQv)
    for k in (1, 2, 3):
        up = dimension_reduce(f, k)
        # undo it by hand: drop Z(beta+1)/Z(beta+k+1), then z -> z q^k
        pref = (ONE - Zv * IQv ** (k + 1)) / (ONE - Zv * IQv)
        assert (up / pref).subst_monomial(VAR_Z, 1, (1, -k, 0)) == f
    assert dimension_reduce(f, 0) == f
    with pytest.raises(ValueError):
        dimension_reduce(f, -1)


def test_dimension_reduce_matches_plane_counting():
    for field, coeffs in ((Q2, [1]), (F3, [2, 3])):
        B = DiagonalForm(field, coeffs)
        prof = closed_profile(B)
        iq = Fraction(1, field.q)
        for k in (1, 2):
            Bk = DiagonalForm(field, coeffs, planes=k)
            for T in (0, 1):
                reduced = dimension_reduce(prof.value_at(T), k)
                got = reduced.series_z(5, iq=iq)
                # plane forms are isotropic, so count every level directly
                want = list(x_series_at(Bk, T, 5, direct=True))
                assert got == want, (field.q, k, T)


def test_zeta_Z_shapes():
    assert zeta_Z() == ONE / (ONE - AVv)
    assert zeta_Z(2, 3) == ONE / (ONE - AVv ** 2 * IQv ** 3)
    v = ONE + IQv
    assert zeta_Z(1, 0, extra=v) == ONE / (ONE - AVv * v)
    got = zeta_Z(1, 3).eval_partial(iq=Fraction(1, 2), av=Fraction(1, 4))
    assert got.as_fraction() == Fraction(32, 31)


def test_local_factor_substitution():
    # av -> av iq^-n and z -> iq^k, then a (1 - av)/av scaling
    assert local_factor_chain(AVv, 2, 0) == RF.monomial(0, -2, 0) * (ONE - AVv)
    assert local_factor_chain(Zv * AVv, 2, 3) \
        == RF.monomial(0, 1, 0) * (ONE - AVv)
    f = ONE / (ONE - AVv * Zv)
    manual = ONE / (ONE - AVv * RF.monomial(0, -2, 0))
    assert local_factor_chain(f, 3, 1) == manual * (ONE - AVv) / AVv


def test_local_factor_chain_is_substituted_assembly():
    B = DiagonalForm(Q2, [1])
    prof = closed_profile(B)
    n, k = 5, 2
    manual = pi_from_x(prof)  # the other assembly route
    manual = manual.subst_monomial(VAR_AV, 1, (0, -n, 1))
    manual = manual.subst_monomial(VAR_Z, 1, (0, k, 0))
    manual = manual * (ONE - AVv) / AVv
    assert local_factor_chain(pi_geometric(prof), n, k) == manual


def test_halfstep_sum_identity():
    for o in (0, 1, 2, 3):
        for L in range(8):
            direct = RF.const(0)
            for l in range(L):
                direct = direct + Zv ** l * IQv ** ((l + o + 1) // 2)
            assert halfstep_sum(L, o) == direct
    with pytest.raises(ValueError):
        halfstep_sum(-1, 0)


def test_hot_paths_run_no_anisotropy_search(monkeypatch):
    # the invariant rule decides; the search is verify's and the tests' oracle
    def refuse(B):
        raise AssertionError("anisotropy search on a hot path: %r" % (B,))
    monkeypatch.setattr(qform, "_anisotropic_by_search", refuse)
    # rebuild the table rows' kernels and their closed profiles
    qform._chain_kernel.cache_clear()
    monkeypatch.setattr(periods, "_KERNEL_PROFILES", {})
    B = case_representative(Q2, "binary_unit4_minus", d=2)
    assert case_for_form(B).tag == "binary_unit4_minus"
    closed_profile(B)
    for T in (0, 1, 2, 3, None):
        x_series_at(B, T, 4)
    for field in (Q2, make_field(2, 2, "unramified"), R2):
        for m in range(5):
            for kind in ("square", "prime", "unit4"):
                try:
                    B = anisotropic_representative(field, m, disc_kind=kind)
                except ValueError:
                    continue  # no anisotropic class with this discriminant
                assert B.m == m
    for n in range(3, 11):
        assert verify_table_row(n)["pass"]


def test_anisotropy_search_disagreement_fails_verify(monkeypatch, capsys):
    monkeypatch.setattr(checks, "_anisotropic_by_search",
                        lambda B: not is_anisotropic(B))
    assert main(["verify", "--closedforms", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL closedform q=2 e=1 empty d=None  (anisotropy search)" in out
    # the Pi assemblies read the profiles of the rows that passed it
    assert "FAIL pi assembly agreement" in out
