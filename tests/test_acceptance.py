import time
from fractions import Fraction

import pytest

from qperiods.localfield import (make_field, unit_class_reps, unit_defect_kind,
                                 quadratic_defect, hilbert_symbol,
                                 count_square_roots)
from qperiods.qform import DiagonalForm, anisotropic_representative
from qperiods.counting import (conic_measure, count_level_histogram,
                               count_level_naive, residually_anisotropic_pair,
                               x_series, x_series_at)
from qperiods.kernels import EnumBudgetError, primitive_zero_exists
from qperiods.ratfunc import RF, Zv, IQv
from qperiods.closedforms import (ClosedFormCase, CASE_TAGS, UnsupportedCase,
                                  case_for_form, closed_profile, halfstep_sum,
                                  pi_from_x, pi_geometric, x_closed,
                                  x_from_levels)
from qperiods.periods import evaluate_period, verify_table_row

Q2 = make_field(2)
Q4 = make_field(2, 2, "unramified")
R2 = make_field(2, 1, "ramified", c1=0, c0=-2)
F3 = make_field(3)

ONE = RF.const(1)


# ---------------------------------------------------------------------------
# Scaffolding: pick a representative form for every case the closed forms
# cover, over every supported field.  Kept local so the gate stands on its
# own reading of what each case means.
# ---------------------------------------------------------------------------

_BINARY = {"binary_prime_plus": ("prime", 1),
           "binary_prime_minus": ("prime", -1),
           "binary_unit4_minus": ("unit4", -1),
           "binary_unit4_plus": ("unit4", 1),
           "binary_odd_defect_minus": ("unitd", -1),
           "binary_odd_defect_plus": ("unitd", 1)}
_TERNARY = {"ternary_prime": "prime", "ternary_odd_defect": "unitd",
            "ternary_square": "square", "ternary_unit4": "unit4"}


def _unit_with_defect(field, want_kind, want_d=None):
    for u in unit_class_reps(field):
        kind, d = unit_defect_kind(field, u)
        if kind == want_kind and (want_d is None or d == want_d):
            return u
    raise AssertionError("no unit class with defect kind %r" % want_kind)


def _rep_for(field, tag, d):
    if tag == "empty":
        return DiagonalForm(field, [])
    if tag == "unit_square":
        return DiagonalForm(field, [1])
    if tag == "unit_nonsquare":
        kind = "unit4" if d == 2 * field.e else "unitd"
        u = _unit_with_defect(field, kind, None if kind == "unit4" else d)
        return DiagonalForm(field, [u])
    if tag == "prime":
        return DiagonalForm(field, [field.uniformizer()])
    if tag in _BINARY:
        kind, hmi = _BINARY[tag]
        return anisotropic_representative(field, 2, disc_kind=kind, d=d,
                                          hmi=hmi)
    if tag in _TERNARY:
        return anisotropic_representative(field, 3, disc_kind=_TERNARY[tag])
    return anisotropic_representative(field, 4)


_ALL16 = [("empty", None), ("unit_square", None), ("unit_nonsquare", 1),
          ("unit_nonsquare", 2), ("prime", None),
          ("binary_prime_plus", None), ("binary_prime_minus", None),
          ("binary_unit4_minus", None), ("binary_unit4_plus", None),
          ("binary_odd_defect_minus", 1), ("binary_odd_defect_plus", 1),
          ("ternary_prime", None), ("ternary_odd_defect", None),
          ("ternary_square", None), ("ternary_unit4", None),
          ("quaternary", None)]

# ramified e = 2: first-method cases only, odd defects d = 1 and 3
_RAMIFIED11 = [("empty", None), ("unit_square", None), ("unit_nonsquare", 1),
               ("unit_nonsquare", 3), ("unit_nonsquare", 4), ("prime", None),
               ("binary_prime_plus", None), ("binary_prime_minus", None),
               ("binary_unit4_minus", None), ("binary_odd_defect_minus", 1),
               ("binary_odd_defect_minus", 3)]

# odd residue characteristic: no odd-defect classes exist at all
_TAME7 = [("empty", None), ("unit_square", None), ("unit_nonsquare", 0),
          ("prime", None), ("binary_prime_plus", None),
          ("binary_prime_minus", None), ("binary_unit4_minus", None)]

_FIELD_CONFIGS = ((Q2, _ALL16), (Q4, _ALL16), (R2, _RAMIFIED11), (F3, _TAME7))


def _m_of(tag):
    if tag == "empty":
        return 0
    if tag.startswith("binary"):
        return 2
    if tag.startswith("ternary"):
        return 3
    if tag == "quaternary":
        return 4
    return 1


# ---------------------------------------------------------------------------
# Criterion 1: every closed form reproduces the brute-force level counts,
# exactly, for T = 0..3 and the zero target, through level 6.
# ---------------------------------------------------------------------------

def test_criterion_1_closed_forms_match_direct_counting_across_matrix():
    t0 = time.monotonic()
    configs = [(field, tag, d) for field, tags in _FIELD_CONFIGS
               for tag, d in tags]
    assert len(configs) == 50
    for field, tag, d in configs:
        B = _rep_for(field, tag, d)
        case = case_for_form(B)
        assert case.tag == tag, (field.q, field.e, tag, d, case.tag)
        prof = x_closed(case)
        for T in range(4):
            got = list(x_series_at(B, T, 6, direct=True).coeffs)
            assert got == prof.series_at(T, field.q, 6), \
                (field.q, field.e, tag, d, T)
        got = list(x_series_at(B, None, 6, direct=True).coeffs)
        assert got == prof.zero_series(field.q, 6), (field.q, field.e, tag, d)
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# Criterion 2: one-step decay of the level counts, X_{l+1} = X_l / q, checked
# by counting alone for three levels past ord(2 rho) on every representative
# of dimension at most 3.
# ---------------------------------------------------------------------------

def test_criterion_2_level_counts_decay_by_q_past_ord_two_rho():
    nonzero = 0
    for field, tags in _FIELD_CONFIGS:
        q, e = field.q, field.e
        w = field.uniformizer()
        rhos = [field.one(), w, w * w, field.elt(6)]
        for tag, d in tags:
            if tag in ("empty", "quaternary"):
                continue
            B = _rep_for(field, tag, d)
            for rho in rhos:
                c = int(rho.ord()) + e + 1
                vals = [count_level_histogram(B, rho, l)
                        for l in range(c, c + 4)]
                if vals[0]:
                    nonzero += 1
                for a, b in zip(vals, vals[1:]):
                    assert b * q == a, (q, e, tag, d, repr(rho))
    assert nonzero


# ---------------------------------------------------------------------------
# Criterion 3: the square-root measure and the residually anisotropic conic
# measure against element-by-element scans, all targets mod pi^6, levels <= 4.
# ---------------------------------------------------------------------------

def _conic_by_hand(field, u, v, ell, C, bx, ay, d0):
    ring = field.ring(ell)
    Cc, bxc, ayc, d0c = (ring.reduce(field.elt(t).coords)
                         for t in (C, bx, ay, d0))
    uc = ring.reduce(u.coords)
    vc = ring.reduce(v.coords)
    els = list(ring.elements())
    hits = 0
    for x in els:
        for y in els:
            val = ring.mul(uc, ring.mul(x, x))
            val = ring.add(val, ring.mul(Cc, ring.mul(x, y)))
            val = ring.add(val, ring.mul(vc, ring.mul(y, y)))
            val = ring.add(val, ring.mul(bxc, x))
            val = ring.add(val, ring.mul(ayc, y))
            val = ring.add(val, d0c)
            if all(c == 0 for c in val):
                hits += 1
    return Fraction(hits, ring.size ** 2)


def test_criterion_3_square_root_and_conic_measures_match_enumeration():
    for field in (Q2, Q4, R2, F3):
        per_level = []
        for l in range(1, 5):
            rl = field.ring(l)
            counts = {}
            for x in rl.elements():
                key = tuple(rl.mul(x, x))
                counts[key] = counts.get(key, 0) + 1
            per_level.append((rl, counts))
        for coords in field.ring(6).elements():
            rho = field.ring(6).lift(coords)
            assert count_square_roots(field, rho, 0) == 1
            for rl, counts in per_level:
                hits = counts.get(rl.reduce(rho.coords), 0)
                assert (count_square_roots(field, rho, rl.level)
                        == Fraction(hits, rl.size)), (field.q, repr(rho))

    grid = [(1, 0, 0, 1), (1, 0, 0, 3), (3, 1, 0, 0), (1, 1, 1, 1),
            (5, 0, 1, 2), (1, 2, 2, 1)]
    for field in (Q2, Q4):
        q = field.q
        u, v = residually_anisotropic_pair(field)
        used = 0
        for C, bx, ay, d0 in grid:
            Ce, bxe, aye, d0e = (field.elt(C), field.elt(bx),
                                 field.elt(ay), field.elt(d0))
            probe = u * aye * aye + (Ce + 2) * aye * bxe + v * bxe * bxe + d0e
            if not probe.is_unit():
                continue
            used += 1
            for l in range(1, 5):
                got = conic_measure(field, u, v, l, C=C, bx=bx, ay=ay, d0=d0)
                assert got == Fraction(1, q ** l) + Fraction(1, q ** (l + 1))
                if l <= 2:
                    assert got == _conic_by_hand(field, u, v, l, C, bx, ay, d0)
        assert used >= 4


# ---------------------------------------------------------------------------
# Criterion 4: assembly identities.  Both Pi assemblies agree on every
# buildable case; profiles rebuilt from counted levels match the closed
# forms; the half-step sum telescopes.
# ---------------------------------------------------------------------------

def test_criterion_4_assembly_identities_hold():
    d_options = {"unit_nonsquare": (0, 1, 2, 3, 4),
                 "binary_odd_defect_minus": (1, 3, 5),
                 "binary_odd_defect_plus": (1,)}
    combos = 0
    for tag in sorted(CASE_TAGS):
        for e in (0, 1, 2):
            for d in d_options.get(tag, (None,)):
                try:
                    prof = x_closed(ClosedFormCase(tag, _m_of(tag), e, d=d))
                except (UnsupportedCase, ValueError):
                    continue
                assert pi_from_x(prof) == pi_geometric(prof), (tag, e, d)
                combos += 1
    assert combos >= 30

    samples = [DiagonalForm(Q2, [1]), _rep_for(Q2, "ternary_unit4", None),
               _rep_for(Q2, "quaternary", None), DiagonalForm(Q4, [1]),
               DiagonalForm(R2, [3]), DiagonalForm(F3, [3])]
    for B in samples:
        field = B.field
        e, n = field.e, B.n
        iq = Fraction(1, field.q)
        prof = closed_profile(B)
        for T in range(4):
            cut = 2 * T + e + 1
            rho = field.uniformizer() ** (2 * T)
            levels = [count_level_histogram(B, rho, l)
                      for l in range(cut + 1)]
            got = x_from_levels(levels, e, n, T).eval_partial(iq=iq)
            assert got == prof.value_at(T).eval_partial(iq=iq), \
                (field.q, field.e, B.n, T)

    for o in range(5):
        for L in range(10):
            direct = RF.const(0)
            for l in range(L):
                direct = direct + Zv ** l * IQv ** ((l + o + 1) // 2)
            assert halfstep_sum(L, o) == direct, (L, o)


# ---------------------------------------------------------------------------
# Criterion 5: adding k hyperbolic planes multiplies the level series by the
# known prefactor after an iq-rescaling, coefficient by coefficient, with
# both sides counted directly.
# ---------------------------------------------------------------------------

def test_criterion_5_split_form_counts_factor_through_dimension_reduction():
    order = 5
    for field in (Q2, F3):
        iq = Fraction(1, field.q)
        for k in (1, 2):
            for coeffs in ([1], [1, -5]):
                B = DiagonalForm(field, coeffs)
                Bk = DiagonalForm(field, coeffs, planes=k)
                small = x_series(B, field.elt(1), order + 2 * k, direct=True)
                big = x_series(Bk, field.elt(1), order, direct=True)
                sub = [small[l] * iq ** (k * l) for l in range(len(small))]
                pref = ((ONE - Zv * IQv ** (k + 1))
                        / (ONE - Zv * IQv)).series_z(order, iq=iq)
                rhs = [sum(pref[j] * sub[l - j] for j in range(l + 1))
                       for l in range(order + 1)]
                assert rhs == list(big.coeffs), (field.q, k, coeffs)


# ---------------------------------------------------------------------------
# Criterion 6: the symbolic table of local densities and Euler factors
# verifies row by row, n = 3 .. 18.
# ---------------------------------------------------------------------------

def test_criterion_6_symbolic_tables_verify_for_all_rows():
    t0 = time.monotonic()
    reports = [verify_table_row(n) for n in range(3, 19)]
    assert [r["n"] for r in reports] == list(range(3, 19))
    for r in reports:
        assert r["pass"], r["n"]
        for name in ("a", "b", "c"):
            assert r["checks"][name]["pass"], (r["n"], name)
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# Criterion 7: symbol laws and the defect classification, each replayed
# against plain solution searches.
# ---------------------------------------------------------------------------

def _deepest_square_level(field, x, cap):
    best = 0
    for l in range(1, cap + 1):
        rl = field.ring(l)
        target = rl.reduce(x.coords)
        if any(tuple(rl.mul(y, y)) == target for y in rl.elements()):
            best = l
        else:
            break
    return best


def test_criterion_7_symbol_and_defect_laws_cross_check_against_search():
    for field in (Q2, Q4, R2, F3):
        e = field.e
        w = field.uniformizer()
        units = list(unit_class_reps(field))
        sample = units + [uu * w for uu in units[:3]]
        minus_one = field.elt(-1)

        def by_search(a, b):
            # a primitive zero of a x^2 + b y^2 - z^2 at the decision depth,
            # re-asked one level deeper so a spurious shallow zero cannot hide
            level = 3 * e + 3
            hit = primitive_zero_exists(field.ring(level),
                                        [a, b, minus_one])
            deep = primitive_zero_exists(field.ring(level + 1),
                                         [a, b, minus_one])
            assert hit == deep, (field.q, e, repr(a), repr(b))
            return 1 if hit else -1

        for a in sample:
            for b in sample:
                s = hilbert_symbol(field, a, b)
                assert s == hilbert_symbol(field, b, a)
                assert s == by_search(a, b), (field.q, e, repr(a), repr(b))

        for a in sample[:4]:
            for b in sample[:4]:
                for c in sample[:4]:
                    assert (hilbert_symbol(field, a * b, c)
                            == hilbert_symbol(field, a, c)
                            * hilbert_symbol(field, b, c))

        delta = _unit_with_defect(field, "unit4")
        for a in sample:
            assert hilbert_symbol(field, a, delta) == (-1) ** int(a.ord())

        probes = units + [uu * w for uu in units[:2]]
        cap = 2 * e + 2
        if field is not Q4:
            probes += [uu * w * w for uu in units[:2]]
            cap = 2 * e + 4
        for x in probes:
            res = quadratic_defect(field, x)
            best = _deepest_square_level(field, x, cap)
            if res.is_square:
                assert best == cap, repr(x)
            else:
                assert best == res.d, (repr(x), res.d, best)
            if res.o == 0 and not res.is_square:
                assert res.d == 2 * e or (res.d % 2 == 1 and res.d < 2 * e)


# ---------------------------------------------------------------------------
# Criterion 8: the histogram kernel reaches level 10 of the quaternary form
# in under a second, where raw enumeration would visit 2^44 points, and wins
# by three orders of magnitude where the raw count is still feasible.
# ---------------------------------------------------------------------------

def test_criterion_8_histogram_kernel_outpaces_naive_enumeration():
    B = _rep_for(Q2, "quaternary", None)
    rho = Q2.one()

    t0 = time.monotonic()
    deep = count_level_histogram(B, rho, 10)
    t_deep = time.monotonic() - t0
    assert t_deep < 1.0, t_deep
    assert deep == count_level_histogram(B, rho, 9) / 2

    with pytest.raises(EnumBudgetError):
        count_level_naive(B, rho, 10)

    t0 = time.monotonic()
    naive6 = count_level_naive(B, rho, 6, budget=1 << 29)
    t_naive = time.monotonic() - t0
    hist_times = []
    for _ in range(7):
        t0 = time.monotonic()
        hist6 = count_level_histogram(B, rho, 6)
        hist_times.append(time.monotonic() - t0)
        assert hist6 == naive6
    assert t_naive / min(hist_times) >= 1000.0, (t_naive, min(hist_times))


# ---------------------------------------------------------------------------
# Criterion 9: the reference period value sits inside an independently
# bracketed Dirichlet-series interval, within its own quoted tail bound.
# ---------------------------------------------------------------------------

def _zeta_interval(s, N):
    # integral bracketing of the tail: sum_{k>N} k^-s lies between
    # (N+1)^(1-s)/(s-1) and N^(1-s)/(s-1)
    part = sum(Fraction(1, k ** s) for k in range(1, N + 1))
    return (part + Fraction(1, (s - 1) * (N + 1) ** (s - 1)),
            part + Fraction(1, (s - 1) * N ** (s - 1)))


def test_criterion_9_reference_value_inside_dirichlet_interval():
    pv = evaluate_period(6, 10, 97)

    z4 = _zeta_interval(4, 200)
    z7 = _zeta_interval(7, 200)
    z14 = _zeta_interval(14, 200)
    # dyadic weight for n = 6 at alpha = 10: (1 - 2^-7) / (1 - 2^-14)
    c2 = Fraction((2 ** 7 - 1) * 2 ** 7, 2 ** 14 - 1)
    lo = z4[0] * z7[0] / z14[1] * c2
    hi = z4[1] * z7[1] / z14[0] * c2
    assert hi - lo < Fraction(1, 10 ** 7)

    gap = max(lo - pv.value, pv.value - hi, Fraction(0))
    assert gap <= pv.tail_bound, (float(gap), float(pv.tail_bound))
