"""The verification suite behind `qperiods verify`.

Each check holds a result against an independent route to it (closed form
against direct counting, symbolic assembly against summation, measure
against enumeration) or against a law it must obey, and reports (name,
passed, detail).  Representative forms come from the closed-form case
table through `case_representative`.
"""

import os
import pickle
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np

from .localfield import (make_field, quadratic_defect, hilbert_symbol,
                         count_square_roots, unit_class_reps,
                         _symbol_by_search)
from .qform import DiagonalForm, is_anisotropic, _anisotropic_by_search
from .counting import (x_series, x_series_many, conic_measure,
                       residually_anisotropic_pair)
from .closedforms import (CASE_TAGS, case_for_form, case_representative,
                          x_closed, UnsupportedCase, ClosedFormCase,
                          pi_geometric, pi_from_x, halfstep_sum,
                          dimension_reduce)
from .ratfunc import RF, Poly, Zv, IQv
from .periods import verify_table_row

SUBSETS = ("lemmas", "closedforms", "tables")


def _matrix_configs(quick=False):
    q2 = make_field(2)
    q4 = make_field(2, 2, "unramified")
    r2 = make_field(2, 1, "ramified", c1=0, c0=-2)
    f3 = make_field(3)
    # every case tag once, with its defects d on Q2 and Q4 where it has any
    defects = {"unit_nonsquare": (1, 2), "binary_odd_defect_minus": (1,),
               "binary_odd_defect_plus": (1,)}
    all16 = [(tag, d) for tag in CASE_TAGS for d in defects.get(tag, (None,))]
    out = [(q2, tag, d) for tag, d in all16]
    if quick:
        out += [(q4, "unit_square", None), (q4, "ternary_square", None),
                (r2, "prime", None), (f3, "binary_unit4_minus", None)]
        return out
    out += [(q4, tag, d) for tag, d in all16]
    out += [(r2, tag, d) for tag, d in
            [("empty", None), ("unit_square", None), ("unit_nonsquare", 1),
             ("unit_nonsquare", 3), ("unit_nonsquare", 4), ("prime", None),
             ("binary_prime_plus", None), ("binary_prime_minus", None),
             ("binary_unit4_minus", None), ("binary_odd_defect_minus", 1),
             ("binary_odd_defect_minus", 3)]]
    out += [(f3, tag, d) for tag, d in
            [("empty", None), ("unit_square", None), ("unit_nonsquare", 0),
             ("prime", None), ("binary_prime_plus", None),
             ("binary_prime_minus", None), ("binary_unit4_minus", None)]]
    return out


def _checks_closedforms(quick=False):
    out = []
    L = 4 if quick else 6
    Ts = range(2) if quick else range(4)
    profs = {}  # the closed profile of every row that dispatched to its tag
    for field, tag, d in _matrix_configs(quick):
        key = (field.q, field.e, tag, d)
        name = "closedform q=%d e=%d %s d=%s" % key
        B = case_representative(field, tag, d)
        # the invariant rule decides everywhere else; here a search holds it
        if _anisotropic_by_search(B) != is_anisotropic(B):
            out.append((name, False, "anisotropy search"))
            continue
        case = case_for_form(B)
        if case.tag != tag:
            out.append((name, False, "dispatched to %s" % case.tag))
            continue
        prof = profs[key] = x_closed(case)
        w = field.uniformizer()
        *counted, zero = x_series_many(B, [w ** (2 * T) for T in Ts] + [None],
                                       L)
        ok, detail = True, ""
        for T, s in zip(Ts, counted):
            if prof.series_at(T, field.q, L) != list(s.coeffs):
                ok, detail = False, "series mismatch at T=%d" % T
                break
        if ok and prof.zero_series(field.q, L) != list(zero.coeffs):
            ok, detail = False, "zero-target mismatch"
        out.append((name, ok, detail))

    # closed forms that require e = 1 must refuse other fields
    refused = True
    for tag in ("binary_unit4_plus", "ternary_square", "quaternary"):
        try:
            x_closed(ClosedFormCase(tag, 0, 2, d=1))
            refused = False
        except UnsupportedCase:
            pass
    out.append(("closedform unsupported-e refusal", refused, ""))

    # the two Pi assemblies agree for every case of the quick matrix
    ok = True
    for field, tag, d in _matrix_configs(True):
        prof = profs.get((field.q, field.e, tag, d))
        if prof is None or pi_from_x(prof) != pi_geometric(prof):
            ok = False
    out.append(("pi assembly agreement", ok, ""))

    # half-step sum identity
    ok = True
    for o in range(5):
        for Ln in range(10):
            direct = RF.const(0)
            for l in range(Ln):
                direct = direct + Zv ** l * IQv ** ((l + o + 1) // 2)
            if halfstep_sum(Ln, o) != direct:
                ok = False
    out.append(("half-step sum identity", ok, ""))

    # dimension reduction against direct counting, order 5
    ok, detail = True, ""
    order = 5
    for p in (2, 3):
        field = make_field(p)
        for k in (1, 2):
            for coeffs, rho in [([1], 1), ([1, -5], 1)]:
                B = DiagonalForm(field, coeffs)
                Bk = DiagonalForm(field, coeffs, planes=k)
                small = x_series(B, field.elt(rho), order, direct=True)
                big = x_series(Bk, field.elt(rho), order, direct=True)
                f = RF(Poly({(l, 0, 0): c
                             for l, c in enumerate(small.coeffs)}))
                rhs = dimension_reduce(f, k).series_z(order,
                                                      iq=Fraction(1, field.q))
                if rhs != list(big.coeffs):
                    ok, detail = False, "p=%d k=%d %r" % (p, k, coeffs)
    out.append(("dimension reduction vs counting", ok, detail))
    return out


def _square_counts(ring):
    """How many x in the ring have each square x^2, keyed by coordinates."""
    xs = ring.coords()
    return Counter(zip(*(c.tolist() for c in ring.mul(xs, xs))))


def _square_root_pairs(field):
    """The (rho, l) pairs of the square-root check, l = 1..4: for each class
    of o/pi^l, the first nonzero element of o/pi^6, in coords() order, that
    reduces to it.  The first-seen lift is kept, not a canonical one, since
    count_square_roots reads rho's defect, which rho mod pi^l does not fix."""
    xs = field.ring(6).coords()
    nonzero = np.logical_or.reduce([c != 0 for c in xs])
    xs = [c[nonzero] for c in xs]
    for l in range(1, 5):
        rl = field.ring(l)
        _, first = np.unique(rl.flat_index(rl.reduce(xs)), return_index=True)
        for coords in zip(*(c[first].tolist() for c in xs)):
            yield field.elt(*coords), l


def _checks_lemmas(field, quick=False):
    out = []
    q, e = field.q, field.e
    fname = "q=%d" % q

    # one-step decay of the level counts past ord(2 rho), and the
    # recursion that derives the targets pi^(k+2), k = 2, 3: X_l(0)
    # while e + l <= k + 2, else q^-n X_(l-2)(pi^k); the stabilized
    # series of pi^3, pi^4 and pi^5, counted or derived, are the direct
    # ones
    ok, detail = True, ""
    reps = [case_representative(field, tag) for tag in
            ("unit_square", "prime", "binary_unit4_minus", "ternary_square")]
    w = field.uniformizer()
    rhos = [field.elt(1), w, w ** 2, field.elt(2) * field.elt(3)]
    cuts = [int(rho.ord()) + e + 1 for rho in rhos]
    L = max(cuts) + 3
    for B in reps:
        *series, zero, s3, s4, s5 = x_series_many(
            B, rhos + [None, w ** 3, w ** 4, w ** 5], L, direct=True)
        for rho, c, s in zip(rhos, cuts, series):
            for l in range(c, c + 3):
                if s[l + 1] * q != s[l]:
                    ok, detail = False, "m=%d ord=%d l=%d" % (
                        B.m, int(rho.ord()), l)
        if x_series_many(B, [w ** 3, w ** 4, w ** 5], L) != [s3, s4, s5]:
            ok, detail = False, "m=%d stabilized ord 3..5" % B.m
        by_ord = {2: series[2], 3: s3, 4: s4, 5: s5}
        for k in (2, 3):
            for l in range(L + 1):
                want = (zero[l] if e + l <= k + 2
                        else by_ord[k][l - 2] / q ** B.n)
                if by_ord[k + 2][l] != want:
                    ok, detail = False, "m=%d ord=%d l=%d" % (
                        B.m, k + 2, l)
    out.append(("stabilized decay %s" % fname, ok, detail))

    # square-root counts against enumeration
    ok, detail = True, ""
    squares = {l: _square_counts(field.ring(l)) for l in range(1, 5)}
    for rho, l in _square_root_pairs(field):
        rl = field.ring(l)
        hits = squares[l][rl.reduce(rho)]
        if count_square_roots(field, rho, l) != Fraction(hits, rl.size):
            ok, detail = False, "rho=%r l=%d" % (rho, l)
    out.append(("square-root measure %s" % fname, ok, detail))

    # unit-cross-term conic: measure q^-l + q^-(l-1)/q at every level
    ok, detail = True, ""
    u, v = residually_anisotropic_pair(field)
    grid = [(1, 0, 0, 1), (1, 0, 0, 3), (3, 1, 0, 0), (1, 1, 1, 1),
            (5, 0, 1, 2), (1, 2, 2, 1)]
    for C, bx, ay, d0 in grid:
        Ce, bxe, aye, d0e = (field.elt(C), field.elt(bx),
                             field.elt(ay), field.elt(d0))
        probe = (u * aye * aye + (Ce + 2) * aye * bxe
                 + v * bxe * bxe + d0e)
        if not probe.is_unit():
            continue
        for l in range(1, 4 if quick else 5):
            got = conic_measure(field, u, v, l, C=C, bx=bx, ay=ay, d0=d0)
            want = Fraction(1, q ** l) + Fraction(1, q ** (l + 1))
            if got != want:
                ok, detail = False, "C=%d bx=%d ay=%d d0=%d l=%d" % (
                    C, bx, ay, d0, l)
    out.append(("conic measure %s" % fname, ok, detail))

    # symbol properties: symmetric and bimultiplicative by construction
    # from the Gram matrix, so also held against a solution search
    ok, detail = True, ""
    sample = list(unit_class_reps(field))
    sample += [s * w for s in sample[:3]]
    for i, a in enumerate(sample):
        for b in sample[i:]:
            s = _symbol_by_search(field, a, b)
            if s != hilbert_symbol(field, a, b) or s != hilbert_symbol(
                    field, b, a):
                ok, detail = False, "search at %r, %r" % (a, b)
    for a in sample[:4]:
        for b in sample[:4]:
            for c in sample[:4]:
                lhs = hilbert_symbol(field, a * b, c)
                rhs = hilbert_symbol(field, a, c) * hilbert_symbol(field, b, c)
                if lhs != rhs:
                    ok, detail = False, "bimultiplicativity"
    delta = case_representative(field, "unit_nonsquare", 2 * e).coeffs[0]
    for a in sample:
        if hilbert_symbol(field, a, delta) != (-1) ** int(a.ord()):
            ok, detail = False, "unit4 pairing at %r" % a
    out.append(("symbol properties %s" % fname, ok, detail))

    # defect classification: squares, odd defects below 2e, or 2e
    ok, detail = True, ""
    for uu in unit_class_reps(field):
        res = quadratic_defect(field, uu)
        if res.is_square:
            continue
        if not (res.d == 2 * e or (res.d % 2 == 1 and res.d < 2 * e)):
            ok, detail = False, "unit defect %r -> %r" % (uu, res)
    out.append(("defect classification %s" % fname, ok, detail))
    return out


def _checks_tables(ns):
    out = []
    for n in ns:
        try:
            r = verify_table_row(n)
        except ValueError as ex:  # a kernel the closed forms refuse
            out.append(("tables n=%d" % n, False, str(ex)))
            continue
        detail = " ".join("%s:%s" % (k, "ok" if v["pass"] else "FAIL")
                          for k, v in sorted(r["checks"].items()))
        if r["flags"]:
            detail += "  [%d flag(s)]" % len(r["flags"])
        out.append(("tables n=%d" % n, r["pass"], detail))
    return out


def _jobs(subsets, ns, quick):
    """The checks of the named subsets as independent jobs, in SUBSETS
    order: the lemmas of each field, the closed forms (one job, since "pi
    assembly agreement" reads the profiles of the matrix rows), the table
    rows."""
    jobs = []
    if "lemmas" in subsets:
        fields = [make_field(2)]
        if not quick:
            fields.append(make_field(2, 2, "unramified"))
        jobs += [partial(_checks_lemmas, field, quick) for field in fields]
    if "closedforms" in subsets:
        jobs.append(partial(_checks_closedforms, quick))
    if "tables" in subsets:
        jobs.append(partial(_checks_tables, ns))
    return jobs


def _cpus():
    """The processes run_checks may use: one per CPU this process may run
    on, or one where the platform cannot fork or report its CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(share):
    return [r for job in share for r in job()]


def _fork(share):
    """Run share in a forked child; returns its pid and the read end of its
    pipe.  The child writes one pickle of (True, results) or (False,
    exception) and leaves by os._exit, so it never returns into its
    caller's stack and runs no exit handler of its parent."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            reply = (True, _run_share(share))
        except BaseException as ex:
            reply = (False, ex)
        with os.fdopen(w, "wb") as fh:
            fh.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _reap(pid, r):
    """The (ok, results or exception) reply of a forked share, read to its
    end before the child is waited for."""
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not data:
        return False, RuntimeError(
            "check process %d ended with status %d and no reply"
            % (pid, status))
    return pickle.loads(data)


def run_checks(subsets, ns, quick):
    """Run the named subsets of SUBSETS, in that order, with table rows ns;
    quick trims the matrix and the levels.  Returns (name, passed, detail)
    triples.

    The jobs are cut into one contiguous share per process, up to one
    process per CPU: forked children run the leading shares and this
    process the last one.  Every child is read and waited for before this
    returns or raises; the results keep the job order, and the exception
    raised is the first in that order, as if the jobs had run here."""
    jobs = _jobs(subsets, ns, quick)
    n = max(1, min(_cpus(), len(jobs)))
    shares = [jobs[i * len(jobs) // n:(i + 1) * len(jobs) // n]
              for i in range(n)]
    children = []
    try:
        for share in shares[:-1]:
            children.append(_fork(share))
        try:
            own = (True, _run_share(shares[-1]))
        except Exception as ex:
            own = (False, ex)
    finally:
        replies = [_reap(pid, r) for pid, r in children]
    out = []
    for ok, value in replies + [own]:
        if not ok:
            raise value
        out += value
    return out
