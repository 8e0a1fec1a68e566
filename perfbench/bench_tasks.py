"""Workload definitions for the qperiods benchmark: task lists and answer checks.

A task is a JSON-serializable dict.  The parent process builds the task list
from the workload name and seed, the child process turns each task into
qperiods objects and runs it, and the parent checks every answer exactly
with `check`.  Nothing here is timed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per-task deadlines in seconds, well above the slowest task that completes
# at the seed commit (verify 10.7 s, deep-count 2.3 s, periods 5.4 s).
DEADLINES = {"verify": 60.0, "deep-count": 20.0, "periods": 30.0,
             "cliffs": 20.0}

FIELDS = {
    "q2": {"p": 2, "f": 1, "variant": "base"},
    "q4": {"p": 2, "f": 2, "variant": "unramified"},
    "r2": {"p": 2, "f": 1, "variant": "ramified", "c1": 0, "c0": -2},
    "q3": {"p": 3, "f": 1, "variant": "base"},
    "q5": {"p": 5, "f": 1, "variant": "base"},
}

# The anisotropic quaternary representative of each field at the seed
# commit, fixed here as coordinates so that the inputs do not move when the
# library's choice of representative does.
QUAT = {
    "q2": [[1], [1], [-3], [-3]],
    "q4": [[1], [1], [-2, -1], [-2, -1]],
    "r2": [[1], [1], [-1, -1], [-1, -1]],
    "q3": [[1], [-2], [-3], [6]],
    "q5": [[1], [-2], [-5], [10]],
}
FIVE = [[1]] * 5
ONE = [[1]]

# (id, field, coefficients, planes, ell, expected X_ell at target 1).
# expected None means: compare with closed_profile(...).series_at.  The
# recorded Fractions were cross-checked outside the counting kernel: the
# anisotropic forms by naive enumeration at level e + 1 and the decay law
# X_(l+1) = X_l / q, the five-variable forms by an independent int64
# convolution, and the plane form by counting 2yz = c through gcds.
DEEP_SLOTS = [
    ("q2-quat-l11", "q2", QUAT["q2"], 0, 11, None),
    ("q2-quat-l12", "q2", QUAT["q2"], 0, 12, None),
    ("q2-quat-l13", "q2", QUAT["q2"], 0, 13, None),
    ("q2-quat-l14", "q2", QUAT["q2"], 0, 14, None),
    ("q4-quat-l5", "q4", QUAT["q4"], 0, 5, None),
    ("q4-quat-l6", "q4", QUAT["q4"], 0, 6, None),
    ("r2-quat-l12", "r2", QUAT["r2"], 0, 12, "1/16384"),
    ("r2-quat-l13", "r2", QUAT["r2"], 0, 13, "1/32768"),
    ("q3-quat-l8", "q3", QUAT["q3"], 0, 8, "4/19683"),
    ("q5-quat-l5", "q5", QUAT["q5"], 0, 5, "6/15625"),
    ("q3-five-l8", "q3", FIVE, 0, 8, "10/59049"),
    ("q2-plane-l10", "q2", ONE, 1, 10, "1/1024"),
    ("q2-five-l11", "q2", FIVE, 0, 11, "5/32768"),
]

# Slots that fail at the seed commit: the first two run past any sensible
# deadline (more than 60 s and 51.8 s), the third raises EnumBudgetError at
# once.  They form the `cliffs` workload, which BENCHMARK.json does not list
# because its operations fail by design.
CLIFF_SLOTS = [
    ("q2-quat-l15", "q2", QUAT["q2"], 0, 15, None),
    ("q4-quat-l7", "q4", QUAT["q4"], 0, 7, None),
    ("q2-plane-l11", "q2", ONE, 1, 11, "1/2048"),
]

ROWS = range(3, 67)
PERIOD_CASES = [(n, p_max) for n in (3, 6, 10, 17, 33, 66)
                for p_max in (1000, 10000)] + [(6, 30000)]

WORKLOADS = ("verify", "deep-count", "periods", "cliffs")


def _random_unit(rng, field):
    """Coordinates of a random unit of the field (no squaring yet)."""
    p = field["p"]
    while True:
        if field["variant"] == "base":
            x = [rng.randrange(1, p ** 6)]
        else:
            x = [rng.randrange(p ** 6), rng.randrange(p ** 6)]
        if field["variant"] == "ramified":
            unit = x[0] % 2 == 1
        else:
            unit = any(c % p for c in x)
        if unit:
            return x


def _count_tasks(slots, rng):
    tasks = []
    for sid, fname, coeffs, planes, ell, expect in slots:
        field = FIELDS[fname]
        tasks.append({
            "id": sid, "kind": "count", "field": field, "coeffs": coeffs,
            "planes": planes, "ell": ell, "expect": expect,
            # coefficient i is multiplied by units[i]^2 and the target 1 by
            # target_unit^2: an isometric input with the same answer
            "units": [_random_unit(rng, field)
                      for _ in range(len(coeffs) + 2 * planes)],
            "target_unit": _random_unit(rng, field),
        })
    return tasks


def build(workload: str, seed: int):
    """The task list of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "verify":
        return [{"id": "verify", "kind": "verify"}]
    if workload == "deep-count":
        return _count_tasks(DEEP_SLOTS, rng)
    if workload == "cliffs":
        return _count_tasks(CLIFF_SLOTS, rng)
    if workload == "periods":
        tasks = [{"id": "row-%d" % n, "kind": "row", "n": n} for n in ROWS]
        # alpha sets the size of the exact Fractions (one step of alpha costs
        # up to 17% on a task), so it is fixed; the seed shuffles the order,
        # which spreads the short row tasks over the whole pass
        tasks += [{"id": "period-%d-%d" % (n, p_max), "kind": "period",
                   "n": n, "alpha": n + 3, "p_max": p_max}
                  for n, p_max in PERIOD_CASES]
        rng.shuffle(tasks)
        return tasks
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------------------
# Exact answer checks
# ---------------------------------------------------------------------------

def verify_check_names():
    with open(HERE / "verify_checks.json") as fh:
        return json.load(fh)


def frac_to_hex(x: Fraction) -> str:
    # hex has no digit limit and converts in linear time, unlike str(int)
    return "%x/%x" % (x.numerator, x.denominator) if x >= 0 else \
        "-%x/%x" % (-x.numerator, x.denominator)


def frac_from_hex(s: str) -> Fraction:
    sign = -1 if s.startswith("-") else 1
    num, den = s.lstrip("-").split("/")
    return Fraction(sign * int(num, 16), int(den, 16))


def _closed_form_value(task) -> Fraction:
    from qperiods.closedforms import closed_profile
    from qperiods.localfield import make_field
    from qperiods.qform import DiagonalForm
    field = make_field(**task["field"])
    B = DiagonalForm(field, [field.elt(*c) for c in task["coeffs"]],
                     task["planes"])
    return closed_profile(B).series_at(0, field.q, task["ell"])[task["ell"]]


def _odd_dirichlet_bracket(s: int, twisted: bool, N: int = 4001,
                           bits: int = 256):
    """[lo, hi] holding sum over odd k of chi(k) k^-s, where chi is 1 or,
    when twisted, the character mod 4; that sum is the Euler product over
    odd primes of zeta(s) or L(s, chi).  Partial sums in outward-rounded
    fixed point; N is odd."""
    one = 1 << bits
    lo = hi = 0
    for k in range(1, N + 1, 2):
        d = k ** s
        t_lo, t_hi = one // d, -(-one // d)
        if twisted and k % 4 == 3:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi
    if twisted:
        # alternating with falling terms: the remainder has the sign of the
        # next term and at most its size
        nxt = N + 2
        t = -(-one // nxt ** s)
        if nxt % 4 == 1:
            hi += t
        else:
            lo -= t
    else:
        # sum_{j>=1} (N+2j)^-s lies between the halved integrals of x^-s
        # from N+2 and from N
        lo += one // (2 * (s - 1) * (N + 2) ** (s - 1))
        hi += -(-one // (2 * (s - 1) * N ** (s - 1)))
    return Fraction(lo, one), Fraction(hi, one)


def period_bracket(n: int, alpha: int):
    """An interval for the full Euler product, independent of the truncated
    product: the exact even-prime factor (evaluate_period with p_max = 2)
    times Dirichlet-series brackets of each zeta/L factor."""
    from qperiods.periods import evaluate_period, table_row
    c2 = evaluate_period(n, alpha, 2).value
    lo = hi = abs(c2)
    for f in table_row(n).uncorrected:
        flo, fhi = _odd_dirichlet_bracket(f.exponent(alpha), f.kind == "L")
        if f.power == -1:
            flo, fhi = 1 / fhi, 1 / flo
        lo, hi = lo * flo, hi * fhi
    return (lo, hi) if c2 > 0 else (-hi, -lo)


def check(task, result, cache=None):
    """(ok, detail) for one task's result; `cache` memoizes expected values."""
    cache = {} if cache is None else cache
    kind = task["kind"]
    if kind == "verify":
        if result["code"] != 0 or result["pass"] is not True:
            return False, "verify did not pass"
        if result["names"] != verify_check_names():
            return False, "check names differ from the seed commit"
        return True, ""
    if kind == "row":
        return (result["pass"] is True,
                "" if result["pass"] is True else "table row failed")
    if kind == "count":
        key = ("count", task["id"])
        if key not in cache:
            cache[key] = (Fraction(task["expect"]) if task["expect"]
                          else _closed_form_value(task))
        got = Fraction(result)
        if got != cache[key]:
            return False, "got %s, expected %s" % (got, cache[key])
        return True, ""
    if kind == "period":
        key = ("bracket", task["n"], task["alpha"])
        if key not in cache:
            cache[key] = period_bracket(task["n"], task["alpha"])
        lo, hi = cache[key]
        value = frac_from_hex(result["value"])
        tail = frac_from_hex(result["tail"])
        gap = max(lo - value, value - hi, Fraction(0))
        if gap > tail:
            return False, "value %.3e outside the Dirichlet bracket" % float(gap)
        return True, ""
    raise ValueError("unknown task kind %r" % (kind,))
