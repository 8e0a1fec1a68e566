import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

import qperiods

from qperiods.cli import main, parse_field, parse_element, parse_form, \
    parse_n_range, UsageError
from qperiods.counting import pi_truncated
from qperiods.periods import evaluate_period, _frac_str
from qperiods import cli
from qperiods.localfield import make_field, InternalConsistencyError
from qperiods.qform import DiagonalForm

Q2 = make_field(2)
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_parse_field_variants():
    assert parse_field("q2").q == 2
    assert parse_field("2").q == 2
    assert parse_field("q4").q == 4
    assert parse_field("9").q == 9
    assert parse_field("ram(0,-2)").e0 == 2
    for bad in ("q6", "junk", "ram(1,1)", ""):
        with pytest.raises(UsageError):
            parse_field(bad)


def test_parse_element_variants():
    assert parse_element("5", Q2) == Q2.elt(5)
    assert parse_element("-3", Q2) == Q2.elt(-3)
    assert parse_element("2*w", Q2) == Q2.elt(4)
    assert parse_element("w^3", Q2) == Q2.elt(8)
    q4 = make_field(2, 2, "unramified")
    assert parse_element("(1,2)", q4) == q4.elt(1, 2)
    for bad in ("foo", "", "(1,2)"):
        with pytest.raises(UsageError):
            parse_element(bad, Q2)


def test_parse_form_variants():
    assert parse_form("x1^2 + x2^2", Q2) == [Q2.elt(1), Q2.elt(1)]
    assert parse_form("3*x^2 - w*x^2", Q2) == [Q2.elt(3), Q2.elt(-2)]
    assert parse_form("2x^2", Q2) == [Q2.elt(2)]
    for bad in ("", "x^3", "x +* x", "y^2"):
        with pytest.raises(UsageError):
            parse_form(bad, Q2)


def test_parse_n_range():
    assert list(parse_n_range("4")) == [4]
    assert list(parse_n_range("3..6")) == [3, 4, 5, 6]
    for bad in ("6..3", "x", "3..x"):
        with pytest.raises(UsageError):
            parse_n_range(bad)


# ---------------------------------------------------------------------------
# command round trips
# ---------------------------------------------------------------------------

def test_xseries_oracle_example(capsys):
    argv = ("xseries", "--field", "q2", "--form", "x^2", "--rho", "1",
            "--L", "4")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == "coeffs 1/2,1/2,1/2,1/4,1/8"
    # counting is the default mode; the flag that named it is gone
    assert run(capsys, *argv, "--oracle")[0] == 2


def test_xseries_closed_matches_oracle(capsys):
    j1 = run_json(capsys, "xseries", "--field", "q2", "--form", "x^2",
                  "--T", "0", "--L", "4", "--json")
    j2 = run_json(capsys, "xseries", "--field", "q2", "--form", "x^2",
                  "--T", "0", "--L", "4", "--closed", "--json")
    assert j1["coeffs"] == j2["coeffs"]
    assert (j1["mode"], j2["mode"]) == ("oracle", "closed")


def test_xseries_usage_errors(capsys):
    base = ("xseries", "--field", "q2", "--form", "x^2", "--L", "4")
    assert run(capsys, *base)[0] == 2                       # no target
    assert run(capsys, *base, "--closed")[0] == 2           # no --T/--zero
    assert run(capsys, *base, "--closed", "--rho", "1")[0] == 2


def test_classify_json(capsys):
    j = run_json(capsys, "classify", "--field", "q2",
                 "--form", "x1^2+x2^2+x3^2", "--json")
    assert j["m"] == 3
    assert j["anisotropic"] is True
    assert j["case"]["tag"] == "ternary_odd_defect"
    j = run_json(capsys, "classify", "--field", "q2",
                 "--form", "x^2 - x^2", "--json")
    assert j["anisotropic"] is False
    assert j["case"] is None


def test_defect_json(capsys):
    j = run_json(capsys, "defect", "--field", "q2", "--value", "5", "--json")
    assert (j["kind"], j["d"], j["defect_ideal"]) == ("defect", 2, "pi^2*o")
    j = run_json(capsys, "defect", "--field", "q2", "--value", "20", "--json")
    assert (j["d"], j["ord"]) == (4, 2)
    j = run_json(capsys, "defect", "--field", "q2", "--value", "-7", "--json")
    assert (j["kind"], j["defect_ideal"]) == ("square", "0")
    assert run(capsys, "defect", "--field", "q2", "--value", "0")[0] == 2


def test_hilbert_json(capsys):
    j = run_json(capsys, "hilbert", "--field", "q2",
                 "--a", "-1", "--b", "-1", "--json")
    assert j["symbol"] == -1
    j = run_json(capsys, "hilbert", "--field", "q2",
                 "--a", "2", "--b", "7", "--json")
    assert j["symbol"] == 1
    assert run(capsys, "hilbert", "--field", "q2",
               "--a", "0", "--b", "3")[0] == 2


def test_count_methods_agree(capsys):
    base = ("count", "--field", "q2", "--form", "x1^2+x2^2",
            "--rho", "1", "--ell", "3", "--json")
    jh = run_json(capsys, *base, "--method", "histogram")
    jn = run_json(capsys, *base, "--method", "naive")
    assert jh["value"] == jn["value"]
    jz = run_json(capsys, "count", "--field", "q2", "--form", "x1^2+x2^2",
                  "--zero", "--ell", "2", "--json")
    assert Fraction(jz["value"]) <= 1


def test_pi_symbolic_and_truncated(capsys):
    j = run_json(capsys, "pi", "--field", "q2", "--form", "x^2",
                 "--symbolic", "--json")
    assert "a" in j["pi"]  # av-dependence survives to the output
    j = run_json(capsys, "pi", "--field", "q2", "--form", "x^2",
                 "--alpha-value", "1/3", "--L", "4", "--T-max", "8", "--json")
    want = pi_truncated(DiagonalForm(Q2, [1]), Fraction(1, 3), 4, 8)
    assert j["coeffs"] == ["%d/%d" % (c.numerator, c.denominator)
                           for c in want]
    assert run(capsys, "pi", "--field", "q2", "--form", "x^2")[0] == 2
    assert run(capsys, "pi", "--field", "q2", "--form", "x^2",
               "--alpha-value", "abc")[0] == 2


def test_localfactor_rows(capsys):
    # row with a symbolic ratio and one that only matches numerically at q=2
    for n in (3, 7):
        j = run_json(capsys, "localfactor", "--n", str(n), "--json")
        assert j["consistent"] is True
        assert j["ratio"] is not None
    j = run_json(capsys, "localfactor", "--n", "3", "--alpha", "10", "--json")
    assert j["value"] == "131072/127"
    # alpha = n puts the zeta factor on its pole
    code, out, err = run(capsys, "localfactor", "--n", "3", "--alpha", "3")
    assert code == 2 and out == ""
    assert err == "error: alpha = 3 sits on a pole; needs alpha > 4\n"
    # off the poles, alpha <= n + 1 is still outside the convergence range
    for alpha in ("0", "4"):
        code, out, err = run(capsys, "localfactor", "--n", "3", "--alpha", alpha)
        assert code == 2 and out == ""
        assert err == ("error: need alpha > n + 1 = 4 for convergence, got %s\n"
                       % alpha)


def test_period_json(capsys):
    j = run_json(capsys, "period", "--n", "6", "--alpha", "10",
                 "--pmax", "97", "--json")
    assert j["decimal"] == "1.082833296781"
    assert Fraction(j["tail_bound"]) < Fraction(2, 10 ** 6)
    assert j["normalization"] == "up to a multiplicative constant"
    code, out, _ = run(capsys, "period", "--n", "6", "--alpha", "10",
                       "--pmax", "11")
    assert code == 0 and "tail <=" in out
    assert run(capsys, "period", "--n", "6", "--alpha", "7",
               "--pmax", "97")[0] == 2


def test_verify_tables_range(capsys):
    code, out, _ = run(capsys, "verify", "--tables", "--n", "3..18")
    assert code == 0
    assert "verify: 16/16 checks passed" in out


def test_verify_quick_full_suite(capsys):
    j = run_json(capsys, "verify", "--quick", "--json")
    assert j["pass"] is True
    assert all(c["pass"] for c in j["checks"])
    names = [c["name"] for c in j["checks"]]
    assert any(n.startswith("tables") for n in names)
    assert any(n.startswith("closedform") for n in names)
    assert any(n.startswith("stabilized decay") for n in names)


def test_verify_json_matches_golden_file(capsys):
    # tests/data/verify.json is the full suite's output, pinned when the
    # drivers moved out of the CLI; any change to it must be deliberate
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    assert out == (DATA / "verify.json").read_text()


def test_verify_bad_range(capsys):
    assert run(capsys, "verify", "--tables", "--n", "6..3")[0] == 2


@pytest.mark.parametrize("text", ["0", "2..4"])
def test_verify_rows_below_3_are_a_usage_error(capsys, text):
    # as for localfactor --n 2: nothing on stdout, the reason on stderr
    code, out, err = run(capsys, "verify", "--tables", "--n", text)
    assert (code, out) == (2, "")
    assert err == "error: need n >= 3 (smaller targets are anisotropic)\n"
    assert run(capsys, "localfactor", "--n", "2")[1:] == ("", err)


def test_verify_rows_from_3_run(capsys):
    code, out, _ = run(capsys, "verify", "--tables", "--n", "3")
    assert (code, out) == (0, "ok   tables n=3  (a:ok b:ok c:ok)\n"
                              "verify: 1/1 checks passed\n")


def test_localfactor_json_matches_golden_file(capsys):
    # tests/data/localfactor.jsonl is `localfactor --json` for n = 3..18,
    # without and with --alpha n+3, pinned when the verdict moved out of the
    # CLI into periods.local_factor_report; any change must be deliberate
    outs = []
    for n in range(3, 19):
        for extra in ((), ("--alpha", str(n + 3))):
            code, out, _ = run(capsys, "localfactor", "--n", str(n), *extra,
                               "--json")
            assert code == 0
            outs.append(out)
    assert "".join(outs) == (DATA / "localfactor.jsonl").read_text()


def test_period_plain_output_with_large_pmax(capsys):
    # the exact value has more digits than int-to-str conversion allows by
    # default; the plain output prints only the decimal and must not need it
    code, out, err = run(capsys, "period", "--n", "6", "--alpha", "9",
                         "--pmax", "3000")
    assert code == 0, err
    assert "tail <=" in out


def test_period_json_with_large_pmax(capsys):
    # value is a short certified approximation, so --json no longer grows
    # with pmax
    j = run_json(capsys, "period", "--n", "6", "--alpha", "9",
                 "--pmax", "100000", "--json")
    assert j["decimal"] == "1.203794101447"
    value, tail = Fraction(j["value"]), Fraction(j["tail_bound"])
    assert 0 < tail < Fraction(1, 10 ** 9)
    assert abs(value - Fraction(j["decimal"])) <= Fraction(1, 2 * 10 ** 12)


def test_period_json_past_the_digit_limit_names_alpha(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length to str")
    # no odd prime: the exact even factor alone has the digits
    code, out, err = run(capsys, "period", "--n", "6", "--alpha", "20000",
                         "--pmax", "2", "--json")
    assert code == 2 and out == ""
    m = re.fullmatch(r"error: --json prints value and tail_bound as exact "
                     r"fractions, which have up to (\d+) digits at "
                     r"alpha = 20000; drop --json to print the decimal\n",
                     err)
    assert m, err
    pv = evaluate_period(6, 20000, 2)
    longest = max(k for x in (pv.value, pv.tail_bound)
                  for k in (x.numerator, x.denominator))
    digits = int(m.group(1))
    assert digits > limit
    assert 10 ** (digits - 1) <= longest < 10 ** digits


def test_verify_tables_past_the_str_digit_limit_in_bounded_time(capsys):
    # check (a)'s ratio at n = 100000 has parts of about 15,000 digits, past
    # the 4,300 that Python converts from int to str by default
    t0 = perf_counter()
    code, out, err = run(capsys, "verify", "--tables", "--n", "100000")
    assert perf_counter() - t0 < 10.0
    assert (code, out) == (0, "ok   tables n=100000  (a:ok b:ok c:ok)\n"
                              "verify: 1/1 checks passed\n"), err
    assert _frac_str(Fraction(-3, 7)) == "-3/7"
    assert _frac_str(Fraction(-10 ** 5000, 7)) == "-<5001 digits>/<1 digits>"


def test_period_past_the_str_digit_limit_prints_scientific(capsys):
    # about 6,000 digits before the point, past the 4,300 that Python
    # converts from int to str by default
    t0 = perf_counter()
    code, out, err = run(capsys, "period", "--n", "20000", "--alpha", "20002",
                         "--pmax", "3")
    assert perf_counter() - t0 < 10.0
    assert code == 0 and err == ""
    m = re.search(r" ~ (\d)\.(\d{11})e\+(\d+)  tail <= ", out)
    assert m, out
    unit = Fraction(10) ** (int(m.group(3)) - 11)
    value = evaluate_period(20000, 20002, 3).value
    assert abs(value - int(m.group(1) + m.group(2)) * unit) <= unit / 2
    code, out, err = run(capsys, "period", "--n", "20000", "--alpha", "20002",
                         "--pmax", "3", "--digits", "1")
    assert code == 0 and re.search(r" ~ \de\+\d+  tail", out), out


def test_period_pmax_past_the_limit_exits_2_at_once(capsys):
    t0 = perf_counter()
    code, out, err = run(capsys, "period", "--n", "6", "--alpha", "9",
                         "--pmax", "1000000000")
    assert perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: p_max must be at most 10000000, got 1000000000\n"


def test_period_json_at_pmax_1e6_in_bounded_time(capsys):
    t0 = perf_counter()
    j = run_json(capsys, "period", "--n", "6", "--alpha", "9",
                 "--pmax", "1000000", "--json")
    assert perf_counter() - t0 < 10.0
    assert j["decimal"] == "1.203794101452"


def test_period_past_the_float_range_exits_0(capsys):
    # row 4's correction divides by q^-alpha: the tail bound is near 2^1100
    code, out, err = run(capsys, "period", "--n", "1100", "--alpha", "1102",
                         "--pmax", "3")
    assert code == 0 and err == ""
    assert "tail <= 1.936e+332\n" in out
    j = run_json(capsys, "period", "--n", "1100", "--alpha", "1102",
                 "--pmax", "3", "--json")
    assert Fraction(j["tail_bound"]) > 10 ** 332


def test_tail_layout_matches_float_formatting_in_its_range():
    xs = [Fraction(0), Fraction(17, 16), Fraction(99995, 10 ** 9),
          Fraction(1, 3) * 2 ** 1000, Fraction(2, 7) * Fraction(1, 2) ** 1050]
    xs += [evaluate_period(n, n + 2, 97).tail_bound for n in range(3, 11)]
    for x in xs:
        assert cli._sci(x) == "%.3e" % float(x)
    # below the float range, where float(x) is 0.0, the bound still shows
    assert cli._sci(Fraction(1, 10 ** 400)) == "1.000e-400"


def test_json_output_is_deterministic(capsys):
    argvs = [
        ("classify", "--field", "q2", "--form", "x1^2+7*x2^2", "--json"),
        ("period", "--n", "6", "--alpha", "10", "--pmax", "37", "--json"),
        ("xseries", "--field", "q4", "--form", "x^2", "--T", "1",
         "--L", "5", "--json"),
    ]
    for argv in argvs:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "classify", "--field", "q6", "--form", "x^2")[0] == 2
    assert run(capsys, "classify", "--field", "q2", "--form", "x^3")[0] == 2
    assert run(capsys, "count", "--field", "q2", "--form", "x^2",
               "--rho", "foo", "--ell", "1")[0] == 2
    # closed form for an isotropic form is a usage-level rejection
    assert run(capsys, "xseries", "--field", "q2", "--form", "x^2-x^2",
               "--T", "0", "--L", "4", "--closed")[0] == 2


@pytest.mark.parametrize("option, value, rest", [
    ("--a", "-w", ("hilbert", "--field", "q2", "--b", "w")),
    ("--b", "-w^3", ("hilbert", "--field", "q4", "--a", "w")),
    ("--value", "-w", ("defect", "--field", "q2")),
    ("--rho", "-w", ("count", "--field", "q2", "--form", "x1^2+x2^2",
                     "--ell", "4")),
    ("--form", "-x1^2+w*x2^2", ("classify", "--field", "q2")),
    # argparse resolves an abbreviation, and the value is joined to it
    ("--val", "-w", ("defect", "--field", "q2")),
    ("--rh", "-3*w", ("count", "--field", "q2", "--form", "x1^2+x2^2",
                      "--ell", "4")),
], ids=["a", "b", "value", "rho", "form", "value-abbreviated",
        "rho-abbreviated"])
def test_a_value_starting_with_minus_and_a_letter_is_read(capsys, option,
                                                          value, rest):
    # argparse takes a separate word "-w" for an option; these options take
    # it as their value, as they do with --a=-w
    want = run(capsys, *rest, "%s=%s" % (option, value))
    assert want[0] == 0, want[2]
    assert run(capsys, *rest, option, value) == want


@pytest.mark.parametrize("argv, want", [
    (("hilbert", "--field", "1009", "--a", "3", "--b", "5"), "(3, 5) = +1\n"),
    (("hilbert", "--field", "10007", "--a", "3", "--b", "5"), "(3, 5) = +1\n"),
    (("hilbert", "--field", "10007", "--a", "w", "--b", "5"), "(w, 5) = -1\n"),
    (("defect", "--field", "10007", "--value", "5"),
     "defect(5): kind=defect d=0 ideal=pi^0*o (ord 0)\n"),
    # anisotropy from the invariants: -1 is a square mod 1009, not mod 131
    (("classify", "--field", "1009", "--form", "x1^2+x2^2+x3^2"),
     "m=3 disc=1 kind=square d=None hmi=+1 anisotropic=no case=-\n"),
    (("classify", "--field", "10007", "--form", "x1^2+x2^2+x3^2"),
     "m=3 disc=5 kind=unit4 d=0 hmi=+1 anisotropic=no case=-\n"),
    (("classify", "--field", "131", "--form", "x1^2+x2^2"),
     "m=2 disc=2 kind=unit4 d=0 hmi=+1 anisotropic=yes case=-\n"),
    # #{x^2 + y^2 = 1 mod 131} = 132
    (("xseries", "--field", "131", "--form", "x1^2+x2^2", "--T", "0",
      "--L", "3"), "coeffs 1/1,132/17161,132/2248091,132/294499921\n"),
], ids=["hilbert-1009", "hilbert-10007", "hilbert-10007-w", "defect-10007",
        "classify-1009", "classify-10007", "classify-131", "xseries-131"])
def test_large_prime_fields_answer_in_bounded_time(capsys, argv, want):
    # 5 is a nonresidue mod 10007; the classes come from the field's table
    t0 = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - t0 < 5
    assert (code, out) == (0, want), err


def test_searches_past_their_budget_exit_2(capsys):
    # the unramified field of degree 2 over Q_10007
    t0 = perf_counter()
    code, out, err = run(capsys, "hilbert", "--field", "q100140049", "--a",
                         "3", "--b", "5")
    assert perf_counter() - t0 < 5
    assert code == 2 and out == ""
    assert "exceeds the budget" in err


def test_isotropic_form_needs_direct_counting(capsys):
    form = ("--field", "5", "--form", "x1^2+x2^2")
    for argv in (("pi", *form, "--alpha-value=1/3"),
                 ("xseries", *form, "--T", "0", "--L", "3")):
        assert run(capsys, *argv) == (
            2, "", "error: stabilized extension needs an anisotropic form\n")
    assert run(capsys, "xseries", *form, "--T", "0", "--L", "3",
               "--direct") == (0, "coeffs 1/1,4/25,4/125,4/625\n", "")


def test_fields_past_trial_division_exit_2_at_once(capsys):
    # 10^24 + 7 is prime, which Miller-Rabin decides at once, and its
    # square-class table is refused; from 3317044064679887385961981 on the
    # test is not proven, and below it a strong pseudoprime to the bases
    # 2..37 is still found composite
    for field, message in (
            ("1000000000000000000000007", "exceeds the budget"),
            ("3317044064679887385961981", "primality of 3317044064679887385961981"
                                          " is not decided"),
            ("318665857834031151167461", "is not prime")):
        t0 = perf_counter()
        code, out, err = run(capsys, "hilbert", "--field", field, "--a", "3",
                             "--b", "5")
        assert perf_counter() - t0 < 5
        assert code == 2 and out == "" and message in err, err


def test_count_without_target_exits_2(capsys):
    code, out, err = run(capsys, "count", "--field", "Q2", "--form",
                         "x1^2+x2^2+x3^2", "--ell", "3")
    assert code == 2 and out == ""
    assert err == "error: need one of --rho, --zero\n"


def test_internal_consistency_error_exits_3(capsys, monkeypatch):
    def disagree(B):
        raise InternalConsistencyError("rule and search disagree")
    monkeypatch.setattr(cli, "is_anisotropic", disagree)
    code, out, err = run(capsys, "classify", "--field", "q2", "--form", "x^2")
    assert code == 3 and out == ""
    assert err == "error: internal consistency: rule and search disagree\n"


@pytest.mark.parametrize("digits", ["0", "-2"])
def test_period_digits_below_1_exit_2(capsys, digits):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "period", "--n", "6", "--alpha", "9",
                             "--pmax", "97", "--digits", digits, *extra)
        assert code == 2 and out == ""
        assert err == "error: digits must be at least 1, got %s\n" % digits


def test_pi_bad_alpha_value_and_negative_T_max_exit_2(capsys):
    code, out, err = run(capsys, "pi", "--field", "q2", "--form", "x^2",
                         "--alpha-value", "0/0")
    assert code == 2 and out == ""
    assert err == "error: cannot parse --alpha-value '0/0'\n"
    code, out, err = run(capsys, "pi", "--field", "q2", "--form", "x^2",
                         "--alpha-value", "1/4", "--T-max", "-1")
    assert code == 2 and out == ""
    assert err == "error: negative T_max\n"


def test_pi_symbolic_with_alpha_value_exits_2(capsys):
    # --symbolic ignores the numeric flags, so it refuses --alpha-value
    code, out, err = run(capsys, "pi", "--field", "q2", "--form",
                         "x1^2+x2^2+x3^2", "--symbolic", "--alpha-value",
                         "abc", "--T-max", "-5")
    assert code == 2 and out == ""
    assert "argument --alpha-value: not allowed with argument --symbolic" in err


def test_pi_symbolic_with_L_or_T_max_exits_2(capsys):
    # --symbolic has no truncation, so --L and --T-max are refused with it
    for extra in (("--T-max", "-5", "--L", "-3"), ("--L", "4"),
                  ("--T-max", "24")):
        code, out, err = run(capsys, "pi", "--field", "q2", "--form",
                             "x1^2+x2^2+x3^2", "--symbolic", *extra)
        assert code == 2 and out == ""
        assert err == "error: --symbolic takes no --L or --T-max\n"
    # without them it prints Pi, and --alpha-value still defaults to 6, 24
    code, out, err = run(capsys, "pi", "--field", "q2", "--form",
                         "x1^2+x2^2+x3^2", "--symbolic")
    assert code == 0 and out.startswith("Pi = ")
    got = run_json(capsys, "pi", "--field", "q2", "--form", "x1^2+x2^2+x3^2",
                   "--alpha-value", "1/3", "--json")
    assert (got["L"], got["T_max"], len(got["coeffs"])) == (6, 24, 7)


def test_count_cliffs_answer_in_bounded_time(capsys):
    # Q3 at level 12 (3^12 classes) and Q9 at level 6 (729^2 classes) are
    # transformed at their own lengths; padded to powers of two, the first
    # took seconds and the second was refused as a transform of 2^24
    for field, form, ell, want in (
            ("3", "x1^2+x2^2+x3^2+x4^2+x5^2", "12", "X_12 = 10/4782969\n"),
            # X_5 = 80/4782969, and a unit target at odd p loses 1/q a level
            ("q9", "x1^2+x2^2+x3^2+x4^2", "6", "X_6 = 80/43046721\n")):
        t0 = perf_counter()
        code, out, err = run(capsys, "count", "--field", field, "--form", form,
                             "--rho", "1", "--ell", ell)
        assert perf_counter() - t0 < 10.0
        assert (code, out) == (0, want), err
    assert run(capsys, "count", "--field", "q9", "--form",
               "x1^2+x2^2+x3^2+x4^2", "--rho", "1", "--ell", "5")[1] \
        == "X_5 = 80/4782969\n"


# One child interpreter per example runs cli.main under an address-space
# limit, so an input that crashes, hangs or runs out of memory fails the
# test instead of the test process; the examples run one at a time.
_CHILD = ("import resource, sys; "
          "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
          "from qperiods.cli import main; sys.exit(main(sys.argv[1:]))")


FIELDS = st.sampled_from(("q2", "q4", "ram(0,-2)", "3", "5", "7", "q9", "131"))


def _child(argv):
    """cli.main(argv) in a child under the limits above: its exit code
    and stdout, after checking that it answered or refused."""
    src = str(Path(qperiods.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode in (0, 2), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
    return proc.returncode, proc.stdout


def _form(squares):
    return "+".join("x%d^2" % i for i in range(1, squares + 1))


@given(field=FIELDS, squares=st.integers(1, 6), planes=st.integers(0, 1),
       ell=st.integers(0, 40),
       target=st.sampled_from((("--rho", "1"), ("--zero",))))
@settings(max_examples=12, derandomize=True, deadline=None)
def test_count_answers_or_refuses_every_accepted_input(field, squares, planes,
                                                       ell, target):
    # the input contract of count: an answer (exit 0) or a refusal with a
    # message (exit 2), within a bounded time and memory, never a traceback
    code, out = _child(["count", "--field", field, "--form", _form(squares),
                        "--planes", str(planes), "--ell", str(ell), *target])
    if code == 0:
        assert re.fullmatch(r"X_%d = \d+(/\d+)?\n" % ell, out)


_COEFFS = r"coeffs -?\d+(/\d+)?(,-?\d+(/\d+)?){%d}\n"


@given(field=FIELDS, squares=st.integers(1, 6), planes=st.integers(0, 1),
       L=st.integers(-1, 24),
       target=st.sampled_from((("--rho", "1"), ("--T", "1"), ("--zero",))))
@example("q4", 2, 1, 6, ("--T", "1"))
@example("ram(0,-2)", 4, 0, 12, ("--zero",))
@example("q9", 3, 0, 4, ("--rho", "1"))
@settings(max_examples=6, derandomize=True, deadline=None)
def test_direct_xseries_answers_or_refuses_every_accepted_input(
        field, squares, planes, L, target):
    # the same contract for xseries --direct: every level counted
    code, out = _child(["xseries", "--field", field, "--form", _form(squares),
                        "--planes", str(planes), "--L", str(L), "--direct",
                        *target])
    if code == 0:
        assert re.fullmatch(_COEFFS % L, out)


# anisotropic over some of the fields and isotropic over others
_PI_FORMS = ("x1^2", "x1^2+w*x2^2", "x1^2+x2^2+w*x3^2",
             "x1^2+3*x2^2+w*x3^2+3*w*x4^2")


@given(field=FIELDS, form=st.sampled_from(_PI_FORMS),
       alpha=st.sampled_from(("1/4", "1/3", "2", "-1/2", "0", "1/0")),
       L=st.integers(-1, 12), T_max=st.integers(-1, 12))
@example("q4", _PI_FORMS[1], "1/4", 6, 8)
@example("ram(0,-2)", _PI_FORMS[3], "-1/2", 12, 12)
@example("q9", _PI_FORMS[1], "2", 4, 6)
@settings(max_examples=6, derandomize=True, deadline=None)
def test_pi_alpha_value_answers_or_refuses_every_accepted_input(
        field, form, alpha, L, T_max):
    # the same contract for pi --alpha-value: stabilized series at every T
    code, out = _child(["pi", "--field", field, "--form", form,
                        "--alpha-value=" + alpha, "--L", str(L),
                        "--T-max", str(T_max)])
    if code == 0:
        assert re.fullmatch(_COEFFS % L, out)


def _signed_term(c, k, name):
    return "%s%d*w^%d%s" % ("-" if c < 0 else "+", abs(c), k, name)


# c * w^k with c = 0 among them, and with a sign the form grammar reads
_ELEMENTS = st.builds(lambda c, k: _signed_term(c, k, "").lstrip("+"),
                      st.integers(-9, 9), st.integers(0, 3))


@given(field=FIELDS, a=_ELEMENTS, b=_ELEMENTS)
@example("q4", "3*w^1", "-5*w^0")
@example("ram(0,-2)", "-1*w^1", "3*w^2")
@settings(max_examples=4, derandomize=True, deadline=None)
def test_hilbert_answers_or_refuses_every_accepted_input(field, a, b):
    # the same contract for hilbert, whose answer is symmetric
    code, out = _child(["hilbert", "--field", field, "--a=" + a, "--b=" + b])
    code_swapped, out_swapped = _child(["hilbert", "--field", field,
                                        "--a=" + b, "--b=" + a])
    assert code == code_swapped
    if code == 0:
        want = r"\(%s, %s\) = ([+-]1)\n"
        symbol = re.fullmatch(want % (re.escape(a), re.escape(b)), out)[1]
        assert re.fullmatch(want % (re.escape(b), re.escape(a)),
                            out_swapped)[1] == symbol


@given(field=FIELDS, terms=st.lists(st.tuples(st.integers(-9, 9),
                                              st.integers(0, 2)),
                                    min_size=1, max_size=5),
       planes=st.integers(0, 1))
@example("q2", [(1, 0)] * 4, 0)
@example("q4", [(1, 0), (3, 1), (5, 0), (3, 1)], 0)
@example("ram(0,-2)", [(1, 0), (-1, 1), (3, 0)], 0)
@settings(max_examples=4, derandomize=True, deadline=None)
def test_classify_answers_or_refuses_every_accepted_input(field, terms,
                                                          planes):
    # the same contract for classify
    form = "".join(_signed_term(c, k, "*x%d^2" % i)
                   for i, (c, k) in enumerate(terms, 1))
    code, out = _child(["classify", "--field", field, "--form=" + form,
                        "--planes", str(planes)])
    if code == 0:
        assert out.startswith("m=%d disc=" % (len(terms) + 2 * planes))


_BIG = st.integers(-10 ** 30, 10 ** 30)
# (syntax, a, b): an integer a, a * w^b, or the coordinate pair (a, b)
_DEFECT_VALUES = st.one_of(
    st.tuples(st.just("int"), _BIG, st.just(0)),
    st.tuples(st.just("w"), _BIG, st.integers(0, 6)),
    st.tuples(st.just("pair"), _BIG, _BIG))


def _defect_value(field, syntax, a, b, shift):
    """The value drawn, times w^shift, in the element grammar."""
    if syntax != "pair":
        return "%d*w^%d" % (a, b + shift)
    parsed = parse_field(field)
    if parsed.ncoords != 2:
        return "(%d,%d)" % (a, b)  # refused either way
    return "(%d,%d)" % (parsed.elt(a, b) * parsed.uniformizer() ** shift).coords


@given(field=FIELDS, value=_DEFECT_VALUES)
@example("q4", ("pair", 10 ** 30, -(10 ** 30)))
@example("ram(0,-2)", ("w", -(10 ** 30) + 1, 5))
@example("131", ("int", 131 ** 14, 0))
@example("q2", ("pair", 3, 1))
@settings(max_examples=6, derandomize=True, deadline=None)
def test_defect_answers_or_refuses_every_accepted_input(field, value):
    # the same contract for defect; value and value * w^2 have the same
    # kind, and their ord and defect exponent differ by 2
    syntax, a, b = value
    text = "%d" % a if syntax == "int" else _defect_value(field, *value, 0)
    answers = []
    for v in (text, _defect_value(field, *value, 2)):
        code, out = _child(["defect", "--field", field, "--value=" + v,
                            "--json"])
        answers.append((code, json.loads(out) if code == 0 else None))
    (code, got), (code2, got2) = answers
    assert code == code2
    if code == 0:
        assert got2["kind"] == got["kind"]
        assert got2["ord"] == got["ord"] + 2
        assert got2["d"] == (None if got["d"] is None else got["d"] + 2)


def test_xseries_closed_negative_L_exits_2(capsys):
    for target in (("--T", "1"), ("--zero",)):
        code, out, err = run(capsys, "xseries", "--field", "q2", "--form",
                             "x^2", "--closed", "--L", "-1", *target)
        assert code == 2 and out == ""
        assert err == "error: negative truncation order\n"


def test_count_past_the_prime_table_exits_2_before_allocating(capsys):
    # the Gauss-sum count needs no prime table, transform or array of the
    # ring's size: the inputs the NTT refused answer, each value derived by
    # hand from the roots of a unit.  x^2 = 1 mod pi^L with L > 2e has the
    # roots x = +-1 mod pi^(L-e), a measure 2 q^-(L-e) at level ell = L - e;
    # at p = 10^9 + 7 = 3 mod 4, x^2 + y^2 = 1 has p + 1 points over F_p
    p = 1000000007
    for field, form, ell, want in (
            ("q2", "x^2", "30", "X_30 = 1/%d" % 2 ** 29),
            ("q4", "x^2", "22", "X_22 = 1/%d" % 2 ** 43),
            ("1000000007", "x^2", "1", "X_1 = 2/%d" % p),
            ("1000000007", "x1^2+x2^2", "1", "X_1 = %d/%d" % (p + 1, p ** 2)),
            ("131", "x^2", "34", "X_34 = 2/%d" % 131 ** 34),
            ("131", "x^2", "1000", "X_1000 = 2/%d" % 131 ** 1000)):
        t0 = perf_counter()
        code, out, err = run(capsys, "count", "--field", field, "--form",
                             form, "--rho", "1", "--ell", ell)
        assert perf_counter() - t0 < 2.0
        assert (code, out) == (0, want + "\n"), err
    # past the bound on a count's bits, L n ceil(log2 q) with L = ell + e,
    # the count is refused before any work
    for field, ell, message in (
            ("q2", "32768", "counts over o/pi^L, L <= 32769, with q = 2 and "
                            "n + 2 planes = 1 take up to 32769 bits, beyond "
                            "the bound of 32768 bits"),
            ("131", "10000", "counts over o/pi^L, L <= 10000, with q = 131 "
                             "and n + 2 planes = 1 take up to 80000 bits, "
                             "beyond the bound of 32768 bits"),
            ("1000000007", "2000", "counts over o/pi^L, L <= 2000, with q = "
                                   "1000000007 and n + 2 planes = 1 take up "
                                   "to 60000 bits, beyond the bound of 32768 "
                                   "bits"),
            # refused before o/pi^L, with 2^L classes, is built
            ("q2", "100000000", "counts over o/pi^L, L <= 100000001, with "
                                "q = 2 and n + 2 planes = 1 take up to "
                                "100000001 bits, beyond the bound of 32768 "
                                "bits")):
        t0 = perf_counter()
        code, out, err = run(capsys, "count", "--field", field, "--form",
                             "x^2", "--rho", "1", "--ell", ell)
        assert perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message
