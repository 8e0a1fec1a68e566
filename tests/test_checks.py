import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import qperiods
from qperiods import checks, closedforms, periods
from qperiods.cli import main
from qperiods.localfield import make_field, InternalConsistencyError


def test_square_counts_match_elementwise_squaring():
    fields = [make_field(2), make_field(2, 2, "unramified"),
              make_field(2, 1, "ramified", c1=0, c0=-2), make_field(3)]
    for field in fields:
        for level in range(0, 5):
            ring = field.ring(level)
            want = Counter(tuple(ring.mul(x, x)) for x in ring.elements())
            got = checks._square_counts(ring)
            assert got == want, (field.q, field.e, level)
            assert sum(got.values()) == ring.size


def test_table_row_whose_kernel_is_refused_fails_its_check(monkeypatch):
    # an exception from the route under test is a failed row, not a crash
    monkeypatch.setattr(closedforms, "is_anisotropic", lambda B: False)
    monkeypatch.setattr(periods, "_KERNEL_PROFILES", {})
    assert checks._checks_tables([3]) == [
        ("tables n=3", False, "closed forms cover anisotropic forms only")]


def test_square_root_pairs_match_the_elementwise_loop():
    # the loop the array pass replaced: lift every nonzero element of
    # o/pi^6 and keep the first lift of each class of o/pi^l
    for field in (make_field(2), make_field(2, 2, "unramified")):
        ring6 = field.ring(6)
        want, seen = set(), set()
        for coords in ring6.elements():
            rho = ring6.lift(coords)
            if rho.is_zero():
                continue
            for l in range(1, 5):
                key = (tuple(field.ring(l).reduce(rho)), l)
                if key not in seen:
                    seen.add(key)
                    want.add((rho.coords, l))
        got = [(rho.coords, l) for rho, l in checks._square_root_pairs(field)]
        assert len(got) == len(set(got))
        assert set(got) == want, field.q


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("subsets, quick", [
    (("lemmas",), False), (("closedforms",), False), (("tables",), False),
    (checks.SUBSETS, False), (checks.SUBSETS, True)])
def test_results_do_not_depend_on_the_number_of_processes(monkeypatch,
                                                          subsets, quick):
    ns = range(3, 19)
    want = checks.run_checks(subsets, ns, quick)
    with monkeypatch.context() as m:
        _cpus(m, 1)
        assert checks.run_checks(subsets, ns, quick) == want
    _assert_no_child()
    _cpus(monkeypatch, 4)  # one process per job
    assert checks.run_checks(subsets, ns, quick) == want
    _assert_no_child()


def _raise(exc):
    def check(*args, **kwargs):
        raise exc
    return check


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("patches, code, line", [
    ({"count_square_roots": ValueError("boom")}, 2, "error: boom"),
    ({"count_square_roots": InternalConsistencyError("boom")}, 3,
     "error: internal consistency: boom"),
    # a lemma comes before the closed forms, in a child and inline alike
    ({"count_square_roots": ValueError("lemma"),
      "halfstep_sum": InternalConsistencyError("closed form")}, 2,
     "error: lemma")])
def test_error_in_a_check_exits_once_with_its_code(monkeypatch, capfd, cpus,
                                                   patches, code, line):
    _cpus(monkeypatch, cpus)
    for name, exc in patches.items():
        monkeypatch.setattr(checks, name, _raise(exc))
    assert main(["verify"]) == code
    out, err = capfd.readouterr()
    assert (out, err) == ("", line + "\n")
    _assert_no_child()


# Reports the pid of verify's first forked child, then waits to be killed.
_KILLED_AFTER_FORK = """
import os, time
from qperiods.cli import main
fork = os.fork
def announce():
    pid = fork()
    if pid:
        print(pid, flush=True)
        time.sleep(60)
    return pid
os.fork = announce
os.sched_getaffinity = lambda pid: {0, 1}
main(["verify"])
"""


def _running(pid):
    """Whether pid is a live process (not gone and not a zombie)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def test_killed_verify_leaves_no_process():
    # a child runs a fixed share and blocks on nothing, so it ends on its
    # own when the process that forked it is killed
    src = str(Path(qperiods.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_AFTER_FORK],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        child = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 10
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)
