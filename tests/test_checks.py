from collections import Counter

from qperiods import checks, closedforms, periods
from qperiods.localfield import make_field


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
