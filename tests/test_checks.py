from collections import Counter

from qperiods import checks
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

