"""Counts of rational plane curves through points in general position.

N_d is the number of degree-d rational curves in the projective plane
passing through 3d - 1 general points.  From N_1 = 1 (the line through two
points), associativity of the quantum product of the plane determines every
higher value.  Kontsevich's recursion sums N_a N_b a^2 b (b C(3d-4, 3a-2) -
a C(3d-4, 3a-1)) over a + b = d; pairing a with b = d - a and multiplying
by (3a-1)(3b-1) merges its binomials C(3d-4, 3a-3..3a-1) into one:

    N_d = sum over a <= d/2, b = d - a, of
          N_a N_b C(3d-2, 3a-1) w / ((3d-3)(3d-2)),
    w = ab(3ab(d+2) - 2d^2), halved when a = b.

The division is exact term by term: with n = 3d - 2 and k = 3a - 1,
C(n, k) k(n-k) / (n(n-1)) = C(n-2, k-1), and likewise for the neighbours,
so each term over (3d-3)(3d-2) is Kontsevich's terms a and b summed, an
integer, and the a = b weight 2a^4(3a-1) is even.  Each degree divides once
and steps the binomial from C(n, 2) by three indices per a (one small
multiply, one exact small divide): about d^2/4 big-integer products up to
degree d, memoized densely.  Degrees above MAX_ND_DEGREE are refused.
"""

from threading import Lock

from .errors import require_within

MAX_ND_DEGREE = 500  # N_500 takes about 0.6 s in process; N_1000 about 9 s

_table: list[int] = [0, 1]  # _table[d] = N_d; index 0 is unused
_extending = Lock()  # held while _table grows or is cut back


def kontsevich_nd(d: int) -> int:
    """The number of rational plane curves of degree d through 3d - 1
    general points, by the associativity recursion from N_1 = 1."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_within("N_d", "d", MAX_ND_DEGREE, d)
    if len(_table) <= d:  # warm reads take no lock
        with _extending:  # a second thread appending at once would repeat a degree
            _extend(d)
    return _table[d]


def _extend(d: int) -> None:
    """Append N_e to _table for each degree e <= d it lacks."""
    while len(_table) <= d:
        e = len(_table)
        n = 3 * e - 2
        c = n * (n - 1) // 2  # C(n, 3a - 1)
        total = 0
        for a in range(1, e // 2 + 1):
            b = e - a
            w = a * b * (3 * a * b * (e + 2) - 2 * e * e)
            if a == b:
                w //= 2
            total += _table[b] * (_table[a] * (c * w))
            k = 3 * a - 1
            c = c * ((n - k) * (n - k - 1) * (n - k - 2)) // ((k + 1) * (k + 2) * (k + 3))
        _table.append(total // ((n - 1) * n))


def nd_values(up_to: int) -> list[tuple[int, int]]:
    """The pairs (d, N_d) for d = 1..up_to; up_to is checked like a degree
    before any work."""
    kontsevich_nd(up_to)
    return [(d, kontsevich_nd(d)) for d in range(1, up_to + 1)]


def reset_cache() -> None:
    """Drop every memoized value (used to test cold-cache determinism)."""
    with _extending:
        del _table[2:]
