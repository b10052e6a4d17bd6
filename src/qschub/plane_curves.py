"""Counts of rational plane curves through points in general position.

N_d is the number of degree-d rational curves in the projective plane
passing through 3d - 1 general points.  Starting from N_1 = 1 (the line
through two points), the recursion obtained from associativity of the
quantum product of the plane determines every higher value:

    N_d = sum over a + b = d, a, b >= 1 of
          N_a * N_b * a^2 * b * (b * C(3d-4, 3a-2) - a * C(3d-4, 3a-1))

All arithmetic is exact; the values grow fast (N_12 has 27 digits) and are
kept in a dense memo table.  Each new degree builds its one row of
binomials C(3d-4, k) by exact recurrence, and the terms a and b = d - a
share their binomials, so only a <= d/2 is summed: about d^2/4 big-integer
products up to degree d.  Degrees above MAX_ND_DEGREE are refused rather
than left to run for long.
"""

from threading import Lock

from .errors import require_within

MAX_ND_DEGREE = 500  # N_500 takes about 1.5 s in process; N_1000 about 30 s

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
        n = 3 * e - 4
        row = [1]  # C(n, k) for k <= n/2, then mirrored to k <= n
        for k in range(1, n // 2 + 1):
            row.append(row[-1] * (n - k + 1) // k)
        row += row[n - len(row)::-1]
        # the terms a and b = e - a share their binomials, so pair them
        total = 0
        for a in range(1, (e + 1) // 2):
            b = e - a
            total += _table[a] * _table[b] * a * b * (
                2 * a * b * row[3 * a - 2] - a * a * row[3 * a - 1] - b * b * row[3 * a - 3]
            )
        if e % 2 == 0:
            a = e // 2
            total += _table[a] ** 2 * a**4 * (row[3 * a - 2] - row[3 * a - 1])
        _table.append(total)


def nd_values(up_to: int) -> list[tuple[int, int]]:
    """The pairs (d, N_d) for d = 1..up_to; up_to is checked like a degree
    before any work."""
    kontsevich_nd(up_to)
    return [(d, kontsevich_nd(d)) for d in range(1, up_to + 1)]


def reset_cache() -> None:
    """Drop every memoized value (used to test cold-cache determinism)."""
    with _extending:
        del _table[2:]
