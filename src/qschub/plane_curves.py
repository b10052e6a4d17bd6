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
integer, and the a = b weight 2a^4(3a-1) is even.  Each degree divides once,
after checking that the remainder is 0, and steps the binomial by three
indices per a (one small multiply, one exact small divide): about d^2/4
big-integer products up to degree d, memoized densely.  Degrees above
MAX_ND_DEGREE are refused.

A call that has to reach degree HELPER_FROM or more, on a machine with two
usable CPUs, starts one helper process (this module, in a fresh
interpreter without site) and computes degrees alone until the helper
writes its ready byte.  From then on degree e is split at
A_e = 1 + floor(PARENT_SHARE * floor(e/2)): this process sums the pairs
a < A_e, the helper sums the pairs A_e <= a <= e/2, and this process adds
the helper's partial sum and divides.  The helper's pairs use N_a and
N_{e-a} with A_e <= a <= e - A_e, values at least A_e degrees old, so the
helper runs ahead of this process and never waits for N_{e-1}.
Large-a pairs are balanced products costing about twice the lopsided
small-a ones, hence this process's larger share of the pairs.

Both pipes carry frames: a 4-byte little-endian length, then that many
bytes of a signed little-endian integer.  The helper gets the last degree
and PARENT_SHARE on its command line, so both sides split alike.  Its input
is the first degree it sums, then N_1, N_2, ...: each N_e is sent when this
process starts degree e + 1, so the last degree's value, which the helper
never reads, is not sent.  Its output is one ready byte, then one partial
sum per degree in order, after which it reads to the end of its input.  It
only ever waits for a value whose degree it has already summed, and before
each degree it reads everything waiting on its input without blocking, so
neither side stalls on the other or on a full pipe.  If the helper cannot
start, exits or sends a short frame, this process sums the missing pairs
itself and carries on alone, with the same values and nothing on stderr.
Either way the helper is killed if still running, and reaped, before the
call returns.
"""

import math
import os
import sys
from threading import Lock

from .errors import require_within

# N_500 takes 0.57 s in process alone and 0.31 s with the helper on two vCPUs;
# N_1000 alone about 9 s
MAX_ND_DEGREE = 500
# a call reaching this degree starts the helper, which costs more than it
# saves below about degree 210
HELPER_FROM = 225
PARENT_SHARE = 0.64  # of each degree's pairs, summed here; the helper sums the rest

_table: list[int] = [0, 1]  # _table[d] = N_d; index 0 is unused
_extending = Lock()  # held while _table grows or is cut back

# argv: the directory holding this qschub package, the last degree, PARENT_SHARE
_BOOTSTRAP = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from qschub.plane_curves import _serve; _serve(int(sys.argv[2]), float(sys.argv[3]))")


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
    # a thread that waited on the lock may find degree d already done
    large = d >= HELPER_FROM and d >= len(_table)
    helper = _Helper.start(d) if large and _usable_cpus() > 1 else None
    try:
        while len(_table) <= d:
            e = len(_table)
            n = 3 * e - 2
            end = e // 2 + 1
            split = end if helper is None else helper.split(e)
            total = _pair_sum(_table, e, 1, split)
            if split < end:
                part = helper.partial()
                if part is None:  # the helper is gone: sum its pairs here, then go on alone
                    helper = None
                    part = _pair_sum(_table, e, split, end)
                total += part
            value, rest = divmod(total, (n - 1) * n)
            if rest:
                raise RuntimeError(f"N_{e}: the pair sum leaves remainder {rest} mod (3e-3)(3e-2); "
                                   "this is a bug")
            _table.append(value)
    finally:
        if helper is not None:
            helper.close()


def _pair_sum(table: list[int], e: int, lo: int, hi: int) -> int:
    """The sum over lo <= a < hi, b = e - a, of N_a N_b C(3e-2, 3a-1) w,
    with the weight w of the module docstring."""
    n = 3 * e - 2
    k = 3 * lo - 1
    c = math.comb(n, k)
    total = 0
    for a in range(lo, hi):
        b = e - a
        w = a * b * (3 * a * b * (e + 2) - 2 * e * e)
        if a == b:
            w //= 2
        total += table[b] * (table[a] * (c * w))
        c = c * ((n - k) * (n - k - 1) * (n - k - 2)) // ((k + 1) * (k + 2) * (k + 3))
        k += 3
    return total


def _split(e: int, share: float) -> int:
    """A_e: this process sums degree e's pairs a < A_e, the helper the rest."""
    return 1 + int(share * (e // 2))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _frame(x: int) -> bytes:
    """x as one frame on a pipe (see the module docstring)."""
    body = x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True)
    return len(body).to_bytes(4, "little") + body


class _Helper:
    """The helper process, seen from _extend.  A failed read or write
    closes it; split() then hands every pair back to this process."""

    def __init__(self, proc, share: float):
        self._proc = proc
        self._share = share  # both sides split with this one value
        self._joined = False
        self._sent = 0  # the helper has N_1..N_sent

    @classmethod
    def start(cls, last: int) -> "_Helper | None":
        """A helper for the degrees up to last, or None if it cannot start."""
        import subprocess  # only a large N_d needs it

        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        share = PARENT_SHARE
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _BOOTSTRAP, src, str(last), repr(share)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError:
            return None
        return cls(proc, share)

    def split(self, e: int) -> int:
        """A_e once the helper is ready; until then, or once it is gone,
        e // 2 + 1, so that this process sums every pair of degree e.
        The one writer to the helper: on joining it sends e, the first
        degree the helper sums, and on every call while joined each value
        below e that the helper lacks (N_1..N_{e-1} at the join, N_{e-1}
        after it)."""
        try:
            if not self._joined and self._proc is not None:
                import select

                if select.select([self._proc.stdout], [], [], 0)[0]:
                    if self._proc.stdout.read(1) != b"R":
                        raise EOFError
                    self._proc.stdin.write(_frame(e))
                    self._joined = True
            if self._joined:
                self._proc.stdin.write(b"".join(map(_frame, _table[self._sent + 1:e])))
                self._proc.stdin.flush()
                self._sent = e - 1
        except (OSError, EOFError):
            self.close()
        return _split(e, self._share) if self._joined else e // 2 + 1

    def partial(self) -> int | None:
        """The helper's sum for the next degree, or None if it is gone."""
        try:
            head = self._proc.stdout.read(4)
            if len(head) == 4:
                size = int.from_bytes(head, "little")
                body = self._proc.stdout.read(size)
                if len(body) == size:
                    return int.from_bytes(body, "little", signed=True)
        except OSError:
            pass
        self.close()
        return None

    def close(self) -> None:
        """Close both pipes, kill the helper if it still runs, and reap it."""
        proc, self._proc, self._joined = self._proc, None, False
        if proc is None:
            return
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        proc.kill()
        proc.wait()


def _serve(last: int, share: float) -> None:
    """The helper process's loop, on its stdin and stdout."""
    import select

    out = sys.stdout.buffer
    out.write(b"R")
    out.flush()
    os.set_blocking(0, False)
    pending = bytearray()
    table: list[int] = []  # table[0] is the first degree to sum, in the slot of N_0

    def read(wait: bool) -> bool:
        """Decode every complete frame waiting on stdin into table, after
        waiting for input if wait; False at end of input."""
        if wait:
            select.select([0], [], [])
        while True:
            try:
                chunk = os.read(0, 1 << 16)
            except BlockingIOError:
                return True
            if not chunk:
                return False
            pending.extend(chunk)
            while len(pending) >= 4:
                size = int.from_bytes(pending[:4], "little")
                if len(pending) < 4 + size:
                    break
                table.append(int.from_bytes(pending[4:4 + size], "little", signed=True))
                del pending[:4 + size]

    while not table:
        if not read(True):
            return
    for e in range(table[0], last + 1):
        lo = _split(e, share)
        if not read(False):
            return
        while len(table) <= e - lo:
            if not read(True):
                return
        out.write(_frame(_pair_sum(table, e, lo, e // 2 + 1)))
        out.flush()
    while read(True):  # values it no longer needs, until end of input
        pass


def nd_values(up_to: int) -> list[tuple[int, int]]:
    """The pairs (d, N_d) for d = 1..up_to; up_to is checked like a degree
    before any work."""
    kontsevich_nd(up_to)
    return [(d, kontsevich_nd(d)) for d in range(1, up_to + 1)]


def reset_cache() -> None:
    """Drop every memoized value (used to test cold-cache determinism)."""
    with _extending:
        del _table[2:]
