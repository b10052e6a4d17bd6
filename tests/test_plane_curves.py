import functools
import hashlib
import os
import select
import subprocess
import sys
import threading

import pytest

from qschub import plane_curves
from qschub.cli import parse_and_dispatch
from qschub.errors import NotComputableError
from qschub.gromov_witten import gw_3point
from qschub.plane_curves import MAX_ND_DEGREE, kontsevich_nd, nd_values, reset_cache
from qschub.selfcheck import check_plane_counts
from qschub.spaces import grassmannian

from oracles import nd_oracle

# Under `python -X dev -W error::ResourceWarning`, a helper's pipe left
# unclosed raises in its finalizer; this turns that into a failure here.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


def test_first_values():
    assert kontsevich_nd(1) == 1
    assert kontsevich_nd(2) == 1
    assert kontsevich_nd(3) == 12
    assert kontsevich_nd(4) == 620
    assert kontsevich_nd(5) == 87304
    assert kontsevich_nd(6) == 26312976
    assert kontsevich_nd(7) == 14616808192
    assert kontsevich_nd(8) == 13525751027392


def test_matches_the_per_term_recursion():
    # odd and even degrees alike; an even degree adds the middle term a = b
    reset_cache()
    for d, value in nd_values(150):
        assert value == nd_oracle(d), d


def test_every_value_up_to_the_bound_is_pinned(capsys):
    # the sha256 of `nd --upto 500`'s stdout, as Kontsevich's three-binomial
    # form computes it: any slip in the one-binomial sum changes the digest
    assert parse_and_dispatch(["nd", "--upto", "500"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7fc2e698aa0b40d826d072c824710c50d8e1f0ee01f0313c8b513e12420fd714")


def test_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        kontsevich_nd(0)


def test_work_limit_is_checked_before_any_work():
    assert MAX_ND_DEGREE == 500
    reset_cache()
    with pytest.raises(NotComputableError, match="500"):
        kontsevich_nd(MAX_ND_DEGREE + 1)
    with pytest.raises(NotComputableError, match="500"):
        nd_values(MAX_ND_DEGREE + 1)
    with pytest.raises(ValueError):
        nd_values(0)
    assert plane_curves._table == [0, 1]  # nothing was computed


def test_strictly_increasing_from_degree_3():
    values = dict(nd_values(12))
    for d in range(3, 13):
        assert values[d] > values[d - 1]
        assert values[d] > 0


def test_exceeds_64_bits_by_degree_12():
    assert kontsevich_nd(12) > 2**63


def test_cold_cache_determinism():
    warm = nd_values(10)
    reset_cache()
    assert nd_values(10) == warm


def test_cross_path_degree_1():
    # the rim-hook path on the plane gives the same line count as the recursion
    plane = grassmannian(1, 3)
    assert gw_3point(plane, (2,), (2,), (1,), 1) == kontsevich_nd(1)


def test_threads_extending_the_memo_at_once_agree():
    # four threads extend the table from N_1 together; a degree appended
    # twice would shift every later value
    expected = kontsevich_nd(150)
    for _ in range(5):
        reset_cache()
        start = threading.Barrier(4)
        results = []

        def worker():
            start.wait()
            results.append(kontsevich_nd(150))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 4
        assert len(plane_curves._table) == 151


@functools.lru_cache(maxsize=None)
def _serial_values(d):
    """(d, N_d) up to d, summed in this process alone."""
    saved = plane_curves.HELPER_FROM
    plane_curves.HELPER_FROM = MAX_ND_DEGREE + 1
    try:
        reset_cache()
        return tuple(nd_values(d))
    finally:
        plane_curves.HELPER_FROM = saved
        reset_cache()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper_sums(monkeypatch):
    """Start the helper for any degree, as on a two-CPU machine, and wait for
    its ready byte before the first degree, so that it sums from degree 2.
    Yields the list of what each of the parent's reads returned."""
    monkeypatch.setattr(plane_curves, "HELPER_FROM", 2)
    monkeypatch.setattr(plane_curves, "_usable_cpus", lambda: 2)
    split, partial = plane_curves._Helper.split, plane_curves._Helper.partial
    sums = []

    def split_once_ready(self, e):
        if self._proc is not None and not self._joined:
            select.select([self._proc.stdout], [], [], 60)
        return split(self, e)

    def recorded_partial(self):
        sums.append(partial(self))
        return sums[-1]

    monkeypatch.setattr(plane_curves._Helper, "split", split_once_ready)
    monkeypatch.setattr(plane_curves._Helper, "partial", recorded_partial)
    reset_cache()
    yield sums
    reset_cache()


def test_helper_and_serial_tables_agree(helper_sums):
    serial = _serial_values(320)
    assert nd_values(320) == list(serial)
    assert len(helper_sums) == 319 and None not in helper_sums  # degrees 2..320
    _assert_no_child_left()


def test_helper_that_cannot_start_changes_nothing(helper_sums, monkeypatch, capfd):
    def refuse(*args, **kwargs):
        raise OSError("cannot start a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert nd_values(260) == list(_serial_values(260))
    assert helper_sums == []
    assert capfd.readouterr() == ("", "")


# Each runs the helper with one change, made in the helper before its loop:
# it exits at its fourth sum, or writes that sum's frame short and exits.
_FAILING_HELPERS = {
    "exits": """
real = plane_curves._pair_sum
def _pair_sum(*args, calls=[]):
    calls.append(1)
    if len(calls) == 4:
        os._exit(0)
    return real(*args)
plane_curves._pair_sum = _pair_sum
""",
    "short frame": """
real = plane_curves._frame
def _frame(x, calls=[]):
    calls.append(1)
    if len(calls) == 4:
        sys.stdout.buffer.write(real(x)[:-1])
        sys.stdout.flush()
        os._exit(0)
    return real(x)
plane_curves._frame = _frame
""",
}


@pytest.mark.parametrize("failure", sorted(_FAILING_HELPERS))
def test_helper_that_fails_midway_changes_nothing(helper_sums, monkeypatch, capfd, failure):
    bootstrap = ("import os, sys\nsys.path.insert(0, sys.argv[1])\nfrom qschub import plane_curves\n"
                 + _FAILING_HELPERS[failure]
                 + "plane_curves._serve(int(sys.argv[2]), float(sys.argv[3]))\n")
    monkeypatch.setattr(plane_curves, "_BOOTSTRAP", bootstrap)
    assert nd_values(260) == list(_serial_values(260))
    assert helper_sums[-1] is None and None not in helper_sums[:-1] and len(helper_sums) == 4
    assert capfd.readouterr() == ("", "")
    _assert_no_child_left()


def test_no_helper_outlives_an_exception(helper_sums, monkeypatch):
    pair_sum = plane_curves._pair_sum

    def failing(table, e, lo, hi):
        if e == 200:
            raise KeyboardInterrupt
        return pair_sum(table, e, lo, hi)

    monkeypatch.setattr(plane_curves, "_pair_sum", failing)
    with pytest.raises(KeyboardInterrupt):
        kontsevich_nd(300)
    assert len(plane_curves._table) == 200
    _assert_no_child_left()


def test_a_wrong_pair_sum_stops_before_the_table(monkeypatch, capsys):
    # one partial sum off by one leaves a remainder: exit 1, one line, and
    # the table keeps only the degrees below it
    pair_sum = plane_curves._pair_sum

    def off_by_one(table, e, lo, hi):
        return pair_sum(table, e, lo, hi) + (e == 280)

    monkeypatch.setattr(plane_curves, "_pair_sum", off_by_one)
    reset_cache()
    assert parse_and_dispatch(["nd", "--upto", "300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: N_280") and err.count("\n") == 1
    assert len(plane_curves._table) == 280
    _assert_no_child_left()
    reset_cache()


def test_threads_past_the_threshold_start_one_helper(monkeypatch):
    monkeypatch.setattr(plane_curves, "_usable_cpus", lambda: 2)
    popen, started = subprocess.Popen, []

    def counted(*args, **kwargs):
        started.append(1)
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counted)
    expected = _serial_values(300)[-1][1]
    reset_cache()
    start = threading.Barrier(4, timeout=60)
    results = []

    def worker():
        start.wait()
        results.append(kontsevich_nd(300))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that they race for the lock
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    assert started == [1]
    _assert_no_child_left()


def test_helper_values_match_kontsevichs_recursion_mod_p(helper_sums):
    # the recursion mod 2^61 - 1 shares no code with the pair sums
    suite = check_plane_counts(300)
    assert suite.ok, suite.failures[:3]
    assert len(helper_sums) == 299 and None not in helper_sums  # degrees 2..300
    _assert_no_child_left()


def test_plane_counts_fails_when_the_parent_splits_unlike_the_helper(helper_sums, monkeypatch):
    # the parent sums a < A_e at a smaller share than the helper's, so the
    # pairs between are lost; every lost pair divides exactly, so only the
    # independent recursion sees it
    split = plane_curves._split
    monkeypatch.setattr(plane_curves, "_split", lambda e, share: split(e, share - 0.08))
    reset_cache()
    suite = check_plane_counts(300)
    assert not suite.ok
    assert "differs from Kontsevich's recursion" in suite.failures[0]
    _assert_no_child_left()


def test_plane_counts_fails_when_a_pair_is_dropped(monkeypatch):
    pair_sum = plane_curves._pair_sum

    def dropping(table, e, lo, hi):
        # degree 40 loses its pair a = lo
        total = pair_sum(table, e, lo, hi)
        return total - pair_sum(table, e, lo, lo + 1) if e == 40 and lo < hi else total

    monkeypatch.setattr(plane_curves, "_pair_sum", dropping)
    reset_cache()
    try:
        suite = check_plane_counts(60)
        assert not suite.ok
        assert suite.failures[0] == "N_40 differs from Kontsevich's recursion mod 2^61 - 1"
    finally:
        reset_cache()
