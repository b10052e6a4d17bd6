import hashlib
import threading

import pytest

from qschub import plane_curves
from qschub.cli import parse_and_dispatch
from qschub.errors import NotComputableError
from qschub.gromov_witten import gw_3point
from qschub.plane_curves import MAX_ND_DEGREE, kontsevich_nd, nd_values, reset_cache
from qschub.spaces import grassmannian

from oracles import nd_oracle


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
