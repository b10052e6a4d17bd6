from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qschub.errors import BoxError
from qschub.partitions import (
    conjugate,
    dual_in_box,
    enumerate_box,
    fits_in_box,
    format_partition,
    is_horizontal_strip,
    is_k_strict,
    parse_partition,
    partitions_of_weight,
    weight,
)

from oracles import box_oracle, horizontal_strip_oracle, schur_product_oracle

partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_weight():
    assert weight(()) == 0
    assert weight((2, 1)) == 3
    assert weight((5, 3, 3, 1)) == 12


def test_parse_and_format():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("0") == ()
    assert format_partition(()) == "0"
    assert format_partition((4, 4, 1)) == "4,4,1"
    for bad in ("", "a", "1,2", "2,0", "-1", "1.5"):
        with pytest.raises(ValueError):
            parse_partition(bad)


@given(partitions)
def test_parse_format_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_fits_in_box():
    assert fits_in_box((2, 1), 2, 2)
    assert not fits_in_box((3, 1), 2, 2)
    assert fits_in_box((), 1, 0)
    assert not fits_in_box((1, 1, 1), 2, 5)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_exhaustive():
    for p in enumerate_box(4, 5):
        assert conjugate(conjugate(p)) == p


@given(partitions)
def test_conjugate_involution_random(p):
    assert conjugate(conjugate(p)) == p


def test_horizontal_strip_examples():
    assert is_horizontal_strip((2, 1), (3, 1))
    assert not is_horizontal_strip((1,), (2, 2))
    for p in range(4):
        assert is_horizontal_strip((), (p,) if p else ())


@given(partitions, partitions)
def test_horizontal_strip_against_cell_count(inner, outer):
    assert is_horizontal_strip(inner, outer) == horizontal_strip_oracle(inner, outer)


def test_dual_in_box_examples():
    assert dual_in_box((), 2, 2) == (2, 2)
    assert dual_in_box((1,), 2, 2) == (2, 1)
    assert dual_in_box((2,), 2, 2) == (2,)


def test_dual_of_single_row_matches_pairing_oracle():
    # (2) is its own dual in the 2x2 box: it pairs to 1 with itself and to
    # 0 with (1,1) against the full box class.
    assert schur_product_oracle((2,), (2,)).get((2, 2), 0) == 1
    assert schur_product_oracle((2,), (1, 1)).get((2, 2), 0) == 0


def test_dual_in_box_rejects_oversized():
    with pytest.raises(BoxError):
        dual_in_box((3,), 2, 2)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_dual_involution_and_weight(rows, cols):
    for p in enumerate_box(rows, cols):
        q = dual_in_box(p, rows, cols)
        assert fits_in_box(q, rows, cols)
        assert dual_in_box(q, rows, cols) == p
        assert weight(q) == rows * cols - weight(p)


def test_enumerate_box_order():
    assert enumerate_box(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert enumerate_box(1, 3) == [(), (1,), (2,), (3,)]
    assert enumerate_box(3, 0) == [()]
    for rows in range(7):
        for cols in range(7):
            assert enumerate_box(rows, cols) == box_oracle(rows, cols), (rows, cols)


def test_enumerate_box_counts():
    for rows in range(1, 7):
        for cols in range(1, 7):
            box = enumerate_box(rows, cols)
            assert len(box) == comb(rows + cols, rows)
            assert len(set(box)) == len(box)
            assert all(fits_in_box(p, rows, cols) for p in box)


def test_partitions_of_weight():
    assert set(partitions_of_weight(4, 2, 4)) == {(4,), (3, 1), (2, 2)}
    assert list(partitions_of_weight(0, 3, 3)) == [()]
    assert list(partitions_of_weight(3, 1, 2)) == []


def test_partitions_of_weight_in_a_deep_box():
    assert list(partitions_of_weight(1999, 1999, 1)) == [(1,) * 1999]


def test_is_k_strict():
    assert not is_k_strict((3, 3, 1), 2)
    assert is_k_strict((3, 2, 2), 2)
    assert is_k_strict((2, 1), 2)
    assert is_k_strict((), 0)
    assert not is_k_strict((1, 1), 0)
