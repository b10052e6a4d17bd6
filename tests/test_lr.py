from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub.errors import BoxError
from qschub.lr import classical_structure_constants, lr_coefficient, schur_product
from qschub.partitions import (
    conjugate,
    dual_in_box,
    enumerate_box,
    is_horizontal_strip,
    partitions_of_weight,
    weight,
)
from qschub.spaces import grassmannian, parse_space

from oracles import lr_coefficient_oracle, schur_product_oracle

small_partitions = st.lists(st.integers(1, 4), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)

# the monomial oracle multiplies dense polynomials, so keep its inputs tiny
oracle_partitions = st.lists(st.integers(1, 3), max_size=2).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _all_partitions_up_to(max_weight):
    out = []
    for w in range(max_weight + 1):
        out.extend(partitions_of_weight(w, w or 1, w or 1))
    return out


def test_coefficient_examples():
    assert lr_coefficient((1,), (2,), (2, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0  # weight mismatch
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_coefficient_zero_when_not_contained():
    assert lr_coefficient((3,), (1,), (2, 2)) == 0


def test_schur_product_examples():
    assert schur_product((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert schur_product((1,), (1,), 1) == {(2,): 1}
    assert schur_product((2,), (2,), 2) == {(4,): 1, (3, 1): 1, (2, 2): 1}
    assert schur_product((1, 1, 1), (1,), 2) == {}  # the base shape has too many rows


def test_deep_box_costs_no_call_depth():
    assert schur_product((1,), (1,), 1999) == {(2,): 1, (1, 1): 1}


def test_empty_factor_is_identity():
    for p in ((), (1,), (3, 2)):
        assert schur_product((), p, 4) == {p: 1}


@settings(max_examples=60, deadline=None)
@given(oracle_partitions, oracle_partitions)
def test_full_expansion_matches_monomial_oracle(lam, mu):
    rows = len(lam) + len(mu) or 1
    assert schur_product(lam, mu, rows) == schur_product_oracle(lam, mu)


@settings(max_examples=60, deadline=None)
@given(oracle_partitions, oracle_partitions, st.data())
def test_coefficient_matches_oracle_inside_and_outside_expansion(lam, mu, data):
    # lr_coefficient bounds its search by nu, a path schur_product never takes
    expansion = schur_product_oracle(lam, mu)
    total = weight(lam) + weight(mu)
    same_weight = partitions_of_weight(total, total or 1, total or 1)
    outside = [nu for nu in same_weight if nu not in expansion]
    nus = [data.draw(st.sampled_from(sorted(expansion)))]
    if outside:
        nus.append(data.draw(st.sampled_from(outside)))
    for nu in nus:
        assert lr_coefficient(lam, mu, nu) == lr_coefficient_oracle(lam, mu, nu)


@pytest.mark.parametrize(
    "lam,mu",
    [((2, 1), (2, 1)), ((3, 2), (2, 2)), ((2, 2, 1), (2, 1)), ((3, 1), (3, 1))],
)
def test_medium_expansions_match_monomial_oracle(lam, mu):
    rows = len(lam) + len(mu)
    assert schur_product(lam, mu, rows) == schur_product_oracle(lam, mu)


def test_symmetry_exhaustive_weight_8():
    pool = _all_partitions_up_to(8)
    for lam, mu in combinations_with_replacement(pool, 2):
        if weight(lam) + weight(mu) > 8:
            continue
        rows = 8
        assert schur_product(lam, mu, rows) == schur_product(mu, lam, rows)


def test_conjugation_symmetry_weight_8():
    pool = _all_partitions_up_to(4)
    for lam in pool:
        for mu in pool:
            expansion = schur_product(lam, mu, 8)
            conj_expansion = schur_product(conjugate(lam), conjugate(mu), 8)
            assert conj_expansion == {conjugate(nu): c for nu, c in expansion.items()}


@settings(max_examples=40)
@given(small_partitions, st.integers(1, 4))
def test_pieri_specialization(lam, p):
    rows = len(lam) + 1
    expansion = schur_product(lam, (p,), rows)
    target = weight(lam) + p
    for nu in partitions_of_weight(target, rows, (lam[0] if lam else 0) + p):
        expected = 1 if is_horizontal_strip(lam, nu) else 0
        assert expansion.get(nu, 0) == expected


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_poincare_pairing(rows, cols):
    box = (cols,) * rows
    for lam in enumerate_box(rows, cols):
        for mu in enumerate_box(rows, cols):
            coeff = lr_coefficient(lam, mu, box)
            assert coeff == (1 if mu == dual_in_box(lam, rows, cols) else 0)


def test_classical_structure_constants():
    g24 = grassmannian(2, 4)
    assert classical_structure_constants(g24, (1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert classical_structure_constants(g24, (2,), (1, 1)) == {}
    assert classical_structure_constants(g24, (1,), (2, 1)) == {(2, 2): 1}


def test_classical_structure_constants_validates():
    g24 = grassmannian(2, 4)
    with pytest.raises(BoxError):
        classical_structure_constants(g24, (3,), (1,))
    from qschub.errors import UnsupportedFamilyError

    with pytest.raises(UnsupportedFamilyError):
        classical_structure_constants(parse_space("IG(2,6)"), (1,), (1,))
