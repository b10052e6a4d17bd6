from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub.counting import CountProblem, rational_curve_count
from qschub.errors import (
    BoxError,
    NotComputableError,
    UnbalancedQueryError,
    UnsupportedFamilyError,
)
from qschub.gromov_witten import GWQuery, gw_3point, gw_spoint
from qschub.partitions import weight
from qschub.plane_curves import kontsevich_nd
from qschub import partitions, spaces
from qschub.quantum import QuantumClass, product_table, quantum_product
from qschub.spaces import Grassmannian, grassmannian, parse_space

G24 = grassmannian(2, 4)
P2 = grassmannian(1, 3)


def test_3point_examples():
    assert gw_3point(G24, (2, 2), (1, 1), (2,), 1) == 1
    assert gw_3point(G24, (2,), (2,), (2, 2), 1) == 0
    assert gw_3point(G24, (1,), (1,), (1, 1), 0) == 1
    assert gw_3point(P2, (2,), (2,), (1,), 1) == 1


def test_3point_unbalanced_is_zero():
    assert gw_3point(G24, (1,), (1,), (1,), 0) == 0
    assert gw_3point(G24, (2, 2), (2, 2), (2, 2), 1) == 0


@settings(max_examples=80)
@given(
    st.tuples(
        st.sampled_from(G24.basis()),
        st.sampled_from(G24.basis()),
        st.sampled_from(G24.basis()),
    ),
    st.integers(0, 3),
)
def test_3point_degree_mismatch_fuzz(triple, d):
    a, b, c = triple
    if weight(a) + weight(b) + weight(c) != G24.moduli_dimension(3, d):
        assert gw_3point(G24, a, b, c, d) == 0


@pytest.mark.parametrize("space", [G24, P2])
def test_3point_s3_symmetry(space):
    basis = space.basis()
    for d in range(3):
        target = space.moduli_dimension(3, d)
        for a, b, c in product(basis, repeat=3):
            if weight(a) + weight(b) + weight(c) != target:
                continue
            value = gw_3point(space, a, b, c, d)
            assert value >= 0
            for x, y, z in permutations((a, b, c)):
                assert gw_3point(space, x, y, z, d) == value


def test_3point_validates():
    with pytest.raises(BoxError):
        gw_3point(G24, (3,), (1,), (1,), 1)
    with pytest.raises(UnsupportedFamilyError):
        gw_3point(parse_space("IG(2,6)"), (1,), (1,), (1,), 1)
    with pytest.raises(ValueError) as err:
        gw_3point(G24, (1,), (1,), (1,), -1)
    assert str(err.value) == "degree must be >= 0, got -1"
    with pytest.raises(BoxError):
        gw_3point(G24, (1,), (3,), (1,), -1)  # the box before the degree


def test_spoint_examples():
    assert gw_spoint(GWQuery(G24, 1, ((1,), (2, 2), (2, 1)))) == 1
    assert gw_spoint(GWQuery(P2, 2, ((2,),) * 5)) == 1
    assert gw_spoint(GWQuery(P2, 1, ((2,), (2,)))) == 1


def test_spoint_fundamental_class_gives_zero():
    assert gw_spoint(GWQuery(G24, 1, ((), (2, 2), (2, 2)))) == 0
    assert gw_spoint(GWQuery(P2, 1, ((), (2,), (2,), (2,)))) == 0


def test_spoint_plane_point_counts():
    for d in range(1, 5):
        query = GWQuery(P2, d, ((2,),) * (3 * d - 1))
        assert query.is_balanced()
        assert gw_spoint(query) == kontsevich_nd(d)


def test_spoint_validates():
    with pytest.raises(UnbalancedQueryError):
        gw_spoint(GWQuery(G24, 1, ((1,), (1,), (1,))))
    assert gw_spoint(GWQuery(G24, 0, ((1,), (1,), (2,)))) == 1
    with pytest.raises(UnsupportedFamilyError):
        gw_spoint(GWQuery(parse_space("IG(2,6)"), 1, ((1,), (1,), (1,))))
    with pytest.raises(UnsupportedFamilyError):
        GWQuery(parse_space("IG(2,6)"), 1, ((1,), (1,), (1,))).is_balanced()
    with pytest.raises(NotComputableError):
        # balanced 4-point query without divisor insertions, not on the plane
        gw_spoint(GWQuery(G24, 2, ((2, 2), (2, 2), (2, 1), (2,))))


def test_one_box_check_per_insertion(monkeypatch):
    # gw_spoint checks each insertion; its three-point route reads the
    # product cache and flips the dual without checking the classes again
    calls = []
    real = Grassmannian.require_in_box

    def counted(space, p):
        calls.append(p)
        real(space, p)

    def unreachable(*args):
        raise AssertionError("a second box check through dual_in_box")

    monkeypatch.setattr(Grassmannian, "require_in_box", counted)
    for module in (partitions, spaces):
        monkeypatch.setattr(module, "dual_in_box", unreachable)
    five = ((1,), (1,), (1,), (2, 1), (2, 2))
    three = ((1,), (1,), (1, 1))
    for query in (GWQuery(G24, 1, five), GWQuery(G24, 0, ((1,), (1,), (1,), (1,), (2,))),
                  GWQuery(G24, 0, three), GWQuery(G24, 1, ((2, 2), (2, 1))),
                  GWQuery(P2, 2, ((2,),) * 5)):
        assert query.is_balanced()
        calls.clear()
        gw_spoint(query)
        assert len(calls) == len(query.insertions), query
    calls.clear()
    assert rational_curve_count(CountProblem(G24, 1, five)).curve_count == 1
    assert len(calls) == 5
    calls.clear()
    gw_3point(G24, (2, 2), (1, 1), (2,), 1)
    assert len(calls) == 3
    # a warm product checks its two classes; a class product each term of each factor
    quantum_product((2, 1), (1,), G24)
    calls.clear()
    left = quantum_product((2, 1), (1,), G24)
    assert calls == [(2, 1), (1,)]
    right = QuantumClass(G24, {(0, (1,)): 2, (0, (2,)): 1, (1, ()): -1})
    calls.clear()
    left * right
    assert sorted(calls) == sorted([p for _, p in left.terms] + [p for _, p in right.terms])


@pytest.mark.parametrize("space", [G24, grassmannian(2, 5), grassmannian(3, 6)])
def test_degree_zero_is_the_classical_part_of_the_pieri_table(space):
    # product_table runs neither LR nor rim hooks: it shares no code with gw_spoint
    rows = dict(product_table(space))
    triples = [t for t in product(space.basis(), repeat=3)
               if sum(map(weight, t)) == space.moduli_dimension(3, 0)]
    assert triples
    for a, b, c in triples:
        expected = rows[a][b].get((0, space.dual(c)), 0)
        assert gw_spoint(GWQuery(space, 0, (a, b, c))) == expected, (a, b, c)


def test_degree_zero_past_three_insertions_is_zero_and_below_three_is_refused():
    message = "degree-0 invariants are computed for at least 3 insertions"
    for space in (G24, grassmannian(2, 5)):
        for query in _balanced_queries(space, 0, 5):
            if len(query.insertions) > 3:
                assert gw_spoint(query) == 0, query
            elif len(query.insertions) < 3:
                with pytest.raises(NotComputableError, match=f"^{message}$"):
                    gw_spoint(query)
    # refused before the balance check, as the gw command does
    for insertions in (((1,),), ((1,), (1,))):
        with pytest.raises(NotComputableError, match=f"^{message}$"):
            gw_spoint(GWQuery(G24, 0, insertions))


def _balanced_queries(space, degree, max_insertions):
    """All balanced insertion tuples over the basis with s <= max_insertions."""
    from itertools import combinations_with_replacement

    for s in range(1, max_insertions + 1):
        target = space.moduli_dimension(s, degree)
        for combo in combinations_with_replacement(space.basis(), s):
            if sum(weight(p) for p in combo) == target:
                yield GWQuery(space, degree, combo)


def test_divisor_rule_consistency():
    # stripping one divisor insertion by hand agrees with the pipeline
    for space in (P2, G24):
        for d in (1, 2):
            for query in _balanced_queries(space, d, 5):
                if (1,) not in query.insertions:
                    continue
                shorter = list(query.insertions)
                shorter.remove((1,))
                reduced = GWQuery(space, d, tuple(shorter))
                try:
                    full_value = gw_spoint(query)
                    reduced_value = gw_spoint(reduced)
                except NotComputableError:
                    continue
                assert full_value == d * reduced_value


def test_nonnegativity_sweep():
    for space in (P2, G24):
        for d in (1, 2):
            for query in _balanced_queries(space, d, 4):
                try:
                    assert gw_spoint(query) >= 0
                except NotComputableError:
                    continue
