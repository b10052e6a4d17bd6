from itertools import combinations_with_replacement, permutations, product

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
from qschub import partitions, quantum, spaces
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
    # gw_spoint checks each insertion once, all in one call; its three-point
    # route reads the product cache and flips the dual without checking the
    # classes again.  The spy records every class of every call.
    calls = []
    real = Grassmannian.require_in_box

    def counted(space, *classes):
        calls.extend(classes)
        real(space, *classes)

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
        gw_spoint(query)  # warm: the product record, if any, is cached
        calls.clear()
        gw_spoint(query)
        assert len(calls) == len(query.insertions), query
    problem = CountProblem(G24, 1, five)
    rational_curve_count(problem)
    calls.clear()
    assert rational_curve_count(problem).curve_count == 1
    assert len(calls) == 5
    gw_3point(G24, (2, 2), (1, 1), (2,), 1)
    calls.clear()
    gw_3point(G24, (2, 2), (1, 1), (2,), 1)
    assert len(calls) == 3
    # a warm product checks nothing; a cold one checks its pair once, where
    # the record is built ((1,) is the lightest class of its Seidel orbit,
    # so the record is expanded, not rotated from another pair's)
    quantum.clear_cache()
    calls.clear()
    quantum_product((1,), (1,), G24)
    assert calls == [(1,), (1,)]
    calls.clear()
    quantum_product((1,), (1,), G24)
    assert calls == []
    left = quantum_product((2, 1), (1,), G24)
    calls.clear()
    assert quantum_product((1,), (2, 1), G24) == left
    assert calls == []
    # a class product of warm records checks no term
    right = QuantumClass(G24, {(0, (1,)): 2, (0, (2,)): 1, (1, ()): -1})
    left * right
    calls.clear()
    left * right
    assert calls == []


_G25 = grassmannian(2, 5)
_WIDE, _TALL = (4,), (1, 1, 1)  # out of G(2,5)'s 2x3 box
_MESSAGES = {_WIDE: "partition 4 does not fit the 2x3 box of G(2,5)",
             _TALL: "partition 1,1,1 does not fit the 2x3 box of G(2,5)"}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_an_out_of_box_class_raises_at_each_position_of_an_invariant(warm):
    # every insertion is checked in one call before any record is read, the
    # dual class (third) and the N_d route included, so the first class out
    # of the box is named whatever the cache holds, and nothing is cached
    cases = [
        (lambda: gw_3point(_G25, _WIDE, (2, 1), (2, 1), 1), _WIDE),
        (lambda: gw_3point(_G25, (2, 1), _TALL, (2, 1), 1), _TALL),
        (lambda: gw_3point(_G25, (2, 1), (2, 1), _WIDE, 1), _WIDE),
        (lambda: gw_3point(_G25, (1,), _TALL, _WIDE, 0), _TALL),
        (lambda: gw_spoint(GWQuery(_G25, 1, ((3, 3), (2,), _WIDE))), _WIDE),
        (lambda: gw_spoint(GWQuery(_G25, 1, (_TALL, (1,), (1,), (3, 3), _WIDE))), _TALL),
        (lambda: gw_spoint(GWQuery(_G25, 2, ((3, 3),) * 3 + (_WIDE,))), _WIDE),
        (lambda: rational_curve_count(CountProblem(_G25, 1, ((1,), (3, 3), _TALL))), _TALL),
        (lambda: rational_curve_count(CountProblem(_G25, 2, ((3, 2), _WIDE, (1,)))), _WIDE),
    ]
    for call, named in cases:
        quantum.clear_cache()
        if warm:
            for lam, mu in combinations_with_replacement(_G25.basis(), 2):
                quantum_product(lam, mu, _G25)
        size = quantum._product_terms.cache_info().currsize
        for _ in range(2):
            with pytest.raises(BoxError) as err:
                call()
            assert str(err.value) == _MESSAGES[named]
            assert quantum._product_terms.cache_info().currsize == size


def test_an_isotropic_invariant_raises_unsupported_family_first():
    space = parse_space("IG(2,6)")
    size = quantum._product_terms.cache_info().currsize
    for call in (lambda: gw_3point(space, (9, 9), (1,), (1,), 1),
                 lambda: gw_spoint(GWQuery(space, 1, ((1, 1, 1), (1,), (1,)))),
                 lambda: gw_spoint(GWQuery(space, 1, ())),
                 lambda: rational_curve_count(CountProblem(space, 1, ((9,), (1,), (1,))))):
        with pytest.raises(UnsupportedFamilyError) as err:
            call()
        assert str(err.value) == "isotropic quantum products out of scope"
    assert quantum._product_terms.cache_info().currsize == size


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
