import random
from itertools import combinations_with_replacement, islice, product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub import quantum
from qschub.errors import BoxError, UnsupportedFamilyError
from qschub.gromov_witten import gw_3point
from qschub.lr import classical_structure_constants, schur_product
from qschub.partitions import partitions_of_weight, weight
from qschub.quantum import (
    QuantumClass,
    ReductionOutcome,
    _product_terms,
    _reduced_terms,
    clear_cache,
    product_table,
    quantum_pieri,
    quantum_product,
    rim_hook_reduce,
)
from qschub.spaces import grassmannian, parse_space

from oracles import (
    quantum_pieri_oracle, remove_rim_hook, removable_hooks, rim_hook_reduce_oracle,
)

G24 = grassmannian(2, 4)
G25 = grassmannian(2, 5)
G36 = grassmannian(3, 6)
G37 = grassmannian(3, 7)
P2 = grassmannian(1, 3)


def test_rim_hook_reduce_examples():
    assert rim_hook_reduce((2, 1), G24) == ReductionOutcome(0, 1, (2, 1))
    assert rim_hook_reduce((3, 1), G24) == ReductionOutcome(1, 1, ())
    assert rim_hook_reduce((4,), G24) == ReductionOutcome(1, -1, ())
    assert rim_hook_reduce((5, 1), G25) is None


def test_rim_hook_reduce_weight_balance():
    for w in range(13):
        for nu in partitions_of_weight(w, 3, 6):
            outcome = rim_hook_reduce(nu, G36)
            if outcome is not None:
                assert outcome.q_power * 6 + weight(outcome.core) == weight(nu)
                assert outcome.sign in (-1, 1)


def test_rim_hook_reduce_validates():
    with pytest.raises(BoxError):
        rim_hook_reduce((1, 1, 1), G24)
    with pytest.raises(UnsupportedFamilyError):
        rim_hook_reduce((1,), parse_space("IG(2,6)"))


def test_removable_hooks_positions():
    # (4,4) has two removable 4-strips: heads at the end of each row
    assert removable_hooks((4, 4), 4) == [(0, 1), (1, 0)]
    assert removable_hooks((2, 1), 4) == []


def test_remove_rim_hook():
    assert remove_rim_hook((4, 4), (0, 1)) == ((3, 1), 2)
    assert remove_rim_hook((4, 4), (1, 0)) == ((4,), 1)
    assert remove_rim_hook((4,), (0, 0)) == ((), 1)


def test_reduction_is_order_independent_small():
    for w in range(13):
        for nu in partitions_of_weight(w, 3, 6):
            assert rim_hook_reduce(nu, G36) == rim_hook_reduce_oracle(nu, G36.m, G36.n)


@st.composite
def _space_and_shape(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, min(6, n - 1)))
    parts = draw(st.lists(st.integers(0, 2 * (n - m)), max_size=m))
    return grassmannian(m, n), tuple(p for p in sorted(parts, reverse=True) if p)


@settings(max_examples=300, deadline=None)
@given(_space_and_shape())
def test_rim_hook_reduce_matches_cell_oracle(space_and_shape):
    space, nu = space_and_shape
    assert rim_hook_reduce(nu, space) == rim_hook_reduce_oracle(nu, space.m, space.n)


GOLDEN_G24 = {
    ((1,), (1,)): {(0, (2,)): 1, (0, (1, 1)): 1},
    ((1,), (2, 1)): {(0, (2, 2)): 1, (1, ()): 1},
    ((1,), (2, 2)): {(1, (1,)): 1},
    ((2,), (1, 1)): {(1, ()): 1},
    ((2,), (2,)): {(0, (2, 2)): 1},
    ((2, 2), (2, 2)): {(2, ()): 1},
}


def test_quantum_product_golden_table():
    for (lam, mu), expected in GOLDEN_G24.items():
        assert quantum_product(lam, mu, G24).terms == expected


def test_quantum_product_p2():
    assert quantum_product((2,), (2,), P2).terms == {(1, (1,)): 1}
    assert quantum_product((2,), (1,), P2).terms == {(1, ()): 1}


def test_quantum_product_returns_its_own_terms():
    # each call wraps the cached terms in a new dict, with no zero filter
    first = quantum_product((2, 1), (1,), G24)
    expected = dict(first.terms)
    first.terms[(0, (1,))] = 5
    del first.terms[(1, ())]
    second = quantum_product((2, 1), (1,), G24)
    assert second.terms == expected == {(0, (2, 2)): 1, (1, ()): 1}
    assert second.terms is not first.terms
    # the other readers of the cached record still see it as it was
    product = QuantumClass.from_partition(G24, (2, 1)) * QuantumClass.from_partition(G24, (1,))
    assert product.terms == expected
    assert gw_3point(G24, (2, 1), (1,), (2, 2), 1) == gw_3point(G24, (2, 1), (1,), (), 0) == 1
    assert _product_terms((1,), (2, 1), G24) == expected  # the record of both orders
    for space in (G24, G37, grassmannian(4, 6)):
        basis = space.basis()
        for lam, mu in combinations_with_replacement(basis, 2):
            assert all(quantum_product(lam, mu, space).terms.values()), (space, lam, mu)


@pytest.mark.parametrize("space", [grassmannian(3, 5), grassmannian(4, 6), grassmannian(5, 7),
                                   G25, G36, G37])
def test_tall_products_match_the_expansion_on_the_tall_box(space):
    # quantum_product reads one record per unordered pair, expanded on
    # G(n - m, n) when the space is tall and with the factor of fewer rows as
    # the LR content; the reduction of the caller's own pair, in the caller's
    # order, on the caller's own box, is the other side of each of those moves
    basis = space.basis()
    for lam, mu in cartesian(basis, repeat=2):
        assert quantum_product(lam, mu, space).terms == _reduced_terms(lam, mu, space)


def _seidel(lam, space):
    """S(lam) as (q power, class): quantum Pieri's one term of s[n-m] * s[lam]."""
    (term,) = quantum_pieri(space.box_cols, lam, space).terms
    return term


def _seidel_orbits(space):
    """The orbits of S on the basis, walked one Pieri step at a time."""
    orbits, seen = [], set()
    for lam in space.basis():
        if lam not in seen:
            orbit, p = [], lam
            while p not in orbit:
                orbit.append(p)
                p = _seidel(p, space)[1]
            orbits.append(orbit)
            seen.update(orbit)
    return orbits


@pytest.mark.parametrize("space", [G37, grassmannian(4, 7)])
def test_each_unordered_product_is_expanded_once(space, monkeypatch):
    # s[lam] * s[mu] and s[mu] * s[lam] are one record, and every product is
    # read from the product of the lightest classes of the two Seidel
    # orbits: from a cold cache, every ordered pair of the basis costs one LR
    # expansion per unordered pair of orbits, whichever order comes first,
    # and the content (schur_product's second factor, on G(3,7) for the
    # tall G(4,7)) has the fewer rows.  _product_terms reads a pair in either
    # order: the order read second gets the very record of the first, with
    # no expansion, and so does gw_3point with its first two classes swapped
    expansions = []

    def spy(lam, mu, rows):
        expansions.append((lam, mu))
        return schur_product(lam, mu, rows)

    monkeypatch.setattr(quantum, "schur_product", spy)
    basis = space.basis()
    orbits = len(_seidel_orbits(space))
    found = {}
    for reverse_first in (False, True):
        clear_cache()
        expansions.clear()
        for lam, mu in combinations_with_replacement(basis, 2):
            first, second = ((mu, lam), (lam, mu)) if reverse_first else ((lam, mu), (mu, lam))
            terms = quantum_product(*first, space).terms
            expanded = len(expansions)
            assert _product_terms(*second, space) is _product_terms(*first, space), (lam, mu)
            assert len(expansions) == expanded, (lam, mu)
            assert quantum_product(*second, space).terms == terms, (lam, mu)
            assert found.setdefault(frozenset((lam, mu)), terms) == terms, (lam, mu)
        assert len(expansions) == orbits * (orbits + 1) // 2 == 15
        assert all(len(content) <= len(other) for other, content in expansions)
    # class products and three-point invariants read the same records
    cached, read = _product_terms, []

    def reading(lam, mu, space):
        read.append(cached(lam, mu, space))
        return read[-1]

    with monkeypatch.context() as patch:
        patch.setattr(quantum, "_product_terms", reading)
        for lam, mu in cartesian(basis, repeat=2):
            terms = found[frozenset((lam, mu))]
            record = cached(*sorted((lam, mu)), space)
            product = QuantumClass.from_partition(space, lam) * QuantumClass.from_partition(space, mu)
            assert product.terms == terms, (lam, mu)
            for (d, nu), c in terms.items():
                read.clear()
                assert gw_3point(space, lam, mu, space.dual(nu), d) == c, (lam, mu, d, nu)
                assert len(read) == 1 and read[0] is record, (lam, mu, d, nu)
    assert len(expansions) == 15
    # the point class is in the unit's orbit: its products expand nothing
    # but the unit as content
    clear_cache()
    expansions.clear()
    point = space.point_class()
    assert quantum_product(basis[len(basis) // 2], point, space).terms
    assert [content for _, content in expansions] == [()]


@pytest.mark.parametrize("space", [G25, G36, G37, grassmannian(4, 7)])
def test_product_table_is_seidel_covariant(space):
    # S(lam) * s[mu] is S applied to each term of s[lam] * s[mu], with the
    # q power of each term fixed by its weight; S, the rows and the orbits
    # all come from quantum Pieri, never from the rotation of the beads
    rows = dict(product_table(space))
    n = space.n
    for lam, row in rows.items():
        _, turned = _seidel(lam, space)
        expected = {}
        for mu, terms in row.items():
            expected[mu] = {}
            for (_, nu), c in terms.items():
                image = _seidel(nu, space)[1]
                d, rest = divmod(weight(turned) + weight(mu) - weight(image), n)
                assert rest == 0 and d >= 0, (lam, mu, nu)
                expected[mu][(d, image)] = c
        assert rows[turned] == expected, lam


@st.composite
def _space_and_class(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, n - 1))
    parts = draw(st.lists(st.integers(0, n - m), max_size=m))
    return grassmannian(m, n), tuple(p for p in sorted(parts, reverse=True) if p)


@settings(max_examples=200, deadline=None)
@given(_space_and_class())
def test_lightest_class_in_closed_form_matches_n_seidel_steps(space_and_class):
    space, lam = space_and_class
    walk = [lam]
    for _ in range(space.n):
        walk.append(_seidel(walk[-1], space)[1])
    assert walk[-1] == lam  # S**n is the identity on classes
    _, lightest, steps = min((weight(p), p, t) for t, p in enumerate(walk[:-1]))
    assert quantum._lightest(lam, space.m, space.n) == (lightest, steps)


def test_a_relabel_off_by_one_step_raises(monkeypatch):
    # one Seidel step too many moves every weight by m mod n: the grading
    # check reports the slip rather than a product
    lightest = quantum._lightest

    def one_step_late(lam, m, n):
        p, steps = lightest(lam, m, n)
        return p, steps + 1

    monkeypatch.setattr(quantum, "_lightest", one_step_late)
    clear_cache()
    try:
        with pytest.raises(RuntimeError, match="this is a bug"):
            quantum_product((1,), (2, 1), G25)
    finally:
        clear_cache()


def test_quantum_product_validates():
    with pytest.raises(BoxError):
        quantum_product((3,), (1,), G24)
    with pytest.raises(UnsupportedFamilyError):
        quantum_product((1,), (1,), parse_space("OG(2,7)"))


def test_quantum_pieri_examples():
    assert quantum_pieri(1, (2, 2), G24).terms == {(1, (1,)): 1}
    assert quantum_pieri(1, (2, 1), G24).terms == {(0, (2, 2)): 1, (1, ()): 1}
    assert quantum_pieri(1, (1,), grassmannian(1, 2)).terms == {(1, ()): 1}
    assert quantum_pieri(3, (3,), G25).terms == {(0, (3, 3)): 1}


def test_quantum_pieri_in_a_deep_box():
    assert quantum_pieri(1, (1,) * 1999, grassmannian(1999, 2000)).terms == {(1, ()): 1}


@pytest.mark.parametrize("n", range(2, 10))
def test_quantum_pieri_matches_the_strip_oracle_in_order(n):
    # every (p, lam) of every G(m, n), n <= 9: the strip bounds give the
    # shapes the cell-by-cell strip test keeps, in the same order
    for m in range(1, n):
        space = grassmannian(m, n)
        for lam in space.basis():
            for p in range(1, n - m + 1):
                expected = quantum_pieri_oracle(p, lam, m, n)
                terms = quantum_pieri(p, lam, space).terms
                assert list(terms.items()) == list(expected.items()), (m, n, p, lam)


def test_quantum_pieri_on_a_wide_box():
    # G(1,2000): one row of 1,999 boxes, so each product has one term,
    # q-shifted once the row overflows
    space = grassmannian(1, 2000)
    assert quantum_pieri(5, (10,), space).terms == {(0, (15,)): 1}
    assert quantum_pieri(1999, (1999,), space).terms == {(1, (1998,)): 1}
    assert quantum_pieri(1, (1999,), space).terms == {(1, ()): 1}
    for p, lam in [(1, ()), (1000, (999,)), (1000, (1000,)), (1998, (2,))]:
        assert quantum_pieri(p, lam, space).terms == quantum_pieri_oracle(p, lam, 1, 2000)


def test_quantum_pieri_validates():
    with pytest.raises(ValueError):
        quantum_pieri(3, (1,), G24)
    with pytest.raises(BoxError):
        quantum_pieri(1, (3,), G24)


# G(1,6), G(4,6) and G(5,8) are one-row and tall: lam_1 - 1 bounds the q
# half's shapes there, and lam often has fewer than m parts
@pytest.mark.parametrize("space", [G24, G25, G36, grassmannian(2, 6), grassmannian(1, 6),
                                   grassmannian(4, 6), grassmannian(5, 8)])
def test_dual_path_equality(space):
    for p in range(1, space.box_cols + 1):
        for lam in space.basis():
            assert quantum_pieri(p, lam, space) == quantum_product((p,), lam, space)


# G(1,12) and G(11,12) are one row and one column: there the Pieri memo
# holds every (a, class) pair or only a = 1, and the store of entries that
# wait for later rows is as large or as small as it gets
@pytest.mark.parametrize("space", [grassmannian(3, 7), grassmannian(5, 8),
                                   grassmannian(1, 12), grassmannian(11, 12)])
def test_product_table_matches_quantum_product_on_every_pair(space):
    basis = space.basis()
    rows = list(product_table(space))
    # one row per class, each over every class, both in basis order
    assert [lam for lam, _ in rows] == basis
    for lam, row in rows:
        assert list(row) == basis
        for mu, terms in row.items():
            assert terms == quantum_product(lam, mu, space).terms, (lam, mu)


@pytest.mark.parametrize("space", [G37, grassmannian(4, 7)])
def test_indexed_table_entries_list_their_terms_in_ascending_order(space):
    # the renderers print an entry's terms as they come, with no sort
    _, rows = quantum.indexed_table(space)
    for _, row in rows:
        for terms in row.values():
            assert list(terms) == sorted(terms)


def test_product_table_entries_share_nothing():
    # row lam's entry for mu and row mu's entry for lam come from one
    # computation; changing the entries of the first rows, before the later
    # rows are built, must change none of those
    space = grassmannian(3, 6)
    rows = product_table(space)
    for _, row in islice(rows, 3):
        for terms in row.values():
            terms[(0, ())] = 7
    for lam, row in rows:
        for mu, terms in row.items():
            assert terms == quantum_product(lam, mu, space).terms, (lam, mu)


def test_product_table_matches_quantum_product_on_sampled_pairs_of_g49():
    space = grassmannian(4, 9)
    rows = dict(product_table(space))
    basis = space.basis()
    rng = random.Random(20261018)
    for _ in range(300):
        lam, mu = rng.choice(basis), rng.choice(basis)
        assert rows[lam][mu] == quantum_product(lam, mu, space).terms, (lam, mu)


def test_unit_and_commutativity():
    for space in (G24, G25, P2, grassmannian(1, 4)):
        basis = space.basis()
        for lam in basis:
            assert quantum_product((), lam, space) == QuantumClass.from_partition(space, lam)
        for lam, mu in combinations_with_replacement(basis, 2):
            assert quantum_product(lam, mu, space) == quantum_product(mu, lam, space)


@pytest.mark.parametrize("space", [G24, G25, G36, P2, grassmannian(1, 4)])
def test_positivity_and_grading(space):
    for lam, mu in combinations_with_replacement(space.basis(), 2):
        product = quantum_product(lam, mu, space)
        total = weight(lam) + weight(mu)
        for d, nu, coeff in product.sorted_terms():
            assert coeff > 0
            assert weight(nu) + d * space.n == total
            assert space.in_box(nu)
            assert d <= total // space.n


def test_classical_layer_matches_lr():
    for space in (G24, G25):
        for lam, mu in combinations_with_replacement(space.basis(), 2):
            assert quantum_product(lam, mu, space).q_part(
                0
            ) == classical_structure_constants(space, lam, mu)


def test_associativity_exhaustive_g24():
    basis = G24.basis()
    for a in basis:
        for b in basis:
            for c in basis:
                left = quantum_product(a, b, G24) * QuantumClass.from_partition(G24, c)
                right = QuantumClass.from_partition(G24, a) * quantum_product(b, c, G24)
                assert left == right


def test_associativity_random_g36():
    rng = random.Random(7)
    basis = G36.basis()
    for _ in range(50):
        a, b, c = (rng.choice(basis) for _ in range(3))
        left = quantum_product(a, b, G36) * QuantumClass.from_partition(G36, c)
        right = QuantumClass.from_partition(G36, a) * quantum_product(b, c, G36)
        assert left == right


def test_quantum_class_algebra():
    one = QuantumClass.unit(G24)
    s1 = QuantumClass.from_partition(G24, (1,))
    assert one * s1 == s1
    assert (s1 + s1) == 2 * s1
    assert (s1 * s1).terms == {(0, (2,)): 1, (0, (1, 1)): 1}
    with pytest.raises(ValueError):
        s1 + QuantumClass.unit(P2)


def test_adding_a_non_class_raises_type_error():
    s1 = QuantumClass.from_partition(G24, (1,))
    with pytest.raises(TypeError):
        s1 + 1
    with pytest.raises(TypeError):
        1 + s1


@st.composite
def _class_pair(draw):
    """Two integer combinations on one space, with negative coefficients, q
    powers up to 2, and terms that cancel as the combination is summed."""
    space = draw(st.sampled_from((G25, G36, G37)))
    term = st.tuples(st.integers(0, 2), st.sampled_from(space.basis()), st.integers(-3, 3))

    def combination():
        terms = draw(st.lists(term, max_size=5))
        if terms:
            terms += [(d, p, -c) for d, p, c in draw(st.lists(st.sampled_from(terms), max_size=3))]
        out = QuantumClass(space)
        for d, p, c in terms:
            out = out + QuantumClass(space, {(d, p): c})
        return out

    return space, combination(), combination()


@settings(max_examples=200, deadline=None)
@given(_class_pair())
def test_class_product_is_the_termwise_sum_of_schubert_products(case):
    space, x, y = case
    expected: dict = {}
    for (d1, p1), c1 in x.terms.items():
        for (d2, p2), c2 in y.terms.items():
            for (d, p), c in quantum_product(p1, p2, space).terms.items():
                key = (d1 + d2 + d, p)
                expected[key] = expected.get(key, 0) + c1 * c2 * c
    assert x * y == QuantumClass(space, expected)
    assert x * y == y * x


def test_class_product_cancels_terms():
    s1 = QuantumClass.from_partition(G25, (1,))
    diff = QuantumClass(G25, {(0, (1, 1)): 1, (0, (2,)): -1})
    assert (s1 * diff).terms == {(0, (3,)): -1}  # s[2,1] cancels


def test_class_product_checks_the_box_of_each_term():
    good = QuantumClass.from_partition(G25, (1,))
    wide = QuantumClass(G25, {(0, (4,)): 1})
    tall = QuantumClass(G25, {(1, (1, 1, 1)): 2})
    for left, right, text in (
        (wide, good, "partition 4 does not fit the 2x3 box of G(2,5)"),
        (good, wide, "partition 4 does not fit the 2x3 box of G(2,5)"),
        (wide, tall, "partition 4 does not fit the 2x3 box of G(2,5)"),
        (tall, wide, "partition 1,1,1 does not fit the 2x3 box of G(2,5)"),
    ):
        with pytest.raises(BoxError) as err:
            left * right
        assert str(err.value) == text
    zero = QuantumClass(G25)
    assert str(zero * wide) == str(wide * zero) == "0"


_WIDE, _TALL, _GOOD = (4,), (1, 1, 1), (2, 1)  # on G(2,5): too long a row, too many rows, in the box
_MESSAGES = {_WIDE: "partition 4 does not fit the 2x3 box of G(2,5)",
             _TALL: "partition 1,1,1 does not fit the 2x3 box of G(2,5)"}


def _out_of_box_products():
    """(call, the class its BoxError names) for each position of a product."""
    def cls(*ps, shift=0):
        """The class 2 q**shift s[ps[0]] - q**(shift + 1) s[ps[1]] (as far as ps goes)."""
        return QuantumClass(G25, {(shift + i, p): c for i, (p, c) in enumerate(zip(ps, (2, -1)))})

    good = QuantumClass.from_partition(G25, _GOOD)
    return [
        (lambda: quantum_product(_WIDE, _GOOD, G25), _WIDE),
        (lambda: quantum_product(_GOOD, _WIDE, G25), _WIDE),
        (lambda: quantum_product(_TALL, _GOOD, G25), _TALL),
        (lambda: quantum_product(_WIDE, _TALL, G25), _WIDE),  # read as the pair (tall, wide)
        (lambda: quantum_product(_TALL, _WIDE, G25), _TALL),
        (lambda: cls(_GOOD, _WIDE) * good, _WIDE),
        (lambda: good * cls(_GOOD, _TALL, shift=1), _TALL),
        (lambda: cls(_GOOD, _TALL) * cls(_WIDE), _TALL),  # the first pair read fails on wide
        (lambda: cls(_WIDE) * cls(_TALL), _WIDE),
        (lambda: cls(_TALL) * cls(_GOOD, _WIDE), _TALL),
    ]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_an_out_of_box_class_raises_at_each_position_of_a_product(warm):
    # the box is checked where a record is built; a record is never built
    # for a class out of the box, so the check holds warm as cold and names
    # the class that checking every class first would name.  Warm, every
    # in-box record is cached already and a failed call caches nothing; cold,
    # a class product caches the in-box pairs it reads before failing (any
    # later call would), and a repeated failure caches nothing more.
    for call, named in _out_of_box_products():
        clear_cache()
        if warm:
            for lam, mu in combinations_with_replacement(G25.basis(), 2):
                quantum_product(lam, mu, G25)
        size = _product_terms.cache_info().currsize
        sizes = []
        for _ in range(2):
            with pytest.raises(BoxError) as err:
                call()
            assert str(err.value) == _MESSAGES[named]
            sizes.append(_product_terms.cache_info().currsize)
        assert (sizes == [size, size]) if warm else (sizes[0] == sizes[1])


def test_an_isotropic_product_raises_unsupported_family_first():
    for space in (parse_space("IG(2,6)"), parse_space("OG(2,7)")):
        left = QuantumClass(space, {(0, (9, 9)): 1})
        right = QuantumClass(space, {(0, (1,)): 1, (1, (1, 1, 1)): -1})
        size = _product_terms.cache_info().currsize
        for call in (lambda: quantum_product((1,), (9, 9), space),
                     lambda: quantum_product((1, 1, 1), (1,), space),
                     lambda: left * right, lambda: right * left):
            with pytest.raises(UnsupportedFamilyError) as err:
                call()
            assert str(err.value) == "isotropic quantum products out of scope"
        assert _product_terms.cache_info().currsize == size



@pytest.mark.parametrize("text", ["IG(2,6)", "OG(2,7)", "OG(3,8)"])
def test_every_basis_helper_raises_the_one_family_message(text):
    space = parse_space(text)
    for call in (lambda: space.box_cols, space.basis, space.require_in_box,
                 lambda: space.in_box((1,)), lambda: space.dual((1,)), space.point_class,
                 lambda: rim_hook_reduce((1,), space), lambda: quantum_pieri(1, (), space),
                 lambda: quantum.indexed_table(space), lambda: next(product_table(space))):
        with pytest.raises(UnsupportedFamilyError) as err:
            call()
        assert str(err.value) == "isotropic quantum products out of scope"

def _termwise(x, y):
    """x * y term by term from quantum_product, summed in the order of the
    terms, then with its zeros dropped; and whether some sum was 0."""
    out: dict = {}
    for (d1, p1), c1 in x.terms.items():
        for (d2, p2), c2 in y.terms.items():
            for (d, p), c in quantum_product(p1, p2, x.space).terms.items():
                key = (d1 + d2 + d, p)
                out[key] = out.get(key, 0) + c1 * c2 * c
    return {key: c for key, c in out.items() if c}, 0 in out.values()


@pytest.mark.parametrize("space", [G25, G36])
def test_class_product_matches_the_termwise_sum_with_its_key_order(space):
    # classes with q shifts and negative coefficients; pairs of classes
    # whose products cancel in places, so some sums reach 0
    draw = random.Random(f"class-products-{space}")
    basis, coeffs = space.basis(), (-2, -1, 1, 3)
    cancelled = 0
    for _ in range(300):
        if draw.random() < 0.5:
            x, y = (QuantumClass(space, {(draw.randrange(3), draw.choice(basis)): draw.choice(coeffs)
                                         for _ in range(draw.randrange(1, 5))}) for _ in range(2))
        else:  # a difference times a sum of three classes with signs: more sums cancel
            x = QuantumClass(space, {(0, draw.choice(basis)): 1, (1, draw.choice(basis)): -1})
            y = QuantumClass(space, {(0, q): draw.choice((1, -1)) for q in draw.sample(basis, 3)})
        expected, reached_zero = _termwise(x, y)
        product = x * y
        assert list(product.terms.items()) == list(expected.items()), (x, y)
        assert 0 not in product.terms.values()
        cancelled += reached_zero
    assert cancelled >= 10  # the zero filter was exercised


def test_changing_a_product_changes_no_record():
    s21, s1 = QuantumClass.from_partition(G25, (2, 1)), QuantumClass.from_partition(G25, (1,))
    for x, y in ((s21, s1), (s21 + s1, s1), (QuantumClass(G25, {(1, (2, 1)): 1}), s1)):
        records = {pair: dict(_product_terms(*pair, G25)) for pair in (((1,), (1,)), ((1,), (2, 1)))}
        first = x * y
        expected = dict(first.terms)
        first.terms[(0, (3, 2))] = 7
        first.terms.pop(next(iter(expected)))
        for pair, record in records.items():
            assert _product_terms(*pair, G25) == record
        assert (x * y).terms == expected
    with pytest.raises(AttributeError):  # slotted: a class holds its space and terms alone
        s1.extra = 1


def test_quantum_class_rendering():
    assert str(quantum_product((2,), (1, 1), G24)) == "q*1"
    assert str(quantum_product((1,), (1,), G24)) == "s[1,1] + s[2]"
    assert str(quantum_product((2, 2), (2, 2), G24)) == "q^2*1"
    assert str(QuantumClass(G24, {})) == "0"
    assert str(3 * QuantumClass.unit(G24)) == "3"
