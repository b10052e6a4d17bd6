from math import comb, log10

import pytest

from qschub.errors import BoxError, DegreeRangeError, UnsupportedFamilyError
from qschub.partitions import enumerate_box
from qschub.spaces import Grassmannian, MoreThan, grassmannian, parse_space


def test_parse_notation_round_trip():
    for text, family, m, n in [
        ("G(2,4)", "A", 2, 4),
        ("IG(2,6)", "C", 2, 3),
        ("OG(2,7)", "B", 2, 3),
        ("OG(2,8)", "D", 2, 3),
        ("IG(3,8)", "C", 3, 4),
        ("OG(4,9)", "B", 4, 4),
    ]:
        space = parse_space(text)
        assert (space.family, space.m, space.n) == (family, m, n)
        assert space.notation == text
        assert parse_space(space.notation) == space


def test_parse_rejects_bad_syntax():
    for bad in ("G(2;4)", "H(2,4)", "G(2,4", "IG(2,7)", "G(a,b)", "OG()"):
        with pytest.raises(ValueError):
            parse_space(bad)


def test_constructor_validates_ranges():
    with pytest.raises(ValueError):
        Grassmannian("A", 4, 4)
    with pytest.raises(ValueError):
        Grassmannian("C", 4, 3)
    with pytest.raises(ValueError):
        Grassmannian("D", 5, 3)
    with pytest.raises(ValueError):
        Grassmannian("E", 2, 4)
    # projective spaces, including the line, are legal family-A values
    assert grassmannian(1, 2).dimension() == 1


def test_k_value():
    assert parse_space("IG(2,6)").k_value() == 1
    assert parse_space("OG(2,7)").k_value() == 1
    assert parse_space("OG(2,8)").k_value() == 2
    with pytest.raises(UnsupportedFamilyError):
        grassmannian(2, 4).k_value()


def test_dimension():
    assert grassmannian(2, 4).dimension() == 4
    assert grassmannian(1, 3).dimension() == 2
    assert grassmannian(3, 6).dimension() == 9
    with pytest.raises(UnsupportedFamilyError):
        parse_space("IG(2,6)").dimension()


def test_c1_degree():
    assert grassmannian(2, 4).c1_degree() == 4
    assert grassmannian(1, 3).c1_degree() == 3
    assert grassmannian(1, 2).c1_degree() == 2
    with pytest.raises(UnsupportedFamilyError):
        parse_space("OG(2,7)").c1_degree()


def test_moduli_dimension():
    assert grassmannian(2, 4).moduli_dimension(3, 1) == 8
    assert grassmannian(1, 3).moduli_dimension(3, 0) == 2
    assert grassmannian(1, 3).moduli_dimension(8, 3) == 16


def test_moduli_dimension_properties():
    for space in (grassmannian(2, 4), grassmannian(1, 3), grassmannian(3, 6)):
        assert space.moduli_dimension(3, 0) == space.dimension()
        for s in range(1, 6):
            for d in range(4):
                assert (
                    space.moduli_dimension(s + 1, d)
                    == space.moduli_dimension(s, d) + 1
                )


def test_critical_degree_cases():
    assert grassmannian(2, 4).critical_degree() == 2
    assert parse_space("IG(3,8)").critical_degree() == 3
    assert parse_space("OG(3,9)").critical_degree() == 4
    assert parse_space("OG(4,9)").critical_degree() == 2


def test_critical_degree_bound_type_a():
    for n in range(2, 9):
        for m in range(1, n):
            assert grassmannian(m, n).critical_degree() == min(m, n - m) <= m


def test_kernel_span_dims():
    assert grassmannian(2, 4).kernel_span_dims(1) == (1, 3)
    assert grassmannian(2, 4).kernel_span_dims(2) == (0, 4)
    assert parse_space("IG(3,8)").kernel_span_dims(2) == (1, 5)
    with pytest.raises(DegreeRangeError):
        grassmannian(2, 4).kernel_span_dims(3)
    with pytest.raises(DegreeRangeError):
        grassmannian(2, 4).kernel_span_dims(0)


def test_kernel_span_sum():
    for space in (grassmannian(2, 5), parse_space("IG(3,8)"), parse_space("OG(3,9)")):
        for d in range(1, min(space.critical_degree(), space.m) + 1):
            kernel, span = space.kernel_span_dims(d)
            assert kernel + span == 2 * space.m


def test_point_class_and_dual():
    g = grassmannian(2, 4)
    assert g.point_class() == (2, 2)
    assert g.dual((1,)) == (2, 1)
    assert g.basis()[0] == ()


def test_box_error_messages():
    g = grassmannian(2, 4)
    for p, text in (((3,), "partition 3 does not fit the 2x2 box of G(2,4)"),
                    ((1, 1, 1), "partition 1,1,1 does not fit the 2x2 box of G(2,4)")):
        with pytest.raises(BoxError) as err:
            g.require_in_box(p)
        assert str(err.value) == text


def test_isotropic_spaces_refuse_before_any_box_check():
    for notation in ("IG(2,6)", "OG(2,7)"):
        space = parse_space(notation)
        for p in ((1,), (9, 9), (1, 1, 1)):
            with pytest.raises(UnsupportedFamilyError) as err:
                space.require_in_box(p)
            assert str(err.value) == "isotropic quantum products out of scope"


def test_in_box_agrees_with_require_in_box():
    g = grassmannian(3, 7)  # a 3x4 box
    shapes = enumerate_box(4, 5)  # every shape of it, and one row and one column past it
    assert sum(map(g.in_box, shapes)) == len(g.basis()) == 35
    for p in shapes:
        try:
            g.require_in_box(p)
            checked = True
        except BoxError:
            checked = False
        assert checked == g.in_box(p), p


def test_to_json():
    assert grassmannian(2, 4).to_json() == {
        "family": "A",
        "m": 2,
        "n": 4,
        "notation": "G(2,4)",
    }


def test_basis_size_is_exact_up_to_its_cap():
    for n in range(2, 70):
        for m in range(1, n):
            exact = comb(n, m)
            for cap_exp in (1, 3, 18):
                size = grassmannian(m, n).basis_size(cap_exp)
                if exact <= 10**cap_exp:
                    assert (type(size), size) == (int, exact), (m, n, cap_exp)
                else:
                    assert isinstance(size, MoreThan), (m, n, cap_exp)
                    assert size == 10**cap_exp + 1
                    assert str(size) == f"more than 10^{cap_exp}"
    assert grassmannian(1, 10**18).basis_size() == 10**18
    assert str(grassmannian(1, 10**18 + 1).basis_size()) == "more than 10^18"
    with pytest.raises(UnsupportedFamilyError):
        parse_space("OG(2,8)").basis_size()


def test_basis_size_log10_stops_once_past():
    for m, n in ((3, 7), (10, 20), (40, 80), (17, 200)):
        assert grassmannian(m, n).basis_size_log10() == pytest.approx(log10(comb(n, m)), rel=1e-12)
    # a million terms in full; each is at least log10 2, so at most 61 before passing 18
    partial = grassmannian(10**6, 2 * 10**6).basis_size_log10(18)
    assert 18 < partial < 18 + log10(2 * 10**6)
