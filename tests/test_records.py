"""The package's records: immutable, compared and hashed by their fields,
and printed in the field-named form."""

import pytest

from qschub import (
    CountProblem, CountResult, GWQuery, Grassmannian, QuantumClass, ReductionOutcome,
    grassmannian, quantum_product, rim_hook_reduce,
)
from qschub.selfcheck import SuiteResult

G24 = grassmannian(2, 4)
FIELDS = {
    "Grassmannian": ("family", "m", "n"),
    "GWQuery": ("space", "degree", "insertions"),
    "CountProblem": ("space", "degree", "conditions"),
    "CountResult": ("gw_value", "divisor_conditions", "curve_count"),
    "ReductionOutcome": ("q_power", "sign", "core"),
}


def _records():
    """(a record, an equal one built afresh, its repr)."""
    query = ((1,), (2, 2))
    return [
        (G24, Grassmannian("A", 2, 4), "Grassmannian(family='A', m=2, n=4)"),
        (GWQuery(G24, 1, query), GWQuery(grassmannian(2, 4), 1, ((1,), (2, 2))),
         "GWQuery(space=Grassmannian(family='A', m=2, n=4), degree=1, "
         "insertions=((1,), (2, 2)))"),
        (CountProblem(G24, 1, query), CountProblem(grassmannian(2, 4), 1, ((1,), (2, 2))),
         "CountProblem(space=Grassmannian(family='A', m=2, n=4), degree=1, "
         "conditions=((1,), (2, 2)))"),
        (CountResult(1, 0, 1), CountResult(gw_value=1, divisor_conditions=0, curve_count=1),
         "CountResult(gw_value=1, divisor_conditions=0, curve_count=1)"),
        (rim_hook_reduce((3, 1), G24), ReductionOutcome(1, 1, ()),
         "ReductionOutcome(q_power=1, sign=1, core=())"),
    ]


@pytest.mark.parametrize("record, twin, text", _records())
def test_records_are_immutable_equal_by_fields_and_hashable(record, twin, text):
    for field in FIELDS[type(record).__name__]:
        assert getattr(record, field) == getattr(twin, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    assert repr(record) == text


def test_replace_checks_the_new_fields_like_the_constructor():
    assert G24._replace(n=5) == Grassmannian(family="A", m=2, n=5)
    with pytest.raises(ValueError, match="requires 1 <= m <= 3, got m=0, n=4"):
        G24._replace(m=0)
    with pytest.raises(ValueError, match="degree must be >= 0, got -2"):
        GWQuery(G24, 1, ())._replace(degree=-2)


def test_quantum_class_compares_by_space_and_terms_and_is_unhashable():
    product = quantum_product((2,), (1, 1), G24)
    assert product == QuantumClass(grassmannian(2, 4), {(1, ()): 1, (0, (1,)): 0})
    assert product != QuantumClass(grassmannian(1, 3), {(1, ()): 1})
    assert product != QuantumClass(G24, {(1, ()): 2})
    assert product != {(1, ()): 1}
    with pytest.raises(TypeError):
        hash(product)
    assert repr(product) == "QuantumClass(space=Grassmannian(family='A', m=2, n=4), terms={(1, ()): 1})"
    assert QuantumClass(G24) == QuantumClass(G24, {}) and QuantumClass(G24).terms == {}


def test_suite_result_compares_by_fields():
    assert SuiteResult("unit") == SuiteResult("unit", 0, [])
    assert SuiteResult("unit", 1) != SuiteResult("unit")
    assert repr(SuiteResult("unit", 2, ["a"])) == "SuiteResult(name='unit', checks=2, failures=['a'])"
    first, second = SuiteResult("a"), SuiteResult("a")
    first.expect(False, "x")
    assert (first.failures, second.failures, first.ok, second.ok) == (["x"], [], False, True)
