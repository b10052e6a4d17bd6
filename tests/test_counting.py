from itertools import combinations_with_replacement

import pytest

from qschub.counting import CountProblem, CountResult, rational_curve_count
from qschub.errors import NotComputableError, UnbalancedQueryError
from qschub.partitions import weight
from qschub.spaces import grassmannian

G24 = grassmannian(2, 4)
P2 = grassmannian(1, 3)


def test_count_examples():
    assert rational_curve_count(
        CountProblem(G24, 1, ((2, 2), (1, 1), (2,)))
    ) == CountResult(1, 0, 1)
    assert rational_curve_count(
        CountProblem(G24, 1, ((1,), (2, 2), (2, 1)))
    ) == CountResult(1, 1, 1)
    # the unique conic through 5 general points
    assert rational_curve_count(
        CountProblem(P2, 2, ((1,),) + ((2,),) * 5)
    ) == CountResult(2, 1, 1)
    # twelve rational cubics through 8 general points
    assert rational_curve_count(
        CountProblem(P2, 3, ((2,),) * 8)
    ) == CountResult(12, 0, 12)


def test_count_with_empty_condition_is_zero():
    result = rational_curve_count(CountProblem(G24, 1, ((), (2, 2), (2, 2))))
    assert result.gw_value == 0
    assert result.curve_count == 0


def test_count_validates():
    with pytest.raises(UnbalancedQueryError):
        rational_curve_count(CountProblem(G24, 1, ((1,), (1,), (1,))))
    with pytest.raises(ValueError):
        rational_curve_count(CountProblem(G24, 0, ((1,), (1,), (2,))))
    with pytest.raises(NotComputableError):
        rational_curve_count(CountProblem(G24, 2, ((2, 2), (2, 2), (2, 1), (2,))))


def _balanced_problems(space, degree, max_conditions):
    for s in range(1, max_conditions + 1):
        target = space.moduli_dimension(s, degree)
        for combo in combinations_with_replacement(space.basis(), s):
            if sum(weight(p) for p in combo) == target:
                yield CountProblem(space, degree, combo)


@pytest.mark.parametrize("space", [G24, grassmannian(2, 5), P2, grassmannian(1, 4)])
def test_divisibility_and_divisor_append(space):
    for degree in (1, 2, 3):
        for problem in _balanced_problems(space, degree, 5):
            try:
                base = rational_curve_count(problem)
            except NotComputableError:
                continue
            # exact divisibility is asserted inside; re-check the identity
            assert base.gw_value == degree**base.divisor_conditions * base.curve_count
            # selfcheck's divisor_rule checks the appended problem's value and count
            extended = CountProblem(space, degree, problem.conditions + ((1,),))
            assert rational_curve_count(extended).divisor_conditions == base.divisor_conditions + 1
