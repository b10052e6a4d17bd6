"""From Gromov-Witten invariants to actual curve counts.

A degree-d invariant whose conditions include r Schubert varieties of
codimension one is divisible by d^r, and the quotient is the number of
degree-d rational curves meeting general translates of all the conditions.
The quotient, the invariant, and r are always reported together: the
distinction is the whole point (a curve through a divisor condition can be
marked at any of its d intersection points with it, inflating the map count
by d per divisor condition).
"""

from collections import namedtuple

from .gromov_witten import DIVISOR, GWQuery, gw_spoint


class CountProblem(namedtuple("CountProblem", "space degree conditions")):
    """An enumerative query: how many degree-d rational curves on the space
    (a Grassmannian) meet general translates of all the Schubert conditions
    (a tuple of partitions)?"""

    __slots__ = ()

    def as_query(self) -> GWQuery:
        return GWQuery(self.space, self.degree, self.conditions)


class CountResult(namedtuple("CountResult", "gw_value divisor_conditions curve_count")):
    """The invariant, the number r of codimension-one conditions, and the
    curve count, which is the invariant divided by d^r."""

    __slots__ = ()


def rational_curve_count(problem: CountProblem) -> CountResult:
    """Solve a CountProblem: evaluate the invariant and divide by d^r where
    r counts the codimension-one conditions.  The division is exact; a
    remainder would be an implementation bug and raises RuntimeError."""
    space, d, conditions = problem
    if d < 1:
        raise ValueError("curve counting needs degree >= 1")
    value = gw_spoint(GWQuery(space, d, conditions))
    r = conditions.count(DIVISOR)  # s[1] is the one class of weight 1
    if d == 1 or not r:  # d**r is 1
        return CountResult(value, r, value)
    scale = d**r
    if value % scale:
        raise RuntimeError(
            f"invariant {value} is not divisible by d^r = {scale}; this is a bug"
        )
    return CountResult(value, r, value // scale)
