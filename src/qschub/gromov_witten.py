"""Genus-zero Gromov-Witten invariants of ordinary Grassmannians.

gw_spoint answers every degree d >= 0.  At d = 0, three insertions give
the classical triple product and four or more give 0.  At d >= 1,
three-point invariants are structure constants of the quantum product, and
longer queries are reduced to them by two standard moves: a fundamental-
class insertion kills the invariant, and each insertion of the
codimension-one class s[1] is stripped for a factor d (it pairs to d with
the curve class).  Beyond that, on G(1,3) an invariant whose insertions
are all point classes is the number N_d of degree-d rational plane curves.
"""

from collections import namedtuple

from .errors import NotComputableError, UnbalancedQueryError
from .partitions import Partition, box_complement
from .plane_curves import kontsevich_nd
# quantum_product is unused here; perfbench/tracer.py wraps it until ROADMAP Direction 1
from .quantum import _product_terms, quantum_product
from .spaces import Grassmannian, grassmannian

DIVISOR: Partition = (1,)
POINT_P2: Partition = (2,)

_P2 = grassmannian(1, 3)


def _structure_constant(space: Grassmannian, a: Partition, b: Partition, c: Partition,
                        d: int) -> int:
    """The coefficient of q**d s[dual(c)] in s[a] * s[b], read from the
    cached product of the pair in tuple order, for classes already
    box-checked: the dual is flipped without a second box check, and the
    weights are not tested."""
    _, m, n = space
    terms = _product_terms(a, b, space) if a <= b else _product_terms(b, a, space)
    return terms.get((d, box_complement(c, m, n - m)), 0)


def gw_3point(
    space: Grassmannian, first: Partition, second: Partition, third: Partition, d: int
) -> int:
    """The degree-d three-point invariant of three Schubert classes.

    The classes are box-checked, then GWQuery checks the degree.  Returns 0
    unless the query is balanced (else the integrand has the wrong degree),
    so this doubles as a plain coefficient extractor; otherwise it is the
    coefficient of q^d s[dual(third)] in the product of the first two.
    """
    space.require_in_box(first, second, third)
    if not GWQuery(space, d, (first, second, third)).is_balanced():
        return 0
    return _structure_constant(space, first, second, third, d)


class GWQuery(namedtuple("GWQuery", "space degree insertions")):
    """An s-point invariant query: target space (a Grassmannian), curve
    degree, and the ordered tuple of Schubert class insertions (the empty
    partition denotes the fundamental class)."""

    __slots__ = ()

    def __new__(cls, space: Grassmannian, degree: int, insertions: tuple[Partition, ...]):
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return tuple.__new__(cls, (space, degree, insertions))  # as the named tuple's own __new__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace checks its fields too

    def total_codim(self) -> int:
        return sum(map(sum, self.insertions))  # a class's codimension is its weight, sum(p)

    def is_balanced(self) -> bool:
        """The one balance rule: the codimensions, summed in one pass, equal
        moduli_dimension, called once."""
        space, d, insertions = self
        return sum(map(sum, insertions)) == space.moduli_dimension(len(insertions), d)

    def require_balanced(self) -> None:
        """Raise UnbalancedQueryError unless is_balanced()."""
        if not self.is_balanced():
            space, d, insertions = self
            raise UnbalancedQueryError(
                f"codimensions sum to {self.total_codim()}, "
                f"moduli dimension is {space.moduli_dimension(len(insertions), d)}"
            )


def gw_spoint(query: GWQuery) -> int:
    """Evaluate an s-point invariant of any degree d >= 0.

    The family and every insertion's box are checked in one call, and the
    balance once.  The box check cannot be left to the product record, as
    quantum_product leaves it: the dual class and the N_d route never reach
    a record.  At d = 0, fewer than three insertions raise
    NotComputableError (before the balance check), three give the triple
    product and more give 0.  At d >= 1, a fundamental class gives 0; each
    s[1] is stripped for a factor d; three or fewer classes left give a
    quantum structure constant (padded back with s[1], dividing by d per
    pad, always exactly, and with no power of d computed at d = 1); more are
    computed only as the plane count N_d: all point classes on G(1,3).

    The three-point reads skip gw_3point's balance test: with s
    insertions, k of them s[1] stripped and pad = 3 - (s - k) put back, the
    classes read have codimension dim + s - 3 + d * n - k + pad = dim + d * n,
    which is moduli_dimension(3, d), on every route (k = pad = 0 at d = 0).
    """
    space, d, insertions = query
    space.require_in_box(*insertions)  # the family first, even with no insertions
    if not insertions:
        raise ValueError("at least one insertion is required")
    if d == 0 and len(insertions) < 3:
        raise NotComputableError("degree-0 invariants are computed for at least 3 insertions")
    query.require_balanced()
    if d == 0:
        # Past three insertions every evaluation map factors through the
        # space, so the integrand is pulled back from it and has degree
        # above its dimension (Fulton-Pandharipande, Notes on stable maps).
        return _structure_constant(space, *insertions, 0) if len(insertions) == 3 else 0
    if () in insertions:
        return 0
    rest = [p for p in insertions if p != DIVISOR]
    stripped = len(insertions) - len(rest)
    pad = 3 - len(rest)
    if pad >= 0:
        value = _structure_constant(space, *rest, *(DIVISOR,) * pad, d)
        if d == 1:  # every factor d**k is 1
            return value
        if stripped:
            value *= d**stripped
        if pad:
            value, remainder = divmod(value, d**pad)
            if remainder:
                raise RuntimeError("divisor stripping produced a non-integral value; this is a bug")
        return value
    if space == _P2 and all(p == POINT_P2 for p in rest):
        return d**stripped * kontsevich_nd(d)
    raise NotComputableError(
        f"{len(rest)}-point invariants are out of scope except for plane point counts"
    )
