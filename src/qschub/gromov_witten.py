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
from .partitions import Partition, box_complement, weight
from .plane_curves import kontsevich_nd
# quantum_product is unused here; perfbench/tracer.py wraps it until ROADMAP Direction 1
from .quantum import _product_terms, quantum_product
from .spaces import Grassmannian, grassmannian, require_type_a

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
    for p in (first, second, third):
        space.require_in_box(p)
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
        return super().__new__(cls, space, degree, insertions)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace checks its fields too

    def total_codim(self) -> int:
        return sum(map(weight, self.insertions))

    def is_balanced(self) -> bool:
        return self.total_codim() == self.space.moduli_dimension(
            len(self.insertions), self.degree
        )

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

    The family, each insertion's box and the balance are checked once.  At
    d = 0, fewer than three insertions raise NotComputableError (before the
    balance check), three give the triple product and more give 0.  At
    d >= 1, a fundamental class gives 0; each s[1] is stripped for a factor
    d; three or fewer classes left give a quantum structure constant (padded
    back with s[1], dividing by d per pad, always exactly); more are
    computed only as the plane count N_d: all point classes on G(1,3).

    The three-point reads skip gw_3point's balance test: with s
    insertions, k of them s[1] stripped and pad = 3 - (s - k) put back, the
    classes read have codimension dim + s - 3 + d * n - k + pad = dim + d * n,
    which is moduli_dimension(3, d), on every route (k = pad = 0 at d = 0).
    """
    space, d, insertions = query
    require_type_a(space)
    if not insertions:
        raise ValueError("at least one insertion is required")
    for p in insertions:
        space.require_in_box(p)
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
    if len(rest) <= 3:
        pad = 3 - len(rest)
        value = d**stripped * _structure_constant(space, *rest, *[DIVISOR] * pad, d)
        if value % d**pad:
            raise RuntimeError("divisor stripping produced a non-integral value; this is a bug")
        return value // d**pad
    if space == _P2 and all(p == POINT_P2 for p in rest):
        return d**stripped * kontsevich_nd(d)
    raise NotComputableError(
        f"{len(rest)}-point invariants are out of scope except for plane point counts"
    )
