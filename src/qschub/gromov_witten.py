"""Genus-zero Gromov-Witten invariants of ordinary Grassmannians.

Three-point invariants are structure constants of the quantum product.
Invariants with more insertions are reduced to the three-point case with
two standard moves: an insertion of the fundamental class kills the
invariant (for d >= 1), and each insertion of the codimension-one class
s[1] can be stripped at the cost of a factor d (it pairs to d with the
curve class).  The one family of many-point invariants computed beyond
that is the plane count: on G(1,3) an invariant whose insertions are all
point classes equals the number N_d of degree-d rational plane curves.
"""

from collections import namedtuple

from .errors import NotComputableError, UnbalancedQueryError
from .partitions import Partition, weight
from .plane_curves import kontsevich_nd
from .quantum import quantum_product
from .spaces import Grassmannian, grassmannian, require_type_a

DIVISOR: Partition = (1,)
POINT_P2: Partition = (2,)

_P2 = grassmannian(1, 3)


def gw_3point(
    space: Grassmannian, first: Partition, second: Partition, third: Partition, d: int
) -> int:
    """The degree-d three-point invariant of three Schubert classes.

    Returns 0 when the codimensions do not add up to the moduli dimension
    (the integrand has the wrong degree), so this doubles as a plain
    coefficient extractor; otherwise it is the coefficient of
    q^d s[dual(third)] in the quantum product of the first two classes.
    """
    for p in (first, second, third):
        space.require_in_box(p)
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if weight(first) + weight(second) + weight(third) != space.moduli_dimension(3, d):
        return 0
    return quantum_product(first, second, space).coefficient(d, space.dual(third))


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
        return sum(weight(p) for p in self.insertions)

    def is_balanced(self) -> bool:
        return self.total_codim() == self.space.moduli_dimension(
            len(self.insertions), self.degree
        )

    def require_balanced(self) -> None:
        """Raise UnbalancedQueryError unless the codimensions sum to the
        moduli dimension."""
        if not self.is_balanced():
            raise UnbalancedQueryError(
                f"codimensions sum to {self.total_codim()}, moduli dimension is "
                f"{self.space.moduli_dimension(len(self.insertions), self.degree)}"
            )


def gw_spoint(query: GWQuery) -> int:
    """Evaluate an s-point invariant of degree >= 1.

    Pipeline: a fundamental-class insertion gives 0; every s[1] insertion
    is stripped and contributes a factor d; if three insertions remain the
    answer is a quantum structure constant (fewer than three are padded
    back with s[1], dividing by d per pad, always exactly); if more than
    three remain the only supported case is all point classes on G(1,3),
    which is the plane count N_d.  Anything else raises NotComputableError.
    """
    space = query.space
    require_type_a(space)
    d = query.degree
    if d < 1:
        raise ValueError("gw_spoint handles degree >= 1 only; use gw_3point at degree 0")
    if not query.insertions:
        raise ValueError("at least one insertion is required")
    for p in query.insertions:
        space.require_in_box(p)
    query.require_balanced()
    if any(p == () for p in query.insertions):
        return 0
    rest = [p for p in query.insertions if p != DIVISOR]
    stripped = len(query.insertions) - len(rest)
    if len(rest) <= 3:
        pad = 3 - len(rest)
        value = d**stripped * gw_3point(space, *rest, *[DIVISOR] * pad, d)
        if value % d**pad:
            raise RuntimeError(
                "divisor stripping produced a non-integral value; this is a bug"
            )
        return value // d**pad
    if space == _P2 and all(p == POINT_P2 for p in rest):
        return d**stripped * kontsevich_nd(d)
    raise NotComputableError(
        f"{len(rest)}-point invariants are out of scope except for plane point counts"
    )
