"""The small quantum cohomology ring of an ordinary Grassmannian.

Products of Schubert classes are computed by reducing the classical
Littlewood-Richardson expansion modulo n-rim-hooks: every border strip of
exactly n cells removed from an index partition contributes one power of q
and a sign (-1)**(m - height).  An expansion term whose n-core does not fit
the m x (n-m) box contributes nothing.  The quantum Pieri rule is
implemented independently and serves as a cross-check on the rim-hook path;
the two must agree wherever both apply.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import BoxError
from .lr import classical_structure_constants, schur_product
from .partitions import (
    Partition,
    conjugate,
    format_partition,
    is_horizontal_strip,
    weight,
)
from .spaces import Grassmannian, require_type_a


class ReductionOutcome(NamedTuple):
    """A completed rim-hook reduction: q_power strips were removed with the
    given total sign, leaving the core partition (which fits the box).
    A reduction whose core leaves the box is reported as None instead."""

    q_power: int
    sign: int
    core: Partition


def removable_hooks(nu: Partition, strip_size: int) -> list[tuple[int, int]]:
    """Cells (row, col) of nu, 0-indexed, whose hook length equals
    strip_size.  Each names one removable border strip of that many cells;
    the strip's head sits at the end of `row`.  At most one cell per row
    qualifies, and the list is ordered by row."""
    conj = conjugate(nu)
    found = []
    for i, row_len in enumerate(nu):
        for j in range(row_len):
            if (row_len - j) + (conj[j] - i) - 1 == strip_size:
                found.append((i, j))
    return found


def remove_rim_hook(nu: Partition, cell: tuple[int, int]) -> tuple[Partition, int]:
    """Peel the border strip running from the end of row cell[0] back to
    column cell[1]; returns (smaller partition, number of rows occupied)."""
    i, j = cell
    last = sum(1 for x in nu if x > j) - 1  # lowest row meeting column j
    parts = list(nu)
    for r in range(i, last):
        parts[r] = nu[r + 1] - 1
    parts[last] = j
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts), last - i + 1


def _hook_sign(m: int, height: int) -> int:
    return -1 if (m - height) % 2 else 1


def rim_hook_reduce(nu: Partition, space: Grassmannian) -> ReductionOutcome | None:
    """Reduce nu modulo n-rim-hooks for the given G(m, n).

    Strips of n cells are removed until none remains; each removal picks the
    removable strip whose head lies in the highest row (the outcome is
    independent of this choice, which the test suite verifies by exhausting
    all removal orders).  Returns None when the resulting n-core does not
    fit the m x (n-m) box, i.e. the term dies in the quantum ring.
    """
    require_type_a(space)
    if len(nu) > space.m:
        raise BoxError(f"partition {format_partition(nu)} has more than {space.m} rows")
    q_power = 0
    sign = 1
    core = nu
    while True:
        hooks = removable_hooks(core, space.n)
        if not hooks:
            break
        core, height = remove_rim_hook(core, hooks[0])
        q_power += 1
        sign *= _hook_sign(space.m, height)
    if not space.in_box(core):
        return None
    return ReductionOutcome(q_power, sign, core)


@dataclass
class QuantumClass:
    """An element of the quantum cohomology ring: an integer combination of
    pairs (q_power, partition in the box).  Zero coefficients are never
    stored."""

    space: Grassmannian
    terms: dict[tuple[int, Partition], int] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {key: c for key, c in self.terms.items() if c}

    @classmethod
    def from_partition(cls, space: Grassmannian, p: Partition) -> "QuantumClass":
        require_type_a(space)
        space.require_in_box(p)
        return cls(space, {(0, p): 1})

    @classmethod
    def unit(cls, space: Grassmannian) -> "QuantumClass":
        return cls.from_partition(space, ())

    def coefficient(self, q_power: int, p: Partition) -> int:
        return self.terms.get((q_power, p), 0)

    def q_part(self, q_power: int) -> dict[Partition, int]:
        """The coefficient of q**q_power, as a map partition -> integer."""
        return {p: c for (d, p), c in self.terms.items() if d == q_power}

    def sorted_terms(self) -> list[tuple[int, Partition, int]]:
        return [(d, p, self.terms[(d, p)]) for d, p in sorted(self.terms)]

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        if self.space != other.space:
            raise ValueError("cannot add classes on different spaces")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return QuantumClass(self.space, merged)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuantumClass(self.space, {k: other * c for k, c in self.terms.items()})
        if not isinstance(other, QuantumClass):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("cannot multiply classes on different spaces")
        out: dict[tuple[int, Partition], int] = {}
        for (d1, p1), c1 in self.terms.items():
            for (d2, p2), c2 in other.terms.items():
                for (d, p), c in quantum_product(p1, p2, self.space).terms.items():
                    key = (d + d1 + d2, p)
                    out[key] = out.get(key, 0) + c1 * c2 * c
        return QuantumClass(self.space, out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_terms((d, format_partition(p), c) for d, p, c in self.sorted_terms())


def format_terms(terms: Iterable[tuple[int, str, int]]) -> str:
    """The text form of a class from its (q power, partition text,
    coefficient) terms, e.g. "s[2,2] + q*1"; "0" when there are none."""
    pieces = []
    for d, p, c in terms:
        factors = []
        if c != 1:
            factors.append(str(c))
        if d == 1:
            factors.append("q")
        elif d > 1:
            factors.append(f"q^{d}")
        if p != "0":
            factors.append(f"s[{p}]")
        elif d > 0:
            factors.append("1")  # the unit stays visible next to q
        pieces.append("*".join(factors) if factors else "1")
    return " + ".join(pieces) or "0"


@lru_cache(maxsize=1 << 16)
def _product_terms(lam: Partition, mu: Partition, space: Grassmannian):
    terms: dict[tuple[int, Partition], int] = {}
    for nu, coeff in schur_product(lam, mu, space.m).items():
        reduced = rim_hook_reduce(nu, space)
        if reduced is None:
            continue
        key = (reduced.q_power, reduced.core)
        terms[key] = terms.get(key, 0) + coeff * reduced.sign
    return tuple(sorted((key, c) for key, c in terms.items() if c))


def quantum_product(lam: Partition, mu: Partition, space: Grassmannian) -> QuantumClass:
    """The quantum product of two Schubert classes, via rim-hook reduction
    of the classical expansion.  All surviving coefficients are genus-zero
    three-point Gromov-Witten invariants, hence positive."""
    require_type_a(space)
    space.require_in_box(lam)
    space.require_in_box(mu)
    return QuantumClass(space, dict(_product_terms(lam, mu, space)))


def _pieri_quantum_shapes(lam: Partition, rows: int, target: int) -> Iterator[Partition]:
    """Shapes nu of weight `target` interlacing lam shifted down by one box
    per row: lam_1 - 1 >= nu_1 >= lam_2 - 1 >= nu_2 >= ... >= nu_rows >= 0.
    Unsatisfiable when lam has fewer than `rows` parts."""
    padded = list(lam) + [0] * (rows - len(lam))

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if i == rows:
            if remaining == 0:
                yield tuple(x for x in prefix if x)
            return
        hi = min(padded[i] - 1, remaining)
        lo = max(padded[i + 1] - 1, 0) if i + 1 < rows else 0
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    yield from rec(0, target, ())


def quantum_pieri(p: int, lam: Partition, space: Grassmannian) -> QuantumClass:
    """Quantum product of the special class s[p] (a single row) with s[lam],
    computed directly from the Pieri rule: the classical part adds a
    horizontal p-strip inside the box, and the q part collects the shapes
    of weight |lam| + p - n interlacing lam shifted down by one."""
    require_type_a(space)
    if not 1 <= p <= space.box_cols:
        raise ValueError(f"row length {p} out of range 1..{space.box_cols} for {space.notation}")
    space.require_in_box(lam)
    terms: dict[tuple[int, Partition], int] = {}
    target = weight(lam) + p
    for mu in space.basis():
        if weight(mu) == target and is_horizontal_strip(lam, mu):
            terms[(0, mu)] = 1
    q_weight = target - space.n
    if q_weight >= 0:
        for nu in _pieri_quantum_shapes(lam, space.m, q_weight):
            terms[(1, nu)] = 1
    return QuantumClass(space, terms)


def clear_cache() -> None:
    _product_terms.cache_clear()


__all__ = [
    "QuantumClass",
    "ReductionOutcome",
    "classical_structure_constants",
    "clear_cache",
    "format_terms",
    "quantum_pieri",
    "quantum_product",
    "remove_rim_hook",
    "removable_hooks",
    "rim_hook_reduce",
]
