"""Integer partitions in canonical form.

A partition is a tuple of weakly decreasing positive integers; the empty
tuple is the empty partition (the index of the fundamental class).  No
zeros are ever stored, so equality and hashing are plain tuple semantics.
The text form is a comma list like "2,1", with "0" denoting the empty
partition; parse_partition is the one place such text is validated.  One
generator, partitions_of_weight, enumerates shapes: enumerate_box lists a
box weight by weight from it.
"""

from collections import Counter
from collections.abc import Iterator

from .errors import BoxError

Partition = tuple[int, ...]

EMPTY: Partition = ()


def parse_partition(text: str) -> Partition:
    """Parse the comma form "a,b,c"; a bare "0" is the empty partition."""
    body = text.strip()
    if body == "0":
        return EMPTY
    try:
        parts = tuple(int(piece) for piece in body.split(","))
    except ValueError:
        raise ValueError(f"bad partition syntax: {text!r}") from None
    if any(x < 1 for x in parts):
        raise ValueError(f"bad partition syntax: {text!r} (parts must be positive)")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"bad partition syntax: {text!r} (parts must be weakly decreasing)")
    return parts


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def weight(p: Partition) -> int:
    """Total number of boxes; the codimension of the indexed Schubert class."""
    return sum(p)


def part(p: Partition, i: int) -> int:
    """The i-th part (0-indexed), reading zeros past the end."""
    return p[i] if 0 <= i < len(p) else 0


def fits_in_box(p: Partition, rows: int, cols: int) -> bool:
    """True iff p has at most `rows` parts, each at most `cols`."""
    return len(p) <= rows and (not p or p[0] <= cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """Containment of Young diagrams: inner_i <= outer_i for all i."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not p:
        return EMPTY
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def is_horizontal_strip(inner: Partition, outer: Partition) -> bool:
    """True iff outer/inner is a horizontal strip: outer contains inner and
    the skew diagram has at most one box per column, i.e.
    outer_i >= inner_i >= outer_{i+1} for all i."""
    if len(inner) > len(outer):
        return False
    return all(
        outer[i] >= part(inner, i) >= part(outer, i + 1) for i in range(len(outer))
    )


def dual_in_box(p: Partition, rows: int, cols: int) -> Partition:
    """The 180-degree rotated complement inside the rows x cols box; the
    index of the Poincare dual Schubert class.  Involution on the box."""
    if not fits_in_box(p, rows, cols):
        raise BoxError(f"partition {format_partition(p)} does not fit a {rows}x{cols} box")
    return box_complement(p, rows, cols)


def box_complement(p: Partition, rows: int, cols: int) -> Partition:
    """dual_in_box without its box check, for a p known to fit: each missing
    row becomes a full row of cols, then each row x, bottom up, becomes
    cols - x unless that is 0."""
    full = (cols,) * (rows - len(p)) if cols else ()
    return full + tuple(cols - x for x in reversed(p) if x != cols)


def enumerate_box(rows: int, cols: int) -> list[Partition]:
    """All C(rows+cols, rows) partitions fitting in the rows x cols box,
    weight by weight, each weight's shapes in partitions_of_weight's order
    (larger leading parts first, so the 2x2 box reads 0, 1, 2, 1,1, 2,1, 2,2)."""
    return [p for w in range(rows * cols + 1) for p in partitions_of_weight(w, rows, cols)]


def partitions_of_weight(n: int, max_rows: int, max_part: int) -> Iterator[Partition]:
    """All partitions of n with at most max_rows parts, each at most max_part,
    in decreasing lexicographic order."""
    parts: list[int] = []  # shared by the stack; parts[0] = max_part caps the first part
    stack = [(0, max_part, n, max_rows)]  # (index, part, weight left, rows left)
    while stack:
        depth, part, rest, rows = stack.pop()
        del parts[depth:]
        parts.append(part)
        if rest == 0:
            yield tuple(parts[1:])
        elif rows > 0:
            # smallest first, so the largest pops first; each leaves the rest room below
            for first in range(max(1, -(-rest // rows)), min(rest, part) + 1):
                stack.append((depth + 1, first, rest - first, rows - 1))


def is_k_strict(p: Partition, k: int) -> bool:
    """True iff no part greater than k is repeated."""
    return all(mult == 1 for value, mult in Counter(p).items() if value > k)
