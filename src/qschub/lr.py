"""Littlewood-Richardson coefficients, built strip by strip.

This is the classical substrate for the quantum product and the brute-force
oracle for every product identity in the test suites.  The coefficient
c^nu_{lam,mu} counts the semistandard fillings of the skew shape nu/lam with
content mu whose reverse reading word (right to left, top to bottom) is a
lattice word.  Such a filling is grown from lam one letter at a time: the
mu_i cells holding i form a horizontal strip added to the shape filled so
far, and the reading word stays lattice exactly when, for every row r, the
i's in rows <= r number at most the (i-1)'s in rows < r.  Fillings that
agree on the current shape and on where the last strip went have the same
continuations, so they are merged and counted together; one pass over mu
yields every outer shape nu with its coefficient.  The strips are grown
with an explicit stack, so no call depth follows the rows of the box.
"""

from .partitions import Partition, contains, weight
from .spaces import Grassmannian

LRExpansion = dict[Partition, int]


def _lr_expand(lam: Partition, mu: Partition, bound: Partition) -> LRExpansion:
    """The LR fillings of content mu on top of lam, counted by outer shape,
    for the shapes with at most len(bound) rows whose row r is at most
    bound[r] long.  Each row of lam must fit its bound.

    A state is the shape so far, padded to len(bound) rows, and its ceiling:
    the last letter's cells above each row r, which cap the next letter's
    cells in rows 0..r.  Each letter's horizontal strips are grown depth
    first, longer rows first, from a stack of (row, cells placed, grown
    rows, cells above each row)."""
    rows = len(bound)
    if len(lam) > rows:
        return {}
    start = lam + (0,) * (rows - len(lam))
    # the first letter has no lattice condition: let it fill any row
    states = {(start, (weight(mu),) * rows): 1}
    for size in mu:
        grown_states: dict[tuple[Partition, Partition], int] = {}
        for (shape, ceiling), count in states.items():
            stack = [(0, 0, (), ())]
            while stack:
                r, placed, grown, above = stack.pop()
                if placed == size:
                    key = (grown + shape[r:], above + (size,) * (rows - r))
                    grown_states[key] = grown_states.get(key, 0) + count
                elif r < rows:
                    row = shape[r]
                    room = min(bound[r], shape[r - 1] if r else bound[r]) - row
                    for k in range(min(room, size - placed, ceiling[r] - placed) + 1):
                        stack.append((r + 1, placed + k, grown + (row + k,), above + (placed,)))
        states = grown_states
    out: LRExpansion = {}
    for (shape, _), count in states.items():
        nu = tuple(x for x in shape if x)
        out[nu] = out.get(nu, 0) + count
    return out


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Zero unless lam fits inside nu and |nu| = |lam| + |mu|; otherwise the
    count of lattice semistandard skew tableaux of shape nu/lam and content
    mu (rows weakly increase, columns strictly increase, and every prefix of
    the reverse reading word contains at least as many i's as (i+1)'s).
    """
    if weight(nu) != weight(lam) + weight(mu) or not contains(nu, lam):
        return 0
    return _lr_expand(lam, mu, nu).get(nu, 0)


def schur_product(lam: Partition, mu: Partition, max_rows: int) -> LRExpansion:
    """Expansion of the product of two Schur functions in the Schur basis,
    truncated to partitions with at most max_rows rows."""
    return _lr_expand(lam, mu, (weight(lam) + weight(mu),) * max_rows)


def classical_structure_constants(
    space: Grassmannian, lam: Partition, mu: Partition
) -> LRExpansion:
    """schur_product restricted to the Schubert basis of the space: only
    partitions inside the m x (n-m) box survive."""
    space.require_in_box(lam, mu)
    return _lr_expand(lam, mu, (space.box_cols,) * space.m)
