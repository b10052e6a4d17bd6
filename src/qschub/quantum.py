"""The small quantum cohomology ring of an ordinary Grassmannian.

Products of Schubert classes are computed by reducing the classical
Littlewood-Richardson expansion modulo n-rim-hooks (Bertram, Ciocan-Fontanine
and Fulton): every border strip of exactly n cells removed from an index
partition contributes one power of q and a sign (-1)**(m - height).  On an
n-runner abacus of the m beta-numbers nu_i + m - i, removing a strip moves
one bead n places up its runner, so the whole reduction is read off in
closed form: each bead drops to its residue mod n.  An expansion term whose
n-core does not fit the m x (n-m) box, i.e. two beads share a runner,
contributes nothing.  That path serves single products (quantum_product,
behind one memo cache).  Whole tables come from Bertram's quantum Pieri
rule instead (product_table): s[p] * s[lam] is s[mu] summed over mu/lam a
horizontal p-strip in the box, plus q times s[nu] summed over (lam - 1^m)/nu
a horizontal strip of size n - m - p, every coefficient 1.  Each list is
built straight from its strip bounds, lam_i <= mu_i <= min(lam_(i-1), n - m)
and lam_(i+1) - 1 <= nu_i <= lam_i - 1, in basis order.  Each row is built
from Pieri steps alone, which is cheap for a whole row but pulls in most of
a row for one product.  The table numbers the basis once and writes the
term q**d * s[p] as the int d * (basis size) + (p's index), so its inner
loops add and hash ints, and each entry lists its terms in ascending order;
each row computes only the products with classes at or after its own in
basis order, and takes the rest from the rows before it, since products
commute.  Rows are yielded one at a time so that a table is rendered as it
is built.  The two paths share no code, and selfcheck compares them on
every pair it visits.

A single product is read from the product of the lightest classes of its
factors' Seidel orbits.  Quantum Pieri gives s[n-m] * s[lam] a single term,
q**e s[S lam], and on lam's beads S is b -> b - 1 mod n; S generates a Z/n
action (Agnihotri-Woodward; Postnikov), and since s[n-m] is invertible,
s[S**i lam] * s[S**j mu] has the terms of s[lam] * s[mu] with S**(i+j)
applied to each partition, every coefficient kept, every q power fixed by
the weights.  The lightest class of an orbit has a bead at 0, so it is
found in closed form among the m rotations that put one of lam's beads
there; it is often far lighter than lam (the point class is in the unit's
orbit), and all the products of two orbits share one LR expansion.

A product of the lightest classes on a tall space (m > n - m) is computed on
G(n - m, n), with the partitions conjugated: s[p] -> s[p'] with q fixed maps
the ring of G(m, n) onto that of G(n - m, n), and the LR expansion grows
with the rows of the box.  The expansion grows one letter per row of its
content, the second factor of schur_product, so the factor of fewer rows
(after the conjugation), then the lighter, is the content.

Products commute, so s[lam] * s[mu] and s[mu] * s[lam] are one cached
record, and _product_terms alone knows its order and format: a record is
read in either order and box-checked in the order given, where it is built,
and nowhere else on the product path.  Readers pass their pair as they have
it.  Whether a class fits the box depends only on the class and the space,
both part of the cache key, so every cached key is in the box: a warm
quantum_product or class product makes no check at all, and a pair out of
the box never gets a record, so it raises on every call, warm or cold.  A
class product reads many pairs, so on that raise QuantumClass.__mul__ checks
its terms again, the left factor's before the right's.  Invariants check all
their classes in one call (gromov_witten.gw_spoint), since the dual class
and the N_d route never reach a record.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import BoxError, UnsupportedFamilyError
from .lr import schur_product
from .partitions import (
    Partition, box_complement, conjugate, format_partition, weight,
)
from .spaces import Grassmannian


class ReductionOutcome(namedtuple("ReductionOutcome", "q_power sign core")):
    """A completed rim-hook reduction: q_power strips were removed with the
    given total sign, leaving the core partition (which fits the box).
    A reduction whose core leaves the box is reported as None instead."""

    __slots__ = ()


def _reduction_sign(m: int, q_power: int, passes: int) -> int:
    """The total sign of q_power strip removals.  Each strip contributes
    (-1)**(m - height), and its height - 1 is the number of beads its bead
    move passes; `passes` is that number summed over the moves (mod 2)."""
    return -1 if (q_power * (m - 1) + passes) % 2 else 1


def _beta_numbers(nu: Partition, m: int) -> list[int]:
    """nu's m beta-numbers nu_i + m - i (i = 1..m), decreasing: the beads of
    its abacus."""
    return [part + m - 1 - i for i, part in enumerate(nu + (0,) * (m - len(nu)))]


def _from_beads(beads: Iterable[int]) -> Partition:
    """The partition whose beta-numbers are the distinct `beads`: with them
    ascending, bead b_i sits on the part b_i - i."""
    parts = [b - i for i, b in enumerate(sorted(beads)) if b != i]
    parts.reverse()
    return tuple(parts)


def rim_hook_reduce(nu: Partition, space: Grassmannian) -> ReductionOutcome | None:
    """Reduce nu modulo n-rim-hooks for the given G(m, n).

    With beta_i = nu_i + m - i (i = 1..m) and r_i = beta_i mod n, the
    reduction removes q = sum(beta_i div n) strips, the core has parts
    r_(i) - (m - i) for the r_i sorted decreasingly, and the bead moves pass
    as many beads, mod 2, as there are pairs i < j with r_i < r_j.  Returns
    None when two r_i coincide: the n-core does not fit the m x (n-m) box and
    the term dies in the quantum ring.
    """
    space.require_in_box()  # the family alone
    m, n = space.m, space.n
    if len(nu) > m:
        raise BoxError(f"partition {format_partition(nu)} has more than {m} rows")
    beta = _beta_numbers(nu, m)
    runners = [b % n for b in beta]
    if len(set(runners)) < m:
        return None
    q_power = sum(b // n for b in beta)
    passes = sum(r < s for i, r in enumerate(runners) for s in runners[i + 1:])
    return ReductionOutcome(q_power, _reduction_sign(m, q_power, passes), _from_beads(runners))


class QuantumClass:
    """An element of the quantum cohomology ring: an integer combination of
    pairs (q_power, partition in the box).  Zero coefficients are never
    stored.  Classes compare by space and terms, and are not hashable.
    Slotted: a class holds its space and its terms dict, nothing else."""

    __slots__ = ("space", "terms")

    def __init__(self, space: Grassmannian, terms: dict[tuple[int, Partition], int] | None = None):
        self.space = space
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.terms) == (other.space, other.terms)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(space={self.space!r}, terms={self.terms!r})"

    @classmethod
    def _nonzero(cls, space: Grassmannian, terms: dict) -> "QuantumClass":
        """A class that takes terms known to hold no zero coefficient as
        they are, without __init__'s filter."""
        self = object.__new__(cls)
        self.space, self.terms = space, terms
        return self

    @classmethod
    def from_partition(cls, space: Grassmannian, p: Partition) -> "QuantumClass":
        space.require_in_box(p)
        return cls._nonzero(space, {(0, p): 1})

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

    def __add__(self, other):
        if not isinstance(other, QuantumClass):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("cannot add classes on different spaces")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return QuantumClass(self.space, merged)

    def __mul__(self, other):
        """The product with an integer or with another class.  Each pair of
        terms reads the Schubert product _product_terms caches, in the
        order the terms come, with no QuantumClass built per pair.  A term
        out of the box raises where its record would be built (a cached
        record is always of classes in the box); the terms are then checked
        in order, the left factor's then the right's, so the error names the
        first of them out of the box, whichever pair was read first.  A pair
        with no q shift adds the record's own keys, the first pair (scale 1,
        no shift) is copied whole, and zeros are dropped only if some sum
        reached 0."""
        if isinstance(other, int):
            return QuantumClass(self.space, {k: other * c for k, c in self.terms.items()})
        if not isinstance(other, QuantumClass):
            return NotImplemented
        space = self.space
        if space != other.space:
            raise ValueError("cannot multiply classes on different spaces")
        out: dict[tuple[int, Partition], int] = {}
        cancelled = False
        try:
            for (d1, p1), c1 in self.terms.items():
                for (d2, p2), c2 in other.terms.items():
                    shift, scale = d1 + d2, c1 * c2
                    record = _product_terms(p1, p2, space)
                    if shift:
                        for (d, p), c in record.items():
                            key = (d + shift, p)
                            total = out[key] = out.get(key, 0) + scale * c
                            if not total:
                                cancelled = True
                    elif scale == 1 and not out:
                        out.update(record)
                    else:
                        for key, c in record.items():
                            total = out[key] = out.get(key, 0) + scale * c
                            if not total:
                                cancelled = True
        except (BoxError, UnsupportedFamilyError):
            space.require_in_box(*[p for _, p in self.terms], *[p for _, p in other.terms])
            raise
        if cancelled:
            out = {key: c for key, c in out.items() if c}
        return QuantumClass._nonzero(space, out)

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


def _lightest(lam: Partition, m: int, n: int) -> tuple[Partition, int]:
    """The lightest class in lam's Seidel orbit, and the number of steps of
    S (every bead b to b - 1 mod n) that reach it.  The lightest class has
    a bead at 0, so it is S**b lam for one of lam's beads b; with the beads
    ascending, b_0 < ... < b_(m-1), |S**(b_k) lam| - |lam| = n k - m b_k,
    since the k beads below b_k wrap past 0 and gain n each.  A tie (only
    when m and n share a factor) goes to the least class in tuple order,
    then the fewest steps, so every class of an orbit picks the same one."""
    beads = _beta_numbers(lam, m)
    beads.reverse()
    gains = [n * k - m * b for k, b in enumerate(beads)]
    low = min(gains)
    steps = [b for b, gain in zip(beads, gains) if gain == low]
    if steps == [0]:
        return lam, 0
    return min((_from_beads([(b - step) % n for b in beads]), step) for step in steps)


@lru_cache(maxsize=1 << 16)
def _product_terms(lam: Partition, mu: Partition, space: Grassmannian):
    """s[lam] * s[mu] as {(q power, partition): nonzero coefficient}, keys
    sorted: the cached record itself, which callers read and never change.
    This is the one place a record is built.  The pair is read in either
    order and box-checked in the order given, before anything else: the
    check depends only on the pair and the space, both in the cache key, so
    every cached key is in the box and a hit needs no check, while a pair
    out of the box never gets a record and raises on every call.  With mu
    before lam in tuple order, the record is the very dict of (mu, lam),
    with no second expansion.  Unless lam and mu are the lightest classes of
    their Seidel orbits, the record is the one of that lightest pair, each
    term rotated back (see the module docstring).  The lightest pair itself
    is expanded: on a tall space as s[lam'] * s[mu'] on G(n - m, n),
    conjugated back, and either way with the factor of fewer rows, then the
    lighter, as the LR content."""
    space.require_in_box(lam, mu)
    if mu < lam:
        return _product_terms(mu, lam, space)
    _, m, n = space
    a, i = _lightest(lam, m, n)
    b, j = _lightest(mu, m, n)
    if (a, b) != (lam, mu):
        total = weight(lam) + weight(mu)
        terms = {}
        for (_, nu), c in _product_terms(a, b, space).items():
            p = _from_beads([(beta + i + j) % n for beta in _beta_numbers(nu, m)])
            d, rest = divmod(total - weight(p), n)
            if rest or d < 0:
                raise RuntimeError(f"Seidel relabel of s[{format_partition(nu)}] gave q power "
                                   f"{total - weight(p)}/{n}; this is a bug")
            terms[(d, p)] = c
        return dict(sorted(terms.items()))
    if 2 * m > n:
        short = _reduced_terms(*_content_last(conjugate(lam), conjugate(mu)),
                               Grassmannian("A", n - m, n))
        return dict(sorted(((d, conjugate(p)), c) for (d, p), c in short.items()))
    return dict(sorted(_reduced_terms(*_content_last(lam, mu), space).items()))


def _content_last(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """The pair with the factor of fewer rows second, where schur_product
    takes its content; on equal rows the lighter one, then mu."""
    if (len(lam), weight(lam)) < (len(mu), weight(mu)):
        return mu, lam
    return lam, mu


def _reduced_terms(lam: Partition, mu: Partition, space: Grassmannian):
    """The LR expansion of s[lam] * s[mu] reduced mod n-rim-hooks, as
    {(q power, core): nonzero coefficient}."""
    terms: dict[tuple[int, Partition], int] = {}
    for nu, coeff in schur_product(lam, mu, space.m).items():
        reduced = rim_hook_reduce(nu, space)
        if reduced is None:
            continue
        key = (reduced.q_power, reduced.core)
        terms[key] = terms.get(key, 0) + coeff * reduced.sign
    return {key: c for key, c in terms.items() if c}


def quantum_product(lam: Partition, mu: Partition, space: Grassmannian) -> QuantumClass:
    """The quantum product of two Schubert classes, via rim-hook reduction
    of the classical expansion.  All surviving coefficients are genus-zero
    three-point Gromov-Witten invariants, hence positive.  For a whole
    multiplication table use product_table, the Pieri path that checks
    this one.  The record is read in either order and box-checked in the
    order given, where it is built: a warm product checks nothing, and the
    error names lam when both are out of the box."""
    return QuantumClass._nonzero(space, dict(_product_terms(lam, mu, space)))


def _structure_constant(space: Grassmannian, a: Partition, b: Partition, c: Partition,
                        d: int) -> int:
    """The coefficient of q**d s[dual(c)] in s[a] * s[b], read from their
    product record in either order.  The dual is flipped without a box check
    of c, which the caller has made, and the weights are not tested."""
    _, m, n = space
    return _product_terms(a, b, space).get((d, box_complement(c, m, n - m)), 0)


def _shapes_between(lo: list[int], hi: list[int], total: int) -> Iterator[Partition]:
    """Every x of weight `total` with lo_i <= x_i <= hi_i in each row, in
    partitions_of_weight's order (decreasing lexicographic), trailing zero
    rows dropped.  The bounds interlace, hi_(i+1) <= lo_i, so each x is a
    partition.  The first x fills each row in turn; the next takes one cell
    from the last row whose rows below have room for it, then fills those
    rows again.  A loop, not a recursion: a deep box has thousands of rows."""
    free = [i for i, (a, b) in enumerate(zip(lo, hi)) if a < b]
    end = len(hi)
    while end and not hi[end - 1]:
        end -= 1  # rows that stay empty
    x = list(lo)
    k, left = -1, total - sum(lo)
    if left < 0:
        return
    while True:
        for i in free[k + 1:]:
            x[i] = lo[i] + (take := min(hi[i] - lo[i], left))
            left -= take
        if left:
            return  # only on the first fill: the rows cannot hold total
        size = end
        while size and not x[size - 1]:
            size -= 1
        yield tuple(x[:size])
        below = room = 0  # cells past lo, and room left, in the free rows after k
        for k in range(len(free) - 1, -1, -1):
            i = free[k]
            if room and x[i] > lo[i]:
                break
            below += x[i] - lo[i]
            room += hi[i] - x[i]
        else:
            return
        x[i] -= 1
        left = below + 1


def _pieri_classical_shapes(lam: Partition, rows: int, cols: int,
                            target: int) -> Iterator[Partition]:
    """The shapes of the classical half of Bertram's rule: mu of weight
    `target` with mu/lam a horizontal strip in the rows x cols box, i.e.
    lam_i <= mu_i <= min(lam_(i-1), cols) with lam_0 read as cols; no row
    past row len(lam) + 1 can grow."""
    depth = min(len(lam) + 1, rows)
    lo = list(lam[:depth]) + [0] * (depth - len(lam))
    hi = [cols] + [min(x, cols) for x in lam[:depth - 1]]
    return _shapes_between(lo, hi, target)


def _pieri_quantum_shapes(lam: Partition, rows: int, target: int) -> Iterator[Partition]:
    """The shapes of the q half of Bertram's rule: nu of weight `target`
    with (lam - 1^rows)/nu a horizontal strip, i.e. lam_(i+1) - 1 <= nu_i <=
    lam_i - 1, with lam_(rows+1) - 1 read as 0.  There are none when lam
    has fewer than `rows` parts."""
    if len(lam) < rows:
        return iter(())
    return _shapes_between([x - 1 for x in lam[1:rows]] + [0], [x - 1 for x in lam[:rows]], target)


def quantum_pieri(p: int, lam: Partition, space: Grassmannian) -> QuantumClass:
    """Quantum product of the special class s[p] (a single row) with s[lam]
    by Bertram's rule, two lists of horizontal strips with coefficient 1:
    s[mu] for mu/lam a horizontal p-strip inside the box, plus q * s[nu] for
    (lam - 1^m)/nu a horizontal strip, nu of weight |lam| + p - n.  Each
    list is built from its strip bounds, in basis order."""
    if not 1 <= p <= space.box_cols:
        raise ValueError(f"row length {p} out of range 1..{space.box_cols} for {space.notation}")
    space.require_in_box(lam)
    _, m, n = space
    target = weight(lam) + p
    terms = {(0, mu): 1 for mu in _pieri_classical_shapes(lam, m, n - m, target)}
    if target >= n:
        terms.update(((1, nu), 1) for nu in _pieri_quantum_shapes(lam, m, target - n))
    return QuantumClass._nonzero(space, terms)


def indexed_table(space: Grassmannian) -> tuple[
    list[tuple[int, Partition]], Iterator[tuple[int, dict[int, dict[int, int]]]]
]:
    """Every product s[lam] * s[mu] of two basis classes, on basis indices,
    as (keys, rows).  The basis is numbered once, in partition order, and the
    term q**d * s[p] is the int t = d * size + (p's index), with size the
    basis size: keys[t] is (d, p), and the ints sort as those pairs do.  A
    class's index is its q**0 term, so keys[j] is (0, the class).  rows
    yields one (lam's index, {mu's index: {t: nonzero coefficient}}) per
    basis class lam, lam and the mu of each row in basis order, and each
    entry's terms t ascending, the order in which they print.  Off the
    diagonal, an entry is the very dict that the other row holds for the
    same unordered pair, so it is sorted once, and callers read entries and
    never change them.

    The rows come from quantum Pieri alone (Bertram).  With mu = (a, rest),
    Pieri gives s[a] * s[rest] = s[mu] + (classes of the same weight with
    first row > a) + q * (classes of lower weight), so with mu by weight,
    then by first row descending, the entry for mu is s[a] * (s[lam] *
    s[rest]) minus s[lam] times the other terms of s[a] * s[rest].  Every
    Pieri coefficient is 1, so each Pieri product is memoized as the tuple
    of its term ints, read from quantum_pieri's two shape lists with no
    QuantumClass and no box check.  Products commute, so row lam computes
    only the mu at or after lam in basis order; the entry it computes for a
    later mu waits in a store until row mu starts, where it is the entry for
    lam.  When the k-th row (from 0) starts, the store holds k * (size - k)
    entries, at most a quarter of the table.  The memo and the store live and die with
    one call.  It runs neither LR nor rim-hook reduction, so it and
    quantum_product check each other."""
    m, n = space.m, space.n
    basis = space.basis()  # by weight, then by first row descending
    names = sorted(basis)
    # weight(nu) + d * n = |lam| + |mu| <= 2 m (n - m) bounds every q power
    keys = [(d, p) for d in range(2 * m * (n - m) // n + 1) for p in names]
    return keys, _indexed_rows(space, basis, names)


def _indexed_rows(space, basis, names):
    _, m, n = space
    size = len(names)
    index = {p: j for j, p in enumerate(names)}
    memo = [[None] * size for _ in range(n - m + 1)]  # memo[a][j]: s[a] * s[names[j]]

    def pieri(a: int, j: int) -> tuple[int, ...]:
        """s[a] * s[names[j]] as quantum_pieri's terms, each as its int."""
        lam = names[j]
        target = weight(lam) + a
        found = [index[mu] for mu in _pieri_classical_shapes(lam, m, n - m, target)]
        if target >= n:
            found += [size + index[nu] for nu in _pieri_quantum_shapes(lam, m, target - n)]
        found = memo[a][j] = tuple(found)
        return found

    # for each mu past the unit: its index, a, the memo of s[a], rest's index,
    # and (q power * size, index) for each other term of s[a] * s[rest]
    steps = []
    for mu in basis[1:]:
        own, a, rest = index[mu], mu[0], index[mu[1:]]
        others = tuple((t - t % size, t % size) for t in pieri(a, rest) if t != own)
        steps.append((own, a, memo[a], rest, others))
    unit = index[()]
    pending: list = [{} for _ in names]  # pending[j]: row j's entries from earlier rows
    pending[unit][unit] = {unit: 1}
    for i, lam in enumerate(basis):
        j = index[lam]
        row, pending[j] = pending[j], None
        for own, a, memo_a, rest, others in steps[max(i - 1, 0):]:
            terms: dict[int, int] = {}
            for t, c in row[rest].items():
                k = t % size
                products = memo_a[k]
                if products is None:
                    products = pieri(a, k)
                for p in products:
                    key = t - k + p
                    terms[key] = terms.get(key, 0) + c
            for shift, k in others:
                for t, c in row[k].items():
                    key = t + shift
                    terms[key] = terms.get(key, 0) - c
            row[own] = entry = {t: c for t in sorted(terms) if (c := terms[t])}
            if own != j:
                pending[own][j] = entry
        yield j, row


def product_table(
    space: Grassmannian,
) -> Iterator[tuple[Partition, dict[Partition, dict[tuple[int, Partition], int]]]]:
    """Every product s[lam] * s[mu] of two basis classes, from quantum Pieri
    alone, as one row (lam, {mu: terms}) per basis class lam.  Rows and the
    mu of each row come in basis order; terms maps (q power, partition) to a
    nonzero coefficient.  It decodes indexed_table's rows one at a time, so
    every yielded dict is new and the caller may keep or change it."""
    keys, rows = indexed_table(space)
    for j, row in rows:
        yield keys[j][1], {
            keys[k][1]: {keys[t]: c for t, c in terms.items()} for k, terms in row.items()
        }


def clear_cache() -> None:
    _product_terms.cache_clear()


__all__ = [
    "QuantumClass",
    "ReductionOutcome",
    "clear_cache",
    "format_terms",
    "indexed_table",
    "product_table",
    "quantum_pieri",
    "quantum_product",
    "rim_hook_reduce",
]
