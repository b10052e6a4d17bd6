"""Brute-force oracles, kept independent of the library implementations.

Schur polynomials are expanded into monomials by enumerating semistandard
fillings of the straight shape (no skew shapes, no lattice words), products
are multiplied as plain polynomials, and the result is re-expanded in the
Schur basis by repeatedly subtracting the Schur polynomial of the leading
exponent.  This exercises none of the code paths in qschub.lr.

Rim-hook reduction is checked against a cell-by-cell search: hook lengths
are read off the Young diagram, strips are peeled one at a time, and every
removal order is tried.  This shares nothing with the library's abacus.

The shapes of a box are listed from multisets of row lengths and put in the
basis order by one global sort, not weight by weight.

Quantum Pieri products keep, from every shape of the box of the right
weight, those the cell-by-cell strip test accepts, with no strip bounds.

The plane counts N_d are recomputed by the textbook Kontsevich recursion,
one math.comb call per term and every ordered split a + b = d, with no row
of binomials and no pairing of a with b.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb


def box_oracle(rows, cols):
    """Every partition in the rows x cols box, sorted by weight and then with
    larger leading parts first."""
    shapes = [
        tuple(x for x in reversed(parts) if x)
        for parts in combinations_with_replacement(range(cols + 1), rows)
    ]
    return sorted(shapes, key=lambda p: (sum(p), tuple(-x for x in p)))


def schur_monomials(shape, nvars):
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_nvars) as
    a map exponent-tuple -> coefficient, via semistandard fillings."""
    shape = tuple(shape)
    if len(shape) > nvars:
        return {}
    if not shape:
        return {(0,) * nvars: 1}
    result = Counter()
    rows = len(shape)
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    grid = [[0] * shape[r] for r in range(rows)]

    def fill(t):
        if t == len(cells):
            content = [0] * nvars
            for r in range(rows):
                for c in range(shape[r]):
                    content[grid[r][c] - 1] += 1
            result[tuple(content)] += 1
            return
        r, c = cells[t]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])  # rows weakly increase
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)  # columns strictly increase
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            fill(t + 1)
        grid[r][c] = 0

    fill(0)
    return dict(result)


def poly_multiply(p1, p2):
    out = Counter()
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            out[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return dict(out)


def expand_in_schur_basis(poly, nvars):
    """Write a symmetric polynomial (monomial map) as a sum of Schur
    polynomials by elimination of lexicographically leading exponents."""
    poly = {e: c for e, c in poly.items() if c}
    out = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        assert all(a >= b for a, b in zip(lead, lead[1:])), (
            f"leading exponent {lead} is not a partition; input was not symmetric"
        )
        shape = tuple(x for x in lead if x)
        out[shape] = coeff
        for e, c in schur_monomials(shape, nvars).items():
            poly[e] = poly.get(e, 0) - coeff * c
        poly = {e: c for e, c in poly.items() if c}
    return out


def schur_product_oracle(lam, mu):
    """The full Littlewood-Richardson expansion of s_lam * s_mu."""
    nvars = max(1, len(lam) + len(mu))
    prod = poly_multiply(schur_monomials(lam, nvars), schur_monomials(mu, nvars))
    return expand_in_schur_basis(prod, nvars)


def lr_coefficient_oracle(lam, mu, nu):
    return schur_product_oracle(lam, mu).get(tuple(nu), 0)


def horizontal_strip_oracle(inner, outer):
    """Containment plus at-most-one-box-per-column, checked cell by cell."""
    inner = tuple(inner)
    outer = tuple(outer)
    get = lambda p, i: p[i] if i < len(p) else 0
    rows = max(len(inner), len(outer))
    if any(get(inner, r) > get(outer, r) for r in range(rows)):
        return False
    width = get(outer, 0)
    for col in range(width):
        boxes = sum(
            1
            for r in range(rows)
            if get(inner, r) <= col < get(outer, r)
        )
        if boxes > 1:
            return False
    return True


def quantum_pieri_oracle(p, lam, m, n):
    """s[p] * s[lam] on G(m, n) by Bertram's rule as {(q power, shape): 1}:
    each box shape mu of weight |lam| + p with mu/lam a horizontal strip,
    then, when lam has m rows, each nu of weight |lam| + p - n with
    (lam - 1^m)/nu one, both in box_oracle's order."""
    target = sum(lam) + p
    shapes = box_oracle(m, n - m)
    terms = {(0, mu): 1 for mu in shapes
             if sum(mu) == target and horizontal_strip_oracle(lam, mu)}
    if len(lam) == m:
        shifted = tuple(x - 1 for x in lam)
        terms.update(((1, nu), 1) for nu in shapes
                     if sum(nu) == target - n and horizontal_strip_oracle(nu, shifted))
    return terms


def removable_hooks(nu, strip_size):
    """Cells (row, col) of nu, 0-indexed, whose hook length equals
    strip_size.  Each names one removable border strip of that many cells;
    the strip's head sits at the end of `row`.  At most one cell per row
    qualifies, and the list is ordered by row."""
    columns = [sum(1 for x in nu if x > j) for j in range(nu[0] if nu else 0)]
    return [
        (i, j)
        for i, row_len in enumerate(nu)
        for j in range(row_len)
        if (row_len - j) + (columns[j] - i) - 1 == strip_size
    ]


def remove_rim_hook(nu, cell):
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


@lru_cache(maxsize=None)
def rim_hook_outcomes(nu, n, m):
    """Every (q_power, sign, core) reached by peeling n-rim-hooks off nu in
    every possible order until none is left; a strip occupying h rows
    contributes (-1)**(m - h)."""
    hooks = removable_hooks(nu, n)
    if not hooks:
        return frozenset({(0, 1, nu)})
    out = set()
    for cell in hooks:
        smaller, height = remove_rim_hook(nu, cell)
        step_sign = -1 if (m - height) % 2 else 1
        for d, sign, core in rim_hook_outcomes(smaller, n, m):
            out.add((d + 1, sign * step_sign, core))
    return frozenset(out)


def rim_hook_reduce_oracle(nu, m, n):
    """(q_power, sign, core) of nu reduced modulo n-rim-hooks for G(m, n), or
    None when the core leaves the m x (n-m) box.  Asserts that every removal
    order ends in the same place."""
    outcomes = rim_hook_outcomes(tuple(nu), n, m)
    assert len(outcomes) == 1, f"{nu} reduces to {sorted(outcomes)}"
    d, sign, core = next(iter(outcomes))
    if len(core) > m or (core and core[0] > n - m):
        return None
    return d, sign, core


@lru_cache(maxsize=None)
def nd_oracle(d):
    """N_d by the per-term recursion from N_1 = 1:
    N_d = sum over a + b = d of N_a N_b a^2 b (b C(3d-4, 3a-2) - a C(3d-4, 3a-1))."""
    if d == 1:
        return 1
    return sum(
        nd_oracle(a) * nd_oracle(d - a) * a * a * (d - a)
        * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
        for a in range(1, d)
    )
