"""Built-in invariant suites.

Every suite sweeps an identity that must hold exactly: ring axioms of the
quantum product, positivity and grading of its structure constants,
agreement of the rim-hook and Pieri paths, order-independence of rim-hook
removal (every order of bead moves on the abacus, against the closed form),
Poincare pairing, symmetry and the divisor rule for invariants,
and the plane-count cross checks.  The suites over pairs of basis classes
(unit, commutativity, grading, positivity, classical_layer, dual_path,
poincare_pairing) share one sweep, check_products, which looks each pair's
product and LR expansion up once; dual_path compares every pair with the
space's Pieri-built product_table and every single-row product with
quantum_pieri.  Both orders of a product read one cached record, so
commutativity compares the pair's rim-hook reduction, quantum._reduced_terms,
with that of the pair in the other order: the LR route with the factors'
roles swapped, which the record (built with the factor of fewer rows as the
content) never runs.  The suites over ordered triples (associativity,
gw_symmetry) share another, check_triples.
Grading reads quantum_product's terms.  quantum_product reads the product
of the lightest classes of the two Seidel orbits, which on the quick
spaces removes no rim hook with q > 0, so positivity reads the reduction of
the pair itself, quantum._reduced_terms, and dual_path compares it with the
product and with the Pieri row: a slip in the rim-hook sign or in the
Seidel relabel fails here.
plane_counts compares every N_d with Kontsevich's recursion as he wrote it,
over ordered splits with two binomials, modulo the prime 2^61 - 1: a path
that shares no code with plane_curves' one-binomial pair sum, so a pair that
is lost or summed twice (which still divides exactly) fails here.
`quick` covers G(2,4) and G(1,3) exhaustively, and N_1..N_4 by value.
`full` adds G(2,5) and G(3,6) sweeps, 500 associativity triples on each of
G(2,5), G(3,6), G(2,6), rim-hook orders on G(3,6), the divisor rule on
G(2,4), G(2,5), G(1,3) for d <= 3 with 1-5 conditions, and N_d to
MAX_ND_DEGREE (500).
A broken build (wrong rim-hook sign, wrong Pieri chain) must fail here.
"""

import random
from itertools import combinations_with_replacement, product as cartesian

from . import quantum
from .counting import CountProblem, rational_curve_count
from .errors import NotComputableError
from .gromov_witten import GWQuery, gw_3point, gw_spoint
from .lr import classical_structure_constants
from .partitions import partitions_of_weight, weight
from .plane_curves import MAX_ND_DEGREE, kontsevich_nd
from .quantum import (
    QuantumClass, product_table, quantum_pieri, quantum_product, rim_hook_reduce
)
from .spaces import Grassmannian, grassmannian

QUICK_SPACES = (grassmannian(2, 4), grassmannian(1, 3))
FULL_EXTRA_SPACES = (grassmannian(2, 5), grassmannian(3, 6))
FULL_DIVISOR_SPACES = (grassmannian(2, 4), grassmannian(2, 5), grassmannian(1, 3))

_RANDOM_TRIPLES = 500
# full's plane_counts compares every N_d up to MAX_ND_DEGREE with a
# recursion mod this prime that shares no code with plane_curves
ND_PRIME = 2**61 - 1
_SEED = 20240811


class SuiteResult:
    """One suite's report: its name, the number of checks made, and the
    label of each check that failed."""

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks, self.failures) == (other.name, other.checks, other.failures)

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(name={self.name!r}, checks={self.checks!r}, "
                f"failures={self.failures!r})")

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, label: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(label)


def check_products(spaces) -> list[SuiteResult]:
    """The suites over unordered pairs of basis classes, from one product and
    LR lookup per order: unit (the pairs led by the unit class),
    commutativity (the pair's rim-hook reduction against the other
    order's), grading and positivity of every term, the q^0 part against
    the LR expansion in the box, dual_path (the product against the space's
    Pieri-built product_table, and each order led by a single row against
    quantum_pieri), and poincare_pairing (each order's point-class LR
    coefficient is 1 exactly on dual classes)."""
    names = "unit commutativity grading positivity classical_layer dual_path poincare_pairing"
    suites = list(map(SuiteResult, names.split()))
    unit, commutativity, grading, positivity, classical, dual_path, pairing = suites
    for space in spaces:
        rows = dict(product_table(space))
        box = space.point_class()
        for lam, mu in combinations_with_replacement(space.basis(), 2):
            product = quantum_product(lam, mu, space)
            unrotated = quantum._reduced_terms(lam, mu, space)
            label = f"{space}: {lam} * {mu}"
            dual_path.expect(
                product.terms == unrotated == rows[lam][mu], f"{label} differs from its Pieri row"
            )
            if not lam:
                unit.expect(
                    product == QuantumClass.from_partition(space, mu), f"{space}: unit * {mu}"
                )
            commutativity.expect(quantum._reduced_terms(mu, lam, space) == unrotated, label)
            total = weight(lam) + weight(mu)
            for d, nu, c in product.sorted_terms():
                grading.expect(weight(nu) + d * space.n == total, f"{label} term (q^{d}, {nu})")
            for (d, nu), c in sorted(unrotated.items()):
                positivity.expect(c > 0, f"{label} has coeff {c} at (q^{d}, {nu})")
            forward = classical_structure_constants(space, lam, mu)
            classical.expect(product.q_part(0) == forward, label)
            orders = [(lam, mu, forward)]
            if lam != mu:
                orders.append((mu, lam, classical_structure_constants(space, mu, lam)))
            for left, right, expansion in orders:
                if len(left) == 1:
                    dual_path.expect(
                        quantum_pieri(left[0], right, space) == product,
                        f"{space}: pieri {left[0]} on {right}",
                    )
                pairing.expect(
                    expansion.get(box, 0) == (1 if right == space.dual(left) else 0),
                    f"{space}: pairing {left}, {right}",
                )
    return suites


def _associative(space, a, b, c) -> bool:
    left = quantum_product(a, b, space) * QuantumClass.from_partition(space, c)
    right = QuantumClass.from_partition(space, a) * quantum_product(b, c, space)
    return left == right


def check_triples(sampled_spaces=()) -> tuple[SuiteResult, SuiteResult]:
    """The suites over ordered triples: associativity on every triple of
    QUICK_SPACES and on seeded samples of `sampled_spaces`, and
    gw_symmetry, nonnegativity and S_3-symmetry of gw_3point on each
    QUICK_SPACES triple balanced in a degree d <= 2."""
    associativity, symmetry = SuiteResult("associativity"), SuiteResult("gw_symmetry")
    for space in QUICK_SPACES:
        basis = space.basis()
        for a, b, c in cartesian(basis, repeat=3):
            associativity.expect(_associative(space, a, b, c), f"{space}: ({a},{b},{c})")
            d, rest = divmod(weight(a) + weight(b) + weight(c) - space.dimension(), space.n)
            if rest or not 0 <= d <= 2:
                continue
            value = gw_3point(space, a, b, c, d)
            symmetry.expect(value >= 0, f"{space}: I_{d}({a},{b},{c}) < 0")
            for x, y, z in ((a, c, b), (b, a, c), (c, b, a), (b, c, a), (c, a, b)):
                symmetry.expect(
                    gw_3point(space, x, y, z, d) == value,
                    f"{space}: I_{d} not symmetric on ({a},{b},{c})",
                )
    rng = random.Random(_SEED)
    for space in sampled_spaces:
        basis = space.basis()
        for _ in range(_RANDOM_TRIPLES):
            a, b, c = (rng.choice(basis) for _ in range(3))
            associativity.expect(_associative(space, a, b, c), f"{space}: ({a},{b},{c})")
    return associativity, symmetry


def _all_bead_outcomes(beads: tuple[int, ...], n: int, m: int) -> set:
    """Every (q_power, sign, core) reachable by any order of single bead moves
    on the n-runner abacus of decreasing beta-numbers `beads`.  A bead at
    b >= n may move to b - n when that position is empty; the move removes
    one n-rim-hook whose height - 1 is the number of beads strictly between
    the two positions, and contributes the sign (-1)**(m - height)."""
    results = set()
    for b in beads:
        if b < n or b - n in beads:
            continue
        between = sum(1 for c in beads if b - n < c < b)
        step_sign = -1 if (m - 1 - between) % 2 else 1
        moved = tuple(sorted((b - n if c == b else c for c in beads), reverse=True))
        for d, sign, core in _all_bead_outcomes(moved, n, m):
            results.add((d + 1, sign * step_sign, core))
    if results:
        return results
    core = (c - (m - 1 - i) for i, c in enumerate(beads))
    return {(0, 1, tuple(p for p in core if p))}


def check_rim_hook_orders(cases: tuple[tuple[Grassmannian, int], ...]) -> SuiteResult:
    """For each (space, max_weight) case, every shape up to that weight."""
    res = SuiteResult("rim_hook_orders")
    for space, max_weight in cases:
        m = space.m
        max_part = 2 * space.box_cols
        for w in range(max_weight + 1):
            for nu in partitions_of_weight(w, m, max_part):
                beads = tuple(p + m - 1 - i for i, p in enumerate(nu + (0,) * (m - len(nu))))
                results = _all_bead_outcomes(beads, space.n, m)
                res.expect(len(results) == 1, f"{space}: {nu} gave {sorted(results)}")
                d, sign, core = next(iter(results))
                expected = (
                    quantum.ReductionOutcome(d, sign, core) if space.in_box(core) else None
                )
                res.expect(
                    rim_hook_reduce(nu, space) == expected,
                    f"{space}: {nu} normative reduction disagrees",
                )
    return res


def check_divisor_rule(spaces, max_degree: int = 2, sizes=(2, 3)) -> SuiteResult:
    """Appending a divisor insertion multiplies the invariant by d and the
    curve count not at all.  Problems out of scope (NotComputableError) are skipped."""
    res = SuiteResult("divisor_rule")
    for space in spaces:
        basis = [p for p in space.basis() if p]
        for d in range(1, max_degree + 1):
            for s in sizes:
                target = space.moduli_dimension(s, d)
                for combo in combinations_with_replacement(basis, s):
                    if sum(weight(p) for p in combo) != target:
                        continue
                    try:
                        base = rational_curve_count(CountProblem(space, d, combo))
                        more = rational_curve_count(
                            CountProblem(space, d, combo + ((1,),))
                        )
                    except NotComputableError:
                        continue
                    except Exception as exc:  # any other raise here is a failure
                        res.expect(False, f"{space}: d={d} {combo} raised {exc!r}")
                        continue
                    res.expect(
                        more.gw_value == d * base.gw_value
                        and more.curve_count == base.curve_count,
                        f"{space}: divisor append changed the count on d={d} {combo}",
                    )
    return res


def _nd_mod_p(up_to: int) -> list[int]:
    """N_d mod ND_PRIME at index d = 1..up_to (index 0 unused), by
    Kontsevich's recursion as he wrote it: over every ordered split
    a + b = d, N_a N_b a^2 b (b C(3d-4, 3a-2) - a C(3d-4, 3a-1)), the
    binomials from factorial tables mod the prime.  It shares no code with
    plane_curves, whose sum pairs a with d - a under one binomial."""
    p = ND_PRIME
    top = max(3 * up_to - 4, 1)
    fact = [1] * (top + 1)
    for k in range(1, top + 1):
        fact[k] = fact[k - 1] * k % p
    inverse = [1] * (top + 1)  # inverse[k] = 1 / k! mod p
    inverse[top] = pow(fact[top], p - 2, p)
    for k in range(top, 1, -1):
        inverse[k - 1] = inverse[k] * k % p
    nd = [0, 1]
    for d in range(2, up_to + 1):
        n = 3 * d - 4
        total = 0
        for a in range(1, d):
            b = d - a
            c2 = fact[n] * inverse[3 * a - 2] % p * inverse[n - 3 * a + 2] % p  # C(n, 3a-2)
            c1 = fact[n] * inverse[3 * a - 1] % p * inverse[n - 3 * a + 1] % p  # C(n, 3a-1)
            total += nd[a] * nd[b] % p * (a * a * b) * (b * c2 - a * c1)
        nd.append(total % p)
    return nd


def check_plane_counts(up_to: int = 0) -> SuiteResult:
    """The first values of N_d, the degree 1 and 2 invariants they must
    equal, and every N_d up to `up_to` (none by default) against
    _nd_mod_p."""
    res = SuiteResult("plane_counts")
    res.expect(kontsevich_nd(1) == 1, "N_1 != 1")
    res.expect(kontsevich_nd(2) == 1, "N_2 != 1")
    res.expect(kontsevich_nd(3) == 12, "N_3 != 12")
    res.expect(kontsevich_nd(4) == 620, "N_4 != 620")
    if up_to:
        kontsevich_nd(up_to)  # one call, so that a large table is extended at once
        for d, residue in enumerate(_nd_mod_p(up_to)[1:], 1):
            res.expect(kontsevich_nd(d) % ND_PRIME == residue,
                       f"N_{d} differs from Kontsevich's recursion mod 2^61 - 1")
    plane = grassmannian(1, 3)
    res.expect(
        gw_3point(plane, (2,), (2,), (1,), 1) == kontsevich_nd(1),
        "rim-hook path disagrees with the recursion at d=1",
    )
    res.expect(
        gw_spoint(GWQuery(plane, 2, ((2,),) * 5)) == kontsevich_nd(2),
        "5-point conic invariant != N_2",
    )
    return res


# the order in which run_selfcheck reports its suites, by name
_ORDER = ("unit", "commutativity", "associativity", "grading", "positivity", "dual_path",
          "classical_layer", "rim_hook_orders", "poincare_pairing", "gw_symmetry",
          "divisor_rule", "plane_counts")


def run_selfcheck(level: str = "quick") -> list[SuiteResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown selfcheck level {level!r}")
    full = level == "full"
    spaces = QUICK_SPACES + FULL_EXTRA_SPACES if full else QUICK_SPACES
    sampled = FULL_EXTRA_SPACES + (grassmannian(2, 6),) if full else ()
    rim_hook_cases = ((grassmannian(2, 4), 8),) + (((grassmannian(3, 6), 12),) if full else ())
    divisor_range = (FULL_DIVISOR_SPACES, 3, range(1, 6)) if full else (QUICK_SPACES, 2, (2, 3))
    suites = {suite.name: suite for suite in (
        *check_products(spaces),
        *check_triples(sampled),
        check_rim_hook_orders(rim_hook_cases),
        check_divisor_rule(*divisor_range),
        check_plane_counts(MAX_ND_DEGREE if full else 0),
    )}
    return [suites[name] for name in _ORDER]
