"""The `session` workload: one library process answering a seeded stream.

The stream mixes three kinds of query, all through qschub's public
functions, looked up on their modules at call time so that the traced run
can wrap them:

* count: rational_curve_count on a balanced problem of the divisibility
  sweep, and again with one more codimension-one condition appended;
* product: a plain quantum_product on G(3,7);
* assoc: (s_a * s_b) * s_c against s_a * (s_b * s_c) on G(3,7), built from
  quantum_product and QuantumClass.__mul__.

The queries are the same for every seed, so that runs with different seeds
measure the same work and every answer has a golden digest; the seed sets
the order of the stream.  Run as a child process, this module reads the
stream as JSON on stdin, runs it once to fill the caches, prints READY, and
then replays it with every query timed until the time is up.
"""

import json
import random
import sys
import time
from itertools import combinations_with_replacement

import checks

# (count spaces, max degree, max conditions, product space, associativity
# triples drawn once, from a fixed generator, out of the product space's basis)
SIZES = {
    "full": (((1, 3), (2, 5), (2, 6), (3, 6)), 3, 5, (3, 7), 1500),
    "tiny": (((1, 3), (2, 4)), 2, 4, (2, 5), 40),
}


def box(rows: int, cols: int) -> list[tuple]:
    """Every partition inside the rows x cols box, in a fixed order."""
    if rows == 0 or cols == 0:
        return [()]
    return [(first, *rest) for first in range(cols, 0, -1) for rest in box(rows - 1, first)] + [()]


def count_problems(spaces, max_degree: int, max_conditions: int) -> list[tuple]:
    """Balanced problems (m, n, d, conditions) that qschub answers: those
    with at most three conditions of codimension above one, through a
    three-point invariant, and on G(1,3) those whose other conditions are
    all points, through the plane-curve count N_d.  Problems with a
    fundamental-class condition are left out: they return 0 before any
    product is looked up."""
    problems = []
    for m, n in spaces:
        shapes = [p for p in box(m, n - m) if p]
        for d in range(1, max_degree + 1):
            for s in range(1, max_conditions + 1):
                target = m * (n - m) + s - 3 + d * n
                for combo in combinations_with_replacement(shapes, s):
                    if sum(map(sum, combo)) == target and answered(m, n, combo):
                        problems.append((m, n, d, combo))
    return problems


def answered(m: int, n: int, conditions: tuple) -> bool:
    rest = [p for p in conditions if p != (1,)]
    return len(rest) <= 3 or ((m, n) == (1, 3) and all(p == (2,) for p in rest))


def build_stream(seed: int, size: str) -> list:
    """The query stream in the seed's order, as JSON-ready lists."""
    spaces, max_degree, max_conditions, (m, n), triples = SIZES[size]
    basis = box(m, n - m)
    draw = random.Random(f"triples-{size}")
    stream = [["count", pm, pn, d, [list(p) for p in combo]]
              for pm, pn, d, combo in count_problems(spaces, max_degree, max_conditions)]
    stream += [["product", m, n, list(a), list(b)] for a in basis for b in basis]
    stream += [["assoc", m, n, *(list(draw.choice(basis)) for _ in range(3))] for _ in range(triples)]
    random.Random(seed).shuffle(stream)
    return stream


# -- running the stream against the library ------------------------------


def _count(lib, space, d, conditions, more):
    base = lib.counting.rational_curve_count(lib.counting.CountProblem(space, d, conditions))
    plus = lib.counting.rational_curve_count(lib.counting.CountProblem(space, d, more))
    return base, plus


def _product(lib, space, a, b):
    return lib.quantum.quantum_product(a, b, space)


def _assoc(lib, space, a, b, c):
    make = lib.quantum.QuantumClass.from_partition
    left = lib.quantum.quantum_product(a, b, space) * make(space, c)
    right = make(space, a) * lib.quantum.quantum_product(b, c, space)
    return left, right


def _plain(kind: str, result):
    """A query's answer as plain values, for comparison and digests."""
    if kind == "count":
        return tuple((r.gw_value, r.divisor_conditions, r.curve_count) for r in result)
    if kind == "product":
        return dict(result.terms)
    return dict(result[0].terms), dict(result[1].terms)


class Session:
    """The prepared stream, bound to the qschub modules in `lib`."""

    def __init__(self, lib, stream: list):
        self.stream = stream
        spaces = {}
        self.calls = []
        for kind, m, n, *args in stream:
            space = spaces.setdefault((m, n), lib.spaces.grassmannian(m, n))
            if kind == "count":
                d, conditions = args[0], tuple(tuple(p) for p in args[1])
                self.calls.append((_count, (lib, space, d, conditions, conditions + ((1,),))))
            else:
                fn = _product if kind == "product" else _assoc
                self.calls.append((fn, (lib, space, *(tuple(p) for p in args))))
        self.reference = None

    def run_pass(self):
        """Run every query once; returns (pass wall ns, per-query ns, answers).
        An answer is None where the query raised."""
        clock = time.perf_counter_ns
        latencies, results = [], []
        start = clock()
        for fn, args in self.calls:
            t0 = clock()
            try:
                result = fn(*args)
            except Exception:  # a failed query is counted, not fatal
                result = None
            latencies.append(clock() - t0)
            results.append(result)
        return clock() - start, latencies, results

    def check_fill(self, results, golden: dict, corrupt: bool = False) -> tuple[set, list]:
        """Check the cache-filling pass: the invariants of every query, and
        the golden digest of each kind of query.  Keeps the
        answers as the reference for later passes.  Returns the indices of
        the failed queries and the failure messages.  `corrupt` alters the
        first answer before the checks (fault injection for the self-test)."""
        failed, messages = set(), []
        digest_lines = {"count": [], "product": [], "assoc": []}
        self.reference = []
        for i, (query, result) in enumerate(zip(self.stream, results)):
            kind = query[0]
            plain = None if result is None else _plain(kind, result)
            if corrupt and i == 0:
                plain = tamper(kind, plain)
            self.reference.append(plain)
            if plain is None:
                found = [f"{kind} {query[1:]}: raised"]
            elif kind == "count":
                d, conditions = query[3], tuple(tuple(p) for p in query[4])
                found = checks.check_count(d, conditions, *plain)
                digest_lines["count"].append(f"{query[1:4]} {query[4]} {plain}")
            elif kind == "product":
                found = []
                digest_lines["product"].append(f"{query[3]} {query[4]} {checks.terms_line(plain)}")
            else:
                found = [] if plain[0] == plain[1] else [f"assoc {query[3:]}: (ab)c != a(bc)"]
                digest_lines["assoc"].append(f"{query[3:]} {checks.terms_line(plain[0])}")
            if found:
                failed.add(i)
                messages += found
        for kind, lines in digest_lines.items():
            digest = checks.sha256("\n".join(sorted(lines)).encode())
            if digest != golden[kind]:
                failed.update(i for i, q in enumerate(self.stream) if q[0] == kind)
                messages.append(f"{kind}: digest {digest} differs from golden {golden[kind]}")
        return failed, messages

    def check_repeat(self, results) -> tuple[set, list]:
        """A warm pass must give the cache-filling pass's answers."""
        failed = {
            i for i, (query, result, expected) in enumerate(zip(self.stream, results, self.reference))
            if result is None or _plain(query[0], result) != expected
        }
        return failed, [f"{self.stream[i][0]} {self.stream[i][1:]}: warm answer differs" for i in sorted(failed)]


def tamper(kind: str, plain):
    """Change one answer, to show that the gate rejects it."""
    if plain is None:
        return plain
    if kind == "count":
        (gw, r, count), plus = plain
        return (gw + 1, r, count), plus
    if kind == "product":
        return {**plain, (99, ()): 1}
    return plain[0], {**plain[1], (99, ()): 1}


def child_main() -> None:
    """Child-process entry: a JSON request on stdin, READY after the fill
    pass, one JSON result line at the end: the wall time of every timed
    pass, and each query's fastest latency in them."""
    request = json.loads(sys.stdin.read())
    import qschub.counting
    import qschub.quantum
    import qschub.spaces

    session = Session(qschub, request["stream"])
    _, _, fill = session.run_pass()
    print("READY", flush=True)
    failed, messages = session.check_fill(fill, request["golden"], request["corrupt"])
    walls, best = [], None
    attempted, failed_count = len(session.calls), len(failed)
    deadline = time.perf_counter() + request["seconds"]
    while time.perf_counter() < deadline or len(walls) < request["min_passes"]:
        wall, lat, results = session.run_pass()
        walls.append(wall)
        best = lat if best is None else list(map(min, best, lat))
        failed, found = session.check_repeat(results)
        attempted += len(results)
        failed_count += len(failed)
        messages += found
    print(json.dumps({
        "pass_ns": walls,
        "best_ns": best,
        "attempted": attempted,
        "failed": failed_count,
        "failures": messages[:50],
    }))


if __name__ == "__main__":
    child_main()
