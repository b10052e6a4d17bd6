"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they go by."""

import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import qschub
from qschub import quantum
from qschub.counting import CountProblem, rational_curve_count
from qschub.errors import NotComputableError
from qschub.gromov_witten import gw_3point
from qschub.partitions import is_k_strict, partitions_of_weight, weight
from qschub.plane_curves import kontsevich_nd, nd_values, reset_cache
from qschub.quantum import (
    QuantumClass,
    quantum_pieri,
    quantum_product,
    rim_hook_reduce,
)
from qschub.selfcheck import run_selfcheck
from qschub.spaces import grassmannian, parse_space

from oracles import rim_hook_reduce_oracle

G24 = grassmannian(2, 4)
G25 = grassmannian(2, 5)
G36 = grassmannian(3, 6)
P2 = grassmannian(1, 3)


def _report(num: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _cold_caches() -> None:
    quantum.clear_cache()


def test_criterion_1_golden_table_g24():
    _cold_caches()
    start = time.perf_counter()
    golden = {
        ((1,), (1,)): {(0, (2,)): 1, (0, (1, 1)): 1},
        ((1,), (2, 1)): {(0, (2, 2)): 1, (1, ()): 1},
        ((1,), (2, 2)): {(1, (1,)): 1},
        ((2,), (1, 1)): {(1, ()): 1},
        ((2,), (2,)): {(0, (2, 2)): 1},
        ((2, 2), (2, 2)): {(2, ()): 1},
    }
    ok = True
    for (lam, mu), expected in golden.items():
        ok = ok and quantum_product(lam, mu, G24).terms == expected
        ok = ok and quantum_product(mu, lam, G24).terms == expected
        # independent confirmation through the Pieri path where one factor
        # is a single row
        if len(lam) == 1:
            ok = ok and quantum_pieri(lam[0], mu, G24).terms == expected
        if len(mu) == 1:
            ok = ok and quantum_pieri(mu[0], lam, G24).terms == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"QH*(G(2,4)) golden table with Pieri cross-path ({elapsed:.3f}s)")


def _associative(space, a, b, c) -> bool:
    left = quantum_product(a, b, space) * QuantumClass.from_partition(space, c)
    right = QuantumClass.from_partition(space, a) * quantum_product(b, c, space)
    return left == right


def test_criterion_2_associativity():
    start = time.perf_counter()
    checked = 0
    ok = True
    for space in (G24, P2):
        basis = space.basis()
        for a in basis:
            for b in basis:
                for c in basis:
                    ok = ok and _associative(space, a, b, c)
                    checked += 1
    rng = random.Random(31415)
    for space in (G25, G36):
        basis = space.basis()
        for _ in range(200):
            a, b, c = (rng.choice(basis) for _ in range(3))
            ok = ok and _associative(space, a, b, c)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 216 + 27 + 400 and elapsed < 30.0
    _report(2, ok, f"associativity on {checked} triples ({elapsed:.2f}s)")


def test_criterion_3_positivity_and_grading():
    ok = True
    checked = 0
    for space in (G24, G25, G36, grassmannian(1, 4)):
        basis = space.basis()
        for lam, mu in combinations_with_replacement(basis, 2):
            total = weight(lam) + weight(mu)
            terms = quantum_product(lam, mu, space).sorted_terms()
            for d, nu, coeff in terms:
                ok = ok and coeff > 0 and weight(nu) + d * space.n == total
                checked += 1
    _report(3, ok, f"positivity + grading on {checked} product terms")


def test_criterion_4_rim_hook_order_independence():
    ok = True
    checked = 0
    for w in range(13):
        for nu in partitions_of_weight(w, G36.m, 2 * G36.box_cols):
            # the oracle asserts that every removal order gives one outcome
            expected = rim_hook_reduce_oracle(nu, G36.m, G36.n)
            ok = ok and rim_hook_reduce(nu, G36) == expected
            checked += 1
    _report(4, ok, f"rim-hook order independence on {checked} shapes in G(3,6)")


def test_criterion_5_plane_curve_sequence():
    reset_cache()
    start = time.perf_counter()
    table = dict(nd_values(12))
    elapsed = time.perf_counter() - start
    ok = (
        table[1] == 1
        and table[2] == 1
        and table[3] == 12
        and table[4] == 620
        and table[12] > 2**63
        and elapsed < 0.1
    )
    _report(5, ok, f"N_1..N_4 = 1, 1, 12, 620 and N_12 from cold cache in {elapsed:.4f}s")


def test_criterion_6_divisibility_sweep():
    ok = True
    solved = 0
    for space in (G24, G25, P2):
        basis = space.basis()
        for degree in (1, 2, 3):
            for s in range(1, 6):
                target = space.moduli_dimension(s, degree)
                for combo in combinations_with_replacement(basis, s):
                    if sum(weight(p) for p in combo) != target:
                        continue
                    try:
                        base = rational_curve_count(
                            CountProblem(space, degree, combo)
                        )
                    except NotComputableError:
                        continue
                    scale = degree**base.divisor_conditions
                    ok = ok and base.gw_value % scale == 0
                    ok = ok and base.gw_value == scale * base.curve_count
                    more = rational_curve_count(
                        CountProblem(space, degree, combo + ((1,),))
                    )
                    ok = ok and more.gw_value == degree * base.gw_value
                    ok = ok and more.curve_count == base.curve_count
                    solved += 1
    ok = ok and solved > 0
    _report(6, ok, f"d^r divisibility and divisor append on {solved} problems")


def test_criterion_7_cross_path_counts(capsys):
    from qschub.cli import parse_and_dispatch

    ok = gw_3point(P2, (2,), (2,), (1,), 1) == kontsevich_nd(1) == 1
    code = parse_and_dispatch(["count", "G(1,3)", "-d", "2", "1", "2", "2", "2", "2", "2"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out == "GW = 2, r = 1, curves = 1\n"
    _report(7, ok, "N_1 via rim-hook path; conic count through the CLI")


def test_criterion_8_formula_table():
    ok = (
        G24.critical_degree() == 2
        and parse_space("IG(3,8)").critical_degree() == 3
        and parse_space("OG(3,9)").critical_degree() == 4
        and parse_space("OG(4,9)").critical_degree() == 2
    )
    ok = ok and G24.kernel_span_dims(1) == (1, 3)
    ok = ok and G24.kernel_span_dims(2) == (0, 4)
    ok = ok and parse_space("IG(3,8)").kernel_span_dims(2) == (1, 5)
    ok = ok and parse_space("IG(3,8)").kernel_span_dims(3) == (0, 6)
    k_strict_table = [
        ((3, 3, 1), 2, False),
        ((3, 2, 2), 2, True),
        ((2, 1), 5, True),
        ((), 0, True),
        ((1, 1, 1), 0, False),
        ((1, 1, 1), 1, True),
        ((5, 4, 3, 2, 1), 0, True),
        ((5, 5), 4, False),
        ((5, 5), 5, True),
        ((4, 4, 4), 3, False),
        ((4, 3, 3), 3, True),
        ((6, 5, 5, 2, 2), 4, False),
        ((6, 5, 5, 2, 2), 5, True),
        ((7,), 0, True),
        ((2, 2, 2, 2), 1, False),
        ((2, 2, 2, 2), 2, True),
        ((9, 8, 8, 7), 7, False),
        ((9, 8, 8, 7), 8, True),
        ((3, 2, 1), 0, True),
        ((10, 10, 10), 9, False),
    ]
    assert len(k_strict_table) == 20
    for p, k, expected in k_strict_table:
        ok = ok and is_k_strict(p, k) == expected
    _report(8, ok, "critical degree, kernel/span, and 20-case k-strict table")


def test_criterion_9_selfcheck(monkeypatch):
    # the child runs the same qschub these tests import, installed or not
    src = str(Path(qschub.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qschub", "selfcheck", "quick"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 10.0 and "PASS" in proc.stdout

    # a flipped rim-hook sign must make the quick suites fail
    quantum.clear_cache()
    monkeypatch.setattr(
        quantum, "_reduction_sign", lambda m, q_power, passes: -1 if passes % 2 else 1
    )
    failing = {suite.name for suite in run_selfcheck("quick") if not suite.ok}
    ok = ok and {"positivity", "dual_path"} <= failing
    monkeypatch.undo()
    quantum.clear_cache()

    # a Pieri chain missing the last-row bound must make dual_path fail
    def chain_without_last_bound(lam, rows, target):
        padded = list(lam) + [0] * (rows - len(lam))

        def rec(i, remaining, prefix):
            if i == rows:
                if remaining == 0:
                    yield tuple(x for x in prefix if x)
                return
            hi = min(padded[i] - 1 if i < rows - 1 else padded[i], remaining)
            lo = max(padded[i + 1] - 1, 0) if i + 1 < rows else 0
            for v in range(hi, lo - 1, -1):
                yield from rec(i + 1, remaining - v, prefix + (v,))

        yield from rec(0, target, ())

    monkeypatch.setattr(quantum, "_pieri_quantum_shapes", chain_without_last_bound)
    failing = {suite.name for suite in run_selfcheck("quick") if not suite.ok}
    ok = ok and "dual_path" in failing
    monkeypatch.undo()
    _report(9, ok, f"selfcheck quick cold run in {elapsed:.2f}s; mutations detected")
