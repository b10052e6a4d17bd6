"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they go by."""

import subprocess
import sys
import time

from qschub import quantum
from qschub.gromov_witten import gw_3point
from qschub.partitions import is_k_strict, partitions_of_weight
from qschub.plane_curves import kontsevich_nd, nd_values, reset_cache
from qschub.quantum import quantum_pieri, quantum_product, rim_hook_reduce
from qschub.selfcheck import check_divisor_rule, check_products, check_triples
from qschub.spaces import grassmannian, parse_space

from mutants import chain_without_last_bound, failing_quick_suites, flipped_reduction_sign, mutant
from oracles import GOLDEN_G24, rim_hook_reduce_oracle

G24 = grassmannian(2, 4)
G25 = grassmannian(2, 5)
G36 = grassmannian(3, 6)
P2 = grassmannian(1, 3)


def _report(num: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_golden_table_g24():
    quantum.clear_cache()
    start = time.perf_counter()
    ok = True
    for (lam, mu), expected in GOLDEN_G24.items():
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


def test_criterion_2_associativity():
    # every triple of G(2,4) and G(1,3), 500 sampled on each of G(2,5) and
    # G(3,6), and the S_3 symmetry of the three-point invariants it reads
    start = time.perf_counter()
    associativity, symmetry = check_triples((G25, G36))
    elapsed = time.perf_counter() - start
    ok = associativity.ok and symmetry.ok and associativity.checks == 216 + 27 + 2 * 500
    ok = ok and elapsed < 30.0
    _report(2, ok, f"associativity on {associativity.checks} triples ({elapsed:.2f}s)")


def test_criterion_3_positivity_and_grading():
    suites = {s.name: s for s in check_products((G24, G25, G36, grassmannian(1, 4)))}
    ok = all(s.ok for s in suites.values())
    _report(3, ok, f"positivity + grading on {suites['grading'].checks} product terms")


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
    # G(2,4), G(2,5), G(1,3); d <= 3; 1-5 conditions.  rational_curve_count
    # raises unless d^r divides the invariant, and the suite fails on a raise
    res = check_divisor_rule((G24, G25, P2), 3, range(1, 6))
    _report(6, res.ok and res.checks > 0,
            f"d^r divisibility and divisor append on {res.checks} problems")


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


def test_criterion_9_selfcheck(child_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qschub", "selfcheck", "quick"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 10.0 and "PASS" in proc.stdout

    # a flipped rim-hook sign must make the quick suites fail, and a Pieri
    # chain missing the last-row bound must make dual_path fail
    with mutant("_reduction_sign", flipped_reduction_sign):
        ok = ok and {"positivity", "dual_path"} <= failing_quick_suites()
    with mutant("_pieri_quantum_shapes", chain_without_last_bound):
        ok = ok and "dual_path" in failing_quick_suites()
    _report(9, ok, f"selfcheck quick cold run in {elapsed:.2f}s; mutations detected")
