import pytest

from qschub import quantum, selfcheck
from qschub.errors import NotComputableError
from qschub.plane_curves import MAX_ND_DEGREE
from qschub.selfcheck import QUICK_SPACES, check_divisor_rule, run_selfcheck

# `selfcheck full` reaches N_500, which starts the N_d helper process; under
# `python -X dev -W error::ResourceWarning`, a helper's pipe left unclosed
# raises in its finalizer, and this turns that into a failure here.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


def test_quick_passes():
    results = run_selfcheck("quick")
    for suite in results:
        assert suite.ok, f"{suite.name}: {suite.failures[:3]}"
    assert {s.name for s in results} >= {
        "unit",
        "commutativity",
        "associativity",
        "grading",
        "positivity",
        "dual_path",
        "classical_layer",
        "rim_hook_orders",
        "poincare_pairing",
        "gw_symmetry",
        "divisor_rule",
        "plane_counts",
    }


def test_full_passes():
    assert all(suite.ok for suite in run_selfcheck("full"))


def test_full_names_each_suite_once_with_the_folded_ranges():
    results = run_selfcheck("full")
    names = [suite.name for suite in results]
    assert len(names) == len(set(names)) == 12
    checks = {suite.name: suite.checks for suite in results}
    # the pair suites on G(2,4), G(1,3), G(2,5), G(3,6): 39 basis classes, 292 pairs
    pair_suites = ("unit", "commutativity", "grading", "positivity", "classical_layer")
    assert [checks[name] for name in pair_suites] == [39, 292, 445, 445, 292]
    quick = {suite.name: suite.checks for suite in run_selfcheck("quick")}
    assert [quick[name] for name in pair_suites] == [9, 27, 30, 30, 27]
    # every pair against product_table, plus the single-row Pieri products
    assert (quick["dual_path"], checks["dual_path"]) == (27 + 18, 292 + 108)
    # 243 exhaustive triples plus 500 sampled on each of G(2,5), G(3,6), G(2,6)
    assert checks["associativity"] == 243 + 3 * 500
    # G(2,4) up to weight 8 and G(3,6) up to weight 12 in one suite
    assert checks["rim_hook_orders"] == 166
    # G(2,4), G(2,5), G(1,3); d <= 3; 1-5 conditions
    assert checks["divisor_rule"] == 99


def _failing_once(monkeypatch, exc):
    real = selfcheck.rational_curve_count
    calls = []

    def count(problem):
        calls.append(problem)
        if len(calls) == 1:
            raise exc
        return real(problem)

    monkeypatch.setattr(selfcheck, "rational_curve_count", count)


def test_divisor_rule_skips_a_problem_out_of_scope(monkeypatch):
    baseline = check_divisor_rule(QUICK_SPACES)
    _failing_once(monkeypatch, NotComputableError("out of scope"))
    res = check_divisor_rule(QUICK_SPACES)
    assert res.ok
    assert res.checks == baseline.checks - 1


def test_divisor_rule_fails_on_any_other_raise(monkeypatch):
    _failing_once(monkeypatch, RuntimeError("not divisible"))
    res = check_divisor_rule(QUICK_SPACES)
    assert not res.ok
    assert "RuntimeError" in res.failures[0]


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_selfcheck("paranoid")


def test_detects_flipped_rim_hook_sign(monkeypatch):
    # the classic convention slip: sign from the strip heights alone,
    # dropping the (-1)**(q*(m-1)) factor
    quantum.clear_cache()
    monkeypatch.setattr(
        quantum, "_reduction_sign", lambda m, q_power, passes: -1 if passes % 2 else 1
    )
    try:
        results = run_selfcheck("quick")
        failing = {suite.name for suite in results if not suite.ok}
        assert "positivity" in failing
        assert "dual_path" in failing
    finally:
        quantum.clear_cache()


def _chain_without_last_bound(lam, rows, target):
    # wrong on purpose: the last row forgets the "one box shorter than lam"
    # upper bound and allows nu_rows up to lam_rows
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


def test_detects_broken_pieri_chain(monkeypatch):
    monkeypatch.setattr(quantum, "_pieri_quantum_shapes", _chain_without_last_bound)
    results = run_selfcheck("quick")
    failing = {suite.name for suite in results if not suite.ok}
    assert "dual_path" in failing
    # the spurious term shows up exactly where expected
    broken = quantum.quantum_pieri(2, (2,), quantum.Grassmannian("A", 2, 4))
    assert broken.coefficient(1, ()) == 1


def test_full_compares_every_nd_with_the_independent_recursion():
    # N_1..N_4 by value, the two invariants, and each N_d to the limit mod 2^61 - 1
    (plane,) = [suite for suite in run_selfcheck("full") if suite.name == "plane_counts"]
    assert plane.ok and plane.checks == 6 + MAX_ND_DEGREE
    (plane,) = [suite for suite in run_selfcheck("quick") if suite.name == "plane_counts"]
    assert plane.checks == 6


def test_commutativity_checks_the_lr_route_with_the_factors_swapped(monkeypatch):
    # an LR expansion that loses its largest term whenever its content has
    # more rows than its base shape; the product record, which takes the
    # factor of fewer rows as the content, never meets the slip, so only
    # the reduction of the pair in the other order shows it
    real = quantum.schur_product

    def slipping(lam, mu, max_rows):
        expansion = real(lam, mu, max_rows)
        if len(mu) > len(lam) and expansion:
            del expansion[max(expansion)]
        return expansion

    quantum.clear_cache()
    monkeypatch.setattr(quantum, "schur_product", slipping)
    try:
        results = run_selfcheck("quick")
        assert "commutativity" in {suite.name for suite in results if not suite.ok}
    finally:
        quantum.clear_cache()
