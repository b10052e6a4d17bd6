import pytest

from qschub import quantum, selfcheck
from qschub.errors import NotComputableError
from qschub.plane_curves import MAX_ND_DEGREE, reset_cache
from qschub.selfcheck import QUICK_SPACES, check_divisor_rule, check_products, run_selfcheck
from qschub.spaces import grassmannian

from mutants import (
    chain_without_last_bound, failing_quick_suites, flipped_reduction_sign, mutant,
    schur_product_losing_a_term,
)

# `selfcheck full` reaches N_500, which starts the N_d helper process; under
# `python -X dev -W error::ResourceWarning`, a helper's pipe left unclosed
# raises in its finalizer, and this turns that into a failure here.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="module")
def results():
    """run_selfcheck's unmutated results at each level, each from cold
    caches: the product records and the N_d table."""
    levels = {}
    for level in ("quick", "full"):
        quantum.clear_cache()
        reset_cache()
        levels[level] = run_selfcheck(level)
    return levels


def test_quick_passes(results):
    for suite in results["quick"]:
        assert suite.ok, f"{suite.name}: {suite.failures[:3]}"
    assert {s.name for s in results["quick"]} >= {
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


def test_full_passes(results):
    assert all(suite.ok for suite in results["full"])


def test_full_names_each_suite_once_with_the_folded_ranges(results):
    names = [suite.name for suite in results["full"]]
    assert len(names) == len(set(names)) == 12
    checks = {suite.name: suite.checks for suite in results["full"]}
    # the pair suites on G(2,4), G(1,3), G(2,5), G(3,6): 39 basis classes, 292 pairs
    pair_suites = ("unit", "commutativity", "grading", "positivity", "classical_layer")
    assert [checks[name] for name in pair_suites] == [39, 292, 445, 445, 292]
    quick = {suite.name: suite.checks for suite in results["quick"]}
    assert [quick[name] for name in pair_suites] == [9, 27, 30, 30, 27]
    # every pair against product_table, plus the single-row Pieri products
    assert (quick["dual_path"], checks["dual_path"]) == (27 + 18, 292 + 108)
    # 243 exhaustive triples plus 500 sampled on each of G(2,5), G(3,6), G(2,6)
    assert checks["associativity"] == 243 + 3 * 500
    # G(2,4) up to weight 8 and G(3,6) up to weight 12 in one suite
    assert checks["rim_hook_orders"] == 166
    # G(2,4), G(2,5), G(1,3); d <= 3; 1-5 conditions
    assert checks["divisor_rule"] == 99


# Spaces that run_selfcheck does not sweep, with the checks each pair suite
# makes there, in check_products' order: unit, commutativity, grading,
# positivity, classical_layer, dual_path, poincare_pairing.  G(1,4) and
# G(1,6) are one row and G(4,6) and G(5,8) tall: lam_1 - 1 bounds the
# shapes of quantum Pieri's q half there, and lam often has fewer than m parts.
_UNSWEPT = [
    (grassmannian(1, 4), [4, 10, 10, 10, 10, 22, 16]),
    (grassmannian(2, 6), [15, 120, 171, 171, 120, 180, 225]),
    (grassmannian(1, 6), [6, 21, 21, 21, 21, 51, 36]),
    (grassmannian(4, 6), [15, 120, 171, 171, 120, 150, 225]),
    (grassmannian(5, 8), [56, 1596, 4348, 4348, 1596, 1764, 3136]),
]


@pytest.mark.parametrize("space, checks", _UNSWEPT, ids=[str(space) for space, _ in _UNSWEPT])
def test_pair_suites_pass_on_spaces_selfcheck_leaves_out(space, checks):
    suites = check_products([space])
    assert [(suite.name, suite.failures[:3]) for suite in suites if not suite.ok] == []
    assert [suite.checks for suite in suites] == checks


def test_divisor_rule_passes_on_g14():
    # d <= 3 and 1-5 conditions, the ranges selfcheck full sweeps on its spaces
    res = check_divisor_rule([grassmannian(1, 4)], 3, range(1, 6))
    assert res.ok and res.checks == 7


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


def test_detects_flipped_rim_hook_sign():
    with mutant("_reduction_sign", flipped_reduction_sign):
        assert {"positivity", "dual_path"} <= failing_quick_suites()


def test_detects_broken_pieri_chain():
    with mutant("_pieri_quantum_shapes", chain_without_last_bound):
        assert "dual_path" in failing_quick_suites()
        # the spurious term shows up exactly where expected
        broken = quantum.quantum_pieri(2, (2,), quantum.Grassmannian("A", 2, 4))
        assert broken.coefficient(1, ()) == 1


def test_full_compares_every_nd_with_the_independent_recursion(results):
    # N_1..N_4 by value, the two invariants, and each N_d to the limit mod 2^61 - 1
    (plane,) = [suite for suite in results["full"] if suite.name == "plane_counts"]
    assert plane.ok and plane.checks == 6 + MAX_ND_DEGREE
    (plane,) = [suite for suite in results["quick"] if suite.name == "plane_counts"]
    assert plane.checks == 6


def test_commutativity_checks_the_lr_route_with_the_factors_swapped():
    # the product record never meets the slip (see schur_product_losing_a_term);
    # only the reduction of the pair in the other order shows it
    with mutant("schur_product", schur_product_losing_a_term):
        assert "commutativity" in failing_quick_suites()
