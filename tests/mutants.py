"""Deliberately broken pieces of qschub's product code, one copy of each, for
the tests that selfcheck's suites catch them.  Install one with `mutant`."""

from contextlib import contextmanager

import pytest

from qschub import quantum
from qschub.lr import schur_product
from qschub.selfcheck import run_selfcheck


def flipped_reduction_sign(m, q_power, passes):
    """quantum._reduction_sign with the classic convention slip: the sign
    from the strip heights alone, dropping the (-1)**(q*(m-1)) factor."""
    return -1 if passes % 2 else 1


def chain_without_last_bound(lam, rows, target):
    """quantum._pieri_quantum_shapes with the last row forgetting the "one
    box shorter than lam" upper bound: it allows nu_rows up to lam_rows."""
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


def schur_product_losing_a_term(lam, mu, max_rows):
    """quantum.schur_product losing its largest term whenever its content
    has more rows than its base shape.  The product record takes the factor
    of fewer rows as the content, so it never meets the slip; only the
    reduction of a pair in the other order does."""
    expansion = schur_product(lam, mu, max_rows)
    if len(mu) > len(lam) and expansion:
        del expansion[max(expansion)]
    return expansion


@contextmanager
def mutant(name, replacement):
    """quantum.<name> replaced by `replacement`, with the product cache
    cleared on the way in and on the way out."""
    quantum.clear_cache()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, name, replacement)
            yield
    finally:
        quantum.clear_cache()


def failing_quick_suites() -> set[str]:
    """The names of the suites that `selfcheck quick` fails."""
    return {suite.name for suite in run_selfcheck("quick") if not suite.ok}
