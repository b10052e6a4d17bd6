"""Exact quantum Schubert calculus on Grassmannians.

Computes quantum products of Schubert classes by rim-hook reduction of
Littlewood-Richardson expansions, genus-zero Gromov-Witten invariants, and
the resulting counts of rational curves meeting Schubert conditions in
general position (the invariant divided by d^r, one factor of the degree
per codimension-one condition).  All arithmetic is exact.
"""

from .counting import CountProblem, CountResult, rational_curve_count
from .errors import (
    BoxError,
    DegreeRangeError,
    NotComputableError,
    UnbalancedQueryError,
    UnsupportedFamilyError,
)
from .gromov_witten import GWQuery, gw_3point, gw_spoint
from .lr import classical_structure_constants, lr_coefficient, schur_product
from .partitions import (
    Partition,
    conjugate,
    dual_in_box,
    enumerate_box,
    fits_in_box,
    format_partition,
    is_horizontal_strip,
    is_k_strict,
    parse_partition,
    weight,
)
from .plane_curves import kontsevich_nd, nd_values
from .quantum import (
    QuantumClass,
    ReductionOutcome,
    product_table,
    quantum_pieri,
    quantum_product,
    rim_hook_reduce,
)
from .spaces import Grassmannian, grassmannian, parse_space

__version__ = "0.1.0"


def __getattr__(name):
    # run_selfcheck loads selfcheck (and random) on first use, not at import
    if name == "run_selfcheck":
        from .selfcheck import run_selfcheck

        return run_selfcheck
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
