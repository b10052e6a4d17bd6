"""Grassmannian target spaces of the four classical families.

Family A is the ordinary Grassmannian G(m, n) of m-planes in C^n and is
fully supported.  The isotropic families are constructible and carry the
numeric data that has an explicit formula (k, critical degree, kernel/span
dimensions), but anything cohomological (dimension, degree of c1, products)
deliberately raises UnsupportedFamilyError instead of guessing:

    C = IG(m, 2n)    symplectic form
    B = OG(m, 2n+1)  symmetric form, odd ambient dimension
    D = OG(m, 2n+2)  symmetric form, even ambient dimension
"""

import re
from collections import namedtuple
from math import comb, inf, log10

from .errors import BoxError, DegreeRangeError, UnsupportedFamilyError
from .partitions import Partition, dual_in_box, enumerate_box, fits_in_box, format_partition

_FAMILIES = frozenset("ABCD")
# the m each family allows, in the numbers its notation shows
_M_RANGES = {
    "A": "G(m,n) needs 1 <= m <= n-1",
    "B": "OG(m,N) with N odd needs 1 <= m <= (N-1)/2",
    "C": "IG(m,N) needs 1 <= m <= N/2",
    "D": "OG(m,N) with N even needs 1 <= m <= N/2",
}


class MoreThan(int):
    """A count known only to pass a power of ten, 10^e: it holds 10^e + 1
    and prints as "more than 10^e"."""

    def __str__(self) -> str:
        return f"more than 10^{round(log10(self - 1))}"


class Grassmannian(namedtuple("Grassmannian", "family m n")):
    """A Grassmannian of family A-D with its parameters m and n (see the
    module docstring), checked when it is made.  A named tuple: it compares
    and hashes as the plain tuple (family, m, n)."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, n: int):
        self = super().__new__(cls, family, m, n)
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        hi = {"A": self.n - 1, "B": self.n, "C": self.n, "D": self.n + 1}[self.family]
        if hi < 1:  # no m fits: name the space in its notation, not by the internal n
            raise ValueError(f"{self.notation} names no space: {_M_RANGES[self.family]}")
        if not 1 <= self.m <= hi:
            raise ValueError(
                f"family {self.family} requires 1 <= m <= {hi}, got m={self.m}, n={self.n}"
            )
        if self.family == "D" and self.n == 0:
            raise ValueError(f"{self.notation} is two points, not a Grassmannian")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace checks its fields too

    @property
    def notation(self) -> str:
        if self.family == "A":
            return f"G({self.m},{self.n})"
        if self.family == "C":
            return f"IG({self.m},{2 * self.n})"
        if self.family == "B":
            return f"OG({self.m},{2 * self.n + 1})"
        return f"OG({self.m},{2 * self.n + 2})"

    @property
    def is_maximal(self) -> bool:
        """Whether the isotropic subspaces have the largest possible rank."""
        if self.family == "A":
            return False
        return self.m == (self.n + 1 if self.family == "D" else self.n)

    def k_value(self) -> int:
        """The strictness bound for the partitions indexing Schubert
        varieties: n-m in types B and C, n+1-m in type D."""
        if self.family == "A":
            raise UnsupportedFamilyError("k is defined only for families B, C, D")
        if self.family == "D":
            return self.n + 1 - self.m
        return self.n - self.m

    def dimension(self) -> int:
        if self.family != "A":
            raise UnsupportedFamilyError(
                f"dimension of {self.notation} not implemented (family {self.family})"
            )
        return self.m * (self.n - self.m)

    def c1_degree(self) -> int:
        """Degree of the first Chern class of the tangent bundle; this is
        also the grading degree of the quantum parameter q."""
        if self.family != "A":
            raise UnsupportedFamilyError(
                f"c1 degree of {self.notation} not implemented (family {self.family})"
            )
        return self.n

    def moduli_dimension(self, s: int, d: int) -> int:
        """Dimension of the moduli space of genus-zero degree-d stable maps
        with s marked points: dim X + s - 3 + d * deg c1(X).  Every balance
        check calls it, so it reads dim X = m(n - m) and deg c1(X) = n off
        the fields instead of calling dimension() and c1_degree()."""
        family, m, n = self
        if family != "A":
            self.dimension()  # raises UnsupportedFamilyError, naming the space
        return m * (n - m) + s - 3 + d * n

    def critical_degree(self) -> int:
        """Smallest degree for which two general points lie on a rational
        curve of that degree."""
        if self.family == "A":
            return min(self.m, self.n - self.m)
        if self.family == "C":
            return self.m
        rounded_even = self.m + (self.m % 2)
        return rounded_even // 2 if self.is_maximal else rounded_even

    def kernel_span_dims(self, d: int) -> tuple[int, int]:
        """Dimensions (m-d, m+d) of the kernel/span pair swept out by a
        degree-d rational curve of maximal moving freedom."""
        if not 1 <= d <= min(self.critical_degree(), self.m):
            raise DegreeRangeError(
                f"degree {d} out of range 1..{min(self.critical_degree(), self.m)}"
                f" for {self.notation}"
            )
        return (self.m - d, self.m + d)

    # -- family-A Schubert basis helpers -------------------------------

    @property
    def box_cols(self) -> int:
        """n - m, the width of the box of Schubert classes; an isotropic
        space raises through require_in_box, the one family guard."""
        self.require_in_box()
        return self.n - self.m

    def in_box(self, p: Partition) -> bool:
        return fits_in_box(p, self.m, self.box_cols)

    def require_in_box(self, *classes: Partition) -> None:
        """Raise BoxError unless every one of `classes` indexes a Schubert
        class of the space, naming the first that does not
        (UnsupportedFamilyError first on an isotropic space).  This is the
        one family guard of the Schubert basis: with no classes it checks
        the family alone, which is how box_cols and rim-hook reduction call
        it.  A query passes all its classes in one call.  Products make
        this check in quantum, where their record is built, on the pair in
        the order given, so every cached record is of classes in the box;
        invariants make it once per query.
        It unpacks the fields once and inlines fits_in_box's test, with no
        call per class; a test pins it to in_box on and past the edges of a
        box."""
        family, m, n = self
        if family != "A":
            raise UnsupportedFamilyError("isotropic quantum products out of scope")
        cols = n - m
        for p in classes:
            if len(p) > m or (p and p[0] > cols):
                raise BoxError(
                    f"partition {format_partition(p)} does not fit the "
                    f"{m}x{cols} box of {self.notation}"
                )

    def basis(self) -> list[Partition]:
        """Schubert basis indices in deterministic order."""
        return enumerate_box(self.m, self.box_cols)

    def basis_size_log10(self, stop: float = inf) -> float:
        """log10 C(n, m) as the sum over i = 1..k = min(m, n - m) of
        log10((n - k + i) / i), or a partial sum once it passes `stop`; each
        term is at least log10 2, so that takes at most stop / log10 2 + 1."""
        k = min(self.m, self.box_cols)
        total = 0.0
        for i in range(1, k + 1):
            total += log10(self.n - k + i) - log10(i)
            if total > stop:
                break
        return total

    def basis_size(self, cap_exp: int = 18) -> int:
        """The number of Schubert classes, C(n, m), up to 10^cap_exp, and
        MoreThan(10^cap_exp + 1) past it.  It is computed only when its
        logarithm is not past the cap: C(2000000, 1000000) would take 41 s."""
        stop = cap_exp * (1 + 1e-9)  # room for the float sum's rounding
        if self.basis_size_log10(stop) <= stop and (size := comb(self.n, self.m)) <= 10**cap_exp:
            return size
        return MoreThan(10**cap_exp + 1)

    def dual(self, p: Partition) -> Partition:
        return dual_in_box(p, self.m, self.box_cols)

    def point_class(self) -> Partition:
        """Index of the class of a point: the full box."""
        return (self.box_cols,) * self.m if self.box_cols else ()

    def to_json(self) -> dict:
        return {"family": self.family, "m": self.m, "n": self.n, "notation": self.notation}

    def __str__(self) -> str:
        return self.notation


def grassmannian(m: int, n: int) -> Grassmannian:
    """The ordinary (family A) Grassmannian G(m, n)."""
    return Grassmannian("A", m, n)


# ASCII digits only: \d would also take other scripts' digits, which int() reads
_SPACE_RE = re.compile(r"^(G|IG|OG)\(([0-9]+),([0-9]+)\)$")


def parse_space(text: str) -> Grassmannian:
    """Parse "G(m,n)", "IG(m,2n)", or "OG(m,N)" (odd N is family B, even
    N is family D)."""
    match = _SPACE_RE.match(text.strip())
    if not match:
        raise ValueError(f"bad space syntax: {text!r}")
    kind, m, big = match.group(1), int(match.group(2)), int(match.group(3))
    if kind == "G":
        return Grassmannian("A", m, big)
    if kind == "IG":
        if big % 2:
            raise ValueError(f"bad space syntax: {text!r} (IG needs an even ambient dimension)")
        return Grassmannian("C", m, big // 2)
    if big % 2:
        return Grassmannian("B", m, (big - 1) // 2)
    return Grassmannian("D", m, (big - 2) // 2)
