"""Exact Hodge diamonds of smooth projective hypersurfaces.

Everything here is integer arithmetic.  The only inputs are the ambient
projective dimension n and the degree d of a smooth hypersurface
``X = {F = 0}`` in P^n.  Twisted holomorphic Euler characteristics
``chi(Omega_X^p(-r))`` are computed by a double recursion built from three
short exact sequences (Euler sequence, conormal sequence, restriction
sequence), and the middle row of the Hodge diamond is read off from them.
Off-middle Hodge numbers are Kronecker deltas by the Lefschetz hyperplane
theorem plus Serre duality.

Smoothness of X is assumed, not checked: the recursion is valid for any
(n, d) but only computes Hodge numbers of an actual manifold when the
hypersurface is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def ext_binomial(m: int, n: int) -> int:
    """Binomial coefficient extended to all integer m as a degree-n polynomial.

    Defined by ``prod_{i=0..n-1}(m - i) / n!``.  Agrees with math.comb for
    m >= n >= 0, vanishes for 0 <= m < n, and takes signed values for m < 0.
    """
    if n < 0:
        raise ValueError("lower index must be >= 0")
    num = 1
    for i in range(n):
        num *= m - i
    q, rem = divmod(num, math.factorial(n))
    assert rem == 0, "product of consecutive integers must divide n!"
    return q


def chi_line_bundle(n: int, m: int) -> int:
    """chi(O_{P^n}(m)) as an exact integer, for any integer twist m.

    This is the polynomial ``prod_{i=1..n}(m + i) / n!``, the unique
    polynomial extension of dim H^0(P^n, O(m)) = C(n+m, n); for m = -r < 0
    it equals (-1)^n * C(r-1, n).
    """
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    return ext_binomial(m + n, n)


def chi_omega_p_twist(n: int, p: int, r: int) -> int:
    """chi(Omega_{P^n}^p(-r)) by the wedge-power recursion on the Euler sequence.

    chi(Omega^p(-r)) = C(n+1, p) * chi(O(-p-r)) - chi(Omega^{p-1}(-r)),
    with base case p = 0 given by chi_line_bundle.
    """
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    if p < 0 or p > n:
        raise ValueError(f"form degree p={p} out of range [0, {n}]")
    if r < 0:
        raise ValueError("twist r must be >= 0")
    chi = chi_line_bundle(n, -r)  # p = 0
    for q in range(1, p + 1):
        chi = math.comb(n + 1, q) * chi_line_bundle(n, -q - r) - chi
    return chi


@dataclass(frozen=True)
class HypersurfaceSpec:
    """A degree-d hypersurface in P^n, assumed smooth."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("ambient projective dimension must be >= 2")
        if self.d < 1:
            raise ValueError("degree must be >= 1")

    @property
    def is_calabi_yau(self) -> bool:
        return self.d == self.n + 1

    @property
    def dim(self) -> int:
        """Complex dimension of the hypersurface."""
        return self.n - 1


def chi_restricted_omega_p(spec: HypersurfaceSpec, p: int, r: int = 0) -> int:
    """chi of the ambient p-forms restricted to X, twisted by O(-r):
    the restriction sequence gives chi(Omega_P^p(-r)) - chi(Omega_P^p(-r-d))."""
    n, d = spec.n, spec.d
    return chi_omega_p_twist(n, p, r) - chi_omega_p_twist(n, p, r + d)


def chi_hypersurface_omega_p(spec: HypersurfaceSpec, p: int, r: int = 0) -> int:
    """chi(Omega_X^p(-r)) for the hypersurface X, exact.

    Conormal sequence plus restriction sequence give
    chi(Omega_X^p(-r)) = [chi(Omega_P^p(-r)) - chi(Omega_P^p(-r-d))]
                          - chi(Omega_X^{p-1}(-r-d)),
    with the p = 0 base case chi(O_X(-r)) = chi(O_P(-r)) - chi(O_P(-r-d)).
    """
    n, d = spec.n, spec.d
    if p < 0 or p > n - 1:
        raise ValueError(f"form degree p={p} out of range [0, {n - 1}]")
    if r < 0:
        raise ValueError("twist r must be >= 0")
    chi = chi_line_bundle(n, -(r + p * d)) - chi_line_bundle(n, -(r + (p + 1) * d))
    for q in range(1, p + 1):
        chi = chi_restricted_omega_p(spec, q, r + (p - q) * d) - chi
    return chi


@dataclass
class HodgeDiamond:
    """Exact Hodge numbers h^{p,q} of a compact complex manifold of dimension dim."""

    dim: int
    entries: list[list[int]] = field(repr=False)

    def h(self, p: int, q: int) -> int:
        return self.entries[p][q]

    def middle_row(self) -> tuple[int, ...]:
        return tuple(self.entries[p][self.dim - p] for p in range(self.dim + 1))

    def betti(self, k: int) -> int:
        return sum(
            self.entries[p][k - p] for p in range(max(0, k - self.dim), min(k, self.dim) + 1)
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.betti(k) for k in range(2 * self.dim + 1))

    def check_invariants(self) -> None:
        """Assert conjugation symmetry, Serre duality, the Lefschetz deltas
        and nonnegativity; raises AssertionError on violation."""
        m = self.dim
        for p in range(m + 1):
            for q in range(m + 1):
                h = self.entries[p][q]
                assert h >= 0, f"negative Hodge number h^{p},{q} = {h}"
                assert h == self.entries[q][p], "conjugation symmetry violated"
                assert h == self.entries[m - p][m - q], "Serre duality violated"
                if p + q != m:
                    assert h == (1 if p == q else 0), "Lefschetz range violated"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "h": [list(row) for row in self.entries]}


def hodge_diamond(spec: HypersurfaceSpec) -> HodgeDiamond:
    """Hodge diamond of a smooth degree-d hypersurface in P^n, n >= 3.

    All entries off the middle row p + q = n - 1 are delta_{pq}.  The middle
    row is recovered from the Euler characteristics chi(Omega_X^p): writing
    chi_p = sum_q (-1)^q h^{p,q}, the off-diagonal middle entry is
    h^{p,n-1-p} = (-1)^{n-1-p} (chi_p - (-1)^p), while on the middle diagonal
    (p = n-1-p, n odd) the delta contribution is part of the middle Hodge
    number itself and h^{p,p} = (-1)^p chi_p.
    """
    n = spec.n
    if n < 3:
        raise ValueError("middle-row formula needs n >= 3 (Lefschetz range)")
    m = n - 1
    entries = [[1 if (p == q and p + q != m) else 0 for q in range(m + 1)] for p in range(m + 1)]
    for p in range(m + 1):
        chi_p = chi_hypersurface_omega_p(spec, p, 0)
        if 2 * p == m:
            entries[p][m - p] = (-1) ** p * chi_p
        else:
            entries[p][m - p] = (-1) ** (m - p) * (chi_p - (-1) ** p)
    diamond = HodgeDiamond(dim=m, entries=entries)
    return diamond


def moduli_dimension(n: int, d: int) -> int:
    """Dimension of the space of degree-d hypersurfaces in P^n modulo scaling
    and projective automorphisms: C(n+d, d) - 1 - ((n+1)^2 - 1)."""
    return math.comb(n + d, d) - 1 - ((n + 1) ** 2 - 1)


def quintic_moduli_dimension() -> int:
    """Moduli count for quintic threefolds in P^4 (equals 101)."""
    return moduli_dimension(4, 5)


def quartic_k3_moduli_dimension() -> int:
    """Moduli count for quartic K3 surfaces in P^3 (equals 19)."""
    return moduli_dimension(3, 4)
