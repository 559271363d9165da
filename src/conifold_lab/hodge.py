"""Exact Hodge diamonds of smooth projective hypersurfaces.

Everything here is integer arithmetic.  The only inputs are the ambient
projective dimension n and the degree d of a smooth hypersurface
``X = {F = 0}`` in P^n.  By Griffiths' residue theorem the primitive middle
cohomology of X is the Jacobian ring C[x_0..x_n] / (dF/dx_i) in the degrees
(p+1)d - n - 1, whose dimensions are coefficients of the Hilbert series
((1 - t^{d-1}) / (1 - t))^{n+1}.  Off-middle Hodge numbers are Kronecker
deltas by the Lefschetz hyperplane theorem plus Serre duality.  The
diamond is read off from chi(Omega_X^p), one closed form per p.

Smoothness of X is assumed, not checked: the formula is valid for any
(n, d) but only computes Hodge numbers of an actual manifold when the
hypersurface is smooth.  n and d are bounded (MAX_DIMENSION, MAX_DEGREE)
so that the largest diamond takes well under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from conifold_lab.transitions import abbreviated

# The diamond costs about n^2 / 2 binomials of (n log2(n d))-bit integers:
# n = 200, d = 300 takes about 0.7 s on a 2-vCPU Xeon guest.
MAX_DIMENSION = 200
MAX_DEGREE = 300


@dataclass(frozen=True)
class HypersurfaceSpec:
    """A degree-d hypersurface in P^n, assumed smooth."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if not 2 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"ambient projective dimension n must lie in [2, {MAX_DIMENSION}], "
                             f"got {abbreviated(str(self.n))}")
        if not 1 <= self.d <= MAX_DEGREE:
            raise ValueError(f"degree d must lie in [1, {MAX_DEGREE}], got {abbreviated(str(self.d))}")

    @property
    def is_calabi_yau(self) -> bool:
        return self.d == self.n + 1

    @property
    def dim(self) -> int:
        """Complex dimension of the hypersurface."""
        return self.n - 1


def jacobian_ring_dimension(spec: HypersurfaceSpec, k: int) -> int:
    """Dimension of the degree-k part of the Jacobian ring
    C[x_0..x_n] / (dF/dx_0, ..., dF/dx_n) of a smooth degree-d hypersurface.

    The n + 1 partials form a regular sequence of degree d - 1, so the
    Hilbert series is ((1 - t^{d-1}) / (1 - t))^{n+1} and the coefficient
    of t^k is sum_j (-1)^j C(n+1, j) C(k - j(d-1) + n, n) over the terms
    with k - j(d-1) >= 0.  (For d = 1 the partials are nonzero constants:
    the ring and the coefficient are both zero.)
    """
    n, step = spec.n, spec.d - 1
    return sum(
        (-1) ** j * math.comb(n + 1, j) * math.comb(k - j * step + n, n)
        for j in range(n + 2)
        if k - j * step >= 0
    )


def chi_hypersurface_omega_p(spec: HypersurfaceSpec, p: int) -> int:
    """chi(Omega_X^p) for the hypersurface X of dimension m = n - 1, exact.

    By Griffiths' residue theorem the primitive part of H^{p,m-p}(X) is the
    degree (m-p+1)d - n - 1 part of the Jacobian ring; the Lefschetz
    hyperplane theorem puts a single 1 at h^{p,p} and zeros elsewhere off
    the middle row.  So chi(Omega_X^p) = (-1)^p + (-1)^{m-p} J.
    """
    m = spec.dim
    if p < 0 or p > m:
        raise ValueError(f"form degree p={p} out of range [0, {m}]")
    k = (m - p + 1) * spec.d - spec.n - 1
    return (-1) ** p + (-1) ** (m - p) * jacobian_ring_dimension(spec, k)


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

    def check_invariants(self) -> str | None:
        """The first violation of conjugation symmetry, Serre duality, the
        Lefschetz deltas or nonnegativity, or None when there is none."""
        m = self.dim
        for p in range(m + 1):
            for q in range(m + 1):
                h = self.entries[p][q]
                if h < 0:
                    return f"negative Hodge number h^{p},{q} = {h}"
                if h != self.entries[q][p]:
                    return "conjugation symmetry violated"
                if h != self.entries[m - p][m - q]:
                    return "Serre duality violated"
                if p + q != m and h != (1 if p == q else 0):
                    return "Lefschetz range violated"
        return None

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
        chi_p = chi_hypersurface_omega_p(spec, p)
        if 2 * p == m:
            entries[p][m - p] = (-1) ** p * chi_p
        else:
            entries[p][m - p] = (-1) ** (m - p) * (chi_p - (-1) ** p)
    return HodgeDiamond(dim=m, entries=entries)


def moduli_dimension(n: int, d: int) -> int:
    """Dimension of the space of degree-d hypersurfaces in P^n modulo scaling
    and projective automorphisms: C(n+d, d) - 1 - ((n+1)^2 - 1)."""
    return math.comb(n + d, d) - 1 - ((n + 1) ** 2 - 1)
