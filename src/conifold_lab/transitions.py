"""Topology bookkeeping for conifold transitions and nodal-quintic certification.

Three independent pieces of machinery live here.

* Exact Betti/Hodge accounting: contracting N disjoint rigid rational
  curves whose classes span a rank-k subspace and smoothing the resulting
  nodes (vanishing cycles spanning rank c) changes
  (h11, h21) -> (h11 - k, h21 + c), b2 -> b2 - k, b3 -> b3 + 2c, with
  N = k + c.  The four classical worked examples ship as a catalog.

* The first-order smoothability criterion: the nodal variety smooths to
  first order iff some combination sum lambda_i [C_i] = 0 has every
  lambda_i nonzero.  The solver works over exact rationals (integral curve
  classes in the geometric case) and returns an explicit witness or None.

* The quintic pencil's nodal member: enumeration of its 125 singular
  points, exact cyclotomic verification that they are critical, and a
  Hessian-nondegeneracy certificate that each is an ordinary double point.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# the smoothability criterion


def _as_exact(value) -> Fraction:
    """Coerce CSV/JSON scalars (integers, rationals, rational strings such as
    "1/2", integral floats) to Fraction."""
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    if isinstance(value, float):
        if value != int(value):
            raise TypeError("class vectors must be exact; got a non-integral float")
        return Fraction(int(value))
    raise TypeError(f"unsupported class-vector entry of type {type(value).__name__}")


@dataclass
class ClassMatrix:
    """N homology-class coordinate vectors of common length m, exact entries."""

    rows: tuple

    def __init__(self, rows):
        parsed = tuple(tuple(_as_exact(x) for x in row) for row in rows)
        if not parsed:
            raise ValueError("need at least one class vector")
        m = len(parsed[0])
        if m < 1 or any(len(r) != m for r in parsed):
            raise ValueError("class vectors must share a positive length")
        self.rows = parsed

    @property
    def n_classes(self) -> int:
        return len(self.rows)

    @property
    def ambient_rank(self) -> int:
        return len(self.rows[0])

    @classmethod
    def from_csv_text(cls, text: str) -> "ClassMatrix":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([cell.strip() for cell in line.split(",")])
        return cls(rows)


def _integer_rref(mat: list[list], n: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place over the integers:
    row operations p * r - f * r_pivot, each row reduced by the gcd of its
    entries.  Pivot rows are then divided exactly by their pivots, which
    leaves the reduced row echelon form over the rationals (it is unique).
    Returns the pivot columns."""
    m = len(mat)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        prow = mat[row]
        p = prow[col]
        for r in range(m):
            if r != row and mat[r][col]:
                f = mat[r][col]
                new = [p * a - f * b for a, b in zip(mat[r], prow)]
                g = math.gcd(*new)
                mat[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r, col in enumerate(pivots):
        p = mat[r][col]
        mat[r] = [Fraction(x, p) for x in mat[r]]
    return pivots


def _kernel_basis(columns) -> list[list]:
    """Kernel of the linear map lambda -> sum_i lambda_i columns[i], where the
    i-th unknown multiplies columns[i], with Fraction entries.  The system is
    multiplied by the lcm of all denominators, which leaves its row space and
    so its reduced row echelon form unchanged, and then eliminated
    fraction-free over the integers.  The basis has one vector per free
    column f, with vec[f] = 1 and the pivots solved."""
    n = len(columns)
    m = len(columns[0]) if columns else 0
    mat = [[columns[i][j] for i in range(n)] for j in range(m)]
    scale = math.lcm(*(x.denominator for row in mat for x in row))
    mat = [[x.numerator * (scale // x.denominator) for x in row] for row in mat]
    pivots = _integer_rref(mat, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    zero, one = Fraction(0), Fraction(1)
    for f in free:
        vec = [zero] * n
        vec[f] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][f]
        basis.append(vec)
    return basis


def friedman_witness(classes: ClassMatrix):
    """An all-nonzero exact combination annihilating the class vectors, or None.

    Feasibility holds iff for every index i some kernel vector is nonzero in
    coordinate i (a vector space over an infinite field is never a finite
    union of proper subspaces).  The witness is sum_j s^j k_j over the kernel
    basis with s = 1, 2, 3, ... the first value making every coordinate
    nonzero; each coordinate is a nonzero polynomial of degree < dim(kernel)
    in s, so at most n_classes * dim(kernel) values can fail.
    """
    n = classes.n_classes
    basis = _kernel_basis(classes.rows)
    if not basis:
        return None
    for i in range(n):
        if not any(vec[i] for vec in basis):
            return None
    bound = n * len(basis) + 1
    for s in range(1, bound + 1):
        lam = [Fraction(0)] * n
        power = Fraction(1)
        for vec in basis:
            lam = [acc + power * x for acc, x in zip(lam, vec)]
            power = power * s
        if all(lam):
            _assert_witness(classes, lam)
            return lam
    raise AssertionError("witness search exceeded its deterministic bound")


def _assert_witness(classes: ClassMatrix, lam) -> None:
    m = classes.ambient_rank
    for j in range(m):
        total = sum((lam[i] * classes.rows[i][j] for i in range(classes.n_classes)), Fraction(0))
        if total:
            raise AssertionError("witness fails the annihilation identity")
    if not all(lam):
        raise AssertionError("witness has a zero coordinate")


# ---------------------------------------------------------------------------
# topology change arithmetic


def euler_characteristic_from_betti(betti) -> int:
    """Topological Euler characteristic of a closed oriented 6-manifold from
    (b1, b2, b3), using b0 = b6 = 1, b4 = b2, b5 = b1."""
    b1, b2, b3 = betti
    return 2 - 2 * b1 + 2 * b2 - b3


@dataclass
class TransitionRecord:
    """Before/after topology of one conifold transition."""

    name: str
    N: int
    k: int
    c: int
    hodge_before: tuple[int, int]  # (h11, h21)
    hodge_after: tuple[int, int]
    betti_before: tuple[int, int, int]  # (b1, b2, b3)
    betti_after: tuple[int, int, int]
    note: str = ""

    def validate(self) -> None:
        if self.N != self.k + self.c:
            raise ValueError(f"node count must split: N={self.N}, k+c={self.k + self.c}")
        for pair in (self.hodge_before, self.hodge_after):
            if any(h < 0 for h in pair):
                raise ValueError("negative Hodge number")
        for b in (self.betti_before, self.betti_after):
            if any(x < 0 for x in b):
                raise ValueError("negative Betti number")
        if self.k < 0 or self.c < 0:
            raise ValueError("ranks must be nonnegative")

    def euler_drop(self) -> int:
        return euler_characteristic_from_betti(self.betti_before) - euler_characteristic_from_betti(
            self.betti_after
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "N": self.N,
            "k": self.k,
            "c": self.c,
            "hodge_before": list(self.hodge_before),
            "hodge_after": list(self.hodge_after),
            "betti_before": list(self.betti_before),
            "betti_after": list(self.betti_after),
            "note": self.note,
        }


def apply_topology_change(
    h11: int, h21: int, betti, N: int, k: int, c: int, name: str = "", note: str = ""
) -> TransitionRecord:
    """Forward bookkeeping for contracting k independent curve classes among N
    curves and smoothing: h11 drops by k, h21 grows by c, b2 drops by k, b3
    grows by 2c, b1 is unchanged."""
    if N != k + c:
        raise ValueError(f"node count must split: N={N}, k+c={k + c}")
    if h11 < k:
        raise ValueError(f"h11={h11} < k={k}: contraction would leave a negative Hodge number")
    b1, b2, b3 = betti
    if b2 < k:
        raise ValueError(f"b2={b2} < k={k}: contraction would leave a negative Betti number")
    record = TransitionRecord(
        name=name,
        N=N,
        k=k,
        c=c,
        hodge_before=(h11, h21),
        hodge_after=(h11 - k, h21 + c),
        betti_before=(b1, b2, b3),
        betti_after=(b1, b2 - k, b3 + 2 * c),
        note=note,
    )
    record.validate()
    return record


def infer_counts(h_before, h_after, N: int) -> tuple[int, int]:
    """Invert the Hodge bookkeeping: k from the h11 drop, c from the h21 rise;
    they must sum to the node count."""
    k = h_before[0] - h_after[0]
    if k < 0:
        raise ValueError(f"violated: h11_before - h11_after >= 0 (got {k})")
    c = h_after[1] - h_before[1]
    if c < 0:
        raise ValueError(f"violated: h21_after - h21_before >= 0 (got {c})")
    if N != k + c:
        raise ValueError(f"violated: N = k + c (N={N}, k={k}, c={c})")
    return k, c


def example_catalog() -> list[TransitionRecord]:
    """The four classical worked transitions with full before/after topology.

    The generic nodal quintic is recorded in the resolution -> smoothing
    direction with its single exceptional curve homologically trivial
    (k = 0, c = 1); the interesting reading is the reverse one, where the
    small resolution of a one-node quintic degeneration cannot be Kaehler.
    """
    entries = [
        apply_topology_change(
            1,
            100,
            (0, 1, 202),
            N=1,
            k=0,
            c=1,
            name="generic_nodal_quintic",
            note=(
                "Reverse-direction reading: the single exceptional curve is "
                "homologically trivial, so the small resolution is non-Kaehler."
            ),
        ),
        apply_topology_change(
            25,
            0,
            (0, 25, 2),
            N=125,
            k=24,
            c=101,
            name="schoen_quintic_resolution",
            note="Rigid projective small resolution of the 125-node quintic.",
        ),
        apply_topology_change(
            101,
            0,
            (0, 101, 2),
            N=1,
            k=0,
            c=1,
            name="mirror_quintic",
            note="Rigid non-Kaehler resolution of the one-node mirror-quintic degeneration.",
        ),
        apply_topology_change(
            14,
            23,
            (0, 14, 48),
            N=15,
            k=14,
            c=1,
            name="tian_yau",
            note="Fifteen curves spanning rank 14; the smoothing is a connected sum "
            "of 25 copies of S^3 x S^3.",
        ),
    ]
    for rec in entries:
        rec.validate()
    return entries


# ---------------------------------------------------------------------------
# the nodal quintic pencil member


@dataclass(frozen=True)
class ProjectivePoint5:
    """A point [xi^{a_0} : ... : xi^{a_4}] with fifth-root-of-unity coordinates,
    canonicalized by the global shift so that a_0 = 0."""

    exponents: tuple[int, int, int, int, int]

    def __init__(self, exponents):
        exps = tuple(int(a) % 5 for a in exponents)
        if len(exps) != 5:
            raise ValueError("need five exponents")
        if sum(exps) % 5 != 0:
            raise ValueError("exponent sum must vanish mod 5")
        shift = exps[0]
        object.__setattr__(self, "exponents", tuple((a - shift) % 5 for a in exps))

    def to_homogeneous(self) -> np.ndarray:
        xi = cmath.exp(2j * math.pi / 5)
        return np.array([xi**a for a in self.exponents], dtype=complex)

    def to_affine(self) -> np.ndarray:
        """Coordinates in the chart Z_0 = 1 (canonical form has a_0 = 0)."""
        return self.to_homogeneous()[1:]


def dwork_singular_points() -> list[ProjectivePoint5]:
    """The 125 singular points of the nodal quintic pencil member: canonical
    exponent tuples with a_0 = 0 and vanishing sum mod 5."""
    points = []
    for a1, a2, a3 in itertools.product(range(5), repeat=3):
        a4 = (-(a1 + a2 + a3)) % 5
        points.append(ProjectivePoint5((0, a1, a2, a3, a4)))
    assert len(points) == 125
    return points


def verify_dwork_point_exact(point: ProjectivePoint5) -> bool:
    """Exact cyclotomic check that the polynomial and its full projective
    gradient vanish at the point.

    Arithmetic happens in Z[x]/(x^5 - 1) via exponent bookkeeping; an element
    vanishes in the ring of integers of the fifth cyclotomic field iff its
    coefficient vector is constant.
    """

    def basis_vector(exp: int, scale: int = 1) -> list[int]:
        vec = [0] * 5
        vec[exp % 5] = scale
        return vec

    def is_zero(vec: list[int]) -> bool:
        return len(set(vec)) == 1

    a = point.exponents
    total = sum(a) % 5
    value = [0] * 5
    for ai in a:
        value = [x + y for x, y in zip(value, basis_vector(5 * ai))]
    value = [x - y for x, y in zip(value, basis_vector(total, 5))]
    if not is_zero(value):
        return False
    for i in range(5):
        grad = [
            x - y
            for x, y in zip(basis_vector(4 * a[i], 5), basis_vector(total - a[i], 5))
        ]
        if not is_zero(grad):
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials in four affine variables and the double-point certificate


@dataclass
class Polynomial4:
    """Sparse polynomial in four variables: exponent tuple -> complex coefficient."""

    terms: dict

    def __post_init__(self) -> None:
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 4 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            if coeff != 0:
                clean[exps] = complex(coeff)
        self.terms = clean

    def __call__(self, z) -> complex:
        z = np.asarray(z, dtype=complex)
        return sum(
            coeff * np.prod([z[i] ** e for i, e in enumerate(exps) if e])
            for exps, coeff in self.terms.items()
        )

    def derivative(self, i: int) -> "Polynomial4":
        out: dict = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + coeff * exps[i]
        return Polynomial4(out)

    def gradient(self, z) -> np.ndarray:
        return np.array([self.derivative(i)(z) for i in range(4)], dtype=complex)

    def hessian(self, z) -> np.ndarray:
        H = np.empty((4, 4), dtype=complex)
        for i in range(4):
            di = self.derivative(i)
            for j in range(i, 4):
                H[i, j] = H[j, i] = di.derivative(j)(z)
        return H

    @classmethod
    def sum_of_squares(cls) -> "Polynomial4":
        return cls({tuple(2 if j == i else 0 for j in range(4)): 1.0 for i in range(4)})


def dwork_polynomial() -> Polynomial4:
    """The nodal quintic pencil member in the chart Z_0 = 1:
    1 + z_1^5 + z_2^5 + z_3^5 + z_4^5 - 5 z_1 z_2 z_3 z_4."""
    terms = {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): -5.0}
    for i in range(4):
        terms[tuple(5 if j == i else 0 for j in range(4))] = 1.0
    return Polynomial4(terms)


class NotOnVarietyError(ValueError):
    """Raised when the queried point does not satisfy the polynomial equation."""


@dataclass
class OdpCertificate:
    """Diagnostics of the double-point test at one point."""

    status: str  # "odp" | "degenerate_singularity" | "not_singular"
    value: float
    gradient_norm: float
    hessian_det: float
    hessian_scale: float
    det_threshold: float

    @property
    def is_odp(self) -> bool:
        return self.status == "odp"


ODP_DET_RTOL = 1e-8
ODP_VALUE_TOL = 1e-8
ODP_GRADIENT_TOL = 1e-6


def verify_odp(
    poly: Polynomial4,
    point,
    value_tol: float = ODP_VALUE_TOL,
    gradient_tol: float = ODP_GRADIENT_TOL,
) -> OdpCertificate:
    """Certify that a critical point of the polynomial is an ordinary double
    point: the complex 4x4 Hessian must be nondegenerate, which by the
    holomorphic Morse lemma puts the germ in the sum-of-squares normal form.

    Raises NotOnVarietyError if the point misses the hypersurface; returns a
    'not_singular' certificate when the gradient does not vanish.
    """
    z = np.asarray(point, dtype=complex)
    scale_ref = float(1.0 + np.max(np.abs(z))) ** 2
    value = abs(poly(z))
    if value > value_tol * scale_ref:
        raise NotOnVarietyError(f"polynomial value {value:.3e} exceeds tolerance at the point")
    grad_norm = float(np.linalg.norm(poly.gradient(z)))
    H = poly.hessian(z)
    hess_scale = float(np.linalg.norm(H, 2))
    det = abs(np.linalg.det(H))
    threshold = ODP_DET_RTOL * hess_scale**4
    if grad_norm > gradient_tol * scale_ref:
        status = "not_singular"
    elif det > threshold:
        status = "odp"
    else:
        status = "degenerate_singularity"
    return OdpCertificate(
        status=status,
        value=value,
        gradient_norm=grad_norm,
        hessian_det=det,
        hessian_scale=hess_scale,
        det_threshold=threshold,
    )


def random_dwork_smooth_points(count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of points on the nodal pencil member away from its
    singular set: random (z1, z2, z3), the quintic in z_4 solved by companion
    roots, singular-point neighborhoods excluded."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    poly = dwork_polynomial()
    singular = np.array([p.to_affine() for p in dwork_singular_points()])
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z123 = rng.uniform(0.5, 1.5, 3) * np.exp(2j * math.pi * rng.uniform(0, 1, 3))
        const = 1.0 + np.sum(z123**5)
        roots = np.roots([1.0, 0.0, 0.0, 0.0, -5.0 * np.prod(z123), const])
        z = np.append(z123, roots[int(rng.integers(len(roots)))])
        if np.min(np.linalg.norm(singular - z, axis=1)) < 1e-2:
            continue
        if abs(poly(z)) > 1e-9 * (1.0 + np.max(np.abs(z))) ** 2:
            continue
        out.append(z)
    return np.array(out)
