"""Topology bookkeeping for conifold transitions and nodal-quintic certification.

Three independent pieces of machinery live here.

* Exact Betti/Hodge accounting: contracting N disjoint rigid rational
  curves whose classes span a rank-k subspace and smoothing the resulting
  nodes (vanishing cycles spanning rank c) changes
  (h11, h21) -> (h11 - k, h21 + c), b2 -> b2 - k, b3 -> b3 + 2c, with
  N = k + c.  The four classical worked examples ship as a catalog.

* The first-order smoothability criterion: the nodal variety smooths to
  first order iff some combination sum lambda_i [C_i] = 0 has every
  lambda_i nonzero.  The solver works on integer rows (integral curve
  classes in the geometric case, rational ones scaled to integers) and
  returns an explicit rational witness or None.

* The quintic pencil's nodal member: enumeration of its 125 singular
  points, exact cyclotomic verification that they are critical, and a
  Hessian-nondegeneracy certificate that each is an ordinary double point.
  DworkQuintic evaluates the member, its gradient and its Hessian in closed
  form in the chart Z_0 = 1; the certificate accepts any polynomial object
  with the same three methods.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# the smoothability criterion


def _as_exact(value) -> int | Fraction:
    """Coerce CSV/JSON scalars (integers, rationals, rational strings such as
    "1/2", integral floats) to int or Fraction; booleans are not numbers here."""
    if isinstance(value, bool):
        raise TypeError(f"entry {value!r} is a boolean, not a rational number")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"entry {value!r} is not a rational number") from None
    if isinstance(value, float):
        if not value.is_integer():
            raise TypeError(f"class vectors must be exact; got the non-integral float {value!r}")
        return int(value)
    raise TypeError(f"unsupported class-vector entry {value!r} of type {type(value).__name__}")


@dataclass
class ClassMatrix:
    """N homology-class coordinate vectors of common length m, as integer
    rows: a matrix with non-integral entries is scaled by the lcm of their
    denominators, which keeps every relation sum_i lambda_i rows[i] = 0."""

    rows: tuple

    def __init__(self, rows):
        parsed = tuple(map(tuple, rows))
        if {type(x) for row in parsed for x in row} - {int}:
            parsed = [[_as_exact(x) for x in row] for row in parsed]
            scale = math.lcm(*(x.denominator for row in parsed for x in row))
            parsed = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in parsed)
        if not parsed:
            raise ValueError("need at least one class vector")
        if not parsed[0] or len(set(map(len, parsed))) > 1:
            raise ValueError("class vectors must share a positive length")
        self.rows = parsed

    @property
    def n_classes(self) -> int:
        return len(self.rows)

    @property
    def ambient_rank(self) -> int:
        return len(self.rows[0])


def _integer_rref(mat: list[list], n: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination in place over the integers:
    row operations p * r - f * r_pivot, each row reduced by the gcd of its
    entries.  Pivot row r ends with a nonzero integer p_r in its pivot
    column and zeros in every other pivot column, so dividing it by p_r
    gives the reduced row echelon form over the rationals.  Returns the
    pivot columns."""
    m = len(mat)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        for pivot in range(row, m):
            if mat[pivot][col]:
                break
        else:
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
    return pivots


def friedman_witness(classes: ClassMatrix):
    """An all-nonzero exact combination annihilating the class vectors, or None.

    The system sum_i lambda_i classes.rows[i] = 0 is eliminated
    fraction-free to rows R with pivots p_r.  The kernel basis vector of
    free column f_j is 1 at f_j and -R[r][f_j] / p_r at pivot column r.
    Feasibility holds iff every coordinate is nonzero in some basis vector
    (a vector space over an infinite field is never a finite union of proper
    subspaces).  The witness sum_j s^j (basis vector j) takes the first
    s = 1, 2, ... with every P_r(s) = sum_j R[r][f_j] s^j nonzero; each P_r
    has degree < dim(kernel), so at most n_classes * dim(kernel) values of s
    fail.  The witness is built as integer weights over one denominator,
    the lcm of the p_r, checked exactly on those integers, and returned as
    the Fractions weight / denominator.
    """
    n = classes.n_classes
    mat = [list(col) for col in zip(*classes.rows)]
    pivots = _integer_rref(mat, n)
    free = [c for c in range(n) if c not in pivots]
    coeffs = [[row[f] for f in free] for row in mat[: len(pivots)]]
    if not free or not all(map(any, coeffs)):
        return None
    bound = n * len(free) + 1
    for s in range(1, bound + 1):
        powers = [s**j for j in range(len(free))]
        values = [sum(map(operator.mul, row, powers)) for row in coeffs]
        if all(values):
            heads = [row[pcol] for row, pcol in zip(mat, pivots)]
            denominator = math.lcm(*heads)
            weights = [0] * n
            for f, w in zip(free, powers):
                weights[f] = denominator * w
            for pcol, value, p in zip(pivots, values, heads):
                weights[pcol] = -value * (denominator // p)
            for column in zip(*classes.rows):
                if sum(map(operator.mul, weights, column)):
                    raise AssertionError("witness fails the annihilation identity")
            if not all(weights):
                raise AssertionError("witness has a zero coordinate")
            return [Fraction(w, denominator) for w in weights]
    raise AssertionError("witness search exceeded its deterministic bound")


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

    def euler_drop(self) -> int:
        return euler_characteristic_from_betti(self.betti_before) - euler_characteristic_from_betti(
            self.betti_after
        )


def apply_topology_change(
    h11: int, h21: int, betti, N: int, k: int, c: int, name: str = "", note: str = ""
) -> TransitionRecord:
    """Forward bookkeeping for contracting k independent curve classes among N
    curves and smoothing: h11 drops by k, h21 grows by c, b2 drops by k, b3
    grows by 2c, b1 is unchanged."""
    b1, b2, b3 = betti
    inputs = {"h11": h11, "h21": h21, "b1": b1, "b2": b2, "b3": b3, "k": k, "c": c}
    negative = [f"{name}={value}" for name, value in inputs.items() if value < 0]
    if negative:
        raise ValueError(f"inputs must be nonnegative, got {', '.join(negative)}")
    if N != k + c:
        raise ValueError(f"node count must split: N={N}, k+c={k + c}")
    if h11 < k:
        raise ValueError(f"h11={h11} < k={k}: contraction would leave a negative Hodge number")
    if b2 < k:
        raise ValueError(f"b2={b2} < k={k}: contraction would leave a negative Betti number")
    return TransitionRecord(
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
    return [
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

    def to_affine(self) -> np.ndarray:
        """Coordinates in the chart Z_0 = 1 (canonical form has a_0 = 0)."""
        xi = cmath.exp(2j * math.pi / 5)
        return np.array([xi**a for a in self.exponents[1:]], dtype=complex)


def dwork_singular_points() -> list[ProjectivePoint5]:
    """The 125 singular points of the nodal quintic pencil member: canonical
    exponent tuples with a_0 = 0 and vanishing sum mod 5."""
    points = []
    for a1, a2, a3 in itertools.product(range(5), repeat=3):
        a4 = (-(a1 + a2 + a3)) % 5
        points.append(ProjectivePoint5((0, a1, a2, a3, a4)))
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
# the quintic in the chart Z_0 = 1 and the double-point certificate


class DworkQuintic:
    """The nodal quintic pencil member in the chart Z_0 = 1,
    1 + z_1^5 + z_2^5 + z_3^5 + z_4^5 - 5 z_1 z_2 z_3 z_4,
    with its gradient and Hessian in closed form.  Products and sums run in
    the order of a term-by-term evaluation, so every value agrees bit for
    bit with summing the polynomial's monomials (the tests check this)."""

    def __call__(self, z) -> complex:
        z1, z2, z3, z4 = np.asarray(z, dtype=complex)
        return 1.0 - 5.0 * (z1 * z2 * z3 * z4) + z1**5 + z2**5 + z3**5 + z4**5

    def gradient(self, z) -> np.ndarray:
        z1, z2, z3, z4 = np.asarray(z, dtype=complex)
        return np.array([
            -5.0 * (z2 * z3 * z4) + 5.0 * z1**4,
            -5.0 * (z1 * z3 * z4) + 5.0 * z2**4,
            -5.0 * (z1 * z2 * z4) + 5.0 * z3**4,
            -5.0 * (z1 * z2 * z3) + 5.0 * z4**4,
        ])

    def hessian(self, z) -> np.ndarray:
        z1, z2, z3, z4 = np.asarray(z, dtype=complex)
        h12, h13, h14 = -5.0 * (z3 * z4), -5.0 * (z2 * z4), -5.0 * (z2 * z3)
        h23, h24, h34 = -5.0 * (z1 * z4), -5.0 * (z1 * z3), -5.0 * (z1 * z2)
        return np.array([
            [20.0 * z1**3, h12, h13, h14],
            [h12, 20.0 * z2**3, h23, h24],
            [h13, h23, 20.0 * z3**3, h34],
            [h14, h24, h34, 20.0 * z4**3],
        ])


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


def verify_odps(poly, points) -> list[OdpCertificate]:
    """Certify that critical points of the polynomial are ordinary double
    points.  poly is any callable with gradient and hessian methods, such as
    DworkQuintic; the complex 4x4 Hessian must be nondegenerate, which by the
    holomorphic Morse lemma puts the germ in the sum-of-squares normal form.

    points has shape (N, 4).  The Hessians are stacked, and their spectral
    norms and determinants taken in one call each (the same bits as one call
    per matrix); values, gradient norms, |det| and the thresholds stay per
    point, where numpy's array forms would round differently.

    Raises NotOnVarietyError at the first point that misses the
    hypersurface; a point whose gradient does not vanish gets a
    'not_singular' certificate.
    """
    zs = np.asarray(points, dtype=complex)
    if not len(zs):
        return []
    per_point = []
    hessians = np.empty((len(zs), 4, 4), dtype=complex)
    for z, H in zip(zs, hessians):
        scale_ref = float(1.0 + np.max(np.abs(z))) ** 2
        value = abs(poly(z))
        if value > ODP_VALUE_TOL * scale_ref:
            raise NotOnVarietyError(f"polynomial value {value:.3e} exceeds tolerance at the point")
        per_point.append((scale_ref, value, float(np.linalg.norm(poly.gradient(z)))))
        H[...] = poly.hessian(z)
    hess_scales = np.linalg.norm(hessians, 2, axis=(-2, -1)).tolist()
    dets = np.linalg.det(hessians)
    certs = []
    for (scale_ref, value, grad_norm), hess_scale, det in zip(per_point, hess_scales, dets):
        det = abs(det)
        threshold = ODP_DET_RTOL * hess_scale**4
        if grad_norm > ODP_GRADIENT_TOL * scale_ref:
            status = "not_singular"
        elif det > threshold:
            status = "odp"
        else:
            status = "degenerate_singularity"
        certs.append(
            OdpCertificate(
                status=status,
                value=value,
                gradient_norm=grad_norm,
                hessian_det=det,
                hessian_scale=hess_scale,
                det_threshold=threshold,
            )
        )
    return certs


def verify_odp(poly, point) -> OdpCertificate:
    """verify_odps at one point."""
    return verify_odps(poly, [point])[0]


# Draws per batch of companion-matrix roots: bounds the sampler's working set
# (about 1 KB per draw) whatever the requested count.
_SAMPLER_CHUNK = 4096


def random_dwork_smooth_points(count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of points on the nodal pencil member away from its
    singular set: random (z1, z2, z3), the quintic in z_4 solved by companion
    roots, singular-point neighborhoods excluded.

    Each draw takes radii, phases and a root index from the generator, in
    that order.  The draws still needed are made up front, chunk by chunk,
    and their roots taken by one eigvals over the stacked companion matrices
    (the ones np.roots builds, so the same roots in the same order); the
    draws are then accepted or rejected in draw order."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    poly = DworkQuintic()
    singular = np.array([p.to_affine() for p in dwork_singular_points()])
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        draws = min(count - len(out), _SAMPLER_CHUNK)
        z123 = np.empty((draws, 3), dtype=complex)
        # monic z^5 + 0 z^4 + 0 z^3 + 0 z^2 - 5 z1 z2 z3 z + const
        coeffs = np.zeros((draws, 6), dtype=complex)
        coeffs[:, 0] = 1.0
        picks = np.empty(draws, dtype=np.int64)
        for i in range(draws):
            z123[i] = rng.uniform(0.5, 1.5, 3) * np.exp(2j * math.pi * rng.uniform(0, 1, 3))
            coeffs[i, 4] = -5.0 * np.prod(z123[i])
            coeffs[i, 5] = 1.0 + np.sum(z123[i] ** 5)
            picks[i] = rng.integers(5)
        companion = np.zeros((draws, 5, 5), dtype=complex)
        companion[:, 1:, :-1] = np.eye(4)
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        roots = np.linalg.eigvals(companion)
        for z in np.column_stack([z123, roots[np.arange(draws), picks]]):
            if np.min(np.linalg.norm(singular - z, axis=1)) < 1e-2:
                continue
            if abs(poly(z)) > 1e-9 * (1.0 + np.max(np.abs(z))) ** 2:
                continue
            out.append(z)
    return np.array(out)
