"""The smoothability criterion and the nodal quintic's certificate: two independent pieces of machinery.

* The first-order smoothability criterion: the nodal variety smooths to
  first order iff some combination sum lambda_i [C_i] = 0 has every
  lambda_i nonzero.  The solver works on stacks of integer class matrices
  (integral curve classes in the geometric case, rational ones scaled to
  integers) and returns a verdict and an exact witness for each.  Its
  elimination is int64 where a Hadamard bound proves it safe and continues
  modulo word-size primes past it, the integers rebuilt by the Chinese
  remainder theorem from primes that agree on every pivot.

* The quintic pencil's nodal member: its 125 singular points as one array
  of exponents, exact cyclotomic verification that they are critical, and a
  Hessian-nondegeneracy certificate that each is an ordinary double point.
  DworkQuintic evaluates the member, its gradient and its Hessian in closed
  form in the chart Z_0 = 1; the certificate accepts any polynomial object
  with the same three methods.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from conifold_lab.checks import abbreviated
from conifold_lab.exterior import _product

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
            raise ValueError(f"entry {abbreviated(repr(value))} is not a rational number") from None
    if isinstance(value, float):
        if not value.is_integer():
            kind = "non-integral" if math.isfinite(value) else "non-finite"
            raise TypeError(f"class vectors must be exact; got the {kind} float {value!r}")
        return int(value)
    raise TypeError(f"unsupported class-vector entry {abbreviated(repr(value))} of type {type(value).__name__}")


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


def _int64_steps(n: int, m: int, peaks: list[int]) -> tuple[int, bool]:
    """How far friedman_witnesses may compute in int64 on n classes of length
    m whose largest |entries| are peaks, in decreasing order: the columns its
    elimination may take (n for all), and whether its witness fits too.  A
    t x t minor is below D_t = t^(t/2) peaks[0] ... peaks[t - 1] (Hadamard),
    and the column that takes the t-th pivot multiplies two of them.  Weights
    and values P_r(s), s <= n^2 + 1, are below D n (n^2 + 1)^(n - 1) with
    D = max D_t, and the check adds n of them times entries <= peaks[0]."""
    product = minor_squared = 1
    for t in range(1, min(n, m) + 1):
        product *= peaks[t - 1]
        minor_squared = max(minor_squared, t**t * product * product)
        if 2 * minor_squared >= 2**63:
            return t - 1, False
    witness = n * n * peaks[0] * (n * n + 1) ** (n - 1)
    return n, witness * witness * minor_squared < 2**126


@functools.cache
def _primes(count: int) -> tuple[int, ...]:
    """The count largest primes below 2^31, largest first, so that a product of two residues stays below
    2^62; no composite below 4,759,123,141 is a strong probable prime to the bases 2, 7 and 61."""
    primes, n = [], 2**31 + 1
    while len(primes) < count:
        n -= 2
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
        d = (n - 1) >> s
        if all(pow(b, d, n) == 1 or n - 1 in [pow(b, d << i, n) for i in range(s)] for b in (2, 7, 61)):
            primes.append(n)
    return tuple(primes)


def _eliminate(a, steps, primes=()):
    """friedman_witnesses' elimination of a stack a (B, m, n): (a, q, pivot, pivot_row, open_rows).
    From column steps on, a holds each matrix's residues modulo each of the primes: (B k, m, n)."""
    count, m, n = a.shape
    stack, q = np.arange(count), np.ones((count, 1, 1), dtype=a.dtype)
    open_rows, pivot = ~np.zeros((count, m), dtype=bool), np.zeros((count, n), dtype=bool)
    pivot_row = np.zeros((count, n), dtype=np.intp)
    for c in range(n):
        if c == steps:
            a, q, open_rows, pivot, pivot_row = (x.repeat(len(primes), 0) for x in (a, q, open_rows, pivot, pivot_row))
            moduli, count, stack = np.tile(primes, count)[:, None, None], len(a), np.arange(len(a))
            a, q = (a % moduli).astype(np.int64), (q % moduli).astype(np.int64)
            a[q[:, 0, 0] == 0], pivot[q[:, 0, 0] == 0], q[q == 0] = 0, False, 1  # a prime dividing q pivots nowhere
        col = a[:, :, c]
        candidates = open_rows & col.astype(bool)
        r = candidates.argmax(axis=1)
        at = (slice(None), int(r[0])) if count == 1 else (stack, r)  # a view for a stack of one
        found = candidates[at]
        if not np.count_nonzero(found):
            continue
        prow = a[at]
        p = np.where(found[:, None, None], prow[:, None, c : c + 1], q)
        f = (col * found[:, None])[:, :, None]
        if c < steps:
            a = (p * a - f * prow[:, None, :]) // q
        else:  # in residues: the division by q is a multiplication by its inverse
            inverse = np.array(list(map(pow, q.ravel().tolist(), [-1] * count, moduli.ravel().tolist())))[:, None, None]
            a *= p * inverse % moduli
            a -= f * inverse % moduli * prow[:, None, :]
            for i, prime in enumerate(primes):  # numpy divides by a scalar several times faster
                a[i :: len(primes)] -= a[i :: len(primes)] // prime * prime
        a[at], q = prow, p
        open_rows[at] ^= found
        pivot_row[:, c], pivot[:, c] = r, found
        if c + 1 >= m and not np.count_nonzero(open_rows):
            break
    return a, q, pivot, pivot_row, open_rows


def _eliminate_modular(a, steps, peaks, first=0):
    """_eliminate's integers (dtype object) past column steps, by Garner's mixed-radix CRT from k primes
    from _primes()[first] on, each above 2^30, whose product M exceeds 2 D: every integer is a minor, below D,
    D^2 = max_t t^t (peaks[0] ... peaks[t - 1])^2 (Hadamard).  Matrices whose primes disagree on the pivots
    (friedman_witnesses) run again from the next prime on."""
    count, m, n = a.shape
    bound = max(t**t * math.prod(peaks[:t]) ** 2 for t in range(1, min(n, m) + 1))
    k = max(2, -(-(bound.bit_length() + 2) // 60))  # M^2 > 2^(60 k) >= 4 D^2
    primes = _primes(first + k)[first:]
    e, q, pivot, pivot_row, open_rows = _eliminate(a, steps, primes)
    residues = np.concatenate([e.reshape(count, k, -1), q.reshape(count, k, 1)], axis=2)
    keys = np.where(pivot, pivot_row, m).reshape(count, k, n)
    digits = np.empty((k,) + residues[:, 0].shape, dtype=np.int64)
    for i, p in enumerate(primes):  # balanced: sum_i digits[i] prod(primes[:i]) lies within +-M/2
        radices = np.array([math.prod(primes[:j]) % p for j in range(i)]).reshape(-1, 1, 1)
        t = (digits[:i] * radices % p).sum(axis=0) % p
        digits[i] = (residues[:, i] - t) * pow(math.prod(primes[:i]), -1, p) % p
        digits[i] -= p * (2 * digits[i] > p)
    exact = (digits[-1] * primes[-2] + digits[-2]).astype(object)  # below 2^62
    for j in range(k - 3, -1, -1):
        exact = exact * primes[j] + digits[j]
    found = exact[:, :-1].reshape(count, m, n), exact[:, -1:, None], pivot[::k], pivot_row[::k], open_rows[::k]
    redo = np.flatnonzero((keys != keys[:, :1]).any(axis=(1, 2)))
    if len(redo):
        for whole, part in zip(found, _eliminate_modular(a[redo], steps, peaks, first + 1)):
            whole[redo] = part
    return found


def friedman_witnesses(mats):
    """Smoothability of each matrix of a stack (B, n, m) of integer class
    vectors: (feasible (B,), weights (B, n), denominators (B,)), the witness
    of a feasible matrix b being weights[b] / denominators[b].

    sum_i lambda_i mats[b, i] = 0 is eliminated fraction-free, class by
    class over the whole stack (Bareiss-Jordan): each matrix pivots on its
    first row without a pivot that is nonzero in the column, if any, and
    with that pivot p and the previous one q every other row r becomes
    (p r - f r_pivot) // q, f its entry in the column, an exact division.
    The pivot rows end as q times the rows of the reduced row echelon form
    R, which is unique: no answer depends on the pivot rows or on the rest
    of the stack.  A matrix is feasible iff every pivot row is nonzero in a
    free column (no vector space over an infinite field is a finite union of
    proper subspaces).  Its witness sum_j s^j k_j over the kernel basis (k_j
    is 1 at free column f_j and -R[r][f_j] at pivot column r) takes the
    first s with every P_r(s) = sum_j R[r][f_j] s^j nonzero; deg P_r < n, so
    s <= n^2 + 1, and s = 1 settles most matrices in one pass.  The integer
    weights are checked exactly: they annihilate the classes and none is
    zero.  They are int64 as far as _int64_steps proves safe and Python
    integers (dtype object) beyond; past that bound the elimination runs
    modulo primes and the Chinese remainder theorem rebuilds its integers
    (_eliminate_modular).  A prime dividing the minor that takes a pivot
    moves or drops it, so primes that agree on a matrix's pivots have its
    true ones unless all divide a nonzero minor below their product."""
    mats = np.asarray(mats)
    count, n, m = mats.shape
    by_class = mats.transpose(1, 0, 2).reshape(n, -1)
    peaks = sorted(map(max, map(operator.neg, by_class.min(axis=1).tolist()), by_class.max(axis=1).tolist()),
                   reverse=True)
    steps, witness_fits = _int64_steps(n, m, peaks)
    a = mats.transpose(0, 2, 1).astype(np.int64 if steps else object)  # (B, m, n)
    a, q, pivot, pivot_row, open_rows = _eliminate(a, n) if steps == n else _eliminate_modular(a, steps, peaks)
    if not witness_fits:
        a, q = a.astype(object), q.astype(object)
    stack, free = np.arange(count), ~pivot
    # P_r(1) at every pivot row; the rows without a pivot are zero and read 1
    powers = free.astype(a.dtype)
    values = (a @ powers[:, :, None])[:, :, 0] + open_rows
    feasible = values.all(axis=1)
    if np.count_nonzero(feasible) < count:
        todo = np.flatnonzero(~feasible)
        feasible = ((a * free[:, None, :]).any(axis=2) | open_rows).all(axis=1)
        if not np.count_nonzero(feasible):
            return feasible, np.zeros((count, n), dtype=a.dtype), q[:, 0, 0]
        todo, s = todo[feasible[todo]], 1
        exponents = ((free.cumsum(axis=1) - 1) * free).astype(a.dtype)
        settle = np.ones(count, dtype=a.dtype)
        while len(todo):
            s += 1
            if s > n * n + 1:
                raise AssertionError("witness search exceeded its deterministic bound")
            trial = s ** exponents[todo] * free[todo]
            done = ((a[todo] @ trial[:, :, None])[:, :, 0] + open_rows[todo]).all(axis=1)
            settle[todo[done]], todo = s, todo[~done]
        powers = settle[:, None] ** exponents * free
        values = (a @ powers[:, :, None])[:, :, 0]
    weights = (q[:, 0] * powers - values[stack[:, None], pivot_row] * pivot) * feasible[:, None]
    if np.count_nonzero(weights[:, None, :] @ mats.astype(a.dtype, copy=False)):
        raise AssertionError("witness fails the annihilation identity")
    if np.count_nonzero(weights) < n * np.count_nonzero(feasible):
        raise AssertionError("witness has a zero coordinate")
    return feasible, weights, q[:, 0, 0]


def friedman_witness(classes: ClassMatrix):
    """friedman_witnesses on the stack of one matrix, as Fractions or None."""
    try:
        stack = np.array([classes.rows], dtype=np.int64)
    except OverflowError:
        stack = np.array([classes.rows], dtype=object)
    feasible, weights, denominators = friedman_witnesses(stack)
    return [Fraction(w, int(denominators[0])) for w in weights[0].tolist()] if feasible[0] else None


# ---------------------------------------------------------------------------
# the nodal quintic pencil member


@functools.cache
def dwork_exponents() -> np.ndarray:
    """The 125 singular points [xi^{a_0} : ... : xi^{a_4}] of the nodal pencil
    member as canonical exponent rows, shape (125, 5): a_0 = 0 by the
    diagonal shift, a_4 = -(a_1 + a_2 + a_3) mod 5, lexicographic in
    (a_1, a_2, a_3); computed once and read-only."""
    head = np.array(list(itertools.product(range(5), repeat=3)))
    exps = np.column_stack([np.zeros(125, dtype=head.dtype), head, -head.sum(axis=1) % 5])
    exps.flags.writeable = False
    return exps


@functools.cache
def dwork_nodes() -> np.ndarray:
    """The singular points' coordinates in the chart Z_0 = 1, shape (125, 4),
    row by row those of dwork_exponents; computed once and read-only."""
    xi = cmath.exp(2j * math.pi / 5)
    nodes = np.array([xi**k for k in range(5)])[dwork_exponents()[:, 1:]]
    nodes.flags.writeable = False
    return nodes


def dwork_exact_check(exps) -> np.ndarray:
    """Exact cyclotomic check, one bool per exponent row (a_0, ..., a_4), that
    F = sum Z_i^5 - 5 prod Z_i and its full projective gradient
    dF/dZ_i = 5 Z_i^4 - 5 prod_{j != i} Z_j vanish at Z_i = xi^{a_i}.  Each
    is a sum of scaled powers of a primitive fifth root x, held as its
    coefficients in Z[x]/(x^5 - 1) (x^p is row p mod 5 of the identity); it
    vanishes in the ring of integers of the fifth cyclotomic field iff its
    coefficient vector is constant."""
    a = np.asarray(exps)
    total = a.sum(axis=1)
    x = np.eye(5, dtype=np.int64)
    value = x[5 * a % 5].sum(axis=1) - 5 * x[total % 5]
    gradient = 5 * x[4 * a % 5] - 5 * x[(total[:, None] - a) % 5]
    sums = np.concatenate([value[:, None], gradient], axis=1)
    return np.all(sums == sums[:, :, :1], axis=(1, 2))


# ---------------------------------------------------------------------------
# the quintic in the chart Z_0 = 1 and the double-point certificate


class DworkQuintic:
    """The nodal quintic pencil member in the chart Z_0 = 1,
    1 + z_1^5 + z_2^5 + z_3^5 + z_4^5 - 5 z_1 z_2 z_3 z_4,
    with its gradient and Hessian in closed form.  z holds one point (4,) or
    a stack of points (N, 4) along its last axis; the value, gradient and
    Hessian then have shapes (...), (..., 4) and (..., 4, 4).  Products and
    sums run in the order of a term-by-term evaluation, with complex products
    rounded as numpy's scalar product (_product), so every row agrees bit for
    bit with summing the polynomial's monomials at its point (the tests check
    this)."""

    @staticmethod
    def _coordinates(z):
        return np.moveaxis(np.asarray(z, dtype=complex), -1, 0)

    def __call__(self, z):
        z1, z2, z3, z4 = self._coordinates(z)
        return 1.0 - 5.0 * _product(z1, z2, z3, z4) + z1**5 + z2**5 + z3**5 + z4**5

    def gradient(self, z) -> np.ndarray:
        z = self._coordinates(z)
        grad = np.empty(z.shape[1:] + (4,), dtype=complex)
        for i in range(4):
            grad[..., i] = -5.0 * _product(*(z[j] for j in range(4) if j != i)) + 5.0 * z[i] ** 4
        return grad

    def hessian(self, z) -> np.ndarray:
        z = self._coordinates(z)
        hess = np.empty(z.shape[1:] + (4, 4), dtype=complex)
        for i in range(4):
            hess[..., i, i] = 20.0 * z[i] ** 3
        for i, j in itertools.combinations(range(4), 2):
            k, l = (c for c in range(4) if c not in (i, j))
            hess[..., i, j] = hess[..., j, i] = -5.0 * _product(z[k], z[l])
        return hess


class NotOnVarietyError(ValueError):
    """Raised when the queried point does not satisfy the polynomial equation."""


class OdpRecord(NamedTuple):
    """Diagnostics of the double-point test: read-only arrays with one entry
    per point."""

    status: np.ndarray  # "odp" | "degenerate_singularity" | "not_singular"
    value: np.ndarray
    gradient_norm: np.ndarray
    hessian_det: np.ndarray
    hessian_scale: np.ndarray
    det_threshold: np.ndarray


ODP_DET_RTOL = 1e-8
ODP_VALUE_TOL = 1e-8
ODP_GRADIENT_TOL = 1e-6


def _scale_refs(zs: np.ndarray) -> np.ndarray:
    """(1 + max_i |z_i|)^2 per point, squared on Python floats: libm's pow,
    which numpy's array square does not reproduce."""
    return np.array([(1.0 + m) ** 2 for m in np.max(np.abs(zs), axis=1).tolist()])


def verify_odps(poly, points) -> OdpRecord:
    """Certify that critical points of the polynomial are ordinary double
    points.  poly is any callable with gradient and hessian methods that
    takes a stack of points, such as DworkQuintic; the complex 4x4 Hessian
    must be nondegenerate, which by the holomorphic Morse lemma puts the germ
    in the sum-of-squares normal form.

    points has shape (N, 4).  Values, gradients and Hessians come from one
    call each on the whole stack, and the spectral norms and determinants
    from one call each.  Every number rounds as it does for one point alone:
    |value| and |det| by np.hypot (np.abs rounds complex arrays
    differently), gradient norms by np.vecdot (the BLAS dot of the
    one-point norm), thresholds on Python floats.

    Raises NotOnVarietyError at the first point that misses the
    hypersurface; a point whose gradient does not vanish is 'not_singular'.
    """
    zs = np.asarray(points, dtype=complex)
    scale_refs = _scale_refs(zs)
    values = poly(zs)
    values = np.hypot(values.real, values.imag)
    off = np.flatnonzero(values > ODP_VALUE_TOL * scale_refs)
    if len(off):
        raise NotOnVarietyError(f"polynomial value {values[off[0]]:.3e} exceeds tolerance at the point")
    grads = poly.gradient(zs)
    grad_norms = np.sqrt(np.vecdot(grads.real, grads.real) + np.vecdot(grads.imag, grads.imag))
    hessians = poly.hessian(zs)
    hess_scales = np.linalg.norm(hessians, 2, axis=(-2, -1))
    dets = np.linalg.det(hessians)
    dets = np.hypot(dets.real, dets.imag)
    thresholds = np.array([ODP_DET_RTOL * s**4 for s in hess_scales.tolist()])
    singular = np.where(dets > thresholds, "odp", "degenerate_singularity")
    status = np.where(grad_norms > ODP_GRADIENT_TOL * scale_refs, "not_singular", singular)
    record = OdpRecord(status, values, grad_norms, dets, hess_scales, thresholds)
    for field in record:
        field.flags.writeable = False
    return record


def verify_odp(poly, point) -> OdpRecord:
    """verify_odps at one point: the record of one row."""
    return verify_odps(poly, [point])


def _near_a_node(zs: np.ndarray) -> np.ndarray:
    """Whether each point of the stack lies within 1e-2 of a node.  Such a
    point has every coordinate within 1e-2 of the unit circle, so only the
    points with every |z_i| within 2e-2 of 1 are measured against the nodes."""
    near = np.zeros(len(zs), dtype=bool)
    for i in np.flatnonzero(np.all(np.abs(np.abs(zs) - 1.0) < 2e-2, axis=1)):
        near[i] = np.min(np.linalg.norm(dwork_nodes() - zs[i], axis=1)) < 1e-2
    return near


# Draws per batch of companion-matrix roots: bounds the sampler's working set
# (about 1 KB per draw) whatever the requested count.
_SAMPLER_CHUNK = 4096


def random_dwork_smooth_points(count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of points on the nodal pencil member away from its
    singular set: random (z1, z2, z3), the quintic in z_4 solved by companion
    roots, singular-point neighborhoods excluded.

    Each draw takes three radii in [0.5, 1.5), three phases in [0, 1) and a
    root index from the generator, in that order (rng.random(6) gives the
    same doubles as uniform(0.5, 1.5, 3) less 0.5, then uniform(0, 1, 3)).
    The draws still needed are made one at a time, chunk by chunk; the rest
    is stacked over the chunk: the points, the coefficients, one eigvals over
    the companion matrices (the ones np.roots builds, so the same roots in
    the same order) and both rejection tests.  Accepted draws keep their
    order."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    poly = DworkQuintic()
    rng = np.random.default_rng(seed)
    chunks, found = [], 0
    while found < count:
        draws = min(count - found, _SAMPLER_CHUNK)
        uniforms = np.empty((draws, 6))
        picks = np.empty(draws, dtype=np.int64)
        for i in range(draws):
            uniforms[i] = rng.random(6)
            picks[i] = rng.integers(5)
        z1, z2, z3 = ((0.5 + uniforms[:, :3]) * np.exp(2j * math.pi * uniforms[:, 3:])).T
        # monic z^5 + 0 z^4 + 0 z^3 + 0 z^2 - 5 z1 z2 z3 z + const
        coeffs = np.zeros((draws, 6), dtype=complex)
        coeffs[:, 0] = 1.0
        coeffs[:, 4] = -5.0 * _product(z1, z2, z3)
        coeffs[:, 5] = 1.0 + (z1**5 + z2**5 + z3**5)
        companion = np.zeros((draws, 5, 5), dtype=complex)
        companion[:, 1:, :-1] = np.eye(4)
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        roots = np.linalg.eigvals(companion)
        zs = np.column_stack([z1, z2, z3, roots[np.arange(draws), picks]])
        values = poly(zs)
        keep = ~(_near_a_node(zs) | (np.hypot(values.real, values.imag) > 1e-9 * _scale_refs(zs)))
        chunks.append(zs[keep])
        found += len(chunks[-1])
    return np.concatenate(chunks) if chunks else np.empty((0, 4), dtype=complex)
