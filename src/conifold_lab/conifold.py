"""Points, charts and holomorphic volume forms on the quadric family.

The family is V_t = {z in C^4 : z_1^2 + ... + z_4^2 = t}.  This module
provides the fiber membership test, the weighted rescaling between fibers,
the nearest-point identification of the singular fiber with a smooth one,
chart representations of the holomorphic volume form, the first-order term
of the volume form's expansion under that identification, real coordinates
exhibiting a smooth fiber as the tangent bundle of the 3-sphere, and the
small-resolution projection with its fiberwise rescaling.

Chart conventions.  Charts are labelled 1..4 by the coordinate of maximal
modulus; a chart is usable when |z_j| >= ||z||/4 (ties broken by lowest
index).  In chart j the canonical basis 3-form is dz_a ^ dz_b ^ dz_c with
{a,b,c} the complement of j in increasing order, and the residue-normalized
volume form has coefficient (-1)^j / (2 z_j) in that basis.  The vanishing
cycle module uses the cycle normalization, which is twice the residue one
(coefficient 1/z_4 in chart 4).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from conifold_lab.exterior import Form, evaluate, form_add, form_scale, wedge_all

CHART_MARGIN_FACTOR = 0.25  # chart j usable iff |z_j| >= CHART_MARGIN_FACTOR * ||z||


# ---------------------------------------------------------------------------
# domain types


@dataclass
class FiberPoint:
    """A point of C^4 together with its intended fiber parameter t."""

    z: np.ndarray
    t: complex = 0.0

    def __init__(self, z, t: complex = 0.0):
        self.z = np.asarray(z, dtype=complex)
        if self.z.shape != (4,):
            raise ValueError("z must be a 4-vector")
        self.t = complex(t)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.z) ** 2))

    def fiber_residual(self) -> float:
        return abs(complex(np.sum(self.z**2)) - self.t)

    def to_json_dict(self) -> dict:
        return {
            "z": [[float(c.real), float(c.imag)] for c in self.z],
            "t": [self.t.real, self.t.imag],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiberPoint":
        z = [complex(re, im) for re, im in data["z"]]
        return cls(z, complex(data["t"][0], data["t"][1]))


@dataclass
class ResolvedPoint:
    """A point of the small resolution: a direction [U1:U2] and a fiber pair.

    The homogeneous pair is normalized so max |U_i| = 1; the fiber pair is
    expressed in the trivialization belonging to that normalization.
    """

    u: np.ndarray
    w: np.ndarray

    def __init__(self, u, w):
        u = np.asarray(u, dtype=complex)
        w = np.asarray(w, dtype=complex)
        if u.shape != (2,) or w.shape != (2,):
            raise ValueError("u and w must be pairs")
        scale = np.max(np.abs(u))
        if scale == 0.0:
            raise ValueError("homogeneous pair (U1, U2) must be nonzero")
        self.u = u / scale
        self.w = w * scale

    @property
    def chart(self) -> int:
        """Index (1 or 2) of the larger homogeneous coordinate."""
        return 1 if abs(self.u[0]) >= abs(self.u[1]) else 2


@dataclass
class RealSplitting:
    """Unit vector on the 3-sphere and an orthogonal tangent vector."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class ThreeFormValue:
    """Coefficient of the canonical basis 3-form of a coordinate chart."""

    chart: int
    coeff: complex


# ---------------------------------------------------------------------------
# fiber membership, rescaling, nearest-point identification


def on_fiber(p: FiberPoint, tol: float = 1e-12) -> bool:
    """True iff |sum z_i^2 - t| <= tol * (1 + ||z||^2)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return p.fiber_residual() <= tol * (1.0 + p.norm_sq)


def _sqrt_branch(lam: complex, branch: str) -> complex:
    root = cmath.sqrt(lam)
    if branch == "principal":
        return root
    if branch == "negative":
        return -root
    raise ValueError(f"unknown square-root branch {branch!r}")


def rescale_fiber(p: FiberPoint, lam: complex, branch: str = "principal") -> FiberPoint:
    """Map (z, t) to (lam^{3/2} z, lam^3 t); sends V_t to V_{lam^3 t}.

    The 3/2 power needs a square root of lam; the branch is fixed per call.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("rescaling parameter must be nonzero")
    factor = _sqrt_branch(lam, branch) ** 3
    return FiberPoint(factor * p.z, lam**3 * p.t)


def phi_map(p: FiberPoint, t: complex) -> FiberPoint:
    """Nearest-point identification z -> z + t conj(z) / (2 ||z||^2).

    Maps the singular fiber (minus a ball) into V_t; injective on
    ||z||^2 > |t|/2, which is enforced.
    """
    if p.t != 0:
        raise ValueError("phi_map expects a point on the singular fiber (t = 0)")
    if not on_fiber(p, 1e-9):
        raise ValueError("point does not satisfy the singular-fiber equation")
    s = p.norm_sq
    if s == 0.0:
        raise ValueError("phi_map is undefined at the cone point")
    if s <= abs(t) / 2:
        raise ValueError(f"||z||^2 = {s} is not inside the injectivity domain (> |t|/2)")
    w = p.z + t * np.conj(p.z) / (2 * s)
    return FiberPoint(w, t)


# ---------------------------------------------------------------------------
# charts and the holomorphic volume form


def dominant_chart(p: FiberPoint) -> int:
    """1-based index of the coordinate of maximal modulus (lowest index on ties)."""
    mags = np.abs(p.z)
    return int(np.argmax(mags)) + 1


def chart_margin(p: FiberPoint) -> float:
    return CHART_MARGIN_FACTOR * np.sqrt(p.norm_sq)


def _require_chart(p: FiberPoint, chart: int) -> None:
    if chart not in (1, 2, 3, 4):
        raise ValueError("chart must be one of 1..4")
    if p.norm_sq == 0.0:
        raise ValueError("all coordinates vanish: no chart is usable")
    if abs(p.z[chart - 1]) < chart_margin(p):
        raise ValueError(
            f"chart {chart} degenerate: |z_{chart}| = {abs(p.z[chart - 1]):.3e} "
            f"below margin {chart_margin(p):.3e}"
        )


def chart_complement(chart: int) -> tuple[int, int, int]:
    """0-based indices of the three coordinates other than the chart one."""
    return tuple(i for i in range(4) if i != chart - 1)


def holomorphic_volume_form(p: FiberPoint, chart: int | None = None) -> ThreeFormValue:
    """Chart coefficient of the residue-normalized holomorphic volume form.

    In chart j the form is (-1)^j / (2 z_j) times dz_a ^ dz_b ^ dz_c, where
    (a, b, c) is the increasing complement of j.  The signs make the four
    chart expressions restrict to one global form on the fiber.
    """
    if chart is None:
        chart = dominant_chart(p)
    _require_chart(p, chart)
    coeff = (-1) ** chart / (2 * p.z[chart - 1])
    return ThreeFormValue(chart=chart, coeff=coeff)


def _ambient_component(v: np.ndarray, idx: int) -> complex:
    # ambient covector basis: 0..3 are dz_1..dz_4, 4..7 are conj(dz_1..dz_4)
    return v[idx] if idx < 4 else np.conj(v[idx - 4])


def volume_form_value(
    p: FiberPoint,
    frame,
    chart: int | None = None,
    convention: str = "residue",
) -> complex:
    """Contract the chart expression of the volume form against a tangent 3-frame.

    The value is independent of the chart whenever the frame is tangent to
    the fiber; 'cycle' normalization is twice the 'residue' one.
    """
    tf = holomorphic_volume_form(p, chart)
    scale = {"residue": 1.0, "cycle": 2.0}[convention]
    key = chart_complement(tf.chart)
    form: Form = {key: scale * tf.coeff}
    return evaluate(form, frame, _ambient_component)


def tangent_frame(p: FiberPoint, seeds) -> list[np.ndarray]:
    """Project ambient 4-vectors onto the fiber tangent space at p.

    Tangency means sum_i z_i v_i = 0 (the differential of the defining
    function); the projection subtracts the conj(z) component in that
    bilinear pairing.
    """
    z = p.z
    zz = complex(np.sum(z * np.conj(z)))
    out = []
    for s in seeds:
        s = np.asarray(s, dtype=complex)
        out.append(s - (np.sum(z * s) / zz) * np.conj(z))
    return out


def random_tangent_frame(p: FiberPoint, rng: np.random.Generator) -> list[np.ndarray]:
    seeds = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    return tangent_frame(p, seeds)


# ---------------------------------------------------------------------------
# fiber-chart coefficient arrays
#
# On the fiber, dz_4 = -(z_1 dz_1 + z_2 dz_2 + z_3 dz_3)/z_4 and conjugately
# for conj(dz_4).  Forms restricted to chart 4 live over the 6-element basis
# 0,1,2 = dz_1..dz_3 and 3,4,5 = conj(dz_1..dz_3).

def _fiber_component(v: np.ndarray, idx: int) -> complex:
    return v[idx] if idx < 3 else np.conj(v[idx - 3])


def fiber_form_value(form: Form, frame) -> complex:
    """Contract a chart-4 fiber form (6-covector basis) against ambient vectors."""
    return evaluate(form, frame, _fiber_component)


def _restriction_table(p: FiberPoint) -> list[Form]:
    z = p.z
    sub: list[Form] = [{(i,): 1.0} for i in range(3)]
    sub.append({(i,): -z[i] / z[3] for i in range(3)})
    sub.extend({(3 + i,): 1.0} for i in range(3))
    sub.append({(3 + i,): -np.conj(z[i]) / np.conj(z[3]) for i in range(3)})
    return sub


def restrict_to_chart4(ambient: Form, p: FiberPoint) -> Form:
    """Restrict an ambient form (8-covector basis) to the fiber in chart 4."""
    _require_chart(p, 4)
    sub = _restriction_table(p)
    out: Form = {}
    for key, coeff in ambient.items():
        term = form_scale(wedge_all(sub[k] for k in key), coeff)
        out = form_add(out, term)
    return out


def _d_conj_over_norm(p: FiberPoint, i: int) -> Form:
    """Ambient differential of conj(z_i) / (2 ||z||^2)."""
    z = p.z
    s = p.norm_sq
    zb = np.conj(z)
    form: Form = {}
    for k in range(4):
        form[(k,)] = -zb[i] * zb[k] / (2 * s**2)
    for k in range(4):
        c = -zb[i] * z[k] / (2 * s**2)
        if k == i:
            c += 1.0 / (2 * s)
        form[(4 + k,)] = c
    return form


def volume_form_chart_coefficients(p: FiberPoint) -> Form:
    """Chart-4 coefficients of the cycle-normalized volume form dz1^dz2^dz3 / z_4."""
    _require_chart(p, 4)
    return {(0, 1, 2): 1.0 / p.z[3]}


def pullback_volume_form(p: FiberPoint, t: complex) -> Form:
    """Chart-4 coefficients of the nearest-point pullback of the smooth-fiber
    volume form, evaluated at a point of the singular fiber.

    Uses the cycle normalization (coefficient 1/w_4 on the target chart).
    """
    if abs(p.t) != 0.0:
        raise ValueError("pullback is taken at points of the singular fiber")
    _require_chart(p, 4)
    z = p.z
    s = p.norm_sq
    if s <= abs(t) / 2:
        raise ValueError("point outside the injectivity domain of the identification")
    w4 = z[3] + t * np.conj(z[3]) / (2 * s)
    ones: list[Form] = []
    for i in range(3):
        dwi = form_add({(i,): 1.0}, form_scale(_d_conj_over_norm(p, i), t))
        ones.append(dwi)
    ambient = form_scale(wedge_all(ones), 1.0 / w4)
    return restrict_to_chart4(ambient, p)


# canonical ordering of the 10 basis elements carrying the first-order form:
# the holomorphic top piece, then conj(dz_i) ^ dz_j ^ dz_k lexicographic in
# (i, (j, k)) for i in 1..3 and j < k in 1..3.
OMEGA_TILDE_BASIS: tuple[tuple[int, ...], ...] = ((0, 1, 2),) + tuple(
    (3 + i, j, k) for i in range(3) for (j, k) in ((0, 1), (0, 2), (1, 2))
)


def omega_tilde_1_coefficients(p: FiberPoint) -> Form:
    """Chart-4 coefficients of the first-order term of the volume-form
    expansion under the nearest-point identification.

    The result has pure (3,0) and (2,1) parts only:

        -(conj(z_4) / (2 z_4^2 ||z||^2)) dz1^dz2^dz3
        + (1/z_4) sum_i dz1 ^ .. ^ d(conj(z_i)/(2||z||^2)) ^ .. ^ dz3.

    The sign of the first term is fixed by the finite-parameter expansion
    test rather than trusted from any display.
    """
    if abs(p.t) != 0.0:
        raise ValueError("the deformation form lives on the singular fiber")
    if p.norm_sq == 0.0:
        raise ValueError("the deformation form is singular at the cone point")
    _require_chart(p, 4)
    z = p.z
    s = p.norm_sq
    top: Form = {(0, 1, 2): -np.conj(z[3]) / (2 * z[3] ** 2 * s)}
    pieces: list[Form] = [top]
    for i in range(3):
        factors: list[Form] = []
        for j in range(3):
            factors.append(_d_conj_over_norm(p, j) if j == i else {(j,): 1.0})
        pieces.append(form_scale(wedge_all(factors), 1.0 / z[3]))
    ambient = form_add(*pieces)
    return restrict_to_chart4(ambient, p)


def omega_tilde_1(p: FiberPoint, frame) -> complex:
    """Value of the first-order deformation form on a tangent 3-frame."""
    return fiber_form_value(omega_tilde_1_coefficients(p), frame)


def omega_tilde_1_vector(p: FiberPoint) -> np.ndarray:
    """The 10 coefficients of the deformation form in the canonical ordering."""
    form = omega_tilde_1_coefficients(p)
    return np.array([form.get(key, 0.0) for key in OMEGA_TILDE_BASIS], dtype=complex)


# ---------------------------------------------------------------------------
# numerical exterior derivative on the fiber chart


def _chart4_point(coords: np.ndarray, z4_ref: complex, t: complex) -> FiberPoint:
    """Rebuild the fiber point over chart coordinates, keeping the z_4 branch
    closest to a reference value."""
    s = complex(np.sum(coords**2))
    z4 = cmath.sqrt(t - s)
    if abs(z4 - z4_ref) > abs(z4 + z4_ref):
        z4 = -z4
    return FiberPoint(np.array([coords[0], coords[1], coords[2], z4]), t)


def fd_exterior_derivative(p: FiberPoint, coeff_fn=None, step_factor: float = 1e-4) -> Form:
    """Finite-difference exterior derivative of a chart-4 fiber form at p.

    coeff_fn maps a chart coordinate triple to a Form; default is the
    first-order deformation form.  Uses 4th-order central stencils with
    step h = step_factor * ||z||, differentiating each coefficient in the
    Wirtinger sense and wedging with the corresponding basis covector.
    """
    if coeff_fn is None:
        z4_ref = p.z[3]
        t = p.t

        def coeff_fn(coords: np.ndarray) -> Form:
            return omega_tilde_1_coefficients(_chart4_point(coords, z4_ref, t))

    base = np.array(p.z[:3], dtype=complex)
    h = step_factor * np.sqrt(p.norm_sq)
    keys = sorted(coeff_fn(base).keys())

    def coeffs_at(coords: np.ndarray) -> np.ndarray:
        form = coeff_fn(coords)
        return np.array([form.get(k, 0.0) for k in keys], dtype=complex)

    stencil = [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]

    out: Form = {}
    for a in range(3):
        dx = np.zeros(len(keys), dtype=complex)
        dy = np.zeros(len(keys), dtype=complex)
        for off, wgt in stencil:
            shift = np.zeros(3, dtype=complex)
            shift[a] = off * h
            dx += wgt * coeffs_at(base + shift)
            shift[a] = 1j * off * h
            dy += wgt * coeffs_at(base + shift)
        dx /= 12 * h
        dy /= 12 * h
        d_hol = (dx - 1j * dy) / 2
        d_anti = (dx + 1j * dy) / 2
        for which, deriv in ((a, d_hol), (3 + a, d_anti)):
            for key, val in zip(keys, deriv):
                if val == 0:
                    continue
                term = wedge_all([{(which,): val}, {key: 1.0}])
                out = form_add(out, term)
    return out


# ---------------------------------------------------------------------------
# real coordinates on a smooth fiber


def real_coordinates(p: FiberPoint, tol: float = 1e-9) -> RealSplitting:
    """Split a point of V_t (t real > 0) into a unit sphere vector and an
    orthogonal tangent vector: u = x/|x|, v = y |y| for z = x + i y."""
    t = p.t
    if abs(t.imag) > tol * max(1.0, abs(t)) or t.real <= 0:
        raise ValueError("real coordinates need a real positive fiber parameter; rotate first")
    if not on_fiber(p, max(tol, 1e-12)):
        raise ValueError("point does not lie on the declared fiber")
    x = p.z.real.astype(float)
    y = p.z.imag.astype(float)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0:
        raise ValueError("|x| vanishes; not a point of a positive real fiber")
    return RealSplitting(u=x / nx, v=y * ny)


# ---------------------------------------------------------------------------
# small resolution


def resolve_project(q: ResolvedPoint) -> np.ndarray:
    """Blow-down map to the quadric {xy = zw}:
    (x, y, z, w) = (U1 W1, U2 W2, U1 W2, U2 W1).
    The zero section collapses to the origin."""
    u1, u2 = q.u
    w1, w2 = q.w
    return np.array([u1 * w1, u2 * w2, u1 * w2, u2 * w1], dtype=complex)


def resolved_rescale(q: ResolvedPoint, a: float) -> ResolvedPoint:
    """Scale the bundle fibers by a^{3/2}; commutes with resolve_project as
    coordinatewise multiplication by a^{3/2} on the quadric."""
    if a <= 0:
        raise ValueError("rescaling parameter must be positive")
    return ResolvedPoint(q.u.copy(), a**1.5 * q.w)
