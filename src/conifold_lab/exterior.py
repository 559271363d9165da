"""Sparse exterior-algebra arithmetic over a finite ordered covector basis.

A k-form is a dict mapping strictly increasing index tuples to complex
coefficients; the empty tuple indexes a scalar.  Basis indices are opaque
integers; callers decide what each covector means (dz_i, conjugate dz_i,
and so on) and supply a component extractor when contracting with vectors.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

Form = dict[tuple[int, ...], complex]


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort basis indices; the sign is the parity of the inversions, and a
    repeated index kills the term (sign 0)."""
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return key, 0
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return key, -1 if inversions % 2 else 1


def form_scale(a: Form, c: complex) -> Form:
    return {k: c * v for k, v in a.items()}


def form_add(*forms: Form) -> Form:
    out: Form = {}
    for f in forms:
        for k, v in f.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0}


def wedge(a: Form, b: Form) -> Form:
    out: Form = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, sign = _sort_with_sign(ka + kb)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * va * vb
    return {k: v for k, v in out.items() if v != 0}


def wedge_all(forms: Iterable[Form]) -> Form:
    out: Form = {(): 1.0}
    for f in forms:
        out = wedge(out, f)
    return out


def form_norm(a: Form) -> float:
    """Sup norm of the coefficient array."""
    if not a:
        return 0.0
    return max(abs(v) for v in a.values())


def evaluate(form: Form, vectors, component: Callable[[object, int], complex]) -> complex:
    """Contract a k-form against k vectors.

    ``component(vector, basis_index)`` returns the pairing of the basis
    covector with the vector.  The value is the usual alternating sum,
    sum_S c_S det[component(v_r, S_c)].
    """
    vecs = list(vectors)
    k = len(vecs)
    total = 0.0 + 0.0j
    for key, coeff in form.items():
        if len(key) != k:
            raise ValueError(f"cannot contract a {len(key)}-form term with {k} vectors")
        mat = np.array([[component(v, idx) for idx in key] for v in vecs], dtype=complex)
        total += coeff * np.linalg.det(mat)
    return total
