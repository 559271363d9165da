"""Dense exterior algebra over the chart-4 fiber basis.

The basis is six covectors: 0, 1, 2 are dz_1, dz_2, dz_3 and 3, 4, 5 their
conjugates.  A k-form is a complex array of coefficients over BASIS[k], the
k-subsets of range(6) in lexicographic order (20 for k = 3, 15 for k = 4).

One kernel does the arithmetic: ``wedge`` takes k one-forms as the rows of
a (k, 6) array, or a stack (..., k, 6), and returns their wedge product, the
array of all k x k minors.  It multiplies one row at a time into the
running product through a precomputed sign table per degree; D_SIGNS, the
table for a 1-form times a 3-form, also maps Wirtinger partials of a 3-form
to its exterior derivative.  Contraction with vectors is the wedge of their
components.  ``_product`` multiplies complex arrays as numpy rounds one
point's scalar product, for the fiber geometry and the quintic alike.
"""

from __future__ import annotations

import itertools

import numpy as np

BASIS = tuple(tuple(itertools.combinations(range(6), k)) for k in range(7))


def _sign_table(m: int) -> np.ndarray:
    """Row C(6, m) a + K holds the coefficients of e_a ^ e_K over
    BASIS[m + 1], for the covector a and the basis m-form K: the sign of
    moving e_a past the covectors of K below it, or 0 when a is in K."""
    table = np.zeros((6, len(BASIS[m]), len(BASIS[m + 1])))
    for a, (k, key) in itertools.product(range(6), enumerate(BASIS[m])):
        if a not in key:
            table[a, k, BASIS[m + 1].index(tuple(sorted(key + (a,))))] = (-1) ** sum(b < a for b in key)
    return table.reshape(-1, len(BASIS[m + 1]))


_SIGNS = tuple(_sign_table(m) for m in range(6))
# The (6 * 20, 15) table of the 1-form ^ 3-form products e_a ^ e_K.
D_SIGNS = _SIGNS[3]


def wedge(rows) -> np.ndarray:
    """Wedge product of the one-forms in the rows of a (..., k, 6) array: the
    C(6, k) coefficients over BASIS[k] along the last axis, the k x k minors.

    The product is built from the right, one row at a time, through the
    sign tables; it takes no division, so exactly singular minors are 0.
    """
    rows = np.asarray(rows)
    form = np.ones(rows.shape[:-2] + (1,))
    for m in range(rows.shape[-2]):
        products = rows[..., -1 - m, :, None] * form[..., None, :]
        form = products.reshape(products.shape[:-2] + (-1,)) @ _SIGNS[m]
    return form


def evaluate(form: np.ndarray, vectors) -> complex:
    """Contract a k-form with k vectors of C^3 (or ambient C^4 vectors,
    whose first three coordinates are the chart-4 ones)."""
    v = np.asarray(vectors, dtype=complex)[:, :3]
    return complex(form @ wedge(np.concatenate([v, v.conj()], axis=1)))


def _product(*factors):
    """The product of complex arrays (or scalars), taken left to right and
    rounded as numpy's scalar complex product rounds it, with real and
    imaginary parts (ar br - ai bi, ar bi + ai br).  The array product a * b
    is vectorised with fused multiply-adds and can differ in the last bit."""
    out = factors[0]
    for b in factors[1:]:
        a, out = out, np.empty(np.broadcast(out, b).shape, dtype=complex)
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out
