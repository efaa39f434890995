"""Object-matrix reference for W-valued matrices: m x m object arrays of
NilElements and floats, multiplied entry by entry.  The transport over a
neighbour pair, its exact inverse and truncated log, and the test whether a
matrix's log lies in a matrix Lie subalgebra."""

import numpy as np

from sdgeom.connections import TRANSPORT_SIGN, span_residual
from sdgeom.nil import NilElement, within_tol

from reference import NilPoint


def omat_mul(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.empty((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc = acc + a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def omat_is_zero(a):
    return all(within_tol(e, 0.0) for row in a for e in row)


def omat_coords(point):
    return point.coords_w() if isinstance(point, NilPoint) else point.coords


def omat_from_terms(terms, k, n):
    """Object array of NilElements of W(k, n) from a term map monomial ->
    m x m float matrix of that monomial's coefficients across entries."""
    m = next(iter(terms.values())).shape[0]
    out = np.empty((m, m), dtype=object)
    for r in range(m):
        for c in range(m):
            out[r, c] = NilElement(k, n, {key: float(a[r, c])
                                          for key, a in terms.items() if a[r, c]})
    return out


def ref_transport_neighbor(conn, a, b):
    """T(a, b) = I + sign * sum_i A_i(a) (b - a)_i as an object array."""
    ca, cb = omat_coords(a), omat_coords(b)
    m = conn.m
    values = np.empty(conn.n * m * m, dtype=object)
    values[:] = conn._a_w(*ca)
    mats = values.reshape(conn.n, m, m)
    out = np.eye(m).astype(object)
    for i in range(conn.n):
        delta = cb[i] - ca[i]
        if isinstance(delta, NilElement) or delta != 0.0:
            out = out + TRANSPORT_SIGN * mats[i] * delta
    return out


def ref_coefficient_matrices(mat):
    """monomial -> m x m float matrix of its coefficients across entries."""
    out = {}
    m = mat.shape[0]
    for r in range(m):
        for c in range(m):
            e = mat[r, c]
            if isinstance(e, NilElement):
                for key, v in e.terms.items():
                    out.setdefault(key, np.zeros((m, m)))[r, c] = v
            elif e:
                out.setdefault((0, 0), np.zeros((m, m)))[r, c] = float(e)
    return out


def omat_max_abs(mat):
    """Largest |coefficient| over all entries; nan if any is nan."""
    return float(np.max(np.abs(list(ref_coefficient_matrices(mat).values())), initial=0.0))


def ref_nil_order(mat):
    return next((min(e.k, e.n) for row in mat for e in row
                 if isinstance(e, NilElement)), 0)


def ref_inverse(mat):
    m = mat.shape[0]
    C = np.array([[e.const_term if isinstance(e, NilElement) else float(e)
                   for e in row] for row in mat])
    Cinv = np.linalg.inv(C).astype(object)
    N = omat_mul(Cinv, mat) - np.eye(m).astype(object)
    out = np.eye(m).astype(object)
    power = np.eye(m).astype(object)
    for r in range(1, ref_nil_order(mat) + 1):
        power = omat_mul(power, N)
        if omat_is_zero(power):
            break
        out = out + (-1.0) ** r * power
    return omat_mul(out, Cinv)


def ref_log_truncated(mat):
    m = mat.shape[0]
    N = mat - np.eye(m).astype(object)
    out = np.zeros((m, m), dtype=object)
    power = np.eye(m).astype(object)
    for r in range(1, max(ref_nil_order(mat), 1) + 1):
        power = omat_mul(power, N)
        if omat_is_zero(power):
            break
        out = out + ((-1.0) ** (r + 1) / r) * power
    return out


def in_subalgebra_cone(mat, h_basis, tol=1e-9):
    """Whether a W-valued matrix is an 'H-element': its truncated log has
    every monomial coefficient matrix in span(h_basis); nan never is."""
    flat = np.array([np.asarray(b, dtype=float).ravel() for b in h_basis])
    for coeffs in ref_coefficient_matrices(ref_log_truncated(mat)).values():
        size = np.max(np.abs(coeffs))
        if within_tol(size, tol):
            continue
        if not flat.shape[0]:
            return False
        if not within_tol(span_residual(flat.T, coeffs.ravel()), tol * max(1.0, size)):
            return False
    return True
