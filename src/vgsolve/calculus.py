"""Matrix-calculus building blocks: vec/vech, commutation and elimination
matrices, and the closed-form Jacobian blocks of the
camera/fundamental-matrix compatibility residual.

Vectorization is column-major throughout (``vec`` stacks columns), which
fixes the meaning of every 12-wide camera block in the assembled Jacobian:
entry (r, c) of a 3x4 camera sits at offset ``r + 3*c``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "vec",
    "vech",
    "commutation_matrix",
    "elimination_matrix",
    "vech_sym_operator",
    "residual_jac_cam_i",
    "residual_jac_cam_j",
    "residual_jac_fmat",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    return np.asarray(m).reshape(-1, order="F")


def _lower_tri_indices(q: int) -> tuple[np.ndarray, np.ndarray]:
    # column-major (0,0),(1,0),...,(q-1,0),(1,1),...: the upper triangle transposed
    cols, rows = np.triu_indices(q)
    return rows, cols


def vech(m: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Half-vectorization: lower-triangular entries, column-major.

    The input must be symmetric within ``rtol`` relative to its largest
    entry; asymmetry beyond that raises ValueError.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(float(np.abs(a).max(initial=0.0)), np.finfo(float).tiny)
    if float(np.abs(a - a.T).max(initial=0.0)) > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    r, c = _lower_tri_indices(a.shape[0])
    return a[r, c]


@lru_cache(maxsize=None)
def commutation_matrix(s: int, t: int) -> np.ndarray:
    """Permutation K with ``vec(C) = K @ vec(C.T)`` for every s-by-t C."""
    if s < 1 or t < 1:
        raise ValueError("dimensions must be positive")
    k = np.zeros((s * t, s * t))
    for i in range(s):
        for j in range(t):
            k[i + j * s, j + i * t] = 1.0
    k.setflags(write=False)
    return k


@lru_cache(maxsize=None)
def elimination_matrix(q: int) -> np.ndarray:
    """q(q+1)/2-by-q^2 matrix L with ``vech(X) = L @ vec(X)``."""
    r, c = _lower_tri_indices(q)
    L = np.zeros((len(r), q * q))
    L[np.arange(len(r)), r + q * c] = 1.0
    L.setflags(write=False)
    return L


@lru_cache(maxsize=None)
def vech_sym_operator(q: int) -> np.ndarray:
    """Matrix mapping ``vec(S)`` to ``vech(S + S.T)`` for any q-by-q S."""
    L = elimination_matrix(q)
    K = commutation_matrix(q, q)
    op = L @ (K + np.eye(q * q))
    op.setflags(write=False)
    return op


# the vech(S + S^T) operator reshaped so that C @ kron(I4, A) is one einsum
_C4 = vech_sym_operator(4).reshape(10, 4, 4)


def _sym_camera_blocks(A: np.ndarray) -> np.ndarray:
    """``vech_sym_operator(4) @ kron(I4, A)`` for a (..., 4, 3) batch of A,
    shape (..., 10, 12): the derivative of vech(S + S^T) with respect to vec
    of a camera P when S or S^T is A @ P.  Integer A gives an integer result."""
    A = np.asarray(A)
    C4 = _C4.astype(A.dtype, copy=False)  # entries 0, 1, 2
    out = np.einsum("rab,ebc->erac", C4, A.reshape(-1, 4, 3))
    return out.reshape(A.shape[:-2] + (10, 12))


def residual_jac_cam_j(P_i: np.ndarray, F: np.ndarray) -> np.ndarray:
    """10x12 Jacobian of the compatibility residual w.r.t. vec of the second
    camera of the pair (the one multiplying F transposed in S = Pj^T F Pi)."""
    return _sym_camera_blocks((np.asarray(F, dtype=float) @ np.asarray(P_i)).T)


def residual_jac_cam_i(P_j: np.ndarray, F: np.ndarray) -> np.ndarray:
    """10x12 Jacobian of the compatibility residual w.r.t. vec of the first
    camera of the pair."""
    return _sym_camera_blocks(np.asarray(P_j, dtype=float).T @ np.asarray(F))


def residual_jac_fmat(P_i: np.ndarray, P_j: np.ndarray) -> np.ndarray:
    """10x9 Jacobian of the compatibility residual w.r.t. vec(F).

    For generic cameras with distinct centers this matrix has rank 8 and its
    kernel is spanned by vec of the pair's fundamental matrix.
    """
    return vech_sym_operator(4) @ np.kron(np.asarray(P_i).T, np.asarray(P_j).T)
