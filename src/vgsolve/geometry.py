"""Cameras, the pairwise fundamental-matrix map, and the skew-symmetry
compatibility residual linking fundamental matrices to camera pairs,
with its closed-form derivatives.

Conventions: cameras are 3x4 full-rank matrices up to scale; the
fundamental matrix F of an ordered pair (P_i, P_j) satisfies the epipolar
identity (P_j X)^T F (P_i X) = 0 for every world point X, and
S = P_j^T F P_i is skew-symmetric.  Entrywise,

    F[h, k] = (-1)^(h+k) * det [ P_i without row k ]
                               [ P_j without row h ].

Vectorization is column-major throughout (``vec`` stacks columns), which
fixes the meaning of every 12-wide camera block in the assembled Jacobian:
entry (r, c) of a 3x4 camera sits at offset ``r + 3*c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ViewingGraph

__all__ = [
    "CoincidentCentersError",
    "DegenerateConfigurationError",
    "CameraConfiguration",
    "FundamentalAssignment",
    "fundamental_matrix",
    "fundamental_assignment",
    "compatibility_residual",
    "vec",
    "vech",
    "residual_jac_cam_i",
    "residual_jac_cam_j",
    "residual_jac_fmat",
    "random_generic_configuration",
    "normalize_projective",
]

# |F| <= this * |P_i| * |P_j| (Frobenius) is treated as the zero matrix,
# i.e. coincident camera centers.
COINCIDENT_CENTERS_REL_TOL = 1e-12
GENERIC_RETRIES = 16
# the sign of a normalized matrix is fixed by its first entry above this
_LEAD_ENTRY_TOL = 1e-12
_CAMERA_RANK_REL_TOL = 1e-8


class CoincidentCentersError(ValueError):
    """The two cameras share a center; the fundamental matrix is undefined."""


class DegenerateConfigurationError(RuntimeError):
    """Random redraws kept producing a degenerate configuration.

    With entries from a continuous distribution this has probability zero,
    so exhausting the retry budget points at a bug or a broken RNG."""


@dataclass(frozen=True)
class CameraConfiguration:
    """One 3x4 camera per node."""

    cameras: np.ndarray  # (n, 3, 4), read-only

    def __post_init__(self):
        cams = np.asarray(self.cameras, dtype=float)
        if cams.ndim != 3 or cams.shape[1:] != (3, 4):
            raise ValueError(f"expected (n, 3, 4) camera array, got {cams.shape}")
        cams = cams.copy()
        cams.setflags(write=False)
        object.__setattr__(self, "cameras", cams)

    @property
    def node_count(self) -> int:
        return self.cameras.shape[0]


@dataclass(frozen=True)
class FundamentalAssignment:
    """Per-edge fundamental matrices, ordered like the graph's edge list."""

    matrices: np.ndarray  # (m, 3, 3), read-only, unit Frobenius norm each

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1:] != (3, 3):
            raise ValueError(f"expected (m, 3, 3) array, got {mats.shape}")
        mats = mats.copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def edge_count(self) -> int:
        return self.matrices.shape[0]


# column pairs of a 3x4 camera; pair t and pair 5 - t are complementary
_COL_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T
# Laplace sign of each top-row column pair, times (-1)^(h+k) for entry (h, k)
_LAPLACE_SIGN = np.array([1, -1, 1, 1, -1, 1]) * (-1) ** np.add.outer(
    np.arange(3), np.arange(3))[:, :, None]


def _fundamental_minors(Pi: np.ndarray, Pj: np.ndarray, prime: int | None = None) -> np.ndarray:
    """Unnormalized fundamental matrices for batched camera pairs, over the
    floats or, with ``prime``, over GF(prime).

    Pi, Pj have shape (..., 3, 4); the result has shape (..., 3, 3) with
    entry (h, k) equal to (-1)^(h+k) times the determinant of P_i with row k
    removed stacked over P_j with row h removed.  Each such 4x4 minor is
    expanded along its top two rows into complementary 2x2 minors.  With
    ``prime`` the inputs are int64 residues and every product of two
    residues is reduced at once, so nothing passes 2^63.
    """
    if prime is None:
        Pi, Pj = np.asarray(Pi, dtype=float), np.asarray(Pj, dtype=float)

    def reduce(x):
        return x if prime is None else x % prime

    def minors(P):  # (..., deleted row, column pair)
        top, bottom = P[..., [1, 0, 0], :], P[..., [2, 2, 1], :]
        c1, c2 = _COL_PAIRS
        return reduce(reduce(top[..., c1] * bottom[..., c2])
                      - reduce(top[..., c2] * bottom[..., c1]))

    Mi, Mj = minors(Pi), minors(Pj)
    terms = reduce(Mj[..., :, None, ::-1] * Mi[..., None, :, :])  # (..., h, k, pair)
    return reduce((terms * _LAPLACE_SIGN).sum(axis=-1))


def normalize_projective(M: np.ndarray) -> np.ndarray:
    """Rescale each matrix over the last two axes to unit Frobenius norm with
    its first entry above _LEAD_ENTRY_TOL (row-major scan) positive, giving
    a unique representative of its projective class."""
    M = np.array(M, dtype=float)
    norms = np.linalg.norm(M, axis=(-2, -1))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero matrix")
    M /= norms[..., None, None]
    flat = M.reshape(M.shape[:-2] + (-1,))
    first = np.argmax(np.abs(flat) > _LEAD_ENTRY_TOL, axis=-1)
    lead = np.take_along_axis(flat, first[..., None], axis=-1)[..., 0]
    M *= np.where(lead < 0, -1.0, 1.0)[..., None, None]
    return M


def _coincident(F: np.ndarray, Pi: np.ndarray, Pj: np.ndarray) -> np.ndarray:
    """True for the pairs whose minors vanish relative to their cameras."""
    scales = np.linalg.norm(Pi, axis=(-2, -1)) * np.linalg.norm(Pj, axis=(-2, -1))
    return np.linalg.norm(F, axis=(-2, -1)) <= COINCIDENT_CENTERS_REL_TOL * scales


def fundamental_matrix(P_i: np.ndarray, P_j: np.ndarray) -> np.ndarray:
    """Fundamental matrix of an ordered camera pair, normalized projectively.

    Raises CoincidentCentersError when the minors all vanish, which happens
    exactly when the cameras share a center.
    """
    F = _fundamental_minors(P_i, P_j)
    if _coincident(F, P_i, P_j):
        raise CoincidentCentersError("cameras have coincident centers")
    return normalize_projective(F)


def fundamental_assignment(g: ViewingGraph, config: CameraConfiguration) -> FundamentalAssignment:
    """Evaluate the fundamental matrix on every edge of the graph."""
    if config.node_count != g.node_count:
        raise ValueError("configuration size does not match the graph")
    if g.edge_count == 0:
        return FundamentalAssignment(np.empty((0, 3, 3)))
    ei, ej = np.array(g.edges).T
    Pi, Pj = config.cameras[ei], config.cameras[ej]
    F = _fundamental_minors(Pi, Pj)
    bad = np.nonzero(_coincident(F, Pi, Pj))[0]
    if bad.size:
        raise CoincidentCentersError(
            f"coincident centers on edge {g.edges[int(bad[0])]}"
        )
    return FundamentalAssignment(normalize_projective(F))


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


def compatibility_residual(P_i: np.ndarray, P_j: np.ndarray, F: np.ndarray) -> np.ndarray:
    """10-vector vech(S + S^T) with S = P_j^T F P_i, for one pair or for
    leading batch axes, shape (..., 10).

    Vanishes exactly when F is proportional to the fundamental matrix of the
    pair; homogeneous of degree one in each argument.
    """
    S = np.swapaxes(np.asarray(P_j), -1, -2) @ np.asarray(F) @ np.asarray(P_i)
    r, c = _lower_tri_indices(4)
    return (S + np.swapaxes(S, -1, -2))[..., r, c]


# entry k of vech(S + S^T) is S[r, c] + S[c, r], (r, c) = _lower_tri_indices(4)[k],
# so _C4[k] is 1 at (r, c) and (c, r), 2 where they meet.  _C4.reshape(10, 16)
# maps vec(S) to vech(S + S^T); as (10, 4, 4), C @ kron(I4, A) is one einsum
_C4 = np.zeros((10, 4, 4))
np.add.at(_C4, (np.arange(10), *_lower_tri_indices(4)), 1.0)
np.add.at(_C4, (np.arange(10), *_lower_tri_indices(4)[::-1]), 1.0)
_C4.setflags(write=False)


def _sym_camera_blocks(A: np.ndarray) -> np.ndarray:
    """``_C4.reshape(10, 16) @ kron(I4, A)`` for a (..., 4, 3) batch of A,
    shape (..., 10, 12): the derivative of vech(S + S^T) with respect to vec
    of a camera P when S or S^T is A @ P.  Integer A gives an integer result."""
    A = np.asarray(A)
    C4 = _C4.astype(A.dtype, copy=False)  # entries 0, 1, 2
    out = np.einsum("rab,ebc->erac", C4, A.reshape(-1, 4, 3))
    return out.reshape(A.shape[:-2] + (10, 12))


def _edge_blocks(Pi, Pj, F, prime: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(m, 10, 12) derivatives of every edge residual vech(S + S^T),
    S = Pj^T F Pi, with respect to camera i and to camera j.  With ``prime``
    the inputs are int64 residues and the 3-term dot products are reduced
    before they meet the operator, so no sum passes 2^63."""
    PjTF = np.einsum("eka,ekl->eal", Pj, F)                     # (m, 4, 3)
    FPiT = np.einsum("ekl,elb->ekb", F, Pi).transpose(0, 2, 1)  # (m, 4, 3)
    if prime is not None:
        PjTF %= prime
        FPiT %= prime
    block_i, block_j = _sym_camera_blocks(PjTF), _sym_camera_blocks(FPiT)
    if prime is not None:
        block_i %= prime
        block_j %= prime
    return block_i, block_j


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
    return _C4.reshape(10, 16) @ np.kron(np.asarray(P_i).T, np.asarray(P_j).T)


def _generic_draw(
    g: ViewingGraph, seed: int
) -> tuple[CameraConfiguration, FundamentalAssignment]:
    """The cameras of random_generic_configuration together with their
    fundamental matrices on every edge, evaluated once.  A draw is redrawn
    when a camera is rank-deficient or fundamental_assignment finds
    coincident centers."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    for _ in range(GENERIC_RETRIES):
        cams = rng.uniform(-1.0, 1.0, size=(g.node_count, 3, 4))
        cams /= np.linalg.norm(cams, axis=(1, 2))[:, None, None]
        sv = np.linalg.svd(cams, compute_uv=False)
        if np.any(sv[:, 2] <= _CAMERA_RANK_REL_TOL * sv[:, 0]):
            continue
        config = CameraConfiguration(cams)
        try:
            return config, fundamental_assignment(g, config)
        except CoincidentCentersError:
            continue
    raise DegenerateConfigurationError(
        f"no generic configuration after {GENERIC_RETRIES} draws (seed {seed})"
    )


def random_generic_configuration(
    g: ViewingGraph, seed: int
) -> CameraConfiguration:
    """Draw one random camera per node, redrawing until the configuration is
    generic: every camera has rank 3 and no edge pair shares a center.

    Entries are i.i.d. uniform on [-1, 1]; each camera is then rescaled to
    unit Frobenius norm so downstream Jacobians are well-scaled.  The same
    seed always yields the same configuration.
    """
    return _generic_draw(g, seed)[0]
