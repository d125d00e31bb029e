import numpy as np
import pytest

from vgsolve.geometry import (
    _C4,
    _edge_blocks,
    _sym_camera_blocks,
    compatibility_residual,
    fundamental_matrix,
    residual_jac_cam_i,
    residual_jac_cam_j,
    residual_jac_fmat,
    vec,
    vech,
)


def central_diff(f, M, step_scale=1e-5):
    """Column-major central-difference Jacobian with per-entry steps."""
    M = np.asarray(M, dtype=float)
    cols = []
    for c in range(M.shape[1]):
        for r in range(M.shape[0]):
            h = step_scale * max(1.0, abs(M[r, c]))
            d = np.zeros_like(M)
            d[r, c] = h
            cols.append((f(M + d) - f(M - d)) / (2 * h))
    return np.array(cols).T


def random_pair(rng):
    while True:
        A = rng.uniform(-1, 1, (3, 4))
        B = rng.uniform(-1, 1, (3, 4))
        sv = np.linalg.svd(np.stack([A, B]), compute_uv=False)
        if sv[:, 2].min() > 1e-3:
            return A, B


def test_vec_definition():
    assert vec(np.array([[1, 2], [3, 4]])).tolist() == [1, 3, 2, 4]
    assert vec(np.eye(2)).tolist() == [1, 0, 0, 1]


def test_vec_kron_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.normal(size=(3, 4))
        X = rng.normal(size=(4, 2))
        B = rng.normal(size=(2, 5))
        lhs = vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ vec(X)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_vech_small():
    assert vech(np.array([[1.0, 2.0], [2.0, 5.0]])).tolist() == [1.0, 2.0, 5.0]


def test_vech_length_and_order():
    S = np.arange(16.0).reshape(4, 4)
    S = S + S.T
    v = vech(S)
    assert v.shape == (10,)
    # column-major lower triangle: (0,0),(1,0),(2,0),(3,0),(1,1),...
    assert v[0] == S[0, 0] and v[1] == S[1, 0] and v[4] == S[1, 1]


def test_vech_rejects_asymmetric():
    with pytest.raises(ValueError):
        vech(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        vech(np.zeros((2, 3)))


def test_sym_operator_matches_s_plus_st():
    rng = np.random.default_rng(5)
    op = _C4.reshape(10, 16)
    for _ in range(20):
        S = rng.normal(size=(4, 4))
        assert np.allclose(op @ vec(S), vech(S + S.T), atol=1e-12)
    # exact on the 16 basis matrices, so exact on every S
    for E in np.eye(16).reshape(16, 4, 4):
        assert np.array_equal(op @ vec(E), vech(E + E.T))


def test_camera_blocks_match_kron_definition():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 4, 3))
    batched = _sym_camera_blocks(A)
    assert batched.shape == (6, 10, 12)
    for k in range(6):
        expected = _C4.reshape(10, 16) @ np.kron(np.eye(4), A[k])
        assert np.allclose(batched[k], expected, rtol=0, atol=1e-14)
        assert np.array_equal(_sym_camera_blocks(A[k]), batched[k])
    ints = rng.integers(-5, 6, size=(3, 4, 3))
    assert _sym_camera_blocks(ints).dtype == ints.dtype
    assert np.array_equal(_sym_camera_blocks(ints), _sym_camera_blocks(ints.astype(float)))


def test_pair_jacobians_are_the_assembled_edge_blocks():
    # the single-pair helpers and the assembler share one formula, so the
    # blocks criterion 5 checks are the ones every Jacobian is built from;
    # only the 4x3 products are summed in a different order
    rng = np.random.default_rng(12)
    pairs = [random_pair(rng) for _ in range(8)]
    Pi = np.stack([a for a, _ in pairs])
    Pj = np.stack([b for _, b in pairs])
    F = np.stack([fundamental_matrix(a, b) for a, b in pairs])
    block_i, block_j = _edge_blocks(Pi, Pj, F)
    for k in range(len(pairs)):
        assert np.allclose(residual_jac_cam_i(Pj[k], F[k]), block_i[k], rtol=0, atol=1e-14)
        assert np.allclose(residual_jac_cam_j(Pi[k], F[k]), block_j[k], rtol=0, atol=1e-14)


def test_shapes():
    rng = np.random.default_rng(6)
    A, B = random_pair(rng)
    F = fundamental_matrix(A, B)
    assert residual_jac_cam_i(B, F).shape == (10, 12)
    assert residual_jac_cam_j(A, F).shape == (10, 12)
    assert residual_jac_fmat(A, B).shape == (10, 9)


def test_zero_fmat_gives_zero_camera_blocks():
    rng = np.random.default_rng(7)
    A, B = random_pair(rng)
    Z = np.zeros((3, 3))
    assert not residual_jac_cam_i(B, Z).any()
    assert not residual_jac_cam_j(A, Z).any()


def test_camera_jacobians_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(100):
        A, B = random_pair(rng)
        F = fundamental_matrix(A, B)
        Ji = residual_jac_cam_i(B, F)
        Ji_fd = central_diff(lambda P: compatibility_residual(P, B, F), A)
        scale = max(np.abs(Ji).max(), 1e-30)
        assert np.abs(Ji - Ji_fd).max() <= 1e-6 * scale
        Jj = residual_jac_cam_j(A, F)
        Jj_fd = central_diff(lambda P: compatibility_residual(A, P, F), B)
        scale = max(np.abs(Jj).max(), 1e-30)
        assert np.abs(Jj - Jj_fd).max() <= 1e-6 * scale


def test_fmat_jacobian_matches_finite_differences():
    # the residual is linear in F, so central differences are exact
    rng = np.random.default_rng(9)
    for _ in range(100):
        A, B = random_pair(rng)
        F = fundamental_matrix(A, B)
        Jf = residual_jac_fmat(A, B)
        Jf_fd = central_diff(lambda X: compatibility_residual(A, B, X), F)
        scale = max(np.abs(Jf).max(), 1e-30)
        assert np.abs(Jf - Jf_fd).max() <= 1e-8 * scale


def test_fmat_jacobian_rank_and_kernel():
    rng = np.random.default_rng(10)
    for _ in range(100):
        A, B = random_pair(rng)
        F = fundamental_matrix(A, B)
        Jf = residual_jac_fmat(A, B)
        s = np.linalg.svd(Jf, compute_uv=False)
        assert s[8] <= 1e-8 * s[0]
        assert s[7] > 1e-8 * s[0]
        assert np.linalg.norm(Jf @ vec(F)) <= 1e-10 * s[0]


def test_stacked_pair_block():
    rng = np.random.default_rng(11)
    A, B = random_pair(rng)
    F = fundamental_matrix(A, B)
    stacked = np.hstack([residual_jac_cam_i(B, F), residual_jac_cam_j(A, F)])
    assert stacked.shape == (10, 24)

    def both(v):
        Pi = v[:12].reshape(3, 4, order="F")
        Pj = v[12:].reshape(3, 4, order="F")
        return compatibility_residual(Pi, Pj, F)

    v0 = np.concatenate([vec(A), vec(B)])
    fd = np.array(
        [
            (both(v0 + dv) - both(v0 - dv)) / (2e-6)
            for dv in (1e-6 * np.eye(24))
        ]
    ).T
    assert np.abs(stacked - fd).max() <= 1e-6 * np.abs(stacked).max()
