import numpy as np
import pytest

from vgsolve import geometry
from vgsolve.geometry import (
    CoincidentCentersError,
    DegenerateConfigurationError,
    _fundamental_minors,
    compatibility_residual,
    fundamental_assignment,
    fundamental_matrix,
    normalize_projective,
    random_generic_configuration,
    residual_jac_fmat,
    vech,
)
from vgsolve.graph import ViewingGraph

TRIANGLE = ViewingGraph(3, ((0, 1), (1, 2), (0, 2)))


def random_pair(rng):
    while True:
        A = rng.uniform(-1, 1, (3, 4))
        B = rng.uniform(-1, 1, (3, 4))
        sv = np.linalg.svd(np.stack([A, B]), compute_uv=False)
        if sv[:, 2].min() > 1e-3:
            return A, B


def test_translation_pair_gives_cross_matrix():
    # cameras [I|0] and [I|t] with t along x: F is the cross-product matrix
    # of t up to projective scale
    Pi = np.hstack([np.eye(3), np.zeros((3, 1))])
    Pj = np.hstack([np.eye(3), np.array([[1.0], [0.0], [0.0]])])
    F = fundamental_matrix(Pi, Pj)
    tx = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    expected = normalize_projective(tx)
    assert np.allclose(F, expected, atol=1e-12) or np.allclose(F, -expected, atol=1e-12)


def test_identical_cameras_raise():
    rng = np.random.default_rng(0)
    P = rng.uniform(-1, 1, (3, 4))
    with pytest.raises(CoincidentCentersError):
        fundamental_matrix(P, P)


def test_scaled_camera_same_center_raises():
    rng = np.random.default_rng(1)
    P = rng.uniform(-1, 1, (3, 4))
    with pytest.raises(CoincidentCentersError):
        fundamental_matrix(P, -2.5 * P)


def test_epipolar_identity_many_trials():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        A, B = random_pair(rng)
        F = fundamental_matrix(A, B)
        X = rng.uniform(-1, 1, 4)
        lhs = (B @ X) @ F @ (A @ X)
        scale = np.linalg.norm(B @ X) * np.linalg.norm(A @ X)
        assert abs(lhs) <= 1e-10 * max(scale, 1e-30)


def test_minors_match_determinant_definition():
    # the module docstring's definition, one 4x4 determinant per entry
    rng = np.random.default_rng(11)
    Pi = rng.uniform(-1, 1, (250, 3, 4))
    Pj = rng.uniform(-1, 1, (250, 3, 4))
    F = _fundamental_minors(Pi, Pj)
    assert F.shape == (250, 3, 3)
    for e in range(250):
        expected = np.empty((3, 3))
        for h, k in np.ndindex(3, 3):
            stacked = np.vstack([np.delete(Pi[e], k, axis=0), np.delete(Pj[e], h, axis=0)])
            expected[h, k] = (-1) ** (h + k) * np.linalg.det(stacked)
        assert np.linalg.norm(F[e] - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(_fundamental_minors(Pi[e], Pj[e]), F[e])


def test_fundamental_is_rank_two():
    rng = np.random.default_rng(3)
    for _ in range(200):
        A, B = random_pair(rng)
        s = np.linalg.svd(fundamental_matrix(A, B), compute_uv=False)
        assert s[2] <= 1e-10 * s[0]
        assert s[1] >= 1e-6 * s[0]


def test_projective_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        A, B = random_pair(rng)
        while True:
            H = rng.uniform(-1, 1, (4, 4))
            if abs(np.linalg.det(H)) > 1e-3:
                break
        F1 = fundamental_matrix(A, B)
        F2 = fundamental_matrix(A @ H, B @ H)
        assert np.allclose(F1, F2, atol=1e-8) or np.allclose(F1, -F2, atol=1e-8)


def test_residual_vanishes_on_true_fundamental():
    rng = np.random.default_rng(5)
    for _ in range(200):
        A, B = random_pair(rng)
        F = fundamental_matrix(A, B)
        r = compatibility_residual(A, B, F)
        scale = np.linalg.norm(A) * np.linalg.norm(B) * np.linalg.norm(F)
        assert np.linalg.norm(r) <= 1e-10 * scale


def test_residual_nonzero_for_random_rank2():
    rng = np.random.default_rng(6)
    for _ in range(100):
        A, B = random_pair(rng)
        U, s, Vt = np.linalg.svd(rng.uniform(-1, 1, (3, 3)))
        s[2] = 0.0
        F = U @ np.diag(s) @ Vt
        r = compatibility_residual(A, B, F)
        scale = np.linalg.norm(A) * np.linalg.norm(B) * np.linalg.norm(F)
        assert np.linalg.norm(r) > 1e-6 * scale


def test_residual_zero_implies_proportional_to_fundamental():
    # build a matrix with vanishing residual from the constraint kernel and
    # check it matches the minors formula up to scale
    rng = np.random.default_rng(7)
    for _ in range(50):
        A, B = random_pair(rng)
        Jf = residual_jac_fmat(A, B)
        _, _, Vt = np.linalg.svd(Jf)
        F_kernel = Vt[-1].reshape(3, 3, order="F")
        F_direct = fundamental_matrix(A, B)
        Fk = normalize_projective(F_kernel)
        assert np.allclose(Fk, F_direct, atol=1e-8) or np.allclose(Fk, -F_direct, atol=1e-8)


def test_residual_homogeneity():
    rng = np.random.default_rng(8)
    A, B = random_pair(rng)
    F = rng.uniform(-1, 1, (3, 3))
    base = compatibility_residual(A, B, F)
    for lam in (2.0, -0.5, 7.25):
        assert np.allclose(compatibility_residual(lam * A, B, F), lam * base, atol=1e-12)
        assert np.allclose(compatibility_residual(A, lam * B, F), lam * base, atol=1e-12)
        assert np.allclose(compatibility_residual(A, B, lam * F), lam * base, atol=1e-12)


def test_random_configuration_properties():
    cfg = random_generic_configuration(TRIANGLE, seed=1)
    assert cfg.cameras.shape == (3, 3, 4)
    sv = np.linalg.svd(cfg.cameras, compute_uv=False)
    assert sv[:, 2].min() > 1e-8
    fm = fundamental_assignment(TRIANGLE, cfg)
    assert fm.matrices.shape == (3, 3, 3)
    assert np.all(np.linalg.norm(fm.matrices, axis=(1, 2)) > 0.99)


def test_random_configuration_deterministic():
    a = random_generic_configuration(TRIANGLE, seed=99)
    b = random_generic_configuration(TRIANGLE, seed=99)
    assert np.array_equal(a.cameras, b.cameras)
    c = random_generic_configuration(TRIANGLE, seed=100)
    assert not np.array_equal(a.cameras, c.cameras)


def test_coincident_draw_is_redrawn(monkeypatch):
    minors = geometry._fundamental_minors
    calls = []

    def zeros_first(Pi, Pj, *args, **kwargs):
        calls.append(len(Pi))
        if len(calls) == 1:
            return np.zeros(np.shape(Pi)[:-2] + (3, 3))
        return minors(Pi, Pj, *args, **kwargs)

    monkeypatch.setattr(geometry, "_fundamental_minors", zeros_first)
    cfg = random_generic_configuration(TRIANGLE, 3)
    rng = np.random.default_rng(3)
    rng.uniform(-1.0, 1.0, size=(3, 3, 4))
    second = rng.uniform(-1.0, 1.0, size=(3, 3, 4))
    second /= np.linalg.norm(second, axis=(1, 2))[:, None, None]
    assert np.array_equal(cfg.cameras, second)
    assert len(calls) == 2


def test_always_coincident_draws_exhaust_retries(monkeypatch):
    calls = []

    def zeros(Pi, Pj, *args, **kwargs):
        calls.append(len(Pi))
        return np.zeros(np.shape(Pi)[:-2] + (3, 3))

    monkeypatch.setattr(geometry, "_fundamental_minors", zeros)
    monkeypatch.setattr(geometry, "GENERIC_RETRIES", 4)
    with pytest.raises(DegenerateConfigurationError):
        random_generic_configuration(TRIANGLE, 3)
    assert len(calls) == 4


def test_single_node_configuration():
    g = ViewingGraph(1, ())
    cfg = random_generic_configuration(g, seed=0)
    assert cfg.cameras.shape == (1, 3, 4)


def test_assignment_matches_pairwise_map():
    cfg = random_generic_configuration(TRIANGLE, seed=5)
    fm = fundamental_assignment(TRIANGLE, cfg)
    for k, (i, j) in enumerate(TRIANGLE.edges):
        direct = fundamental_matrix(cfg.cameras[i], cfg.cameras[j])
        assert np.allclose(fm.matrices[k], direct, atol=1e-12)


def test_normalize_projective():
    M = np.array([[0.0, -2.0], [4.0, 0.0]])
    out = normalize_projective(M)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert out[0, 1] > 0  # first nonzero entry made positive
    with pytest.raises(ValueError):
        normalize_projective(np.zeros((2, 2)))


def test_residual_batched_equals_single():
    rng = np.random.default_rng(14)
    Pi, Pj = rng.normal(size=(2, 2, 5, 3, 4))
    F = rng.normal(size=(2, 5, 3, 3))
    out = compatibility_residual(Pi, Pj, F)
    assert out.shape == (2, 5, 10)
    for idx in np.ndindex(2, 5):
        single = compatibility_residual(Pi[idx], Pj[idx], F[idx])
        assert np.array_equal(out[idx], single)
        S = Pj[idx].T @ F[idx] @ Pi[idx]
        assert np.array_equal(single, vech(S + S.T, rtol=np.inf))


def test_normalize_projective_batched_equals_single():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(2, 5, 3, 3))
    M[0, 0, 0, 0] = 0.0  # the sign then comes from the next entry
    out = normalize_projective(M)
    assert out.shape == M.shape
    for idx in np.ndindex(2, 5):
        single = normalize_projective(M[idx])
        assert np.array_equal(out[idx], single)
        unit = M[idx] / np.linalg.norm(M[idx])
        assert np.allclose(single, unit) or np.allclose(single, -unit)
        flat = single.reshape(-1)
        assert flat[np.nonzero(flat)[0][0]] > 0
    with pytest.raises(ValueError):
        normalize_projective(np.stack([np.eye(3), np.zeros((3, 3))]))


def test_assignment_uses_normalized_minors():
    cfg = random_generic_configuration(TRIANGLE, seed=7)
    ei, ej = np.array(TRIANGLE.edges).T
    minors = _fundamental_minors(cfg.cameras[ei], cfg.cameras[ej])
    assert np.array_equal(fundamental_assignment(TRIANGLE, cfg).matrices,
                          normalize_projective(minors))
