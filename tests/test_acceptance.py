"""End-to-end acceptance suite.

Each test prints one PASS line on success (run with ``pytest -v -s`` to see
them); a failed assertion marks the criterion red.  Expected mining counts
and sweep rates are frozen reference values for this problem family.
"""

import time

import numpy as np
import pytest

from vgsolve.cli import main
from vgsolve.engine import (
    assemble_jacobian,
    finite_field_rank,
    finite_solvability,
    is_full_column_rank,
    maximal_components,
)
from vgsolve.geometry import (
    compatibility_residual,
    fundamental_assignment,
    fundamental_matrix,
    normalize_projective,
    random_generic_configuration,
    residual_jac_cam_i,
    residual_jac_cam_j,
    residual_jac_fmat,
    vec,
)
from vgsolve.graph import ViewingGraph
from vgsolve.mining import density_sweep, mine_minimal, sample_graph

TABLE_MINIMAL = {3: (1, 1), 4: (1, 1), 5: (2, 1), 6: (9, 4), 7: (20, 3), 8: (161, 36)}

TRIANGLE = ViewingGraph(3, ((0, 1), (1, 2), (0, 2)))
SQUARE = ViewingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4_MINUS_EDGE = ViewingGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
BOWTIE = ViewingGraph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def random_generic_pair(rng):
    while True:
        A = rng.uniform(-1, 1, (3, 4))
        B = rng.uniform(-1, 1, (3, 4))
        sv = np.linalg.svd(np.stack([A, B]), compute_uv=False)
        if sv[:, 2].min() > 1e-3:
            return A, B


@pytest.fixture(scope="module")
def table1_results():
    return {n: mine_minimal(n) for n in TABLE_MINIMAL}


def test_criterion_01_minimal_graph_table(table1_results):
    for n, (cands, solv) in TABLE_MINIMAL.items():
        res = table1_results[n]
        assert (res.candidates, res.fin_solv) == (cands, solv), (
            f"n={n}: got ({res.candidates}, {res.fin_solv}), want ({cands}, {solv})"
        )
    print("[criterion 1] PASS: minimal-graph counts n=3..8 match exactly")


def test_criterion_02_smallest_cases():
    t0 = time.perf_counter()
    assert finite_solvability(TRIANGLE).finite_solvable
    assert finite_solvability(K4_MINUS_EDGE).finite_solvable
    assert not finite_solvability(SQUARE).finite_solvable
    assert len(maximal_components(BOWTIE).components) == 2
    assert len(maximal_components(SQUARE).components) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 2] PASS: smallest cases correct in {elapsed:.2f}s")


def test_criterion_03_dimension_law():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(2, 28))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = sample_graph(n, min(m, n * (n - 1) // 2), rng)
        cfg = random_generic_configuration(g, int(rng.integers(2**31)))
        system = assemble_jacobian(g, cfg, fundamental_assignment(g, cfg))
        assert system.rows == 10 * g.edge_count + g.node_count + 15
        assert system.cols == 12 * g.node_count
    print("[criterion 3] PASS: J is 10m+n+15 by 12n on 100 random graphs")


def test_criterion_04_constraint_vanishing():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        A, B = random_generic_pair(rng)
        F = fundamental_matrix(A, B)
        r = np.linalg.norm(compatibility_residual(A, B, F))
        scale = np.linalg.norm(A) * np.linalg.norm(B) * np.linalg.norm(F)
        worst = max(worst, r / scale)
    assert worst <= 1e-9
    print(f"[criterion 4] PASS: residual vanishes, worst relative {worst:.2e}")


def test_criterion_05_derivatives():
    rng = np.random.default_rng(505)

    def central_diff(f, M, step_scale=1e-5):
        cols = []
        for c in range(M.shape[1]):
            for r in range(M.shape[0]):
                h = step_scale * max(1.0, abs(M[r, c]))
                d = np.zeros_like(M)
                d[r, c] = h
                cols.append((f(M + d) - f(M - d)) / (2 * h))
        return np.array(cols).T

    for _ in range(100):
        A, B = random_generic_pair(rng)
        F = fundamental_matrix(A, B)
        Ji = residual_jac_cam_i(B, F)
        fd = central_diff(lambda P: compatibility_residual(P, B, F), A)
        assert np.abs(Ji - fd).max() <= 1e-6 * np.abs(Ji).max()
        Jj = residual_jac_cam_j(A, F)
        fd = central_diff(lambda P: compatibility_residual(A, P, F), B)
        assert np.abs(Jj - fd).max() <= 1e-6 * np.abs(Jj).max()
        Jf = residual_jac_fmat(A, B)
        fd = central_diff(lambda X: compatibility_residual(A, B, X), F)
        assert np.abs(Jf - fd).max() <= 1e-8 * np.abs(Jf).max()
        s = np.linalg.svd(Jf, compute_uv=False)
        assert s[7] > 1e-8 * s[0] and s[8] <= 1e-8 * s[0]  # rank exactly 8
        assert np.linalg.norm(Jf @ vec(F)) <= 1e-10 * s[0]
    print("[criterion 5] PASS: derivative blocks match finite differences")


def test_criterion_06_rank_identity(table1_results):
    tol = 1e-8
    for n, res in table1_results.items():
        for g in res.witnesses:
            cfg = random_generic_configuration(g, 606)
            system = assemble_jacobian(g, cfg, fundamental_assignment(g, cfg))
            # rank of the edge-constraint rows alone (gauge and scale rows
            # stripped) must hit 11n - 15
            jp = system.matrix[: 10 * g.edge_count].toarray()
            s = np.linalg.svd(jp, compute_uv=False)
            rank = int(np.sum(s > tol * s[0]))
            assert rank == 11 * n - 15, f"n={n}: rank {rank} != {11 * n - 15}"
    print("[criterion 6] PASS: camera-block rank equals 11n-15 on all witnesses")


def test_criterion_07_density_sweep():
    n, samples = 20, 200
    res5 = density_sweep(n, 5.0, samples, seed=7005)
    assert res5.fin_solv_count == 0, f"5%: {res5.fin_solv_count} solvable"
    res30 = density_sweep(n, 30.0, samples, seed=7030)
    frac = res30.fin_solv_count / samples
    assert abs(frac - 0.826) <= 0.06, f"30%: fraction {frac:.3f}"
    res60 = density_sweep(n, 60.0, samples, seed=7060)
    assert res60.fin_solv_count >= 199, f"60%: {res60.fin_solv_count}"
    res70 = density_sweep(n, 70.0, samples, seed=7070)
    assert res70.fin_solv_count >= 199, f"70%: {res70.fin_solv_count}"
    print(
        "[criterion 7] PASS: sweep rates "
        f"5%={res5.fin_solv_count}/200, 30%={res30.fin_solv_count}/200, "
        f"60%={res60.fin_solv_count}/200, 70%={res70.fin_solv_count}/200"
    )


def test_criterion_08_oracle_agreement():
    rng = np.random.default_rng(808)
    densities = [10, 20, 30, 40, 50, 60, 70]
    n = 20
    checked = 0
    for trial in range(100):
        density = densities[trial % len(densities)]
        m = int(density * n * (n - 1) / 200)
        g = sample_graph(n, m, rng)
        fp = finite_solvability(g, seeds=[3 * trial, 3 * trial + 1, 3 * trial + 2])
        ff_full = finite_field_rank(g, seed=trial) == 12 * n
        assert fp.finite_solvable == ff_full, (
            f"trial {trial} (density {density}%): float={fp.finite_solvable} "
            f"field={ff_full}"
        )
        checked += 1
    assert checked == 100
    print("[criterion 8] PASS: float and finite-field verdicts agree on 100 graphs")


def test_criterion_09_partition_properties():
    rng = np.random.default_rng(909)
    collected = 0
    while collected < 200:
        n = int(rng.integers(10, 17))
        m = int(rng.integers(n - 1, int(1.35 * n)))
        g = sample_graph(n, m, rng)
        if finite_solvability(g, seeds=[collected]).finite_solvable:
            continue
        parts = [
            maximal_components(g, seeds=[seed]) for seed in (17, 900 + collected, 31337)
        ]
        counts = [0] * g.edge_count
        for comp in parts[0].components:
            for k in comp.edges:
                counts[k] += 1
        assert counts == [1] * g.edge_count
        assert parts[0].assignment == parts[1].assignment == parts[2].assignment
        if collected % 10 == 0:  # gauge choice leaves the verdict alone
            cfg = random_generic_configuration(g, 4242)
            fm = fundamental_assignment(g, cfg)
            verdicts = set()
            edges = list(g.edges)
            for _ in range(5):
                gauge = edges[int(rng.integers(len(edges)))]
                full, _, _ = is_full_column_rank(assemble_jacobian(g, cfg, fm, gauge))
                verdicts.add(full)
            assert verdicts == {False}
        collected += 1
    print("[criterion 9] PASS: partitions stable and exact on 200 unsolvable graphs")


def test_criterion_10_geometry_invariants():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        A, B = random_generic_pair(rng)
        F = fundamental_matrix(A, B)
        X = rng.uniform(-1, 1, 4)
        val = (B @ X) @ F @ (A @ X)
        scale = max(np.linalg.norm(B @ X) * np.linalg.norm(A @ X), 1e-30)
        assert abs(val) <= 1e-10 * scale
    for _ in range(200):
        A, B = random_generic_pair(rng)
        while True:
            H = rng.uniform(-1, 1, (4, 4))
            if abs(np.linalg.det(H)) > 1e-2:
                break
        F1 = normalize_projective(fundamental_matrix(A, B))
        F2 = normalize_projective(fundamental_matrix(A @ H, B @ H))
        assert np.allclose(F1, F2, atol=1e-8) or np.allclose(F1, -F2, atol=1e-8)
    print("[criterion 10] PASS: epipolar and projective invariance hold")


def test_smoke_large_graph(tmp_path):
    # stand-in for full-scale dataset timings: a 500-node, 20000-edge graph
    # must finish cmd_check within five minutes
    from vgsolve.graph import to_edge_list

    g = sample_graph(500, 20000, np.random.default_rng(5858))
    path = tmp_path / "large.txt"
    path.write_text(to_edge_list(g))
    t0 = time.perf_counter()
    rc = main(["--seeds", "123", "check", str(path)])
    elapsed = time.perf_counter() - t0
    assert rc in (0, 1)
    assert elapsed < 300.0, f"cmd_check took {elapsed:.1f}s"
    print(f"[smoke] PASS: 500-node/20000-edge check in {elapsed:.1f}s")
