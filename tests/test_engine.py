import json
import time

import networkx as nx
import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

from vgsolve import engine, geometry
from vgsolve.cli import main
from vgsolve.engine import (
    DEFAULT_PRIME,
    JacobianSystem,
    RankComputationError,
    _certificate,
    _field_jacobian,
    _low_ritz_pairs,
    assemble_jacobian,
    derive_seeds,
    export_matrix_market,
    finite_field_rank,
    finite_solvability,
    is_full_column_rank,
    matrix_dims,
    maximal_components,
    null_space_basis,
)
from vgsolve.geometry import (
    _edge_blocks,
    _fundamental_minors,
    compatibility_residual,
    fundamental_assignment,
    random_generic_configuration,
)
from vgsolve.graph import ViewingGraph, necessary_conditions, to_edge_list
from vgsolve.mining import _refuted, sample_graph

TRIANGLE = ViewingGraph(3, ((0, 1), (1, 2), (0, 2)))
SQUARE = ViewingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4_MINUS_EDGE = ViewingGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
BOWTIE = ViewingGraph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
SINGLE_EDGE = ViewingGraph(2, ((0, 1),))
# the mine 5 witness: finite solvable, but triangle-free, so only the rank
# test decides it
K23 = ViewingGraph(5, ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)))


def build_system(g, seed=1, gauge=None):
    cfg = random_generic_configuration(g, seed)
    return assemble_jacobian(g, cfg, fundamental_assignment(g, cfg), gauge)


@pytest.mark.parametrize(
    "g,rows,cols",
    [(TRIANGLE, 48, 36), (SQUARE, 59, 48), (SINGLE_EDGE, 27, 24)],
)
def test_dimensions_small(g, rows, cols):
    system = build_system(g)
    assert (system.rows, system.cols) == (rows, cols)


def test_dimension_law_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 26))
        max_m = n * (n - 1) // 2
        m = int(rng.integers(1, max_m + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.choice(max_m, size=m, replace=False)
        g = ViewingGraph(n, tuple(pairs[int(t)] for t in take))
        system = build_system(g, seed=int(rng.integers(2**31)))
        assert system.rows == 10 * g.edge_count + g.node_count + 15
        assert system.cols == 12 * g.node_count


def test_block_sparsity_pattern():
    system = build_system(TRIANGLE)
    J = system.matrix.toarray()
    for k, (i, j) in enumerate(TRIANGLE.edges):
        rows = J[10 * k : 10 * k + 10]
        touched = {c // 12 for c in np.nonzero(rows.any(axis=0))[0]}
        assert touched == {i, j}
    # gauge and scale rows are 0/1 constants
    tail = J[30:]
    assert set(np.unique(tail)) <= {0.0, 1.0}
    # row counts: 12 + 4 gauge rows, n - 1 scale rows
    assert tail.shape[0] == 16 + 2


def test_gauge_edge_must_exist():
    cfg = random_generic_configuration(TRIANGLE, 1)
    fm = fundamental_assignment(TRIANGLE, cfg)
    with pytest.raises(ValueError):
        assemble_jacobian(TRIANGLE, cfg, fm, gauge_edge=(1, 3))


def test_incompatible_fundamentals_rejected():
    cfg = random_generic_configuration(TRIANGLE, 1)
    other = fundamental_assignment(TRIANGLE, random_generic_configuration(TRIANGLE, 2))
    with pytest.raises(ValueError, match="not compatible"):
        assemble_jacobian(TRIANGLE, cfg, other)


def test_triangle_full_rank():
    full, smin, smax = is_full_column_rank(build_system(TRIANGLE))
    assert full and smin > 1e-4 * smax


def test_square_rank_deficient():
    full, smin, smax = is_full_column_rank(build_system(SQUARE))
    assert not full and smin <= 1e-10 * smax


def test_duplicated_column_detected():
    system = build_system(TRIANGLE)
    J = system.matrix.toarray()
    J[:, 5] = J[:, 17]
    corrupted = JacobianSystem(matrix=sp.csr_matrix(J))
    full, _, _ = is_full_column_rank(corrupted)
    assert not full


def test_null_space_trivial_for_triangle():
    assert null_space_basis(build_system(TRIANGLE)).shape == (36, 0)


def test_null_space_square():
    system = build_system(SQUARE)
    N = null_space_basis(system)
    assert N.shape[0] == 48 and N.shape[1] >= 1
    _, _, smax = is_full_column_rank(system)
    residual = np.linalg.norm((system.matrix @ N), axis=0)
    assert np.all(residual <= 1e-7 * smax)
    # orthonormal columns
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-10)


def _exact_rank(g, seed):
    """finite_field_rank(g, seed=seed) without its size guard, which the
    "gram" branch lowers to 0 along with the dense SVD switch."""
    M = _field_jacobian(g, DEFAULT_PRIME, np.random.default_rng(seed))
    return engine._rank_mod_p(M, DEFAULT_PRIME)


@pytest.fixture(params=["dense", "gram"])
def branch(request, monkeypatch):
    """Run a test on the dense-SVD path and again on the large-system
    (Cholesky) path, by lowering the dense size switch to 0."""
    if request.param == "gram":
        monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    return request.param


def test_wide_system_null_space(branch):
    # a 6-node tree has 71 rows < 72 columns; the kernel basis must still
    # span the missing directions
    tree = ViewingGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
    system = build_system(tree)
    assert system.rows < system.cols
    full, smin, _ = is_full_column_rank(system)
    assert not full and smin == 0.0
    N = null_space_basis(system)
    assert N.shape[1] >= system.cols - system.rows


TEN_TRIANGLES = ViewingGraph(
    30, tuple((3 * t + a, 3 * t + b) for t in range(10) for a, b in ((0, 1), (1, 2), (0, 2)))
)
# two 6-node triangle strips joined by the disjoint edges (0, 6) and (5, 11):
# biconnected, uncertified and not solvable, so every verdict on it takes the
# whole-graph rank test
JOINED_STRIPS = ViewingGraph(12, tuple(
    (o + i, o + i + d) for o in (0, 6) for d in (1, 2) for i in range(6 - d)) + ((0, 6), (5, 11)))
GRAM_PATH_CASES = [
    TRIANGLE,
    K4_MINUS_EDGE,
    sample_graph(12, 30, np.random.default_rng(3)),
    sample_graph(20, 60, np.random.default_rng(4)),
    SQUARE,
    BOWTIE,
    ViewingGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),  # wide: 71 x 72
    TEN_TRIANGLES,  # kernel of 135 directions, far wider than the start block
]


@pytest.mark.parametrize("g", GRAM_PATH_CASES)
def test_gram_path_agrees_with_dense_svd(g, monkeypatch):
    system = build_system(g, seed=11)
    full_ref, smin_ref, smax_ref = is_full_column_rank(system)
    kernel_ref = null_space_basis(system)
    # send these small systems down the large-system (Cholesky) branch
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    full, smin, smax = is_full_column_rank(system)
    kernel = null_space_basis(system)
    assert full == full_ref
    assert smax == pytest.approx(smax_ref, rel=1e-12)
    if full_ref:
        assert smin == pytest.approx(smin_ref, rel=1e-6)
    assert kernel.shape == kernel_ref.shape
    assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]), atol=1e-10)
    if kernel.shape[1]:
        assert scipy.linalg.subspace_angles(kernel, kernel_ref).max() <= 1e-8


def test_gram_path_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    monkeypatch.setattr(engine, "_GRAM_MAX_STEPS", 1)
    system = build_system(SQUARE)
    with pytest.raises(RankComputationError, match="59x48"):
        is_full_column_rank(system)
    with pytest.raises(RankComputationError, match="59x48"):
        null_space_basis(system)


def test_failed_cholesky_raises():
    J = build_system(TRIANGLE).matrix
    indefinite = -np.eye(J.shape[1])
    with pytest.raises(RankComputationError, match="48x36"):
        _low_ritz_pairs(J, indefinite, 1.0, need="rank")


@pytest.mark.parametrize("g,branch", [(SQUARE, "dense"), (JOINED_STRIPS, "gram")],
                         indirect=["branch"])
def test_one_spectral_pass_per_seed(g, branch, monkeypatch):
    calls = []
    low_spectrum = engine._low_spectrum

    def counted(J, need):
        calls.append(need)
        return low_spectrum(J, need)

    def forbidden(*args, **kwargs):
        raise AssertionError("finite_solvability must not compute a second kernel")

    monkeypatch.setattr(engine, "_low_spectrum", counted)
    monkeypatch.setattr(engine, "null_space_basis", forbidden)
    rep = finite_solvability(g, seeds=[4, 5, 6])
    assert not rep.finite_solvable
    # the first seed decides: one rank pass, and the others are not evaluated
    assert (rep.seeds, rep.path) == ((4,), "float")
    assert calls == ["rank"]
    assert rep.rank_jp == _exact_rank(g, seed=1) - g.node_count - 15


def test_fundamentals_evaluated_once_per_seed(monkeypatch):
    calls = []
    minors = geometry._fundamental_minors

    def counted(*args, **kwargs):
        calls.append(1)
        return minors(*args, **kwargs)

    monkeypatch.setattr(geometry, "_fundamental_minors", counted)
    rep = finite_solvability(SQUARE, seeds=[1, 2, 3])
    assert rep.seeds == (1,)
    assert len(calls) == 1


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 1.0, 2.0])
@pytest.mark.parametrize("compute", [
    lambda tol: finite_solvability(TRIANGLE, seeds=[1], tolerance=tol),
    lambda tol: maximal_components(TRIANGLE, seeds=[1], tolerance=tol),
    lambda tol, system=build_system(TRIANGLE): null_space_basis(system, tol),
    lambda tol, system=build_system(TRIANGLE): is_full_column_rank(system, tol),
], ids=["finite_solvability", "maximal_components", "null_space_basis", "is_full_column_rank"])
def test_tolerance_outside_unit_interval_rejected(compute, tolerance, monkeypatch):
    # the rank threshold is the fixed DEFAULT_TOLERANCE: a call that still
    # passes one, in or out of (0, 1), is refused before any work (no
    # camera draw, no spectrum) rather than run at a threshold never validated
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geometry, "_fundamental_minors", counted(geometry._fundamental_minors))
    monkeypatch.setattr(engine, "_low_spectrum", counted(engine._low_spectrum))
    with pytest.raises(TypeError):
        compute(tolerance)
    assert calls == []


def test_rank_jp_matches_field_rank(branch):
    # rank_jp = rank(J) - n - 15, and the exact rank of J over GF(p) is an
    # oracle for rank(J) at a generic point
    rng = np.random.default_rng(12)
    checked = whole = 0
    while checked < 20:
        n = int(rng.integers(5, 16))
        m = int(rng.integers(n, 2 * n + 1))
        g = sample_graph(n, m, rng)
        exact = _exact_rank(g, seed=checked)
        if exact == 12 * n:
            continue
        rep = finite_solvability(g, seeds=[1, 2, 3])
        assert not rep.finite_solvable
        assert rep.rank_jp == exact - n - 15
        whole += rep.path in ("float", "exact")
        checked += 1
    # the rest are not biconnected and take their rank_jp from their blocks
    assert whole >= 1


def test_beyond_column_cap_raises_named_error(monkeypatch):
    # SQUARE (59 x 48) stands in for a system too large for both the dense
    # SVD and the J^T J path; the refusal must come at once, by name
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    monkeypatch.setattr(engine, "_DENSE_EIG_MAX_COLS", 47)
    system = build_system(SQUARE)
    for compute in (is_full_column_rank, null_space_basis):
        t0 = time.perf_counter()
        with pytest.raises(RankComputationError, match="59x48"):
            compute(system)
        assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    with pytest.raises(RankComputationError, match="59x48"):
        finite_solvability(SQUARE)
    assert time.perf_counter() - t0 < 1.0


def test_edge_blocks_match_finite_differences():
    # the residual is linear in each camera, so central differences are
    # exact up to rounding at any step
    rng = np.random.default_rng(14)
    Pi = rng.uniform(-1, 1, size=(50, 3, 4))
    Pj = rng.uniform(-1, 1, size=(50, 3, 4))
    F = _fundamental_minors(Pi, Pj)
    F /= np.linalg.norm(F, axis=(1, 2), keepdims=True)
    block_i, block_j = _edge_blocks(Pi, Pj, F)
    step = 0.5
    for e in range(50):
        for r, c in np.ndindex(3, 4):
            dP = np.zeros((3, 4))
            dP[r, c] = step
            col = 3 * c + r  # column-major vec of the 3x4 camera
            d_i = (compatibility_residual(Pi[e] + dP, Pj[e], F[e])
                   - compatibility_residual(Pi[e] - dP, Pj[e], F[e])) / (2 * step)
            d_j = (compatibility_residual(Pi[e], Pj[e] + dP, F[e])
                   - compatibility_residual(Pi[e], Pj[e] - dP, F[e])) / (2 * step)
            assert np.allclose(block_i[e, :, col], d_i, rtol=0, atol=1e-13)
            assert np.allclose(block_j[e, :, col], d_j, rtol=0, atol=1e-13)


def test_finite_solvability_verdicts():
    assert finite_solvability(TRIANGLE).finite_solvable
    assert finite_solvability(K4_MINUS_EDGE).finite_solvable
    assert not finite_solvability(SQUARE).finite_solvable
    assert not finite_solvability(BOWTIE).finite_solvable


def test_report_fields_and_json():
    rep = finite_solvability(K23, seeds=[4, 5, 6])
    assert rep.expected_rank == 40
    assert rep.rank_jp == 40
    assert rep.seeds == (4,)
    assert rep.agreement == (True,)
    assert rep.wall_time > 0
    payload = json.loads(rep.to_json())
    assert payload["finite_solvable"] is True
    assert payload["tolerance"] == rep.tolerance
    assert payload["path"] == "float"


def test_report_sigmas_come_from_first_seed():
    rep = finite_solvability(K23, seeds=[4, 5, 6])
    assert rep.agreement == (True,)
    _, smin, smax = is_full_column_rank(build_system(K23, seed=4))
    assert (rep.sigma_min, rep.sigma_max) == (smin, smax)


def _in_band_spectrum(monkeypatch, seeds_in_band, q=1.0):
    """Make the first ``seeds_in_band`` spectral passes land inside the
    ambiguity band (sigma_min = q * tolerance * sigma_max at the default
    tolerance) and record the sigmas every pass returns."""
    low_spectrum = engine._low_spectrum
    returned = []

    def banded(J, need):
        s, smax, V = low_spectrum(J, need)
        if len(returned) < seeds_in_band:
            s = s.copy()
            s[0] = q * engine.DEFAULT_TOLERANCE * smax
        returned.append((float(s[0]), smax))
        return s, smax, V

    monkeypatch.setattr(engine, "_low_spectrum", banded)
    return returned


@pytest.mark.parametrize("g,solvable,rank_jp", [(K23, True, 40), (SQUARE, False, 28)])
def test_seed_in_band_passes_to_next_seed(g, solvable, rank_jp, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a decisive second seed must not reach the exact rank")

    returned = _in_band_spectrum(monkeypatch, 1)
    monkeypatch.setattr(engine, "finite_field_rank", forbidden)
    rep = finite_solvability(g, seeds=[4, 5, 6])
    assert (rep.finite_solvable, rep.rank_jp, rep.path) == (solvable, rank_jp, "float")
    assert rep.seeds == (4, 5)
    # q = 1 is not above the tolerance, so the first seed's own verdict is False
    assert rep.agreement == (False, solvable)
    assert len(returned) == 2
    assert (rep.sigma_min, rep.sigma_max) == returned[0]


@pytest.mark.parametrize("g,solvable,rank_jp", [(K23, True, 40), (SQUARE, False, 28)])
def test_no_decisive_seed_takes_exact_rank(g, solvable, rank_jp, monkeypatch):
    returned = _in_band_spectrum(monkeypatch, 3)
    rep = finite_solvability(g, seeds=[4, 5, 6])
    assert (rep.finite_solvable, rep.rank_jp, rep.path) == (solvable, rank_jp, "exact")
    assert rep.rank_jp == rep.expected_rank - (12 * g.node_count - finite_field_rank(g))
    assert (rep.seeds, rep.agreement) == ((4, 5, 6), (False, False, False))
    assert (rep.sigma_min, rep.sigma_max) == returned[0]
    assert json.loads(rep.to_json())["path"] == "exact"


def _n100_agreement_graphs():
    """Three biconnected 100-node graphs the certificate does not certify:
    two uniform ones with an edge between two degree-2 nodes outside a
    triangle (deficient) and a triangle-free bipartite one that is finite
    solvable."""
    graphs = [sample_graph(100, m, np.random.default_rng(seed))
              for m, seed in ((297, 163), (310, 2))]
    pairs = [(i, 50 + j) for i in range(50) for j in range(50)]
    pick = np.random.default_rng(1).choice(len(pairs), size=300, replace=False)
    graphs.append(ViewingGraph(100, tuple(sorted(pairs[k] for k in pick))))
    return graphs


@pytest.mark.parametrize("g", _n100_agreement_graphs(), ids=["uniform297", "uniform310",
                                                           "bipartite300"])
def test_float_verdict_agrees_with_exact_rank_at_n100(g):
    assert _certificate(g) is not True and necessary_conditions(g).biconnected
    t0 = time.perf_counter()
    rep = finite_solvability(g)
    exact = finite_field_rank(g)
    # 1.4-2.0 s per graph on a 2-vCPU host; the bound allows a slow host
    assert time.perf_counter() - t0 < 10.0
    assert rep.path == "float"
    assert rep.rank_jp == 11 * 100 - 15 - (12 * 100 - exact)
    assert rep.finite_solvable == (exact == 1200)


def test_certified_report_draws_no_camera(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a certified graph must not be assembled")

    monkeypatch.setattr(engine, "assemble_jacobian", forbidden)
    rep = finite_solvability(TRIANGLE, seeds=[4, 5, 6])
    assert (rep.finite_solvable, rep.rank_jp, rep.expected_rank) == (True, 18, 18)
    assert rep.path == "certificate"
    assert (rep.seeds, rep.agreement) == ((), ())
    payload = json.loads(rep.to_json())
    assert payload["sigma_min"] is None and payload["sigma_max"] is None
    assert payload["seeds"] == [] and payload["agreement"] == []


def test_rank_reported_for_deficient_graph():
    rep = finite_solvability(SQUARE)
    # 11n - 15 = 29; the 4-cycle has a one-dimensional kernel
    assert rep.rank_jp == 28
    assert rep.expected_rank == 29


def test_empty_seed_list_rejected():
    with pytest.raises(ValueError, match="seed list must not be empty"):
        finite_solvability(TRIANGLE, seeds=[])
    with pytest.raises(ValueError, match="seed list must not be empty"):
        maximal_components(TRIANGLE, seeds=[])


@pytest.mark.parametrize("g", [TRIANGLE, K23], ids=["certified", "open"])
@pytest.mark.parametrize("compute", [finite_solvability, maximal_components])
def test_negative_seed_rejected_before_any_work(compute, g, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the seeds were checked")

    monkeypatch.setattr(engine, "_certificate", unreachable)
    monkeypatch.setattr(engine, "_assemble_for_seed", unreachable)
    with pytest.raises(ValueError, match="seeds must be non-negative, got -5"):
        compute(g, seeds=[3, -5])


def test_negative_seed_named_by_field_rank_and_draw(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a field matrix was built before the seed was checked")

    monkeypatch.setattr(engine, "_field_jacobian", unreachable)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        finite_field_rank(TRIANGLE, seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        random_generic_configuration(TRIANGLE, -1)


def test_edgeless_graph_rejected():
    with pytest.raises(ValueError):
        finite_solvability(ViewingGraph(3, ()))


def test_disconnected_graph_not_solvable():
    two_triangles = ViewingGraph(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    )
    rep = finite_solvability(two_triangles)
    assert not rep.finite_solvable
    part = maximal_components(two_triangles)
    assert len(part.components) == 2
    assert part.components[0].nodes == (0, 1, 2)
    assert part.components[1].nodes == (3, 4, 5)


def test_gauge_independence():
    rng = np.random.default_rng(1)
    for g in (TRIANGLE, SQUARE, K4_MINUS_EDGE, BOWTIE):
        base = None
        edges = list(g.edges)
        for _ in range(5):
            gauge = edges[int(rng.integers(len(edges)))]
            full, _, _ = is_full_column_rank(build_system(g, seed=7, gauge=gauge))
            if base is None:
                base = full
            assert full == base


def test_seed_stability_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = sample_graph(n, m, rng)
        seeds = [int(s) for s in rng.integers(0, 2**32, size=5)]
        rep = finite_solvability(g, seeds=seeds)
        # a report evaluates a prefix of the seeds: run the rank test at each
        per_seed = tuple(
            is_full_column_rank(engine._assemble_for_seed(g, s, None))[0] for s in seeds)
        assert rep.agreement == per_seed[: len(rep.agreement)]
        assert len(set(per_seed)) == 1
        assert per_seed[0] == rep.finite_solvable


def test_necessary_condition_consistency():
    # graphs failing any necessary condition must fail the rank test
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = sample_graph(n, m, rng)
        cond = necessary_conditions(g)
        if cond.biconnected and cond.no_adjacent_degree_two and cond.edge_bound_ok:
            continue
        checked += 1
        assert not finite_solvability(g, seeds=[11, 12, 13]).finite_solvable
    assert checked > 30


def test_components_small_cases():
    assert len(maximal_components(TRIANGLE).components) == 1
    square_part = maximal_components(SQUARE)
    assert len(square_part.components) == 4
    assert sorted(c.edges for c in square_part.components) == [(0,), (1,), (2,), (3,)]
    bow = maximal_components(BOWTIE)
    assert len(bow.components) == 2
    assert bow.components[0].nodes == (0, 1, 2)
    assert bow.components[1].nodes == (2, 3, 4)
    assert set(bow.components[0].nodes) & set(bow.components[1].nodes) == {2}


def test_partition_properties_random():
    rng = np.random.default_rng(4)
    done = 0
    while done < 25:
        n = int(rng.integers(6, 14))
        m = int(rng.integers(n - 1, int(1.4 * n)))
        g = sample_graph(n, m, rng)
        part = maximal_components(g, seeds=[5])
        # every edge in exactly one component
        counts = [0] * g.edge_count
        for comp in part.components:
            for k in comp.edges:
                counts[k] += 1
        assert counts == [1] * g.edge_count
        assert list(part.assignment).count(-1) == 0
        # node sets cover all non-isolated nodes
        covered = {v for comp in part.components for v in comp.nodes}
        non_isolated = {v for e in g.edges for v in e}
        assert covered == non_isolated
        # seed choice does not move the partition
        again = maximal_components(g, seeds=[1234])
        assert again.assignment == part.assignment
        done += 1


def trajectory(n, k, rng):
    """Cameras along a path linked to their k nearest successors, minus every
    link across the middle camera: two solvable halves sharing one camera.
    Labels and edge order are shuffled."""
    split = n // 2
    base = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))
            if not i < split < j]
    perm = rng.permutation(n)
    edges = [(int(perm[base[t][0]]), int(perm[base[t][1]])) for t in rng.permutation(len(base))]
    return ViewingGraph(n, tuple(edges)), perm


def test_trajectory_halves_are_certified_blocks(monkeypatch):
    # the middle camera cuts the graph into two blocks, each certified, so
    # no kernel of the 19215 x 2400 system (or of a half) is taken
    g, perm = trajectory(200, 10, np.random.default_rng(293663143))
    kernels = _count_kernels(monkeypatch)
    part = maximal_components(g)
    assert kernels == []
    assert len(part.components) == 2
    assert -1 not in part.assignment
    halves = sorted(c.nodes for c in part.components)
    assert halves == sorted(
        (tuple(sorted(int(v) for v in perm[:101])), tuple(sorted(int(v) for v in perm[100:])))
    )


def test_components_of_joined_strips(branch, monkeypatch):
    # JOINED_STRIPS is one uncertified block, so it takes one kernel; what
    # it leaves over is a certified strip and two bridges
    g = JOINED_STRIPS
    assert necessary_conditions(g).biconnected and _certificate(g) is False
    kernels = _count_kernels(monkeypatch)
    part = maximal_components(g, seeds=[3])
    assert len(kernels) == 1
    assert [len(c.edges) for c in part.components] == [9, 9, 1, 1]
    assert part.components[0].nodes == tuple(range(6))
    assert part.components[1].nodes == tuple(range(6, 12))


def test_gram_path_report_is_deterministic(monkeypatch):
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    g = JOINED_STRIPS
    first = finite_solvability(g).to_dict()
    second = finite_solvability(g).to_dict()
    assert first["path"] == "float"
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_component_partition_json_roundtrip():
    part = maximal_components(BOWTIE)
    payload = json.loads(part.to_json())
    assert payload["assignment"] == list(part.assignment)
    assert payload["components"][0]["nodes"] == [0, 1, 2]


def test_finite_field_small_cases():
    assert finite_field_rank(TRIANGLE, seed=1) == 36
    assert finite_field_rank(SQUARE, seed=1) < 48
    assert finite_field_rank(K4_MINUS_EDGE, seed=1) == 48


def test_finite_field_prime_guard():
    # the prime is the fixed DEFAULT_PRIME; a stale positional prime must not
    # become the seed
    with pytest.raises(TypeError):
        finite_field_rank(TRIANGLE, prime=97)
    with pytest.raises(TypeError):
        finite_field_rank(TRIANGLE, DEFAULT_PRIME)


def test_finite_field_size_guard(monkeypatch):
    # SQUARE (59 x 48) stands in for a system whose dense int64 matrix is
    # too large; the refusal names the shape and comes before the build
    def forbidden(*args, **kwargs):
        raise AssertionError("the dense field matrix must not be built")

    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 59 * 48)
    assert finite_field_rank(SQUARE, seed=1) < 48
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 59 * 48 - 1)
    monkeypatch.setattr(engine, "_field_jacobian", forbidden)
    with pytest.raises(RankComputationError, match="59x48"):
        finite_field_rank(SQUARE, seed=1)


def _rank_mod_p_reference(M, p):
    """The elimination as it was before steps were restricted to the
    trailing columns and pivots chosen by sparsity: the first row with a
    nonzero is the pivot, and whole rows are updated."""
    M = M % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        pivots = np.nonzero(M[r:, c])[0]
        if pivots.size == 0:
            continue
        piv = r + int(pivots[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        below = M[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            M[r + 1 + nz] = (M[r + 1 + nz] - np.outer(below[nz], M[r])) % p
        r += 1
        if r == rows:
            break
    return r


def _sparse_residues(rng, rows, cols, density, p=DEFAULT_PRIME):
    M = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    M[rng.random((rows, cols)) >= density] = 0
    return M


def _residue_cases():
    rng = np.random.default_rng(15)
    p = DEFAULT_PRIME
    for rows, cols, density in ((40, 12, 0.3), (12, 40, 0.3), (60, 60, 0.05), (30, 30, 0.5)):
        yield _sparse_residues(rng, rows, cols, density)
    for _ in range(4):  # rank-deficient: some rows are combinations of others
        M = _sparse_residues(rng, 50, 36, 0.15)
        for r in range(20, 50):
            i, j = rng.integers(0, 20, size=2)
            a, b = rng.integers(1, p, size=2)
            M[r] = (a * M[i] % p + b * M[j] % p) % p
        yield M
    M = _sparse_residues(rng, 30, 24, 0.2)
    yield M[rng.integers(0, 30, size=60)]  # repeated rows
    M = _sparse_residues(rng, 40, 30, 0.2)
    M[:, rng.choice(30, size=8, replace=False)] = 0  # zero columns
    yield M
    yield np.zeros((5, 7), dtype=np.int64)


@pytest.mark.parametrize("M", list(_residue_cases()))
def test_rank_mod_p_matches_reference(M):
    assert engine._rank_mod_p(M.copy(), DEFAULT_PRIME) == _rank_mod_p_reference(M, DEFAULT_PRIME)


def test_rank_mod_p_matches_reference_on_exact_graphs():
    # the graphs of the benchmark's exact workload at its seed 1, with the
    # ranks it records
    rng = np.random.default_rng(int(np.random.SeedSequence([1, 3]).generate_state(1)[0]))
    ranks = []
    for n, density in ((20, 15.0), (20, 40.0), (40, 8.0), (40, 20.0), (60, 15.0)):
        g = sample_graph(n, int(density * n * (n - 1) / 200), rng)
        M = _field_jacobian(g, DEFAULT_PRIME, np.random.default_rng(0))
        ranks.append(engine._rank_mod_p(M.copy(), DEFAULT_PRIME))
        assert ranks[-1] == _rank_mod_p_reference(M, DEFAULT_PRIME)
    assert ranks == [218, 240, 446, 480, 720]


def test_finite_field_agrees_with_float_on_small_batch():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(4, 10))
        m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
        g = sample_graph(n, m, rng)
        ff_full = finite_field_rank(g, seed=trial) == 12 * g.node_count
        fp_full = finite_solvability(g, seeds=[trial, trial + 1, trial + 2]).finite_solvable
        assert ff_full == fp_full


def test_field_fundamentals_match_float_minors():
    # small integer cameras: the float minors are exact integers
    rng = np.random.default_rng(8)
    Pi = rng.integers(-3, 4, size=(200, 3, 4))
    Pj = rng.integers(-3, 4, size=(200, 3, 4))
    exact = np.rint(_fundamental_minors(Pi, Pj)).astype(np.int64) % DEFAULT_PRIME
    field = _fundamental_minors(Pi % DEFAULT_PRIME, Pj % DEFAULT_PRIME, DEFAULT_PRIME)
    assert np.array_equal(field, exact)


@pytest.mark.parametrize("g", [TRIANGLE, SQUARE, BOWTIE, sample_graph(9, 20, np.random.default_rng(9))])
def test_field_jacobian_has_float_layout(g):
    field = _field_jacobian(g, DEFAULT_PRIME, np.random.default_rng(10))
    dense = build_system(g).matrix.toarray()
    assert field.shape == (10 * g.edge_count + g.node_count + 15, 12 * g.node_count)
    assert field.dtype == np.int64 and field.min() >= 0 and field.max() < DEFAULT_PRIME
    assert np.array_equal(field != 0, dense != 0)


def test_matrix_dims_examples():
    g = sample_graph(20, 38, np.random.default_rng(6))
    dims = matrix_dims(g)
    assert dims["e3"] == 415
    assert dims["v3"] == 240
    assert dims["e2"] == 669
    assert dims["v12"] == 608
    tri = matrix_dims(TRIANGLE)
    assert tri["e3"] == 48 and tri["v3"] == 36


def test_matrix_dims_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        m = int(rng.integers(n + 1, n * (n - 1) // 2 + 1)) if n > 3 else 3
        g = sample_graph(n, min(m, n * (n - 1) // 2), rng)
        dims = matrix_dims(g)
        assert dims["e1"] >= dims["e1_lower_bound"] - 1e-9
        if g.edge_count > g.node_count:
            assert dims["e2"] <= dims["e1"]


def test_matrix_market_export(tmp_path):
    system = build_system(TRIANGLE)
    path = tmp_path / "triangle.mtx"
    export_matrix_market(system, str(path))
    back = scipy.io.mmread(str(path))
    assert np.allclose(back.toarray(), system.matrix.toarray())


def test_derive_seeds_deterministic():
    assert derive_seeds(42, 5) == derive_seeds(42, 5)
    assert derive_seeds(42, 5) != derive_seeds(43, 5)
    assert len(set(derive_seeds(42, 5))) == 5
    # a tuple key, as the component loop uses: a prefix of a longer draw
    assert derive_seeds((42, 3), 1) == derive_seeds((42, 3), 5)[:1]
    assert derive_seeds((42, 3), 1) != derive_seeds((42, 4), 1)


def test_provenance_blocks():
    # each row block of the layout touches exactly the cameras it belongs to
    system = build_system(SQUARE)
    J = system.matrix.toarray()
    n, m = SQUARE.node_count, SQUARE.edge_count
    a, b = min(SQUARE.edges)

    def cameras(rows):
        return {int(c) // 12 for c in np.nonzero(J[rows].any(axis=0))[0]}

    for k, (i, j) in enumerate(SQUARE.edges):
        assert cameras(slice(10 * k, 10 * k + 10)) == {i, j}
    gauge = J[10 * m : 10 * m + 16]
    assert cameras(slice(10 * m, 10 * m + 12)) == {a}
    assert np.array_equal(gauge[:12, 12 * a : 12 * a + 12], np.eye(12))
    assert np.array_equal(np.nonzero(gauge[12:])[1], 12 * b + 3 * np.arange(4))
    scale = J[10 * m + 16 :]
    others = [v for v in range(n) if v != a]
    assert scale.shape[0] == len(others) == 3
    for row, v in zip(scale, others):
        assert np.array_equal(np.nonzero(row)[0], 12 * v + np.arange(12))
    assert 10 * m + 16 + len(others) == system.rows


def _relabeling_cases():
    rng = np.random.default_rng(2026)
    graphs = [SQUARE, BOWTIE]
    for _ in range(30):
        n = int(rng.integers(6, 15))
        density = rng.uniform(0.25, 0.60)
        graphs.append(sample_graph(n, max(1, round(density * n * (n - 1) / 2)), rng))
    return [(g, [int(v) for v in rng.permutation(g.node_count)]) for g in graphs]


def _component_edge_sets(g, partition, perm):
    return {
        frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in (g.edges[k] for k in c.edges))
        for c in partition.components
    }


@pytest.mark.parametrize("g,perm", _relabeling_cases())
def test_verdict_and_partition_invariant_under_relabeling(g, perm):
    h = g.permuted(perm)
    base, moved = finite_solvability(g), finite_solvability(h)
    assert moved.finite_solvable == base.finite_solvable
    assert moved.rank_jp == base.rank_jp
    identity = list(range(g.node_count))
    assert _component_edge_sets(h, maximal_components(h), identity) == \
        _component_edge_sets(g, maximal_components(g), perm)


def _soundness_cases():
    rng = np.random.default_rng(1313)
    for _ in range(520):
        n = int(rng.integers(3, 15))
        pairs = n * (n - 1) // 2
        yield sample_graph(n, int(rng.integers(1, pairs + 1)), rng)


def test_certificate_is_sound():
    # every certified verdict, and every refutation of mine and sweep, is
    # checked against both rank tests: the float test on one assembled
    # system and the exact rank over GF(p)
    decided = {True: 0, False: 0, None: 0}
    for t, g in enumerate(_soundness_cases()):
        verdict = False if _refuted(g) else (True if _certificate(g) else None)
        decided[verdict] += 1
        if verdict is None:
            continue
        full, _, _ = is_full_column_rank(build_system(g, seed=t))
        exact_full = finite_field_rank(g, seed=t) == 12 * g.node_count
        assert full == exact_full == verdict, g.edges
    assert decided[True] >= 100 and decided[False] >= 100


def _count_kernels(monkeypatch):
    """Record every kernel pass; maximal_components takes them through
    engine._low_spectrum."""
    low_spectrum = engine._low_spectrum
    kernels = []

    def counted(J, need):
        if need == "kernel":
            kernels.append(J.shape)
        return low_spectrum(J, need)

    monkeypatch.setattr(engine, "_low_spectrum", counted)
    return kernels


def _kernel_components(g, master):
    """The component loop with a kernel for every piece and no shortcut:
    the connected piece of the remaining edges holding the lowest one,
    gauged on that edge, and the edges between nodes whose 12-row kernel
    blocks vanish."""
    assignment = [-1] * g.edge_count
    cid = 0
    while -1 in assignment:
        first = assignment.index(-1)
        remaining = [k for k in range(g.edge_count) if assignment[k] == -1]
        piece = nx.node_connected_component(
            nx.Graph([g.edges[k] for k in remaining]), g.edges[first][0])
        ids = [k for k in remaining if g.edges[k][0] in piece]
        nodes = sorted(piece)
        relabel = {v: t for t, v in enumerate(nodes)}
        sub = ViewingGraph(len(nodes), tuple((relabel[i], relabel[j])
                                             for i, j in (g.edges[k] for k in ids)))
        kernel = null_space_basis(
            engine._assemble_for_seed(sub, derive_seeds((master, cid), 1)[0], sub.edges[0]))
        fixed = set(nodes)
        if kernel.shape[1]:
            norms = np.linalg.norm(kernel.reshape(len(nodes), 12, -1), axis=(1, 2))
            fixed = {nodes[t] for t in np.flatnonzero(
                norms <= engine.NODE_BLOCK_REL_TOL * norms.max())}
        for k in ids:
            if fixed.issuperset(g.edges[k]):
                assignment[k] = cid
        cid += 1
    return tuple(assignment)


def test_certified_pieces_are_assigned_without_kernel(monkeypatch):
    # BOWTIE: two certified blocks at a cut vertex, so no kernel at all
    kernels = _count_kernels(monkeypatch)
    assert maximal_components(BOWTIE).assignment == (0, 0, 0, 1, 1, 1)
    assert maximal_components(TRIANGLE).assignment == (0, 0, 0)
    assert kernels == []


K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("g,expected", [
    # a pendant gauge edge is a component of its own, then the K4 whole
    (ViewingGraph(5, ((3, 4),) + K4_EDGES), (0, 1, 1, 1, 1, 1, 1)),
    # the certified K4 block comes first, then the bridge
    (ViewingGraph(5, K4_EDGES + ((3, 4),)), (0, 0, 0, 0, 0, 0, 1)),
    # a path hanging off the K4: each of its edges is a bridge
    (ViewingGraph(6, K4_EDGES + ((3, 4), (4, 5))), (0, 0, 0, 0, 0, 0, 1, 2)),
], ids=["pendant-gauge", "certified-rest", "hanging-path"])
def test_pendant_pieces_are_assigned_without_kernel(monkeypatch, g, expected):
    kernels = _count_kernels(monkeypatch)
    assert maximal_components(g, seeds=[5]).assignment == expected
    assert kernels == []
    # the kernel of every piece gives the same partition
    assert _kernel_components(g, 5) == expected


def _pendant_cases():
    rng = np.random.default_rng(4242)
    for _ in range(80):
        n = int(rng.integers(4, 16))
        g = sample_graph(n, int(rng.integers(n, min(n * (n - 1) // 2, 4 * n) + 1)), rng)
        edges, nodes = list(g.edges), n
        for _ in range(int(rng.integers(1, 4))):
            edges.insert(int(rng.integers(0, len(edges) + 1)),
                         (int(rng.integers(0, nodes)), nodes))
            nodes += 1
        yield ViewingGraph(nodes, tuple(edges))


def _glued_cases():
    """2-4 dense pieces, each glued to the graph so far at one camera or
    joined to it by one edge, plus 0-2 hanging chains of 1-3 edges; labels
    and edge order shuffled."""
    rng = np.random.default_rng(1515)
    for _ in range(60):
        edges, n = [], 0
        for p in range(int(rng.integers(2, 5))):
            size = int(rng.integers(3, 8))
            pairs = size * (size - 1) // 2
            piece = sample_graph(size, int(rng.integers(min(2 * size, pairs), pairs + 1)), rng)
            glued = p > 0 and rng.random() < 0.5
            labels = [int(rng.integers(0, n))] if glued else []  # the shared camera
            if p and not glued:
                edges.append((int(rng.integers(0, n)), n))  # the joining edge
            labels += range(n, n + size - len(labels))
            edges += [(labels[i], labels[j]) for i, j in piece.edges]
            n += size - glued
        for _ in range(int(rng.integers(0, 3))):
            end = int(rng.integers(0, n))
            for _ in range(int(rng.integers(1, 4))):
                edges.append((end, n))
                end, n = n, n + 1
        perm = rng.permutation(n)
        edges = [(int(perm[i]), int(perm[j])) for i, j in edges]
        yield ViewingGraph(n, tuple(edges[int(t)] for t in rng.permutation(len(edges))))


def test_blocks_agree_with_kernel_reference(monkeypatch):
    # graphs with pendant nodes and glued pieces: the block partition is the
    # one the kernel of every connected piece gives
    cases = list(_pendant_cases()) + list(_glued_cases())
    kernels = _count_kernels(monkeypatch)
    blocks = [maximal_components(g, seeds=[t]).assignment for t, g in enumerate(cases)]
    taken = len(kernels)
    for t, g in enumerate(cases):
        assert _kernel_components(g, t) == blocks[t], g.edges
    assert 0 < taken < len(kernels) - taken


def _uniform_graph(n, m, seed):
    """m distinct uniform pairs on n nodes, without listing all n^2 pairs."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(2, 2 * m))
    codes = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    codes = codes[codes // n != codes % n]
    codes = rng.permutation(codes)[:m]
    assert codes.size == m
    return ViewingGraph(n, tuple(zip((codes // n).tolist(), (codes % n).tolist())))


def test_certificate_no_cliff_on_large_uniform_graph():
    g = _uniform_graph(10_000, 200_000, 1)
    t0 = time.perf_counter()
    assert _certificate(g) is True
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("command", ["check", "components"])
def test_cli_no_cliff_beyond_column_cap(command, tmp_path, capsys):
    # 24000 columns: beyond the rank test's reach, within the certificate's
    g = _uniform_graph(2000, 40_000, 3)
    path = tmp_path / "uniform.txt"
    path.write_text(to_edge_list(g))
    t0 = time.perf_counter()
    assert main(["--format", "json", command, str(path)]) == 0
    assert time.perf_counter() - t0 < 30.0
    payload = json.loads(capsys.readouterr().out)
    if command == "check":
        assert payload["finite_solvable"] is True and payload["path"] == "certificate"
    else:
        assert len(payload["components"]) == 1


def test_components_no_cliff_with_pendant_node(tmp_path, capsys):
    # one degree-1 node on the certified 2000/40000 graph: the rest is
    # certified, so no kernel of the 24012-column system is needed
    g = _uniform_graph(2000, 40_000, 3)
    g = ViewingGraph(2001, g.edges + ((0, 2000),))
    path = tmp_path / "pendant.txt"
    path.write_text(to_edge_list(g))
    t0 = time.perf_counter()
    assert main(["--format", "json", "components", str(path)]) == 0
    assert time.perf_counter() - t0 < 30.0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(len(c["edges"]) for c in payload["components"]) == [1, 40_000]


def test_components_no_cliff_on_long_path(tmp_path, capsys):
    # 2999 bridges: one block DFS, no kernel and no loop over the rest
    path = tmp_path / "path.txt"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(2999)))
    t0 = time.perf_counter()
    assert main(["components", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out.startswith("2999 component(s)\n")


@pytest.mark.parametrize("g,q,sizes", [
    (K23, 1.0, [6]), (SQUARE, 1.0, [1, 1, 1, 1]), (K23, 10.0, [6]), (SQUARE, 10.0, [1, 1, 1, 1]),
], ids=["K23", "SQUARE", "K23-q10", "SQUARE-q10"])
def test_in_band_block_takes_exact_rank(g, q, sizes, monkeypatch):
    # the one kernel pass lands inside the band, so the GF(p) rank decides:
    # K23 is solvable and stays whole, SQUARE reads that pass's lowest
    # 11n - 15 - rank_jp directions.  At q = 10 the pass is above the
    # tolerance and its own float kernel is empty, yet the split must follow
    # the verdict that check reaches on an in-band pass
    returned = _in_band_spectrum(monkeypatch, 3, q)
    part = maximal_components(g, seeds=[4])
    assert [len(c.edges) for c in part.components] == sizes
    assert len(returned) == 1
    rep = finite_solvability(g, seeds=[4])
    assert (rep.path, rep.finite_solvable) == ("exact", len(sizes) == 1)
    # on a block too large for the exact rank, its named error
    rows, cols = 10 * g.edge_count + g.node_count + 15, 12 * g.node_count
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", rows * cols - 1)
    with pytest.raises(RankComputationError, match=f"{rows}x{cols}"):
        maximal_components(g, seeds=[4])


@pytest.mark.parametrize("g,sizes", [(K23, [6]), (SQUARE, [1, 1, 1, 1])], ids=["K23", "SQUARE"])
def test_components_try_the_seeds_in_order(g, sizes, monkeypatch):
    # the first pass lands inside the band, so the block passes to the
    # second seed, which decides as it does for check
    def forbidden(*args, **kwargs):
        raise AssertionError("a decisive second seed must not reach the exact rank")

    expected = maximal_components(g, seeds=[4, 5])
    returned = _in_band_spectrum(monkeypatch, 1)
    monkeypatch.setattr(engine, "finite_field_rank", forbidden)
    part = maximal_components(g, seeds=[4, 5])
    assert len(returned) == 2
    assert part == expected
    assert [len(c.edges) for c in part.components] == sizes


def test_certificate_no_cliff_on_triangle_free_graph():
    # a bipartite circulant: every node has degree 8 and passes the
    # necessary conditions, but every edge's closure is the edge itself
    half, rng = 2500, np.random.default_rng(2)
    offsets = rng.choice(half, size=8, replace=False)
    perm = rng.permutation(2 * half)
    edges = [(int(perm[i]), int(perm[half + (i + int(o)) % half]))
             for i in range(half) for o in offsets]
    g = ViewingGraph(2 * half, tuple(edges[int(k)] for k in rng.permutation(len(edges))))
    assert g.edge_count == 20_000
    t0 = time.perf_counter()
    assert _certificate(g) is False
    assert time.perf_counter() - t0 < 5.0


def _multi_block_cases():
    """Graphs that are not biconnected: 2-4 pieces, each glued to the graph
    so far at one camera, joined to it by one edge or left apart, plus 0-2
    hanging chains of 1-3 edges; labels and edge order shuffled.  A piece is
    a dense random graph, or now and then K23 (open, solvable) or SQUARE
    (open, deficient), so some blocks take the rank test.  Last, a graph
    with a node on no edge, which only the library can build."""
    rng = np.random.default_rng(1919)
    for _ in range(110):
        edges, n = [], 0
        for p in range(int(rng.integers(2, 5))):
            pick = rng.random()
            if pick < 0.15:
                piece = K23
            elif pick < 0.25:
                piece = SQUARE
            else:
                size = int(rng.integers(3, 8))
                pairs = size * (size - 1) // 2
                piece = sample_graph(size, int(rng.integers(min(2 * size, pairs), pairs + 1)), rng)
            size = piece.node_count
            how = int(rng.integers(0, 3)) if p else None  # glued, joined, apart
            labels = [int(rng.integers(0, n))] if how == 0 else []
            if how == 1:
                edges.append((int(rng.integers(0, n)), n))
            labels += range(n, n + size - len(labels))
            edges += [(labels[i], labels[j]) for i, j in piece.edges]
            n += size - (how == 0)
        for _ in range(int(rng.integers(0, 3))):
            end = int(rng.integers(0, n))
            for _ in range(int(rng.integers(1, 4))):
                edges.append((end, n))
                end, n = n, n + 1
        perm = rng.permutation(n)
        edges = [(int(perm[i]), int(perm[j])) for i, j in edges]
        yield ViewingGraph(n, tuple(edges[int(t)] for t in rng.permutation(len(edges))))
    yield ViewingGraph(8, K4_EDGES + ((3, 4), (4, 5), (5, 3), (5, 6)))  # node 7 on no edge


def test_block_sum_matches_field_rank(branch, monkeypatch):
    # rank_jp of a graph that is not biconnected is the sum over its blocks;
    # the exact rank of the whole graph's J over GF(p) is the oracle
    passes = []
    low_spectrum = engine._low_spectrum

    def counted(J, need):
        passes.append(J.shape)
        return low_spectrum(J, need)

    monkeypatch.setattr(engine, "_low_spectrum", counted)
    cases = list(_multi_block_cases())
    for t, g in enumerate(cases):
        n = g.node_count
        rep = finite_solvability(g, seeds=[t, t + 1, t + 2])
        assert (rep.finite_solvable, rep.path) == (False, "blocks"), g.edges
        assert rep.rank_jp == 11 * n - 15 - (12 * n - _exact_rank(g, seed=t)), g.edges
        assert (rep.sigma_min, rep.sigma_max, rep.seeds, rep.agreement) == (None, None, (), ())
        # every pass is a block's own system, never the whole graph's
        assert all(cols < 12 * n for _, cols in passes)
    assert len(cases) > 100 and cases[-1].degrees[-1] == 0
    assert len(passes) >= 20


def test_block_sum_invariant_under_relabeling():
    rng = np.random.default_rng(20)
    for g in _multi_block_cases():
        perm = [int(v) for v in rng.permutation(g.node_count)]
        h = g.permuted(perm)
        h = ViewingGraph(h.node_count, tuple(h.edges[int(k)] for k in rng.permutation(h.edge_count)))
        base, moved = finite_solvability(g), finite_solvability(h)
        assert (moved.finite_solvable, moved.rank_jp, moved.path) == \
            (base.finite_solvable, base.rank_jp, base.path), g.edges


def test_exact_cap_applies_per_block(monkeypatch):
    # every pass inside the band, and the exact rank capped below the whole
    # graph's 70 x 60 system but above the SQUARE block's 59 x 48: the block's
    # GF(p) rank decides, so no whole-graph rank is needed
    g = ViewingGraph(5, SQUARE.edges + ((3, 4),))
    reference = 11 * 5 - 15 - (12 * 5 - _exact_rank(g, seed=0))
    returned = _in_band_spectrum(monkeypatch, 10)
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 70 * 60 - 1)
    with pytest.raises(RankComputationError, match="70x60"):
        finite_field_rank(g)
    rep = finite_solvability(g, seeds=[4, 5, 6])
    assert (rep.finite_solvable, rep.rank_jp, rep.path) == (False, 35, "blocks")
    assert rep.rank_jp == reference == 28 + 7
    assert len(returned) == 3  # the SQUARE block's three seeds, all in the band


def _trajectory_file(tmp_path, n):
    g, _ = trajectory(n, 6, np.random.default_rng(n))
    path = tmp_path / f"trajectory{n}.txt"
    path.write_text(to_edge_list(g))
    return path


def _pendant_file(tmp_path):
    g = _uniform_graph(2000, 40_000, 3)
    path = tmp_path / "pendant.txt"
    path.write_text(to_edge_list(ViewingGraph(2001, g.edges + ((0, 2000),))))
    return path


@pytest.mark.parametrize("make", [
    lambda tmp_path: _trajectory_file(tmp_path, 2000),
    lambda tmp_path: _trajectory_file(tmp_path, 5000),
    _pendant_file,
], ids=["trajectory2000", "trajectory5000", "pendant2001"])
def test_check_no_cliff_on_multi_block_graph(make, tmp_path, capsys):
    # beyond the rank test's 8000 columns, but each block is certified: one
    # camera short of solvable, and no factor of the whole graph
    path = make(tmp_path)
    t0 = time.perf_counter()
    assert main(["--format", "json", "check", str(path)]) == 1
    assert time.perf_counter() - t0 < 30.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank_jp"] == payload["expected_rank"] - 4
    assert payload["path"] == "blocks" and payload["finite_solvable"] is False
