import time
from itertools import combinations

import numpy as np
import pytest

from vgsolve.graph import ViewingGraph, necessary_conditions, minimal_edge_count
from vgsolve.mining import (
    canonical_form,
    density_sweep,
    enumerate_candidates,
    mine_minimal,
    sample_graph,
)


def brute_force_candidate_count(n: int) -> int:
    """Independent oracle: scan every labeled edge subset, keep biconnected
    ones with the target edge count, dedup by canonical form."""
    target = minimal_edge_count(n)
    pairs = list(combinations(range(n), 2))
    seen = set()
    for subset in combinations(range(len(pairs)), target):
        g = ViewingGraph(n, tuple(pairs[k] for k in subset))
        if min(g.degrees) < 2:
            continue
        if not necessary_conditions(g).biconnected:
            continue
        seen.add(canonical_form(g))
    return len(seen)


def test_canonical_form_invariant_under_permutation():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = sample_graph(n, m, rng)
        base = canonical_form(g)
        for _ in range(5):
            perm = list(rng.permutation(n))
            assert canonical_form(g.permuted(perm)) == base


def test_canonical_form_separates_nonisomorphic():
    path = ViewingGraph(4, ((0, 1), (1, 2), (2, 3)))
    star = ViewingGraph(4, ((0, 1), (0, 2), (0, 3)))
    assert canonical_form(path) != canonical_form(star)
    square = ViewingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    diamond = ViewingGraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    assert canonical_form(square) != canonical_form(diamond)


@pytest.mark.parametrize("n,count", [(3, 1), (4, 1), (5, 2), (6, 9), (7, 20), (8, 161), (9, 433)])
def test_candidate_counts(n, count):
    assert sum(1 for _ in enumerate_candidates(n)) == count


def test_largest_enumeration_within_budget():
    # n = 10 is the largest size the CLI accepts; it must not be a cliff
    start = time.perf_counter()
    assert sum(1 for _ in enumerate_candidates(10)) == 5898
    assert time.perf_counter() - start < 120


@pytest.mark.parametrize("n", [4, 5, 6])
def test_candidates_match_brute_force(n):
    assert sum(1 for _ in enumerate_candidates(n)) == brute_force_candidate_count(n)


def test_candidates_are_biconnected_with_target_edges():
    for n in (3, 4, 5, 6, 7):
        target = minimal_edge_count(n)
        for g in enumerate_candidates(n):
            assert g.node_count == n
            assert g.edge_count == target
            assert necessary_conditions(g).biconnected


def test_candidates_unique_up_to_isomorphism():
    rng = np.random.default_rng(1)
    cands = list(enumerate_candidates(6))
    codes = [canonical_form(g) for g in cands]
    assert len(set(codes)) == len(codes)
    # a random relabeling of any candidate hits an existing code
    for g in cands:
        perm = list(rng.permutation(g.node_count))
        assert canonical_form(g.permuted(perm)) in codes


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        list(enumerate_candidates(2))
    with pytest.raises(ValueError):
        list(enumerate_candidates(11))


@pytest.mark.parametrize("n,cands,solv", [(3, 1, 1), (4, 1, 1), (5, 2, 1), (6, 9, 4)])
def test_mine_minimal_counts(n, cands, solv):
    res = mine_minimal(n)
    assert res.candidates == cands
    assert res.fin_solv == solv
    assert len(res.witnesses) == solv
    assert res.edge_target == minimal_edge_count(n)


def test_mine_minimal_computes_no_second_canonical_code(monkeypatch):
    # candidates are deduplicated by _graph_code alone; a verdict needs no code
    import vgsolve.mining as mining

    def forbidden(g):
        raise AssertionError("a verdict computed a canonical code")

    monkeypatch.setattr(mining, "canonical_form", forbidden)
    res = mine_minimal(8)
    assert (res.candidates, res.fin_solv) == (161, 36)


def test_mine_minimal_deterministic():
    a = mine_minimal(5)
    b = mine_minimal(5)
    assert a.fin_solv == b.fin_solv
    assert [g.edges for g in a.witnesses] == [g.edges for g in b.witnesses]


def test_mine_minimal_threads_agree():
    seq = mine_minimal(6, threads=1)
    par = mine_minimal(6, threads=4)
    assert seq.fin_solv == par.fin_solv
    assert [g.edges for g in seq.witnesses] == [g.edges for g in par.witnesses]


def test_sample_graph_connected_when_possible():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = sample_graph(10, 12, rng)
        assert necessary_conditions(g).connected


def test_sample_graph_sparse_accepted_disconnected():
    rng = np.random.default_rng(3)
    g = sample_graph(20, 9, rng)
    assert g.edge_count == 9
    assert not necessary_conditions(g).connected


def test_sweep_complete_graph_solvable():
    res = density_sweep(8, 100.0, 3, seed=0)
    assert res.fin_solv_count == 3
    assert res.component_count_min == res.component_count_max == 1


def test_sweep_sparse_counts_components():
    res = density_sweep(12, 10.0, 4, seed=1)
    assert res.fin_solv_count == 0
    assert res.component_count_min >= 1
    assert res.component_count_max <= 6  # at most one component per edge


def test_sweep_deterministic_and_threaded():
    a = density_sweep(10, 40.0, 6, seed=7)
    b = density_sweep(10, 40.0, 6, seed=7)
    assert a == b
    c = density_sweep(10, 40.0, 6, seed=7, threads=3)
    assert c == a


def test_huge_thread_count_capped_by_tasks(monkeypatch):
    import vgsolve.mining as mining

    pools = []

    class RecordingPool(mining.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mining, "ThreadPoolExecutor", RecordingPool)
    serial = density_sweep(10, 40.0, 3, seed=7, threads=1)
    assert density_sweep(10, 40.0, 3, seed=7, threads=10**9) == serial
    assert all(w <= 3 for w in pools)
    with pytest.raises(ValueError):
        density_sweep(10, 40.0, 3, seed=7, threads=0)


def test_rejected_sweep_sample_is_assembled_only_for_its_components(monkeypatch):
    # every sample below fails a necessary condition, so no rank test runs
    # before maximal_components
    import vgsolve.engine as engine
    import vgsolve.mining as mining

    inside, outside, entered = [], [], []
    depth = [0]
    assemble, components = engine.assemble_jacobian, mining.maximal_components

    def counted_assemble(*args, **kwargs):
        (inside if depth[0] else outside).append(1)
        return assemble(*args, **kwargs)

    def counted_components(*args, **kwargs):
        entered.append(1)
        depth[0] += 1
        try:
            return components(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(engine, "assemble_jacobian", counted_assemble)
    monkeypatch.setattr(mining, "maximal_components", counted_components)
    # 6 edges on 12 nodes: forests, whose edges are all bridges, so nothing
    # is assembled inside maximal_components either
    res = density_sweep(12, 10.0, 4, seed=1)
    assert res.fin_solv_count == 0
    assert outside == [] and len(entered) == 4 and inside == []
    # 13 edges on 12 nodes (20%, seed 1): the samples keep blocks that
    # need a kernel, and those are assembled inside maximal_components only
    entered.clear()
    res = density_sweep(12, 20.0, 4, seed=1)
    assert res.fin_solv_count == 0
    assert outside == [] and len(entered) == 4 and len(inside) >= 1


def test_sweep_runs_the_rank_test_on_samples_the_certificate_leaves_open(monkeypatch):
    # K_{2,3} is solvable; the n=9 graph passes the count bound 84 = 11n - 15
    # but has rank_jp 83, and its 12 edges are 12 components
    import vgsolve.engine as engine
    import vgsolve.mining as mining

    k23 = ViewingGraph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))
    tight = ViewingGraph(9, ((1, 3), (2, 3), (0, 4), (3, 4), (0, 5), (2, 5),
                             (0, 6), (2, 6), (0, 7), (1, 7), (0, 8), (1, 8)))
    for g in (k23, tight):
        assert not mining._refuted(g) and engine._certificate(g) is False
    samples = iter([k23, tight])
    calls = []
    solve = mining.finite_solvability

    def counted(g, **kwargs):
        calls.append(g)
        return solve(g, **kwargs)

    monkeypatch.setattr(mining, "sample_graph", lambda n, m, rng: next(samples))
    monkeypatch.setattr(mining, "finite_solvability", counted)
    res = density_sweep(9, 30.0, 2, 1)
    assert calls == [k23, tight]
    assert res.fin_solv_count == 1
    assert (res.component_count_min, res.component_count_max) == (1, 12)


@pytest.mark.parametrize("run", [
    lambda: mine_minimal(9, threads=0),
    lambda: density_sweep(20, 30.0, 2000, 1, threads=0),
], ids=["mine_minimal", "density_sweep"])
def test_threads_checked_before_any_work(monkeypatch, run):
    import vgsolve.mining as mining

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before threads was checked")

    monkeypatch.setattr(mining, "enumerate_candidates", unreachable)
    monkeypatch.setattr(mining, "sample_graph", unreachable)
    with pytest.raises(ValueError, match="threads"):
        run()


@pytest.mark.parametrize("run", [
    lambda tol: mine_minimal(3, tolerance=tol),
    lambda tol: density_sweep(8, 100.0, 2, seed=0, tolerance=tol),
], ids=["mine_minimal", "density_sweep"])
def test_tolerance_checked_even_when_certificates_decide(run):
    # the rank threshold is fixed; a call that still passes one is refused,
    # even where (n=3, complete graphs) every graph is certified
    with pytest.raises(TypeError):
        run(float("nan"))


@pytest.mark.parametrize("run", [
    lambda: mine_minimal(3, 2),
    lambda: density_sweep(8, 100.0, 2, 0, 2),
], ids=["mine_minimal", "density_sweep"])
def test_threads_is_keyword_only(run):
    # the slot a retired tolerance held: a stale positional value is refused
    with pytest.raises(TypeError):
        run()


def test_sweep_validation():
    with pytest.raises(ValueError):
        density_sweep(10, 0.0, 5, seed=0)
    with pytest.raises(ValueError):
        density_sweep(10, 101.0, 5, seed=0)
    with pytest.raises(ValueError):
        density_sweep(10, 50.0, 0, seed=0)
    with pytest.raises(ValueError):
        density_sweep(20, 0.1, 2, seed=0)  # zero edges
