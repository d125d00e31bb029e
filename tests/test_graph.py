import sys
import threading
import time

import numpy as np
import pytest

from test_engine import BOWTIE, trajectory
from vgsolve.cli import main
from vgsolve.engine import finite_solvability, maximal_components
from vgsolve.graph import (
    GraphParseError,
    GraphValidationError,
    ViewingGraph,
    minimal_edge_count,
    necessary_conditions,
    parse_edge_list,
    to_edge_list,
)
from vgsolve.mining import _refuted, density_sweep

TRIANGLE = "0 1\n1 2\n0 2\n"
SQUARE = "0 1\n1 2\n2 3\n3 0\n"


def test_parse_triangle():
    g = parse_edge_list(TRIANGLE)
    assert g.node_count == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_parse_square():
    g = parse_edge_list(SQUARE)
    assert g.node_count == 4
    assert g.edge_count == 4


def test_parse_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1\n  # more\n1 2\n0 2\n")
    assert g.edge_count == 3


def test_parse_reorders_to_canonical_pairs():
    g = parse_edge_list("1 0\n2 1\n")
    assert g.edges == ((0, 1), (1, 2))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError):
        parse_edge_list("0 1\n0 1\n")
    with pytest.raises(GraphValidationError):
        parse_edge_list("0 1\n1 0\n")


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError):
        parse_edge_list("0 0\n")


def test_malformed_token_reports_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("0 1\n1 x\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphParseError):
        parse_edge_list("")


def test_gapped_node_ids_rejected():
    with pytest.raises(GraphValidationError, match="missing"):
        parse_edge_list("0 1\n3 4\n")


@pytest.mark.parametrize("top", [10**9, 10**12])
def test_huge_gapped_ids_rejected_quickly(top):
    t0 = time.perf_counter()
    with pytest.raises(GraphValidationError, match="missing") as exc:
        parse_edge_list(f"0 1\n1 {top}\n")
    assert time.perf_counter() - t0 < 0.5
    assert len(str(exc.value)) < 200
    assert f"{top - 2} of 0..{top} missing" in str(exc.value)


def test_roundtrip():
    g = parse_edge_list(SQUARE)
    assert parse_edge_list(to_edge_list(g)) == g


def test_constructor_validation():
    with pytest.raises(GraphValidationError):
        ViewingGraph(2, ((0, 2),))
    with pytest.raises(GraphValidationError):
        ViewingGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(GraphValidationError):
        ViewingGraph(0, ())


def test_minimal_edge_count():
    assert [minimal_edge_count(n) for n in range(3, 11)] == [3, 5, 6, 8, 9, 11, 12, 14]


def test_conditions_triangle_all_true():
    res = necessary_conditions(parse_edge_list(TRIANGLE))
    assert res.connected and res.biconnected
    assert res.min_degree_ok and res.no_adjacent_degree_two and res.edge_bound_ok
    assert res.articulation_points == ()


def test_conditions_path():
    res = necessary_conditions(parse_edge_list("0 1\n1 2\n"))
    assert res.connected
    assert not res.biconnected
    assert res.articulation_points == (1,)
    assert not res.min_degree_ok
    assert not res.no_adjacent_degree_two


def test_conditions_square():
    # hand enumeration: every node has degree 2 and the edges join them,
    # with no shared neighbor on any edge
    res = necessary_conditions(parse_edge_list(SQUARE))
    assert res.min_degree_ok
    assert not res.no_adjacent_degree_two
    assert res.biconnected


def test_conditions_single_edge_biconnected_by_convention():
    res = necessary_conditions(ViewingGraph(2, ((0, 1),)))
    assert res.connected and res.biconnected


def test_conditions_disconnected():
    g = ViewingGraph(4, ((0, 1), (2, 3)))
    res = necessary_conditions(g)
    assert not res.connected and not res.biconnected


def test_conditions_bowtie_cut_vertex():
    g = ViewingGraph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
    res = necessary_conditions(g)
    assert res.connected and not res.biconnected
    assert res.articulation_points == (2,)


def test_conditions_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    g = parse_edge_list("0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n1 3\n")
    base = necessary_conditions(g)
    for _ in range(10):
        perm = list(rng.permutation(g.node_count))
        res = necessary_conditions(g.permuted(perm))
        assert (res.connected, res.biconnected, res.min_degree_ok,
                res.no_adjacent_degree_two, res.edge_bound_ok) == (
            base.connected, base.biconnected, base.min_degree_ok,
            base.no_adjacent_degree_two, base.edge_bound_ok)
        assert res.articulation_points == tuple(sorted(perm[v] for v in base.articulation_points))


@pytest.fixture
def traversals(monkeypatch):
    """Every graph object the block DFS behind ViewingGraph.block_cut runs
    on, in call order."""
    seen = []
    prop = ViewingGraph.__dict__["block_cut"]
    dfs = prop.func

    def counted(g):
        seen.append(g)
        return dfs(g)

    monkeypatch.setattr(prop, "func", counted)
    return seen


def test_text_check_traverses_a_graph_with_a_cut_camera_once(tmp_path, traversals, capsys):
    p = tmp_path / "bowtie.txt"
    p.write_text("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
    assert main(["check", str(p)]) == 1
    assert "decided by its 2 biconnected blocks" in capsys.readouterr().out
    assert [g.node_count for g in traversals].count(5) == 1
    assert len({id(g) for g in traversals}) == len(traversals)


@pytest.mark.parametrize("compute", [finite_solvability, maximal_components])
@pytest.mark.parametrize("make", [
    lambda: BOWTIE,
    lambda: trajectory(200, 10, np.random.default_rng(293663143))[0],
], ids=["bowtie", "trajectory200"])
def test_blocks_are_decided_without_a_traversal_of_their_own(compute, make, traversals):
    # a block's subgraph is decided from the certificate, seeds and GF(p)
    # rank alone; the certified blocks here leave no graph over, so the
    # input graph is the only one traversed
    g = make()
    g = ViewingGraph(g.node_count, g.edges)  # no block_cut cached from an earlier test
    result = compute(g)
    if compute is finite_solvability:
        assert (result.finite_solvable, result.path) == (False, "blocks")
    else:
        assert len(result.components) == 2
    assert len(traversals) == 1 and traversals[0] is g


def test_rejected_sweep_sample_traversed_once(traversals):
    result = density_sweep(20, 30, 5, 2, threads=1)
    # _refuted reads the cached result, so it adds no traversal
    rejected = [g for g in traversals if g.edge_count == 57 and _refuted(g)]
    assert rejected and result.component_count_max > 1
    assert len({id(g) for g in traversals}) == len(traversals)


def test_block_cut_shared_between_threads():
    # more readers than cores race for one graph's first computation
    edges = tuple((i, j) for i in range(60) for j in range(i + 1, min(60, i + 4))) + ((0, 60),)
    expected = ViewingGraph(61, edges).block_cut
    g = ViewingGraph(61, edges)
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.append(g.block_cut)) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert results == [expected] * 8
    assert expected.pieces == 1 and expected.cuts == (0,) and len(expected.blocks) == 2
