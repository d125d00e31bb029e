"""Property tests against independent oracles: networkx for connectivity,
biconnected blocks, random samples, isomorphism and the atlas of all graphs
on up to 7 nodes, and the edge-list format itself for parsing; the growth
certificate's invariance under relabeling; and the agreement of check and
components."""

import random
from itertools import combinations

import numpy as np
import pytest

from vgsolve.engine import _certificate, finite_solvability, maximal_components
from vgsolve.graph import (
    GraphParseError,
    GraphValidationError,
    ViewingGraph,
    minimal_edge_count,
    necessary_conditions,
    parse_edge_list,
    to_edge_list,
)
from vgsolve.mining import canonical_form, enumerate_candidates, sample_graph

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

# fixed examples, no example database: the same cases on every run
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)


def edge_subsets(n, min_size=0, max_size=None):
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return st.just([])
    return st.lists(st.sampled_from(pairs), min_size=min_size, max_size=max_size, unique=True)


@st.composite
def graphs(draw, min_nodes=1, max_nodes=9):
    n = draw(st.integers(min_nodes, max_nodes))
    return ViewingGraph(n, tuple(draw(edge_subsets(n))))


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    G.add_edges_from(g.edges)
    return G


@SETTINGS
@given(graphs(min_nodes=2))
def test_connectivity_matches_networkx(g):
    # networkx counts a single node as not biconnected but a single edge as
    # biconnected; from two nodes on the conventions agree
    res = necessary_conditions(g)
    G = to_nx(g)
    assert res.connected == nx.is_connected(G)
    assert res.biconnected == nx.is_biconnected(G)
    assert res.articulation_points == tuple(sorted(nx.articulation_points(G)))
    blocks = g.block_cut.blocks
    assert all(isinstance(b, tuple) and list(b) == sorted(b) for b in blocks)
    assert {frozenset(g.edges[k] for k in b) for b in blocks} == {
        frozenset(tuple(sorted(e)) for e in c) for c in nx.biconnected_component_edges(G)
    }


@SETTINGS
@given(graphs(), st.data())
def test_canonical_form_decides_isomorphism(g, data):
    perm = data.draw(st.permutations(range(g.node_count)))
    assert canonical_form(g.permuted(perm)) == canonical_form(g)
    # a second graph on as many nodes and edges: isomorphic or not
    other = ViewingGraph(g.node_count, tuple(data.draw(edge_subsets(g.node_count, g.edge_count, g.edge_count))))
    same = canonical_form(other) == canonical_form(g)
    assert same == nx.is_isomorphic(to_nx(other), to_nx(g))


def atlas():
    """networkx's atlas: one graph per isomorphism class on 0..7 nodes."""
    return [G for G in nx.graph_atlas_g() if G.number_of_nodes() >= 1]


@pytest.mark.parametrize("n,count", [(3, 1), (4, 1), (5, 2), (6, 9), (7, 20)])
def test_candidates_match_atlas(n, count):
    # the atlas classes that are candidates, matched one-to-one by networkx
    # isomorphism alone, without the package's canonical form
    expected = [
        G for G in atlas()
        if G.number_of_nodes() == n
        and G.number_of_edges() == minimal_edge_count(n)
        and nx.is_biconnected(G)
    ]
    assert len(expected) == count
    unmatched = [to_nx(g) for g in enumerate_candidates(n)]
    for G in expected:
        hits = [H for H in unmatched if nx.is_isomorphic(G, H)]
        assert len(hits) == 1
        unmatched.remove(hits[0])
    assert unmatched == []


def test_canonical_form_on_atlas():
    rng = random.Random(0)
    seen = set()
    for G in atlas():
        g = ViewingGraph(G.number_of_nodes(), tuple(G.edges()))
        code = canonical_form(g)
        assert (g.node_count, code) not in seen
        seen.add((g.node_count, code))
        perm = list(range(g.node_count))
        rng.shuffle(perm)
        assert canonical_form(g.permuted(perm)) == code
    assert len(seen) == 1252


@st.composite
def edge_list_graphs(draw):
    """Graphs the edge-list format can hold: at least one edge, and every
    node on an edge."""
    n = draw(st.integers(2, 12))
    edges = draw(edge_subsets(n, min_size=1))
    used = sorted({v for e in edges for v in e})
    label = {v: t for t, v in enumerate(used)}
    return ViewingGraph(len(used), tuple((label[i], label[j]) for i, j in edges))


@SETTINGS
@given(edge_list_graphs())
def test_edge_list_roundtrip(g):
    assert parse_edge_list(to_edge_list(g)) == g


_TOKENS = st.one_of(
    st.integers(-(10**13), 10**13).map(str),
    st.integers(0, 12).map(str),
    st.text(max_size=4),
)
_TEXTS = st.one_of(
    st.text(),
    st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=8).map("\n".join),
)


@SETTINGS
@given(_TEXTS)
def test_parser_raises_only_named_errors(text):
    try:
        g = parse_edge_list(text)
    except (GraphParseError, GraphValidationError):
        return
    assert g.edge_count >= 1
    assert set(range(g.node_count)) == {v for e in g.edges for v in e}


@SETTINGS
@given(graphs(min_nodes=2), st.data())
def test_certificate_invariant_under_relabeling_and_edge_order(g, data):
    hypothesis.assume(g.edge_count >= 1)
    perm = data.draw(st.permutations(range(g.node_count)))
    order = data.draw(st.permutations(range(g.edge_count)))
    h = ViewingGraph(g.node_count, tuple(g.permuted(perm).edges[k] for k in order))
    certified = _certificate(g)
    assert _certificate(h) == certified
    paths = [finite_solvability(x, seeds=[1]).path for x in (g, h)]
    # a graph that is not biconnected takes its rank_jp from its blocks
    split = certified is False and not necessary_conditions(g).biconnected
    assert paths[0] == paths[1] == ("certificate" if certified else "blocks" if split else "float")


# sample_graph(7, 7, default_rng(seed)) twice, then the generator's next
# integer: pins the edges and the number of redraws behind every sweep
SAMPLED = {
    1: ([(2, 4), (1, 3), (0, 1), (3, 6), (0, 3), (1, 4), (5, 6)],
        [(0, 5), (2, 4), (2, 3), (1, 2), (0, 2), (1, 6), (0, 1)], 1944245514),
    2: ([(1, 5), (0, 5), (3, 5), (1, 3), (0, 6), (0, 2), (2, 4)],
        [(3, 5), (1, 6), (0, 5), (3, 4), (1, 3), (2, 4), (4, 6)], 804243663),
    3: ([(5, 6), (1, 3), (0, 5), (0, 1), (2, 5), (0, 3), (2, 4)],
        [(1, 5), (4, 6), (2, 6), (0, 3), (2, 5), (3, 5), (3, 4)], 1257226043),
}


@pytest.mark.parametrize("seed", sorted(SAMPLED))
def test_sample_graph_draws_are_recorded(seed):
    first, second, after = SAMPLED[seed]
    rng = np.random.default_rng(seed)
    assert [list(sample_graph(7, 7, rng).edges) for _ in range(2)] == [first, second]
    assert int(rng.integers(0, 2**32)) == after


@SETTINGS
@given(st.integers(2, 9), st.data())
def test_sample_graph_connected_when_possible(n, data):
    m = data.draw(st.integers(n - 1, n * (n - 1) // 2))
    g = sample_graph(n, m, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    assert g.edge_count == m
    assert nx.is_connected(to_nx(g))


@pytest.mark.parametrize("n, m, seed", [(6, 2, 1), (10, 7, 2), (20, 9, 3), (20, 18, 4)])
def test_sample_graph_too_sparse_returns_first_draw(n, m, seed):
    pairs = list(combinations(range(n), 2))
    idx = np.random.default_rng(seed).choice(len(pairs), size=m, replace=False)
    g = sample_graph(n, m, np.random.default_rng(seed))
    assert g.edges == tuple(pairs[int(k)] for k in idx)
    assert not nx.is_connected(to_nx(g))


@st.composite
def connected_samples(draw, min_nodes=3, max_nodes=10):
    """sample_graph at n nodes and any m >= n - 1 edges: connected."""
    n = draw(st.integers(min_nodes, max_nodes))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    return sample_graph(n, m, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


# the mine 7 and mine 8 candidates, enumerated on first draw
MINED = st.deferred(lambda: st.sampled_from([*enumerate_candidates(7), *enumerate_candidates(8)]))
_HALVES = st.one_of(connected_samples(max_nodes=7), MINED)


@st.composite
def glued_halves(draw):
    """Two halves sharing 1-3 cameras, with the edges of both."""
    a, b = draw(_HALVES), draw(_HALVES)
    shared = draw(st.integers(1, min(3, a.node_count, b.node_count)))
    label = draw(st.permutations(range(a.node_count)))[:shared]
    label += range(a.node_count, a.node_count + b.node_count - shared)
    edges = set(a.edges) | {tuple(sorted((label[i], label[j]))) for i, j in b.edges}
    return ViewingGraph(a.node_count + b.node_count - shared, tuple(sorted(edges)))


@SETTINGS
@given(st.one_of(connected_samples(), glued_halves(), MINED), st.integers(0, 2**32 - 1))
def test_check_agrees_with_components(g, seed):
    # check and components decide every block by the same ladder: a graph is
    # solvable exactly when its partition is one component on all its nodes
    part = maximal_components(g, seeds=[seed])
    whole = len(part.components) == 1 and part.components[0].nodes == tuple(range(g.node_count))
    assert finite_solvability(g, seeds=[seed]).finite_solvable == whole, g.edges
