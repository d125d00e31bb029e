"""Viewing-graph representation, edge-list parsing, and combinatorial
necessary conditions used as cheap pre-tests before any rank computation.

A viewing graph is an undirected simple graph whose nodes stand for cameras
and whose edges mark camera pairs with a known fundamental matrix.  Edge
order is significant throughout the package: edge k owns rows
``10*k .. 10*k+9`` of the constraint Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

__all__ = [
    "BlockCut",
    "GraphParseError",
    "GraphValidationError",
    "ViewingGraph",
    "NecessaryConditionResult",
    "parse_edge_list",
    "to_edge_list",
    "necessary_conditions",
    "minimal_edge_count",
]

_GAPS_SHOWN = 5  # missing node ids quoted in the error message


class GraphParseError(ValueError):
    """Malformed edge-list input (bad token, wrong field count)."""


class GraphValidationError(ValueError):
    """Structurally invalid graph (self-loop, duplicate edge, bad node id)."""


class BlockCut(NamedTuple):
    """A graph's connected pieces, articulation points and biconnected
    blocks: the edge sets that no single node disconnects, each as ascending
    edge indices.  Every edge lies in exactly one block; a bridge is a block
    of its own."""

    pieces: int
    cuts: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


def minimal_edge_count(n: int) -> int:
    """Fewest edges a solvable graph on ``n`` nodes can have: ceil((11n-15)/7)."""
    return max(0, math.ceil((11 * n - 15) / 7))


@dataclass(frozen=True)
class ViewingGraph:
    """Immutable undirected simple graph with 0-based contiguous node ids.

    Edges are normalized to ``(min, max)`` pairs but kept in construction
    order, since downstream Jacobian row blocks are indexed by edge position.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise GraphValidationError(f"node_count must be >= 1, got {self.node_count}")
        canonical = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise GraphValidationError(f"self-loop at node {i}")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise GraphValidationError(
                    f"edge ({i}, {j}) out of range for {self.node_count} nodes"
                )
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise GraphValidationError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.node_count
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def block_cut(self) -> BlockCut:
        """Iterative low-link DFS with an edge stack (Hopcroft-Tarjan), run
        once per graph; the result is shared, so it holds only tuples."""
        n, edges = self.node_count, self.edges
        incident = [[] for _ in range(n)]  # edge indices alone keep the peak memory low
        for k, (i, j) in enumerate(edges):
            incident[i].append(k)
            incident[j].append(k)
        disc, low = [-1] * n, [0] * n
        via = [-1] * n  # tree edge into each node; -1 at a DFS root
        mark = [0] * n  # edge-stack height where that tree edge was pushed
        closes = [0] * n  # blocks a node closes as the parent of a subtree
        edge_stack: list[int] = []
        blocks: list[tuple[int, ...]] = []
        timer = pieces = 0
        for s in range(n):
            if disc[s] != -1:
                continue
            pieces += 1
            disc[s] = low[s] = timer
            timer += 1
            stack = [(s, iter(incident[s]))]  # each node with its edges still to scan
            while stack:
                v, todo = stack[-1]
                for k in todo:
                    i, w = edges[k]
                    if w == v:
                        w = i
                    if disc[w] == -1:
                        via[w], mark[w] = k, len(edge_stack)
                        edge_stack.append(k)
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, iter(incident[w])))
                        break
                    if disc[w] < disc[v] and k != via[v]:  # back edge, seen once
                        edge_stack.append(k)
                        if disc[w] < low[v]:
                            low[v] = disc[w]
                else:  # v is done
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] >= disc[u]:  # u separates v's subtree: close a block
                            blocks.append(tuple(sorted(edge_stack[mark[v]:])))
                            del edge_stack[mark[v]:]
                            closes[u] += 1
        # a root separates only when it closes two or more blocks
        cuts = tuple(v for v in range(n) if closes[v] > (via[v] == -1))
        return BlockCut(pieces, cuts, tuple(blocks))

    def permuted(self, perm: list[int] | tuple[int, ...]) -> "ViewingGraph":
        """Relabel nodes: node ``v`` becomes ``perm[v]``."""
        if sorted(perm) != list(range(self.node_count)):
            raise GraphValidationError("perm is not a permutation of the node ids")
        return ViewingGraph(
            self.node_count, tuple((perm[i], perm[j]) for i, j in self.edges)
        )


def parse_edge_list(text: str) -> ViewingGraph:
    """Parse a whitespace-separated edge list, one ``i j`` pair per line.

    Lines starting with ``#`` and blank lines are ignored.  Node ids must be
    0-based and contiguous; files with gaps are rejected rather than
    compacted.  Self-loops and duplicate edges are left to ViewingGraph,
    whose errors name the edge but not the line.
    """
    edges: list[tuple[int, int]] = []
    mentioned: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two node ids, got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer node id in {raw!r}") from None
        if i < 0 or j < 0:
            raise GraphParseError(f"line {lineno}: negative node id in {raw!r}")
        edges.append((i, j))
        mentioned.add(i)
        mentioned.add(j)
    if not edges:
        raise GraphParseError("no edges found in input")
    n = max(mentioned) + 1
    if len(mentioned) < n:
        # the k-th gap lies below len(mentioned) + k, so this scan is O(m)
        scan = range(min(n, len(mentioned) + _GAPS_SHOWN))
        gaps = [v for v in scan if v not in mentioned][:_GAPS_SHOWN]
        raise GraphValidationError(
            f"node ids are not contiguous: {n - len(mentioned)} of 0..{n - 1} missing, "
            f"first {gaps}"
        )
    return ViewingGraph(n, tuple(edges))


def to_edge_list(g: ViewingGraph) -> str:
    """Serialize back to the edge-list format accepted by parse_edge_list."""
    return "".join(f"{i} {j}\n" for i, j in g.edges)


@dataclass(frozen=True)
class NecessaryConditionResult:
    """Outcome of the combinatorial pre-tests.

    All five conditions are necessary for solvability; none is sufficient.
    """

    connected: bool
    biconnected: bool
    min_degree_ok: bool
    no_adjacent_degree_two: bool
    edge_bound_ok: bool
    articulation_points: tuple[int, ...]


def necessary_conditions(g: ViewingGraph) -> NecessaryConditionResult:
    """Evaluate the cheap combinatorial conditions every solvable graph meets.

    ``no_adjacent_degree_two`` flags an edge joining two nodes of degree at
    most two that share no common neighbor; an edge inside a triangle is
    exempt (a lone triangle is solvable even though all its degrees are 2).
    """
    pieces, cuts, _ = g.block_cut
    connected = pieces == 1
    biconnected = connected and not cuts
    deg = g.degrees
    min_degree_ok = all(d >= 2 for d in deg)
    adj = g.adjacency
    no_adjacent_degree_two = not any(
        deg[i] <= 2 and deg[j] <= 2 and not set(adj[i]) & set(adj[j]) for i, j in g.edges
    )
    edge_bound_ok = g.edge_count >= minimal_edge_count(g.node_count)
    return NecessaryConditionResult(
        connected=connected,
        biconnected=biconnected,
        min_degree_ok=min_degree_ok,
        no_adjacent_degree_two=no_adjacent_degree_two,
        edge_bound_ok=edge_bound_ok,
        articulation_points=cuts,
    )
