"""Isomorphism-free enumeration of minimal solvability candidates and
randomized density sweeps.

Candidates on n nodes are the biconnected graphs with exactly
``minimal_edge_count(n)`` edges, one per isomorphism class.  Scanning all
labeled edge subsets is hopeless beyond 7 nodes, so candidates are grown by
ears instead: by Whitney's theorem a graph with at least three nodes is
biconnected exactly when it is a cycle plus open ears, each ear a path
whose ends are two distinct nodes already placed and whose inner nodes are
new.  An ear with t inner nodes adds t nodes and t + 1 edges, so a
candidate with n + c edges is a cycle plus c ears.  Each round adds every
possible ear to every graph of the previous round and keeps one graph per
canonical adjacency code.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import finite_solvability, maximal_components
from .graph import ViewingGraph, minimal_edge_count, necessary_conditions

__all__ = [
    "MiningResult",
    "SweepResult",
    "canonical_form",
    "enumerate_candidates",
    "mine_minimal",
    "density_sweep",
    "sample_graph",
]

_CONNECTIVITY_RETRIES = 1000


# ---------------------------------------------------------------------------
# canonical labeling


def _graph_code(n: int, edges) -> int:
    """Smallest stacked-column adjacency code over all relabelings that list
    degrees in non-increasing order, packed into an int.

    The code concatenates, for each position p in order, the adjacency bits
    from the p previously placed nodes to the node placed at p; bit t
    (counted from the most significant of the binom(n, 2) bits) therefore
    describes the pair (q, p) with q < p at t = binom(p, 2) + q.  Prefix
    pruning plus skipping interchangeable twins keeps the search small for
    the sizes used here (n <= 10).
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    deg = [a.bit_count() for a in adj]
    target = sorted(deg, reverse=True)
    total = n * (n - 1) // 2
    best: int | None = None

    def rec(p: int, placed: int, prefix: int, cols: list[int]):
        # cols[v]: adjacency bits from the p placed nodes to v, in order
        nonlocal best
        if p == n:
            if best is None or prefix < best:
                best = prefix
            return
        kept: list[int] = []
        for v in range(n):
            if placed >> v & 1 or deg[v] != target[p]:
                continue
            if all((adj[u] ^ adj[v]) & ~(1 << u | 1 << v) for u in kept):
                kept.append(v)
        shift = total - p * (p + 1) // 2
        for col, v in sorted((cols[v], v) for v in kept):
            code = prefix << p | col
            if best is not None and code > best >> shift:
                break  # siblings are sorted, so they only get larger
            rec(p + 1, placed | 1 << v, code, [c << 1 | a >> v & 1 for c, a in zip(cols, adj)])

    rec(0, 0, 0, [0] * n)
    assert best is not None
    return best


def canonical_form(g: ViewingGraph) -> int:
    """Canonical adjacency bit-string packed into an int; equal exactly for
    isomorphic graphs (given equal node counts)."""
    return _graph_code(g.node_count, g.edges)


def _graph_from_code(n: int, code: int) -> ViewingGraph:
    pairs = [(q, p) for p in range(n) for q in range(p)]
    last = len(pairs) - 1
    return ViewingGraph(n, tuple(e for t, e in enumerate(pairs) if code >> (last - t) & 1))


# ---------------------------------------------------------------------------
# ear decomposition


def enumerate_candidates(n: int):
    """Yield one representative per isomorphism class of biconnected graphs
    on n nodes with minimal_edge_count(n) edges, in canonical-code order."""
    if not 3 <= n <= 10:
        raise ValueError("candidate enumeration supports 3 <= n <= 10")
    target = minimal_edge_count(n)
    # keyed by (node count, code): codes of different node counts may clash
    level = {}
    for k in range(3, n + 1):
        cycle = tuple((i, (i + 1) % k) for i in range(k))
        level[k, _graph_code(k, cycle)] = cycle
    ears = target - n
    for step in range(ears):
        grown = {}
        for (k, _), edges in level.items():
            present = {frozenset(e) for e in edges}
            inner = range(n - k, n - k + 1) if step == ears - 1 else range(n - k + 1)
            for u, v in combinations(range(k), 2):
                for t in inner:
                    if t == 0 and frozenset((u, v)) in present:
                        continue
                    path = (u, *range(k, k + t), v)
                    with_ear = edges + tuple(zip(path, path[1:]))
                    grown.setdefault((k + t, _graph_code(k + t, with_ear)), with_ear)
        level = grown
    for code in sorted(code for k, code in level if k == n):
        g = _graph_from_code(n, code)
        checks = necessary_conditions(g)
        assert checks.biconnected and g.edge_count == target
        yield g


def _refuted(g: ViewingGraph) -> bool:
    """True when g, on 3 or more nodes, fails a necessary condition, so no
    rank test is needed to know it is not finite solvable."""
    c = necessary_conditions(g)
    return g.node_count >= 3 and not (c.biconnected and c.min_degree_ok
                                      and c.no_adjacent_degree_two and c.edge_bound_ok)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _map_tasks(fn, tasks: list, threads: int) -> list:
    """``[fn(t) for t in tasks]`` on at most ``threads`` workers, cores or tasks."""
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


@dataclass(frozen=True)
class MiningResult:
    """Candidate and pass counts for one node count, plus the passing graphs."""

    n: int
    edge_target: int
    candidates: int
    fin_solv: int
    witnesses: tuple[ViewingGraph, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edge_target": self.edge_target,
            "candidates": self.candidates,
            "fin_solv": self.fin_solv,
            "witnesses": [list(g.edges) for g in self.witnesses],
        }


def mine_minimal(n: int, *, threads: int = 1) -> MiningResult:
    """Test every enumeration candidate for finite solvability.

    A candidate that fails a necessary condition is refuted without a rank
    test; every other one is decided by finite_solvability with its
    default seeds, so results do not depend on how the work is scheduled.
    """
    _check_threads(threads)
    cands = list(enumerate_candidates(n))

    def check(g: ViewingGraph) -> bool:
        return not _refuted(g) and finite_solvability(g).finite_solvable

    flags = _map_tasks(check, cands, threads)
    witnesses = tuple(g for g, ok in zip(cands, flags) if ok)
    return MiningResult(
        n=n,
        edge_target=minimal_edge_count(n),
        candidates=len(cands),
        fin_solv=len(witnesses),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# density sweeps


@dataclass(frozen=True)
class SweepResult:
    """Aggregate of finite-solvability tests on random fixed-density graphs."""

    n: int
    density_percent: float
    samples: int
    fin_solv_count: int
    component_count_min: int
    component_count_max: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "density_percent": self.density_percent,
            "samples": self.samples,
            "fin_solv_count": self.fin_solv_count,
            "component_count_min": self.component_count_min,
            "component_count_max": self.component_count_max,
            "seed": self.seed,
        }


def sample_graph(n: int, m: int, rng: np.random.Generator) -> ViewingGraph:
    """Uniform m-edge graph on n nodes, redrawn until connected.

    When m < n - 1 a spanning connected graph cannot exist, so the first
    draw is accepted as-is (such graphs are never finite solvable, and
    maximal_components splits them into blocks like any other).
    """
    total = n * (n - 1) // 2
    if not 1 <= m <= total:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    connectable = m >= n - 1
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2  # lexicographic index of the pair (i, i + 1)
    for _ in range(_CONNECTIVITY_RETRIES):
        idx = rng.choice(total, size=m, replace=False)
        i = np.searchsorted(starts, idx, "right") - 1
        g = ViewingGraph(n, tuple(zip(i.tolist(), (idx - starts[i] + i + 1).tolist())))
        if not connectable or g.block_cut.pieces == 1:
            return g
    raise RuntimeError(
        f"no connected sample with {m} edges on {n} nodes after "
        f"{_CONNECTIVITY_RETRIES} draws; density too low"
    )


def density_sweep(
    n: int,
    density_percent: float,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
) -> SweepResult:
    """Sample random graphs at a fixed edge density and count how many pass
    the finite-solvability test; failures also report their component count.
    A sample that fails a necessary condition takes no rank test before its
    components.  Each sample draws five seeds, which finite_solvability and
    then maximal_components try in order.
    """
    _check_threads(threads)
    if not 0 < density_percent <= 100:
        raise ValueError("density must be in (0, 100]")
    if samples < 1:
        raise ValueError("need at least one sample")
    m = math.floor(density_percent * n * (n - 1) / 200 + 1e-9)
    if m < 1:
        raise ValueError("density too low to place a single edge")
    rng = np.random.default_rng(seed)
    jobs = [(sample_graph(n, m, rng), rng.integers(0, 2**32, size=5).tolist())
            for _ in range(samples)]

    def run(job):
        g, job_seeds = job
        if not _refuted(g) and finite_solvability(g, seeds=job_seeds).finite_solvable:
            return True, 1
        return False, len(maximal_components(g, seeds=job_seeds).components)

    results = _map_tasks(run, jobs, threads)
    fin = sum(1 for ok, _ in results if ok)
    counts = [c for _, c in results]
    return SweepResult(
        n=n,
        density_percent=density_percent,
        samples=samples,
        fin_solv_count=fin,
        component_count_min=min(counts),
        component_count_max=max(counts),
        seed=seed,
    )
