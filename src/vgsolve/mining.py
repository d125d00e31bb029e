"""Isomorphism-free enumeration of minimal solvability candidates and
randomized density sweeps.

Candidates on n nodes are the biconnected graphs with exactly
``minimal_edge_count(n)`` edges, one per isomorphism class.  Scanning all
labeled edge subsets is hopeless beyond 7 nodes, so candidates are generated
structurally instead: every biconnected graph that is not a cycle is a
subdivision of a unique loopless biconnected multigraph with minimum degree
3 (its topological kernel, obtained by suppressing degree-2 nodes), and the
kernel has at most 2c vertices when the graph has n + c edges.  We
enumerate kernels, distribute the spare nodes over their edges, and dedup
the results by a canonical adjacency code, which also guards against any
slip in the structural generation.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .engine import DEFAULT_SEED_COUNT, DEFAULT_TOLERANCE, finite_solvability, maximal_components
from .graph import ViewingGraph, _piece_roots, minimal_edge_count, necessary_conditions

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


def _min_adjacency_code(n: int, weight, wdeg: list[int]) -> tuple[int, ...]:
    """Lexicographically smallest stacked-column adjacency code over all
    relabelings that list weighted degrees in non-increasing order.

    The code concatenates, for each position p in order, the weights from
    the p previously placed nodes to the node placed at p; entry t of the
    code therefore describes the pair (q, p) with q < p at index
    binom(p, 2) + q.  Prefix pruning plus skipping interchangeable twins
    keeps the search small for the sizes used here (n <= 10).
    """
    if n == 1:
        return ()
    target = sorted(wdeg, reverse=True)
    best: list[int] | None = None
    chosen: list[int] = []
    used = [False] * n
    prefix: list[int] = []

    def rec():
        nonlocal best
        p = len(chosen)
        if p == n:
            if best is None or prefix < best:
                best = list(prefix)
            return
        cands = [v for v in range(n) if not used[v] and wdeg[v] == target[p]]
        filtered: list[int] = []
        for v in cands:
            twin = False
            for u in filtered:
                if all(weight(u, w) == weight(v, w) for w in range(n) if w not in (u, v)):
                    twin = True
                    break
            if not twin:
                filtered.append(v)
        scored = sorted(
            (tuple(weight(chosen[q], v) for q in range(p)), v) for v in filtered
        )
        for col, v in scored:
            prefix.extend(col)
            if best is not None and prefix > best[: len(prefix)]:
                if p:
                    del prefix[-p:]
                break  # siblings are sorted, so they only get larger
            used[v] = True
            chosen.append(v)
            rec()
            chosen.pop()
            used[v] = False
            if p:
                del prefix[-p:]

    rec()
    assert best is not None
    return tuple(best)


def _graph_code(g: ViewingGraph) -> tuple[int, ...]:
    adj = [set(nb) for nb in g.adjacency]

    def weight(u: int, v: int) -> int:
        return 1 if v in adj[u] else 0

    return _min_adjacency_code(g.node_count, weight, list(g.degrees))


def canonical_form(g: ViewingGraph) -> int:
    """Canonical adjacency bit-string packed into an int; equal exactly for
    isomorphic graphs (given equal node counts)."""
    code = _graph_code(g)
    out = 0
    for bit in code:
        out = (out << 1) | bit
    return out


def _graph_from_code(n: int, code: tuple[int, ...]) -> ViewingGraph:
    edges = []
    t = 0
    for p in range(n):
        for q in range(p):
            if code[t]:
                edges.append((q, p))
            t += 1
    return ViewingGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# kernel multigraphs and their subdivisions


def _kernel_code(nk: int, pairs, mults) -> tuple[int, ...]:
    lookup = {p: t for t, p in enumerate(pairs)}
    wdeg = [0] * nk
    for t, (u, v) in enumerate(pairs):
        wdeg[u] += mults[t]
        wdeg[v] += mults[t]

    def weight(u: int, v: int) -> int:
        if u == v:
            return 0
        return mults[lookup[(u, v) if u < v else (v, u)]]

    return _min_adjacency_code(nk, weight, wdeg)


@lru_cache(maxsize=None)
def _multigraph_kernels(c: int) -> tuple[tuple[int, tuple[tuple[tuple[int, int], int], ...]], ...]:
    """Loopless biconnected multigraphs with minimum degree 3 and v + c
    edges on v vertices, for v in 2..2c, one per isomorphism class.

    Returned as (vertex_count, ((pair, multiplicity), ...)) tuples.
    """
    kernels = []
    for nk in range(2, 2 * c + 1):
        mk = nk + c
        pairs = list(combinations(range(nk), 2))
        mults = [0] * len(pairs)
        deg = [0] * nk
        raw: set[tuple[int, ...]] = set()

        def rec(t: int, remaining: int):
            if sum(max(0, 3 - d) for d in deg) > 2 * remaining:
                return
            if t == len(pairs):
                if remaining == 0:
                    raw.add(tuple(mults))
                return
            u, v = pairs[t]
            for k in range(remaining + 1):
                mults[t] = k
                deg[u] += k
                deg[v] += k
                rec(t + 1, remaining - k)
                deg[u] -= k
                deg[v] -= k
            mults[t] = 0

        rec(0, mk)
        seen: set[tuple[int, ...]] = set()
        for mt in sorted(raw):
            skeleton_edges = tuple(pairs[t] for t in range(len(pairs)) if mt[t])
            touched = {v for e in skeleton_edges for v in e}
            if len(touched) < nk:
                continue
            skeleton = ViewingGraph(nk, skeleton_edges)
            if not necessary_conditions(skeleton).biconnected:
                continue
            code = _kernel_code(nk, pairs, mt)
            if code in seen:
                continue
            seen.add(code)
            kernels.append(
                (nk, tuple((pairs[t], mt[t]) for t in range(len(pairs)) if mt[t]))
            )
    return tuple(kernels)


def _class_count_multisets(mu: int, total: int):
    """Non-decreasing count tuples of length mu summing to total, with at
    most one zero (parallel edges must be subdivided apart to stay simple)."""

    def rec(parts_left: int, remaining: int, minimum: int):
        if parts_left == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining // parts_left + 1):
            for rest in rec(parts_left - 1, remaining - first, max(first, 1)):
                yield (first,) + rest

    if mu == 1:
        if total >= 0:
            yield (total,)
        return
    # at most one zero: first part may be 0, the rest are >= 1
    yield from rec(mu, total, 1)
    for rest in rec(mu - 1, total, 1):
        yield (0,) + rest


def _kernel_automorphisms(nk: int, classes) -> list[tuple[int, ...]]:
    mult = {pair: mu for pair, mu in classes}

    def preserves(perm) -> bool:
        for (u, v), mu in classes:
            a, b = perm[u], perm[v]
            if mult.get((a, b) if a < b else (b, a), 0) != mu:
                return False
        return True

    return [perm for perm in permutations(range(nk)) if preserves(perm)]


def _subdivisions(nk: int, classes, n_target: int):
    """All subdivisions of a kernel reaching n_target nodes, up to the
    kernel's automorphisms; yields per-class count tuples."""
    spare = n_target - nk
    pair_list = [pair for pair, _ in classes]
    auts = _kernel_automorphisms(nk, classes)
    seen: set[tuple] = set()
    out = []

    def canonical(assign: tuple) -> tuple:
        best = None
        by_pair = dict(zip(pair_list, assign))
        for perm in auts:
            mapped = {}
            for pair, counts in by_pair.items():
                a, b = perm[pair[0]], perm[pair[1]]
                mapped[(a, b) if a < b else (b, a)] = counts
            key = tuple(mapped[p] for p in pair_list)
            if best is None or key < best:
                best = key
        return best

    def rec(idx: int, remaining: int, acc: list):
        if idx == len(classes):
            if remaining == 0:
                key = canonical(tuple(acc))
                if key not in seen:
                    seen.add(key)
                    out.append(tuple(acc))
            return
        _, mu = classes[idx]
        lo = max(0, mu - 1)  # each class needs at least mu - 1 internal nodes
        for s in range(lo, remaining + 1):
            for counts in _class_count_multisets(mu, s):
                acc.append(counts)
                rec(idx + 1, remaining - s, acc)
                acc.pop()

    rec(0, spare, [])
    return out


def _build_subdivision(nk: int, classes, assign, n_total: int) -> ViewingGraph:
    edges = []
    nxt = nk
    for (u, v), counts in zip((p for p, _ in classes), assign):
        for t in counts:
            if t == 0:
                edges.append((u, v))
            else:
                chain = [u] + list(range(nxt, nxt + t)) + [v]
                nxt += t
                edges.extend(zip(chain[:-1], chain[1:]))
    assert nxt == n_total
    return ViewingGraph(n_total, tuple(edges))


def enumerate_candidates(n: int):
    """Yield one representative per isomorphism class of biconnected graphs
    on n nodes with minimal_edge_count(n) edges, in canonical-code order."""
    if not 3 <= n <= 10:
        raise ValueError("candidate enumeration supports 3 <= n <= 10")
    target = minimal_edge_count(n)
    if target == n:
        # a biconnected graph with as many edges as nodes is a cycle
        yield ViewingGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        return
    c = target - n
    found: dict[tuple[int, ...], None] = {}
    for nk, classes in _multigraph_kernels(c):
        if nk > n:
            continue
        for assign in _subdivisions(nk, classes, n):
            g = _build_subdivision(nk, classes, assign, n)
            code = _graph_code(g)
            found.setdefault(code, None)
    for code in sorted(found):
        g = _graph_from_code(n, code)
        checks = necessary_conditions(g)
        assert checks.biconnected and g.edge_count == target
        yield g


def _map_tasks(fn, tasks: list, threads: int) -> list:
    """``[fn(t) for t in tasks]`` on at most ``threads`` workers, cores or tasks."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _candidate_seeds(code_int: int, count: int) -> list[int]:
    payload = code_int.to_bytes(max(1, (code_int.bit_length() + 7) // 8), "big")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    base = int.from_bytes(digest, "big") % 2**32
    return [(base + k) % 2**32 for k in range(count)]


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


def mine_minimal(
    n: int,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: int = 1,
) -> MiningResult:
    """Test every enumeration candidate for finite solvability.

    Per-candidate RNG seeds are derived from the candidate's canonical form,
    so results are reproducible no matter how the work is scheduled.
    """
    cands = list(enumerate_candidates(n))

    def check(g: ViewingGraph) -> bool:
        seeds = _candidate_seeds(canonical_form(g), DEFAULT_SEED_COUNT)
        return finite_solvability(g, seeds=seeds, tolerance=tolerance).finite_solvable

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
    draw is accepted as-is (such graphs are processed per connected piece
    downstream and are never finite solvable).
    """
    all_pairs = list(combinations(range(n), 2))
    if not 1 <= m <= len(all_pairs):
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    connectable = m >= n - 1
    for _ in range(_CONNECTIVITY_RETRIES):
        idx = rng.choice(len(all_pairs), size=m, replace=False)
        edges = tuple(all_pairs[int(k)] for k in idx)
        if not connectable or len(set(_piece_roots(n, edges))) == 1:
            return ViewingGraph(n, edges)
    raise RuntimeError(
        f"no connected sample with {m} edges on {n} nodes after "
        f"{_CONNECTIVITY_RETRIES} draws; density too low"
    )


def density_sweep(
    n: int,
    density_percent: float,
    samples: int,
    seed: int,
    tolerance: float = DEFAULT_TOLERANCE,
    threads: int = 1,
) -> SweepResult:
    """Sample random graphs at a fixed edge density and count how many pass
    the finite-solvability test; failures also report their component count.
    """
    if not 0 < density_percent <= 100:
        raise ValueError("density must be in (0, 100]")
    if samples < 1:
        raise ValueError("need at least one sample")
    m = math.floor(density_percent * n * (n - 1) / 200 + 1e-9)
    if m < 1:
        raise ValueError("density too low to place a single edge")
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(samples):
        g = sample_graph(n, m, rng)
        job_seeds = [int(s) for s in rng.integers(0, 2**32, size=5)]
        jobs.append((g, job_seeds))

    def run(job):
        g, job_seeds = job
        report = finite_solvability(g, seeds=job_seeds, tolerance=tolerance)
        if report.finite_solvable:
            return True, 1
        comps = maximal_components(g, seeds=job_seeds[:1], tolerance=tolerance)
        return False, len(comps.components)

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
