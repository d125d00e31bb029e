"""Assembly of the augmented constraint Jacobian, the full-column-rank test
deciding finite solvability, kernel-based extraction of maximal
finite-solvable components, and an exact finite-field rank, which decides
the graphs no float seed decides and cross-checks the others.

For a graph with n nodes and m edges the augmented Jacobian J has
``10*m + n + 15`` rows and ``12*n`` columns:

  * 10 rows per edge: derivatives of the compatibility residual with
    respect to the two incident cameras (10x12 blocks in the two node
    column groups);
  * 12 rows pinning the first gauge camera to [I | 0];
  * 4 rows pinning the first row of the second gauge camera;
  * one scale row (all ones over a camera's 12 columns) for every node
    except the first gauge camera.

J has full column rank at a generic configuration exactly when the graph is
finite solvable, i.e. when the camera-block Jacobian of the edge constraints
reaches rank 11n - 15.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .geometry import (
    CameraConfiguration,
    DegenerateConfigurationError,
    FundamentalAssignment,
    _edge_blocks,
    _fundamental_minors,
    _generic_draw,
    compatibility_residual,
)
from .graph import ViewingGraph, necessary_conditions

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_PRIME",
    "RankComputationError",
    "JacobianSystem",
    "SolvabilityReport",
    "Component",
    "ComponentPartition",
    "derive_seeds",
    "assemble_jacobian",
    "is_full_column_rank",
    "null_space_basis",
    "finite_solvability",
    "maximal_components",
    "finite_field_rank",
    "matrix_dims",
    "export_matrix_market",
]

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MASTER_SEED = 42
DEFAULT_SEED_COUNT = 5
# modular prime: small enough that a*b and 3-term dot products fit in int64
DEFAULT_PRIME = 1_000_000_007

NODE_BLOCK_REL_TOL = 1e-6  # a 12-row kernel block below this (relative) is "zero"
_RESIDUAL_CHECK_TOL = 1e-8
_DENSE_SVD_MAX_ENTRIES = 40_000_000
_DENSE_EIG_MAX_COLS = 8_000
# block inverse iteration on the Cholesky factor of J^T J (large systems)
_GRAM_SEED = 0  # start vectors come from a fixed seed, never global RNG state
_GRAM_BLOCK = 8  # start block width; doubled while the block comes back full
_GRAM_MAX_STEPS = 50  # iteration steps per block width before giving up
_RITZ_WATCH = 1e-6  # Ritz values below this share of sigma_max must settle
_RITZ_GUARD = 1e-3  # a kernel block grows until it holds a Ritz value above this
_RITZ_SETTLED = 1e-10  # relative change per step that counts as settled
_RITZ_FLOOR = 64 * np.finfo(float).eps  # change (share of sigma_max) at rounding level
# A seed decides the verdict when q = sigma_min / (tolerance * sigma_max) lies
# outside (_BAND_LOW, _BAND_HIGH); otherwise the next seed, and after the last
# the GF(p) rank, decides.  Over about 2000 seed evaluations of graphs the
# certificate leaves open (the 111 of mine 9, and random graphs at n = 20, 40
# and 60 of 5-20% density, checked against the GF(p) rank) a deficient q never
# exceeded 2.1e-8 and a solvable q never fell below 1.17; 50 of them, all
# solvable, landed inside the band.
_BAND_LOW = 1e-3
_BAND_HIGH = 1e3


class RankComputationError(RuntimeError):
    """A rank or kernel computation on a system too large for the dense SVD
    failed: the system has more columns than the large-system path takes,
    a factorization broke down or an iteration hit its step cap.  Also
    raised for an exact rank whose dense matrix would be too large."""


def _check_tolerance(tolerance: float) -> None:
    if not 0 < tolerance < 1:  # also rejects NaN
        raise ValueError(f"tolerance must lie in (0, 1), got {tolerance}")


def derive_seeds(master: int = DEFAULT_MASTER_SEED, count: int = DEFAULT_SEED_COUNT) -> tuple[int, ...]:
    """Derive a reproducible list of independent RNG seeds from one master seed."""
    if count < 1:
        raise ValueError("need at least one seed")
    state = np.random.SeedSequence(master).generate_state(count)
    return tuple(int(x) for x in state)


def _seed_tuple(seeds) -> tuple[int, ...]:
    """The given seeds as ints, or derive_seeds() for None; an empty list
    raises ValueError."""
    seeds = derive_seeds() if seeds is None else tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seed list must not be empty")
    return seeds


@dataclass(frozen=True)
class JacobianSystem:
    """Sparse augmented Jacobian, laid out as in the module docstring."""

    matrix: sp.csr_matrix

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def _jacobian_coo(
    n: int, ei, ej, block_i, block_j, gauge_edge: tuple[int, int]
) -> sp.coo_matrix:
    """Lay the edge blocks, gauge rows and scale rows out as the augmented
    Jacobian of the module docstring, in the blocks' dtype."""
    m = len(ei)
    a, b = gauge_edge
    row_base = (10 * np.arange(m))[:, None, None] + np.arange(10)[None, :, None]
    col_i = (12 * ei)[:, None, None] + np.arange(12)[None, None, :]
    col_j = (12 * ej)[:, None, None] + np.arange(12)[None, None, :]
    shape3 = (m, 10, 12)
    rows_idx = [np.broadcast_to(row_base, shape3).ravel()] * 2
    cols_idx = [np.broadcast_to(col_i, shape3).ravel(),
                np.broadcast_to(col_j, shape3).ravel()]
    data = [block_i.ravel(), block_j.ravel()]

    # gauge rows: fix camera a entrywise, then the first row of camera b
    r0 = 10 * m
    rows_idx.append(r0 + np.arange(12))
    cols_idx.append(12 * a + np.arange(12))
    data.append(np.ones(12, block_i.dtype))
    r1 = r0 + 12
    rows_idx.append(r1 + np.arange(4))
    cols_idx.append(12 * b + 3 * np.arange(4))  # vec index of entry (0, c) is 3c
    data.append(np.ones(4, block_i.dtype))

    # scale rows: sum of entries pinned for every camera except a
    r2 = r1 + 4
    others = np.delete(np.arange(n), a)
    rows_idx.append(np.repeat(r2 + np.arange(n - 1), 12))
    cols_idx.append(((12 * others)[:, None] + np.arange(12)[None, :]).ravel())
    data.append(np.ones(12 * (n - 1), block_i.dtype))

    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(10 * m + n + 15, 12 * n),
    )


def assemble_jacobian(
    g: ViewingGraph,
    config: CameraConfiguration,
    fmats: FundamentalAssignment,
    gauge_edge: tuple[int, int] | None = None,
) -> JacobianSystem:
    """Build the augmented sparse Jacobian for a generic configuration.

    ``fmats`` must be the fundamental matrices of ``config`` on this graph;
    the compatibility residual of every edge is re-checked before the system
    is accepted.  ``gauge_edge`` defaults to the lexicographically first
    edge; its endpoints absorb the global projective ambiguity.
    """
    n, m = g.node_count, g.edge_count
    if m == 0:
        raise ValueError("cannot assemble a Jacobian for a graph without edges")
    if fmats.edge_count != m:
        raise ValueError("fundamental assignment length does not match edge count")
    if gauge_edge is None:
        gauge_edge = min(g.edges)
    a, b = min(gauge_edge), max(gauge_edge)
    if (a, b) not in g.edge_index:
        raise ValueError(f"gauge edge {gauge_edge} is not an edge of the graph")

    cams = config.cameras
    F = fmats.matrices
    ei, ej = np.array(g.edges).T
    Pi, Pj = cams[ei], cams[ej]

    # the fundamental matrices must be compatible with the configuration
    worst = float(np.abs(compatibility_residual(Pi, Pj, F)).max(initial=0.0))
    scale = float(
        (np.linalg.norm(Pi, axis=(1, 2)) * np.linalg.norm(Pj, axis=(1, 2))
         * np.linalg.norm(F, axis=(1, 2))).max(initial=1.0)
    )
    if worst > _RESIDUAL_CHECK_TOL * scale:
        raise ValueError(
            "fundamental matrices are not compatible with the configuration "
            f"(residual {worst:.3e})"
        )

    coo = _jacobian_coo(n, ei, ej, *_edge_blocks(Pi, Pj, F), (a, b))
    return JacobianSystem(coo.tocsr())


def export_matrix_market(system: JacobianSystem, path: str) -> None:
    """Write the sparse Jacobian in Matrix Market coordinate format."""
    scipy.io.mmwrite(path, system.matrix.tocoo())


def _dense_gram(J: sp.csr_matrix) -> tuple[np.ndarray, float]:
    """J^T J as a dense Fortran-ordered array, ready to be factored in
    place, and sigma_max, the sqrt of its largest eigenvalue.  The Lanczos
    start vector is fixed, so repeated calls return the same bits.  The
    sparse product is freed on return."""
    JtJ = (J.T @ J).tocsc()
    v0 = np.random.default_rng(_GRAM_SEED).standard_normal(JtJ.shape[0])
    try:
        lmax = float(scipy.sparse.linalg.eigsh(
            JtJ, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
    except scipy.sparse.linalg.ArpackError as exc:  # pragma: no cover
        raise RankComputationError(f"largest-eigenvalue iteration failed: {exc}") from exc
    return JtJ.toarray(order="F"), float(np.sqrt(max(lmax, 0.0)))


def _low_ritz_pairs(
    J: sp.csr_matrix, gram: np.ndarray, smax: float, need: str
) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values (ascending) and orthonormal Ritz vectors of J at the low
    end of its spectrum, from one Cholesky factor of the dense J^T J
    ``gram``, which is overwritten.

    ``gram + delta*I`` with delta at rounding level is factored once.  Block
    inverse iteration from a fixed-seed start block runs until the smallest
    Ritz value and every one below _RITZ_WATCH * smax have settled; each
    step ends with the SVD of J on the block (Rayleigh-Ritz), which splits
    directions that the squared spectrum of J^T J cannot.  The block
    doubles until its largest Ritz value passes a reach: _RITZ_WATCH * smax,
    below which the shifted iteration no longer tells directions apart, or
    for the kernel _RITZ_GUARD * smax, since a kernel vector keeps about
    eps / (sigma / smax)^2 of every direction outside the block.
    """
    rows, cols = J.shape
    gram[np.diag_indices(cols)] += cols * np.finfo(float).eps * smax**2
    try:
        factor = scipy.linalg.cho_factor(gram, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RankComputationError(
            f"Cholesky factorization of J^T J failed on a {rows}x{cols} system: {exc}"
        ) from exc
    rng = np.random.default_rng(_GRAM_SEED)
    V = rng.standard_normal((cols, min(_GRAM_BLOCK, cols)))
    while True:
        prev = None
        for _ in range(_GRAM_MAX_STEPS):
            Q = np.linalg.qr(scipy.linalg.cho_solve(factor, V, check_finite=False)).Q
            # J Q = Q' R, so the SVD of the small R gives the Ritz pairs
            R = np.linalg.qr(J @ Q, mode="r")
            if R.shape[0] < R.shape[1]:
                R = np.vstack([R, np.zeros((R.shape[1] - R.shape[0], R.shape[1]))])
            _, s, Wt = np.linalg.svd(R)
            s, V = s[::-1], Q @ Wt[::-1].T
            watched = s <= _RITZ_WATCH * smax
            watched[0] = True
            if prev is not None and np.all(
                np.abs(s - prev)[watched] <= _RITZ_SETTLED * s[watched] + _RITZ_FLOOR * smax
            ):
                break
            prev = s
        else:
            raise RankComputationError(
                f"block inverse iteration did not settle in {_GRAM_MAX_STEPS} steps "
                f"on a {rows}x{cols} system"
            )
        reach = (_RITZ_GUARD if need == "kernel" else _RITZ_WATCH) * smax
        if s[-1] > reach or V.shape[1] == cols:
            return s, V
        width = min(2 * V.shape[1], cols)
        V = np.hstack([V, rng.standard_normal((cols, width - V.shape[1]))])


def _low_spectrum(
    J: sp.csr_matrix, need: str
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """The one size dispatch of every rank and kernel computation: ascending
    low singular values of J (all of them on the dense path, the resolved
    Ritz values on the large-system path), sigma_max and, when ``need`` is
    "kernel", the matching right singular vectors.

    ``need`` says how far the low end must be resolved: "rank" resolves
    every value up to _RITZ_WATCH * sigma_max, so that counting them is
    exact, "kernel" also guards the vectors (see _low_ritz_pairs).  A
    system with fewer rows than columns reports its cols - rows missing
    values as exactly 0.
    """
    rows, cols = J.shape
    if rows * cols <= _DENSE_SVD_MAX_ENTRIES:
        A = J.toarray()
        if need != "kernel":
            s, V = np.linalg.svd(A, compute_uv=False)[::-1], None
            s = np.concatenate([np.zeros(cols - s.size), s])
        else:
            if rows < cols:
                # pad with zero rows so the SVD exposes the full right basis
                A = np.vstack([A, np.zeros((cols - rows, cols))])
            _, s, Vt = np.linalg.svd(A, full_matrices=False)
            s, V = s[::-1], Vt[::-1].T
        smax = float(s[-1])
    elif cols <= _DENSE_EIG_MAX_COLS:
        gram, smax = _dense_gram(J)
        s, V = _low_ritz_pairs(J, gram, smax, need)
    else:
        raise RankComputationError(
            f"a {rows}x{cols} system is too large: more than {_DENSE_SVD_MAX_ENTRIES} "
            f"entries for the dense SVD and {_DENSE_EIG_MAX_COLS} columns for J^T J"
        )
    if rows < cols:
        s[: cols - rows] = 0.0
    return s, smax, V


def is_full_column_rank(
    system: JacobianSystem, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, float, float]:
    """Test sigma_min(J) > tolerance * sigma_max(J).

    Uses a dense SVD for systems of at most 40M entries.  Larger ones with
    at most 8000 columns factor J^T J once (Cholesky) and take sigma_min as
    the smallest Ritz value of block inverse iteration with a Rayleigh-Ritz
    step on J, resolved as far as for the rank (every value up to
    _RITZ_WATCH * sigma_max); wider ones raise RankComputationError.  A
    system with fewer rows than columns can never have full column rank
    and reports sigma_min = 0 on every path.
    """
    _check_tolerance(tolerance)
    s, smax, _ = _low_spectrum(system.matrix, "rank")
    return bool(s[0] > tolerance * smax), float(s[0]), smax


def null_space_basis(
    system: JacobianSystem, tolerance: float = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of J (12n x k), columns in
    ascending order of their singular values.

    Kernel directions are right singular vectors with sigma <= tolerance *
    sigma_max; a finite-solvable system yields k = 0.  Systems of at most
    40M entries use a dense SVD; larger ones with at most 8000 columns the
    Ritz vectors of the Cholesky-based block inverse iteration, with the
    block widened until it holds every direction that iteration cannot
    resolve; wider ones raise RankComputationError.
    """
    _check_tolerance(tolerance)
    s, smax, V = _low_spectrum(system.matrix, "kernel")
    return V[:, s <= tolerance * smax]


@dataclass(frozen=True)
class SolvabilityReport:
    """Outcome of the finite-solvability decision for one graph.

    ``path`` says how it was reached: "certificate" (the growth
    certificate, no camera drawn: no sigmas, no seeds evaluated), "float"
    (the last seed in ``seeds`` decided), "exact" (no seed decided, the
    GF(p) rank did) or "blocks" (a graph that is not biconnected, whose
    ``rank_jp`` is the sum over its biconnected blocks, each decided on
    its own: no whole-graph sigmas, no seeds listed).  ``seeds`` are the
    seeds evaluated, ``agreement`` the float verdict of each, and the
    sigmas are those of the first.
    """

    finite_solvable: bool
    rank_jp: int
    expected_rank: int
    sigma_min: float | None
    sigma_max: float | None
    tolerance: float
    seeds: tuple[int, ...]
    agreement: tuple[bool, ...]
    path: str
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "finite_solvable": self.finite_solvable,
            "rank_jp": self.rank_jp,
            "expected_rank": self.expected_rank,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "tolerance": self.tolerance,
            "seeds": list(self.seeds),
            "agreement": list(self.agreement),
            "path": self.path,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _assemble_for_seed(
    g: ViewingGraph, seed: int, gauge_edge: tuple[int, int] | None
) -> JacobianSystem:
    return assemble_jacobian(g, *_generic_draw(g, seed), gauge_edge)


def _certificate(g: ViewingGraph) -> bool | None:
    """Decide finite solvability without a Jacobian where that is exact:
    False when a graph on 3 or more nodes fails a necessary condition, True
    when the growth closure of some edge covers every node, else None.

    A closure starts from an edge's two cameras, finite solvable with their
    F (22 - 15 = 7 = dof F), and adds every node with 2 neighbours in the
    set: the F's inside a solvable set are known, so the node closes a
    generic triangle with known F's, and the two cameras it shares with the
    set have a finite projective stabiliser.  The answer depends on neither
    labels nor edge order.  Closures grow monotonically, so an edge inside
    an earlier closure is skipped.
    """
    n = g.node_count
    if n >= 3:
        c = necessary_conditions(g)
        if not (c.connected and c.biconnected and c.min_degree_ok
                and c.no_adjacent_degree_two and c.edge_bound_ok):
            return False
    adj = g.adjacency
    inside = [False] * n
    count = [0] * n  # neighbours in the growing set, for nodes outside it
    covered = bytearray(g.edge_count)
    for k, (u, v) in enumerate(g.edges):
        if covered[k]:
            continue
        inside[u] = inside[v] = True
        members, touched = [u, v], []
        for x in members:  # members is also the queue: it grows as it is read
            for y in adj[x]:
                if not inside[y]:
                    count[y] += 1
                    if count[y] == 1:
                        touched.append(y)
                    elif count[y] == 2:
                        inside[y] = True
                        members.append(y)
        if len(members) == n:
            return True
        if len(members) > 2:  # only an edge in a triangle grows past itself
            index = g.edge_index
            for x in members:
                for y in adj[x]:
                    if x < y and inside[y]:
                        covered[index[x, y]] = 1
        for x in members:
            inside[x] = False
        for y in touched:
            count[y] = 0
    return None


def _block_graph(g: ViewingGraph, block: tuple[int, ...]) -> tuple[list[int], ViewingGraph]:
    """The nodes of g's edges ``block``, ascending, and the graph of those
    edges alone with node ``nodes[t]`` relabelled t."""
    nodes = sorted({v for k in block for v in g.edges[k]})
    relabel = {v: t for t, v in enumerate(nodes)}
    return nodes, ViewingGraph(len(nodes), tuple(
        (relabel[g.edges[k][0]], relabel[g.edges[k][1]]) for k in block))


def _decide(
    g: ViewingGraph,
    seeds: tuple[int, ...],
    tolerance: float,
    gauge_edge: tuple[int, int] | None = None,
    need: str = "rank",
) -> tuple[SolvabilityReport, np.ndarray | None]:
    """The decision ladder of finite_solvability and maximal_components for
    the biconnected graph g, gauged on ``gauge_edge``.  A graph the growth
    certificate covers takes no camera.  Otherwise each seed takes one
    ``need`` pass of _low_spectrum and decides when its ratio
    q = sigma_min / (tolerance * sigma_max) lies outside the band
    (_BAND_LOW, _BAND_HIGH); when none does, the GF(p) rank decides.
    Returns the report and the ascending right singular vectors of the
    last pass (None without a pass, or for a dense "rank" pass)."""
    t0 = time.perf_counter()
    n = g.node_count
    expected = 11 * n - 15
    sigmas, verdicts, V = (None, None), [], None
    if _certificate(g):
        rank_jp, path = expected, "certificate"
    else:
        for seed in seeds:
            J = _assemble_for_seed(g, seed, gauge_edge).matrix
            s, smax, V = _low_spectrum(J, need)
            floor = tolerance * smax
            if not verdicts:
                sigmas = float(s[0]), smax
            verdicts.append(bool(s[0] > floor))
            if not _BAND_LOW * floor < s[0] < _BAND_HIGH * floor:
                rank_jp, path = expected - int(np.count_nonzero(s <= floor)), "float"
                break
        else:
            rank_jp, path = expected - (12 * n - finite_field_rank(g)), "exact"
    return SolvabilityReport(
        finite_solvable=rank_jp == expected,
        rank_jp=rank_jp,
        expected_rank=expected,
        sigma_min=sigmas[0],
        sigma_max=sigmas[1],
        tolerance=tolerance,
        seeds=seeds[: len(verdicts)],
        agreement=tuple(verdicts),
        path=path,
        wall_time=time.perf_counter() - t0,
    ), V


def finite_solvability(
    g: ViewingGraph,
    seeds: list[int] | tuple[int, ...] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SolvabilityReport:
    """Decide finite solvability by the full-rank test at a random generic
    configuration: the seeds are tried in order and the first decisive one
    decides.  A graph the growth certificate covers is reported solvable
    without a camera drawn (see _certificate); a biconnected graph that
    fails a necessary condition still takes the rank test, since
    ``rank_jp`` needs it.

    Each seed costs one spectral pass and decides unless its ratio
    q = sigma_min / (tolerance * sigma_max) lies in an ambiguity band about
    1 (see _decide): solvable above it with ``rank_jp = 11n - 15``,
    deficient below it with ``rank_jp`` short by the singular values at or
    below ``tolerance * sigma_max``.  When no seed decides, the exact rank
    over GF(p) does (``path`` "exact"): full rank mod p proves full rank
    over Q.

    A graph that is not biconnected is not finite solvable, and its
    ``rank_jp`` is the sum over its biconnected blocks (``path``
    "blocks"): the kernel of the camera-block Jacobian is the fibred
    product of the blocks' kernels over the cut cameras, and each block's
    restriction onto a cut camera a is onto (H -> P_a H maps the 4x4
    matrices onto the 3x4 ones), so every extra (block, cut camera)
    incidence removes 12 kernel dimensions and 12 columns alike.  A bridge
    adds 7 (the dof of F), a node without edges 0, and any other block the
    ``rank_jp`` that the same certificate, seeds and GF(p) rank give it.
    """
    _check_tolerance(tolerance)
    seeds = _seed_tuple(seeds)
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    pieces, cuts, blocks = g.block_cut
    if pieces == 1 and not cuts:
        return _decide(g, seeds, tolerance)[0]
    t0 = time.perf_counter()
    rank_jp = sum(7 if len(block) == 1
                  else _decide(_block_graph(g, block)[1], seeds, tolerance)[0].rank_jp
                  for block in blocks)
    return SolvabilityReport(
        finite_solvable=False,
        rank_jp=rank_jp,
        expected_rank=11 * g.node_count - 15,
        sigma_min=None,
        sigma_max=None,
        tolerance=tolerance,
        seeds=(),
        agreement=(),
        path="blocks",
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class Component:
    """One maximal finite-solvable component: edge indices into the parent
    graph's edge list plus the nodes those edges touch."""

    edges: tuple[int, ...]
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of the edge set into maximal finite-solvable components.

    Every edge belongs to exactly one component; node sets may overlap (cut
    vertices belong to several components).
    """

    components: tuple[Component, ...]
    assignment: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "components": [
                {"edges": list(c.edges), "nodes": list(c.nodes)} for c in self.components
            ],
            "assignment": list(self.assignment),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _iteration_seed(master: int, iteration: int) -> int:
    return int(np.random.SeedSequence((master, iteration)).generate_state(1)[0])


def _fixed_nodes(
    g: ViewingGraph, block: tuple[int, ...], seed: int, tolerance: float
) -> set[int] | None:
    """The nodes of g's edges ``block`` fixed with its first edge as gauge,
    or None when the block is finite solvable and all of them are.

    The block is decided as check decides a biconnected graph, with the
    one seed ``seed``.  A deficient block reads the 12-row node blocks of
    its kernel, the lowest 11n - 15 - rank_jp vectors of that seed's pass:
    on the float path those at or below tolerance * sigma_max, on the exact
    path as many as the GF(p) rank is short.  (The large-system pass holds
    every direction below _RITZ_GUARD * sigma_max, which covers the band
    at any tolerance up to 1e-6.)
    """
    nodes, sub = _block_graph(g, block)
    report, V = _decide(sub, (seed,), tolerance, sub.edges[0], "kernel")
    if report.finite_solvable:
        return None
    kernel = V[:, : report.expected_rank - report.rank_jp]
    norms = np.linalg.norm(kernel.reshape(len(nodes), 12, -1), axis=(1, 2))
    return {nodes[t] for t in np.flatnonzero(norms <= NODE_BLOCK_REL_TOL * norms.max())}


def maximal_components(
    g: ViewingGraph,
    seeds: list[int] | tuple[int, ...] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ComponentPartition:
    """Partition the edges into maximal finite-solvable components.

    A finite-solvable graph on 3 or more nodes is biconnected, so no
    component crosses an articulation point; and a motion of one side of a
    cut camera a extends to the other side (H -> P_a H is onto the 3x4
    matrices), so a block's fixed nodes are those of its connected piece.
    Hence the pending biconnected block holding the lowest unassigned edge is
    gauged on that edge and decided (see _fixed_nodes): a bridge or a
    solvable block is one component; otherwise its edges between fixed
    nodes are, and the edges left over are split into blocks again.
    Component k takes the seed _iteration_seed(seeds[0], k).
    """
    _check_tolerance(tolerance)
    master = _seed_tuple(seeds)[0]
    assignment = [-1] * g.edge_count
    components: list[Component] = []
    pending = [(block[0], block) for block in g.block_cut.blocks]
    heapq.heapify(pending)
    while pending:
        _, block = heapq.heappop(pending)
        comp_edges = block
        if len(block) > 1:
            fixed = _fixed_nodes(g, block, _iteration_seed(master, len(components)), tolerance)
            if fixed is not None:
                comp_edges = [k for k in block if fixed.issuperset(g.edges[k])]
                if not comp_edges:
                    raise RuntimeError(
                        "component iteration assigned no edges; kernel thresholds are off"
                    )
                rest = [k for k in block if not fixed.issuperset(g.edges[k])]
                left = ViewingGraph(g.node_count, tuple(g.edges[k] for k in rest))
                for part in left.block_cut.blocks:
                    heapq.heappush(pending, (rest[part[0]], tuple(rest[t] for t in part)))
        cid = len(components)
        for k in comp_edges:
            assignment[k] = cid
        nodes = sorted({v for k in comp_edges for v in g.edges[k]})
        components.append(Component(edges=tuple(comp_edges), nodes=tuple(nodes)))
    return ComponentPartition(components=tuple(components), assignment=tuple(assignment))


# ---------------------------------------------------------------------------
# exact rank over GF(p): an independent cross-check of the floating verdict


def _rank_mod_p(M: np.ndarray, p: int) -> int:
    """Row-echelon rank over GF(p); M is int64 with entries in [0, p).

    Rows r: are zero left of column c, so each step touches only columns
    c:, and only the rows with a nonzero in column c.  Of those, the one
    with the fewest nonzeros in c: becomes the pivot row, which keeps the
    fill-in of these sparse systems low.
    """
    M = M % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        cand = r + np.flatnonzero(M[r:, c])
        if cand.size == 0:
            continue
        block = M[cand, c:]
        k = int(np.argmin(np.count_nonzero(block, axis=1)))
        pivot = block[k] * pow(int(block[k, 0]), p - 2, p) % p
        others = np.delete(block, k, axis=0)
        if others.size:
            M[np.delete(cand, k), c:] = (others - np.outer(others[:, 0], pivot)) % p
        M[cand[k], c:] = M[r, c:]
        M[r, c:] = pivot
        r += 1
        if r == rows:
            break
    return r


def _field_jacobian(g: ViewingGraph, prime: int, rng: np.random.Generator) -> np.ndarray:
    """Dense int64 augmented Jacobian over GF(prime) at uniformly random
    field cameras, redrawn while some edge's fundamental matrix vanishes."""
    n = g.node_count
    ei, ej = np.array(g.edges).T
    for _ in range(16):
        cams = rng.integers(0, prime, size=(n, 3, 4), dtype=np.int64)
        Pi, Pj = cams[ei], cams[ej]
        F = _fundamental_minors(Pi, Pj, prime)
        if F.any(axis=(1, 2)).all():
            coo = _jacobian_coo(n, ei, ej, *_edge_blocks(Pi, Pj, F, prime), min(g.edges))
            return coo.toarray()
    raise DegenerateConfigurationError(
        "kept drawing zero fundamental matrices over the field"
    )


def finite_field_rank(
    g: ViewingGraph, prime: int = DEFAULT_PRIME, seed: int = 0
) -> int:
    """Rank over GF(prime) of the augmented Jacobian at uniformly random
    field cameras.  All block formulas are polynomial, so the evaluation is
    exact; full rank (12n) certifies the floating-point verdict.  A system
    of more than _DENSE_SVD_MAX_ENTRIES entries raises RankComputationError
    before its dense matrix is built.
    """
    if prime <= 2**20:
        raise ValueError("prime must exceed 2^20")
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    rows, cols = 10 * g.edge_count + g.node_count + 15, 12 * g.node_count
    if rows * cols > _DENSE_SVD_MAX_ENTRIES:
        raise RankComputationError(
            f"a {rows}x{cols} system is too large for the exact rank: more than "
            f"{_DENSE_SVD_MAX_ENTRIES} entries in its dense int64 matrix"
        )
    return _rank_mod_p(_field_jacobian(g, prime, np.random.default_rng(seed)), prime)


def matrix_dims(g: ViewingGraph) -> dict[str, float | int]:
    """Row/column counts of the three known solvability formulations.

    ``e1`` (exact, needs the degree sequence) and ``e1_lower_bound`` describe
    the per-node-pair system with v1 = 16m unknowns; ``e2`` the reduced
    edge-based system with the same unknowns; ``e3`` x ``v3`` is the system
    assembled by this package.
    """
    n, m = g.node_count, g.edge_count
    deg_sq = sum(d * d for d in g.degrees)
    return {
        "e1": 10 * deg_sq - 19 * m + 15,
        "e1_lower_bound": 40.0 * m * m / n - 19 * m + 15,
        "e2": 23 * m - 11 * n + 15,
        "e3": 10 * m + n + 15,
        "v12": 16 * m,
        "v3": 12 * n,
    }
