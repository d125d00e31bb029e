"""Command-line interface: solvability checks, component partitions,
candidate mining, density sweeps, and matrix-size reports.

Exit codes for ``check``: 0 = finite solvable, 1 = not, 2 = error.  All
other commands exit 0 on success and 2 on error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .engine import (
    DEFAULT_MASTER_SEED,
    _assemble_for_seed,
    derive_seeds,
    export_matrix_market,
    finite_solvability,
    matrix_dims,
    maximal_components,
)
from .graph import GraphParseError, GraphValidationError, parse_edge_list, to_edge_list
from .mining import density_sweep, mine_minimal

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_ERROR = 2

_THREADS_ENV = "VGSOLVE_THREADS"


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {raw!r}")
    return value


def _parse_seed_list(raw: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {raw!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list must not be empty")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {min(seeds)}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgsolve",
        description="Finite-solvability analysis of structure-from-motion viewing graphs",
    )
    parser.add_argument(
        "--seeds", type=_parse_seed_list, default=None, metavar="S1,S2,...",
        help="RNG seeds: check and components try them in order, per block, until one "
             "decides, else the exact GF(p) rank decides (default: 5 seeds derived from "
             "master seed 42); sweep seeds its sampler with the first; mine ignores them",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (csv only for mine/sweep)",
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=None,
        help=f"worker threads for mine/sweep (default ${_THREADS_ENV} or 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test a graph for finite solvability")
    p_check.add_argument("path", help="edge-list file")
    p_check.add_argument(
        "--export-matrix", metavar="PATH", default=None,
        help="write the first seed's Jacobian in Matrix Market format",
    )

    p_comp = sub.add_parser("components", help="maximal finite-solvable components")
    p_comp.add_argument("path", help="edge-list file")

    p_mine = sub.add_parser("mine", help="mine minimal solvability candidates")
    p_mine.add_argument("n", type=int, help="node count (3..10)")
    p_mine.add_argument(
        "--witnesses-dir", metavar="DIR", default=None,
        help="dump passing graphs as edge-list files",
    )

    p_sweep = sub.add_parser("sweep", help="random graphs at fixed density")
    p_sweep.add_argument("n", type=int)
    p_sweep.add_argument("density", type=float, help="edge density percent (0, 100]")
    p_sweep.add_argument("samples", type=int)

    p_dims = sub.add_parser("dims", help="equation/unknown counts for a graph")
    p_dims.add_argument("path", help="edge-list file")

    return parser


def _emit(text: str) -> None:
    """Write one command's output.  A reader that has closed the pipe
    (``| head -1``) wants no more of it, which is no error: the command
    keeps its exit code, and fd 1 goes to os.devnull so that the
    interpreter's last flush of what is still buffered stays silent."""
    try:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _csv(result) -> str:
    """A header and one row of the scalar entries of ``result.to_dict()``."""
    row = {k: v for k, v in result.to_dict().items() if not isinstance(v, list)}
    buf = io.StringIO()
    csv.writer(buf).writerows([row.keys(), row.values()])
    return buf.getvalue()


def _load_graph(path: str):
    return parse_edge_list(Path(path).read_text())


def cmd_check(args) -> int:
    g = _load_graph(args.path)
    report = finite_solvability(g, seeds=args.seeds)
    if args.export_matrix:
        seed = (args.seeds or derive_seeds())[0]
        export_matrix_market(_assemble_for_seed(g, seed, None), args.export_matrix)
    if args.format == "json":
        _emit(_json_dump(report.to_dict()))
    else:
        verdict = "finite solvable" if report.finite_solvable else "NOT finite solvable"
        if report.path == "certificate":
            sigmas = "n/a (growth certificate)"
        elif report.path == "blocks":
            sigmas = f"n/a (decided by its {len(g.block_cut.blocks)} biconnected blocks)"
        else:
            sigmas = (f"{report.sigma_min:.3e} / {report.sigma_max:.3e} "
                      f"(tolerance {report.tolerance:g})")
        if report.path == "exact":
            sigmas += ", no seed decisive: decided by the exact GF(p) rank"
        lines = [
            f"graph: {g.node_count} nodes, {g.edge_count} edges",
            f"verdict: {verdict}",
            f"rank: {report.rank_jp} (expected {report.expected_rank})",
            f"sigma_min/sigma_max: {sigmas}",
            f"seeds: {list(report.seeds)} agreement: {list(report.agreement)}",
            f"wall time: {report.wall_time:.3f}s",
        ]
        _emit("\n".join(lines))
    return EXIT_SOLVABLE if report.finite_solvable else EXIT_UNSOLVABLE


def cmd_components(args) -> int:
    g = _load_graph(args.path)
    part = maximal_components(g, seeds=args.seeds)
    if args.format == "json":
        _emit(_json_dump(part.to_dict()))
    else:
        lines = [f"{len(part.components)} component(s)"]
        for cid, comp in enumerate(part.components):
            pairs = " ".join(f"{g.edges[k][0]}-{g.edges[k][1]}" for k in comp.edges)
            lines.append(f"component {cid}: nodes {list(comp.nodes)} edges {pairs}")
        _emit("\n".join(lines))
    return EXIT_SOLVABLE


def cmd_mine(args) -> int:
    result = mine_minimal(args.n, threads=args.threads)
    if args.witnesses_dir:
        outdir = Path(args.witnesses_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for idx, g in enumerate(result.witnesses):
            (outdir / f"minimal_n{result.n}_{idx:04d}.txt").write_text(to_edge_list(g))
    if args.format == "json":
        _emit(_json_dump(result.to_dict()))
    elif args.format == "csv":
        _emit(_csv(result))
    else:
        _emit(
            f"n={result.n} edges={result.edge_target}: "
            f"{result.candidates} candidates, {result.fin_solv} finite solvable"
        )
    return EXIT_SOLVABLE


def cmd_sweep(args) -> int:
    seed = (args.seeds or [DEFAULT_MASTER_SEED])[0]
    result = density_sweep(args.n, args.density, args.samples, seed, threads=args.threads)
    if args.format == "json":
        _emit(_json_dump(result.to_dict()))
    elif args.format == "csv":
        _emit(_csv(result))
    else:
        _emit(
            f"n={result.n} density={result.density_percent}%: "
            f"{result.fin_solv_count}/{result.samples} finite solvable, "
            f"components in [{result.component_count_min}, {result.component_count_max}]"
        )
    return EXIT_SOLVABLE


def cmd_dims(args) -> int:
    g = _load_graph(args.path)
    dims = matrix_dims(g)
    if args.format == "json":
        _emit(_json_dump(dims))
    else:
        lines = [
            f"graph: {g.node_count} nodes, {g.edge_count} edges",
            f"per-node-pair system: >= {dims['e1_lower_bound']:.1f} rows "
            f"({dims['e1']} with this degree sequence) x {dims['v12']} columns",
            f"edge-based system:    {dims['e2']} rows x {dims['v12']} columns",
            f"this package:         {dims['e3']} rows x {dims['v3']} columns",
        ]
        _emit("\n".join(lines))
    return EXIT_SOLVABLE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        try:
            args.threads = _positive_int(os.environ.get(_THREADS_ENV, "1"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable {_THREADS_ENV} (the default of --threads): "
                         f"{exc}")
    if args.format == "csv" and args.command not in ("mine", "sweep"):
        print("csv output is only available for mine and sweep", file=sys.stderr)
        return EXIT_ERROR
    handlers = {
        "check": cmd_check,
        "components": cmd_components,
        "mine": cmd_mine,
        "sweep": cmd_sweep,
        "dims": cmd_dims,
    }
    try:
        return handlers[args.command](args)
    except (GraphParseError, GraphValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
