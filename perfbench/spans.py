"""Spans recorded around calls into vgsolve's modules, and the per-layer
figures derived from them.

The program itself carries no tracing.  ``install`` wraps the public
functions listed in ``LAYERS`` from outside, in every ``vgsolve`` module
namespace that binds them, so calls made from inside the package are seen
too.  A layer here is a module; an op is one public call made by the
benchmark (one check, components, mine, sweep or exact-rank call).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> (module, public function)
LAYERS = {
    "engine.verdict": ("vgsolve.engine", "finite_solvability"),
    "engine.components": ("vgsolve.engine", "maximal_components"),
    "engine.assemble": ("vgsolve.engine", "assemble_jacobian"),
    "engine.rank": ("vgsolve.engine", "is_full_column_rank"),
    "engine.kernel": ("vgsolve.engine", "null_space_basis"),
    "engine.exact": ("vgsolve.engine", "finite_field_rank"),
    "geometry.config": ("vgsolve.geometry", "random_generic_configuration"),
    "geometry.fundamental": ("vgsolve.geometry", "fundamental_assignment"),
    "graph.parse": ("vgsolve.graph", "parse_edge_list"),
    "graph.necessary": ("vgsolve.graph", "necessary_conditions"),
    "mining.mine": ("vgsolve.mining", "mine_minimal"),
    "mining.sweep": ("vgsolve.mining", "density_sweep"),
    "mining.enumerate": ("vgsolve.mining", "enumerate_candidates"),
    "mining.canonical": ("vgsolve.mining", "canonical_form"),
    "mining.sample": ("vgsolve.mining", "sample_graph"),
    "cli.main": ("vgsolve.cli", "main"),
}

@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    op: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory.  Calls are assumed to come from one thread,
    which holds because the workloads run mining and sweeps with threads=1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.remove(idx)

    @contextmanager
    def op(self, kind: str):
        """Root span of one public call; its children share its op id."""
        self._op = self._ops
        self._ops += 1
        idx = self.begin("op." + kind)
        try:
            yield
        finally:
            self.end(idx)
            self._op = None


def _rank_attrs(bound: inspect.BoundArguments, result) -> dict:
    full, smin, smax = result
    tol = bound.arguments["tolerance"]
    return {"full": bool(full), "margin": smin / (tol * smax) if smax > 0 else 0.0}


def _assemble_attrs(bound: inspect.BoundArguments, result) -> dict:
    return {"nnz": int(result.matrix.nnz)}


_ATTRS = {"engine.rank": _rank_attrs, "engine.assemble": _assemble_attrs}


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # the span runs from the first item requested to exhaustion
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                tracer.spans[idx].attrs["items"] = items
                tracer.end(idx)

        return gen_wrapper

    attrs = _ATTRS.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if attrs is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx].attrs.update(attrs(bound, result))
            except (TypeError, ValueError, AttributeError, KeyError):
                pass  # the return shape changed; the layer keeps its times
        return result

    return wrapper


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind every name that refers to ``original`` in the vgsolve package
    and its modules; returns what ``restore`` needs to undo it."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "vgsolve" or modname.startswith("vgsolve.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in LAYERS that the program still has."""
    undo = []
    for name, (modname, attr) in LAYERS.items():
        module = sys.modules.get(modname)
        original = getattr(module, attr, None) if module is not None else None
        if original is not None:
            undo += replace_everywhere(original, _wrap(tracer, name, original))
    return undo


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "engine.rank.calls": "count",
    "engine.rank.s": "s",
    "engine.rank.call_p50_ms": "ms",
    "engine.rank.margin_min": "ratio",
    "engine.rank.deficient_max": "ratio",
    "engine.kernel.calls": "count",
    "engine.kernel.s": "s",
    "engine.assemble.calls": "count",
    "engine.assemble.s": "s",
    "engine.assemble.nnz": "count",
    "engine.factorizations_per_graph": "ratio",
    "engine.verdict.calls": "count",
    "engine.verdict.self_s": "s",
    "engine.components.calls": "count",
    "engine.components.self_s": "s",
    "engine.exact.calls": "count",
    "engine.exact.s": "s",
    "geometry.config.calls": "count",
    "geometry.config.s": "s",
    "geometry.fundamental.calls": "count",
    "geometry.fundamental.s": "s",
    "graph.parse.s": "s",
    "graph.necessary.calls": "count",
    "graph.necessary.s": "s",
    "mining.enumerate.s": "s",
    "mining.candidates": "count",
    "mining.canonical.calls": "count",
    "mining.canonical.s": "s",
    "mining.sample.calls": "count",
    "mining.sample.s": "s",
    "mining.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], graphs_decided: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition (all but trace.overhead_s).

    A figure whose layer did no work is 0; so are the rank margins when no
    call of that kind (full rank, or deficient) happened.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(idx)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[i] for name in names for i in by_name.get(name, ()))

    rank = [spans[i] for i in by_name.get("engine.rank", ())]
    full = [s.attrs["margin"] for s in rank if s.attrs.get("full") is True]
    deficient = [s.attrs["margin"] for s in rank if s.attrs.get("full") is False]
    out = {
        "engine.rank.calls": calls("engine.rank"),
        "engine.rank.s": total("engine.rank"),
        "engine.rank.call_p50_ms": (
            1e3 * statistics.median(s.duration for s in rank) if rank else 0.0
        ),
        "engine.rank.margin_min": min(full, default=0.0),
        "engine.rank.deficient_max": max(deficient, default=0.0),
        "engine.kernel.calls": calls("engine.kernel"),
        "engine.kernel.s": total("engine.kernel"),
        "engine.assemble.calls": calls("engine.assemble"),
        "engine.assemble.s": total("engine.assemble"),
        "engine.assemble.nnz": sum(
            spans[i].attrs.get("nnz", 0) for i in by_name.get("engine.assemble", ())
        ),
        "engine.factorizations_per_graph": (
            (calls("engine.rank") + calls("engine.kernel")) / graphs_decided
            if graphs_decided else 0.0
        ),
        "engine.verdict.calls": calls("engine.verdict"),
        "engine.verdict.self_s": self_total("engine.verdict"),
        "engine.components.calls": calls("engine.components"),
        "engine.components.self_s": self_total("engine.components"),
        "engine.exact.calls": calls("engine.exact"),
        "engine.exact.s": total("engine.exact"),
        "geometry.config.calls": calls("geometry.config"),
        "geometry.config.s": total("geometry.config"),
        "geometry.fundamental.calls": calls("geometry.fundamental"),
        "geometry.fundamental.s": total("geometry.fundamental"),
        "graph.parse.s": total("graph.parse"),
        "graph.necessary.calls": calls("graph.necessary"),
        "graph.necessary.s": total("graph.necessary"),
        "mining.enumerate.s": total("mining.enumerate"),
        "mining.candidates": sum(
            spans[i].attrs.get("items", 0) for i in by_name.get("mining.enumerate", ())
        ),
        "mining.canonical.calls": calls("mining.canonical"),
        "mining.canonical.s": total("mining.canonical"),
        "mining.sample.calls": calls("mining.sample"),
        "mining.sample.s": total("mining.sample"),
        "mining.self_s": self_total(*(n for n in LAYERS if n.startswith("mining."))),
        "cli.self_s": self_total("cli.main"),
    }
    return {name: float(value) for name, value in out.items()}
