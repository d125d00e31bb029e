"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; vgsolve is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "VGSOLVE_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import vgsolve\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Rep:
    """One pass over a workload's ops; ``problems`` holds, per op, why it
    failed or None."""

    op_walls: list[float]
    graphs: list[int]
    fingerprints: list
    problems: list[str | None]
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)

    @property
    def decided(self) -> int:
        return sum(g for g, p in zip(self.graphs, self.problems) if p is None)


def import_seconds() -> float:
    """Time to import vgsolve in a fresh interpreter (imports are cached per
    process, so this is the only way to repeat the measurement)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def clear_program_caches() -> None:
    """Empty vgsolve's memo caches, so every repetition pays what a fresh
    ``vgsolve`` process pays."""
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("vgsolve"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def run_rep(workload, inputs, tracer=None) -> Rep:
    """Time the workload's ops once; check their outputs afterwards."""
    from workloads import fingerprint  # imports vgsolve, so not before main() sets the path

    ops = workload.ops(inputs)
    clear_program_caches()
    outputs: list = []
    undo = spans.install(tracer) if tracer is not None else []
    op_walls: list[float] = []
    try:
        for op in ops:
            t0 = time.perf_counter()
            with tracer.op(op.kind) if tracer is not None else nullcontext():
                try:
                    outputs.append(op.call())
                except Exception as exc:  # an op that raises is a failed op
                    traceback.print_exc()
                    outputs.append(exc)
            op_walls.append(time.perf_counter() - t0)
    finally:
        spans.restore(undo)
    problems = [f"{type(o).__name__}: {o}" if isinstance(o, Exception) else None
                for o in outputs]
    if not any(problems):
        try:
            problems = workload.check(inputs, outputs)
        except Exception as exc:  # a malformed output breaks the check itself
            problems = [f"output check failed: {exc!r}"] * len(ops)
    return Rep(
        op_walls=op_walls,
        graphs=[op.graphs for op in ops],
        fingerprints=[fingerprint(o) for o in outputs],
        problems=list(problems),
        spans=tracer.spans if tracer is not None else [],
    )


def set_up(workload, seed: int, workdir: Path) -> tuple[dict, float]:
    """Make the inputs and warm up, several times; returns the inputs and
    the median set-up time including a fresh import of vgsolve."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.inputs(seed, workdir)
        tiny = workload.tiny()
        for op in tiny.ops(tiny.inputs(seed, workdir)):
            op.call()
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(imports) + statistics.median(times)


def pass_seconds(reps: list[Rep]) -> float:
    """Time of one pass over the ops: the sum of each op's median time over
    the repetitions, which a slow spell during one repetition barely moves."""
    return sum(statistics.median(times) for times in zip(*(r.op_walls for r in reps)))


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Repeat the workload until the next repetition would overrun
    ``seconds`` (at least once) and report medians.  A traced run
    alternates untraced and traced repetitions.  Input files go to
    ``workdir``."""
    inputs, setup_s = set_up(workload, seed, workdir)
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    while True:
        plain.append(run_rep(workload, inputs))
        if trace:
            traced.append(run_rep(workload, inputs, spans.Tracer()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    reps = plain + traced
    for rep in reps[1:]:
        for i, (now, first) in enumerate(zip(rep.fingerprints, reps[0].fingerprints)):
            if now != first and rep.problems[i] is None:
                rep.problems[i] = "output differs from the first repetition"
    for rep in reps:
        for i, problem in enumerate(rep.problems):
            if problem is not None:
                print(f"check failed, op {i}: {problem}", file=sys.stderr)

    wall_s = pass_seconds(plain)
    print(f"{workload.name}: {len(plain)} repetition(s) of {len(plain[0].op_walls)} op(s), "
          f"pass times {[round(sum(r.op_walls), 3) for r in plain]} s", file=sys.stderr)
    if trace:
        per_rep = [spans.layer_metrics(r.spans, r.decided) for r in traced]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        values["trace.overhead_s"] = pass_seconds(traced) - wall_s
        units = spans.PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall_s,
            "graphs_per_s": statistics.median(r.decided for r in plain) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    failed = sum(r.failed for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(len(r.problems) for r in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "vgsolve").glob("*.py")))
        ).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vgsolve" / "__init__.py").is_file():
        print(f"no vgsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), WORKDIR)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"env": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
