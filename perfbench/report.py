"""Run every workload of BENCHMARK.json, one at a time and each in a fresh
process, and print every metric with its unit plus each workload's
fail_share (failed ops / attempted ops).

    python3 perfbench/report.py                 # end-to-end metrics
    python3 perfbench/report.py --trace         # per-layer metrics too
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make a traced run")
    args = parser.parse_args()
    env_printed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True) if args.trace else (False,):
            env, result = run(workload, args.seed, args.seconds, trace)
            if not env_printed:
                print("env " + json.dumps(env, sort_keys=True))
                env_printed = True
            for name, metric in result["metrics"].items():
                print(f"{workload:6} {name:34} {metric['value']:14.6g} {metric['unit']}")
            if not trace:
                share = result["failed"] / result["attempted"]
                print(f"{workload:6} {'fail_share':34} {share:14.6g} share"
                      f"  ({result['failed']}/{result['attempted']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
