"""Blocksolve benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload sync-32-b8 --seed 5 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Each run starts ``bench.py`` in a fresh child process with the BLAS and
OpenMP pools pinned to one thread before numpy loads, and passes the child's
output through; its last line is the result object. ``--smoke`` runs every
workload on a tiny grid, traced and untraced, and checks that each metric
named in BENCHMARK.json is printed with its unit.

Standard library only: numpy must not load in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if spec["workloads"] != [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [(m.name, m.unit, m.better) for m in catalogue]:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            child = run_child(
                ["--workload", name, "--seconds", "1", "--trace", str(trace), "--smoke"]
            )
            lines = child.stdout.strip().splitlines()
            label = f"{name} --trace {trace}"
            if child.returncode != 0 or not lines:
                problems.append(f"{label}: exit {child.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed"):
                problems.append(f"{label}: not correct")
            printed = {m: v["unit"] for m, v in result.get("metrics", {}).items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if printed != wanted:
                problems.append(f"{label}: metrics {printed} differ from {wanted}")
            print(f"smoke {label}: {len(printed)} metrics", flush=True)
    for problem in problems:
        print("smoke FAILED:", problem, file=sys.stderr)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "blocksolve" / "__init__.py").is_file():
        print(f"no blocksolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    child = run_child([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ])
    sys.stdout.write(child.stdout)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
