#!/usr/bin/env python3
"""Measure the repository in one go and write the result to BENCH_<n>.json.

Runs perfbench/run.py on every workload of BENCHMARK.json, untraced
(--trace 0, the end-to-end metrics) and traced (--trace 1, the per-layer
ones), and scripts/moving_face.py, a replay of a clip whose face box moves
every frame, at smooth_window 1 and 5; then times the tier-1 test command
and scripts/train_toy.py at its defaults. Each run's env line, metrics and
wall time go into the file, with the host's core count and the numpy
version. Run from anywhere:

    python3 scripts/bench.py --seconds 10 --seed 1

The file is BENCH_<n>.json at the repository root, n one above the highest
there, unless --out names it. A perf claim compares two such files made on
the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The "Tier-1 tests" step of .github/workflows/tier1.yml is the source of this
# command and its -W flags; keep the two the same. Only --durations, which
# prints and does not time, is left out; timed() sets PYTHONPATH as CI does.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-W", "error::ResourceWarning", "-W", "error::pytest.PytestUnraisableExceptionWarning",
         "-W", "error::RuntimeWarning"]


def timed(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return proc, time.monotonic() - start


def perfbench(workload: str, trace: int, seed: int, seconds: float) -> dict:
    proc, wall = timed([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "trace": trace, "wall_s": wall, "returncode": proc.returncode,
            "env": env, "result": result, "stderr_tail": proc.stderr.splitlines()[-5:]}


def moving_face(smooth_window: int, seed: int, seconds: float) -> dict:
    proc, wall = timed([sys.executable, "scripts/moving_face.py", "--smooth-window",
                        str(smooth_window), "--seed", str(seed), "--seconds", str(seconds)])
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"wall_s": wall, "returncode": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0, help="per perfbench run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="default: the next free BENCH_<n>.json")
    args = parser.parse_args()

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = []
    for workload in workloads:
        for trace in (0, 1):
            runs.append(perfbench(workload, trace, args.seed, args.seconds))
            print(f"{workload} --trace {trace}: {runs[-1]['wall_s']:.1f}s", file=sys.stderr)
    replays = []
    for k in (1, 5):
        replays.append(moving_face(k, args.seed, args.seconds))
        print(f"moving face, smooth_window {k}: {replays[-1]['wall_s']:.1f}s", file=sys.stderr)
    tier1, tier1_s = timed(TIER1)
    with tempfile.TemporaryDirectory() as tmp:
        toy, toy_s = timed([sys.executable, "scripts/train_toy.py",
                            "--cnn-out", f"{tmp}/toy-cnn.emn1", "--lda-out", f"{tmp}/toy-lda.emn1"])
    bench = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "seed": args.seed, "seconds": args.seconds,
        "perfbench": runs,
        "moving_face": replays,
        "tier1": {"wall_s": tier1_s, "returncode": tier1.returncode,
                  "summary": (tier1.stdout.strip().splitlines() or [""])[-1]},
        "train_toy": {"wall_s": toy_s, "returncode": toy.returncode,
                      "output": [line.replace(tmp + "/", "") for line in toy.stdout.splitlines()
                                 if not line.startswith("epoch ")]},
    }
    out = args.out or next_path()
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = [r for r in runs if not (r["result"] or {}).get("correct")]
    failed += [r for r in replays if r["returncode"]]
    return 1 if failed or tier1.returncode or toy.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
