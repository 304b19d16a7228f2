#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 0-9 [--seconds N] [--trace 0]

For every metric: the median over runs and the distance between the
first and third quartile as a share of the median (the figure each
end-to-end bound in ``BENCHMARK.json`` must hold with room to spare).
Also prints each run's wall time and every run that failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values, walls, bad = {}, [], []
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            bad.append((seed, proc.returncode, proc.stderr[-2000:]))
            continue
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            bad.append((seed, "incorrect" if not res["correct"] else f"failed={res['failed']}",
                        lines[-2][:2000]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
        else:
            share = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- spread >= bound/3"
        print(f"{name:34s} median {med:12.5g}  iqr/median {share:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)
    for seed, code, tail in bad:
        print(f"FAILED seed {seed}: {code}\n{tail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
