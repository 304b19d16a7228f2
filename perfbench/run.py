#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each is chosen): ``train_mlp``,
``train_ddp``, ``serve`` and ``search``.  Every
number is stall-free: no stall knob of the library is set and no
objective sleeps.  The seed makes every input; the library only ever
sees the generated inputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same measurement, then a second, traced pass that times the calls the
benchmark makes into each module (``nn``, ``parallel``, ``serve``,
``registry``, ``hpo``) and prints the per-layer metrics, with
``trace_overhead_frac`` comparing the traced pass to the untraced one.
A layer a workload does not exercise reads 0.

Before the result, one ``perfbench-record`` line carries the run's
metadata (cores, BLAS thread pins, NumPy, start method, commit), the
operation counts and the outcome of every correctness check.  The exit
code is 1 when a check fails, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train_mlp", "train_ddp", "serve", "search")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run(workload: str, seed: int, seconds: int, trace: bool, tmpdir: str) -> dict:
    if workload == "train_mlp":
        from perfbench.train import run_train_mlp
        return run_train_mlp(seed, seconds, trace)
    if workload == "train_ddp":
        from perfbench.train import run_train_ddp
        return run_train_ddp(seed, seconds, trace)
    if workload == "serve":
        from perfbench.serve import run_serve
        return run_serve(seed, seconds, trace, tmpdir)
    from perfbench.search import run_search
    return run_search(seed, seconds, trace, tmpdir)


def _reap_children() -> None:
    """Join every child still running, then the shared-memory resource
    tracker multiprocessing starts on first use (it would otherwise
    outlive this process by a moment)."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.common import peak_rss_mb, run_meta

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)
    finally:
        _reap_children()
        shutil.rmtree(tmpdir, ignore_errors=True)
    rss = peak_rss_mb()
    res["metrics"]["peak_rss_mb"] = rss["parent"] + rss["largest_child"]
    res["details"]["peak_rss_mb"] = rss

    if args.trace:
        # A layer the workload never calls did no work: it reads 0.
        declared = spec["per_layer"]
        values = {m["name"]: res["layers"].get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: res["metrics"][m["name"]] for m in declared}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": run_meta(), "measured": res["metrics"],
        "layers": res["layers"], "details": res["details"],
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
