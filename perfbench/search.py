"""``search``: random search over the CANDLE MLP space on the durable queue.

Each campaign is ``run_elastic`` with ``RandomSearch``, the real p1b2
objective (``max_samples=400``: a ~10 ms small-tensor ``fit`` where
Python overhead, not GEMM, dominates), a ``DurableTrialQueue`` in its
default durable mode and a two-worker ``ParallelTrialExecutor``.  Random
asks do not depend on completion order, so the trial set, and for a
given seed the best value, are the same on every run.  The run repeats
the campaign a fixed number of times and pools their trials.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.hpo import DurableTrialQueue, RandomSearch, benchmark_objective, candle_mlp_space, run_elastic
from repro.parallel import ParallelTrialExecutor

from .common import CallTimer, load_reference, median
from .stats import summarize

N_TRIALS = 200
N_WORKERS = 2
MAX_SAMPLES = 400
# The strategy seed is fixed: trial costs vary ~16x across the space
# (batch size, widths), so letting the seed pick the configurations
# would make the work per run a lottery.  The seed draws the data every
# trial trains on, which sets every trial value and the best one.
STRATEGY_SEED = 0


def n_campaigns(seconds: int) -> int:
    """Campaigns sized to ~``seconds`` (~2 s each on a current x86 host)."""
    return max(1, seconds // 2)


class Campaign:
    """One timed campaign and everything measured about it."""

    def __init__(self, seed: int, path: str, trace: bool) -> None:
        t0 = time.perf_counter()
        self.objective = benchmark_objective("p1b2", data_seed=seed, max_samples=MAX_SAMPLES)
        strategy = RandomSearch(candle_mlp_space(), seed=STRATEGY_SEED)
        self.queue = DurableTrialQueue(path)
        executor = ParallelTrialExecutor(N_WORKERS)
        pre_s = time.perf_counter() - t0

        timer = CallTimer()
        sent: Dict[int, float] = {}
        self.latency: List[float] = []
        self.busy: List[float] = []
        self.died = 0

        def on_submit(t0, _t1, _a, _k, task_id):
            sent[task_id] = t0

        def on_result(_t0, t1, _a, _k, res):
            self.latency.append(t1 - sent.pop(res.task_id))
            self.busy.append(res.duration_s)
            self.died += res.status in ("died", "hung")

        timer.wrap(executor, "start")
        timer.wrap(executor, "submit", after=on_submit)
        timer.wrap(executor, "next_result", after=on_result)
        if trace:
            for m in ("enqueue", "claim", "ack"):
                timer.wrap(self.queue, m, key=f"hpo.queue.{m}_ms")
            for m in ("ask", "tell"):
                timer.wrap(strategy, m, key=f"hpo.strategy.{m}_ms")
        try:
            self.log = run_elastic(
                strategy, self.objective, N_TRIALS, self.queue, N_WORKERS, executor=executor
            )
            self.jobs = self.queue.jobs()
        finally:
            self.queue.close()
        self.timer = timer
        self.spawn_s = timer.calls["start"][0]
        self.setup_s = pre_s + self.spawn_s
        self.makespan = max(t.sim_time for t in self.log.trials)

    def outcome(self) -> Tuple[str, str]:
        """(best value, digest of every trial's value), as float hex."""
        values = sorted((t.trial_id, float(t.value).hex()) for t in self.log.trials)
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]
        return float(self.log.best_value()).hex(), digest

    def failures(self) -> Dict[str, int]:
        ids = [t.trial_id for t in self.log.trials]
        done = {j.job_id for j in self.jobs if j.status == "done"}
        return {
            "lost": N_TRIALS - len(done),
            "duplicated": len(ids) - len(set(ids)) + self.log.stats["duplicate_acks"],
            "gave_up": self.log.stats["giveups"],
        }

    def layers(self) -> Dict[str, float]:
        stats = self.log.stats
        busy_s = stats["busy_s"]
        out = {k: self.timer.mean_ms(k) for k in self.timer.calls if k.startswith("hpo.")}
        out.update({
            "hpo.trial_busy_ms": 1e3 * busy_s / len(self.log.trials),
            "hpo.sched_overhead_frac": 1.0 - busy_s / (N_WORKERS * self.makespan),
            "hpo.reclaims": stats["reclaims"],
            "hpo.duplicate_acks": stats["duplicate_acks"],
            "parallel.pool.task_busy_ms": 1e3 * float(np.mean(self.busy)),
            "parallel.pool.task_overhead_ms": 1e3 * float(np.mean(
                [lat - b for lat, b in zip(self.latency, self.busy)])),
            "parallel.pool.spawn_s": self.spawn_s,
            "parallel.pool.tasks_died": self.died,
            "parallel.pool.tasks_retried": stats["retries"],
        })
        return out


def check(seed: int, runs: List[Campaign]) -> tuple:
    """Every trial completes exactly once with the fixed configs, and
    the best value and every trial value are the same on every campaign,
    on re-evaluating the best configuration, and in the seed's recorded
    reference."""
    checks: Dict[str, object] = {}
    expect = RandomSearch(candle_mlp_space(), seed=STRATEGY_SEED)
    configs = [expect.ask().config for _ in range(N_TRIALS)]
    ok = True
    for c in runs:
        fails = c.failures()
        got = [j.config for j in sorted(c.jobs, key=lambda j: j.job_id)]
        ok = ok and not any(fails.values()) and got == configs
    checks["exactly_once"] = "holds" if ok else f"BROKEN {[c.failures() for c in runs]}"
    outcomes = {c.outcome() for c in runs}
    best = runs[0].log.best()
    again = runs[0].objective(best.config, best.budget)
    same = len(outcomes) == 1 and again == best.value
    checks["best_value"] = float(best.value).hex()
    checks["values_sha256"] = runs[0].outcome()[1]
    checks["best_reevaluated"] = "match" if same else f"MISMATCH {again!r} {sorted(outcomes)}"
    ref = load_reference("search", seed)
    if ref is None:
        checks["recorded_reference"] = "not recorded for this seed and platform"
    else:
        hit = list(runs[0].outcome()) == ref
        checks["recorded_reference"] = "match" if hit else f"MISMATCH {ref}"
        same = same and hit
    return ok and same, checks


def _rate(runs: List[Campaign]) -> float:
    # Pooled: a campaign's makespan ends with its slowest straggler, so
    # single campaigns scatter; their sum does not.
    return sum(len(c.log.trials) for c in runs) / sum(c.makespan for c in runs)


def run_search(seed: int, seconds: int, trace: bool, tmpdir: str) -> Dict:
    runs = [Campaign(seed, f"{tmpdir}/queue{i}.sqlite", False) for i in range(n_campaigns(seconds))]
    lat = summarize(1e3 * np.concatenate([c.latency for c in runs]))
    result = {
        "metrics": {
            "setup_s": median(c.setup_s for c in runs),
            "throughput_per_s": _rate(runs),
            "op_p50_ms": lat.p50,
            "op_tail_ms": lat.tail,
        },
        "details": {
            "campaigns": len(runs), "trials_per_campaign": N_TRIALS, "workers": N_WORKERS,
            "trial_latency": lat.as_dict(),
            "makespans_s": [c.makespan for c in runs],
        },
        "layers": {},
    }
    traced = []
    if trace:
        traced = [Campaign(seed, f"{tmpdir}/traced{i}.sqlite", True)
                  for i in range(max(1, len(runs) // 2))]
        per = [c.layers() for c in traced]
        layers = {k: median(p[k] for p in per) for k in per[0]}
        layers["trace_overhead_frac"] = 1.0 - _rate(traced) / result["metrics"]["throughput_per_s"]
        result["layers"] = layers
    everything = runs + traced
    ok, checks = check(seed, everything)
    fails = [c.failures() for c in everything]
    result.update({
        "correct": ok,
        "attempted": N_TRIALS * len(everything),
        "failed": sum(sum(f.values()) for f in fails),
    })
    result["details"]["checks"] = checks
    return result
