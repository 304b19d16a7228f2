"""``serve``: open-loop traffic through the Router on a fixed rate ladder.

A p1b2 model is published into an :class:`ArtifactStore`, a two-replica
:class:`ReplicaGroup` is built from the store with a row-addressed
request pool, and a :class:`Router` fronts it.  One driving process
sends seeded Poisson arrivals at fixed rates.  The request path is a
tiny no-grad forward, so latency is router, batcher and pool IPC.

Latency is timed from each request's *due* time, so a stall in the
driver or the service shows up in every request it delays; shed,
timed-out and retried-away requests count as misses (``inf``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Tuple


from repro.candle.registry import get_benchmark
from repro.datasets import make_tumor_expression
from repro.registry import ArtifactStore
from repro.serve import BatchPolicy, ReplicaGroup, Router

from .common import CallTimer, median, release_freed_memory
from .stats import Rung, max_rate_at_slo, poisson_schedule, summarize, windowed_summary

MODEL = "p1b2"
N_GENES = 200          # the p1b2 benchmark's own input width
POOL_ROWS = 4096
N_REPLICAS = 2
SETUP_REPEATS = 3
# A 2 ms batching window (the default waits 5 ms) keeps request latency
# close to the router, batcher and IPC cost this workload exposes.
POLICY = BatchPolicy(max_batch_size=32, max_wait_s=0.002, max_queue=4096, timeout_s=1.0)
# Fixed rates (requests/s).  On a 2-core host the single driving
# process saturates a core from ~6k/s on, and 100-250 ms stalls appear
# there; the ladder stays clear of that knee.
HIGH_RATE = 4000.0
LADDER = (2000.0, 3000.0, 4000.0)
# Latency is summarised per slice of this many requests (enough for a
# p99 with ten samples beyond it), then the median over slices is taken.
WINDOW_REQUESTS = 1000
LIMIT_MS = 25.0        # tail-latency limit of the SLO ladder
BACKLOG_LIMIT = 2 * POLICY.max_batch_size * N_REPLICAS
DRAIN_TIMEOUT_S = 30.0


class Service:
    """Store, replica group and router for one run, plus set-up timings."""

    def __init__(self, seed: int, tmpdir: str) -> None:
        t0 = time.perf_counter()
        self.pool_x = make_tumor_expression(
            n_samples=POOL_ROWS, n_genes=N_GENES, n_classes=4, seed=seed
        ).x
        model = get_benchmark(MODEL).materialize(input_shape=(N_GENES,), seed=seed)
        self.store = ArtifactStore(tmpdir)
        t1 = time.perf_counter()
        self.store.publish(model, MODEL, MODEL, input_shape=(N_GENES,), hparams={})
        t2 = time.perf_counter()
        self.store.resolve(f"{MODEL}@latest")
        t3 = time.perf_counter()
        self.group = ReplicaGroup.from_store(
            self.store, f"{MODEL}@latest", n_replicas=N_REPLICAS, data={"x_pool": self.pool_x}
        )
        t4 = time.perf_counter()
        self.group.wait_ready()
        t5 = time.perf_counter()
        self.router = Router({MODEL: self.group}, policy=POLICY, record_batches=True)
        self.setup_s = time.perf_counter() - t0
        self.timings = {
            "registry.publish_ms": 1e3 * (t2 - t1),
            "registry.resolve_ms": 1e3 * (t3 - t2),
            "registry.group_build_ms": 1e3 * (t4 - t3),
            "parallel.pool.spawn_s": t5 - t4,
        }
        self.submitted = 0
        self.unverified: Dict[int, Tuple[int, object]] = {}  # id -> (row, request)
        self.batches_verified = 0
        self.responses_verified = 0
        self.mismatches = 0
        self.lateness_ms: List[float] = []

    def verify(self) -> None:
        """Compare every response completed since the last call with
        ``predict`` on the same micro-batch composition, bit for bit,
        then forget those requests (holding every request of a run would
        grow the driver's heap by tens of MB)."""
        model = self.group.model
        log = self.router.batch_log
        for _, ids in log[self.batches_verified:]:
            rows = [self.unverified[i][0] for i in ids]
            ref = model.predict(self.pool_x[rows], batch_size=len(rows))
            for k, i in enumerate(ids):
                got = self.unverified[i][1].result
                if got is None or got.dtype != ref.dtype or got.tobytes() != ref[k].tobytes():
                    self.mismatches += 1
                self.responses_verified += 1
        self.batches_verified = len(log)
        self.unverified = {i: v for i, v in self.unverified.items() if not v[1].done}

    def close(self) -> None:
        self.router.close()


def timed_setup(seed: int, tmpdir: str) -> Tuple[float, Dict[str, float], Service]:
    """Build the service ``SETUP_REPEATS`` times (each in a fresh store)
    and keep the last; returns medians and the live service."""
    setups, timings = [], []
    for i in range(SETUP_REPEATS):
        if i:
            svc.close()
            del svc
            release_freed_memory()
        svc = Service(seed, f"{tmpdir}/store{i}")
        setups.append(svc.setup_s)
        timings.append(svc.timings)
    release_freed_memory()
    med = {k: median(t[k] for t in timings) for k in timings[0]}
    return median(setups), med, svc


def drive(svc: Service, rate: float, duration_s: float, seed,
          on_submit=None) -> Tuple[List[float], int]:
    """Send one open-loop phase; returns (latencies ms from due time, in
    arrival order, and the backlog: the median of the requests pending
    at the end of each window of arrivals, so a backlog that grows
    shows while one momentary stall does not).

    The loop pumps the router without sleeping, as ``Router.drain``
    does: a driver that naps between arrivals lets its core idle, and on
    a virtual machine the wake-up from idle adds host-dependent delay
    to every request."""
    sched = poisson_schedule(rate, duration_s, seed)
    router, clock = svc.router, time.perf_counter
    due_at = (clock() + 0.005) + sched
    phase: List[Tuple[float, object]] = []
    backlogs: List[int] = []
    i, n = 0, len(sched)
    while i < n:
        now = clock()
        while i < n and due_at[i] <= now:
            row = svc.submitted % POOL_ROWS
            req = router.submit(MODEL, row=row)
            svc.submitted += 1
            svc.unverified[req.request_id] = (row, req)
            svc.lateness_ms.append(1e3 * (now - due_at[i]))
            if on_submit is not None:
                on_submit(row, now)
            phase.append((due_at[i], req))
            i += 1
            if i % WINDOW_REQUESTS == 0:
                backlogs.append(router.pending)
        router.pump()
    backlogs.append(router.pending)
    backlog = int(median(backlogs))
    router.drain(timeout_s=DRAIN_TIMEOUT_S)
    lat = [
        1e3 * (req.complete_time - due) if req.status == "completed" else float("inf")
        for due, req in phase
    ]
    svc.verify()
    return lat, backlog


def _goodput(lat_ms: List[float], duration_s: float) -> float:
    return sum(1 for v in lat_ms if v <= LIMIT_MS) / duration_s


def check(svc: Service) -> Tuple[bool, Dict[str, str]]:
    """Accounting invariant, and every response verified bit-identical
    to ``predict`` on the same micro-batch composition."""
    r = svc.router
    checks = {}
    ok = r.pending == 0 and r.stats.accounted(still_queued=0) and (
        r.stats.submitted == svc.submitted
    )
    checks["accounting"] = "holds" if ok else f"BROKEN {r.stats}"
    n = svc.responses_verified
    same = svc.mismatches == 0 and n == r.stats.completed
    checks["responses"] = f"{n} bit-identical" if same else f"MISMATCH {svc.mismatches} of {n}"
    return ok and same, checks


def _counts(svc: Service) -> Tuple[int, int, Dict[str, int]]:
    s = svc.router.stats
    counts = {
        "submitted": s.submitted, "completed": s.completed, "shed": s.shed,
        "timed_out": s.timed_out, "retried_away": s.retried_away, "retries": s.retries,
    }
    return s.submitted, s.shed + s.timed_out + s.retried_away, counts


class ServeTracer:
    """Per-layer timings of one traced phase, from instance wrappers on
    the router and the replica group the benchmark built.  The shed,
    timed-out, retry and pool-retry counts cover the whole run; the rest
    cover the traced phase."""

    def __init__(self, svc: Service) -> None:
        self.svc = svc
        self._batches0 = (svc.router.stats.batches, svc.router.stats.batch_size_sum)
        self.timer = CallTimer()
        self._waiting: deque = deque()   # (row, router-submit time), FIFO
        self.queue_wait: List[float] = []
        self._task_t: Dict[int, float] = {}
        self.busy: List[float] = []
        self.overhead: List[float] = []
        self.died = 0
        self.timer.wrap(svc.router, "pump")
        self.timer.wrap(svc.group, "submit", after=self._dispatched)
        self.timer.wrap(svc.group, "poll", after=self._polled)

    def submitted(self, row: int, t: float) -> None:
        self._waiting.append((row, t))

    def _dispatched(self, t0, _t1, args, kwargs, task_id) -> None:
        self._task_t[task_id] = t0
        for row in kwargs.get("rows") or []:
            # FIFO dispatch: skip requests that expired before a batch.
            while self._waiting:
                r, t = self._waiting.popleft()
                if r == row:
                    self.queue_wait.append(t0 - t)
                    break

    def _polled(self, _t0, t1, _args, _kwargs, res) -> None:
        if res is None:
            return
        if res.status in ("died", "hung"):
            self.died += 1
        sent = self._task_t.pop(res.task_id, None)
        self.busy.append(res.duration_s)
        if sent is not None:
            self.overhead.append((t1 - sent) - res.duration_s)

    def layers(self) -> Dict[str, float]:
        s = self.svc.router.stats
        batches = s.batches - self._batches0[0]

        def mean_ms(v):
            return 1e3 * sum(v) / len(v) if v else 0.0

        return {
            "serve.queue_wait_ms": mean_ms(self.queue_wait),
            "serve.batch_size_mean": (s.batch_size_sum - self._batches0[1]) / max(batches, 1),
            "serve.pump_ms": self.timer.mean_ms("pump"),
            "serve.shed": s.shed,
            "serve.timed_out": s.timed_out,
            "serve.retries": s.retries,
            "parallel.pool.task_busy_ms": mean_ms(self.busy),
            "parallel.pool.task_overhead_ms": mean_ms(self.overhead),
            "parallel.pool.tasks_died": self.died,
            "parallel.pool.tasks_retried": self.svc.group.pool.tasks_retried,
        }


def _windows(lat_ms: List[float]) -> int:
    return max(1, len(lat_ms) // WINDOW_REQUESTS)


def run_serve(seed: int, seconds: int, trace: bool, tmpdir: str) -> Dict:
    setup_s, reg, svc = timed_setup(seed, tmpdir)
    details: Dict[str, object] = {"policy": POLICY.__dict__, "limit_ms": LIMIT_MS}
    layers: Dict[str, float] = {}
    try:
        rate = HIGH_RATE
        dur = seconds / len(LADDER)
        rungs: List[Rung] = []
        phases = []
        for k, r in enumerate(LADDER):
            lat, backlog = drive(svc, r, dur, [seed, k])
            summ = windowed_summary(lat, _windows(lat))
            rung = Rung(r, _goodput(lat, dur), summ.tail, backlog, BACKLOG_LIMIT, LIMIT_MS)
            rungs.append(rung)
            phases.append({"rate": r, "seconds": dur, "backlog": backlog,
                           "passes": rung.passes, **summ.as_dict()})
            if r == HIGH_RATE:
                main, throughput = summ, rung.achieved
        # The highest rate within the SLO is a step function of host
        # noise (one slow second fails a rung), so it is reported here;
        # the gated throughput is the goodput at HIGH_RATE.
        best = max_rate_at_slo(rungs)
        details["phases"] = phases
        details["max_rps_at_slo"] = None if best is None else best.achieved
        details["max_rate_rung"] = None if best is None else best.rate
        # The generator's own lateness (submit time minus due time), over
        # the untraced phases: it is the load generator's health, not a
        # traced quantity.
        late = summarize(svc.lateness_ms)
        details["generator_late_ms"] = late.as_dict()
        if trace:
            tracer = ServeTracer(svc)
            t_dur = max(1.0, seconds / 2)
            t_lat, _ = drive(svc, rate, t_dur, [seed, len(LADDER)], on_submit=tracer.submitted)
            traced = windowed_summary(t_lat, _windows(t_lat))
            layers = {**tracer.layers(), **reg, "serve.generator_late_ms": late.tail}
            layers["trace_overhead_frac"] = traced.p50 / main.p50 - 1.0
        ok, checks = check(svc)
        attempted, failed, counts = _counts(svc)
    finally:
        svc.close()
    details["checks"] = checks
    details["requests"] = counts
    details["registry"] = reg
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "throughput_per_s": throughput,
            "op_p50_ms": main.p50,
            "op_tail_ms": main.tail,
        },
        "details": details,
        "layers": layers,
    }
