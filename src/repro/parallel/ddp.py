"""Real data-parallel training: per-rank shards, shared-memory allreduce.

:func:`fit_data_parallel` trains one model on ``world`` ranks.  Each
step, every rank draws the *same* global-batch permutation slice (the
data-order RNG is replicated bit-for-bit into every rank), computes
gradients on its ``batch_size / world`` micro-batch, and the gradients
are averaged through the deterministic shared-memory allreduce of
:mod:`repro.parallel.allreduce`.  With the default bucketed engine the
optimizer step is sharded (ZeRO stage 1): each rank updates only the
chunks of the flat vector it reduced, holding optimizer state for
those elements alone, writes the new parameters over its reduced
sums in the shared out slab, and after one parameter barrier every
rank copies the whole slab into its weights.  The update is
elementwise, so the replicas stay bit-identical to one optimizer
stepping the averaged gradient — standard DDP, actually running on
processes.

Two backends, one contract:

* ``backend="process"`` — real OS processes; the dataset is published
  once through the shared-memory data plane and ranks attach zero-copy.
* ``backend="serial"`` — the same algorithm executed by one process
  (rank micro-batches evaluated sequentially, combined with
  :func:`~repro.parallel.allreduce.reduce_ranks`).

Because the reduction association order is pinned (ascending rank
order in both backends) the two produce **bit-identical** weights —
the parity gate ``benchmarks/bench_parallel.py`` enforces.  With
``world=1`` the loop degenerates to plain mini-batch SGD and matches
``Model.fit`` exactly (same RNG draw order, provided ``batch_size``
divides the dataset; see ``drop_last`` for the ragged tail).

Gradient communication itself has two shapes (``comm=``):

* ``"bucketed"`` (default) — the overlapped engine.  Parameters are
  partitioned into size-targeted buckets in reverse layout order
  (:func:`~repro.parallel.allreduce.plan_buckets`); a per-parameter
  grad-ready tape hook (``Tensor.backward(grad_ready_hook=…)``) packs
  each gradient the moment backward finalises it, and completed
  buckets are handed — in pinned schedule order — to a per-rank comm
  thread that runs the double-buffered shared-memory allreduce while
  backward keeps producing the remaining buckets.  ``overlap=False``
  flushes the same buckets synchronously after backward (the ablation
  baseline).  ``wire_dtype`` selects the slab format (``float64`` |
  ``float32`` | ``bf16``); accumulation is always float64 in ascending
  rank order, so the serial backend replaying the identical schedule
  (:func:`~repro.parallel.allreduce.reduce_ranks_bucketed`) stays
  bit-identical at every wire precision.
* ``"monolithic"`` — the original single 3-barrier allreduce over the
  whole flat vector after backward (float64 wire only), after which
  every rank runs the full optimizer step on its copy; kept as the
  measured baseline for ``benchmarks/bench_ddp_overlap.py``.

``pre_step_hook(rank, step)`` runs during micro-batch assembly — the
place a real pipeline pays its staging latency (and where the parallel
benchmark injects a measured stall); ``prefetch=True`` overlaps that
assembly with compute via :class:`~repro.parallel.prefetch.PrefetchLoader`.
``comm_stall_s_per_mib`` injects a *communication* staging stall (per
MiB of wire traffic, slept on the comm path) — the knob the overlap
benchmark turns to model interconnect latency; it never changes
numerics, so the stall-free serial reference stays the parity oracle.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import losses as losses_mod
from ..nn.model import Model
from ..nn.optim import Adam, Optimizer, arena_order
from ..nn.tensor import Tensor
from ..obs.context import get_recorder
from .allreduce import (
    DEFAULT_BUCKET_BYTES,
    WIRE_DTYPES,
    AllreduceHandle,
    BucketAllreduceHandle,
    BucketPlan,
    BucketRankReducer,
    RankReducer,
    chunk_bounds,
    create_allreduce,
    create_bucketed_allreduce,
    plan_buckets,
    reduce_ranks,
    reduce_ranks_bucketed,
    wire_itemsize,
)
from .pool import DEFAULT_WORKER_ENV
from .prefetch import PrefetchLoader
from .shm import SharedArrayRef, attach, SharedArrayStore


@dataclass
class DataParallelResult:
    """Outcome of a data-parallel fit (either backend).

    ``comm_stats`` (process backend, rank 0's view) reports what the
    gradient-communication engine actually did: per-bucket spans and
    cumulative comm seconds, total vs *exposed* comm time (exposed =
    main thread blocked after backward), the derived overlap fraction,
    bytes-on-wire per step, the seconds spent in the optimizer step
    (``optim_s``) and blocked on the parameter barrier
    (``param_wait_s``; always 0 for the monolithic engine).
    """

    world: int
    backend: str
    epochs: int
    steps_per_epoch: int
    elapsed_s: float
    epoch_losses: List[float]
    epoch_times: List[float] = field(default_factory=list)
    comm_stats: Optional[Dict] = None

    @property
    def steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    @property
    def steps_per_s(self) -> float:
        """Global train-step throughput (the bench acceptance metric)."""
        return self.steps / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


@dataclass
class _TrainSpec:
    """Everything a rank needs, in one picklable bundle (the model and
    RNG state cross the process boundary once, at rank startup)."""

    model_bytes: bytes
    rng_state: dict
    world: int
    epochs: int
    batch_size: int  # global batch; each rank takes batch_size/world
    loss: object  # name or picklable callable
    lr: float
    optimizer_factory: Optional[Callable]
    shuffle: bool
    pre_step_hook: Optional[Callable[[int, int], None]]
    prefetch: bool
    n_samples: int
    comm: str = "bucketed"
    wire_dtype: str = "float64"
    bucket_bytes: int = DEFAULT_BUCKET_BYTES
    overlap: bool = True
    comm_stall_s_per_mib: float = 0.0
    drop_last: bool = True


def _param_layout(params) -> Tuple[List, List[Tuple[int, int, Tuple[int, ...]]], int]:
    """The optimizer's arena layout as one flat float64 vector: the
    parameters in :func:`~repro.nn.optim.arena_order`, (offset, size,
    shape) per parameter, and the vector length (one trailing slot
    carries the batch loss).  Every rank's optimizer is built over the
    same order, so ``Optimizer.gather_grads``/``scatter_grads`` move the
    whole gradient with one slice copy per arena."""
    params = arena_order(params)
    layout = []
    off = 0
    for p in params:
        layout.append((off, p.data.size, p.data.shape))
        off += p.data.size
    return params, layout, off + 1


def _grads_into(model, loss_fn, opt, xb, yb, out_vec,
                sched: Optional["_GradBucketScheduler"] = None, step: int = 0) -> None:
    """One micro-batch forward/backward; pack grads + loss into out_vec.

    Without a scheduler the gradients are packed after backward returns,
    one slice copy out of the optimizer's gradient arena (and the
    scheduler path packs the *same* floats — each hook reads the
    finalised ``.grad``); with one, every parameter is packed the
    moment the tape finishes it, so completed buckets start
    communicating while backward is still running.  The loss lands in
    the trailing slot before backward — bucket 0 carries it and may
    ship mid-backward.
    """
    opt.zero_grad()
    target = xb if yb is None else yb
    loss = loss_fn(model.forward(Tensor(xb), training=True), target)
    if sched is not None:
        sched.begin_step(out_vec, step)
        out_vec[-1] = loss.item()
        loss.backward(grad_ready_hook=sched.grad_ready)
        sched.finish_backward()
    else:
        loss.backward()
        opt.gather_grads(out_vec)
        out_vec[-1] = loss.item()


def _apply_combined(opt, combined) -> None:
    """Land the averaged vector in the optimizer's gradient arena and step."""
    opt.scatter_grads(combined)
    opt.step()


class _GradBucketScheduler:
    """Per-rank bucket engine: pack gradients as backward produces them,
    ship completed buckets in pinned schedule order.

    ``grad_ready`` is handed to ``Tensor.backward(grad_ready_hook=…)``;
    when the countdown of the *next* scheduled bucket reaches zero its
    slice is dispatched — to a dedicated comm thread when ``overlap``
    (the allreduce barrier waits and NumPy reductions release the GIL,
    so communication genuinely runs under the remaining backward), or
    queued for a synchronous post-backward flush otherwise.  Buckets
    always cross the wire in schedule order on every rank, so the
    per-bucket barriers can never interleave across buckets.

    With ``reducer=None`` (the serial backend) the scheduler is pure
    bookkeeping: the same hooks pack the same buckets, and the caller
    combines ranks through :func:`reduce_ranks_bucketed`.

    ``stall_s_per_mib`` charges a wire-transfer stall per bucket, scaled
    by the bucket's wire bytes, *inside* the collective (post-publish
    barrier; see :meth:`BucketRankReducer.allreduce_bucket`) — the
    bandwidth term of the alpha-beta cost model the overlap benchmark
    measures against.  Timing bookkeeping: ``total_comm_s`` is comm-path
    busy time, ``exposed_wait_s`` is how long the main thread actually
    blocked for it, and ``comm_chain_s`` is the wall span of each step's
    comm chain (first bucket dispatched to last bucket reduced) — the
    overlap fraction is the share of that span hidden under backward,
    ``1 - exposed / chain``.  ``optim_s`` and ``param_wait_s`` time
    :meth:`sharded_step` outside and inside the parameter barrier.
    """

    def __init__(self, plan: BucketPlan, params, layout,
                 reducer: Optional[BucketRankReducer], wire_dtype: str, *,
                 overlap: bool = True, stall_s_per_mib: float = 0.0) -> None:
        self.plan = plan
        self._params = params
        self._layout = layout
        self._id2idx = {id(p): i for i, p in enumerate(params)}
        self._counts0 = plan.param_counts()
        self._reducer = reducer
        self._active = reducer is not None and reducer.world > 1
        self._overlap = overlap and self._active
        itemsize = wire_itemsize(wire_dtype)
        self._stalls = [
            stall_s_per_mib * (hi - lo) * itemsize / 2**20 for lo, hi in plan.spans
        ]
        self.steps = 0
        self.total_comm_s = 0.0
        self.exposed_wait_s = 0.0
        self.comm_chain_s = 0.0
        self.optim_s = 0.0
        self.param_wait_s = 0.0
        self.bucket_comm_s = [0.0] * plan.n_buckets
        self._t_first = 0.0
        self._thread: Optional[threading.Thread] = None
        if self._overlap:
            self._queue: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
            self._cv = threading.Condition()
            self._done = 0
            self._error: Optional[BaseException] = None
            self._thread = threading.Thread(
                target=self._comm_loop, name="ddp-comm", daemon=True
            )
            self._thread.start()

    # -- per-step protocol ------------------------------------------------
    def begin_step(self, buf: np.ndarray, step: int) -> None:
        self._buf = buf
        self._step = step
        self._counts = list(self._counts0)
        self._complete = [False] * self.plan.n_buckets
        self._seen = [False] * len(self._params)
        self._next = 0
        if self._overlap:
            with self._cv:
                self._done = 0

    def grad_ready(self, node) -> None:
        """Tape hook: ``node``'s gradient for this backward is final."""
        idx = self._id2idx.get(id(node))
        if idx is None or self._seen[idx]:
            return
        self._seen[idx] = True
        off, size, _ = self._layout[idx]
        self._buf[off:off + size] = node.grad.ravel()
        self._bucket_down(self.plan.param_bucket[idx])

    def finish_backward(self) -> None:
        """Zero-fill parameters backward never reached; flush their buckets."""
        for idx, seen in enumerate(self._seen):
            if not seen:
                off, size, _ = self._layout[idx]
                self._buf[off:off + size] = 0.0
                self._bucket_down(self.plan.param_bucket[idx])

    def wait_step(self) -> None:
        """Block until every bucket of the step is reduced into ``buf``."""
        self.steps += 1
        if not self._active:
            return
        if self._overlap:
            t0 = time.perf_counter()
            with self._cv:
                while self._done < self.plan.n_buckets and self._error is None:
                    self._cv.wait(timeout=1.0)
                err = self._error
            self.exposed_wait_s += time.perf_counter() - t0
            if err is not None:
                raise RuntimeError("ddp comm thread failed") from err
        else:
            for b in range(self.plan.n_buckets):
                dt = self._comm_bucket(b, self._buf, self._step)
                self.exposed_wait_s += dt
                self.comm_chain_s += dt

    def flush_inline(self, buf: np.ndarray, step: int) -> None:
        """One whole step synchronously (the ragged-tail step): every
        bucket shipped in order from ``buf``, no hooks involved."""
        self.steps += 1
        if not self._active:
            return
        for b in range(self.plan.n_buckets):
            dt = self._comm_bucket(b, buf, step)
            self.exposed_wait_s += dt
            self.comm_chain_s += dt

    def sharded_step(self, opt: Optimizer, step: int) -> float:
        """This rank's share of the optimizer step, then every rank's
        parameters; returns the step's averaged loss.

        Each owned chunk of the reduced sums is scaled by ``1/world`` and
        cast into the gradient arena (the float sequence ``buf *=
        1/world`` then ``scatter_grads`` applies), stepped, and
        overwritten with its new parameters.  After the parameter barrier
        the out slab holds every parameter and the summed loss.
        """
        t0 = time.perf_counter()
        red = self._reducer
        out = red.out_slab(step)
        inv_world = 1.0 / red.world
        for lo, hi in red.chunks:  # flat_views stops short of the loss slot
            for flo, fhi, _, grad in opt.flat_views(lo, hi):
                np.multiply(out[flo:fhi], inv_world, out=grad)
        opt.step_spans(red.chunks)
        for lo, hi in red.chunks:
            for flo, fhi, data, _ in opt.flat_views(lo, hi):
                out[flo:fhi] = data
        t1 = time.perf_counter()
        red.param_barrier(step)
        t2 = time.perf_counter()
        for flo, fhi, data, _ in opt.flat_views(0, out.size):
            data[...] = out[flo:fhi]
        self.param_wait_s += t2 - t1
        self.optim_s += (t1 - t0) + (time.perf_counter() - t2)
        return out[-1] * inv_world

    def stats(self, world: int, steps: int) -> Dict:
        total, exposed = self.total_comm_s, self.exposed_wait_s
        chain = self.comm_chain_s
        frac = 0.0 if chain <= 0 else min(1.0, max(0.0, 1.0 - exposed / chain))
        wire = self._reducer.wire_dtype if self._reducer is not None else "float64"
        return {
            "comm": "bucketed",
            "wire_dtype": wire,
            "overlap": bool(self._overlap),
            "n_buckets": self.plan.n_buckets,
            "steps": int(steps),
            "total_comm_s": float(total),
            "exposed_wait_s": float(exposed),
            "comm_chain_s": float(chain),
            "overlap_fraction": float(frac),
            "wire_bytes_per_step": int(world * self.plan.wire_bytes(wire)),
            "bucket_spans": [[int(lo), int(hi)] for lo, hi in self.plan.spans],
            "bucket_comm_s": [float(t) for t in self.bucket_comm_s],
            "optim_s": float(self.optim_s),
            "param_wait_s": float(self.param_wait_s),
        }

    def close(self) -> None:
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- internals --------------------------------------------------------
    def _bucket_down(self, b: int) -> None:
        self._counts[b] -= 1
        if self._counts[b] == 0:
            self._complete[b] = True
            if self._overlap:
                while self._next < self.plan.n_buckets and self._complete[self._next]:
                    if self._next == 0:
                        self._t_first = time.perf_counter()
                    self._queue.put((self._next, self._buf, self._step))
                    self._next += 1

    def _comm_bucket(self, b: int, buf: np.ndarray, step: int) -> float:
        t0 = time.perf_counter()
        self._reducer.allreduce_bucket(b, buf, step, stall_s=self._stalls[b])
        dt = time.perf_counter() - t0
        self.total_comm_s += dt
        self.bucket_comm_s[b] += dt
        return dt

    def _comm_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            b, buf, step = item
            try:
                self._comm_bucket(b, buf, step)
            except BaseException as e:  # surface into wait_step
                with self._cv:
                    self._error = e
                    self._cv.notify_all()
                return
            with self._cv:
                self._done += 1
                if self._done == self.plan.n_buckets:
                    self.comm_chain_s += time.perf_counter() - self._t_first
                self._cv.notify_all()


def _epoch_batches(x, y, perm, steps, batch, micro, ranks, hook):
    """Micro-batch assembly for one epoch, staging hook included.

    Yields one ``(xb, yb)`` per (step, rank) pair in deterministic
    order.  This generator is what ``prefetch=True`` overlaps with
    compute — the gather *and* the staging hook run on the producer
    thread while the consumer computes the previous step.
    """
    for step in range(steps):
        base = step * batch
        for rank in ranks:
            if hook is not None:
                hook(rank, step)
            idx = perm[base + rank * micro: base + (rank + 1) * micro]
            yield x[idx], (None if y is None else y[idx])


def _make_optimizer(spec: _TrainSpec, params) -> Optimizer:
    if spec.optimizer_factory is None:
        return Adam(params, lr=spec.lr)
    opt = spec.optimizer_factory(params)
    # Each rank steps only its own spans of the arena (step_spans); an
    # overridden step() would be bypassed without notice.
    if type(opt).step is not Optimizer.step:
        raise ValueError(f"{type(opt).__name__} overrides Optimizer.step; sharded data "
                         "parallelism needs an elementwise _update over the arena")
    # The flat gradient vector is the optimizer's arena: it must cover
    # exactly ``params``, in this order.
    if [id(p) for p in arena_order(opt.params)] != [id(p) for p in params]:
        raise ValueError("optimizer_factory must optimize every parameter it is given, in order")
    return opt


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _epoch_steps(spec: _TrainSpec) -> Tuple[int, int]:
    """(full steps per epoch, ragged-tail sample count or 0)."""
    steps = spec.n_samples // spec.batch_size
    tail = 0 if spec.drop_last else spec.n_samples - steps * spec.batch_size
    return steps, tail


def _tail_grads(model, loss_fn, opt, x, y, perm, steps, spec,
                rank, out_vec, hook) -> None:
    """One rank's share of the ragged tail batch, pre-weighted.

    The tail (``n_tail < batch_size`` samples) is split across ranks by
    :func:`chunk_bounds` — pad-free, so no fabricated samples touch the
    statistics.  Each rank scales its micro-batch-mean gradient (and
    loss) by ``n_r * world / n_tail`` before the allreduce; after the
    usual ``1/world`` the combined vector is exactly the sample-weighted
    tail-batch average ``sum_r (n_r / n_tail) * g_r``.  A rank whose
    share is empty skips compute and contributes zeros.  Every float in
    that sequence is identical across backends.
    """
    if hook is not None:
        hook(rank, steps)
    tail = spec.n_samples - steps * spec.batch_size
    lo, hi = chunk_bounds(tail, spec.world, rank)
    if hi > lo:
        idx = perm[steps * spec.batch_size + lo: steps * spec.batch_size + hi]
        _grads_into(model, loss_fn, opt, x[idx], None if y is None else y[idx], out_vec)
        out_vec *= (hi - lo) * spec.world / tail
    else:
        out_vec[:] = 0.0


def _monolithic_stats(world: int, total: int, steps: int, comm_s: float,
                      optim_s: float) -> Dict:
    """Comm report for the baseline engine: one bucket, fully exposed."""
    return {
        "comm": "monolithic",
        "wire_dtype": "float64",
        "overlap": False,
        "n_buckets": 1,
        "steps": int(steps),
        "total_comm_s": float(comm_s),
        "exposed_wait_s": float(comm_s),
        "comm_chain_s": float(comm_s),
        "overlap_fraction": 0.0,
        "wire_bytes_per_step": int(world * total * 8),
        "bucket_spans": [[0, int(total)]],
        "bucket_comm_s": [float(comm_s)],
        "optim_s": float(optim_s),
        "param_wait_s": 0.0,
    }


def _train_rank(model, x, y, spec: _TrainSpec, rank: int,
                reducer) -> Tuple[List[float], List[float], Optional[Dict]]:
    """The per-rank training loop (process backend).

    Returns (epoch mean losses, epoch wall times, comm stats).  The
    combined gradient is ``(sum over ranks in ascending order) *
    (1/world)`` — the exact float sequence the serial backend replays.
    The bucketed engine steps it sharded
    (:meth:`_GradBucketScheduler.sharded_step`); the monolithic one
    steps the whole vector on every rank.
    """
    params, layout, total = _param_layout(model.parameters())
    loss_fn = losses_mod.get(spec.loss) if isinstance(spec.loss, str) else spec.loss
    opt = _make_optimizer(spec, params)
    rng = _restore_rng(spec.rng_state)
    buf = np.empty(total, dtype=np.float64)
    micro = spec.batch_size // spec.world
    steps, tail = _epoch_steps(spec)
    inv_world = 1.0 / spec.world
    sched = None
    if spec.comm == "bucketed":
        sched = _GradBucketScheduler(
            reducer.plan, params, layout, reducer, spec.wire_dtype,
            overlap=spec.overlap, stall_s_per_mib=spec.comm_stall_s_per_mib,
        )
    mono_stall = spec.comm_stall_s_per_mib * total * 8 / 2**20
    mono_comm_s = mono_optim_s = 0.0

    def finish_step(step: int) -> float:
        """Reduce, step the optimizer; the step's averaged loss."""
        nonlocal mono_comm_s, mono_optim_s
        if sched is not None:
            return sched.sharded_step(opt, step)
        tc = time.perf_counter()
        reducer.allreduce(buf, stall_s=mono_stall)
        to = time.perf_counter()
        np.multiply(buf, inv_world, out=buf)
        _apply_combined(opt, buf)
        mono_comm_s += to - tc
        mono_optim_s += time.perf_counter() - to
        return buf[-1]

    step_no = 0
    epoch_losses: List[float] = []
    epoch_times: List[float] = []
    try:
        for _ in range(spec.epochs):
            t0 = time.perf_counter()
            perm = rng.permutation(spec.n_samples) if spec.shuffle else np.arange(spec.n_samples)
            batches = _epoch_batches(
                x, y, perm, steps, spec.batch_size, micro, (rank,), spec.pre_step_hook
            )
            if spec.prefetch:
                batches = iter(PrefetchLoader(batches))
            loss_sum = 0.0
            for xb, yb in batches:
                _grads_into(model, loss_fn, opt, xb, yb, buf, sched=sched, step=step_no)
                if sched is not None:
                    sched.wait_step()
                loss_sum += finish_step(step_no)
                step_no += 1
            if tail:
                _tail_grads(model, loss_fn, opt, x, y, perm, steps,
                            spec, rank, buf, spec.pre_step_hook)
                if sched is not None:
                    sched.flush_inline(buf, step_no)
                loss_sum += finish_step(step_no)
                step_no += 1
            epoch_losses.append(loss_sum / max(steps + (1 if tail else 0), 1))
            epoch_times.append(time.perf_counter() - t0)
    finally:
        if sched is not None:
            sched.close()
    if sched is not None:
        stats = sched.stats(spec.world, step_no)
    else:
        stats = _monolithic_stats(spec.world, total, step_no, mono_comm_s, mono_optim_s)
    return epoch_losses, epoch_times, stats


def _train_serial(model, x, y, spec: _TrainSpec) -> Tuple[List[float], List[float], Optional[Dict]]:
    """Single-process reference: same shards, same schedule, same codec.

    With ``comm="bucketed"`` every rank's backward runs through the same
    grad-ready bucket scheduler (packing per parameter as the tape
    finishes it) and ranks combine through
    :func:`reduce_ranks_bucketed` — the identical encode/decode and
    ascending accumulation the process engine performs on the slabs.
    """
    params, layout, total = _param_layout(model.parameters())
    loss_fn = losses_mod.get(spec.loss) if isinstance(spec.loss, str) else spec.loss
    opt = _make_optimizer(spec, params)
    rng = _restore_rng(spec.rng_state)
    world = spec.world
    rank_vecs = np.empty((world, total), dtype=np.float64)
    micro = spec.batch_size // world
    steps, tail = _epoch_steps(spec)
    inv_world = 1.0 / world
    sched = None
    spans = None
    if spec.comm == "bucketed":
        plan = plan_buckets([sz for _, sz, _ in layout], total, spec.bucket_bytes)
        sched = _GradBucketScheduler(plan, params, layout, None, spec.wire_dtype)
        spans = plan.spans

    def combine() -> np.ndarray:
        if spans is not None:
            return reduce_ranks_bucketed(list(rank_vecs), spans, spec.wire_dtype)
        return reduce_ranks(list(rank_vecs))

    step_no = 0
    epoch_losses: List[float] = []
    epoch_times: List[float] = []
    for _ in range(spec.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(spec.n_samples) if spec.shuffle else np.arange(spec.n_samples)
        batches = _epoch_batches(
            x, y, perm, steps, spec.batch_size, micro, range(world), spec.pre_step_hook
        )
        if spec.prefetch:
            batches = iter(PrefetchLoader(batches))
        loss_sum = 0.0
        for _step in range(steps):
            for r in range(world):
                xb, yb = next(batches)
                _grads_into(model, loss_fn, opt, xb, yb, rank_vecs[r],
                            sched=sched, step=step_no)
                if sched is not None:
                    sched.wait_step()
            combined = combine()
            combined *= inv_world
            _apply_combined(opt, combined)
            loss_sum += combined[-1]
            step_no += 1
        if tail:
            for r in range(world):
                _tail_grads(model, loss_fn, opt, x, y, perm, steps,
                            spec, r, rank_vecs[r], spec.pre_step_hook)
            combined = combine()
            combined *= inv_world
            _apply_combined(opt, combined)
            loss_sum += combined[-1]
            step_no += 1
        epoch_losses.append(loss_sum / max(steps + (1 if tail else 0), 1))
        epoch_times.append(time.perf_counter() - t0)
    return epoch_losses, epoch_times, None


def _rank_main(rank: int, spec: _TrainSpec, x_ref: SharedArrayRef,
               y_ref: Optional[SharedArrayRef], handle,
               result_q, env: Dict[str, str]) -> None:
    if env:
        os.environ.update(env)
    reducer = None
    x_att = y_att = None
    try:
        x_att = attach(x_ref)
        y_att = attach(y_ref) if y_ref is not None else None
        model = pickle.loads(spec.model_bytes)
        if isinstance(handle, BucketAllreduceHandle):
            reducer = BucketRankReducer(handle, rank)
        else:
            reducer = RankReducer(handle, rank)
        losses, times, stats = _train_rank(
            model, x_att.array, None if y_att is None else y_att.array,
            spec, rank, reducer,
        )
        payload = None
        if rank == 0:
            payload = (model.get_weights(), losses, times, stats)
        result_q.put(("done", rank, payload))
    except BaseException:
        result_q.put(("error", rank, traceback.format_exc()))
    finally:
        if reducer is not None:
            reducer.close()
        if x_att is not None:
            x_att.close()
        if y_att is not None:
            y_att.close()


def fit_data_parallel(
    model: Model,
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    *,
    world: int = 2,
    epochs: int = 5,
    batch_size: int = 32,
    loss="mse",
    lr: float = 1e-3,
    optimizer_factory: Optional[Callable] = None,
    seed: int = 0,
    shuffle: bool = True,
    backend: str = "process",
    start_method: Optional[str] = None,
    pre_step_hook: Optional[Callable[[int, int], None]] = None,
    prefetch: bool = False,
    env: Optional[Dict[str, str]] = None,
    timeout_s: float = 600.0,
    comm: str = "bucketed",
    wire_dtype: str = "float64",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    overlap: bool = True,
    comm_stall_s_per_mib: float = 0.0,
    drop_last: Optional[bool] = None,
) -> DataParallelResult:
    """Train ``model`` data-parallel on ``world`` ranks; weights land in
    ``model``.

    ``batch_size`` is the *global* batch and must be divisible by
    ``world``.  When it does not divide the dataset, ``drop_last``
    decides the ragged tail's fate: ``True`` drops it (every rank
    always holds an equal micro-batch), ``False`` trains on it as one
    extra sample-weighted step per epoch (pad-free: each rank takes its
    :func:`~repro.parallel.allreduce.chunk_bounds` share and pre-scales
    by ``n_r * world / n_tail``, so the averaged gradient is exact and
    deterministic).  The default ``None`` behaves like ``True`` but
    warns — the silent drop used to be an easy way to lose data.

    ``backend="process"`` runs real rank processes over the shared-
    memory data plane; ``backend="serial"`` executes the identical
    algorithm in-process.  Both produce bit-identical weights (the
    allreduce association order is pinned), which is the testable
    definition of "the parallel path does not change the numerics".

    ``comm``/``wire_dtype``/``bucket_bytes``/``overlap`` select the
    gradient-communication engine (see the module docstring);
    ``comm="monolithic"`` is the original single post-backward
    allreduce and supports only the ``float64`` wire.
    ``comm_stall_s_per_mib`` injects a measured comm-staging sleep per
    MiB of wire traffic on the process backend (timing only — numerics
    are unchanged, and the serial backend ignores it).

    ``optimizer_factory(params) -> Optimizer`` builds each rank's local
    optimizer (default: ``Adam(lr=lr)``); with ``start_method="spawn"``
    it, the loss callable, and ``pre_step_hook`` must be module-level
    picklables.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    if backend not in ("process", "serial"):
        raise ValueError(f"unknown backend {backend!r}")
    if comm not in ("bucketed", "monolithic"):
        raise ValueError(f"unknown comm {comm!r}; choose 'bucketed' or 'monolithic'")
    if wire_dtype not in WIRE_DTYPES:
        raise ValueError(f"unknown wire dtype {wire_dtype!r}; choose from {WIRE_DTYPES}")
    if comm == "monolithic" and wire_dtype != "float64":
        raise ValueError("comm='monolithic' supports only the float64 wire; "
                         "use comm='bucketed' for reduced-precision exchange")
    if batch_size % world != 0:
        raise ValueError(f"batch_size {batch_size} not divisible by world {world}")
    x = np.ascontiguousarray(x)
    y_arr = None if y is None else np.ascontiguousarray(y)
    n = len(x)
    if y_arr is not None and len(y_arr) != n:
        raise ValueError(f"x and y length mismatch: {n} vs {len(y_arr)}")
    steps = n // batch_size
    if steps < 1:
        raise ValueError(f"dataset ({n}) smaller than one global batch ({batch_size})")
    tail = n - steps * batch_size
    if tail and drop_last is None:
        warnings.warn(
            f"batch_size {batch_size} does not divide the dataset ({n}); "
            f"dropping the {tail}-sample ragged tail each epoch. Pass "
            f"drop_last=True to silence this, or drop_last=False to train "
            f"on the tail as a weighted step.",
            UserWarning, stacklevel=2,
        )
    drop_tail = True if drop_last is None else bool(drop_last)
    steps_per_epoch = steps + (1 if (tail and not drop_tail) else 0)

    rng = np.random.default_rng(seed)
    if not model.built:
        model.build(x.shape[1:], rng)
    _, layout, total = _param_layout(model.parameters())

    spec = _TrainSpec(
        model_bytes=pickle.dumps(model),
        rng_state=rng.bit_generator.state,
        world=world, epochs=epochs, batch_size=batch_size, loss=loss, lr=lr,
        optimizer_factory=optimizer_factory, shuffle=shuffle,
        pre_step_hook=pre_step_hook, prefetch=prefetch, n_samples=n,
        comm=comm, wire_dtype=wire_dtype, bucket_bytes=bucket_bytes,
        overlap=overlap, comm_stall_s_per_mib=comm_stall_s_per_mib,
        drop_last=drop_tail,
    )

    rec = get_recorder()
    span_id = None
    if rec is not None:
        span_id = rec.begin(
            "ddp_fit", kind="ddp.fit", world=world, backend=backend,
            epochs=epochs, steps_per_epoch=steps_per_epoch, batch_size=batch_size,
            comm=comm, wire_dtype=wire_dtype, overlap=bool(overlap),
            data_bytes=x.nbytes + (0 if y_arr is None else y_arr.nbytes),
        )

    t0 = time.perf_counter()
    try:
        if backend == "serial" or world == 1:
            # world==1 process mode would pay the data-plane setup for a
            # pool of one; run it in-process (identical numerics).
            losses, times, stats = _train_serial(model, x, y_arr, spec)
        else:
            losses, times, stats = _run_processes(
                model, x, y_arr, spec, layout, total, start_method, env, timeout_s
            )
        elapsed = time.perf_counter() - t0
    except BaseException:
        if rec is not None:
            rec.end(span_id, aborted=True)
        raise

    if rec is not None:
        for i, (dt, lv) in enumerate(zip(times, losses)):
            rec.add_complete("epoch", kind="ddp.epoch", dur_wall=dt, epoch=i, loss=lv)
        if stats is not None:
            itemsize = wire_itemsize(stats["wire_dtype"])
            for b, (span, comm_s) in enumerate(
                zip(stats["bucket_spans"], stats["bucket_comm_s"])
            ):
                rec.add_complete(
                    "bucket", kind="ddp.bucket", dur_wall=comm_s, bucket=b,
                    lo=span[0], hi=span[1], wire_dtype=stats["wire_dtype"],
                    wire_bytes_per_step=(span[1] - span[0]) * itemsize * world,
                )
            rec.add_complete("optim", kind="ddp.optim", dur_wall=stats["optim_s"],
                             param_wait_s=stats["param_wait_s"])
            rec.metrics.gauge("ddp.overlap_fraction").set(stats["overlap_fraction"])
        rec.end(span_id, elapsed_s=elapsed, final_loss=losses[-1])
    return DataParallelResult(
        world=world, backend=backend, epochs=epochs, steps_per_epoch=steps_per_epoch,
        elapsed_s=elapsed, epoch_losses=losses, epoch_times=times, comm_stats=stats,
    )


def _run_processes(model, x, y, spec: _TrainSpec, layout, vec_len: int,
                   start_method: Optional[str], env: Optional[Dict[str, str]],
                   timeout_s: float) -> Tuple[List[float], List[float], Optional[Dict]]:
    ctx = mp.get_context(start_method)
    env = DEFAULT_WORKER_ENV if env is None else env
    with SharedArrayStore(prefix="repro_ddp") as store:
        x_ref = store.publish("x", x)
        y_ref = store.publish("y", y) if y is not None else None
        if spec.comm == "bucketed":
            plan = plan_buckets([sz for _, sz, _ in layout], vec_len, spec.bucket_bytes)
            handle = create_bucketed_allreduce(
                store, ctx, spec.world, plan, spec.wire_dtype
            )
        else:
            handle = create_allreduce(store, ctx, spec.world, vec_len)
        result_q = ctx.Queue()
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            procs = [
                ctx.Process(
                    target=_rank_main,
                    args=(r, spec, x_ref, y_ref, handle, result_q, env),
                    daemon=True,
                )
                for r in range(spec.world)
            ]
            for p in procs:
                p.start()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        payload = None
        try:
            done = 0
            deadline = time.perf_counter() + timeout_s
            while done < spec.world:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"data-parallel ranks not done within {timeout_s}s")
                try:
                    status, rank, data = result_q.get(timeout=min(remaining, 1.0))
                except queue_mod.Empty:
                    if any(p.exitcode not in (None, 0) for p in procs):
                        raise RuntimeError(
                            "a data-parallel rank died: "
                            + str([p.exitcode for p in procs])
                        )
                    continue
                if status == "error":
                    raise RuntimeError(f"rank {rank} failed:\n{data}")
                done += 1
                if rank == 0:
                    payload = data
            for p in procs:
                p.join(timeout=5.0)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
    if payload is None:  # pragma: no cover - rank 0 always reports
        raise RuntimeError("rank 0 produced no result")
    weights, losses, times, stats = payload
    model.set_weights(weights)
    return losses, times, stats
