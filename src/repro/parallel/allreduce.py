"""Shared-memory allreduce with a fixed, deterministic reduction order.

The classic ring allreduce is a reduce-scatter (each rank ends up owning
the reduced value of one chunk) followed by an allgather (owners
broadcast their chunks).  On a shared-memory node the rings collapse to
slab reads: every rank writes its contribution into its own input slab,
then each rank *owns* one contiguous chunk of the vector and reduces
that chunk across all ranks — chunk reductions run in parallel, each
element is summed exactly once, and the allgather is a single shared
output slab everyone copies from.  Three barriers sequence the phases.

Determinism is the point: each chunk owner accumulates contributions in
**ascending rank order** (``((g0 + g1) + g2) + ...``), so the floating-
point association is fixed — independent of scheduling, and *identical
to the serial reference* :func:`reduce_ranks`, which sums the same way.
That is what makes process-parallel training bit-identical to the
single-process path (IEEE-754 addition is deterministic; only the
association order had to be pinned).

Two engines share that contract:

* :class:`RankReducer` — the monolithic 3-barrier allreduce (one slab,
  one call per step covering the whole gradient vector).
* :class:`BucketRankReducer` — the bucketed, double-buffered engine
  behind the sharded optimizer step: the vector is partitioned into
  size-targeted spans (:func:`plan_buckets`, reverse layout order so
  the spans match the order backward produces gradients), each bucket
  publishes through its own per-parity barrier and every rank reduces
  only the chunks it owns.  Gradients are never copied back: the owner
  updates its chunks' parameters and writes them over its reduced sums,
  and one per-step parameter barrier republishes the whole slab (one
  barrier per bucket plus one per step, instead of 3 per step).  The
  two slab generations alternate by step parity.
  Contributions cross the slab in a selectable **wire dtype**
  (``float64`` | ``float32`` | ``bf16`` stored as uint16); decoding is
  value-exact widening, and accumulation always runs in float64 in
  ascending rank order, so :func:`reduce_ranks_bucketed` — the serial
  reference applying the same encode/decode and the same schedule — is
  bit-identical at every wire precision.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .shm import AttachedArray, SharedArrayStore

#: Selectable wire formats for bucketed gradient exchange.  Encoding is
#: round-to-nearest-even narrowing; decoding is exact widening back to
#: float64, so the only precision loss is the publish-side rounding —
#: identical on every rank and in the serial reference.
WIRE_DTYPES = ("float64", "float32", "bf16")

_WIRE_STORAGE = {
    "float64": np.float64,
    "float32": np.float32,
    "bf16": np.uint16,  # bf16 payload carried as raw upper-half bits
}


def reduce_ranks(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Serial reference reduction: ascending-rank-order sum.

    Bit-identical to what :class:`RankReducer.allreduce` computes —
    element ``i`` is accumulated ``((v0[i] + v1[i]) + v2[i]) + ...`` in
    both — so a single process can replay a parallel run exactly.
    """
    if not vectors:
        raise ValueError("reduce_ranks needs at least one vector")
    acc = vectors[0].astype(np.float64, copy=True)
    for v in vectors[1:]:
        acc += v
    return acc


def chunk_bounds(n: int, world: int, rank: int) -> tuple:
    """[lo, hi) of the chunk ``rank`` owns; same split as np.array_split."""
    base, extra = divmod(n, world)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------
def wire_itemsize(wire_dtype: str) -> int:
    """Bytes per element the given wire format puts on the slab."""
    return np.dtype(_WIRE_STORAGE[_check_wire(wire_dtype)]).itemsize


def _check_wire(wire_dtype: str) -> str:
    if wire_dtype not in _WIRE_STORAGE:
        raise ValueError(f"unknown wire dtype {wire_dtype!r}; choose from {WIRE_DTYPES}")
    return wire_dtype


def encode_wire(src: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Narrow a float64 contribution into its wire storage, in ``out``.

    ``float32`` is the C cast (round-to-nearest-even); ``bf16`` rounds
    the float32 bit pattern to its upper 16 bits with the same RNE
    trick as :func:`repro.nn.amp.snap_bf16_` and stores them as uint16.
    Every rank (and the serial reference) runs this exact function, so
    the rounding it introduces is part of the pinned float sequence.
    """
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "float64":
        out[...] = src
    elif wire_dtype == "float32":
        out[...] = src.astype(np.float32)
    else:  # bf16
        bits = np.ascontiguousarray(src, dtype=np.float32).view(np.uint32)
        lsb = (bits >> 16) & np.uint32(1)
        bits += np.uint32(0x7FFF) + lsb
        out[...] = (bits >> 16).astype(np.uint16)


def decode_wire(src: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Widen wire storage back to float64 in ``out`` — exact, no rounding."""
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "bf16":
        out[...] = (src.astype(np.uint32) << np.uint32(16)).view(np.float32)
    else:
        out[...] = src


def accumulate_rows(rows: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Sum the (world, m) wire ``rows`` into float64 ``out``, ascending.

    The accumulation itself is ``np.add.reduce`` over the rank axis —
    a reduction over the *outer* (strided) axis of a C-order array,
    which NumPy performs as sequential row adds in index order (pairwise
    summation applies only to contiguous inner-axis reductions), i.e.
    the same ``((g0 + g1) + g2) + ...`` association as the explicit
    loop in :func:`reduce_ranks`.  ``tests/test_ddp_overlap.py`` pins
    that bit-parity as a regression gate.
    """
    if wire_dtype == "float64":
        np.add.reduce(rows, axis=0, out=out)
    else:
        dec = np.empty(rows.shape, dtype=np.float64)
        decode_wire(rows, wire_dtype, dec)
        np.add.reduce(dec, axis=0, out=out)


def reduce_ranks_bucketed(
    vectors: Sequence[np.ndarray],
    spans: Sequence[Tuple[int, int]],
    wire_dtype: str = "float64",
) -> np.ndarray:
    """Serial reference for the bucketed engine: same schedule, same codec.

    Each span is encoded to the wire format per rank, decoded back, and
    accumulated in ascending rank order — exactly the float sequence
    :class:`BucketRankReducer` produces, so a single process can replay
    a bucketed parallel run bit-for-bit.  With one rank the exchange is
    skipped entirely (both engines do), so no codec rounding applies.
    """
    if not vectors:
        raise ValueError("reduce_ranks_bucketed needs at least one vector")
    _check_wire(wire_dtype)
    if len(vectors) == 1:
        return vectors[0].astype(np.float64, copy=True)
    world = len(vectors)
    n = vectors[0].shape[0]
    if sum(hi - lo for lo, hi in spans) != n:
        raise ValueError("bucket spans must tile the whole vector")
    out = np.empty(n, dtype=np.float64)
    storage = _WIRE_STORAGE[wire_dtype]
    for lo, hi in spans:
        rows = np.empty((world, hi - lo), dtype=storage)
        for r, v in enumerate(vectors):
            encode_wire(v[lo:hi], wire_dtype, rows[r])
        accumulate_rows(rows, wire_dtype, out[lo:hi])
    return out


class AllreduceHandle:
    """Parent-built, rank-shipped state for one allreduce group.

    Carries the shared slab refs and the barrier.  Passable to
    ``Process(args=...)`` under both fork and spawn (multiprocessing
    synchronisation primitives pickle through process inheritance).
    """

    def __init__(self, world: int, n: int, in_ref, out_ref, barrier) -> None:
        self.world = world
        self.n = n
        self.in_ref = in_ref
        self.out_ref = out_ref
        self.barrier = barrier


def create_allreduce(store: SharedArrayStore, ctx, world: int, n: int) -> AllreduceHandle:
    """Allocate the slabs for a ``world``-rank group reducing ``n`` floats.

    ``store`` owns the segments (parent cleans up); ``ctx`` is the
    multiprocessing context whose Barrier the group synchronises on.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    store.allocate("allreduce_in", (world, n), np.float64)
    store.allocate("allreduce_out", (n,), np.float64)
    return AllreduceHandle(
        world, n, store.ref("allreduce_in"), store.ref("allreduce_out"),
        ctx.Barrier(world),
    )


class RankReducer:
    """Per-rank endpoint of the shared-memory allreduce.

    Built inside each rank process from the shipped handle.  One
    ``allreduce`` call per step; the result lands in place.
    """

    def __init__(self, handle: AllreduceHandle, rank: int) -> None:
        if not 0 <= rank < handle.world:
            raise ValueError(f"rank {rank} out of range for world {handle.world}")
        self.rank = rank
        self.world = handle.world
        self._barrier = handle.barrier
        self._in_att = AttachedArray(handle.in_ref)
        self._out_att = AttachedArray(handle.out_ref)
        self._in = self._in_att.array  # (world, n)
        self._out = self._out_att.array  # (n,)
        self._lo, self._hi = chunk_bounds(handle.n, handle.world, rank)

    def allreduce(self, vec: np.ndarray, stall_s: float = 0.0) -> None:
        """Sum ``vec`` across all ranks, in place, deterministic order.

        Phases (3 barriers): publish inputs -> owners reduce their chunk
        in ascending rank order -> everyone copies the full result out.
        The trailing barrier keeps a fast rank from republishing step
        ``t+1`` inputs while a slow rank still reads step ``t`` output.

        ``stall_s`` injects a wire-transfer stall *after* the publish
        barrier — the bandwidth term of the alpha-beta collective cost
        model, charged once all ranks have arrived (every rank sleeps it
        concurrently, so it adds ``stall_s`` of wall per call).  Timing
        only; numerics are unchanged.
        """
        if vec.shape != (self._in.shape[1],):
            raise ValueError(f"expected shape ({self._in.shape[1]},), got {vec.shape}")
        if self.world == 1:
            return
        self._in[self.rank, :] = vec
        self._barrier.wait()
        if stall_s > 0.0:
            time.sleep(stall_s)
        lo, hi = self._lo, self._hi
        if hi > lo:
            # One vectorized reduction over the rank axis; same ascending
            # association as the old explicit loop (see accumulate_rows).
            accumulate_rows(self._in[:, lo:hi], "float64", self._out[lo:hi])
        self._barrier.wait()
        vec[:] = self._out
        self._barrier.wait()

    def close(self) -> None:
        self._in = None  # type: ignore[assignment]
        self._out = None  # type: ignore[assignment]
        self._in_att.close()
        self._out_att.close()


# ----------------------------------------------------------------------
# Bucketed, double-buffered engine
# ----------------------------------------------------------------------
#: Default bucket size budget, in bytes of the *logical* float64 gradient
#: vector.  Bucketing on logical size (not wire size) keeps the schedule
#: identical across wire dtypes, so wire-format ablations compare the
#: same bucket structure.
DEFAULT_BUCKET_BYTES = 1 << 16


class BucketPlan:
    """How one flat gradient vector is partitioned into comm buckets.

    ``spans`` are contiguous ``[lo, hi)`` ranges in **schedule order** —
    bucket 0 covers the tail of the vector (the last parameters in
    layout order, whose gradients backward produces first, plus any
    trailing extra slots such as the DDP loss scalar) and later buckets
    walk toward the head.  ``param_bucket[i]`` is the bucket of the
    ``i``-th layout parameter.  Together they let a scheduler know, per
    parameter, which bucket to count down and, per bucket, which slice
    of the vector to ship.
    """

    def __init__(self, spans: List[Tuple[int, int]], param_bucket: List[int], n: int) -> None:
        self.spans = spans
        self.param_bucket = param_bucket
        self.n = n

    @property
    def n_buckets(self) -> int:
        return len(self.spans)

    def param_counts(self) -> List[int]:
        """Parameters per bucket (the scheduler's countdown seeds)."""
        counts = [0] * self.n_buckets
        for b in self.param_bucket:
            counts[b] += 1
        return counts

    def wire_bytes(self, wire_dtype: str) -> int:
        """Bytes one rank publishes per step at the given wire format."""
        return self.n * wire_itemsize(wire_dtype)


def plan_buckets(
    sizes: Sequence[int],
    total: int,
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> BucketPlan:
    """Partition a flat vector of ``total`` float64 slots into buckets.

    ``sizes`` are the per-parameter element counts in layout order
    (their offsets are the running prefix sums); slots past the last
    parameter (e.g. the loss scalar the DDP layout appends) ride in
    bucket 0.  Parameters are walked in *reverse* layout order —
    matching the order backward finishes them — and greedily grouped
    until a bucket reaches ``bucket_bytes`` of float64 payload.  A
    parameter is never split, so every bucket is one contiguous span.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if sum(sizes) > total:
        raise ValueError("parameter sizes exceed the vector length")
    if bucket_bytes < 8:
        raise ValueError("bucket_bytes must be at least one float64")
    offsets = []
    off = 0
    for s in sizes:
        offsets.append(off)
        off += s
    budget = bucket_bytes // 8
    spans: List[Tuple[int, int]] = []
    param_bucket = [0] * len(sizes)
    hi = total  # current bucket's open upper edge
    elems = total - off  # trailing extra slots seed bucket 0
    for i in reversed(range(len(sizes))):
        param_bucket[i] = len(spans)
        elems += sizes[i]
        if elems >= budget and i > 0:
            spans.append((offsets[i], hi))
            hi = offsets[i]
            elems = 0
    if hi > 0 or not spans:
        spans.append((0, hi))
    return BucketPlan(spans, param_bucket, total)


class BucketAllreduceHandle:
    """Parent-built, rank-shipped state for one bucketed allreduce group.

    Two slab generations (index = step parity) and, per generation, a
    publish barrier per bucket and one parameter barrier.  Like
    :class:`AllreduceHandle` it pickles through process inheritance.
    """

    def __init__(self, world: int, plan: BucketPlan, wire_dtype: str,
                 in_refs, out_refs, barriers, param_barriers) -> None:
        self.world = world
        self.plan = plan
        self.wire_dtype = wire_dtype
        self.in_refs = in_refs    # [parity] -> (world, n) wire-storage slab
        self.out_refs = out_refs  # [parity] -> (n,) float64 slab
        self.barriers = barriers  # [parity][bucket] -> publish barrier
        self.param_barriers = param_barriers  # [parity] -> parameter barrier


def create_bucketed_allreduce(
    store: SharedArrayStore,
    ctx,
    world: int,
    plan: BucketPlan,
    wire_dtype: str = "float64",
) -> BucketAllreduceHandle:
    """Allocate double-buffered slabs, per-(parity, bucket) publish
    barriers and per-parity parameter barriers."""
    if world < 1:
        raise ValueError("world must be >= 1")
    _check_wire(wire_dtype)
    storage = _WIRE_STORAGE[wire_dtype]
    in_refs, out_refs = [], []
    for parity in (0, 1):
        store.allocate(f"bucket_in{parity}", (world, plan.n), storage)
        store.allocate(f"bucket_out{parity}", (plan.n,), np.float64)
        in_refs.append(store.ref(f"bucket_in{parity}"))
        out_refs.append(store.ref(f"bucket_out{parity}"))
    barriers = [[ctx.Barrier(world) for _ in plan.spans] for _ in (0, 1)]
    param_barriers = [ctx.Barrier(world) for _ in (0, 1)]
    return BucketAllreduceHandle(world, plan, wire_dtype, in_refs, out_refs,
                                 barriers, param_barriers)


class BucketRankReducer:
    """Per-rank endpoint of the bucketed, double-buffered allreduce.

    One step at global index ``step`` (its parity selects the slab
    generation) runs in three phases:

    1. ``allreduce_bucket(bucket, vec, step)`` per bucket, in schedule
       order: publish the bucket's slice of ``vec``, wait on the
       bucket's publish barrier, and sum the rank's own chunk
       (:attr:`chunks`) into the out slab.  ``vec`` is left untouched.
    2. The rank reads its reduced chunks from :meth:`out_slab` and
       overwrites them with its updated parameters; no other rank reads
       or writes those elements in this phase.
    3. :meth:`param_barrier` — after it, every element of the out slab
       holds a parameter (or the reduced loss slot) and each rank copies
       the whole slab out.

    Reusing a generation at step ``t+2`` is safe by program order.  A
    rank writes the step-``t+2`` slabs (its input row on publish, its
    chunks' sums after the publish barrier) only after passing step
    ``t+1``'s parameter barrier.  Every rank arrives there only after
    finishing step ``t`` completely: its chunk reductions (which read
    the step-``t`` input slab) come before step ``t``'s parameter
    barrier, and its copy out of the step-``t`` out slab comes right
    after it, before any step-``t+1`` work.  There is no per-bucket
    "reduced" barrier and no gradient copy-back: with one, a rank
    publishing parameters into its chunks would race a peer still
    copying the reduced gradients out of the same slab.
    """

    def __init__(self, handle: BucketAllreduceHandle, rank: int) -> None:
        if not 0 <= rank < handle.world:
            raise ValueError(f"rank {rank} out of range for world {handle.world}")
        self.rank = rank
        self.world = handle.world
        self.plan = handle.plan
        self.wire_dtype = handle.wire_dtype
        self._barriers = handle.barriers
        self._param_barriers = handle.param_barriers
        self._in_atts = [AttachedArray(r) for r in handle.in_refs]
        self._out_atts = [AttachedArray(r) for r in handle.out_refs]
        self._ins = [a.array for a in self._in_atts]    # (world, n) wire storage
        self._outs = [a.array for a in self._out_atts]  # (n,) float64
        # Chunk ownership is per bucket: each bucket's span is split
        # across ranks so its reduction parallelises like the monolithic
        # engine's.
        self.chunks = [
            (lo + cl, lo + ch)
            for (lo, hi) in self.plan.spans
            for (cl, ch) in (chunk_bounds(hi - lo, self.world, rank),)
        ]

    def allreduce_bucket(self, bucket: int, vec: np.ndarray, step: int,
                         stall_s: float = 0.0) -> None:
        """Publish one bucket's slice of ``vec``; sum this rank's chunk of
        it across ranks into the step's out slab.

        ``stall_s`` is the post-publish wire-transfer stall (see
        :meth:`RankReducer.allreduce`) for this bucket's bytes.
        """
        if self.world == 1:
            return
        parity = step & 1
        lo, hi = self.plan.spans[bucket]
        in_slab = self._ins[parity]
        encode_wire(vec[lo:hi], self.wire_dtype, in_slab[self.rank, lo:hi])
        self._barriers[parity][bucket].wait()
        if stall_s > 0.0:
            time.sleep(stall_s)
        clo, chi = self.chunks[bucket]
        if chi > clo:
            accumulate_rows(in_slab[:, clo:chi], self.wire_dtype, self._outs[parity][clo:chi])

    def out_slab(self, step: int) -> np.ndarray:
        """Step ``step``'s float64 out slab (see the class docstring)."""
        return self._outs[step & 1]

    def param_barrier(self, step: int) -> None:
        """Wait until every rank has written its chunks of step
        ``step``'s out slab."""
        self._param_barriers[step & 1].wait()

    def close(self) -> None:
        self._ins = []
        self._outs = []
        for a in self._in_atts + self._out_atts:
            a.close()
