"""Real multi-core execution engine.

Everything else under :mod:`repro.hpc`/:mod:`repro.hpo` models or
simulates parallelism; this package actually uses the cores.  Four
layers, bottom-up:

* :mod:`repro.parallel.shm` — shared-memory data plane: publish dataset
  arrays once, workers attach zero-copy (:class:`SharedArrayStore`,
  :func:`attach`).
* :mod:`repro.parallel.pool` — persistent fork/spawn-safe process
  worker pool with a pickle-light task protocol and died-worker
  respawn (:class:`ProcessWorkerPool`).
* :mod:`repro.parallel.allreduce` — deterministic shared-memory
  reduce-scatter/allgather allreduce whose fixed rank-order association
  makes parallel training bit-identical to the serial reference
  (:class:`RankReducer`, :func:`reduce_ranks`), plus the bucketed
  double-buffered variant with selectable wire precision that backs
  overlapped DDP and its sharded optimizer step
  (:class:`BucketRankReducer`, :func:`plan_buckets`,
  :func:`reduce_ranks_bucketed`, ``wire_dtype in WIRE_DTYPES``).
* :mod:`repro.parallel.ddp` / :mod:`repro.parallel.executor` — the two
  user-facing drivers: :func:`fit_data_parallel` (real data-parallel
  training) and :class:`ParallelTrialExecutor` (real-clock HPO via
  ``run_parallel(..., executor=...)``).

:class:`PrefetchLoader` (background-thread double buffering) overlaps
batch assembly/staging with compute and is usable standalone or via
``Model.fit(..., prefetch=True)``.

Measured by ``benchmarks/bench_parallel.py`` (speedup + parity gates,
``BENCH_parallel.json``); see the README "Parallel execution" section.
"""

from .allreduce import (
    DEFAULT_BUCKET_BYTES,
    WIRE_DTYPES,
    BucketPlan,
    BucketRankReducer,
    RankReducer,
    accumulate_rows,
    chunk_bounds,
    create_allreduce,
    create_bucketed_allreduce,
    decode_wire,
    encode_wire,
    plan_buckets,
    reduce_ranks,
    reduce_ranks_bucketed,
    wire_itemsize,
)
from .ddp import DataParallelResult, fit_data_parallel
from .executor import ParallelTrialExecutor, bind_worker_data, worker_data
from .pool import DEFAULT_WORKER_ENV, ProcessWorkerPool, TaskResult, echo_task
from .prefetch import PrefetchLoader
from .shm import AttachedArray, SharedArrayRef, SharedArrayStore, attach

__all__ = [
    "SharedArrayStore", "SharedArrayRef", "AttachedArray", "attach",
    "ProcessWorkerPool", "TaskResult", "DEFAULT_WORKER_ENV", "echo_task",
    "RankReducer", "reduce_ranks", "create_allreduce", "chunk_bounds",
    "BucketPlan", "BucketRankReducer", "plan_buckets",
    "create_bucketed_allreduce", "reduce_ranks_bucketed", "accumulate_rows",
    "encode_wire", "decode_wire", "wire_itemsize",
    "WIRE_DTYPES", "DEFAULT_BUCKET_BYTES",
    "fit_data_parallel", "DataParallelResult",
    "ParallelTrialExecutor", "worker_data", "bind_worker_data",
    "PrefetchLoader",
]
