"""Repository benchmark: stall-free train / serve / search workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""

# BLAS/OpenMP pins for the driving process and every process it starts:
# one thread each, so ranks, replicas and workers never oversubscribe the
# cores and float64 results reproduce bit for bit.  They must be in the
# environment before NumPy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
