"""Overlapped bucketed DDP: wire codecs, bucket planning, the
grad-ready tape hook, and end-to-end engine parity.

The contract under test is the one ``benchmarks/bench_ddp_overlap.py``
gates at scale: every (backend, comm engine, wire dtype) combination
must be **bit-identical** to its serial same-schedule reference —
overlap is purely a scheduling change, the wire codec is a pinned
float sequence, and the ragged-tail handling is explicit rather than
silent.
"""

import functools
import warnings

import numpy as np
import pytest

from repro.nn import SGD, AdaGrad, Adam, Dense, RMSProp, Sequential
from repro.obs import TraceRecorder
from repro.parallel import (
    accumulate_rows,
    chunk_bounds,
    decode_wire,
    encode_wire,
    fit_data_parallel,
    plan_buckets,
    reduce_ranks,
    reduce_ranks_bucketed,
    wire_itemsize,
)

WIRE_DTYPES = ("float64", "float32", "bf16")


def make_regression(n=96, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = (x @ w).reshape(-1, 1) + 0.1 * rng.standard_normal((n, 1))
    return x, y


def make_net(width=8, depth=2):
    return Sequential([Dense(width, activation="tanh")
                       for _ in range(depth)] + [Dense(1)])


def make_bottleneck_net():
    """On 1-feature inputs, parameter sizes 1, 1, 32, 32, 32, 1: at
    ``bucket_bytes=256`` (32 float64 slots) the plan ends in a 2-element
    head bucket, of which a third rank owns an empty chunk."""
    return Sequential([Dense(1, activation="tanh"), Dense(32, activation="tanh"), Dense(1)])


# Module-level partials, so they also pickle under spawn.
OPTIMIZER_FACTORIES = {
    "sgd-momentum": functools.partial(SGD, lr=0.05, momentum=0.9),
    "sgd-nesterov": functools.partial(SGD, lr=0.05, momentum=0.9, nesterov=True),
    "rmsprop": functools.partial(RMSProp, lr=0.01),
    "adagrad": functools.partial(AdaGrad, lr=0.05),
    "adam-wd": functools.partial(Adam, lr=0.01, weight_decay=0.01),
}


class _StepOverride(SGD):
    def step(self) -> None:
        super().step()


def weights_diff(a, b):
    wa, wb = a.get_weights(), b.get_weights()
    assert len(wa) == len(wb)
    return max(float(np.abs(p - q).max()) for p, q in zip(wa, wb))


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_itemsizes(self):
        assert wire_itemsize("float64") == 8
        assert wire_itemsize("float32") == 4
        assert wire_itemsize("bf16") == 2

    def test_unknown_wire_dtype_rejected(self):
        with pytest.raises(ValueError, match="wire dtype"):
            wire_itemsize("float16")

    def test_f64_roundtrip_is_identity(self):
        rng = np.random.default_rng(0)
        src = rng.standard_normal(257)
        wire = np.empty(257, dtype=np.float64)
        out = np.empty(257, dtype=np.float64)
        encode_wire(src, "float64", wire)
        decode_wire(wire, "float64", out)
        assert np.array_equal(out, src)

    def test_f32_encode_is_c_cast_and_decode_exact(self):
        rng = np.random.default_rng(1)
        src = rng.standard_normal(513)
        wire = np.empty(513, dtype=np.float32)
        out = np.empty(513, dtype=np.float64)
        encode_wire(src, "float32", wire)
        assert np.array_equal(wire, src.astype(np.float32))
        decode_wire(wire, "float32", out)
        # Widening a float32 to float64 is exact.
        assert np.array_equal(out, src.astype(np.float32).astype(np.float64))

    def test_bf16_rounds_to_nearest_even(self):
        # bf16 keeps 7 mantissa bits, so values near 1.0 are spaced
        # 2^-7 apart; 1.0 + 2^-8 is exactly halfway between 1.0 and
        # 1.0 + 2^-7 and RNE picks the even mantissa: 1.0.
        src = np.array([1.0, 1.0 + 2.0 ** -8, 1.0 + 2.0 ** -7, -2.5])
        wire = np.empty(4, dtype=np.uint16)
        out = np.empty(4, dtype=np.float64)
        encode_wire(src, "bf16", wire)
        decode_wire(wire, "bf16", out)
        assert out[0] == 1.0
        assert out[1] == 1.0  # halfway -> even
        assert out[2] == 1.0 + 2.0 ** -7  # representable, survives
        assert out[3] == -2.5  # exact in bf16

    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_decode_is_exact_widening(self, wd):
        rng = np.random.default_rng(2)
        src = rng.standard_normal(100)
        storage = {"float64": np.float64, "float32": np.float32,
                   "bf16": np.uint16}[wd]
        wire = np.empty(100, dtype=storage)
        encode_wire(src, wd, wire)
        once = np.empty(100, dtype=np.float64)
        decode_wire(wire, wd, once)
        # Re-encoding a decoded value must be a fixed point: decode is
        # exact, so no further rounding can occur.
        wire2 = np.empty(100, dtype=storage)
        encode_wire(once, wd, wire2)
        assert np.array_equal(wire, wire2)


# ----------------------------------------------------------------------
# accumulate_rows — the vectorized rank reduction (satellite regression)
# ----------------------------------------------------------------------
class TestAccumulateRows:
    @pytest.mark.parametrize("world", [2, 3, 5])
    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_bit_parity_with_explicit_rank_loop(self, world, wd):
        """``np.add.reduce`` over the rank axis must reproduce the
        explicit ascending ``((g0 + g1) + g2) + ...`` loop bit-for-bit
        — the association the serial reference and every prior artifact
        pinned."""
        rng = np.random.default_rng(world)
        src = rng.standard_normal((world, 301))
        storage = {"float64": np.float64, "float32": np.float32,
                   "bf16": np.uint16}[wd]
        rows = np.empty((world, 301), dtype=storage)
        for r in range(world):
            encode_wire(src[r], wd, rows[r])

        got = np.empty(301, dtype=np.float64)
        accumulate_rows(rows, wd, got)

        dec = np.empty((world, 301), dtype=np.float64)
        decode_wire(rows, wd, dec)
        want = dec[0].copy()
        for r in range(1, world):
            want = want + dec[r]
        assert np.array_equal(got, want)

    def test_matches_reduce_ranks_on_f64(self):
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(64) for _ in range(4)]
        got = np.empty(64, dtype=np.float64)
        accumulate_rows(np.stack(vecs), "float64", got)
        assert np.array_equal(got, reduce_ranks(vecs))


# ----------------------------------------------------------------------
# Bucket planning
# ----------------------------------------------------------------------
class TestPlanBuckets:
    def test_spans_tile_vector_in_reverse_order(self):
        sizes = [40, 4, 40, 4, 40, 4]
        plan = plan_buckets(sizes, total=sum(sizes) + 1, bucket_bytes=44 * 8)
        # Schedule order: bucket 0 is the tail span, later buckets walk
        # toward offset 0; together they tile [0, total).
        assert plan.spans[0][1] == plan.n
        assert plan.spans[-1][0] == 0
        covered = sorted(plan.spans)
        assert covered[0][0] == 0 and covered[-1][1] == plan.n
        for (_, hi), (lo2, _) in zip(covered, covered[1:]):
            assert hi == lo2

    def test_trailing_extra_slots_ride_in_bucket_zero(self):
        plan = plan_buckets([10, 10], total=21, bucket_bytes=10 * 8)
        lo, hi = plan.spans[0]
        assert hi == 21  # the +1 loss slot lives in the first-shipped bucket
        assert plan.param_bucket[-1] == 0

    def test_param_bucket_consistent_with_spans(self):
        sizes = [32, 4, 32, 4, 32, 4]
        plan = plan_buckets(sizes, total=sum(sizes), bucket_bytes=300)
        offsets = np.cumsum([0] + sizes[:-1])
        for i, (off, size) in enumerate(zip(offsets, sizes)):
            lo, hi = plan.spans[plan.param_bucket[i]]
            # A parameter is never split across buckets.
            assert lo <= off and off + size <= hi

    def test_never_splits_a_parameter(self):
        # One huge parameter degenerates to a single bucket even when it
        # exceeds the target several times over.
        plan = plan_buckets([1000], total=1000, bucket_bytes=64)
        assert plan.n_buckets == 1
        assert plan.spans == [(0, 1000)]

    def test_param_counts_seed_countdowns(self):
        sizes = [16, 2, 16, 2]
        plan = plan_buckets(sizes, total=sum(sizes), bucket_bytes=18 * 8)
        counts = plan.param_counts()
        assert sum(counts) == len(sizes)
        assert len(counts) == plan.n_buckets

    def test_wire_bytes_scale_with_itemsize(self):
        plan = plan_buckets([10, 10], total=20, bucket_bytes=80)
        assert plan.wire_bytes("float64") == 160
        assert plan.wire_bytes("float32") == 80
        assert plan.wire_bytes("bf16") == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_buckets([4], total=0)
        with pytest.raises(ValueError):
            plan_buckets([4, 4], total=7)
        with pytest.raises(ValueError):
            plan_buckets([4], total=4, bucket_bytes=4)


# ----------------------------------------------------------------------
# The grad-ready tape hook
# ----------------------------------------------------------------------
class TestGradReadyHook:
    def test_fires_in_backward_completion_order(self):
        """Backward finishes the *last* layer's parameters first; the
        hook must fire in that order (not graph-build or topo-pop
        order), interleaved through the walk — that is what lets early
        buckets ship while the rest of backward still runs."""
        from repro.nn.losses import mse

        net = make_net(width=6, depth=3)
        x, y = make_regression(n=8)
        rng = np.random.default_rng(0)
        net.build(x.shape[1:], rng)
        params = list(net.parameters())
        order = []
        loss = mse(net(x, training=True), y)
        loss.backward(grad_ready_hook=lambda t: order.append(id(t)))

        hooked = [pid for pid in order if pid in {id(p) for p in params}]
        assert len(hooked) == len(params), "every param must fire exactly once"
        # Params in layout order, so backward-completion order is the
        # reverse pairwise: the final Dense(1) layer's params come first.
        by_layout = [id(p) for p in params]
        n_last = 2  # W, b of the output layer
        assert set(hooked[:n_last]) == set(by_layout[-n_last:])
        assert set(hooked[-n_last:]) == set(by_layout[:n_last])

    def test_hook_grads_are_final_at_fire_time(self):
        from repro.nn.losses import mse

        net = make_net(width=5, depth=2)
        x, y = make_regression(n=8, seed=3)
        net.build(x.shape[1:], np.random.default_rng(1))
        params = list(net.parameters())
        snap = {}
        loss = mse(net(x, training=True), y)
        loss.backward(
            grad_ready_hook=lambda t: snap.setdefault(id(t), t.grad.copy()))
        for p in params:
            assert np.array_equal(snap[id(p)], p.grad)


# ----------------------------------------------------------------------
# End-to-end engine parity
# ----------------------------------------------------------------------
class TestBucketedEngineParity:
    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_process_bit_identical_to_serial(self, wd):
        x, y = make_regression()
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=2, batch_size=16, seed=4,
                      comm="bucketed", wire_dtype=wd, bucket_bytes=256)
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_overlap_is_pure_scheduling(self):
        x, y = make_regression()
        m_on, m_off = make_net(), make_net()
        common = dict(world=2, epochs=2, batch_size=16, seed=4,
                      backend="process", comm="bucketed", bucket_bytes=256)
        fit_data_parallel(m_on, x, y, overlap=True, **common)
        fit_data_parallel(m_off, x, y, overlap=False, **common)
        assert weights_diff(m_on, m_off) == 0.0

    def test_bucketed_f64_matches_monolithic(self):
        # On the f64 wire the codec is the identity and the bucketed
        # accumulation is span-by-span in the same ascending rank order,
        # so the engines agree bit-for-bit.
        x, y = make_regression()
        m_b, m_m = make_net(), make_net()
        common = dict(world=2, epochs=2, batch_size=16, seed=4,
                      backend="serial")
        fit_data_parallel(m_b, x, y, comm="bucketed", bucket_bytes=256,
                          **common)
        fit_data_parallel(m_m, x, y, comm="monolithic", **common)
        assert weights_diff(m_b, m_m) == 0.0

    def test_serial_reference_replays_process_run(self):
        # reduce_ranks_bucketed is the spec: hand it per-rank grads and
        # the bucket spans and it must reproduce the engine's sums.
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(41) for _ in range(3)]
        plan = plan_buckets([20, 20], total=41, bucket_bytes=160)
        for wd in WIRE_DTYPES:
            got = reduce_ranks_bucketed(vecs, plan.spans, wire_dtype=wd)
            want = np.empty(41, dtype=np.float64)
            storage = {"float64": np.float64, "float32": np.float32,
                       "bf16": np.uint16}[wd]
            for lo, hi in plan.spans:
                rows = np.empty((3, hi - lo), dtype=storage)
                for r, v in enumerate(vecs):
                    encode_wire(v[lo:hi], wd, rows[r])
                accumulate_rows(rows, wd, want[lo:hi])
            assert np.array_equal(got, want)

    def test_monolithic_requires_f64_wire(self):
        x, y = make_regression()
        with pytest.raises(ValueError, match="monolithic"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial",
                              comm="monolithic", wire_dtype="float32")

    def test_bad_comm_and_wire_dtype_rejected(self):
        x, y = make_regression()
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", comm="nccl")
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial",
                              comm="bucketed", wire_dtype="float16")

    def test_comm_stats_report(self):
        x, y = make_regression()
        m = make_net()
        res = fit_data_parallel(m, x, y, world=2, epochs=1, batch_size=16,
                                backend="process", seed=4, comm="bucketed",
                                bucket_bytes=256, wire_dtype="float32")
        stats = res.comm_stats
        assert stats["comm"] == "bucketed"
        assert stats["wire_dtype"] == "float32"
        assert stats["n_buckets"] == len(stats["bucket_spans"])
        n = stats["bucket_spans"][0][1]  # bucket 0 covers the tail
        assert stats["wire_bytes_per_step"] == 2 * n * 4
        assert 0.0 <= stats["overlap_fraction"] <= 1.0
        assert stats["optim_s"] >= 0.0
        assert stats["param_wait_s"] >= 0.0


# ----------------------------------------------------------------------
# Sharded optimizer step
# ----------------------------------------------------------------------
class TestShardedStepParity:
    """Each process rank steps only the chunks it reduces and republishes
    parameters; the serial backend steps the whole averaged vector.  The
    two must agree bit for bit for every optimizer, wire and chunking."""

    def test_plan_has_uneven_and_empty_chunks(self):
        net = make_bottleneck_net()
        net.build((1,), np.random.default_rng(0))
        sizes = [p.data.size for p in net.parameters()]
        plan = plan_buckets(sizes, total=sum(sizes) + 1, bucket_bytes=256)
        lens = [hi - lo for blo, bhi in plan.spans
                for lo, hi in (chunk_bounds(bhi - blo, 3, r) for r in range(3))]
        assert 0 in lens
        assert len(set(lens) - {0}) > 1

    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    @pytest.mark.parametrize("name", sorted(OPTIMIZER_FACTORIES))
    def test_world3_ragged_tail_bit_identical_to_serial(self, name, wd):
        # 98 samples at batch 24: 4 full steps and a 2-sample tail, which
        # leaves the third rank's tail share empty too.
        x, y = make_regression(n=98, d=1)
        m_proc, m_ser = make_bottleneck_net(), make_bottleneck_net()
        kwargs = dict(world=3, epochs=2, batch_size=24, seed=4, drop_last=False,
                      bucket_bytes=256, wire_dtype=wd,
                      optimizer_factory=OPTIMIZER_FACTORIES[name])
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert r_proc.steps_per_epoch == 5
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_spawn_bit_identical_to_serial(self):
        x, y = make_regression()
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=1, batch_size=16, seed=4, bucket_bytes=256,
                      optimizer_factory=OPTIMIZER_FACTORIES["adam-wd"])
        r_proc = fit_data_parallel(m_proc, x, y, backend="process",
                                   start_method="spawn", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_optimizer_overriding_step_rejected(self):
        x, y = make_regression()
        with pytest.raises(ValueError, match="overrides Optimizer.step"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1, batch_size=16,
                              backend="serial", optimizer_factory=_StepOverride)


# ----------------------------------------------------------------------
# Ragged tail (drop_last)
# ----------------------------------------------------------------------
class TestRaggedTail:
    def test_silent_drop_now_warns(self):
        # 100 samples, world 2, batch 16: 4 even steps leave a 36-sample
        # tail that the old engine silently discarded.
        x, y = make_regression(n=100)
        with pytest.warns(UserWarning, match="ragged tail"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", seed=4)

    def test_explicit_drop_matches_default(self):
        x, y = make_regression(n=100)
        m_default, m_true = make_net(), make_net()
        common = dict(world=2, epochs=2, batch_size=16, seed=4,
                      backend="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_data_parallel(m_default, x, y, **common)
        fit_data_parallel(m_true, x, y, drop_last=True, **common)
        assert weights_diff(m_default, m_true) == 0.0

    def test_tail_step_runs_when_kept(self):
        x, y = make_regression(n=100)
        r_drop = fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                                   batch_size=16, backend="serial", seed=4,
                                   drop_last=True)
        r_keep = fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                                   batch_size=16, backend="serial", seed=4,
                                   drop_last=False)
        assert r_keep.steps == r_drop.steps + 1

    def test_keep_tail_process_bit_identical_to_serial(self):
        x, y = make_regression(n=100)
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=2, batch_size=16, seed=4,
                      drop_last=False, comm="bucketed", bucket_bytes=256)
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_keep_tail_monolithic_parity(self):
        x, y = make_regression(n=100)
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=1, batch_size=16, seed=4,
                      drop_last=False, comm="monolithic")
        fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0

    def test_no_warning_when_divisible(self):
        x, y = make_regression(n=96)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", seed=4)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestOverlapObs:
    def test_bucket_spans_and_overlap_gauge_recorded(self):
        x, y = make_regression()
        rec = TraceRecorder()
        with rec:
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="process", seed=4,
                              comm="bucketed", bucket_bytes=256)
        names = {r["name"] for r in rec.metrics.snapshot()}
        assert "ddp.overlap_fraction" in names
        assert rec.spans(kind="ddp.bucket"), "per-bucket spans must be recorded"
        (optim,) = rec.spans(kind="ddp.optim")
        assert optim["dur_wall"] >= 0.0 and optim["attrs"]["param_wait_s"] >= 0.0
