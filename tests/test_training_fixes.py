"""Regression tests for the training-loop correctness fixes.

* Gradient accumulation: the trailing partial window must average over
  its *actual* length, so accumulated gradients match the equivalent
  full-batch gradient (the bug silently down-weighted tail batches).
* ``predict`` / ``evaluate`` on zero-length inputs.
* ``ScheduledOptimizer`` state transparency (``step_count`` passthrough
  and checkpoint round-trip through the wrapper).
"""

import numpy as np
import pytest

from repro.candle.registry import get_benchmark
from repro.nn import Dense, Sequential
from repro.nn import losses as losses_mod
from repro.nn.optim import SGD, Adam
from repro.nn.schedules import Constant, ScheduledOptimizer, StepDecay
from repro.nn.serialization import (
    load_checkpoint,
    save_checkpoint,
    unwrap_optimizer,
)
from repro.nn.tensor import Tensor


def _make_model(seed: int = 7) -> Sequential:
    model = Sequential([Dense(3, activation="tanh"), Dense(1)])
    model.build((4,), np.random.default_rng(seed))
    return model


class _SpySGD(SGD):
    """Records a copy of every parameter gradient at each step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded = []

    def step(self):
        self.recorded.append([p.grad.copy() for p in self.params])
        super().step()


def _full_batch_grads(model, x, y, loss="mse"):
    """Reference gradient of the mean loss over the whole dataset."""
    for p in model.parameters():
        p.grad = None
    pred = model.forward(Tensor(x), training=True)
    losses_mod.get(loss)(pred, y).backward()
    return [p.grad.copy() for p in model.parameters()]


class TestGradAccumulationTrailingWindow:
    def test_single_trailing_window_matches_full_batch(self):
        # 10 samples / batch 2 = 5 batches, accumulation 8: the entire
        # epoch is one trailing window of 5.  The buggy 1/8 scaling
        # under-weighted every gradient by 5/8.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 1))

        model = _make_model()
        opt = _SpySGD(model.parameters(), lr=1e-3)
        model.fit(x, y, epochs=1, batch_size=2, loss="mse", optimizer=opt,
                  grad_accumulation=8, seed=0)

        reference = _full_batch_grads(_make_model(), x, y)
        assert len(opt.recorded) == 1
        for got, want in zip(opt.recorded[0], reference):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_trailing_window_after_full_windows(self):
        # 5 batches, accumulation 2 -> windows of (2, 2, 1).  Replay the
        # fit loop's exact shuffle to compute each window's reference
        # gradient; every flushed gradient must match, including the
        # final window of one batch (previously scaled by 1/2).
        seed, batch_size, accum = 0, 2, 2
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 1))

        model = _make_model()
        opt = _SpySGD(model.parameters(), lr=1e-12)  # ~frozen weights: one reference model serves all windows
        model.fit(x, y, epochs=1, batch_size=batch_size, loss="mse", optimizer=opt,
                  grad_accumulation=accum, seed=seed)
        assert len(opt.recorded) == 3

        perm = np.random.default_rng(seed).permutation(len(x))
        batches = [perm[i : i + batch_size] for i in range(0, len(x), batch_size)]
        windows = [batches[0:2], batches[2:4], batches[4:5]]
        reference_model = _make_model()
        for recorded, window in zip(opt.recorded, windows):
            acc = None
            for idx in window:
                grads = _full_batch_grads(reference_model, x[idx], y[idx])
                acc = grads if acc is None else [a + g for a, g in zip(acc, grads)]
            expected = [a / len(window) for a in acc]
            for got, want in zip(recorded, expected):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_divisible_epoch_unchanged(self):
        # 4 batches, accumulation 2: no trailing window, both flushes
        # average exactly 2 batches.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 1))
        model = _make_model()
        opt = _SpySGD(model.parameters(), lr=1e-3)
        model.fit(x, y, epochs=1, batch_size=2, loss="mse", optimizer=opt,
                  grad_accumulation=2, seed=0)
        assert len(opt.recorded) == 2


class TestEmptyInput:
    def test_predict_empty_dense(self):
        spec = get_benchmark("p1b2")
        model = spec.materialize()
        out = model.predict(np.empty((0,) + spec.input_shape()))
        assert out.shape == (0, 4)

    def test_predict_empty_conv(self):
        # Conv im2col rejects zero-length batches; the shape must come
        # from the layer chain instead.
        spec = get_benchmark("nt3")
        model = spec.materialize()
        out = model.predict(np.empty((0,) + spec.input_shape()))
        assert out.shape == (0, 2)

    def test_evaluate_empty(self):
        spec = get_benchmark("p1b2")
        model = spec.materialize()
        result = model.evaluate(
            np.empty((0,) + spec.input_shape()), np.empty((0,), dtype=np.int64),
            loss=spec.loss, metrics=["accuracy"],
        )
        assert result["loss"] == 0.0
        assert np.isnan(result["accuracy"])

    def test_predict_nonempty_unchanged(self):
        spec = get_benchmark("p1b2")
        model = spec.materialize()
        x = np.random.default_rng(0).standard_normal((5,) + spec.input_shape())
        assert model.predict(x).shape == (5, 4)


class TestScheduledOptimizerPassthrough:
    def test_step_count_reads_through(self):
        model = _make_model()
        inner = Adam(model.parameters(), lr=1e-3)
        wrapped = ScheduledOptimizer(inner, Constant(1e-3))
        assert wrapped.step_count == 0
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 1))
        model.fit(x, y, epochs=1, batch_size=4, loss="mse", optimizer=wrapped, seed=0)
        assert wrapped.step_count == inner.step_count == 2

    def test_step_hook_sees_true_step_count(self):
        # Before the fix, getattr(opt, "step_count", n_batches) fell back
        # to the raw batch counter for wrapped optimizers; with
        # grad_accumulation the two diverge.
        model = _make_model()
        inner = SGD(model.parameters(), lr=1e-3)
        wrapped = ScheduledOptimizer(inner, StepDecay(1e-3, step_size=10))
        seen = []
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 1))
        model.fit(x, y, epochs=1, batch_size=2, loss="mse", optimizer=wrapped,
                  grad_accumulation=2, seed=0, step_hook=lambda s, loss: seen.append(s))
        # 4 batches, 2 optimizer steps: hook fires per batch but reports
        # optimizer steps, not batch indices (which would be 1..4).
        assert seen == [0, 1, 1, 2]

    def test_attr_passthrough(self):
        model = _make_model()
        inner = Adam(model.parameters(), lr=1e-3, weight_decay=0.01)
        wrapped = ScheduledOptimizer(inner, Constant(1e-3))
        assert wrapped.weight_decay == 0.01
        wrapped.step_count = 5
        assert inner.step_count == 5
        with pytest.raises(AttributeError):
            wrapped.nonexistent_attribute

    def test_unwrap(self):
        model = _make_model()
        inner = Adam(model.parameters(), lr=1e-3)
        wrapped = ScheduledOptimizer(inner, Constant(1e-3))
        assert unwrap_optimizer(wrapped) is inner
        assert unwrap_optimizer(inner) is inner
        assert unwrap_optimizer(None) is None

    def test_checkpoint_roundtrip_through_wrapper(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 1))
        model = _make_model()
        inner = Adam(model.parameters(), lr=1e-3)
        wrapped = ScheduledOptimizer(inner, Constant(1e-3))
        model.fit(x, y, epochs=1, batch_size=4, loss="mse", optimizer=wrapped, seed=0)

        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, wrapped, path, epoch=1)

        restored_model = _make_model(seed=99)
        restored_inner = Adam(restored_model.parameters(), lr=5e-4)
        restored = ScheduledOptimizer(restored_inner, Constant(1e-3))
        header = load_checkpoint(restored_model, restored, path)
        assert header["optimizer"]["type"] == "Adam"
        assert restored_inner.step_count == inner.step_count
        for p, q in zip(inner.params, restored_inner.params):
            assert inner.state(p).keys() == restored_inner.state(q).keys() == {"m", "v"}
            for name, buf in inner.state(p).items():
                np.testing.assert_array_equal(restored_inner.state(q)[name], buf)
        for got, want in zip(restored_model.get_weights(), model.get_weights()):
            np.testing.assert_array_equal(got, want)
