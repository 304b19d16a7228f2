"""Flat optimizer arena: parity with the per-parameter reference
expressions, the ``p.grad`` aliasing contract, checkpoint compatibility
with the pre-arena on-disk layout, and the dead input-gradient skip."""

import contextlib
import json
import pickle

import numpy as np
import pytest

import repro.nn.functional as F
import repro.nn.losses as L
from repro.nn import SGD, AdaGrad, Adam, Dense, RMSProp, Sequential, Tensor
from repro.nn import amp
from repro.nn.optim import BLOCK
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.perf.reference import AdamReference

# Sizes straddling the update block: one short, one over, several blocks.
SIZES = [(BLOCK - 1,), (BLOCK + 1,), (200, 200), (3, 5)]


def _dot_backward(params, coeffs):
    """backward of sum_i <p_i, c_i>: adds exactly c_i to each p_i.grad."""
    loss = (params[0] * Tensor(coeffs[0])).sum()
    for p, c in zip(params[1:], coeffs[1:]):
        loss = loss + (p * Tensor(c)).sum()
    loss.backward()


class _Reference:
    """Frozen per-parameter update expressions (the pre-arena data path,
    one parameter at a time, fresh temporaries every step)."""

    def __init__(self, kind, shapes, lr, **kw):
        self.kind, self.lr, self.kw, self.t = kind, lr, kw, 0
        self.state = [np.zeros(s) for s in shapes]
        # One AdamReference per parameter, so a grad-less one can sit out.
        self.adams = [AdamReference([s], lr=lr) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        wd, lr = self.kw.get("weight_decay", 0.0), self.lr
        for i, (p, g) in enumerate(zip(params, grads)):
            if g is None:
                continue
            if wd:
                g = g + wd * p
            s = self.state[i]
            if self.kind == "adam":
                self.adams[i].t = self.t - 1  # bias correction uses the global step
                self.adams[i].step([p], [g])
            elif self.kind == "sgd":
                mu = self.kw.get("momentum", 0.0)
                step = g
                if mu:
                    s *= mu
                    s += g
                    step = g + mu * s if self.kw.get("nesterov") else s
                p -= lr * step
            elif self.kind == "rmsprop":
                s *= 0.9
                s += (1 - 0.9) * g * g
                p -= lr * g / (np.sqrt(s) + 1e-8)
            else:  # adagrad
                s += g * g
                p -= lr * g / (np.sqrt(s) + 1e-10)


CASES = [
    ("sgd", SGD, {"momentum": 0.9}),
    ("sgd", SGD, {"momentum": 0.9, "nesterov": True}),
    ("sgd", SGD, {"weight_decay": 0.01}),
    ("sgd", SGD, {"momentum": 0.9, "weight_decay": 0.01}),
    ("adam", Adam, {"weight_decay": 0.01}),
    ("adam", Adam, {}),
    ("rmsprop", RMSProp, {}),
    ("adagrad", AdaGrad, {}),
]


@pytest.mark.parametrize("kind,cls,kw", CASES, ids=[f"{c[0]}-{'-'.join(c[2]) or 'plain'}" for c in CASES])
def test_blocked_update_matches_reference(kind, cls, kw):
    """Every step, every parameter bit-identical to the reference —
    including steps where some parameters have no gradient."""
    rng = np.random.default_rng(0)
    init = [rng.standard_normal(s) for s in SIZES]
    params = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref_params = [a.copy() for a in init]
    opt = cls(params, lr=0.01, **kw)
    ref = _Reference(kind, SIZES, 0.01, **kw)
    for step in range(7):
        grads = [None if (i + step) % 3 == 0 else rng.standard_normal(s)
                 for i, s in enumerate(SIZES)]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        ref.step(ref_params, grads)
        for p, want in zip(params, ref_params):
            np.testing.assert_array_equal(p.data, want)


@pytest.mark.parametrize("kind,cls,kw", CASES, ids=[f"{c[0]}-{'-'.join(c[2]) or 'plain'}" for c in CASES])
def test_step_spans_matches_step(kind, cls, kw):
    """Stepping arbitrary flat spans that tile the arenas, one of them
    straddling the float64/float32 arena boundary, is bit-identical to
    ``step()``, step after step (``step_count`` advances once a step)."""
    rng = np.random.default_rng(5)
    dtypes = [np.float64, np.float32, np.float64, np.float32]
    init = [rng.standard_normal(s).astype(dt) for s, dt in zip(SIZES, dtypes)]
    whole = [Tensor(a.copy(), requires_grad=True) for a in init]
    spans = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt_whole, opt_spans = cls(whole, lr=0.01, **kw), cls(spans, lr=0.01, **kw)
    order = [0, 2, 1, 3]  # arena_order: the float64 arena, then the float32 one
    edge = init[0].size + init[2].size
    n = sum(a.size for a in init)
    for _ in range(4):
        grads = [rng.standard_normal(a.shape).astype(a.dtype) for a in init]
        for p, g in zip(whole, grads):
            p.grad = g
        opt_whole.step()
        flat = np.concatenate([grads[i].ravel() for i in order])
        for flo, fhi, _, g in opt_spans.flat_views(0, n):
            g[...] = flat[flo:fhi]
        inner = [c for c in rng.integers(1, n, 5).tolist() if not edge - 7 <= c <= edge + 9]
        cuts = sorted({0, n, edge - 7, edge + 9, *inner})
        parts = list(zip(cuts, cuts[1:]))
        assert (edge - 7, edge + 9) in parts
        opt_spans.step_spans(rng.permutation(parts).tolist())
        assert opt_spans.step_count == opt_whole.step_count
        for p, q in zip(whole, spans):
            np.testing.assert_array_equal(p.data, q.data)


def test_gradless_parameter_keeps_moments_frozen():
    p, q = (Tensor(np.ones(BLOCK + 3), requires_grad=True) for _ in range(2))
    opt = Adam([p, q], lr=0.1)
    p.grad, q.grad = np.full(BLOCK + 3, 0.5), np.full(BLOCK + 3, 0.5)
    opt.step()
    frozen = {k: v.copy() for k, v in opt.state(q).items()}
    q_before = q.data.copy()
    for _ in range(3):
        p.grad, q.grad = np.full(BLOCK + 3, 0.5), None
        opt.step()
    for k, v in opt.state(q).items():
        np.testing.assert_array_equal(v, frozen[k])
    np.testing.assert_array_equal(q.data, q_before)


def test_grad_accumulation_matches_reference():
    """Two backwards before a step accumulate in place in the arena."""
    rng = np.random.default_rng(1)
    init = [rng.standard_normal(s) for s in SIZES]
    params = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref_params = [a.copy() for a in init]
    opt = Adam(params, lr=0.01)
    ref = _Reference("adam", SIZES, 0.01)
    for it in range(3):
        c1 = [rng.standard_normal(s) for s in SIZES]
        c2 = [rng.standard_normal(s) for s in SIZES]
        opt.zero_grad()
        _dot_backward(params, c1)
        _dot_backward(params, c2)
        # Adopted at the first step: from then on grads land in the arena.
        assert all((p.grad is p._grad_slot) == (it > 0) for p in params)
        opt.step()
        ref.step(ref_params, [a + b for a, b in zip(c1, c2)])
        for p, want in zip(params, ref_params):
            np.testing.assert_array_equal(p.data, want)


def test_readoption_after_astype_carries_moments():
    """``Model.astype`` rebinds ``p.data``; the next step re-adopts into a
    float32 arena and continues from the moments cast to float32.  The
    first float32 backward runs before re-adoption, while each grad slot
    is still float64."""
    rng = np.random.default_rng(2)
    model = Sequential([Dense(7, activation="tanh"), Dense(3)])
    model.build((5,), np.random.default_rng(0))
    params = list(model.parameters())
    opt = Adam(params, lr=0.01)
    ref_params = [p.data.copy() for p in params]
    ref = _Reference("adam", [p.shape for p in params], 0.01)

    def one_step(dtype):
        grads = [rng.standard_normal(p.shape).astype(dtype) for p in params]
        opt.zero_grad()
        _dot_backward(params, grads)
        assert all(p.grad.dtype == dtype for p in params)
        opt.step()
        ref.step(ref_params, grads)

    for _ in range(3):
        one_step(np.float64)
    model.astype(np.float32)
    ref_params[:] = [a.astype(np.float32) for a in ref_params]
    for a in ref.adams:
        a.m, a.v = [a.m[0].astype(np.float32)], [a.v[0].astype(np.float32)]
    for _ in range(3):
        one_step(np.float32)
    for p, want in zip(params, ref_params):
        assert p.data.dtype == np.float32 and opt.state(p)["m"].dtype == np.float32
        np.testing.assert_array_equal(p.data, want)
    # Re-adopted: every parameter views one float32 arena again.
    assert len({id(p.data.base) for p in params}) == 1
    assert all(p._grad_slot.dtype == np.float32 for p in params)


class TestGradAliasing:
    def test_grad_is_arena_view_until_next_backward(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        opt = SGD([p], lr=0.1)
        c0, c1, c2 = (rng.standard_normal((4, 3)) for _ in range(3))
        (p * Tensor(c0)).sum().backward()
        assert p._grad_slot is None  # adoption waits for first use
        opt.step()
        opt.zero_grad()
        (p * Tensor(c1)).sum().backward()
        g = p.grad
        assert g is p._grad_slot
        np.testing.assert_array_equal(g, c1)
        opt.step()  # reads the arena, never writes it
        np.testing.assert_array_equal(g, c1)
        opt.zero_grad()
        assert p.grad is None
        (p * Tensor(c2)).sum().backward()
        # Same view, overwritten in place: a kept reference sees the new grad.
        assert p.grad is g
        np.testing.assert_array_equal(g, c2)

    def test_unadopted_leaf_gets_its_own_buffer(self):
        p = Tensor(np.ones(3), requires_grad=True)
        (p * 2.0).sum().backward()
        assert p._grad_slot is None
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))

    def test_pickle_drops_the_grad_slot(self):
        p = Tensor(np.arange(1000.0).reshape(20, 50), requires_grad=True, name="w")
        p.grad = np.ones((20, 50))
        opt = Adam([p])
        opt.step()
        opt.zero_grad()
        assert p._grad_slot is not None
        blob = pickle.dumps(p)
        assert len(blob) < 1.5 * p.data.nbytes  # the arena grad is not shipped
        q = pickle.loads(blob)
        assert q._grad_slot is None and q.name == "w" and q.requires_grad
        np.testing.assert_array_equal(q.data, p.data)
        assert not np.shares_memory(q.data, p.data)


def _model(seed):
    m = Sequential([Dense(8, activation="tanh"), Dense(1)])
    m.build((5,), np.random.default_rng(seed))
    return m


def _backward(model, xb, yb):
    for p in model.parameters():
        p.grad = None
    L.mse(model.forward(Tensor(xb)), yb).backward()
    return [p.grad for p in model.parameters()]


class TestCheckpointCompat:
    def test_pre_arena_checkpoint_resumes_bit_identically(self, tmp_path):
        """An .npz in the pre-arena layout (per-parameter moments, written
        here by hand from the frozen reference) restores into the arena
        and resumes bit-identically to an uninterrupted run."""
        rng = np.random.default_rng(4)
        batches = [(rng.standard_normal((16, 5)), rng.standard_normal((16, 1))) for _ in range(6)]
        full = _model(0)
        opt = Adam(full.parameters(), lr=1e-2)
        for xb, yb in batches:
            _backward(full, xb, yb)
            opt.step()

        old = _model(0)
        params = list(old.parameters())
        ref = AdamReference([p.shape for p in params], lr=1e-2)
        for xb, yb in batches[:3]:
            ref.step([p.data for p in params], _backward(old, xb, yb))
        arrays = {f"param_{i:04d}": p.data for i, p in enumerate(params)}
        for i, (m, v) in enumerate(zip(ref.m, ref.v)):
            arrays[f"adam_m_{i:04d}"], arrays[f"adam_v_{i:04d}"] = m, v
        header = {"n_params": len(params), "epoch": 1, "metadata": {},
                  "optimizer": {"type": "Adam", "lr": 1e-2, "step_count": 3}}
        arrays["_meta"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(tmp_path / "old.npz", **arrays)

        resumed = _model(1)
        opt2 = Adam(resumed.parameters(), lr=5e-4)
        assert load_checkpoint(resumed, opt2, tmp_path / "old.npz")["epoch"] == 1
        for p, m, v in zip(resumed.parameters(), ref.m, ref.v):
            np.testing.assert_array_equal(opt2.state(p)["m"], m)
            np.testing.assert_array_equal(opt2.state(p)["v"], v)
        for xb, yb in batches[3:]:
            _backward(resumed, xb, yb)
            opt2.step()
        for a, b in zip(full.get_weights(), resumed.get_weights()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("make,keys", [
        (lambda ps: Adam(ps), ("adam_m", "adam_v")),
        (lambda ps: RMSProp(ps), ("rms_sq",)),
        (lambda ps: SGD(ps, momentum=0.9), ("sgd_v",)),
        (lambda ps: SGD(ps), ()),
    ])
    def test_on_disk_keys_unchanged(self, tmp_path, make, keys):
        model = _model(0)
        opt = make(model.parameters())
        save_checkpoint(model, opt, tmp_path / "c.npz")
        with np.load(tmp_path / "c.npz") as z:
            moment_keys = {k for k in z.files if not k.startswith(("param_", "_meta"))}
        assert moment_keys == {f"{k}_{i:04d}" for k in keys for i in range(4)}

    def test_missing_moments_restore_as_zeros(self, tmp_path):
        model = _model(0)
        save_checkpoint(model, Adam(model.parameters()), tmp_path / "c.npz")
        with np.load(tmp_path / "c.npz") as z:
            arrays = {k: z[k] for k in z.files if not k.startswith("adam_")}
        np.savez(tmp_path / "bare.npz", **arrays)
        opt = Adam(model.parameters())
        xb, yb = np.ones((2, 5)), np.ones((2, 1))
        _backward(model, xb, yb)
        opt.step()
        load_checkpoint(model, opt, tmp_path / "bare.npz")
        assert all(not v.any() for p in model.parameters() for v in opt.state(p).values())


def _first_layer(op, x_requires):
    """Parameter grads of one op, plus the input-grad slot its backward
    returns, with the input requiring grad or not."""
    rng = np.random.default_rng(5)
    if op.startswith("linear"):
        xd, wd, bd = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        fn = lambda x, w, b: F.linear_act(x, w, b, activation="relu")  # noqa: E731
    elif op.startswith("conv1d"):
        xd, wd, bd = rng.standard_normal((2, 3, 9)), rng.standard_normal((4, 3, 3)), rng.standard_normal(4)
        fn = lambda x, w, b: F.conv1d(x, w, b, padding=1, activation="relu")  # noqa: E731
    else:
        xd, wd, bd = rng.standard_normal((2, 3, 6, 6)), rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        fn = lambda x, w, b: F.conv2d(x, w, b, padding=1, activation="relu")  # noqa: E731
    if op.endswith("amp"):
        xd, wd, bd = (a.astype(np.float32) for a in (xd, wd, bd))
    x = Tensor(xd, requires_grad=x_requires)
    w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
    with amp.autocast(amp.get_plan("bf16")) if op.endswith("amp") else contextlib.nullcontext():
        out = fn(x, w, b)
        seed = np.random.default_rng(6).standard_normal(out.shape).astype(out.data.dtype)
        grad_x = out._backward_fn(seed.copy())[0]
        out.backward(seed)
    return grad_x, w.grad, b.grad


@pytest.mark.parametrize("op", ["linear", "linear_amp", "conv1d", "conv1d_amp", "conv2d", "conv2d_amp"])
def test_input_grad_skipped_when_input_needs_none(op):
    gx_req, w_req, b_req = _first_layer(op, x_requires=True)
    gx_none, w_none, b_none = _first_layer(op, x_requires=False)
    assert gx_req is not None and gx_none is None
    np.testing.assert_array_equal(w_req, w_none)
    np.testing.assert_array_equal(b_req, b_none)
