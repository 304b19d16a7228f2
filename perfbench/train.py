"""``train_mlp`` and ``train_ddp``: one wide fp64 MLP, two engines.

Both workloads train the same model on the same data: the p1b2 builder
with hidden (512, 512, 512) and no dropout, on 2048 x 512 synthetic
expression with 4 classes, batch 64, Adam.  ``train_mlp`` is eager
single-process ``Model.fit`` (all work in ``nn``, no process spawned);
``train_ddp`` is the strongest parallel baseline the library has,
bucketed overlapped 2-rank process DDP with a float64 wire.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, List

import numpy as np

from repro.candle.models import build_p1b2_classifier
from repro.datasets import make_tumor_expression
from repro.nn import losses as losses_mod
from repro.nn.optim import Adam
from repro.parallel import fit_data_parallel

from .common import load_reference, median
from .stats import summarize

N_SAMPLES, N_GENES, N_CLASSES = 2048, 512, 4
HIDDEN = (512, 512, 512)
BATCH, LR = 64, 1e-3
STEPS_PER_EPOCH = N_SAMPLES // BATCH
SETUP_REPEATS = 3
WORLD = 2
# Epochs whose losses references.json records per seed.
REFERENCE_EPOCHS = 3
# The traced train_mlp run must attribute this share of step wall time,
# give or take: data + forward + loss + backward + optimizer phases
# over the epochs' own wall time.
COVERAGE_TOLERANCE = 0.05
PHASES = ("data", "forward", "loss", "backward", "optim")


def mlp_epochs(seconds: int) -> int:
    """Epochs sized to ~``seconds`` of eager training (~0.9 s each on a
    current x86 core); fixed by ``seconds`` alone so every run of a
    seed does identical work."""
    return max(REFERENCE_EPOCHS, seconds)


def ddp_epochs(seconds: int) -> int:
    """As :func:`mlp_epochs` for 2-rank DDP (~1.2 s an epoch)."""
    return max(REFERENCE_EPOCHS, round(0.75 * seconds))


def build_inputs(seed: int):
    """Data and built model: the set-up a user pays once."""
    ds = make_tumor_expression(
        n_samples=N_SAMPLES, n_genes=N_GENES, n_classes=N_CLASSES, seed=seed
    )
    model = build_p1b2_classifier(N_CLASSES, hidden=HIDDEN, dropout=0.0)
    model.build((N_GENES,), np.random.default_rng(seed))
    return ds.x, ds.y, model


def timed_setup(seed: int):
    """Set up ``SETUP_REPEATS`` times; (median seconds, last inputs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = build_inputs(seed)
        times.append(time.perf_counter() - t0)
    return median(times), inputs


def _epoch_rates(epoch_times: List[float]) -> List[float]:
    # Epoch 0 is warm-up (first-touch allocations); the rest are timed.
    return [N_SAMPLES / t for t in epoch_times[1:]]


def _step_latencies_ms(stamps: List[float], first_timed_step: int) -> List[float]:
    t = np.asarray(stamps, dtype=float)
    return (np.diff(t)[first_timed_step - 1:] * 1e3).tolist()


def _failed_samples(losses: List[float]) -> int:
    return N_SAMPLES * sum(1 for v in losses if not np.isfinite(v))


def _check_reference(workload: str, seed: int, losses: List[float], checks: Dict) -> bool:
    ref = load_reference(workload, seed)
    if ref is None:
        checks["recorded_reference"] = "not recorded for this seed and platform"
        return True
    got = [float(v).hex() for v in losses[:len(ref)]]
    checks["recorded_reference"] = "match" if got == ref else f"MISMATCH {got} != {ref}"
    return got == ref


class StepLedger:
    """Per-phase timing of eager ``fit`` steps, from the outside.

    Attaches only through ``fit``'s public surface: each layer's
    ``forward`` is shadowed on the instance, the loss is passed as a
    timed callable, backward progress comes from ``grad_ready_hook``
    timestamps, the optimizer's ``step``/``zero_grad`` are shadowed on
    the instance passed as ``fit(optimizer=...)``, and ``step_hook``
    closes each step.  Phases per step:

    * data: previous step's end -> first layer's forward starts (batch
      gather and tensor wrap inside the loader loop);
    * forward (and per layer): first layer start -> last layer end;
    * loss; backward: loss end -> last parameter's gradient final, and
      per layer the interval ending when that layer's last gradient is
      final;
    * optimizer: ``step`` + ``zero_grad``.
    """

    def __init__(self, model, optimizer) -> None:
        layers = list(model.layers)
        self.n_layers = len(layers)
        self._param_layer = {
            id(p): i for i, layer in enumerate(layers) for p in layer.parameters()
        }
        self.steps: List[Dict[str, float]] = []  # seconds per phase, per step
        self._reset()
        self._prev_end = time.perf_counter()
        clock = time.perf_counter
        for i, layer in enumerate(layers):
            inner = layer.forward

            def fwd(x, training=True, _i=i, _inner=inner):
                t0 = clock()
                out = _inner(x, training=training)
                t1 = clock()
                if _i == 0:
                    self._fwd_start = t0
                self._fwd[_i] = t1 - t0
                self._fwd_end = t1
                return out

            layer.forward = fwd
        base_loss = losses_mod.get("cross_entropy")

        def loss(pred, target):
            t0 = clock()
            out = base_loss(pred, target)
            self._loss = (t0, clock())
            return out

        self.loss = loss
        for name in ("step", "zero_grad"):
            inner = getattr(optimizer, name)

            def timed(*a, _inner=inner, **k):
                t0 = clock()
                out = _inner(*a, **k)
                self._optim += clock() - t0
                return out

            setattr(optimizer, name, timed)

    def _reset(self) -> None:
        self._fwd = [0.0] * self.n_layers
        self._fwd_start = self._fwd_end = 0.0
        self._loss = (0.0, 0.0)
        self._ready: Dict[int, float] = {}
        self._optim = 0.0

    def grad_ready(self, param) -> None:
        layer = self._param_layer.get(id(param))
        if layer is not None:
            self._ready[layer] = time.perf_counter()

    def step_end(self, _step, _loss) -> None:
        t_end = time.perf_counter()
        loss_start, loss_end = self._loss
        rec = {
            "nn.data_ms": self._fwd_start - self._prev_end,
            "nn.forward_ms": self._fwd_end - self._fwd_start,
            "nn.loss_ms": loss_end - loss_start,
            "nn.optim_ms": self._optim,
        }
        for i, d in enumerate(self._fwd):
            rec[f"nn.forward_ms.L{i}"] = d
        mark = loss_end
        for layer, t in sorted(self._ready.items(), key=lambda kv: kv[1]):
            rec[f"nn.backward_ms.L{layer}"] = t - mark
            mark = t
        rec["nn.backward_ms"] = mark - loss_end
        self.steps.append(rec)
        self._prev_end = t_end
        self._reset()

    def summary(self, epoch_times: List[float]) -> Dict[str, float]:
        """Mean ms per step of each phase over the timed epochs, and the
        share of those epochs' wall time the phases account for."""
        timed = self.steps[STEPS_PER_EPOCH:]
        names = [f"nn.{p}_ms" for p in PHASES]
        names += [f"nn.{p}_ms.L{i}" for p in ("forward", "backward") for i in range(self.n_layers)]
        out = {k: 1e3 * sum(s.get(k, 0.0) for s in timed) / len(timed) for k in names}
        phases = sum(s[f"nn.{p}_ms"] for s in timed for p in PHASES)
        out["nn.step_coverage"] = phases / sum(epoch_times[1:])
        return out


def run_train_mlp(seed: int, seconds: int, trace: bool) -> Dict:
    setup_s, (x, y, model) = timed_setup(seed)
    epochs = mlp_epochs(seconds)
    stamps: List[float] = []
    opt = Adam(model.parameters(), lr=LR)
    hist = model.fit(
        x, y, epochs=epochs, batch_size=BATCH, loss="cross_entropy", optimizer=opt,
        seed=seed, step_hook=lambda _s, _l: stamps.append(time.perf_counter()),
    )
    losses = hist.series("loss")
    rates = _epoch_rates(hist.series("time"))
    steps = summarize(_step_latencies_ms(stamps, STEPS_PER_EPOCH))

    # Untimed checks: recorded per-seed losses, and the same first
    # epochs through the DDP engine's serial world=1 path, which must
    # reproduce eager fit bit for bit.
    checks: Dict[str, object] = {}
    ok = _check_reference("train_mlp", seed, losses, checks)
    _, _, ref_model = build_inputs(seed)
    ref = fit_data_parallel(
        ref_model, x, y, world=1, epochs=2, batch_size=BATCH, loss="cross_entropy",
        lr=LR, seed=seed, backend="serial", drop_last=True,
    )
    same = [float(v).hex() for v in ref.epoch_losses] == [float(v).hex() for v in losses[:2]]
    checks["serial_engine_losses"] = "match" if same else "MISMATCH"
    ok = ok and same

    result = {
        "correct": ok,
        "attempted": epochs * N_SAMPLES,
        "failed": _failed_samples(losses),
        "metrics": {
            "setup_s": setup_s,
            "throughput_per_s": median(rates),
            "op_p50_ms": steps.p50,
            "op_tail_ms": steps.tail,
        },
        "details": {
            "epochs": epochs, "samples_per_epoch": N_SAMPLES, "batch": BATCH,
            "step_latency": steps.as_dict(), "checks": checks,
            "epoch_losses": [float(v).hex() for v in losses],
        },
        "layers": {},
    }
    if trace:
        x, y, model = build_inputs(seed)
        opt = Adam(model.parameters(), lr=LR)
        ledger = StepLedger(model, opt)
        t_epochs = max(2, epochs // 2)
        thist = model.fit(
            x, y, epochs=t_epochs, batch_size=BATCH, loss=ledger.loss, optimizer=opt,
            seed=seed, step_hook=ledger.step_end, grad_ready_hook=ledger.grad_ready,
        )
        same = thist.series("loss") == losses[:t_epochs]
        checks["traced_losses"] = "match" if same else "MISMATCH"
        result["correct"] = result["correct"] and same
        layers = ledger.summary(thist.series("time"))
        layers["trace_overhead_frac"] = 1.0 - median(_epoch_rates(thist.series("time"))) / median(rates)
        result["layers"] = layers
        result["details"]["coverage_tolerance"] = COVERAGE_TOLERANCE
    return result


# -- train_ddp ------------------------------------------------------------
# Rank 0's step timestamps, shared with the forked ranks.  Written by
# ``_stamp_step`` (a module-level pre_step_hook, so the ranks run it
# without pickling); one slot per step.
_STAMPS = None
_STAMP_N = 0


def _stamp_step(rank: int, _step: int) -> None:
    global _STAMP_N
    if rank == 0:
        _STAMPS[_STAMP_N] = time.perf_counter()
        _STAMP_N += 1


def run_train_ddp(seed: int, seconds: int, trace: bool) -> Dict:
    global _STAMPS, _STAMP_N
    if mp.get_start_method() != "fork":
        raise RuntimeError("train_ddp step timing needs the fork start method")
    setup_s, (x, y, model) = timed_setup(seed)
    epochs = ddp_epochs(seconds)
    _STAMPS = mp.RawArray("d", epochs * STEPS_PER_EPOCH)
    _STAMP_N = 0
    kw = dict(
        world=WORLD, epochs=epochs, batch_size=BATCH, loss="cross_entropy", lr=LR,
        seed=seed, comm="bucketed", overlap=True, wire_dtype="float64", drop_last=True,
    )
    res = fit_data_parallel(model, x, y, backend="process", pre_step_hook=_stamp_step, **kw)
    stamps = list(_STAMPS)
    spawn_s = res.elapsed_s - sum(res.epoch_times)
    rates = _epoch_rates(res.epoch_times)
    steps = summarize(_step_latencies_ms(stamps, STEPS_PER_EPOCH))

    # Untimed check: the serial backend replays the identical algorithm
    # in-process and must land on bit-identical weights.
    checks: Dict[str, object] = {}
    _, _, ref_model = build_inputs(seed)
    ref = fit_data_parallel(ref_model, x, y, backend="serial", **kw)
    same_w = all(
        np.array_equal(a, b) for a, b in zip(model.get_weights(), ref_model.get_weights())
    )
    same_l = [float(v).hex() for v in res.epoch_losses] == [float(v).hex() for v in ref.epoch_losses]
    checks["serial_backend_weights"] = "match" if same_w else "MISMATCH"
    checks["serial_backend_losses"] = "match" if same_l else "MISMATCH"
    ok = same_w and same_l

    stats = res.comm_stats or {}
    result = {
        "correct": ok,
        "attempted": epochs * N_SAMPLES,
        "failed": _failed_samples(res.epoch_losses),
        "metrics": {
            "setup_s": setup_s + spawn_s,
            "throughput_per_s": median(rates),
            "op_p50_ms": steps.p50,
            "op_tail_ms": steps.tail,
        },
        "details": {
            "epochs": epochs, "world": WORLD, "samples_per_epoch": N_SAMPLES,
            "batch": BATCH, "rank_spawn_s": spawn_s, "data_model_setup_s": setup_s,
            "step_latency": steps.as_dict(), "checks": checks,
            "epoch_losses": [float(v).hex() for v in res.epoch_losses],
        },
        "layers": {},
    }
    if trace:
        # Everything here is read from DataParallelResult; nothing extra
        # is attached to the ranks, so tracing costs nothing.
        result["layers"] = {
            "parallel.ddp.comm_s": stats.get("total_comm_s", 0.0),
            "parallel.ddp.exposed_wait_s": stats.get("exposed_wait_s", 0.0),
            "parallel.ddp.overlap_fraction": stats.get("overlap_fraction", 0.0),
            "parallel.ddp.wire_bytes_per_step": stats.get("wire_bytes_per_step", 0),
            "parallel.ddp.epoch_s": median(res.epoch_times[1:]),
            "trace_overhead_frac": 0.0,
        }
    return result
