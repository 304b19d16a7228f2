"""Model checkpointing: save/load weights (and optimizer state) as .npz.

Long CANDLE-style campaigns checkpoint between hyperparameter-search
rungs (Hyperband promotions resume training) and across job boundaries;
this module provides that persistence for any :class:`repro.nn.Model`.

:func:`save_training_state` / :func:`load_training_state` extend the
basic checkpoint with everything a *resumable* training loop needs —
epoch/step cursor, data-order RNG state, epoch permutation, history —
written atomically (write-tmp-then-rename) so a crash mid-write can
never leave a truncated checkpoint behind (the resilience runtime in
:mod:`repro.resilience` restarts from these).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .model import Model
from .optim import Optimizer

# On-disk key prefix per moment stream (``<prefix>_<param index:04d>``).
# The Adam/RMSProp/SGD keys predate the flat optimizer arena, so older
# checkpoints restore unchanged.
_MOMENT_KEYS = {"m": "adam_m", "v": "adam_v", "sq": "rms_sq", "velocity": "sgd_v", "acc": "adagrad_acc"}


def save_weights(model: Model, path: Union[str, Path], metadata: Optional[Dict] = None) -> None:
    """Write all model parameters (ordered) plus optional JSON metadata."""
    path = Path(path)
    weights = model.get_weights()
    arrays = {f"param_{i:04d}": w for i, w in enumerate(weights)}
    arrays["_meta"] = np.frombuffer(
        json.dumps({"n_params": len(weights), "metadata": metadata or {}}).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_weights(model: Model, path: Union[str, Path]) -> Dict:
    """Restore parameters saved by :func:`save_weights`; returns metadata.

    The model must already be built with matching shapes.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode())
        n = meta["n_params"]
        weights = [data[f"param_{i:04d}"] for i in range(n)]
    model.set_weights(weights)
    return meta["metadata"]


def unwrap_optimizer(optimizer):
    """Follow ``.optimizer`` links (e.g. :class:`ScheduledOptimizer`)
    down to the base :class:`Optimizer` that owns the moment state."""
    seen = set()
    while optimizer is not None and not isinstance(optimizer, Optimizer):
        inner = getattr(optimizer, "optimizer", None)
        if inner is None or id(optimizer) in seen:
            break
        seen.add(id(optimizer))
        optimizer = inner
    return optimizer


def _pack_optimizer(optimizer: Optional[Optimizer], arrays: Dict[str, np.ndarray]) -> Dict:
    """Append optimizer moment arrays to ``arrays``; return the JSON header."""
    optimizer = unwrap_optimizer(optimizer)
    opt_state: Dict = {"type": None}
    if optimizer is not None:
        opt_state["type"] = type(optimizer).__name__
        opt_state["lr"] = optimizer.lr
        opt_state["step_count"] = optimizer.step_count
        for i, p in enumerate(optimizer.params):
            for name, buf in optimizer.state(p).items():
                arrays[f"{_MOMENT_KEYS[name]}_{i:04d}"] = buf
    return opt_state


def _unpack_optimizer(optimizer: Optional[Optimizer], opt_state: Dict, data) -> None:
    """Restore optimizer moments saved by :func:`_pack_optimizer`.

    The restore is *exact*: moments absent from the snapshot are zeroed,
    not kept — a run restored to a pre-first-step snapshot must not carry
    stale moments from the incarnation that died.  Each saved array is
    copied into the parameter's slice of the optimizer's moment arena.
    """
    optimizer = unwrap_optimizer(optimizer)
    if optimizer is None or opt_state.get("type") != type(optimizer).__name__:
        return
    optimizer.lr = opt_state["lr"]
    optimizer.step_count = opt_state["step_count"]
    for i, p in enumerate(optimizer.params):
        for name, buf in optimizer.state(p).items():
            key = f"{_MOMENT_KEYS[name]}_{i:04d}"
            buf[...] = data[key] if key in data else 0


def atomic_savez(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> Path:
    """Write an .npz atomically: savez to a temp file, then rename.

    ``os.replace`` is atomic on POSIX, so readers either see the previous
    complete checkpoint or the new complete one — never a torn write.
    Returns the final path (with the ``.npz`` suffix ``np.savez`` adds).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    fd, tmp_name = tempfile.mkstemp(suffix=".npz", dir=path.parent, prefix=".tmp_ckpt_")
    os.close(fd)
    try:
        with open(tmp_name, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def save_checkpoint(
    model: Model,
    optimizer: Optional[Optimizer],
    path: Union[str, Path],
    epoch: int = 0,
    metadata: Optional[Dict] = None,
) -> None:
    """Full training checkpoint: weights + optimizer moments + epoch."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    weights = model.get_weights()
    for i, w in enumerate(weights):
        arrays[f"param_{i:04d}"] = w
    opt_state = _pack_optimizer(optimizer, arrays)
    header = {
        "n_params": len(weights),
        "epoch": epoch,
        "optimizer": opt_state,
        "metadata": metadata or {},
    }
    arrays["_meta"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(model: Model, optimizer: Optional[Optimizer], path: Union[str, Path]) -> Dict:
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Returns the header dict (epoch, metadata...).  Optimizer state is
    restored when the optimizer type matches what was saved.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        header = json.loads(bytes(data["_meta"]).decode())
        n = header["n_params"]
        model.set_weights([data[f"param_{i:04d}"] for i in range(n)])
        _unpack_optimizer(optimizer, header.get("optimizer", {}), data)
    return header


def rng_state(rng: np.random.Generator) -> Dict:
    """JSON-serializable snapshot of a Generator's bit-generator state."""
    return rng.bit_generator.state


def restore_rng(state: Dict) -> np.random.Generator:
    """Reconstruct a Generator bit-identical to the one snapshotted."""
    bit_gen_cls = getattr(np.random, state["bit_generator"])
    gen = np.random.Generator(bit_gen_cls())
    gen.bit_generator.state = state
    return gen


def save_training_state(
    model: Model,
    optimizer: Optional[Optimizer],
    path: Union[str, Path],
    *,
    epoch: int = 0,
    step: int = 0,
    global_step: int = 0,
    rng: Optional[np.random.Generator] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    history: Optional[List[Dict[str, float]]] = None,
    metadata: Optional[Dict] = None,
) -> Path:
    """Atomic, fully-resumable training snapshot.

    Beyond :func:`save_checkpoint` this captures the position *inside*
    training — (epoch, step-in-epoch, global step), the shuffle RNG's
    exact bit-generator state, arbitrary extra arrays (e.g. the current
    epoch's permutation), and the per-epoch history so a resumed run
    replays nothing and reports a seamless record.  Written with
    :func:`atomic_savez`; returns the final checkpoint path.
    """
    arrays: Dict[str, np.ndarray] = {}
    weights = model.get_weights()
    for i, w in enumerate(weights):
        arrays[f"param_{i:04d}"] = w
    opt_state = _pack_optimizer(optimizer, arrays)
    for key, arr in (extra_arrays or {}).items():
        arrays[f"extra_{key}"] = np.asarray(arr)
    header = {
        "n_params": len(weights),
        "epoch": epoch,
        "step": step,
        "global_step": global_step,
        "optimizer": opt_state,
        "rng": rng_state(rng) if rng is not None else None,
        "history": history or [],
        "extra_keys": sorted((extra_arrays or {}).keys()),
        "metadata": metadata or {},
    }
    arrays["_meta"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    return atomic_savez(path, arrays)


def load_training_state(
    model: Model,
    optimizer: Optional[Optimizer],
    path: Union[str, Path],
) -> Dict:
    """Restore a snapshot written by :func:`save_training_state`.

    Returns the header with two additions: ``"rng"`` is replaced by a
    restored ``np.random.Generator`` (or None) and ``"extra"`` maps the
    saved extra-array names to their arrays.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        header = json.loads(bytes(data["_meta"]).decode())
        n = header["n_params"]
        model.set_weights([data[f"param_{i:04d}"] for i in range(n)])
        _unpack_optimizer(optimizer, header.get("optimizer", {}), data)
        header["extra"] = {key: data[f"extra_{key}"].copy() for key in header.get("extra_keys", [])}
    header["rng"] = restore_rng(header["rng"]) if header.get("rng") else None
    return header
