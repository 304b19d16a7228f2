"""Optimizers over a flat parameter/gradient arena.

On first use (step, gradient hand-off or state read) an optimizer
*adopts* its parameters: per dtype, one contiguous arena each holds the
values, the gradients and every moment stream.  ``p.data`` becomes a
view of its slot and ``p._grad_slot`` its gradient slot, where
``Tensor.backward`` lands the gradient; a grad bound elsewhere is copied
in before the update (``p.grad`` itself is never written).  ``step()``
runs the update's ufunc sequence over ``BLOCK``-element chunks, which
stay in L2.  The sequences replicate the reference expressions
factor-for-factor (commuting ``+``/``*`` pairs, never reassociating)
and are elementwise, so blocking keeps every bit.  Only runs of
parameters with a grad update: a grad-less one's moments stay frozen.
:meth:`Optimizer.step_spans` runs the same loop over any flat spans of
the arenas laid end to end; sharded DDP steps each rank's share with it.
A parameter rebound since adoption (``astype``, autocast) fails a
``p.data is view`` check before the next step; the arenas are rebuilt
and its moments carried across in the new dtype.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .tensor import Tensor

# Elements per update block: 128 KiB per fp64 stream.
BLOCK = 16384


def arena_order(params: Iterable[Tensor]) -> List[Tensor]:
    """``params`` as an optimizer lays them out: one arena per dtype
    (in order of first appearance) end to end, list order within each."""
    params = list(params)
    dtypes = list(dict.fromkeys(p.data.dtype for p in params))
    return sorted(params, key=lambda p: dtypes.index(p.data.dtype))


class _Arena:
    """One dtype's parameters laid end to end: values, grads, moments."""

    def __init__(self, params: List[Tensor], n_state: int, carried: Dict[int, List]) -> None:
        dtype = params[0].data.dtype
        ends = list(accumulate(p.data.size for p in params))
        self.params, self.bounds, self.size = params, list(zip([0] + ends[:-1], ends)), ends[-1]
        self.data, self.grad = np.empty(self.size, dtype), np.zeros(self.size, dtype)
        self.state = [np.zeros(self.size, dtype) for _ in range(n_state)]
        self.scratch = np.empty((3, min(BLOCK, self.size)), dtype)
        for p, (lo, hi) in zip(params, self.bounds):
            view = self.data[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data, p._grad_slot = view, self.grad[lo:hi].reshape(view.shape)
            for st, old in zip(self.state, carried.get(id(p), ())):
                st[lo:hi] = old
        self.views, self.slots = [p.data for p in params], [p._grad_slot for p in params]

    def runs(self, zero_missing: bool = False) -> List[Tuple[int, int]]:
        """Spans of consecutive parameters that have a gradient, once each
        gradient bound from elsewhere is copied into its slot; with
        ``zero_missing`` a grad-less parameter's slot is zeroed."""
        spans: List[Tuple[int, int]] = []
        for p, (lo, hi), slot in zip(self.params, self.bounds, self.slots):
            if p.grad is None:
                if zero_missing:
                    slot.fill(0)
                continue
            if p.grad is not slot:
                np.copyto(slot, p.grad)
            if spans and spans[-1][1] == lo:  # extend the open run
                lo = spans.pop()[0]
            spans.append((lo, hi))
        return spans


class Optimizer:
    """Base optimizer over a list of parameters.  A subclass names its
    per-element moment streams in ``_STATE`` and implements ``_update(p,
    grad, state, s1, s2)``: update one block of ``p`` in place given the
    block's moments (``state``) and two scratch blocks.

    The update must be elementwise over the arena: element ``i`` of the
    result may read only element ``i`` of the parameter, gradient and
    moments (plus scalars such as ``step_count``), never a block edge or
    a neighbour.  Blocking relies on it, and so does sharded data
    parallelism, where each rank updates arbitrary spans of the arena
    through :meth:`step_spans`; a subclass that overrides :meth:`step`
    breaks that silently, so ``fit_data_parallel`` rejects it."""

    _STATE: Tuple[str, ...] = ()

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float = 0.0) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr, self.weight_decay, self.step_count = lr, weight_decay, 0
        self._arenas: List[_Arena] = []

    def _adopt(self) -> None:
        """(Re)build the arenas around the current ``p.data`` arrays."""
        carried = {id(p): [st[lo:hi] for st in a.state]
                   for a in self._arenas for p, (lo, hi) in zip(a.params, a.bounds)}
        groups = groupby(arena_order(self.params), key=lambda p: p.data.dtype)
        self._arenas = [_Arena(list(ps), len(self._STATE), carried) for _, ps in groups]
        self._where = {id(p): (a, i) for a in self._arenas for i, p in enumerate(a.params)}

    def _adopted(self) -> List[_Arena]:
        """The arenas: built on first use, rebuilt after a rebind."""
        if not self._arenas or any(p.data is not v for a in self._arenas for p, v in zip(a.params, a.views)):
            self._adopt()
        return self._arenas

    def state(self, p: Tensor) -> Dict[str, np.ndarray]:
        """``p``'s moment buffers by stream name: views into the arena
        shaped like ``p`` (writing them writes the optimizer state)."""
        self._adopted()
        a, i = self._where[id(p)]
        (lo, hi), shape = a.bounds[i], a.views[i].shape
        return {n: st[lo:hi].reshape(shape) for n, st in zip(self._STATE, a.state)}

    def gather_grads(self, out: np.ndarray) -> None:
        """Copy every gradient into ``out`` in :func:`arena_order`, one
        slice per arena; a parameter without a grad reads zeros."""
        off = 0
        for a in self._adopted():
            a.runs(zero_missing=True)
            out[off:off + a.size] = a.grad
            off += a.size

    def scatter_grads(self, flat: np.ndarray) -> None:
        """Set every gradient from ``flat``, laid out as :meth:`gather_grads`
        writes it: one slice copy per arena."""
        off = 0
        for a in self._adopted():
            a.grad[...] = flat[off:off + a.size]
            for p, slot in zip(a.params, a.slots):
                p.grad = slot
            off += a.size

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _pieces(self, lo: int, hi: int) -> List[Tuple[_Arena, int, int, int]]:
        """The flat span ``[lo, hi)`` of the adopted arenas laid end to end
        (the :func:`arena_order` layout) cut at arena edges: ``(arena, lo,
        hi within it, the arena's flat offset)`` per arena it touches."""
        pieces, off = [], 0
        for a in self._arenas:
            s, e = max(lo, off), min(hi, off + a.size)
            if s < e:
                pieces.append((a, s - off, e - off, off))
            off += a.size
        return pieces

    def flat_views(self, lo: int, hi: int) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
        """``(flo, fhi, values, grads)`` per arena the flat span ``[lo,
        hi)`` touches: 1-D views of flat elements ``[flo, fhi)``."""
        self._adopted()
        return [(off + s, off + e, a.data[s:e], a.grad[s:e]) for a, s, e, off in self._pieces(lo, hi)]

    def step(self) -> None:
        """Update every run of parameters that has a gradient."""
        self._step_pieces([(a, lo, hi) for a in self._adopted() for lo, hi in a.runs()])

    def step_spans(self, spans: Iterable[Tuple[int, int]]) -> None:
        """One step over the flat ``[lo, hi)`` spans only, from the
        gradients their slots hold.  A span may cross from one dtype arena
        into the next.  The update is elementwise, so stepping any
        partition of the elements is bit-identical to one :meth:`step`
        over them."""
        self._adopted()
        self._step_pieces([(a, lo, hi) for span in spans for a, lo, hi, _ in self._pieces(*span)])

    def _step_pieces(self, pieces: List[Tuple[_Arena, int, int]]) -> None:
        """Advance ``step_count`` once; update each ``(arena, lo, hi)``
        in ``BLOCK``-element blocks."""
        self.step_count += 1
        for a, lo, hi in pieces:
            s1, s2, s3 = a.scratch
            for b0 in range(lo, hi, BLOCK):
                b1 = min(b0 + BLOCK, hi)
                n = b1 - b0
                p, g = a.data[b0:b1], a.grad[b0:b1]
                if self.weight_decay:  # grad + wd*p.data, staged: the grad stays untouched
                    g = np.add(np.multiply(p, self.weight_decay, out=s3[:n]), g, out=s3[:n])
                self._update(p, g, [st[b0:b1] for st in a.state], s1[:n], s2[:n])

    def grad_norm(self) -> float:
        """Global L2 norm of all gradients (diagnostics / clipping)."""
        sq = 0.0
        for p in self.params:
            if p.grad is not None:
                sq += float(np.sum(p.grad.astype(np.float64) ** 2))
        return float(np.sqrt(sq))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all grads so the global norm is at most ``max_norm``."""
        norm = self.grad_norm()
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class SGD(Optimizer):
    """SGD with optional (Nesterov) momentum."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01, momentum: float = 0.0,
                 nesterov: bool = False, weight_decay: float = 0.0) -> None:
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.momentum, self.nesterov = momentum, nesterov
        self._STATE = ("velocity",) if momentum else ()
        super().__init__(params, lr, weight_decay)

    def _update(self, p, grad, state, s1, s2) -> None:
        step = grad
        if self.momentum:
            (v,) = state
            v *= self.momentum
            v += grad
            step = v
            if self.nesterov:
                np.multiply(v, self.momentum, out=s1)  # momentum * v
                step = np.add(s1, grad, out=s1)        # grad + momentum * v
        np.multiply(step, self.lr, out=s1)
        p -= s1


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    _STATE = ("m", "v")

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _update(self, p, grad, state, s1, s2) -> None:
        m, v = state
        t = self.step_count
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)  # (1-b1) * grad
        m += s1
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s2)  # ((1-b2) * grad) * grad,
        np.multiply(s2, grad, out=s2)              # same factor order as ref
        v += s2
        np.divide(m, 1 - self.beta1 ** t, out=s1)  # m_hat
        np.divide(v, 1 - self.beta2 ** t, out=s2)  # v_hat
        np.multiply(s1, self.lr, out=s1)           # lr * m_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        p -= s1


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton)."""

    _STATE = ("sq",)

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3, rho: float = 0.9,
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.rho, self.eps = rho, eps

    def _update(self, p, grad, state, s1, s2) -> None:
        (sq,) = state
        sq *= self.rho
        np.multiply(grad, 1 - self.rho, out=s1)  # ((1-rho) * grad) * grad
        np.multiply(s1, grad, out=s1)
        sq += s1
        np.multiply(grad, self.lr, out=s1)       # lr * grad
        np.sqrt(sq, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        p -= s1


class AdaGrad(Optimizer):
    """AdaGrad — included for the HPO search-space experiments."""

    _STATE = ("acc",)

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01, eps: float = 1e-10, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.eps = eps

    def _update(self, p, grad, state, s1, s2) -> None:
        (acc,) = state
        np.multiply(grad, grad, out=s1)
        acc += s1
        np.multiply(grad, self.lr, out=s1)  # lr * grad
        np.sqrt(acc, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        p -= s1


OPTIMIZERS = {"sgd": SGD, "adam": Adam, "rmsprop": RMSProp, "adagrad": AdaGrad}


def get(name: str):
    try:
        return OPTIMIZERS[name]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}")
