"""Minimal dense reverse-mode differentiation engine with an Adam optimizer.

Tensors hold 2-D float64 arrays. Each op returns a new Tensor carrying the
backward rule for its inputs; Tensor.backward() replays the recorded graph
in reverse topological order. Rules compute gradients only for inputs that
require them, and an interior tensor's gradient is released as soon as its
rule has run, so only the leaves (the parameters) hold a grad afterwards.
This is deliberately small: just the primitives needed for graph encoders
trained full-batch on one machine.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _as2d(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("tensors must be at most 2-D")
    return arr


class Tensor:
    """A 2-D value plus the backward rule that produced it."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False,
                 parents: Sequence["Tensor"] = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.values = _as2d(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.values.reshape(()))

    def backward(self) -> None:
        """Populate grads of all reachable requires_grad leaves.

        Must be called on a scalar (single-element) tensor. Each interior
        tensor's grad is set back to None once its backward rule has run,
        so the pass holds at most the grads still waiting to be propagated,
        and the leaves (tensors built without a rule, such as parameters)
        are the only ones left with a grad. Repeated calls without zeroing
        accumulate into the leaves' grads.
        """
        if self.values.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        _accumulate(self, np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # grads are never updated in place, so an interior tensor may keep g
    # itself even when g is shared; a leaf gets its own copy, so no two
    # parameters hold the same array
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad = t.grad + g
    elif t._backward is None:
        t.grad = g.copy()
    else:
        t.grad = g


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out_values = a.values @ b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return Tensor(out_values, parents=(a, b), backward=backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_values = a.values + b.values  # numpy broadcasting rules

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(out_values, parents=(a, b), backward=backward)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    if bias.shape[0] != 1 or bias.shape[1] != x.shape[1]:
        raise ValueError(f"bias shape {bias.shape} incompatible with {x.shape}")
    return add(x, bias)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_values = a.values * b.values

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return Tensor(out_values, parents=(a, b), backward=backward)


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0
    return Tensor(np.where(mask, x.values, 0.0), parents=(x,),
                  backward=lambda g: _accumulate(x, g * mask))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.values > 0
    scale = np.where(mask, 1.0, slope)
    return Tensor(x.values * scale, parents=(x,),
                  backward=lambda g: _accumulate(x, g * scale))


def sigmoid(x: Tensor) -> Tensor:
    y = np.where(x.values >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(x.values))),
                 np.exp(-np.abs(x.values)) / (1.0 + np.exp(-np.abs(x.values))))
    return Tensor(y, parents=(x,),
                  backward=lambda g: _accumulate(x, g * y * (1.0 - y)))


def reciprocal_1p(x: Tensor) -> Tensor:
    """Elementwise x -> 1 / (1 + x)."""
    y = 1.0 / (1.0 + x.values)
    return Tensor(y, parents=(x,),
                  backward=lambda g: _accumulate(x, -g * y * y))


def row_gather(x: Tensor, index: np.ndarray) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError("row index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise ValueError("row index out of range")
    out_values = x.values[index]

    def backward(g):
        gx = np.zeros_like(x.values)
        np.add.at(gx, index, g)
        _accumulate(x, gx)

    return Tensor(out_values, parents=(x,), backward=backward)


def _check_segments(x: Tensor, segments: np.ndarray, num_segments: int) -> np.ndarray:
    segments = np.asarray(segments, dtype=np.int64)
    if segments.ndim != 1 or segments.size != x.shape[0]:
        raise ValueError("segment ids must be 1-D and match the row count")
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise ValueError("segment id out of range")
    return segments


def segment_sum(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Row-wise sum of x into num_segments buckets; empty buckets are zero."""
    segments = _check_segments(x, segments, num_segments)
    out_values = np.zeros((num_segments, x.shape[1]))
    np.add.at(out_values, segments, x.values)
    return Tensor(out_values, parents=(x,),
                  backward=lambda g: _accumulate(x, g[segments]))


def segment_softmax(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of a column vector within each segment.

    Outputs are strictly positive and sum to one per non-empty segment;
    segments with no entries simply produce no output rows.
    """
    if x.shape[1] != 1:
        raise ValueError("segment_softmax expects a column vector")
    segments = _check_segments(x, segments, num_segments)
    vals = x.values[:, 0]
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, vals)
    shifted = np.exp(vals - seg_max[segments]) if vals.size else vals
    denom = np.bincount(segments, weights=shifted, minlength=num_segments)
    soft = (shifted / denom[segments]) if vals.size else vals

    def backward(g):
        gcol = g[:, 0]
        dot = np.bincount(segments, weights=gcol * soft, minlength=num_segments)
        _accumulate(x, (soft * (gcol - dot[segments])).reshape(-1, 1))

    return Tensor(soft.reshape(-1, 1), parents=(x,), backward=backward)


def segment_prod(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Product of a strictly-positive column vector within each segment.

    Empty segments yield the empty product 1. Positivity is required so the
    backward rule can divide the segment product by each entry.
    """
    if x.shape[1] != 1:
        raise ValueError("segment_prod expects a column vector")
    if np.any(x.values <= 0):
        raise ValueError("segment_prod requires strictly positive inputs")
    segments = _check_segments(x, segments, num_segments)
    vals = x.values[:, 0]
    prod = np.ones(num_segments)
    np.multiply.at(prod, segments, vals)

    def backward(g):
        gcol = g[:, 0]
        _accumulate(x, (gcol[segments] * prod[segments] / vals).reshape(-1, 1))

    return Tensor(prod.reshape(-1, 1), parents=(x,), backward=backward)


def reduce_sum(x: Tensor) -> Tensor:
    return Tensor(np.array([[x.values.sum()]]), parents=(x,),
                  backward=lambda g: _accumulate(x, np.full_like(x.values, g[0, 0])))


class ParamStore:
    """Named trainable tensors plus per-parameter Adam state."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._step = 0

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        self._params[name] = tensor
        self._adam_m[name] = np.zeros_like(tensor.values)
        self._adam_v[name] = np.zeros_like(tensor.values)
        return tensor

    def glorot(self, name: str, rows: int, cols: int) -> Tensor:
        limit = np.sqrt(6.0 / (rows + cols))
        values = self.rng.uniform(-limit, limit, size=(rows, cols))
        return self._register(name, Tensor(values, requires_grad=True))

    def zeros(self, name: str, rows: int, cols: int) -> Tensor:
        return self._register(name, Tensor(np.zeros((rows, cols)), requires_grad=True))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def adam_step(store: ParamStore, lr: float = 0.01, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam update with bias correction; gradients are zeroed afterwards."""
    store._step += 1
    t = store._step
    for name, param in store.items():
        g = param.grad if param.grad is not None else np.zeros_like(param.values)
        m = store._adam_m[name]
        v = store._adam_v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        param.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    store.zero_grad()
