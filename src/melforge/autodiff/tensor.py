"""Tensor container and the reverse-mode differentiation engine.

Every traced operation produces a Tensor that remembers the vector-Jacobian
product (VJP) of its primitive, its parent tensors and any op-specific
context.  `grad` walks the part of that graph that leads to the requested
tensors in reverse topological order, once per node, calling each node's
VJP on numpy arrays.  VJPs record nothing, so the engine is first order;
the critic's gradient penalty gets its parameter gradient from first-order
passes (see ``train.critic_update``).

A graph is single-threaded during forward/backward; independent graphs may
live on different threads (all mode flags are thread-local).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def _default_dtype() -> np.dtype:
    return getattr(_state, "default_dtype", np.dtype(np.float32))


@contextlib.contextmanager
def set_grad_enabled(mode: bool):
    prev = _grad_enabled()
    _state.grad_enabled = mode
    try:
        yield
    finally:
        _state.grad_enabled = prev


def no_grad():
    """Context manager disabling graph recording (inference / plain numpy)."""
    return set_grad_enabled(False)


@contextlib.contextmanager
def using_dtype(dtype):
    """Context manager switching the default float dtype (tests use float64)."""
    prev = _default_dtype()
    _state.default_dtype = np.dtype(dtype)
    try:
        yield
    finally:
        _state.default_dtype = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "_vjp", "_parents", "_ctx")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(_default_dtype())
        self.data = arr
        self.requires_grad = requires_grad
        self._vjp: Callable | None = None
        self._parents: tuple[Tensor, ...] | None = None
        self._ctx: dict | None = None

    # -- inspection ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def as_tensor(x, dtype=None) -> Tensor:
    """Wrap ``x`` as a constant Tensor.  Float arrays keep their dtype
    unless one is forced; everything else takes the forced/default dtype."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind != "f":
        arr = arr.astype(_default_dtype())
    return Tensor(arr)


def coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands; plain scalars/arrays inherit the dtype
    of the Tensor operand so constants never change the computation dtype."""
    if isinstance(a, Tensor):
        return a, (b if isinstance(b, Tensor) else as_tensor(b, a.dtype))
    if isinstance(b, Tensor):
        return as_tensor(a, b.dtype), b
    return as_tensor(a), as_tensor(b)


def make_op_output(
    data: np.ndarray,
    vjp: Callable,
    parents: tuple[Tensor, ...],
    ctx: dict | None = None,
) -> Tensor:
    """Wrap an op result, recording the node when tracing is active.

    ``vjp(node, g, need)`` returns one gradient array (or None where
    ``need`` is False) per parent; it is the primitive's identity on the
    tape."""
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._vjp = vjp
        out._parents = parents
        out._ctx = ctx
    return out


def _live_order(root: Tensor, live: set[int]) -> list[Tensor]:
    """The interior nodes of the graph that lead to a tensor whose id is in
    ``live``, dependencies before dependents; ``live`` gains their ids."""
    order: list[Tensor] = []
    seen: set[int] = {id(root)}
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, idx = stack[-1]
        parents = node._parents
        if idx < len(parents):
            stack[-1] = (node, idx + 1)
            p = parents[idx]
            if p._vjp is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, 0))
        else:
            stack.pop()
            if id(node) in live or not live.isdisjoint(map(id, parents)):
                live.add(id(node))
                order.append(node)
    return order


def grad(loss: Tensor, wrt: Sequence[Tensor]) -> list[Tensor]:
    """Gradients of a scalar loss with respect to ``wrt`` tensors, as
    constant Tensors (zeros for a tensor the loss does not reach).

    One reverse sweep over numpy arrays, through the nodes that lead to a
    ``wrt`` tensor only: every other branch of the graph is skipped."""
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss._vjp is None:
        raise ValueError("loss was not recorded on the tape (leaf, constant or no_grad)")
    keep = {id(t) for t in wrt}
    live = {id(t) for t in wrt if t.requires_grad}
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_live_order(loss, live)):
        g = grads[id(node)] if id(node) in keep else grads.pop(id(node))
        need = [id(p) in live for p in node._parents]
        for p, wanted, pg in zip(node._parents, need, node._vjp(node, g, need)):
            if wanted:
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
    return [
        Tensor(grads[id(t)] if id(t) in grads else np.zeros_like(t.data)) for t in wrt
    ]
