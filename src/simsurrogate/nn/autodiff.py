"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every op records its parents and one backward function, which maps the
node's gradient to its parents' gradients in parent order; `backward` walks
the tape in reverse topological order and calls it once per node.
Broadcasting is supported; gradients are summed back to the parent's shape.

Each model layer and the loss is one `fused_node`, a hand-written backward
for several parents; the Tensor operators and `concat`, which also takes
plain ndarrays, join those nodes.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting, then over size-1 axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "parents", "backward_fn", "requires_grad")
    # numpy operators return NotImplemented, so `ndarray + Tensor` and
    # `ndarray @ Tensor` reach the reflected methods below and stay on the tape.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.parents = parents if self.requires_grad else ()
        self.backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    # -- graph construction helpers ---------------------------------------
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)
        return Tensor(self.data + other.data, parents=(self, other), backward_fn=lambda g: (
            _unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), backward_fn=lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return Tensor(self.data * other.data, parents=(self, other), backward_fn=lambda g: (
            _unbroadcast(g * other.data, self.data.shape),
            _unbroadcast(g * self.data, other.data.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return Tensor(self.data / other.data, parents=(self, other), backward_fn=lambda g: (
            _unbroadcast(g / other.data, self.data.shape),
            _unbroadcast(-g * self.data / other.data**2, other.data.shape)))

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        return Tensor(self.data @ other.data, parents=(self, other), backward_fn=lambda g: (
            _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.data.shape),
            _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)))

    __matmul__ = matmul

    def __rmatmul__(self, other):
        return self._coerce(other).matmul(self)

    def __getitem__(self, idx):
        def backward(g):
            out = np.zeros_like(self.data)
            out[idx] = g
            return (out,)

        return Tensor(self.data[idx], parents=(self,), backward_fn=backward)

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor(self.data.reshape(*shape), parents=(self,),
                      backward_fn=lambda g: (g.reshape(old),))

    def transpose(self, axes):
        inv = np.argsort(axes)
        return Tensor(self.data.transpose(axes), parents=(self,),
                      backward_fn=lambda g: (g.transpose(inv),))

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is None:
                return (np.full_like(self.data, g),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.data.shape).copy(),)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), backward_fn=backward)

    # -- backward ----------------------------------------------------------
    def backward(self, grad=None):
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            # An inner node starts from no gradient, so an earlier call's is not
            # passed on again; leaves keep accumulating.
            if node.parents:
                node.grad = None
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.asarray(grad, dtype=np.float64)
        for node in reversed(topo):
            if node.grad is None or not node.parents:
                continue
            for parent, g in zip(node.parents, node.backward_fn(node.grad)):
                if parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g


def concat(items: list, axis: int = -1):
    if not any(isinstance(t, Tensor) for t in items):
        return np.concatenate(items, axis=axis)
    tensors = tuple(Tensor._coerce(t) for t in items)
    bounds = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tensors,
                  backward_fn=lambda g: np.split(g, bounds, axis=axis))


def fused_node(data: np.ndarray, parents: list, backward) -> Tensor:
    """A tape node whose `backward(grad)` returns every parent's gradient in
    parent order.  Plain-ndarray parents become constant Tensors, which take
    no gradient."""
    return Tensor(data, parents=tuple(Tensor._coerce(t) for t in parents), backward_fn=backward)
