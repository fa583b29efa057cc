"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every op records its parents and a gradient closure; `backward` walks the
tape in reverse topological order.  Broadcasting is supported; gradients are
summed back to the parent's shape.

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
    __slots__ = ("data", "grad", "parents", "grad_fns", "requires_grad")
    # numpy operators return NotImplemented, so `ndarray + Tensor` and
    # `ndarray @ Tensor` reach the reflected methods below and stay on the tape.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, parents=(), grad_fns=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.parents = parents if self.requires_grad else ()
        self.grad_fns = grad_fns if self.requires_grad else ()

    @property
    def shape(self):
        return self.data.shape

    # -- graph construction helpers ---------------------------------------
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)
        return Tensor(
            self.data + other.data,
            parents=(self, other),
            grad_fns=(
                lambda g: _unbroadcast(g, self.data.shape),
                lambda g: _unbroadcast(g, other.data.shape),
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), grad_fns=(lambda g: -g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return Tensor(
            self.data * other.data,
            parents=(self, other),
            grad_fns=(
                lambda g: _unbroadcast(g * other.data, self.data.shape),
                lambda g: _unbroadcast(g * self.data, other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return Tensor(
            self.data / other.data,
            parents=(self, other),
            grad_fns=(
                lambda g: _unbroadcast(g / other.data, self.data.shape),
                lambda g: _unbroadcast(-g * self.data / other.data**2, other.data.shape),
            ),
        )

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out = self.data @ other.data

        def grad_a(g):
            return _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.data.shape)

        def grad_b(g):
            return _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)

        return Tensor(out, parents=(self, other), grad_fns=(grad_a, grad_b))

    __matmul__ = matmul

    def __rmatmul__(self, other):
        return self._coerce(other).matmul(self)

    def __getitem__(self, idx):
        def grad(g):
            out = np.zeros_like(self.data)
            out[idx] = g
            return out

        return Tensor(self.data[idx], parents=(self,), grad_fns=(grad,))

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor(self.data.reshape(*shape), parents=(self,),
                      grad_fns=(lambda g: g.reshape(old),))

    def transpose(self, axes):
        inv = np.argsort(axes)
        return Tensor(self.data.transpose(axes), parents=(self,),
                      grad_fns=(lambda g: g.transpose(inv),))

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            if axis is None:
                return np.full_like(self.data, g)
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, self.data.shape).copy()

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), grad_fns=(grad,))

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
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.asarray(grad, dtype=np.float64)
        for node in reversed(topo):
            if node.grad is None:
                continue
            for parent, fn in zip(node.parents, node.grad_fns):
                if not parent.requires_grad:
                    continue
                g = fn(node.grad)
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g


def concat(items: list, axis: int = -1):
    if not any(isinstance(t, Tensor) for t in items):
        return np.concatenate(items, axis=axis)
    tensors = [Tensor._coerce(t) for t in items]
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_grad(i):
        def grad(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(sl)]

        return grad

    return Tensor(out, parents=tuple(tensors),
                  grad_fns=tuple(make_grad(i) for i in range(len(tensors))))


def fused_node(data: np.ndarray, parents: list, backward) -> Tensor:
    """A tape node whose parents' gradients all come from one call to
    `backward(grad)`, which returns them in parent order; the call is made
    once per incoming grad and shared among the parents."""
    tensors = tuple(Tensor._coerce(t) for t in parents)
    memo: list = [None, None]

    def make_grad(i):
        def grad(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, backward(g)
            return memo[1][i]

        return grad

    return Tensor(data, parents=tensors,
                  grad_fns=tuple(make_grad(i) for i in range(len(tensors))))

