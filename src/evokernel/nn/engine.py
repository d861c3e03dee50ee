"""Minimal reverse-mode engine over float64 numpy arrays.

Covers exactly the node types the operator models need: matmul (plain and
transposed), bias add, row-dot add (x + (a @ b) 1^T, the bias column of a
factored linear head), relu, Hadamard product (with leading-axis
broadcast), subtraction against constants, and sum-of-squares losses.
Constants (training data, lattice coordinates, precomputed operators) are
passed as plain ndarrays; no backward forms a gradient for them.

Gradients move rather than copy: a backward hands each operand a freshly
computed array, which the operand's .grad takes over, and `backward`
releases every interior node's .grad once it has been propagated, so a
gradient passed straight through (bias add, constant subtraction) is held
by one node only.  Leaves keep their gradients; Parameter grads accumulate
across backward calls until zeroed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "Parameter", "matmul", "matmul_t", "add_bias", "add_row_dot",
           "relu", "hadamard", "sub_const", "add_scalars", "sum_squares", "backward",
           "Adam"]


class Tensor:
    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.bwd = bwd

    @property
    def shape(self):
        return self.value.shape


class Parameter(Tensor):
    """Trainable leaf; grad persists across backward calls until zeroed."""

    def __init__(self, value):
        super().__init__(np.asarray(value, dtype=np.float64))


def _val(x):
    return x.value if isinstance(x, Tensor) else x


def _accum(node, g):
    """Add g to node.grad; a first gradient is taken over, not copied, so g
    must be an array that nothing else holds."""
    if not isinstance(node, Tensor):
        return
    if node.grad is None:
        node.grad = np.asarray(g, dtype=np.float64)
    else:
        node.grad += g


def matmul(a, b):
    """a @ b with grads to whichever operands are tensors."""
    av, bv = _val(a), _val(b)
    out = Tensor(av @ bv, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g @ bv.T)
        if isinstance(b, Tensor):
            _accum(b, av.T @ g)
    out.bwd = bwd
    return out


def matmul_t(a, b):
    """a @ b.T."""
    av, bv = _val(a), _val(b)
    out = Tensor(av @ bv.T, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g @ bv)
        if isinstance(b, Tensor):
            _accum(b, g.T @ av)
    out.bwd = bwd
    return out


def add_bias(x, b):
    """x + b broadcast over rows."""
    xv, bv = _val(x), _val(b)
    out = Tensor(xv + bv, parents=(x, b))

    def bwd(g):
        _accum(x, g)
        if isinstance(b, Tensor):
            _accum(b, g.sum(axis=0) if g.ndim > bv.ndim else g.copy())
    out.bwd = bwd
    return out


def add_row_dot(x, a, b):
    """x + (a @ b)[:, None]: row i of x plus the dot product a_i . b in every
    column.  x and a are (m, n), b is (n,)."""
    av, bv = _val(a), _val(b)
    out = Tensor(_val(x) + (av @ bv)[:, None], parents=(x, a, b))

    def bwd(g):
        s = g.sum(axis=1)
        if isinstance(a, Tensor):
            _accum(a, np.outer(s, bv))
        if isinstance(b, Tensor):
            _accum(b, s @ av)
        _accum(x, g)
    out.bwd = bwd
    return out


def relu(x):
    xv = _val(x)
    mask = xv > 0.0
    out = Tensor(np.where(mask, xv, 0.0), parents=(x,))

    def bwd(g):
        if isinstance(x, Tensor):
            _accum(x, g * mask)
    out.bwd = bwd
    return out


def hadamard(a, b):
    """Elementwise product; a row vector (1, n) broadcasts over (m, n)."""
    av, bv = _val(a), _val(b)
    out = Tensor(av * bv, parents=(a, b))

    def bwd(g):
        if isinstance(a, Tensor):
            ga = g * bv
            _accum(a, ga.sum(axis=0, keepdims=True) if av.shape != g.shape else ga)
        if isinstance(b, Tensor):
            gb = g * av
            _accum(b, gb.sum(axis=0, keepdims=True) if bv.shape != g.shape else gb)
    out.bwd = bwd
    return out


def sub_const(x, c):
    """x - c for constant c (targets, boundary data)."""
    out = Tensor(_val(x) - c, parents=(x,))

    def bwd(g):
        _accum(x, g)
    out.bwd = bwd
    return out


def sum_squares(x, scale=1.0):
    """scale * sum(x_ij^2) as a scalar-rooted loss node."""
    xv = _val(x)
    out = Tensor(np.float64(scale * np.sum(xv * xv)), parents=(x,))

    def bwd(g):
        if isinstance(x, Tensor):
            _accum(x, (2.0 * scale * g) * xv)
    out.bwd = bwd
    return out


def add_scalars(nodes):
    """Sum of scalar loss nodes (per-group losses within one batch)."""
    out = Tensor(np.float64(sum(float(_val(n)) for n in nodes)), parents=tuple(nodes))

    def bwd(g):
        for n in nodes:
            _accum(n, np.array(g, dtype=np.float64))
    out.bwd = bwd
    return out


def backward(root):
    """Reverse-mode sweep from a scalar-rooted node (iterative topo order)."""
    if np.ndim(root.value) != 0:
        raise ValueError("backward requires a scalar-rooted graph")
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if isinstance(p, Tensor) and id(p) not in visited:
                stack.append((p, False))
    root.grad = np.float64(1.0)
    for node in reversed(order):
        if node.bwd is not None and node.grad is not None:
            grad, node.grad = node.grad, None
            node.bwd(grad)


class Adam:
    """Standard Adam with bias correction; deterministic update order.

    Moments are updated in place with out= ufuncs, through two scratch
    buffers sized for the largest parameter, in the operation order of the
    textbook update
    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    p -= lr (m / b1t) / (sqrt(v / b2t) + eps),
    so the result is bitwise that of the allocating form.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        size = max((p.value.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        if all(p.grad is None for p in self.params):
            return
        self.t += 1
        b1t = 1.0 - self.b1 ** self.t
        b2t = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            t1, t2 = (buf[:m.size].reshape(m.shape) for buf in self._scratch)
            np.multiply(m, self.b1, out=m)
            np.multiply(g, 1.0 - self.b1, out=t1)
            np.add(m, t1, out=m)
            np.multiply(v, self.b2, out=v)
            np.multiply(g, 1.0 - self.b2, out=t1)
            np.multiply(t1, g, out=t1)
            np.add(v, t1, out=v)
            np.divide(v, b2t, out=t1)
            np.sqrt(t1, out=t1)
            np.add(t1, self.eps, out=t1)
            np.divide(m, b1t, out=t2)
            np.multiply(t2, self.lr, out=t2)
            np.divide(t2, t1, out=t2)
            np.subtract(p.value, t2, out=p.value)
