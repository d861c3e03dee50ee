"""Minimal reverse-mode engine over float64 numpy arrays.

Covers exactly the node types the operator models need: matmul_t (a @ b.T),
dense (one MLP layer, x @ w.T + b with an optional ReLU), factored_linear
(the source model's head, (a @ w) @ h.T + (a @ b) 1^T), hadamard (with
leading-axis broadcast) and squared_error (against a constant).  Constants
(training data, lattice coordinates, precomputed operators) are passed as
plain ndarrays; no backward forms a gradient for them.

Gradients move rather than copy: a backward hands each operand a freshly
computed array, which the operand's .grad takes over, and `backward`
releases every interior node's .grad once it has been propagated.  Leaves
keep their gradients; Parameter grads accumulate across backward calls
until zeroed.  Invariant: no node hands its incoming gradient to a parent
unchanged, so each gradient array has one holder, and dense masks the one it
receives in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "Parameter", "backward", "Adam", "matmul_t", "hadamard",
           "dense", "factored_linear", "squared_error"]


class Tensor:
    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.bwd = bwd


class Parameter(Tensor):
    """Trainable leaf; grad persists across backward calls until zeroed."""

    def __init__(self, value):
        # C order, so that Adam's flat views of the value write through
        super().__init__(np.require(value, np.float64, "C"))


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


def matmul_t(a, b):
    """a @ b.T."""
    av, bv = _val(a), _val(b)

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g @ bv)
        if isinstance(b, Tensor):
            _accum(b, g.T @ av)
    return Tensor(av @ bv.T, (a, b), bwd)


def dense(x, w, b, relu):
    """One MLP layer, x @ w.T + b, then a ReLU if relu is true.

    The bias add and the ReLU work in place on the product, which this node
    owns.  The ReLU keeps the entries with z > 0 and sets every other entry,
    -0.0 and NaN included, to +0.0."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    z = xv @ wv.T
    z += bv
    mask = None
    if relu:
        mask = z > 0.0
        np.copyto(z, 0.0, where=~mask)

    def bwd(g):
        if mask is not None:
            np.multiply(g, mask, out=g)
        if isinstance(b, Tensor):
            _accum(b, g.sum(axis=0))
        if isinstance(x, Tensor):
            _accum(x, g @ wv)
        if isinstance(w, Tensor):
            _accum(w, g.T @ xv)
    return Tensor(z, (x, w, b), bwd)


def factored_linear(a, w, b, h):
    """(a @ w) @ h.T + (a @ b)[:, None], which is a @ G.T for the linear head
    G = h w.T + 1 b.T, without forming G.  a is (m, n), w (n, r), b (n,) and
    h (k, r)."""
    av, wv, bv, hv = _val(a), _val(w), _val(b), _val(h)
    aw = av @ wv
    z = aw @ hv.T
    z += (av @ bv)[:, None]

    def bwd(g):
        s = g.sum(axis=1)
        if isinstance(b, Tensor):
            _accum(b, s @ av)
        if isinstance(h, Tensor):
            _accum(h, g.T @ aw)
        gaw = g @ hv
        if isinstance(a, Tensor):
            ga = gaw @ wv.T
            ga += np.outer(s, bv)
            _accum(a, ga)
        if isinstance(w, Tensor):
            _accum(w, av.T @ gaw)
    return Tensor(z, (a, w, b, h), bwd)


def hadamard(a, b):
    """Elementwise product; a row vector (1, n) broadcasts over (m, n)."""
    av, bv = _val(a), _val(b)

    def bwd(g):
        if isinstance(a, Tensor):
            ga = g * bv
            _accum(a, ga.sum(axis=0, keepdims=True) if av.shape != g.shape else ga)
        if isinstance(b, Tensor):
            gb = g * av
            _accum(b, gb.sum(axis=0, keepdims=True) if bv.shape != g.shape else gb)
    return Tensor(av * bv, (a, b), bwd)


def squared_error(x, c, scale):
    """scale * sum((x - c)^2) for a constant c (targets, boundary data), as a
    scalar-rooted loss node."""
    r = _val(x) - c

    def bwd(g):
        if isinstance(x, Tensor):
            _accum(x, (2.0 * scale * g) * r)
    return Tensor(np.float64(scale * np.sum(r * r)), (x,), bwd)


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


# elements per slice in Adam.step (256 KB of float64)
_ADAM_CHUNK = 32768


class Adam:
    """Standard Adam with bias correction; deterministic update order.

    The update runs in place with out= ufuncs, in the operation order of the
    textbook update
    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    p -= lr (m / b1t) / (sqrt(v / b2t) + eps),
    one slice of _ADAM_CHUNK elements of each parameter at a time, so that
    its fourteen passes and two scratch buffers stay in cache instead of
    streaming a 1681 x 256 weight through memory fourteen times.  Every
    operation is elementwise, so the result is bitwise the textbook one.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        size = min(max((p.value.size for p in self.params), default=0), _ADAM_CHUNK)
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
        for param, m_param, v_param in zip(self.params, self.m, self.v):
            if param.grad is None:
                continue
            if not param.value.flags.c_contiguous:
                raise ValueError("Adam needs C-contiguous parameter values")
            flat = [a.reshape(-1) for a in (param.value, param.grad, m_param, v_param)]
            for i in range(0, m_param.size, _ADAM_CHUNK):
                p, g, m, v = (a[i:i + _ADAM_CHUNK] for a in flat)
                t1, t2 = (buf[:m.size] for buf in self._scratch)
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
                np.subtract(p, t2, out=p)
