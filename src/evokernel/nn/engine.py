"""Minimal reverse-mode engine over float64 numpy arrays.

Covers exactly the node types the operator models need: matmul_t (a @ b.T),
dense (one MLP layer, x @ w.T + b with an optional ReLU), factored_linear
(the source model's head, (a @ w) @ h.T + (a @ b) 1^T), hadamard (with
leading-axis broadcast) and squared_error (against a constant).  Constants
(training data, lattice coordinates, precomputed operators) are passed as
plain ndarrays; no backward forms a gradient for them.

Gradients move rather than copy: a backward hands each operand an array that
nothing else holds, which the operand's .grad takes over.  Where the shapes
allow, the array is one the node owns: squared_error's residual, the
gradient hadamard received, or the node's own value, which nothing reads
once the node's backward runs, since every consumer has propagated before
it.  Invariant: no node hands its incoming gradient to a parent unchanged,
so each gradient array has one holder, and dense masks the one it receives
in place.

`backward` therefore consumes the graph: interior values read None after it,
and a second sweep of the same graph is refused.  The root keeps its value
(the loss); leaves, Parameters and constant Tensors, keep value and grad,
and Parameter grads accumulate across backward calls until zeroed.  The
interior arrays stay referenced until the caller drops the root: freed
during the sweep, they let glibc trim its heap, and a training loop's next
forward faulted it back in (about 4k faults a step at paper size).

dense's ReLU clamps with fmax then + 0.0, bitwise the masked copy
where(z > 0, z, +0.0) at a fraction of its cost (see _relu).
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


def _own(value, shape):
    """A node's own value as the out= of a gradient of the given shape, or
    None, a fresh array, if the shapes differ."""
    return value if value.shape == shape else None


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
    z = av @ bv.T

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, np.matmul(g, bv, out=_own(z, av.shape)))
        if isinstance(b, Tensor):
            _accum(b, g.T @ av)
    return Tensor(z, (a, b), bwd)


def _relu(z):
    """Sets z in place to where(z > 0, z, +0.0), bitwise, and returns the mask
    z > 0.  fmax sends negatives and NaN to +0.0 but may keep a -0.0 (its SIMD
    tail loops do); adding +0.0 makes that +0.0 and keeps every other entry."""
    mask = z > 0.0
    np.fmax(z, 0.0, out=z)
    np.add(z, 0.0, out=z)
    return mask


def dense(x, w, b, relu):
    """One MLP layer, x @ w.T + b, then a ReLU if relu is true.

    The bias add and the ReLU work in place on the product, which this node
    owns.  The ReLU keeps the entries with z > 0 and sets every other entry,
    -0.0 and NaN included, to +0.0."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    z = xv @ wv.T
    z += bv
    mask = _relu(z) if relu else None

    def bwd(g):
        if mask is not None:
            np.multiply(g, mask, out=g)
        if isinstance(b, Tensor):
            _accum(b, g.sum(axis=0))
        if isinstance(x, Tensor):
            _accum(x, np.matmul(g, wv, out=_own(z, xv.shape)))
        if isinstance(w, Tensor):
            # from one input row each entry is one product: the K = 1 GEMM's
            _accum(w, np.outer(g, xv) if xv.shape[0] == 1 else g.T @ xv)
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
            ga = np.matmul(gaw, wv.T, out=_own(z, av.shape))
            ga += np.outer(s, bv)
            _accum(a, ga)
        if isinstance(w, Tensor):
            _accum(w, av.T @ gaw)
    return Tensor(z, (a, w, b, h), bwd)


def hadamard(a, b):
    """Elementwise product; a row vector (1, n) broadcasts over (m, n)."""
    av, bv = _val(a), _val(b)
    z = av * bv

    def bwd(g):
        # g and z are this node's own: a's gradient goes to z when b's
        # still needs g, and the last operand's to g
        if isinstance(a, Tensor):
            ga = np.multiply(g, bv, out=z if isinstance(b, Tensor) else g)
            _accum(a, ga.sum(axis=0, keepdims=True) if av.shape != g.shape else ga)
        if isinstance(b, Tensor):
            gb = np.multiply(g, av, out=g)
            _accum(b, gb.sum(axis=0, keepdims=True) if bv.shape != g.shape else gb)
    return Tensor(z, (a, b), bwd)


def squared_error(x, c, scale):
    """scale * sum((x - c)^2) for a constant c (targets, boundary data), as a
    scalar-rooted loss node."""
    r = _val(x) - c

    def bwd(g):
        if isinstance(x, Tensor):
            _accum(x, np.multiply(r, 2.0 * scale * g, out=r))
    return Tensor(np.float64(scale * np.sum(r * r)), (x,), bwd)


def backward(root):
    """Reverse-mode sweep from a scalar-rooted node (iterative topo order);
    consumes the graph's interior values."""
    if np.ndim(root.value) != 0:
        raise ValueError("backward requires a scalar-rooted graph")
    if root.bwd is None and root.parents:
        raise ValueError("backward already ran on this graph")
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
        if node.bwd is None:
            continue
        if node.grad is not None:
            grad, node.grad = node.grad, None
            node.bwd(grad)
        if node is not root:
            node.value = None         # its array may hold a gradient now
    root.bwd = None


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
