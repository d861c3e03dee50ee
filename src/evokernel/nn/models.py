"""Operator model architectures.

SourceModel   u = (f ⊙ K(kappa)) @ G(x)^T : the quadrature-structured product
              network for the source-driven subproblem.  With the latent
              width equal to the sample count the f-branch is the identity,
              which makes the output exactly linear in f.  G's head is
              linear, so G = H W^T + 1 b^T has rank at most r + 1 (r the
              last hidden width); training and inference both apply it in
              that factored form and never form the dense N x N G.
BoundaryModel phi = Out[K(kappa) ⊙ Lin(g)] : boundary-density predictor whose
              g-branch and output head are single linear layers, so the map
              g -> phi is exactly affine for fixed kappa; inference folds it
              to phi = g M + c with M = W_g^T diag(kf) W_out^T and
              c = (b_g ⊙ kf) W_out^T + b_out.

Coupled-system variants reuse the same classes with doubled channel counts;
the coordinate network of the coupled source model receives a +-1 component
flag as a third input feature.
"""

from __future__ import annotations

import numpy as np

from . import engine as eg

__all__ = ["Mlp", "SourceModel", "BoundaryModel", "augmented_points"]


class Mlp:
    """Dense layers, weights of shape (out, in) with per-layer activation."""

    def __init__(self, weights, biases, activations):
        self.weights = weights
        self.biases = biases
        self.activations = list(activations)

    @classmethod
    def build(cls, dims, activations, rng):
        """dims = [in, h1, ..., out]; activation per layer: 'relu' | 'identity'.

        relu layers use Kaiming-uniform fan-in init, identity layers uniform
        +-1/sqrt(fan_in).
        """
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        ws, bs = [], []
        for i, act in enumerate(activations):
            fan_in, fan_out = dims[i], dims[i + 1]
            if act == "relu":
                bound = np.sqrt(6.0 / fan_in)
            elif act == "identity":
                bound = 1.0 / np.sqrt(fan_in)
            else:
                raise ValueError(f"unknown activation {act!r}")
            ws.append(eg.Parameter(rng.uniform(-bound, bound, size=(fan_out, fan_in))))
            bs.append(eg.Parameter(rng.uniform(-bound, bound, size=fan_out)))
        return cls(ws, bs, activations)

    @property
    def dims(self):
        return [self.weights[0].value.shape[1]] + [w.value.shape[0] for w in self.weights]

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x):
        """Graph-building forward; x may be a Tensor or a constant ndarray."""
        h = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = eg.dense(h, w, b, act == "relu")
        return h

    def predict(self, x):
        """Plain-numpy forward used outside training."""
        h = np.asarray(x, dtype=np.float64)
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = h @ w.value.T + b.value
            if act == "relu":
                np.maximum(h, 0.0, out=h)
        return h


def augmented_points(points):
    """Stack (x, y, +1) and (x, y, -1) rows for the coupled source model."""
    n = points.shape[0]
    flags = np.concatenate([np.ones(n), -np.ones(n)])
    return np.column_stack([np.vstack([points, points]), flags])


class SourceModel:
    """Product-structure solution operator for the zero-boundary source problem."""

    def __init__(self, points, nn_k, nn_g, coupled=False):
        self.points = np.asarray(points, dtype=np.float64)
        self.nn_k = nn_k
        self.nn_g = nn_g
        self.coupled = coupled
        self.n_samples = self.points.shape[0] * (2 if coupled else 1)
        if nn_k.dims[-1] != nn_g.dims[-1]:
            raise ValueError("kappa branch and coordinate branch widths differ")
        if nn_g.dims[-1] != self.n_samples:
            raise ValueError("latent width must equal the sample count (identity f-branch)")
        if nn_g.activations[-1] != "identity":
            raise ValueError("coordinate branch head must be linear (factored operator)")
        self._coords = augmented_points(self.points) if coupled else self.points

    @classmethod
    def build(cls, points, hidden_k, hidden_g, rng, coupled=False):
        n = points.shape[0] * (2 if coupled else 1)
        d = 3 if coupled else 2
        nn_k = Mlp.build([1] + list(hidden_k) + [n],
                         ["relu"] * len(hidden_k) + ["identity"], rng)
        nn_g = Mlp.build([d] + list(hidden_g) + [n],
                         ["relu"] * len(hidden_g) + ["identity"], rng)
        # the output contracts n latent channels; shrink the coordinate head
        # so initial predictions sit at the targets' scale instead of sqrt(n)
        # above it
        nn_g.weights[-1].value *= 1.0 / np.sqrt(n)
        nn_g.biases[-1].value *= 1.0 / np.sqrt(n)
        return cls(points, nn_k, nn_g, coupled=coupled)

    def parameters(self):
        return self.nn_k.parameters() + self.nn_g.parameters()

    def _split_g(self):
        """nn_g as (hidden layers, last-layer W, last-layer b), so that
        G = H_r W^T + 1 b^T with H_r the hidden layers' output."""
        g = self.nn_g
        head = Mlp(g.weights[:-1], g.biases[:-1], g.activations[:-1])
        return head, g.weights[-1], g.biases[-1]

    def forward(self, kappa_col, f):
        """Graph forward: kappa_col (m, 1), or one (1, 1) row shared by the
        batch, and f (m, N) are constants.

        Builds (f ⊙ kf) G^T as (a W) H_r^T + (a . b) 1^T with a = f ⊙ kf,
        the factored form that operator() uses; G itself is never formed."""
        head, w, b = self._split_g()
        a = eg.hadamard(f, self.nn_k.forward(kappa_col))
        hidden = head.forward(self._coords)
        return eg.factored_linear(a, w, b, hidden)

    def operator(self, kappa):
        """Rank-(r+1) factors (A, H) of the operator frozen at one kappa value.

        With _split_g's G = H_r W^T + 1 b^T (H_r the hidden layers' output,
        (N, r)), (f ⊙ kf) G^T = (f @ A) @ H^T with A = kf[:, None] * [W, b]
        and H = [H_r, 1], both (N, r + 1).
        """
        kf = self.nn_k.predict(np.array([[float(kappa)]]))[0]
        head, w, b = self._split_g()
        hidden = head.predict(self._coords)
        A = kf[:, None] * np.column_stack([w.value, b.value])
        H = np.column_stack([hidden, np.ones(hidden.shape[0])])
        return A, H

    def predict(self, kappa, f):
        """f: (N,) or (m, N) -> solution values of matching shape."""
        A, H = self.operator(kappa)
        return (np.asarray(f, dtype=np.float64) @ A) @ H.T


class BoundaryModel:
    """Boundary-density predictor trained on the integral-equation residual."""

    def __init__(self, nn_k, nn_g, nn_out):
        if not (nn_k.dims[-1] == nn_g.dims[-1]):
            raise ValueError("kappa and data branches must share the internal width")
        if nn_g.activations != ["identity"] or nn_out.activations != ["identity"]:
            raise ValueError("data branch and output head must be single linear layers")
        self.nn_k = nn_k
        self.nn_g = nn_g
        self.nn_out = nn_out

    @classmethod
    def build(cls, n_bd, rng, internal=None, coupled=False):
        """Defaults follow the reference setup: internal width 3 n_bd / 4 and a
        kappa branch with two relu hidden layers of the same width."""
        width = n_bd * (2 if coupled else 1)
        n_star = internal if internal is not None else (3 * width) // 4
        nn_k = Mlp.build([1, n_star, n_star, n_star], ["relu", "relu", "identity"], rng)
        nn_g = Mlp.build([width, n_star], ["identity"], rng)
        nn_out = Mlp.build([n_star, width], ["identity"], rng)
        return cls(nn_k, nn_g, nn_out)

    def parameters(self):
        return self.nn_k.parameters() + self.nn_g.parameters() + self.nn_out.parameters()

    def forward(self, kappa_col, g):
        kf = self.nn_k.forward(kappa_col)
        gf = self.nn_g.forward(g)
        return self.nn_out.forward(eg.hadamard(kf, gf))

    def operator(self, kappa):
        """The affine map g -> phi frozen at one kappa, as (M, c) with
        phi = g @ M + c: M = W_g^T diag(kf) W_out^T (width x width) and
        c = (b_g ⊙ kf) W_out^T + b_out."""
        kf = self.nn_k.predict(np.array([[float(kappa)]]))[0]
        (wg,), (bg,) = self.nn_g.weights, self.nn_g.biases
        (wo,), (bo,) = self.nn_out.weights, self.nn_out.biases
        M = (wg.value.T * kf) @ wo.value.T
        c = (bg.value * kf) @ wo.value.T + bo.value
        return M, c

    def predict(self, kappa, g):
        """g: (W,) or (m, W) boundary values -> densities of matching shape."""
        M, c = self.operator(kappa)
        return np.asarray(g, dtype=np.float64) @ M + c
