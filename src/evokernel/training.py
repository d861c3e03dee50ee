"""Training loops and error reporting for the operator models.

Boundary models minimize the self-supervised integral-equation residual

    (1 / (M N_bd)) sum_i || phi_i / 2 + Ktilde (omega phi_i) - g_i ||^2

built from the same residual operator the classical solver uses, so a loss
value can be recomputed after the fact through bie.bie_residual on the same
batch and matches to the last bit.  Source models minimize
plain mean squared error against solver labels.

Each optimizer step draws one kappa uniformly and a batch of records for it,
which samples the (kappa, g) product set uniformly over steps while keeping
a single residual operator per step.  All randomness flows from the config
seed; two runs of one config produce bit-identical checkpoints.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import bie
from .nn import Adam, SourceModel, BoundaryModel, engine as eg

__all__ = ["TrainConfig", "DivergenceError", "train_boundary_model",
           "train_source_model", "boundary_loss",
           "error_metrics", "training_error"]


@dataclass
class TrainConfig:
    epochs: int = 20000
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay: float = 0.5       # multiplied in at each quarter of the run
    seed: int = 0
    hidden_k: tuple = (192, 192)
    hidden_g: tuple = (256, 256)
    internal: int | None = None  # boundary-model internal width (default 3 n/4)
    log_every: int = 500

    def __post_init__(self):
        for name in ("epochs", "batch_size", "log_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "lr_decay"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.epochs <= 0 or self.batch_size <= 0 or not self.lr > 0:
            raise ValueError("epochs, batch_size and lr must be positive")
        if self.log_every < 1:
            raise ValueError(f"log_every must be at least 1, got {self.log_every}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")


class DivergenceError(RuntimeError):
    def __init__(self, step, snapshot):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step
        self.last_good = snapshot


def _snapshot(params):
    return [p.value.copy() for p in params]


def _train_loop(model, cfg, dataset, rng, loss_fn):
    """Shared loop: each step draws one kappa index ik and a batch of distinct
    positions rows among the dataset's per_kappa records from rng and
    minimizes loss_fn(ik, rows); lr schedule, loss trace, NaN guard with
    last-good params.  Returns the info dict."""
    n_kappas, m = len(dataset.kappas), dataset.per_kappa
    t0 = time.perf_counter()
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    trace = []
    snapshot = _snapshot(params)
    quarter = max(cfg.epochs // 4, 1)
    for step in range(cfg.epochs):
        opt.lr = cfg.lr * (cfg.lr_decay ** (step // quarter))
        opt.zero_grad()
        ik = int(rng.integers(0, n_kappas))
        rows = rng.choice(m, size=min(cfg.batch_size, m), replace=False)
        loss = loss_fn(ik, rows)
        if not np.isfinite(float(loss.value)):
            raise DivergenceError(step, snapshot)
        eg.backward(loss)
        opt.step()
        if step % cfg.log_every == 0 or step == cfg.epochs - 1:
            trace.append((step, float(loss.value)))
        # a snapshot after the last step could never be returned
        if (step + 1) % quarter == 0 and step + 1 < cfg.epochs:
            snapshot = _snapshot(params)
    return {"loss_trace": trace, "train_seconds": time.perf_counter() - t0,
            "final_loss": trace[-1][1], "seed": cfg.seed, "epochs": cfg.epochs}


def _boundary_loss_graph(model, B, kappa, g):
    """The self-supervised loss graph; the residual matrix B comes from
    bie.residual_operator, so this is the exact expression bie_residual
    evaluates.  The batch shares one kappa, so nn_k runs on a single row
    that broadcasts over it."""
    phi = model.forward(np.full((1, 1), kappa), g)
    return eg.squared_error(eg.dense(phi, B, 0.0, relu=False), g, 1.0 / (g.shape[0] * g.shape[1]))


def boundary_loss(model, kmat, kappa, g):
    """Loss value for one batch exactly as the trainer computes it."""
    return float(_boundary_loss_graph(model, bie.residual_operator(kmat),
                                      kappa, g).value)


def train_boundary_model(cfg, dataset, kmats, model=None):
    """Train a boundary-density model on the residual loss.

    kmats: one kernel matrix per dataset kappa, in order.  Returns
    (model, info) where info carries the loss trace and provenance.
    """
    if dataset.g is None:
        raise ValueError("boundary training expects a boundary dataset")
    rng = np.random.default_rng([cfg.seed, 0xB7])
    if model is None:
        model = BoundaryModel.build(kmats[0].grid.n, rng, internal=cfg.internal,
                                    coupled=kmats[0].kind == "system")
    ops = [bie.residual_operator(km) for km in kmats]

    def loss_fn(ik, rows):
        return _boundary_loss_graph(model, ops[ik], dataset.kappas[ik], dataset.g[rows])

    return model, _train_loop(model, cfg, dataset, rng, loss_fn)


def train_source_model(cfg, dataset, points, model=None):
    """Train the product-structure source model with MSE loss; records of
    2 len(points) values, [real | imaginary], train a coupled model."""
    if dataset.f is None:
        raise ValueError("source training expects a supervised dataset")
    rng = np.random.default_rng([cfg.seed, 0x50])
    if model is None:
        model = SourceModel.build(points, list(cfg.hidden_k), list(cfg.hidden_g), rng,
                                  coupled=dataset.f.shape[-1] == 2 * len(points))

    def loss_fn(ik, rows):
        # one kappa row broadcasts over the batch, as in _boundary_loss_graph
        kappa = np.full((1, 1), dataset.kappas[ik])
        pred = model.forward(kappa, dataset.f[ik, rows])
        # the target is copied after the forward: copied before it, the heap
        # was trimmed and faulted back in each step (6.4k faults at paper size)
        u = dataset.u[ik, rows]
        return eg.squared_error(pred, u, 1.0 / u.size)

    return model, _train_loop(model, cfg, dataset, rng, loss_fn)


def error_metrics(pred, ref):
    """The four table metrics, absolute/relative L2 and max norms, plus
    ref_l2, the reference's L2 norm.

    L2 here is the discrete root-mean-square over all entries, relative
    errors divide by the matching norm of the reference, and complex fields
    are measured by modulus.  A stepper's error-trace row is t plus this dict.
    """
    pred, ref = np.asarray(pred), np.asarray(ref)
    dtype = np.result_type(pred, ref, np.float64)
    ref = np.asarray(ref, dtype).ravel()
    diff = np.abs(np.asarray(pred, dtype).ravel() - ref)
    ref = np.abs(ref)
    abs_l2 = float(np.sqrt(np.mean(diff**2)))
    abs_linf = float(np.max(diff))
    ref_l2 = float(np.sqrt(np.mean(ref**2)))
    ref_linf = float(np.max(ref))
    return {
        "abs_l2": abs_l2,
        "abs_linf": abs_linf,
        "rel_l2": abs_l2 / ref_l2 if ref_l2 > 0 else np.inf,
        "rel_linf": abs_linf / ref_linf if ref_linf > 0 else np.inf,
        "ref_l2": ref_l2,
    }


def training_error(model, dataset, kmats=None):
    """(metric, per-kappa values) of a trained model on its training set:
    relative L2 against the labels, or, for a boundary model (kmats given,
    one per kappa), the relative BIE residual ||bie_residual|| / ||g||."""
    values, g = [], dataset.g         # every kappa's boundary records are all of g
    for ik, kappa in enumerate(dataset.kappas):
        if kmats is None:
            pred = model.predict(kappa, dataset.f[ik])
            values.append(error_metrics(pred, dataset.u[ik])["rel_l2"])
        else:
            resid = bie.bie_residual(kmats[ik], model.predict(kappa, g), g)
            values.append(float(np.linalg.norm(resid) / np.linalg.norm(g)))
    return ("rel_l2" if kmats is None else "rel_bie_residual"), values
