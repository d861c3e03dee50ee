"""Checkpoint files: an evokernel.container file with magic EVOKERNEL-CKPT/2.

Header fields: "kind", "arch" (dims and activations of each MLP, plus
"coupled" for models with sample points) and "metadata".  Arrays: each MLP's
weights and biases ("<mlp>.w<i>", "<mlp>.b<i>") and, for models with sample
points, "points".  The header and arrays reconstruct the model exactly, so
save -> load -> save is bit-identical.
"""

from __future__ import annotations

from .. import container
from . import engine as eg
from .models import BoundaryModel, Mlp, SourceModel

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_bytes"]

_MAGIC = b"EVOKERNEL-CKPT/2\n"

# kind -> (class, MLP attribute names in constructor order, whether the model
# has sample points and a coupled flag)
_KINDS = {
    "source": (SourceModel, ("nn_k", "nn_g"), True),
    "boundary": (BoundaryModel, ("nn_k", "nn_g", "nn_out"), False),
}


def _describe(model, metadata):
    """(header, arrays) of a model, in container form."""
    for kind, (cls, mlps, has_points) in _KINDS.items():
        if isinstance(model, cls):
            break
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    arch, arrays = {}, {}
    for name in mlps:
        m = getattr(model, name)
        arch[name] = {"dims": m.dims, "activations": m.activations}
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            arrays[f"{name}.w{i}"] = w.value
            arrays[f"{name}.b{i}"] = b.value
    if has_points:
        arch["coupled"] = model.coupled
        arrays["points"] = model.points
    return {"kind": kind, "arch": arch, "metadata": metadata or {}}, arrays


def checkpoint_bytes(model, metadata=None):
    return container.pack(_MAGIC, *_describe(model, metadata))


def save_checkpoint(model, path, metadata=None):
    """Writes the checkpoint; returns the file's sha256."""
    return container.write(path, _MAGIC, *_describe(model, metadata))


def _rebuild_mlp(arch, arrays, prefix):
    ws, bs = [], []
    for i in range(len(arch["activations"])):
        ws.append(eg.Parameter(arrays[f"{prefix}.w{i}"]))
        bs.append(eg.Parameter(arrays[f"{prefix}.b{i}"]))
    return Mlp(ws, bs, arch["activations"])


def load_checkpoint(path):
    """Returns (model, metadata)."""
    header, arrays = container.read(path, _MAGIC)
    kind, arch = header["kind"], header["arch"]
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")
    cls, mlps, has_points = _KINDS[kind]
    nets = [_rebuild_mlp(arch[name], arrays, name) for name in mlps]
    model = (cls(arrays["points"], *nets, coupled=arch["coupled"]) if has_points
             else cls(*nets))
    return model, header["metadata"]
