"""Checkpoint files: an evokernel.container file with magic EVOKERNEL-CKPT/2.

Header fields: "kind", "arch" (dims and activations of each MLP) and
"metadata".  Arrays: each MLP's weights and biases ("<mlp>.w<i>",
"<mlp>.b<i>") and, for source models, "points".  The header and arrays
reconstruct the model exactly, so save -> load -> save is bit-identical.  A
source model's kind, scalar or coupled, is its coordinate branch's input
width; files of older versions also hold arch["coupled"], which a load
ignores and a save does not write.  A load takes the arrays' names and shapes
from arch's dims and refuses every other file, one with a non-finite array
included.
"""

from __future__ import annotations

import numpy as np

from .. import container
from . import engine as eg
from .models import BoundaryModel, Mlp, SourceModel

__all__ = ["save_checkpoint", "load_checkpoint"]

_MAGIC = b"EVOKERNEL-CKPT/2\n"

# kind -> (class, MLP attribute names in constructor order, whether the model
# has sample points)
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
        arrays["points"] = model.points
    return {"kind": kind, "arch": arch, "metadata": metadata or {}}, arrays


def save_checkpoint(model, path, metadata=None):
    """Writes the checkpoint; returns the file's sha256."""
    return container.write(path, _MAGIC, *_describe(model, metadata))


def _rebuild_mlp(arch, arrays, prefix):
    layers = range(len(arch["dims"]) - 1)
    return Mlp([eg.Parameter(arrays[f"{prefix}.w{i}"]) for i in layers],
               [eg.Parameter(arrays[f"{prefix}.b{i}"]) for i in layers],
               arch["activations"])


def _is_mlp_entry(entry):
    """Whether an arch entry lists an MLP's dims, at least two, and activations."""
    return (isinstance(entry, dict) and isinstance(entry.get("activations"), list)
            and isinstance(entry.get("dims"), list) and len(entry["dims"]) >= 2)


def _rebuild(header, arrays):
    """The model of a checkpoint's header and arrays; ValueError if the arrays
    are not the ones the header's arch names, or the model refuses them."""
    missing = sorted({"kind", "arch", "metadata"} - set(header))
    if missing:
        raise ValueError(f"header lacks {missing}")
    kind, arch = header["kind"], header["arch"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    cls, mlps, has_points = _KINDS[kind]
    if not (isinstance(arch, dict) and all(_is_mlp_entry(arch.get(name)) for name in mlps)):
        raise ValueError(f"arch must give the dims and activations of each of {list(mlps)}")
    if not isinstance(header["metadata"], dict):
        raise ValueError("metadata must be an object")
    shapes = {}
    for name in mlps:
        dims = arch[name]["dims"]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"{name}.w{i}"] = (fan_out, fan_in)
            shapes[f"{name}.b{i}"] = (fan_out,)
    names = set(shapes) | ({"points"} if has_points else set())
    if set(arrays) != names:
        raise ValueError(f"arrays missing {sorted(names - set(arrays))}, "
                         f"left over {sorted(set(arrays) - names)}")
    for name, a in arrays.items():
        if name in shapes and a.shape != shapes[name]:
            raise ValueError(f"array {name!r} is {a.shape}, not the {shapes[name]} "
                             f"that arch's dims give it")
        if not np.isfinite(a).all():
            raise ValueError(f"array {name!r} holds a non-finite value")
    nets = [_rebuild_mlp(arch[name], arrays, name) for name in mlps]
    return cls(arrays["points"], *nets) if has_points else cls(*nets)


def load_checkpoint(path):
    """Returns (model, metadata).  A file the model's forward cannot compute is
    a ValueError naming it: a header without kind, arch or metadata, an
    unknown kind or activation, an arch without an MLP's dims and
    activations, an array missing, left over, of another shape than the
    header's arch gives it or holding a NaN or an infinity, or arrays that the
    model's own checks refuse, such as a coordinate width other than 2 or 3."""
    header, arrays = container.read(path, _MAGIC)
    try:
        return _rebuild(header, arrays), header["metadata"]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
