from .engine import (Adam, Parameter, Tensor, backward, dense, factored_linear,
                     hadamard, matmul_t, squared_error)
from .models import BoundaryModel, Mlp, SourceModel, augmented_points
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint

__all__ = [
    "Adam", "Parameter", "Tensor", "backward", "dense", "factored_linear",
    "hadamard", "matmul_t", "squared_error",
    "BoundaryModel", "Mlp", "SourceModel", "augmented_points",
    "checkpoint_bytes", "load_checkpoint", "save_checkpoint",
]
