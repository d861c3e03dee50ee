from .engine import (Adam, Parameter, Tensor, backward, dense, factored_linear,
                     hadamard, squared_error)
from .models import BoundaryModel, Mlp, SourceModel, augmented_points
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Adam", "Parameter", "Tensor", "backward", "dense", "factored_linear",
    "hadamard", "squared_error",
    "BoundaryModel", "Mlp", "SourceModel", "augmented_points",
    "load_checkpoint", "save_checkpoint",
]
