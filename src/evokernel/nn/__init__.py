from .engine import (Adam, Parameter, Tensor, add_bias, add_scalars, backward,
                     hadamard, matmul, matmul_t, relu, sub_const, sum_squares)
from .models import (BoundaryModel, BranchTrunk, Mlp, SourceModel,
                     augmented_points)
from .checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint

__all__ = [
    "Adam", "Parameter", "Tensor", "add_bias", "add_scalars", "backward",
    "hadamard", "matmul", "matmul_t", "relu", "sub_const", "sum_squares",
    "BoundaryModel", "BranchTrunk", "Mlp", "SourceModel", "augmented_points",
    "checkpoint_bytes", "load_checkpoint", "save_checkpoint",
]
