"""Every persisted format goes through evokernel.container and shares its checks."""

import re

import numpy as np
import pytest

from evokernel import datagen, nn
from evokernel.geometry import make_curve, sample_quadrature

GRID = sample_quadrature(make_curve("square"), 16)


def _checkpoint(path):
    nn.save_checkpoint(nn.BoundaryModel.build(16, np.random.default_rng(0), internal=4), path)
    return nn.load_checkpoint


def _dataset(path):
    datagen.save_dataset(datagen.build_boundary_dataset([0.05], 2, GRID, seed=0), path)
    return datagen.load_dataset


CORRUPTIONS = {
    "trailing_bytes": lambda d: d + bytes(8),
    "truncated_body": lambda d: d[:-8],
    "flipped_body_byte": lambda d: d[:-1] + bytes([d[-1] ^ 1]),
    "old_magic": lambda d: d.replace(b"/2\n", b"/1\n", 1),
    "broken_header": lambda d: d.replace(b'"sha256"', b'"sha257"', 1),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("save", [_checkpoint, _dataset], ids=["checkpoint", "dataset"])
def test_loaders_reject_damaged_files(tmp_path, save, corrupt):
    path = tmp_path / "file.bin"
    load = save(path)
    load(path)
    path.write_bytes(CORRUPTIONS[corrupt](path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)
