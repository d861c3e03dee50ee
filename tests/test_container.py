"""Every persisted format goes through evokernel.container and shares its checks."""

import hashlib
import json
import re

import numpy as np
import pytest

from evokernel import container, datagen, nn
from evokernel.geometry import make_curve, sample_quadrature

GRID = sample_quadrature(make_curve("square"), 16)
MAGIC = b"EVOKERNEL-TEST/1\n"


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
    # the first line's version, whichever is current, becomes 1
    "old_magic": lambda d: re.sub(rb"/\d+\n", b"/1\n", d, count=1),
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


def test_write_streams_the_bytes_pack_joins(tmp_path):
    header = {"kind": "demo"}
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(-2.0, 2.0)}
    path = tmp_path / "file.bin"
    digest = container.write(path, MAGIC, header, arrays)
    data = container.pack(MAGIC, header, arrays)
    assert path.read_bytes() == data
    assert digest == hashlib.sha256(data).hexdigest()


def test_read_returns_views_of_one_buffer(tmp_path):
    """One read holds the body once: every array is a writable, C-contiguous
    view of the same buffer, and writing one leaves the others and the file
    as they were."""
    path = tmp_path / "file.bin"
    written = {"a": np.arange(6.0).reshape(2, 3), "i": np.arange(-2.0, 3.0),
               "e": np.zeros((0, 4))}
    container.write(path, MAGIC, {}, written)
    _, arrays = container.read(path, MAGIC)
    assert {id(a.base) for a in arrays.values()} == {id(arrays["a"].base)}
    assert arrays["a"].base is not None
    for name, a in arrays.items():
        assert a.flags.writeable and a.flags.c_contiguous and a.flags.aligned
        assert a.dtype == written[name].dtype and np.array_equal(a, written[name])
    arrays["a"][:] = -1.0
    arrays["i"][0] = 99
    assert np.array_equal(arrays["i"][1:], written["i"][1:])
    _, fresh = container.read(path, MAGIC)
    for name, a in fresh.items():
        assert np.array_equal(a, written[name])


def test_loaded_checkpoint_trains_through_its_views(tmp_path):
    """Adam updates a loaded model's parameters in place, in the shared
    buffer, exactly as it updates a model built in memory."""
    built = nn.SourceModel.build(np.random.default_rng(1).uniform(0, 1, (5, 2)), [4], [4],
                                 np.random.default_rng(2))
    path, again = tmp_path / "m.ckpt", tmp_path / "m2.ckpt"
    nn.save_checkpoint(built, path)
    loaded, _ = nn.load_checkpoint(path)
    for model in (built, loaded):
        params = model.parameters()
        for k, p in enumerate(params):
            p.grad = np.full_like(p.value, 0.1 * (k + 1))
        nn.Adam(params, lr=1e-2).step()
    buffer = loaded.points.base
    assert buffer is not None and all(p.value.base is buffer for p in loaded.parameters())
    assert nn.checkpoint_bytes(loaded) == nn.checkpoint_bytes(built)
    assert nn.checkpoint_bytes(loaded) != path.read_bytes()
    nn.save_checkpoint(loaded, again)
    assert nn.checkpoint_bytes(nn.load_checkpoint(again)[0]) == again.read_bytes()


def test_zero_dim_array_round_trips_its_shape_and_bytes(tmp_path):
    """A 0-d array is stored with shape [] and its 8 bytes, and read back 0-d;
    the block written is the caller's array, not a copy."""
    s = np.array(2.5)
    assert container._block("s", s) is s
    path = tmp_path / "file.bin"
    container.write(path, MAGIC, {}, {"s": s, "i": np.array(-3.0)})
    body = s.tobytes() + np.array(-3.0).tobytes()
    table = [{"dtype": "<f8", "name": "s", "shape": []},
             {"dtype": "<f8", "name": "i", "shape": []}]
    line = json.dumps({"arrays": table, "sha256": hashlib.sha256(body).hexdigest()},
                      sort_keys=True)
    assert path.read_bytes() == MAGIC + line.encode() + b"\n" + body
    _, arrays = container.read(path, MAGIC)
    assert arrays["s"].shape == () and arrays["s"] == 2.5
    assert arrays["i"].shape == () and arrays["i"] == -3


def test_only_float64_is_stored(tmp_path):
    """The container holds <f8 arrays only: writing an integer array is a
    TypeError, and a file whose table names <i8 is an unreadable header."""
    path = tmp_path / "file.bin"
    with pytest.raises(TypeError, match="array 'i': cannot store dtype int64"):
        container.write(path, MAGIC, {}, {"a": np.zeros(2), "i": np.arange(4)})
    body = np.arange(4, dtype="<i8").tobytes()
    line = json.dumps({"arrays": [{"dtype": "<i8", "name": "i", "shape": [4]}],
                       "sha256": hashlib.sha256(body).hexdigest()})
    path.write_bytes(MAGIC + line.encode() + b"\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unreadable header (array "
                                                   f"dtypes must be <f8)")):
        container.read(path, MAGIC)


_V3 = b"EVOKERNEL-DATA/3\n"
_BLOCKS = {"kappas": np.array([0.05, 0.1]), "f": np.zeros((2, 3, 4)), "u": np.zeros((2, 3, 4))}


@pytest.mark.parametrize("magic, arrays, message", [
    (_V3, {"kappas": _BLOCKS["kappas"], "f": _BLOCKS["f"]}, "got shapes"),
    (_V3, {**_BLOCKS, "u": np.zeros((2, 3, 5))}, "got shapes"),
    (_V3, {**_BLOCKS, "kappas": np.array([0.05, 0.075, 0.1])}, "got shapes"),
    (_V3, {"kappas": _BLOCKS["kappas"], "kappa_index": np.array([0.0, 0.0, 1.0, 1.0]),
           "g": np.zeros((2, 4))}, "unexpected keyword argument 'kappa_index'"),
    (_V3, {"f": _BLOCKS["f"], "u": _BLOCKS["u"]}, "missing 1 required positional argument"),
    # a version-2 file, records with a kappa array beside them
    (b"EVOKERNEL-DATA/2\n", {"kappas": _BLOCKS["kappas"],
                             "kappa_index": np.array([0.0, 0.0, 1.0, 1.0]),
                             "g": np.zeros((4, 4))}, "is not b'EVOKERNEL-DATA/3"),
], ids=["f-without-u", "f-u-differ", "blocks-not-kappas", "leftover-kappa_index",
        "no-kappas", "version-2"])
def test_load_dataset_names_a_file_that_holds_no_dataset(tmp_path, magic, arrays, message):
    path = tmp_path / "d.bin"
    container.write(path, magic, {"provenance": {}}, arrays)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(message)):
        datagen.load_dataset(path)
