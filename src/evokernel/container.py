"""The one binary file format: checkpoints and datasets.

Layout:
    line 1   magic, e.g. b"EVOKERNEL-CKPT/2\\n"
    line 2   JSON header (sorted keys): the caller's fields plus
             "arrays": [{"name", "shape", "dtype"}...] with dtype "<f8" or
             "<i8", and "sha256": the hex digest of the body
    body     the arrays' little-endian bytes, concatenated in table order

read() checks the magic, the body length against the table and the body
hash, and raises ValueError naming the file on any mismatch.  Callers check
their own header fields.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["pack", "write", "read"]

_DTYPES = {"f": "<f8", "i": "<i8"}


def _block(name, a):
    a = np.asarray(a)
    if a.dtype.kind not in _DTYPES:
        raise TypeError(f"array {name!r}: cannot store dtype {a.dtype}")
    return np.ascontiguousarray(a, dtype=_DTYPES[a.dtype.kind])


def pack(magic, header, arrays):
    """File bytes for header (a JSON-able dict) and arrays ({name: array})."""
    blocks = {name: _block(name, a) for name, a in arrays.items()}
    digest = hashlib.sha256()
    for b in blocks.values():
        digest.update(b)
    table = [{"name": n, "shape": list(b.shape), "dtype": b.dtype.str}
             for n, b in blocks.items()]
    line = json.dumps({**header, "arrays": table, "sha256": digest.hexdigest()},
                      sort_keys=True)
    return b"".join([magic, line.encode(), b"\n", *blocks.values()])


def write(path, magic, header, arrays):
    """Write pack(magic, header, arrays) to path; returns the file's sha256."""
    data = pack(magic, header, arrays)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read(path, magic):
    """Returns (header without the container's fields, {name: array})."""
    with open(path, "rb") as fh:
        found = fh.readline()
        if found != magic:
            raise ValueError(f"{path}: magic {found[:32]!r} is not {magic!r}")
        try:
            header = json.loads(fh.readline())
            table, digest = header.pop("arrays"), header.pop("sha256")
            if any(a["dtype"] not in _DTYPES.values() for a in table):
                raise ValueError("array dtypes must be <f8 or <i8")
            sizes = [8 * math.prod(a["shape"]) for a in table]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: unreadable header ({exc})") from exc
        body = fh.read()
    if len(body) != sum(sizes):
        raise ValueError(f"{path}: body has {len(body)} bytes, expected {sum(sizes)}")
    if hashlib.sha256(body).hexdigest() != digest:
        raise ValueError(f"{path}: body does not match its sha256")
    arrays, offset = {}, 0
    for a, size in zip(table, sizes):
        flat = np.frombuffer(body, a["dtype"], size // 8, offset)
        arrays[a["name"]] = flat.reshape(a["shape"]).copy()
        offset += size
    return header, arrays
