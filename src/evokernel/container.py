"""The one binary file format: checkpoints and datasets.

Layout:
    line 1   magic, e.g. b"EVOKERNEL-CKPT/2\\n"
    line 2   JSON header (sorted keys): the caller's fields plus
             "arrays": [{"name", "shape", "dtype"}...] with dtype "<f8",
             and "sha256": the hex digest of the body
    body     the arrays' little-endian bytes, concatenated in table order

write() streams the pieces to the file and hashes them on the way, so a
save holds no second copy of its arrays.  read() reads the body once into one
byte buffer and returns every array as a writable view of it, so a load holds
the arrays once.  It checks the magic, the body length against the table (a
byte past the end fails too) and the body hash, and raises ValueError naming
the file on any mismatch.  Callers check their own header fields.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["pack", "write", "read"]

# the one stored dtype, by the numpy kind that converts to it
_DTYPES = {"f": "<f8"}


def _block(name, a):
    a = np.asarray(a)
    if a.dtype.kind not in _DTYPES:
        raise TypeError(f"array {name!r}: cannot store dtype {a.dtype}")
    # order="C" copies only an array that is not C-contiguous, and keeps 0-d 0-d
    return np.asarray(a, dtype=_DTYPES[a.dtype.kind], order="C")


def _chunks(magic, header, arrays):
    """The file's pieces in order: magic, header line, then each array block."""
    blocks = {name: _block(name, a) for name, a in arrays.items()}
    digest = hashlib.sha256()
    for b in blocks.values():
        digest.update(b)
    table = [{"name": n, "shape": list(b.shape), "dtype": b.dtype.str}
             for n, b in blocks.items()]
    line = json.dumps({**header, "arrays": table, "sha256": digest.hexdigest()},
                      sort_keys=True)
    return [magic, line.encode() + b"\n", *blocks.values()]


def pack(magic, header, arrays):
    """File bytes for header (a JSON-able dict) and arrays ({name: array})."""
    return b"".join(_chunks(magic, header, arrays))


def write(path, magic, header, arrays):
    """Write pack(magic, header, arrays) to path piece by piece, without
    joining it in memory; returns the file's sha256."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in _chunks(magic, header, arrays):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


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
                raise ValueError("array dtypes must be <f8")
            sizes = [8 * math.prod(a["shape"]) for a in table]
            body = np.empty(sum(sizes), np.uint8)     # the one buffer of every array
        except (ValueError, KeyError, TypeError, AttributeError, MemoryError) as exc:
            raise ValueError(f"{path}: unreadable header ({exc})") from exc
        got = fh.readinto(body)
        extra = fh.read(1)                             # a byte past the end: trailing bytes
    if got != body.size or extra:
        raise ValueError(f"{path}: body has {'more than ' * bool(extra)}{got} bytes, "
                         f"expected {body.size}")
    if hashlib.sha256(body).hexdigest() != digest:
        raise ValueError(f"{path}: body does not match its sha256")
    arrays, offset = {}, 0
    for a, size in zip(table, sizes):
        arrays[a["name"]] = body[offset:offset + size].view(a["dtype"]).reshape(a["shape"])
        offset += size
    return header, arrays
