"""Binary checkpoint format.

Layout, all integers little-endian:

    magic "SSFC", u16 version=1, u16 reserved=0
    u32 length, then that many bytes of UTF-8 JSON architecture descriptor
    u32 block count, then per block:
        u16 name length, name bytes
        u8 ndim, ndim x u32 dims
        float64 payload, C order

A human-readable sidecar ``<path>.meta.json`` carries run metadata (seed,
epochs, final metrics).

Writes stream each block from its array's buffer, and reads fill each
block's array straight from the file, so a block is copied once either way.

Write guarantees. Each of the two files is written to a temporary file in
its target's directory and then renamed onto the target, so a reader sees
either the old file or the whole new one, never a partial file; a failed
save removes its temporary file. The checkpoint is replaced first and the
sidecar second, so a crash between the two renames leaves the new
checkpoint beside the old sidecar (or none). Nothing is ``fsync``-ed: a
save is not durable across power loss.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..mask import ValidationError

MAGIC = b"SSFC"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its architecture."""


def _payload(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy.

    Viewed through a flat ``uint8`` array, since ``memoryview.cast`` refuses
    arrays with a zero in their shape.
    """
    return memoryview(arr.reshape(-1).view(np.uint8))


def _f8(arr) -> np.ndarray:
    """``arr`` as C-ordered little-endian float64, copied only if it is not already."""
    return np.asarray(arr, dtype="<f8", order="C")


@dataclass
class Checkpoint:
    descriptor: dict
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def block_hashes(self) -> dict[str, str]:
        """sha256 of each parameter block's payload bytes."""
        return {name: hashlib.sha256(_payload(_f8(arr))).hexdigest()
                for name, arr in self.params.items()}


def _write_atomically(path: Path, write) -> None:
    """Call ``write`` on a new temporary file beside ``path``, then rename it onto ``path``."""
    # "x" mode never reuses a stale file and, unlike mkstemp, gives the
    # umask's mode, as a plain open(path, "wb") would.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    desc = json.dumps(ckpt.descriptor, sort_keys=True).encode()
    blocks = []
    for name, arr in ckpt.params.items():
        arr = _f8(arr)
        if arr.ndim > 4:
            raise ValidationError(f"parameter {name!r} has {arr.ndim} dims, limit is 4")
        name_b = name.encode()
        header = struct.pack(f"<H{len(name_b)}sB{arr.ndim}I", len(name_b), name_b, arr.ndim,
                             *arr.shape)
        blocks.append((header, arr))

    def write_blocks(f) -> None:
        f.write(struct.pack("<4sHHI", MAGIC, VERSION, 0, len(desc)) + desc
                + struct.pack("<I", len(blocks)))
        for header, arr in blocks:
            f.write(header)
            f.write(_payload(arr))

    meta = (json.dumps(ckpt.metadata, indent=2, sort_keys=True) + "\n").encode()
    _write_atomically(path, write_blocks)
    _write_atomically(path.with_name(path.name + ".meta.json"), lambda f: f.write(meta))


class _Reader:
    """Reads a checkpoint file front to back, checking each size against the file's first."""

    def __init__(self, f, path: Path) -> None:
        self.f = f
        self.path = path
        self.pos = 0
        self.size = os.fstat(f.fileno()).st_size

    def _truncated(self, n: int) -> CheckpointError:
        return CheckpointError(f"{self.path}: truncated at byte {self.pos} (wanted {n} more)")

    def take(self, n: int) -> bytes:
        if n > self.size - self.pos:
            raise self._truncated(n)
        out = self.f.read(n)
        if len(out) != n:
            raise self._truncated(n)
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dims: tuple[int, ...]) -> np.ndarray:
        """The next block's payload, read straight into a new array of shape ``dims``."""
        n = 8 * math.prod(dims)
        if n > self.size - self.pos:
            raise self._truncated(n)
        arr = np.empty(dims, dtype="<f8")
        if self.f.readinto(_payload(arr)) != n:
            raise self._truncated(n)
        self.pos += n
        return arr


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as f:
        r = _Reader(f, path)
        magic, version, _ = r.unpack("<4sHH")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (desc_len,) = r.unpack("<I")
        try:
            descriptor = json.loads(r.take(desc_len).decode())
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past int's digit limit
            raise CheckpointError(f"{path}: unreadable architecture descriptor: {exc}") from None
        if not isinstance(descriptor, dict):
            raise CheckpointError(f"{path}: architecture descriptor must be a JSON object, "
                                  f"got {type(descriptor).__name__}")
        (nblocks,) = r.unpack("<I")
        params: dict[str, np.ndarray] = {}
        for _ in range(nblocks):
            (name_len,) = r.unpack("<H")
            try:
                name = r.take(name_len).decode()
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: block name is not UTF-8: {exc}") from None
            (ndim,) = r.unpack("<B")
            if ndim > 4:
                raise CheckpointError(f"{path}: block {name!r} has {ndim} dims, limit is 4")
            dims = r.unpack(f"<{ndim}I")
            if name in params:
                raise CheckpointError(f"{path}: duplicate parameter block {name!r}")
            params[name] = r.array(dims)
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes after last block")

    metadata = {}
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise CheckpointError(f"{sidecar}: unreadable metadata sidecar: {exc}") from None
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{sidecar}: metadata sidecar must be a JSON object, "
                                  f"got {type(metadata).__name__}")
    return Checkpoint(descriptor=descriptor, params=params, metadata=metadata)
