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
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..mask import ValidationError

MAGIC = b"SSFC"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its architecture."""


@dataclass
class Checkpoint:
    descriptor: dict
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def block_hashes(self) -> dict[str, str]:
        """sha256 of each parameter block's payload bytes."""
        return {
            name: hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()
            for name, arr in self.params.items()
        }


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    desc = json.dumps(ckpt.descriptor, sort_keys=True).encode()
    parts = [struct.pack("<4sHH", MAGIC, VERSION, 0), struct.pack("<I", len(desc)), desc,
             struct.pack("<I", len(ckpt.params))]
    for name, arr in ckpt.params.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim > 4:
            raise ValidationError(f"parameter {name!r} has {arr.ndim} dims, limit is 4")
        name_b = name.encode()
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    path = Path(path)
    path.write_bytes(b"".join(parts))
    path.with_name(path.name + ".meta.json").write_text(
        json.dumps(ckpt.metadata, indent=2, sort_keys=True) + "\n"
    )


class _Reader:
    def __init__(self, buf: bytes, path: Path) -> None:
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated at byte {self.pos} (wanted {n} more)")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    magic, version, _ = r.unpack("<4sHH")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (desc_len,) = r.unpack("<I")
    try:
        descriptor = json.loads(r.take(desc_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        dims = r.unpack(f"<{ndim}I") if ndim else ()
        count = 1
        for d in dims:
            count *= d
        payload = r.take(count * 8)
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter block {name!r}")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.pos} trailing bytes after last block")

    metadata = {}
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{sidecar}: unreadable metadata sidecar: {exc}") from None
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{sidecar}: metadata sidecar must be a JSON object, "
                                  f"got {type(metadata).__name__}")
    return Checkpoint(descriptor=descriptor, params=params, metadata=metadata)
