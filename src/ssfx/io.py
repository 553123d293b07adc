"""File formats for masks, feature matrices, and feature vectors.

Masks are accepted in two formats, sniffed by magic bytes:

* binary PGM (``P5``) with maxval <= 255, pixel values used directly as
  category indices;
* a raw little-endian container: 16-byte header ``magic "SSFM", u16
  version=1, u16 reserved=0, u32 height, u32 width`` followed by
  height*width u16 values.

Feature payloads reuse the same header layout with magic ``"SSFF"`` and a
float64 payload; a feature vector is stored as a 1 x n matrix. CSV output
carries one row per category with 17 significant digits, enough for exact
f64 round-trips.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .features import COLUMNS, SsfMatrix
from .mask import SegmentationMask, ValidationError

__all__ = [
    "FormatError",
    "read_pgm",
    "write_pgm",
    "read_mask_container",
    "write_mask_container",
    "read_feature_matrix",
    "write_feature_matrix",
    "read_feature_vector",
    "write_feature_vector",
    "write_feature_csv",
    "load_mask",
    "save_mask",
]

MASK_MAGIC = b"SSFM"
FEATURE_MAGIC = b"SSFF"
_HEADER = struct.Struct("<4sHHII")
CONTAINER_VERSION = 1


class FormatError(ValueError):
    """A file does not parse as the format it claims to be."""


def _read_pgm_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header tokens.
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated PGM header")
    return buf[start:pos], pos


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM file into an (h, w) uint16 grid."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_pgm_token(buf, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: non-numeric PGM header token {token!r}") from None
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise FormatError(f"{path}: invalid PGM dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        raise FormatError(f"{path}: PGM maxval {maxval} outside (0, 255]")
    pos += 1  # single whitespace byte separates header from raster
    found = max(0, len(buf) - pos)
    if found < h * w:
        raise FormatError(f"{path}: expected {h * w} raster bytes, found {found}")
    # A view of the raster inside the file's bytes; the one copy is the cast.
    raster = np.frombuffer(buf, dtype=np.uint8, count=h * w, offset=pos)
    return raster.reshape(h, w).astype(np.uint16)


def write_pgm(path: str | Path, grid: np.ndarray) -> None:
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValidationError(f"PGM grid must be 2-D, got shape {grid.shape}")
    if grid.size and int(grid.max()) > 255:
        raise ValidationError("PGM payload limited to values <= 255")
    if grid.size and int(grid.min()) < 0:
        raise ValidationError("PGM payload must be non-negative")
    h, w = grid.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + grid.astype(np.uint8).tobytes())


def _read_container(path: str | Path, magic: bytes) -> tuple[int, int, memoryview]:
    """Check the header; returns height, width and a view of the payload."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(buf)} bytes)")
    got, version, _reserved, h, w = _HEADER.unpack_from(buf)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    if h < 1 or w < 1:
        raise FormatError(f"{path}: invalid dimensions {h}x{w}")
    return h, w, memoryview(buf)[_HEADER.size :]


def read_mask_container(path: str | Path) -> np.ndarray:
    """Read an SSFM container into an (h, w) uint16 grid."""
    h, w, payload = _read_container(path, MASK_MAGIC)
    if len(payload) != h * w * 2:
        raise FormatError(f"{path}: expected {h * w * 2} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype="<u2").reshape(h, w).astype(np.uint16)


def write_mask_container(path: str | Path, grid: np.ndarray) -> None:
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValidationError(f"mask grid must be 2-D, got shape {grid.shape}")
    if grid.size and (int(grid.min()) < 0 or int(grid.max()) > 0xFFFF):
        raise ValidationError("mask container payload limited to u16 values")
    h, w = grid.shape
    header = _HEADER.pack(MASK_MAGIC, CONTAINER_VERSION, 0, h, w)
    Path(path).write_bytes(header + grid.astype("<u2").tobytes())


def read_feature_matrix(path: str | Path) -> np.ndarray:
    """Read an SSFF container into an (h, w) float64 array."""
    h, w, payload = _read_container(path, FEATURE_MAGIC)
    if len(payload) != h * w * 8:
        raise FormatError(f"{path}: expected {h * w * 8} payload bytes, found {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(h, w).astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite feature values")
    return values


def write_feature_matrix(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValidationError("feature values must be finite")
    h, w = values.shape
    header = _HEADER.pack(FEATURE_MAGIC, CONTAINER_VERSION, 0, h, w)
    Path(path).write_bytes(header + values.astype("<f8").tobytes())


def read_feature_vector(path: str | Path) -> np.ndarray:
    """Read a 1 x n SSFF container as a flat float64 vector."""
    values = read_feature_matrix(path)
    if values.shape[0] != 1:
        raise FormatError(f"{path}: expected a 1 x n vector container, got shape {values.shape}")
    return values[0]


def write_feature_vector(path: str | Path, vec: np.ndarray) -> None:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValidationError(f"feature vector must be 1-D, got shape {vec.shape}")
    write_feature_matrix(path, vec[None, :])


def write_feature_csv(path: str | Path, matrix: SsfMatrix) -> None:
    """One row per category: category index then the five statistics."""
    lines = ["category," + ",".join(COLUMNS)]
    for n in range(matrix.num_categories):
        row = ",".join(f"{v:.17g}" for v in matrix.values[n])
        lines.append(f"{n + 1},{row}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_mask(path: str | Path, num_categories: int, void_value: int | None = 0) -> SegmentationMask:
    """Load a mask from PGM or SSFM, sniffing the format by magic bytes."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except (FileNotFoundError, NotADirectoryError):  # what path.exists() reads as absent
        raise FileNotFoundError(f"mask file not found: {path}") from None
    if magic[:2] == b"P5":
        grid = read_pgm(path)
    elif magic == MASK_MAGIC:
        grid = read_mask_container(path)
    else:
        raise FormatError(f"{path}: unrecognized mask format (magic {magic!r})")
    return SegmentationMask(data=grid, num_categories=num_categories, void_value=void_value)


def save_mask(path: str | Path, grid: np.ndarray) -> None:
    """Write a mask grid, picking the format from the file extension."""
    if str(path).endswith(".pgm"):
        write_pgm(path, grid)
    else:
        write_mask_container(path, grid)
