"""Binary grid container with a bit-exact round trip.

Layout (all integers little-endian):

    magic      5 bytes  b"WGRD1"
    endianness 1 byte   b"<" (little-endian payload; nothing else accepted)
    rank       u32
    dims       rank x u64
    axes       dims[i] float64 values per axis, in order
    payload    prod(dims) float64 values, row-major
    metadata   u64 byte length, then UTF-8 JSON object mapping str -> str

Axis and payload floats are written verbatim from the arrays' bytes, and the
metadata JSON is canonical (sorted keys, no added whitespace, non-ASCII kept
as-is), so read(write(g)) reproduces g bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import FormatError

MAGIC = b"WGRD1"
ENDIAN_FLAG = b"<"
MAX_RANK = 8


@dataclass(frozen=True, eq=False)
class GridFile:
    """Float64 axes, a row-major float64 payload over their product, and string metadata."""

    axes: tuple[np.ndarray, ...]
    payload: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(a.ndim != 1 for a in self.axes):
            raise FormatError(f"axes must be 1-d, got shapes {[a.shape for a in self.axes]}")
        dtypes = [a.dtype for a in (*self.axes, self.payload)]
        if any(d != np.dtype("<f8") for d in dtypes):
            raise FormatError(f"axes and payload must be real float64 ('<f8'), got {dtypes}")
        dims = tuple(int(a.size) for a in self.axes)
        if self.payload.shape != dims:
            raise FormatError(
                f"payload shape {self.payload.shape} does not match axis sizes {dims}"
            )
        for key, value in self.meta.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise FormatError("metadata must map str to str")


def _meta_bytes(meta: dict[str, str]) -> bytes:
    return json.dumps(meta, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def write_grid(path: str | Path, grid: GridFile) -> None:
    """Write ``grid`` section by section; float arrays go out from their own buffers.

    Contiguous arrays are not copied, and every copy is made before the file
    is opened.
    """
    dims = tuple(int(a.size) for a in grid.axes)
    floats = [np.ascontiguousarray(a) for a in (*grid.axes, grid.payload)]
    meta = _meta_bytes(grid.meta)
    with open(path, "wb") as f:
        f.write(MAGIC + ENDIAN_FLAG + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
        for values in floats:
            f.write(values.data)
        f.write(struct.pack("<Q", len(meta)) + meta)


class _Reader:
    """Reads a file front to back, refusing any section that runs past its end."""

    def __init__(self, f: BinaryIO):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.pos = 0

    def _advance(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise FormatError(f"truncated file while reading {what}")
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._advance(n, what)
        return self.f.read(n)

    def floats(self, dims: tuple[int, ...], what: str) -> np.ndarray:
        """The next prod(dims) float64 values, read straight into their array."""
        self._advance(8 * math.prod(dims), what)
        out = np.empty(dims, dtype="<f8")
        self.f.readinto(out.data)
        return out


def read_grid(path: str | Path) -> GridFile:
    with open(path, "rb") as f:
        reader = _Reader(f)
        if reader.take(len(MAGIC), "magic") != MAGIC:
            raise FormatError(f"bad magic; not a {MAGIC.decode()} grid file")
        if reader.take(1, "endianness flag") != ENDIAN_FLAG:
            raise FormatError("unsupported endianness flag")
        rank = struct.unpack("<I", reader.take(4, "rank"))[0]
        if not 1 <= rank <= MAX_RANK:
            raise FormatError(f"rank {rank} out of range 1..{MAX_RANK}")
        dims = tuple(
            struct.unpack("<Q", reader.take(8, f"dims[{i}]"))[0] for i in range(rank)
        )
        axes = tuple(reader.floats((d,), f"axis {i}") for i, d in enumerate(dims))
        payload = reader.floats(dims, "payload")
        meta_len = struct.unpack("<Q", reader.take(8, "metadata length"))[0]
        meta_raw = reader.take(meta_len, "metadata")
    if reader.pos != reader.size:
        raise FormatError(f"{reader.size - reader.pos} trailing bytes after metadata")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"metadata is not UTF-8 JSON: {exc}") from exc
    if not isinstance(meta, dict):  # GridFile checks that it maps str to str
        raise FormatError("metadata must be a JSON object mapping str to str")
    return GridFile(axes=axes, payload=payload, meta=meta)
