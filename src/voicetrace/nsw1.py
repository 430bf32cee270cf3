"""NSW1 tensor container: the on-disk weight format.

Layout, all little-endian, no padding:

    magic "NSW1" | version u32 | tensor count u32
    per tensor: name length u32, UTF-8 name, rank u32, dims u32 each,
                float32 payload in row-major order
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import WeightFormatError

MAGIC = b"NSW1"
VERSION = 1


def pack_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    """Serialize named float32 tensors in insertion order."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor, dtype="<f4")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


class Reader:
    """Little-endian reads from a byte string; running past its end raises WeightFormatError."""

    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightFormatError(f"{self.label}: truncated at byte {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_tensor_stream(data: bytes, label: str = "NSW1 data") -> dict[str, np.ndarray]:
    """Parse an NSW1 byte string. Raises WeightFormatError, never partially loads."""
    r = Reader(data, label)
    if r.take(4) != MAGIC:
        raise WeightFormatError(f"{label}: bad magic, not an NSW1 file")
    version = r.u32()
    if version != VERSION:
        raise WeightFormatError(f"{label}: unsupported NSW1 version {version}")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"{label}: tensor name at byte {r.pos} is not UTF-8") from exc
        if name in tensors:
            raise WeightFormatError(f"{label}: tensor {name!r} appears twice")
        rank = r.u32()
        shape = tuple(r.u32() for _ in range(rank))
        # a Python-int product: dims whose product wraps int64 still read as truncated
        payload = r.take(4 * math.prod(shape))
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
        except ValueError as exc:  # over 64 dims, or a 0 beside dims whose product passes intp
            raise WeightFormatError(f"{label}: tensor {name!r} has a shape numpy cannot hold") from exc
    if r.pos != len(data):
        raise WeightFormatError(f"{label}: {len(data) - r.pos} trailing bytes after last tensor")
    return tensors
