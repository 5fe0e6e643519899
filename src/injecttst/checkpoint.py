"""Binary checkpoint format for named float32 tensors.

Layout (all integers little-endian):
    magic  "ITST"
    u32    format version
    u32    tensor count
    per tensor:
        u32    name byte length, then UTF-8 name
        u32    rank
        u64    each dimension
        f32    row-major data
    u32    CRC-32 of all preceding bytes
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .numerics import Tensor

MAGIC = b"ITST"
FORMAT_VERSION = 1


def save_checkpoint(params: dict, path: str) -> None:
    """Write tensors sorted by name; values accept Tensor or ndarray.

    The bytes go to a temporary file beside `path` that is then renamed over
    it, so a reader never sees a partly written checkpoint.
    """
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(params))]
    for name in sorted(params):
        value = params[name]
        arr = np.ascontiguousarray(
            (value.data if isinstance(value, Tensor) else value), dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    blob = b"".join(chunks)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint; verifies magic, version and the trailing CRC.

    Every field is bounds-checked against the body, so a truncated or crafted
    file raises CheckpointError even when its CRC matches.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, crc_bytes = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {body[:4]!r}")
    version, count = struct.unpack_from("<II", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    offset = 12

    def take(nbytes: int, what: str) -> int:
        nonlocal offset
        if nbytes > len(body) - offset:
            raise CheckpointError(f"{path}: {what} runs past the end of the file "
                                  f"({nbytes} bytes at offset {offset})")
        start, offset = offset, offset + nbytes
        return start

    # every tensor record holds at least its name length and its rank
    if count > (len(body) - offset) // 8:
        raise CheckpointError(f"{path}: tensor count {count} does not fit the file")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", body, take(4, "name length"))
        start = take(name_len, "tensor name")
        raw_name = body[start:offset]
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {raw_name[:32]!r}") from exc
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        (rank,) = struct.unpack_from("<I", body, take(4, f"rank of {name!r}"))
        shape = struct.unpack_from(f"<{rank}Q", body, take(8 * rank, f"shape of {name!r}"))
        n = math.prod(shape)
        start = take(4 * n, f"data of {name!r} {shape}")
        arr = np.frombuffer(body, dtype="<f4", count=n, offset=start).reshape(shape)
        tensors[name] = arr.astype(np.float32)
    if offset != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    return tensors


def apply_checkpoint(params: dict, loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter dict (strict match)."""
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise CheckpointError(f"checkpoint name mismatch: missing={missing}, extra={extra}")
    for name, p in params.items():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"tensor {name}: shape {arr.shape} != {p.data.shape}")
        p.data = arr.astype(p.data.dtype)
