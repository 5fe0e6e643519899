"""Binary checkpoint format for named float32 tensors and the model they fit.

Layout, format version 2 (all integers little-endian):
    magic  "ITST"
    u32    format version
    u32    architecture record byte length, then the record: a UTF-8 JSON
           object of the writer's model config fields (`ModelConfig`: its
           nine `model.*` settings, M and the four variant flags), or {}
           when the writer gave no config
    u32    tensor count
    per tensor:
        u32    name byte length, then UTF-8 name
        u32    rank
        u64    each dimension
        f32    row-major data
    u32    CRC-32 of all preceding bytes

Any other version, version 1 (the same without the record) included, is
refused.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .numerics import Tensor

MAGIC = b"ITST"
FORMAT_VERSION = 2


def save_checkpoint(params: dict, path: str, config=None) -> None:
    """Write tensors sorted by name; values accept Tensor or ndarray. The
    architecture record holds the fields of `config`, a model config
    dataclass; without a config it is empty.

    The bytes go to a temporary file beside `path` that is then renamed over
    it, so a reader never sees a partly written checkpoint. A tensor holding a
    NaN or an infinity raises CheckpointError before either file exists.
    """
    import json

    record = {} if config is None else dataclasses.asdict(config)
    meta = json.dumps(record, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(meta)), meta,
              struct.pack("<I", len(params))]
    for name in sorted(params):
        value = params[name]
        arr = np.ascontiguousarray(
            (value.data if isinstance(value, Tensor) else value), dtype="<f4")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
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


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """A checkpoint's tensors and its architecture record (empty when the
    file records none); verifies magic, version and the trailing CRC.

    Every field is bounds-checked against the body, so a truncated or crafted
    file raises CheckpointError even when its CRC matches. So does a record
    that is not a JSON object of scalars, and a tensor that holds a NaN or an
    infinity; the error names the first such tensor.
    """
    import json

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
    (version,) = struct.unpack_from("<I", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    offset = 8

    def take(nbytes: int, what: str) -> int:
        nonlocal offset
        if nbytes > len(body) - offset:
            raise CheckpointError(f"{path}: {what} runs past the end of the file "
                                  f"({nbytes} bytes at offset {offset})")
        start, offset = offset, offset + nbytes
        return start

    (size,) = struct.unpack_from("<I", body, take(4, "architecture record length"))
    raw = body[take(size, "architecture record"):offset]
    try:
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        raise CheckpointError(f"{path}: architecture record is not UTF-8 JSON: "
                              f"{raw[:32]!r}") from None
    if not (isinstance(record, dict) and all(isinstance(v, (bool, int, float, str))
                                             for v in record.values())):
        raise CheckpointError(f"{path}: architecture record is not a JSON object of "
                              f"scalars: {raw[:32]!r}")
    (count,) = struct.unpack_from("<I", body, take(4, "tensor count"))
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
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = arr.astype(np.float32)
    if offset != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    return tensors, record


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """A checkpoint's tensors, checked as `read_checkpoint` checks them."""
    return read_checkpoint(path)[0]


def check_architecture(record: dict, config, path: str) -> None:
    """Raise CheckpointError unless architecture `record`, read from `path`,
    holds exactly the fields of model config `config`; the error names the
    fields that differ. `dropout` is not compared: it acts only in training
    and changes no tensor."""
    if not record:
        raise CheckpointError(f"{path}: the checkpoint records no architecture "
                              "(saved without a model config)")
    built = dataclasses.asdict(config)
    differ = sorted(k for k in record.keys() | built.keys()
                    if k != "dropout" and record.get(k) != built.get(k))
    if differ:
        raise CheckpointError(f"{path}: the checkpoint's model differs from this run's in "
                              + ", ".join(f"{k} (checkpoint {record.get(k)!r}, "
                                          f"run {built.get(k)!r})" for k in differ))


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
