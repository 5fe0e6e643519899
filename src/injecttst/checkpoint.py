"""Binary checkpoint format for named float32 tensors and the model they fit.

Layout, format version 3 (all integers little-endian):
    magic  "ITST"
    u32    format version
    u32    header byte length, then the header: a UTF-8 JSON object with
           sorted keys and exactly these three
             "channels"  the table's channel names in column order, or []
             "model"     the writer's `ModelConfig` fields (the nine
                         `model.*` settings, M, four variant flags), or {}
             "tensors"   [name, shape] per tensor, sorted by name
    f32    each tensor's row-major data, in the header's order
    u32    CRC-32 of all preceding bytes

Any other version, 1 and 2 (binary per-tensor records) included, is refused.
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
FORMAT_VERSION = 3


def save_checkpoint(params: dict, path: str, config=None, channels=()) -> None:
    """Write tensors (Tensor or ndarray values) sorted by name, and record the
    fields of model config `config` and the channel names `channels`, each
    empty when not given. A temporary file beside `path` is renamed over it,
    so a reader never sees a partly written checkpoint; a NaN or an infinity
    raises CheckpointError before either file exists."""
    import json

    arrays = {name: np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f4")
              for name, value in sorted(params.items())}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
    header = {"channels": list(channels),
              "model": {} if config is None else dataclasses.asdict(config),
              "tensors": [[name, list(arr.shape)] for name, arr in arrays.items()]}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join([MAGIC, struct.pack("<II", FORMAT_VERSION, len(raw)), raw,
                     *(arr.tobytes() for arr in arrays.values())])
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([blob, struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict, list[str]]:
    """A checkpoint's tensors, model record and channel names (each empty
    when the file records none). Magic, version, CRC, the header's keys and
    types, and a data length of exactly 4 bytes per value its shapes hold
    are checked, so a truncated or crafted file raises CheckpointError even
    when its CRC matches. So does a NaN or an infinity, naming its tensor."""
    import json

    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, (stored_crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")
    if body[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {body[:4]!r}")
    version, size = struct.unpack_from("<II", body, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if size > len(body) - 12:
        raise CheckpointError(f"{path}: header of {size} bytes runs past the end of the file")
    raw = body[12:12 + size]
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {raw[:32]!r}") from None
    if not (isinstance(header, dict) and header.keys() == {"channels", "model", "tensors"}):
        raise CheckpointError(f"{path}: header is not an object of exactly the keys "
                              f"channels, model and tensors: {raw[:32]!r}")
    model, channels, entries = header["model"], header["channels"], header["tensors"]
    if not (isinstance(model, dict) and all(isinstance(v, (bool, int, float, str))
                                            for v in model.values())):
        raise CheckpointError(f"{path}: model record is not an object of scalars")
    if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)):
        raise CheckpointError(f"{path}: channels are not a list of names")
    if not (isinstance(entries, list) and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], list) and all(type(d) is int and d >= 0 for d in e[1])
            for e in entries)):
        raise CheckpointError(f"{path}: tensors are not a list of [name, shape] pairs")
    counts = [math.prod(shape) for _, shape in entries]
    if 4 * sum(counts) != len(body) - 12 - size:
        raise CheckpointError(f"{path}: the header's tensors hold {4 * sum(counts)} bytes "
                              f"of data, the file {len(body) - 12 - size}")
    flat = np.frombuffer(body, dtype="<f4", offset=12 + size).astype(np.float32)
    ends = np.cumsum(counts, dtype=np.int64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        name = entries[int(np.searchsorted(ends, bad[0], side="right"))][0]
        raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
    tensors: dict[str, np.ndarray] = {}
    for (name, shape), n, end in zip(entries, counts, ends.tolist()):
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = flat[end - n:end].reshape(shape)
    return tensors, model, channels


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


def check_channels(recorded: list[str], names: list[str], path: str) -> None:
    """Raise CheckpointError unless the checkpoint at `path` recorded the
    table's channel names `names` in their order, since its identifier and
    `pat` mixer rows belong to channel positions; the error names both
    lengths, or the first position that differs."""
    if len(recorded) != len(names):
        raise CheckpointError(f"{path}: the checkpoint records {len(recorded) or 'no'} "
                              f"channel names, the table has {len(names)}")
    for c, (saved, given) in enumerate(zip(recorded, names)):
        if saved != given:
            raise CheckpointError(f"{path}: channel {c} is {saved!r} in the checkpoint "
                                  f"but {given!r} in the table")


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
