"""Binary checkpoint format: layout, round trips, corruption detection."""

import os
import struct
import zlib

import numpy as np
import pytest

from injecttst.checkpoint import (FORMAT_VERSION, MAGIC, apply_checkpoint,
                                  load_checkpoint, save_checkpoint)
from injecttst.errors import CheckpointError
from injecttst.model import ModelConfig, init_params


def test_roundtrip_bitwise(tmp_path, rng):
    tensors = {"a": rng.normal(size=(3, 4)).astype(np.float32),
               "b.weight": rng.normal(size=(7,)).astype(np.float32)}
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"a", "b.weight"}
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_layout_details(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": np.array([[1.0, 2.0]], dtype=np.float32)}, path)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC
    version, count = struct.unpack_from("<II", blob, 4)
    assert (version, count) == (FORMAT_VERSION, 1)
    (name_len,) = struct.unpack_from("<I", blob, 12)
    assert blob[16:16 + name_len] == b"w"
    (rank,) = struct.unpack_from("<I", blob, 16 + name_len)
    assert rank == 2
    dims = struct.unpack_from("<2Q", blob, 20 + name_len)
    assert dims == (1, 2)
    (crc,) = struct.unpack("<I", blob[-4:])
    assert crc == zlib.crc32(blob[:-4]) & 0xFFFFFFFF


def test_crc_detects_corruption(tmp_path, rng):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": rng.normal(size=(4, 4)).astype(np.float32)}, path)
    blob = bytearray(open(path, "rb").read())
    blob[30] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "x.ckpt")
    body = b"NOPE" + struct.pack("<II", 1, 0)
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_model_params_roundtrip_across_ablation_flags(tmp_path):
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, S=8, D=8, heads=2,
                      ci_layers=1, mix_layers=1)
    params = init_params(cfg, seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(params, path)

    from dataclasses import replace
    other = init_params(replace(cfg, use_channel_identifier=False,
                                use_global_injection=False), seed=99)
    apply_checkpoint(other, load_checkpoint(path))
    for name in params:
        assert np.array_equal(other[name].data, params[name].data)


def test_apply_rejects_name_mismatch(tmp_path, rng):
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, S=8, D=8, heads=2,
                      ci_layers=1, mix_layers=1)
    params = init_params(cfg, seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint({"only": rng.normal(size=(2, 2)).astype(np.float32)}, path)
    with pytest.raises(CheckpointError, match="mismatch"):
        apply_checkpoint(params, load_checkpoint(path))


def test_save_replaces_the_file_atomically(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    save_checkpoint({"w": np.ones((2, 2), dtype=np.float32)}, str(path))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint({"w": np.zeros((2, 2), dtype=np.float32)}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


# ---------------------------------------------------------------------------
# crafted and truncated files: each must raise CheckpointError, also when the
# CRC is recomputed over the altered body

def _sample_body(tmp_path) -> bytes:
    path = str(tmp_path / "sample.ckpt")
    rng = np.random.default_rng(0)
    save_checkpoint({"a": rng.normal(size=(3, 4)).astype(np.float32),
                     "b.weight": rng.normal(size=(7,)).astype(np.float32),
                     "s": np.float32(2.5)}, path)
    return open(path, "rb").read()[:-4]


def _load_resealed(tmp_path, body: bytes):
    path = str(tmp_path / "crafted.ckpt")
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return load_checkpoint(path)


def _patched(body: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(body)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


# the first tensor ("a", shape (3, 4)) takes bytes 12-85: name length at 12,
# name at 16, rank at 17, dimensions at 21 and 29, data from 37
_CRAFTED = {
    "count too large": (lambda b: _patched(b, 8, "<I", 2**32 - 1), "tensor count"),
    "count one too many": (lambda b: _patched(b, 8, "<I", 4), "name length"),
    "name length too large": (lambda b: _patched(b, 12, "<I", 2**31), "tensor name"),
    "non-utf8 name": (lambda b: _patched(b, 16, "<B", 0xFF), "UTF-8"),
    "rank too large": (lambda b: _patched(b, 17, "<I", 2**32 - 1), "shape"),
    "dimension too large": (lambda b: _patched(b, 21, "<Q", 2**62), "data"),
    "dimension past the data": (lambda b: _patched(b, 21, "<Q", 100), "data of 'a'"),
    "duplicate name": (lambda b: _patched(b[:85] + b[12:85] + b[85:], 8, "<I", 4),
                       "duplicate"),
    "cut body": (lambda b: b[:-2], "data of 's'"),
    "header only": (lambda b: b[:12], "tensor count"),
}


@pytest.mark.parametrize("case", sorted(_CRAFTED))
def test_crafted_body_raises_checkpoint_error(tmp_path, case):
    craft, message = _CRAFTED[case]
    with pytest.raises(CheckpointError, match=message):
        _load_resealed(tmp_path, craft(_sample_body(tmp_path)))


def test_fuzzed_bodies_load_or_raise_checkpoint_error(tmp_path):
    body = _sample_body(tmp_path)
    rng = np.random.default_rng(20240)
    for case in range(400):
        kind = case % 3
        if kind == 0:        # truncation
            crafted = body[:int(rng.integers(0, len(body)))]
        elif kind == 1:      # a 1-, 4- or 8-byte field overwritten
            width = int(rng.choice([1, 4, 8]))
            at = int(rng.integers(0, len(body) - width + 1))
            value = rng.integers(0, 256, size=width, dtype=np.uint8).tobytes()
            crafted = body[:at] + value + body[at + width:]
        else:                # bytes inserted
            at = int(rng.integers(0, len(body) + 1))
            crafted = body[:at] + rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                               dtype=np.uint8).tobytes() + body[at:]
        try:
            loaded = _load_resealed(tmp_path, crafted)
        except CheckpointError:
            continue
        except Exception as exc:  # anything else is a loader fault
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
        assert all(arr.dtype == np.float32 for arr in loaded.values())
