"""Binary checkpoint format: layout, round trips, corruption detection."""

import dataclasses
import json
import os
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from injecttst.checkpoint import (FORMAT_VERSION, MAGIC, apply_checkpoint, check_architecture,
                                  load_checkpoint, read_checkpoint, save_checkpoint)
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


_CFG = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1, mix_layers=1)


def test_layout_details(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": np.array([[1.0, 2.0]], dtype=np.float32)}, path, _CFG)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC
    version, size = struct.unpack_from("<II", blob, 4)
    assert version == FORMAT_VERSION == 2
    record = json.loads(blob[12:12 + size].decode("utf-8"))
    assert record == dataclasses.asdict(_CFG)
    assert len(record) == 14         # nine model.* settings, M, four variant flags
    at = 12 + size
    (count,) = struct.unpack_from("<I", blob, at)
    assert count == 1
    (name_len,) = struct.unpack_from("<I", blob, at + 4)
    assert blob[at + 8:at + 8 + name_len] == b"w"
    (rank,) = struct.unpack_from("<I", blob, at + 8 + name_len)
    assert rank == 2
    dims = struct.unpack_from("<2Q", blob, at + 12 + name_len)
    assert dims == (1, 2)
    (crc,) = struct.unpack("<I", blob[-4:])
    assert crc == zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    assert read_checkpoint(path)[1] == record


def test_a_checkpoint_saved_without_a_config_has_an_empty_record(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": np.ones(2, np.float32)}, path)
    blob = open(path, "rb").read()
    assert struct.unpack_from("<I", blob, 8) == (2,) and blob[12:14] == b"{}"
    assert read_checkpoint(path)[1] == {}


def test_check_architecture_names_every_field_that_differs():
    record = dataclasses.asdict(_CFG)
    check_architecture(record, _CFG, "x.ckpt")
    # dropout acts only in training, so another rate is the same model
    check_architecture({**record, "dropout": 0.3}, _CFG, "x.ckpt")
    check_architecture(record, replace(_CFG, dropout=0.3), "x.ckpt")
    other = replace(_CFG, heads=4, mix_mode="cat")
    with pytest.raises(CheckpointError, match=r"x\.ckpt: the checkpoint's model differs from "
                       r"this run's in heads \(checkpoint 2, run 4\), mix_mode "
                       r"\(checkpoint 'pat', run 'cat'\)$"):
        check_architecture(record, other, "x.ckpt")
    # a field the run's config lacks, or one the record lacks, differs too
    with pytest.raises(CheckpointError, match=r"in extra \(checkpoint 1, run None\)$"):
        check_architecture({**record, "extra": 1}, _CFG, "x.ckpt")
    del record["M"]
    with pytest.raises(CheckpointError, match=r"in M \(checkpoint None, run 3\)$"):
        check_architecture(record, _CFG, "x.ckpt")


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


def test_model_params_rejected_across_ablation_flags(tmp_path):
    # a variant without the identifier or the global branch has fewer
    # tensors, so the full model's checkpoint does not load into it
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2,
                      ci_layers=1, mix_layers=1)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(init_params(cfg, seed=0), path)
    for flags in (dict(use_channel_identifier=False), dict(use_global_injection=False)):
        other = init_params(replace(cfg, **flags), seed=99)
        with pytest.raises(CheckpointError, match="extra="):
            apply_checkpoint(other, load_checkpoint(path))


def test_apply_rejects_name_mismatch(tmp_path, rng):
    cfg = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2,
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
                     "s": np.float32(2.5)}, path, _CFG)
    return open(path, "rb").read()[:-4]


def _seal(tmp_path, body: bytes) -> str:
    path = str(tmp_path / "crafted.ckpt")
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return path


def _read_resealed(tmp_path, body: bytes):
    return read_checkpoint(_seal(tmp_path, body))


def _load_resealed(tmp_path, body: bytes):
    return load_checkpoint(_seal(tmp_path, body))


def _patched(body: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(body)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _first_tensor(body: bytes) -> int:
    """Where the first tensor record starts: after the architecture record and the count."""
    return 12 + struct.unpack_from("<I", body, 8)[0] + 4


def _with_record(body: bytes, raw: bytes) -> bytes:
    """`body` with its architecture record replaced by `raw`."""
    return body[:8] + struct.pack("<I", len(raw)) + raw + body[_first_tensor(body) - 4:]


# `t` is where the first tensor record ("a", shape (3, 4)) starts, after the
# architecture record at 12 and the count at t - 4; it takes t to t + 73:
# name length at t, name at t + 4, rank at t + 5, dimensions at t + 9 and
# t + 17, data from t + 25
_CRAFTED = {
    "count too large": (lambda b, t: _patched(b, t - 4, "<I", 2**32 - 1), "tensor count"),
    "count one too many": (lambda b, t: _patched(b, t - 4, "<I", 4), "name length"),
    "name length too large": (lambda b, t: _patched(b, t, "<I", 2**31), "tensor name"),
    "non-utf8 name": (lambda b, t: _patched(b, t + 4, "<B", 0xFF), "UTF-8"),
    "rank too large": (lambda b, t: _patched(b, t + 5, "<I", 2**32 - 1), "shape"),
    "dimension too large": (lambda b, t: _patched(b, t + 9, "<Q", 2**62), "data"),
    "dimension past the data": (lambda b, t: _patched(b, t + 9, "<Q", 100), "data of 'a'"),
    "duplicate name": (lambda b, t: _patched(b[:t + 73] + b[t:t + 73] + b[t + 73:], t - 4,
                                             "<I", 4), "duplicate"),
    "cut body": (lambda b, t: b[:-2], "data of 's'"),
    "header only": (lambda b, t: b[:t], "tensor count"),
    "nan value": (lambda b, t: _patched(b, t + 29, "<f", float("nan")), "'a' holds a non-finite"),
    "inf value": (lambda b, t: _patched(b, len(b) - 4, "<f", float("inf")),
                  "'s' holds a non-finite"),
    "-inf value": (lambda b, t: _patched(b, t + 69, "<f", float("-inf")),
                   "'a' holds a non-finite"),
    "version 3": (lambda b, t: _patched(b, 4, "<I", 3), "unsupported format version 3"),
    "version 0": (lambda b, t: _patched(b, 4, "<I", 0), "unsupported format version 0"),
    "version 1": (lambda b, t: _patched(b, 4, "<I", 1), "unsupported format version 1"),
    # the architecture record
    "record cut": (lambda b, t: b[:20], "architecture record runs past"),
    "record length cut": (lambda b, t: b[:10], "truncated checkpoint"),
    "record oversized": (lambda b, t: _patched(b, 8, "<I", 2**32 - 1),
                         "architecture record runs past"),
    "record one byte longer": (lambda b, t: _patched(b, 8, "<I", t - 15),
                               "architecture record is not UTF-8 JSON"),
    "non-utf8 record": (lambda b, t: _patched(b, 14, "<B", 0xFF),
                        "architecture record is not UTF-8 JSON"),
    "empty record": (lambda b, t: _with_record(b, b""), "architecture record is not UTF-8 JSON"),
    "record not json": (lambda b, t: _with_record(b, b"heads=4"),
                        "architecture record is not UTF-8 JSON"),
    "record cut json": (lambda b, t: _with_record(b, b'{"heads": 4'),
                        "architecture record is not UTF-8 JSON"),
    "record nested too deep": (lambda b, t: _with_record(b, b"[" * 100_000),
                               "architecture record is not UTF-8 JSON"),
    "record a list": (lambda b, t: _with_record(b, b"[4, 2]"), "not a JSON object of scalars"),
    "record a string": (lambda b, t: _with_record(b, b'"pat"'), "not a JSON object of scalars"),
    "record with a list value": (lambda b, t: _with_record(b, b'{"heads": [4]}'),
                                 "not a JSON object of scalars"),
    "record with a null value": (lambda b, t: _with_record(b, b'{"heads": null}'),
                                 "not a JSON object of scalars"),
}


@pytest.mark.parametrize("case", sorted(_CRAFTED))
def test_crafted_body_raises_checkpoint_error(tmp_path, case):
    craft, message = _CRAFTED[case]
    body = _sample_body(tmp_path)
    with pytest.raises(CheckpointError, match=message):
        _load_resealed(tmp_path, craft(body, _first_tensor(body)))


def test_a_crafted_record_that_parses_is_refused_by_the_architecture_check(tmp_path):
    # a well-formed record of another model loads, and fits only that model
    body = _sample_body(tmp_path)
    raw = json.dumps({**dataclasses.asdict(_CFG), "heads": 4}).encode()
    tensors, record = _read_resealed(tmp_path, _with_record(body, raw))
    assert sorted(tensors) == ["a", "b.weight", "s"] and record["heads"] == 4
    with pytest.raises(CheckpointError, match=r"in heads \(checkpoint 4, run 2\)$"):
        check_architecture(record, _CFG, "crafted.ckpt")


def _mutated(rng, body: bytes, kind: int, lo: int, hi: int) -> bytes:
    """`body` cut short, with a 1-, 4- or 8-byte field overwritten, or with
    bytes inserted (`kind` 0, 1, 2), at an offset in [lo, hi]."""
    if kind == 0:
        return body[:int(rng.integers(lo, hi))]
    if kind == 1:
        width = int(rng.choice([1, 4, 8]))
        at = int(rng.integers(lo, hi - width + 1))
        value = rng.integers(0, 256, size=width, dtype=np.uint8).tobytes()
        return body[:at] + value + body[at + width:]
    at = int(rng.integers(lo, hi + 1))
    return body[:at] + rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                    dtype=np.uint8).tobytes() + body[at:]


def _loads_or_refuses(tmp_path, crafted: bytes, case: int) -> None:
    try:
        loaded, record = _read_resealed(tmp_path, crafted)
    except CheckpointError:
        return
    except Exception as exc:  # anything else is a loader fault
        pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
    assert all(arr.dtype == np.float32 for arr in loaded.values())
    assert isinstance(record, dict)
    assert all(isinstance(v, (bool, int, float, str)) for v in record.values())


def test_fuzzed_bodies_load_or_raise_checkpoint_error(tmp_path):
    # every mutation lands in the tensor records, from the count on
    body = _sample_body(tmp_path)
    count_at = _first_tensor(body) - 4
    rng = np.random.default_rng(20240)
    for case in range(400):
        _loads_or_refuses(tmp_path, _mutated(rng, body, case % 3, count_at, len(body)), case)


def test_fuzzed_architecture_records_load_or_raise_checkpoint_error(tmp_path):
    # mutations of the record and its length field, or the record cut short
    # or run on with its length kept right
    body = _sample_body(tmp_path)
    count_at = _first_tensor(body) - 4
    raw = body[12:count_at]
    rng = np.random.default_rng(20241)
    for case in range(200):
        kind = case % 4
        if kind < 3:
            crafted = _mutated(rng, body, kind, 8, count_at)
        else:
            tail = rng.integers(0, 256, size=int(rng.integers(0, 5)), dtype=np.uint8).tobytes()
            crafted = _with_record(body, raw[:int(rng.integers(0, len(raw) + 1))] + tail)
        _loads_or_refuses(tmp_path, crafted, case)


def test_non_finite_tensor_is_named_in_file_order(tmp_path):
    # tensors are stored sorted by name, so the error names the first bad one;
    # save_checkpoint refuses such values, so they are patched into saved bytes
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"a": np.ones(3, np.float32), "b": np.array([1.0, 7.0], np.float32),
                     "c": np.full(2, 9.0, np.float32)}, path)
    body = open(path, "rb").read()[:-4]
    for finite, bad in ((7.0, np.inf), (9.0, np.nan)):
        body = body.replace(struct.pack("<f", finite), struct.pack("<f", bad))
    with pytest.raises(CheckpointError, match="tensor 'b' holds a non-finite value"):
        _load_resealed(tmp_path, body)


def test_save_refuses_a_non_finite_tensor_before_making_a_file(tmp_path):
    # the first bad tensor in file order is named, and neither the checkpoint
    # nor its temporary file is left behind
    tensors = {"c": np.full(2, np.nan, np.float32), "a": np.ones(3, np.float32),
               "b": np.array([1.0, -np.inf], np.float32)}
    with pytest.raises(CheckpointError, match="tensor 'b' holds a non-finite value"):
        save_checkpoint(tensors, str(tmp_path / "x.ckpt"))
    assert list(tmp_path.iterdir()) == []
