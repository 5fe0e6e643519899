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
                                  check_channels, load_checkpoint, read_checkpoint,
                                  save_checkpoint)
from injecttst.errors import CheckpointError
from injecttst.model import ModelConfig, init_params


def test_roundtrip_bitwise(tmp_path, rng):
    tensors = {"a": rng.normal(size=(3, 4)).astype(np.float32),
               "b.weight": rng.normal(size=(7,)).astype(np.float32),
               # a scalar, a transposed view and an empty tensor keep their shapes
               "s": np.float32(2.5), "t": rng.normal(size=(4, 3)).astype(np.float32).T,
               "z": np.zeros((0, 5), np.float32)}
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == np.shape(tensors[name])
        assert np.array_equal(loaded[name], tensors[name])


_CFG = ModelConfig(L=24, T=4, M=3, PL=8, D=8, heads=2, ci_layers=1, mix_layers=1)
_NAMES = ["x", "y", "z"]


def test_layout_details(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": np.array([[1.0, 2.0]], dtype=np.float32),
                     "b": np.array([3.0], dtype=np.float32)}, path, _CFG, _NAMES)
    blob = open(path, "rb").read()
    assert blob[:4] == MAGIC
    version, size = struct.unpack_from("<II", blob, 4)
    assert version == FORMAT_VERSION == 3
    raw = blob[12:12 + size]
    header = json.loads(raw.decode("utf-8"))
    assert raw == json.dumps(header, sort_keys=True).encode("utf-8")
    assert header == {"channels": _NAMES, "model": dataclasses.asdict(_CFG),
                      "tensors": [["b", [1]], ["w", [1, 2]]]}
    assert len(header["model"]) == 14   # nine model.* settings, M, four variant flags
    # the data follows the header in its order: b, then w row-major
    assert blob[12 + size:-4] == struct.pack("<3f", 3.0, 1.0, 2.0)
    (crc,) = struct.unpack("<I", blob[-4:])
    assert crc == zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    assert read_checkpoint(path)[1:] == (header["model"], _NAMES)


def test_a_checkpoint_saved_without_a_config_records_no_model_and_no_channels(tmp_path):
    path = str(tmp_path / "x.ckpt")
    save_checkpoint({"w": np.ones(2, np.float32)}, path)
    blob = open(path, "rb").read()
    (size,) = struct.unpack_from("<I", blob, 8)
    assert json.loads(blob[12:12 + size]) == {"channels": [], "model": {},
                                              "tensors": [["w", [2]]]}
    assert read_checkpoint(path)[1:] == ({}, [])


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


def test_check_channels_names_the_first_position_or_both_lengths_that_differ():
    check_channels(_NAMES, list(_NAMES), "x.ckpt")
    with pytest.raises(CheckpointError, match=r"x\.ckpt: channel 1 is 'y' in the checkpoint "
                       r"but 'z' in the table$"):
        check_channels(_NAMES, ["x", "z", "y"], "x.ckpt")
    with pytest.raises(CheckpointError, match=r"records 3 channel names, the table has 2$"):
        check_channels(_NAMES, ["x", "y"], "x.ckpt")
    # a checkpoint saved without channel names fits no table
    with pytest.raises(CheckpointError, match=r"records no channel names, the table has 3$"):
        check_channels([], _NAMES, "x.ckpt")


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
    """A saved checkpoint without its CRC: tensors "a" (3, 4), "b.weight" (7,)
    and "s" (), 80 bytes of data in that order after the header."""
    path = str(tmp_path / "sample.ckpt")
    rng = np.random.default_rng(0)
    save_checkpoint({"a": rng.normal(size=(3, 4)).astype(np.float32),
                     "b.weight": rng.normal(size=(7,)).astype(np.float32),
                     "s": np.float32(2.5)}, path, _CFG, _NAMES)
    return open(path, "rb").read()[:-4]


def _seal(tmp_path, body: bytes) -> str:
    path = str(tmp_path / "crafted.ckpt")
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return path


def _read_resealed(tmp_path, body: bytes):
    return read_checkpoint(_seal(tmp_path, body))


def _patched(body: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(body)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _data_at(body: bytes) -> int:
    """Where the tensor data starts: after the header length at 8 and the header."""
    return 12 + struct.unpack_from("<I", body, 8)[0]


def _header(body: bytes) -> dict:
    return json.loads(body[12:_data_at(body)])


def _with_header(body: bytes, header, data: bytes = None) -> bytes:
    """`body` with its header replaced by `header` (raw bytes, or an object to
    encode) and, if given, its data by `data`."""
    raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return (body[:8] + struct.pack("<I", len(raw)) + raw
            + (body[_data_at(body):] if data is None else data))


def _with(body: bytes, key: str, value) -> bytes:
    """`body` with header key `key` set to `value`, or removed when it is `_DROP`."""
    header = {k: v for k, v in _header(body).items() if k != key}
    return _with_header(body, header if value is _DROP else {**header, key: value})


def _with_tensor(body: bytes, index: int, entry) -> bytes:
    """`body` with its `index`-th "tensors" entry replaced by `entry`."""
    entries = _header(body)["tensors"]
    return _with(body, "tensors", entries[:index] + [entry] + entries[index + 1:])


_DROP = object()
_TENSORS_ERROR = r"tensors are not a list of \[name, shape\] pairs"

_CRAFTED = {
    # the fixed fields
    "truncated file": (lambda b: b[:10], "truncated checkpoint"),
    "bad magic": (lambda b: b"NOPE" + b[4:], "bad magic b'NOPE'"),
    "version 0": (lambda b: _patched(b, 4, "<I", 0), "unsupported format version 0$"),
    "version 1": (lambda b: _patched(b, 4, "<I", 1), "unsupported format version 1$"),
    "version 2": (lambda b: _patched(b, 4, "<I", 2), "unsupported format version 2$"),
    "version 4": (lambda b: _patched(b, 4, "<I", 4), "unsupported format version 4$"),
    "header length past the end": (lambda b: _patched(b, 8, "<I", len(b) - 11),
                                   "runs past the end of the file"),
    "header length huge": (lambda b: _patched(b, 8, "<I", 2**32 - 1),
                           "runs past the end of the file"),
    "header cut after its length": (lambda b: b[:20], "runs past the end of the file"),
    # the header as a document
    "header one byte longer": (lambda b: _patched(b, 8, "<I", _data_at(b) - 11),
                               "header is not UTF-8 JSON"),
    "header not utf-8": (lambda b: _patched(b, 14, "<B", 0xFF), "header is not UTF-8 JSON"),
    "header empty": (lambda b: _with_header(b, b""), "header is not UTF-8 JSON"),
    "header not json": (lambda b: _with_header(b, b"heads=4"), "header is not UTF-8 JSON"),
    "header cut json": (lambda b: _with_header(b, b[12:_data_at(b) - 1]),
                        "header is not UTF-8 JSON"),
    "header nested too deep": (lambda b: _with_header(b, b"[" * 100_000),
                               "header is not UTF-8 JSON"),
    "header a list": (lambda b: _with_header(b, b"[4, 2]"), "exactly the keys"),
    "header a string": (lambda b: _with_header(b, b'"pat"'), "exactly the keys"),
    "header null": (lambda b: _with_header(b, b"null"), "exactly the keys"),
    "header without channels": (lambda b: _with(b, "channels", _DROP), "exactly the keys"),
    "header without model": (lambda b: _with(b, "model", _DROP), "exactly the keys"),
    "header without tensors": (lambda b: _with(b, "tensors", _DROP), "exactly the keys"),
    "header with an extra key": (lambda b: _with(b, "extra", 1), "exactly the keys"),
    # the model record
    "model a list": (lambda b: _with(b, "model", [4, 2]), "not an object of scalars"),
    "model a string": (lambda b: _with(b, "model", "pat"), "not an object of scalars"),
    "model with a list value": (lambda b: _with(b, "model", {"heads": [4]}),
                                "not an object of scalars"),
    "model with an object value": (lambda b: _with(b, "model", {"heads": {"n": 4}}),
                                   "not an object of scalars"),
    "model with a null value": (lambda b: _with(b, "model", {"heads": None}),
                                "not an object of scalars"),
    # the channel names
    "channels a string": (lambda b: _with(b, "channels", "x,y,z"), "channels are not a list"),
    "channels an object": (lambda b: _with(b, "channels", {"0": "x"}),
                           "channels are not a list"),
    "channels null": (lambda b: _with(b, "channels", None), "channels are not a list"),
    "channel a number": (lambda b: _with(b, "channels", ["x", 1, "z"]),
                         "channels are not a list"),
    "channel null": (lambda b: _with(b, "channels", ["x", None]), "channels are not a list"),
    # the tensor entries: each bad shape below holds 12 values, as "a" does,
    # so only the entry's own check can refuse it
    "tensors an object": (lambda b: _with(b, "tensors", {"a": [3, 4]}), _TENSORS_ERROR),
    "tensor entry a string": (lambda b: _with_tensor(b, 0, "a"), _TENSORS_ERROR),
    "tensor entry a triple": (lambda b: _with_tensor(b, 0, ["a", [3, 4], 1]), _TENSORS_ERROR),
    "tensor entry a single": (lambda b: _with_tensor(b, 0, ["a"]), _TENSORS_ERROR),
    "tensor name a number": (lambda b: _with_tensor(b, 0, [1, [3, 4]]), _TENSORS_ERROR),
    "tensor shape a number": (lambda b: _with_tensor(b, 0, ["a", 12]), _TENSORS_ERROR),
    "tensor shape null": (lambda b: _with_tensor(b, 2, ["s", None]), _TENSORS_ERROR),
    "bool dimension": (lambda b: _with_tensor(b, 0, ["a", [True, 12]]), _TENSORS_ERROR),
    "float dimension": (lambda b: _with_tensor(b, 0, ["a", [3.0, 4]]), _TENSORS_ERROR),
    "negative dimensions": (lambda b: _with_tensor(b, 0, ["a", [-3, -4]]), _TENSORS_ERROR),
    "duplicate name": (lambda b: _with_tensor(b, 1, ["a", [7]]), "duplicate tensor 'a'"),
    # the data length: 4 bytes per value the shapes hold
    "data one value short": (lambda b: b[:-4], "hold 80 bytes of data, the file 76$"),
    "data one value long": (lambda b: b + struct.pack("<f", 1.0),
                            "hold 80 bytes of data, the file 84$"),
    "data cut mid-value": (lambda b: b[:-2], "hold 80 bytes of data, the file 78$"),
    "data missing": (lambda b: b[:_data_at(b)], "hold 80 bytes of data, the file 0$"),
    "dimension past the data": (lambda b: _with_tensor(b, 0, ["a", [3, 5]]),
                                "hold 92 bytes of data, the file 80$"),
    "dimensions huge": (lambda b: _with_tensor(b, 0, ["a", [2**40, 2**40, 2**40]]),
                        "bytes of data, the file 80$"),
    "tensor dropped": (lambda b: _with(b, "tensors", _header(b)["tensors"][1:]),
                       "hold 32 bytes of data, the file 80$"),
    # values: the first non-finite tensor in file order is named
    "nan value": (lambda b: _patched(b, _data_at(b) + 4, "<f", float("nan")),
                  "'a' holds a non-finite"),
    "inf value": (lambda b: _patched(b, len(b) - 4, "<f", float("inf")),
                  "'s' holds a non-finite"),
    "-inf value": (lambda b: _patched(b, _data_at(b) + 44, "<f", float("-inf")),
                   "'a' holds a non-finite"),
    "-inf value in b.weight": (lambda b: _patched(b, _data_at(b) + 48, "<f", float("-inf")),
                               "'b.weight' holds a non-finite"),
}


@pytest.mark.parametrize("case", sorted(_CRAFTED))
def test_crafted_body_raises_checkpoint_error(tmp_path, case):
    craft, message = _CRAFTED[case]
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(_seal(tmp_path, craft(_sample_body(tmp_path))))


def test_the_sample_body_loads(tmp_path):
    # so each crafted case above is refused for what it changed
    tensors, model, channels = _read_resealed(tmp_path, _sample_body(tmp_path))
    assert {k: v.shape for k, v in tensors.items()} == {"a": (3, 4), "b.weight": (7,),
                                                       "s": ()}
    assert (model, channels) == (dataclasses.asdict(_CFG), _NAMES)


def test_a_crafted_record_that_parses_is_refused_by_the_architecture_check(tmp_path):
    # a well-formed record of another model loads, and fits only that model
    body = _with(_sample_body(tmp_path), "model", {**dataclasses.asdict(_CFG), "heads": 4})
    tensors, record, _ = _read_resealed(tmp_path, body)
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
        loaded, record, channels = _read_resealed(tmp_path, crafted)
    except CheckpointError:
        return
    except Exception as exc:  # anything else is a loader fault
        pytest.fail(f"case {case}: {type(exc).__name__}: {exc}")
    assert all(arr.dtype == np.float32 for arr in loaded.values())
    assert isinstance(record, dict)
    assert all(isinstance(v, (bool, int, float, str)) for v in record.values())
    assert isinstance(channels, list) and all(isinstance(c, str) for c in channels)


def test_fuzzed_bodies_load_or_raise_checkpoint_error(tmp_path):
    # every mutation lands in the tensor data, or cuts or runs it on
    body = _sample_body(tmp_path)
    rng = np.random.default_rng(20240)
    for case in range(400):
        _loads_or_refuses(tmp_path, _mutated(rng, body, case % 3, _data_at(body), len(body)),
                          case)


def test_fuzzed_headers_load_or_raise_checkpoint_error(tmp_path):
    # mutations of the header and its length field, or the header cut short
    # or run on with its length kept right
    body = _sample_body(tmp_path)
    raw = body[12:_data_at(body)]
    rng = np.random.default_rng(20241)
    for case in range(400):
        kind = case % 4
        if kind < 3:
            crafted = _mutated(rng, body, kind, 8, _data_at(body))
        else:
            tail = rng.integers(0, 256, size=int(rng.integers(0, 5)), dtype=np.uint8).tobytes()
            crafted = _with_header(body, raw[:int(rng.integers(0, len(raw) + 1))] + tail)
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
        load_checkpoint(_seal(tmp_path, body))


def test_save_refuses_a_non_finite_tensor_before_making_a_file(tmp_path):
    # the first bad tensor in file order is named, and neither the checkpoint
    # nor its temporary file is left behind
    tensors = {"c": np.full(2, np.nan, np.float32), "a": np.ones(3, np.float32),
               "b": np.array([1.0, -np.inf], np.float32)}
    with pytest.raises(CheckpointError, match="tensor 'b' holds a non-finite value"):
        save_checkpoint(tensors, str(tmp_path / "x.ckpt"))
    assert list(tmp_path.iterdir()) == []
