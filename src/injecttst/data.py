"""CSV ingestion, chronological splits, standardization, windows, patches.

The CSV contract: a header row whose first column is named ``date`` (its
content is carried along but never interpreted), remaining columns are
numeric channels, comma separated, ``.`` decimal.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ContractError, DataError, SizingError


@dataclass
class SeriesTable:
    """Raw multivariate series: row order is time order."""

    timestamps: list[str]
    values: np.ndarray              # (rows, M) float32
    channel_names: list[str]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowBatch:
    history: np.ndarray             # (B, L, M)
    target: np.ndarray              # (B, T, M)
    last_values: np.ndarray         # (B, M), final history row per window

    @property
    def size(self) -> int:
        return self.history.shape[0]


@dataclass
class PatchSet:
    """Per-channel patch tensor plus mask bookkeeping (True = masked)."""

    patches: np.ndarray             # (B, M, PN, PL)
    mask: np.ndarray                # (B, M, PN) bool
    PL: int
    S: int

    @property
    def PN(self) -> int:
        return self.patches.shape[2]


def load_csv(path: str) -> SeriesTable:
    """Load a series table; raises DataError with the offending row number."""
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataError(f"{path}: header must name a date column and at least one channel")
        if header[0].strip() != "date":
            raise DataError(f"{path}: first column must be named 'date', got {header[0]!r}")
        names = [h.strip() for h in header[1:]]
        timestamps: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
            timestamps.append(row[0])
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise DataError(f"{path}: row {lineno} contains a non-numeric cell") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    with np.errstate(over="ignore"):    # cells beyond float32 range become inf
        values = np.asarray(rows, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: row {r + 2} has a non-finite value in channel "
                        f"column {names[c]!r}")
    return SeriesTable(timestamps=timestamps, values=values, channel_names=names)


def save_csv(table: SeriesTable, path: str) -> None:
    """Write a table in the loader's format; float32 values round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(table.channel_names))
        for ts, row in zip(table.timestamps, table.values):
            writer.writerow([ts] + [format(float(v), ".9g") for v in row])


def _sub_table(table: SeriesTable, lo: int, hi: int) -> SeriesTable:
    return SeriesTable(timestamps=table.timestamps[lo:hi],
                       values=table.values[lo:hi],
                       channel_names=table.channel_names)


def split(table: SeriesTable, mode: str = "ratio") -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Chronological train/val/test partition.

    mode="ratio" uses 70/10/20, mode="ett" uses 60/20/20 row proportions.
    The three blocks concatenate back to the original table.
    """
    n = table.rows
    if mode == "ratio":
        b1, b2 = int(n * 0.7), int(n * 0.8)
    elif mode == "ett":
        b1, b2 = int(n * 0.6), int(n * 0.8)
    else:
        raise ContractError(f"unknown split mode {mode!r}")
    if n < 10 or b1 == 0 or b2 <= b1 or b2 >= n:
        raise SizingError(f"too few rows to split: {n} (need at least 10)")
    return _sub_table(table, 0, b1), _sub_table(table, b1, b2), _sub_table(table, b2, n)


def standardize(train: SeriesTable, val: SeriesTable, test: SeriesTable,
                ) -> tuple[SeriesTable, SeriesTable, SeriesTable, np.ndarray, np.ndarray]:
    """Transform all three splits with train-split statistics.

    Returns the transformed tables and the per-channel (mean, std); std is
    floored at 1e-8 so constant channels map to zeros.
    """
    mean = train.values.mean(axis=0)
    std = np.maximum(train.values.std(axis=0), np.float32(1e-8))

    def tx(t: SeriesTable) -> SeriesTable:
        return SeriesTable(timestamps=t.timestamps,
                           values=((t.values - mean) / std).astype(np.float32),
                           channel_names=t.channel_names)

    return tx(train), tx(val), tx(test), mean, std


def destandardize(values: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return values * std + mean


def with_history(prev: SeriesTable, cur: SeriesTable, L: int) -> SeriesTable:
    """Prepend the last L-1 rows of the preceding split as window context.

    Windows over the result keep every target inside `cur` while their
    histories may reach back into `prev`.
    """
    k = min(L - 1, prev.rows)
    if k <= 0:
        return cur
    return SeriesTable(timestamps=prev.timestamps[-k:] + cur.timestamps,
                       values=np.concatenate([prev.values[-k:], cur.values], axis=0),
                       channel_names=cur.channel_names)


def window_count(rows: int, L: int, T: int) -> int:
    return rows - L - T + 1


def make_windows(table: SeriesTable, L: int, T: int, batch_size: int,
                 shuffle: bool = False,
                 rng: Optional[np.random.Generator] = None) -> Iterator[WindowBatch]:
    """Yield stride-1 (history, target) window batches.

    Training streams pass shuffle=True with a seeded rng; evaluation streams
    keep source order.
    """
    n = window_count(table.rows, L, T)
    if n < 1:
        raise SizingError(f"need at least {L + T} rows for L={L}, T={T}, got {table.rows}")
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    starts = np.arange(n)
    if shuffle:
        if rng is None:
            raise ContractError("shuffle=True requires an rng")
        starts = rng.permutation(starts)
    values = table.values
    hist_idx = np.arange(L)
    tgt_idx = np.arange(T)
    for i in range(0, n, batch_size):
        s = starts[i:i + batch_size]
        history = values[s[:, None] + hist_idx]                # (B, L, M)
        target = values[s[:, None] + L + tgt_idx]              # (B, T, M)
        yield WindowBatch(history=history, target=target,
                          last_values=history[:, L - 1, :].copy())


def patch_count(L: int, PL: int, S: int) -> int:
    if PL > L:
        raise SizingError(f"patch length {PL} exceeds history length {L}")
    if S < 1:
        raise ContractError(f"stride must be >= 1, got {S}")
    return (L - PL) // S + 2


def patchify(history: np.ndarray, PL: int, S: int) -> PatchSet:
    """Slice each channel into patches after end-padding with S repeats of
    the final value (this padding is what yields the +2 in the patch count)."""
    B, L, M = history.shape
    PN = patch_count(L, PL, S)
    pad = np.repeat(history[:, -1:, :], S, axis=1)
    padded = np.concatenate([history, pad], axis=1)            # (B, L+S, M)
    idx = np.arange(PN)[:, None] * S + np.arange(PL)[None, :]  # (PN, PL)
    patches = padded[:, idx, :]                                # (B, PN, PL, M)
    patches = patches.transpose(0, 3, 1, 2).copy()             # (B, M, PN, PL)
    mask = np.zeros((B, M, PN), dtype=bool)
    return PatchSet(patches=patches, mask=mask, PL=PL, S=S)


def sequence_from_patches(ps: PatchSet, L: int) -> np.ndarray:
    """Rebuild a (B, L, M) sequence from patches (later patches overwrite
    overlap, exact for non-overlapping strides)."""
    B, M, PN, PL = ps.patches.shape
    padded_len = (PN - 1) * ps.S + PL
    seq = np.zeros((B, M, padded_len), dtype=ps.patches.dtype)
    for p in range(PN):
        seq[:, :, p * ps.S:p * ps.S + PL] = ps.patches[:, :, p, :]
    return seq[:, :, :L].transpose(0, 2, 1).copy()


def mask_count(ratio: float, PN: int) -> int:
    # round half up: 50% of an odd patch count rounds toward more masking
    return int(np.floor(ratio * PN + 0.5))


def mask_patches(ps: PatchSet, ratio: float, seed) -> PatchSet:
    """Zero out a uniform random subset of patches per (window, channel).

    Exactly round(ratio * PN) patches are masked in every channel; the input
    PatchSet is left untouched so originals stay available for the loss.
    """
    if not 0.0 < ratio < 1.0:
        raise ContractError(f"mask ratio must be in (0, 1), got {ratio}")
    B, M, PN, PL = ps.patches.shape
    count = mask_count(ratio, PN)
    rng = np.random.default_rng(seed)
    keys = rng.random((B, M, PN))
    picked = np.argsort(keys, axis=-1)[:, :, :count]
    mask = np.zeros((B, M, PN), dtype=bool)
    np.put_along_axis(mask, picked, True, axis=-1)
    patches = ps.patches.copy()
    patches[mask] = 0.0
    return PatchSet(patches=patches, mask=mask, PL=ps.PL, S=ps.S)
