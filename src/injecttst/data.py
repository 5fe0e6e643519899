"""CSV ingestion, chronological splits, standardization, windows, patches.

The CSV contract: a header row whose first column is named ``date`` (its
cells are checked for count only and then dropped), remaining columns are
numeric channels with non-empty, unique names, comma separated, ``.``
decimal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ContractError, DataError, SizingError


@dataclass
class SeriesTable:
    """Raw multivariate series: row order is time order."""

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
    """Channel-major windows, views of one (B, M, L + T) gather."""

    history: np.ndarray             # (B, M, L)
    target: np.ndarray              # (B, M, T)

    @property
    def size(self) -> int:
        return self.history.shape[0]


@dataclass
class PatchSet:
    """Per-channel patch tensor plus mask bookkeeping (True = masked)."""

    patches: np.ndarray             # (B, M, PN, PL)
    mask: np.ndarray                # (B, M, PN) bool

    @property
    def PN(self) -> int:
        return self.patches.shape[2]


def load_csv(path: str) -> SeriesTable:
    """Load a series table; raises DataError with the offending row number."""
    import csv

    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        for c, name in enumerate(names):
            if not name or name in names[:c]:
                raise DataError(f"{path}: column {c + 2} {name!r} needs a name of its own "
                                "(channel names must be non-empty and unique)")
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
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
    return SeriesTable(values=values, channel_names=names)


def _sub_table(table: SeriesTable, lo: int, hi: int) -> SeriesTable:
    return SeriesTable(values=table.values[lo:hi], channel_names=table.channel_names)


# split mode -> the fractions of the rows that end the train and val blocks
SPLITS = {"ratio": (0.7, 0.8), "ett": (0.6, 0.8)}


def split(table: SeriesTable, mode: str = "ratio") -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Chronological train/val/test partition by the row fractions of
    `SPLITS[mode]`: 70/10/20 for "ratio", 60/20/20 for "ett". The three
    blocks concatenate back to the original table.
    """
    if mode not in SPLITS:
        raise ContractError(f"unknown split mode {mode!r}")
    n = table.rows
    b1, b2 = (int(n * frac) for frac in SPLITS[mode])
    if n < 10 or b1 == 0 or b2 <= b1 or b2 >= n:
        raise SizingError(f"too few rows to split: {n} (need at least 10)")
    return _sub_table(table, 0, b1), _sub_table(table, b1, b2), _sub_table(table, b2, n)


def standardize(train: SeriesTable, val: SeriesTable, test: SeriesTable,
                ) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Transform all three splits with the train split's per-channel mean and
    std; std is floored at 1e-8 so constant channels map to zeros."""
    mean = train.values.mean(axis=0)
    std = np.maximum(train.values.std(axis=0), np.float32(1e-8))

    def tx(t: SeriesTable) -> SeriesTable:
        return SeriesTable(values=((t.values - mean) / std).astype(np.float32),
                           channel_names=t.channel_names)

    return tx(train), tx(val), tx(test)


def with_history(prev: SeriesTable, cur: SeriesTable, L: int) -> SeriesTable:
    """Prepend the last L rows of the preceding split (all of them, if it has
    fewer) as window context.

    Windows over the result keep every target inside `cur` while their
    histories may reach back into `prev`; with L rows, the first window's
    target starts at the first row of `cur`.
    """
    k = min(L, prev.rows)
    return SeriesTable(values=np.concatenate([prev.values[prev.rows - k:], cur.values], axis=0),
                       channel_names=cur.channel_names)


def window_count(rows: int, L: int, T: int) -> int:
    return rows - L - T + 1


def make_windows(table: SeriesTable, L: int, T: int, batch_size: int,
                 rng: Optional[np.random.Generator] = None) -> Iterator[WindowBatch]:
    """Yield stride-1 channel-major (history, target) window batches,
    shuffled by `rng` when one is given (training streams) and in source
    order otherwise."""
    n = window_count(table.rows, L, T)
    if n < 1:
        raise SizingError(f"need at least {L + T} rows for L={L}, T={T}, got {table.rows}")
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    starts = np.arange(n)
    if rng is not None:
        starts = rng.permutation(starts)
    spans = np.lib.stride_tricks.sliding_window_view(table.values, L + T, axis=0)
    for i in range(0, n, batch_size):
        windows = spans[starts[i:i + batch_size]]              # (B, M, L+T)
        yield WindowBatch(history=windows[:, :, :L], target=windows[:, :, L:])


def patch_count(L: int, PL: int) -> int:
    if PL > L:
        raise SizingError(f"patch length {PL} exceeds history length {L}")
    return (L - PL) // PL + 2


def patchify(history: np.ndarray, PL: int) -> PatchSet:
    """Slice each channel of a (B, M, L) history into non-overlapping PL-long
    patches, so no masked patch's values lie in another, after end-padding it
    with its final value to PN * PL values (the +2 in the patch count)."""
    B, M, L = history.shape
    PN = patch_count(L, PL)
    pad = np.repeat(history[:, :, -1:], PN * PL - L, axis=2)
    patches = np.concatenate([history, pad], axis=2).reshape(B, M, PN, PL)
    return PatchSet(patches=patches, mask=np.zeros((B, M, PN), dtype=bool))


def sequence_from_patches(ps: PatchSet, L: int) -> np.ndarray:
    """The (B, M, L) sequence behind the patches, as a view of them."""
    B, M, PN, PL = ps.patches.shape
    return ps.patches.reshape(B, M, PN * PL)[:, :, :L]


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
    return PatchSet(patches=patches, mask=mask)
