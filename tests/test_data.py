"""CSV loading, splits, standardization, windows, patching, masking."""

import csv

import numpy as np
import pytest

from injecttst.data import (SeriesTable, load_csv, make_windows, mask_count,
                            mask_patches, patch_count, patchify,
                            sequence_from_patches, split, standardize,
                            window_count, with_history)
from injecttst.errors import ContractError, DataError, SizingError
from injecttst.training import prepare_data


def _table(values, names=None):
    values = np.asarray(values, dtype=np.float32)
    return SeriesTable(values=values,
                       channel_names=names or [f"c{i}" for i in range(values.shape[1])])


def save_csv(table: SeriesTable, path: str, dates=None) -> None:
    """Write a table in the loader's format; float32 values round-trip exactly.
    The date cells are the row numbers unless `dates` are given."""
    dates = dates if dates is not None else [str(i) for i in range(table.rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(table.channel_names))
        for date, row in zip(dates, table.values):
            writer.writerow([date] + [format(float(v), ".9g") for v in row])


# ---------------------------------------------------------------------------
# csv

def test_load_csv_small(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("date,a,b\n1,1.5,2\n2,3,4\n3,5,6.25\n")
    table = load_csv(str(p))
    assert table.values.shape == (3, 2)
    assert table.channel_names == ["a", "b"]
    np.testing.assert_allclose(table.values, [[1.5, 2], [3, 4], [5, 6.25]])


def test_load_csv_accepts_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet exports often start with one
    p = tmp_path / "d.csv"
    p.write_bytes(b"\xef\xbb\xbfdate,a\n1,1.5\n2,3\n")
    table = load_csv(str(p))
    assert table.channel_names == ["a"]
    np.testing.assert_array_equal(table.values, [[1.5], [3.0]])


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("date,a\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(str(p))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(str(tmp_path / "nope.csv"))


def test_load_csv_non_numeric_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("date,a\n1,1.0\n2,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(str(p))


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("date,a,b\n1,1.0,2.0\n2,3.0\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(str(p))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e39"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"date,a,b\n1,1.0,2.0\n2,3.0,{cell}\n")
    with pytest.raises(DataError, match="row 3 .*'b'"):
        load_csv(str(p))


def test_load_csv_requires_date_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,a\n1,1.0\n")
    with pytest.raises(DataError, match="date"):
        load_csv(str(p))


def test_csv_roundtrip_bitwise(tmp_path, rng):
    table = _table(rng.normal(size=(1000, 7)).astype(np.float32))
    path = str(tmp_path / "rt.csv")
    save_csv(table, path)
    again = load_csv(path)
    assert np.array_equal(table.values, again.values)
    assert again.channel_names == table.channel_names


def test_date_cells_do_not_change_the_values(tmp_path, rng):
    # the date column is checked by name only; its cells are not read
    table = _table(rng.normal(size=(50, 3)).astype(np.float32))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_csv(table, a)
    save_csv(table, b, dates=[f"2016-07-01 {i % 24:02d}:00" if i % 3 else "" for i in range(50)])
    assert open(a).read() != open(b).read()
    first, second = load_csv(a), load_csv(b)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.channel_names == second.channel_names


# ---------------------------------------------------------------------------
# split

def test_split_ratio_boundaries():
    tr, va, te = split(_table(np.zeros((100, 2))), "ratio")
    assert (tr.rows, va.rows, te.rows) == (70, 10, 20)


def test_split_ett_boundaries():
    tr, va, te = split(_table(np.zeros((100, 2))), "ett")
    assert (tr.rows, va.rows, te.rows) == (60, 20, 20)


@pytest.mark.parametrize("mode", ["ratio", "ett"])
def test_split_partition_property(mode, rng):
    table = _table(rng.normal(size=(137, 3)).astype(np.float32))
    tr, va, te = split(table, mode)
    recon = np.concatenate([tr.values, va.values, te.values], axis=0)
    assert np.array_equal(recon, table.values)


def test_split_too_few_rows():
    with pytest.raises(SizingError):
        split(_table(np.zeros((4, 1))), "ratio")


def test_with_history_prepends_context():
    tr, va, _ = split(_table(np.arange(200, dtype=np.float32).reshape(100, 2)), "ratio")
    ext = with_history(tr, va, L=8)
    assert ext.rows == va.rows + 8
    assert np.array_equal(ext.values[:8], tr.values[-8:])
    # every target of the extended stream stays inside the val block
    first = next(make_windows(ext, 8, 2, batch_size=1))
    assert np.array_equal(first.target[0, :, 0], va.values[0])


def test_first_row_of_the_test_split_is_a_target():
    # Informer's border: the test stream starts L rows before the test split
    table = _table(np.arange(200, dtype=np.float32).reshape(100, 2))
    _, va, te = split(table, "ratio")
    data = prepare_data(table, L=8, standardize_inputs=False)
    windows = list(make_windows(data.test_ext, 8, 4, batch_size=64))
    assert sum(w.size for w in windows) == te.rows - 4 + 1 == 17
    assert np.array_equal(windows[0].target[0, :, 0], te.values[0])
    # a shorter preceding split is prepended whole, and L = 0 prepends nothing
    assert np.array_equal(with_history(va, te, L=12).values, table.values[70:])
    assert np.array_equal(with_history(va, te, L=0).values, te.values)


# ---------------------------------------------------------------------------
# standardize

def test_standardize_constant_channel_maps_to_zero():
    tr = _table(np.full((50, 1), 3.25))
    va = _table(np.full((10, 1), 3.25))
    te = _table(np.full((10, 1), 3.25))
    tr2, va2, _ = standardize(tr, va, te)
    np.testing.assert_array_equal(tr2.values, 0.0)
    np.testing.assert_array_equal(va2.values, 0.0)


def test_standardize_train_stats(rng):
    x = (5.0 + 2.0 * rng.normal(size=(2000, 1))).astype(np.float32)
    tr2, _, _ = standardize(_table(x), _table(x[:10]), _table(x[:10]))
    v = tr2.values.astype(np.float64)
    assert abs(v.mean()) < 1e-6
    assert abs(v.std() - 1.0) < 1e-6


def test_standardize_uses_train_stats_on_val():
    tr = _table(np.zeros((50, 1)) + np.arange(50)[:, None])   # mean 24.5
    va = _table(np.full((10, 1), 1000.0))                     # far off the train mean
    tr2, va2, _ = standardize(tr, va, _table(np.zeros((5, 1))))
    mean, std = tr.values.mean(axis=0), tr.values.std(axis=0)
    np.testing.assert_allclose(va2.values, np.full((10, 1), (1000.0 - mean[0]) / std[0]), rtol=1e-6)
    assert va2.values.mean() > 10           # not re-centered on its own stats


# ---------------------------------------------------------------------------
# windows

def test_window_count_example():
    table = _table(np.arange(10, dtype=np.float32)[:, None])
    batches = list(make_windows(table, L=8, T=1, batch_size=16))
    assert sum(b.size for b in batches) == 2
    assert window_count(10, 8, 1) == 2


def test_windows_vs_index_oracle(rng):
    values = rng.normal(size=(50, 2)).astype(np.float32)
    table = _table(values)
    L, T = 7, 3
    got = []
    for batch in make_windows(table, L, T, batch_size=8):
        # channel-major views of one gather
        assert batch.history.shape == (batch.size, 2, L)
        assert batch.target.shape == (batch.size, 2, T)
        assert batch.history.base is not None and batch.history.base is batch.target.base
        for i in range(batch.size):
            got.append((batch.history[i], batch.target[i]))
    assert len(got) == 50 - L - T + 1
    for s, (h, t) in enumerate(got):
        np.testing.assert_array_equal(h, values[s:s + L].T)
        np.testing.assert_array_equal(t, values[s + L:s + L + T].T)


def test_windows_too_few_rows():
    with pytest.raises(SizingError):
        list(make_windows(_table(np.zeros((5, 1))), L=8, T=1, batch_size=2))


def test_window_shuffle_is_seeded():
    # each window's first history value is its start row
    table = _table(np.arange(40, dtype=np.float32)[:, None])

    def order(seed):
        r = None if seed is None else np.random.default_rng(seed)
        return [float(v) for b in make_windows(table, 4, 1, 8, r) for v in b.history[:, 0, 0]]

    assert order(5) == order(5)
    assert order(5) != order(6)
    # without an rng the windows keep source order
    assert order(None) == [float(s) for s in range(window_count(40, 4, 1))]


# ---------------------------------------------------------------------------
# patchify

@pytest.mark.parametrize("L,PL,S,want", [(512, 12, 12, 43), (12, 12, 12, 2),
                                         (48, 12, 12, 5), (96, 12, 12, 9)])
def test_patch_count_values(L, PL, S, want):
    assert patch_count(L, PL) == want
    # patch p starts at value p * S, S = PL, or in the end padding past L
    ps = patchify(np.arange(L, dtype=np.float32)[None, None, :], PL)
    assert np.array_equal(ps.patches[0, 0, :, 0], np.minimum(np.arange(want) * S, L - 1))


def test_patch_count_property_over_ranges(rng):
    for _ in range(200):
        PL = int(rng.integers(2, 17))
        L = int(rng.integers(PL, 65))
        history = rng.normal(size=(1, L, 1)).astype(np.float32).transpose(0, 2, 1)
        ps = patchify(history, PL)
        assert ps.PN == (L - PL) // PL + 2


def test_patchify_hand_unrolled():
    channel = np.arange(24, dtype=np.float32)
    ps = patchify(channel[None, None, :], PL=12)
    assert ps.PN == 3
    np.testing.assert_array_equal(ps.patches[0, 0, 0], channel[:12])
    np.testing.assert_array_equal(ps.patches[0, 0, 1], channel[12:])
    np.testing.assert_array_equal(ps.patches[0, 0, 2], np.full(12, 23.0))


def test_patchify_rejects_long_patch():
    with pytest.raises(SizingError):
        patchify(np.zeros((1, 1, 8), dtype=np.float32), PL=12)


def test_patch_reconstruction_bitwise(rng):
    # at L=50 PL=12 does not divide L: the sequence ends inside the last patch
    for L, PL in ((24, 8), (50, 12)):
        history = rng.normal(size=(2, L, 3)).astype(np.float32).transpose(0, 2, 1)
        recon = sequence_from_patches(patchify(history, PL=PL), L)
        assert np.array_equal(recon, history)


# ---------------------------------------------------------------------------
# masking

def test_mask_count_round_half_up():
    assert mask_count(0.5, 43) == 22
    assert mask_count(0.5, 2) == 1


def test_mask_patches_counts_and_locality(rng):
    history = rng.normal(size=(3, 48, 4)).astype(np.float32).transpose(0, 2, 1)
    ps = patchify(history, PL=12)
    masked = mask_patches(ps, 0.5, seed=9)
    assert masked.mask.sum(axis=-1).min() == masked.mask.sum(axis=-1).max() == 3  # round(0.5*5)
    # untouched outside masked positions, zero inside
    diff = masked.patches != ps.patches
    assert not diff[~masked.mask].any()
    assert np.all(masked.patches[masked.mask] == 0.0)
    assert not ps.mask.any()          # input untouched


def test_mask_patches_deterministic_by_seed(rng):
    ps = patchify(rng.normal(size=(2, 48, 3)).astype(np.float32).transpose(0, 2, 1), 12)
    a = mask_patches(ps, 0.5, seed=3)
    b = mask_patches(ps, 0.5, seed=3)
    c = mask_patches(ps, 0.5, seed=4)
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)


def test_mask_patches_rejects_degenerate_ratio(rng):
    ps = patchify(rng.normal(size=(1, 24, 1)).astype(np.float32).transpose(0, 2, 1), 12)
    with pytest.raises(ContractError):
        mask_patches(ps, 0.0, seed=0)
    with pytest.raises(ContractError):
        mask_patches(ps, 1.0, seed=0)
