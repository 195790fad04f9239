import json
import math
import os
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor, wait
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import read_dataset_by_lines, write_dataset_by_rows
from scipy import stats

from csiauth import datasets
from csiauth.channel import NoiseModel, flatten_csi
from csiauth.datasets import (
    Dataset,
    DatasetFormatError,
    DatasetManifest,
    NefariousOffsets,
    build_accidental,
    build_master,
    build_nefarious,
    default_nefarious_offsets,
    read_dataset,
    split_train_test,
    write_dataset,
    _DECADES,
    _feature_text,
)
from csiauth.rng import RngStream


def read_cold(path):
    """read_dataset with the dataset memo emptied first, so that np.loadtxt
    parses the file as it would in a fresh process."""
    datasets._REMEMBERED.clear()
    return read_dataset(path)


def loadtxt_spy():
    """A patch of np.loadtxt that counts its calls, as `.call_count`."""
    return mock.patch.object(np, "loadtxt", wraps=np.loadtxt)


@pytest.fixture(scope="module")
def master():
    return build_master(RngStream(7))


@pytest.fixture(scope="module")
def splits(master):
    return split_train_test(master)


def test_master_counts(master):
    grid = master.manifest.snr_grid
    assert grid == [float(s) for s in range(0, 31, 2)]
    assert len(grid) == 16
    for snr in grid:
        assert master.manifest.counts[(snr, "legitimate")] == 1000
        assert np.sum(master.snr == snr) == 1000
    assert len(master) == 16_000
    assert master.x.shape == (16_000, 32) and master.x.dtype == np.float64
    assert master.legit.all() and set(master.source) == {"legit"}


def test_master_determinism():
    a = build_master(RngStream(42), snr_grid=(0.0, 2.0))
    b = build_master(RngStream(42), snr_grid=(0.0, 2.0))
    np.testing.assert_array_equal(a.manifest.h_true, b.manifest.h_true)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.snr, b.snr)


def test_split_700_300_per_snr(master, splits):
    train, test = splits
    for snr in master.manifest.snr_grid:
        assert train.manifest.counts[(snr, "legitimate")] == 700
        assert test.manifest.counts[(snr, "legitimate")] == 300
    assert len(train) + len(test) == len(master)


def test_split_is_partition(master, splits):
    train, test = splits
    def keys(ds):
        return {(snr, row.tobytes()) for snr, row in zip(ds.snr, ds.x)}
    train_keys = keys(train)
    test_keys = keys(test)
    assert not train_keys & test_keys
    assert train_keys | test_keys == keys(master)


def test_split_rejects_non_master(splits):
    train, _ = splits
    with pytest.raises(ValueError):
        split_train_test(train)


@pytest.fixture(scope="module")
def accidental(splits):
    return build_accidental(splits[1], RngStream(7))


@pytest.fixture(scope="module")
def nefarious(splits):
    return build_nefarious(splits[1], default_nefarious_offsets(), RngStream(7))


def test_accidental_counts_and_sources(accidental):
    for snr in accidental.manifest.snr_grid:
        assert accidental.manifest.counts[(snr, "legitimate")] == 300
        assert accidental.manifest.counts[(snr, "illegitimate")] == 400
    ids = set(accidental.source[~accidental.legit])
    assert ids == {"imp1", "imp2", "imp3", "imp4", "imp5"}
    per_source = [
        int(np.sum((accidental.source == f"imp{i}") & (accidental.snr == 0.0)))
        for i in range(1, 6)
    ]
    assert per_source == [80] * 5


def test_accidental_impostors_independent_of_h_true():
    # expected squared distance per element between unrelated CN(0,1) draws is 2;
    # 80 draws put the check at ~11% relative noise, so it uses its own seed
    m = build_master(RngStream(1), snr_grid=(30.0,))
    _, t = split_train_test(m)
    acc = build_accidental(t, RngStream(1))
    h = flatten_csi(acc.manifest.h_true)
    d2 = []
    for source in set(acc.source[~acc.legit]):
        ref = acc.x[acc.source == source].mean(axis=0)  # near-noiseless at 30 dB
        delta = ref - h
        d2.extend(delta[0::2] ** 2 + delta[1::2] ** 2)
    assert np.mean(d2) == pytest.approx(2.0, rel=0.15)


def test_nefarious_counts_and_offsets(nefarious):
    for snr in nefarious.manifest.snr_grid:
        assert nefarious.manifest.counts[(snr, "legitimate")] == 300
        assert nefarious.manifest.counts[(snr, "illegitimate")] == 400
    ids = set(nefarious.source[~nefarious.legit])
    assert ids == {"nef1", "nef2", "nef3", "nef4", "nef5"}
    offs = nefarious.manifest.offsets
    assert len(offs) == 5 and len(set(offs)) == 5
    mags = sorted(abs(o) for o in offs)
    np.testing.assert_allclose(mags, [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)


def test_nefarious_offset_validation():
    with pytest.raises(ValueError):
        NefariousOffsets((0j, 1j, 2j, 3j, 4j))  # zero offset duplicates legit cloud
    with pytest.raises(ValueError):
        NefariousOffsets((1j, 1j, 2j, 3j, 4j))
    with pytest.raises(ValueError):
        NefariousOffsets((1j, 2j, 3j))


def test_nefarious_separable_at_30db(nefarious):
    # spoof cluster centers sit ||offset|| * sqrt(n_elements) away in feature
    # space; noise along the separating direction has the per-component std
    n_elements = nefarious.manifest.h_true.size
    noise_std = np.sqrt(NoiseModel(30.0).sigma2 / 2)
    min_center_dist = min(abs(o) for o in nefarious.manifest.offsets) * np.sqrt(n_elements)
    assert min_center_dist > 6 * noise_std


def test_legit_noise_distribution_ks(master):
    # per-element squared error is exponential with mean sigma2
    snr = 10.0
    sigma2 = NoiseModel(snr).sigma2
    rows = master.x[master.snr == snr][:1000]
    h = master.manifest.h_true
    d2 = (rows[:, 0] - h[0, 0].real) ** 2 + (rows[:, 1] - h[0, 0].imag) ** 2
    res = stats.kstest(d2 / sigma2, "expon")
    assert res.pvalue >= 0.01


def test_round_trip(tmp_path, accidental):
    path = tmp_path / "acc.csv"
    write_dataset(path, accidental)
    back = read_cold(path)
    assert back.manifest.seed == accidental.manifest.seed
    assert back.manifest.kind == accidental.manifest.kind
    assert back.manifest.counts == accidental.manifest.counts
    np.testing.assert_array_equal(back.manifest.h_true, accidental.manifest.h_true)
    assert back.manifest.offsets is None
    assert len(back) == len(accidental)
    for column in ("x", "snr", "legit", "source"):
        np.testing.assert_array_equal(getattr(back, column), getattr(accidental, column))
    # write -> read -> write reproduces both files byte for byte
    again = tmp_path / "again.csv"
    write_dataset(again, back)
    assert again.read_bytes() == path.read_bytes()
    assert (tmp_path / "again.manifest.json").read_bytes() == (
        tmp_path / "acc.manifest.json"
    ).read_bytes()


def test_shared_memo_writes_same_bytes(tmp_path):
    # 400 master rows: more than one block of lines per file.
    master = build_master(RngStream(3), snr_grid=(0.0, 2.0), samples_per_snr=200)
    # Rows 1 and 2 become copies of row 0 except for the sign of one zero.
    master.x[0, 5] = 0.0
    master.x[1] = master.x[0]
    master.x[1, 5] = -0.0
    master.x[2] = master.x[1]
    train, test = split_train_test(master)
    rng = RngStream(4)
    sets = {
        "master": master,
        "train": train,
        "test": test,
        "accidental": build_accidental(test, rng),
        "nefarious": build_nefarious(test, default_nefarious_offsets(), rng),
    }
    alone, shared = tmp_path / "alone", tmp_path / "shared"
    alone.mkdir()
    shared.mkdir()
    memo = {}
    for name, ds in sets.items():
        write_dataset(alone / f"{name}.csv", ds)
        write_dataset(shared / f"{name}.csv", ds, memo)
    # Only legitimate rows are kept: master's, of which rows 1 and 2 share one.
    assert len(memo) == len(master) - 1
    for name in sets:
        assert (shared / f"{name}.csv").read_bytes() == (alone / f"{name}.csv").read_bytes()
    lines = (shared / "master.csv").read_text().splitlines()
    assert lines[1].split(",")[8] == "0" and lines[2].split(",")[8] == "-0"
    back = read_cold(shared / "master.csv")
    np.testing.assert_array_equal(np.signbit(back.x[:3, 5]), [False, True, True])


def test_csv_header_matches_flatten_order(tmp_path, master):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=2)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:3] == ["snr_db", "label", "source_id"]
    assert header[3:7] == ["re_0_0", "im_0_0", "re_0_1", "im_0_1"]
    assert header[-2:] == ["re_3_3", "im_3_3"]
    assert len(header) == 3 + 32


def test_corrupted_header_is_schema_error(tmp_path, master):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=2)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    text = path.read_text().splitlines()
    text[0] = "garbage,header"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(DatasetFormatError):
        read_dataset(path)


def test_missing_manifest_is_error(tmp_path, master):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=2)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    (tmp_path / "m.manifest.json").unlink()
    with pytest.raises(DatasetFormatError):
        read_dataset(path)


def test_count_mismatch_detected(tmp_path):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one sample row
    with pytest.raises(DatasetFormatError):
        read_dataset(path)


# Every number a manifest holds, by where it sits in the document.
MANIFEST_INTEGERS = {
    "seed": lambda doc: (doc, "seed"), "n_rx": lambda doc: (doc, "n_rx"),
    "m_tx": lambda doc: (doc, "m_tx"), "counts": lambda doc: (doc["counts"]["0"], "legitimate"),
}
MANIFEST_REALS = {
    "snr_grid": lambda doc: (doc["snr_grid"], 0), "h_true": lambda doc: (doc["h_true"], 5),
    "offsets": lambda doc: (doc["offsets"][2], 1),
}


@pytest.mark.parametrize(
    "key,value",
    [(key, value) for key in MANIFEST_INTEGERS for value in ("3", True, 2.5, "NaN", "Infinity")]
    + [(key, value) for key in MANIFEST_REALS for value in ("0.5", False, "NaN", "-Infinity")],
)
def test_manifest_numbers_must_be_json_numbers_of_their_kind(tmp_path, key, value):
    # int() took seed 7.9 as 7 and "7" as 7, and raised OverflowError for Infinity
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    small.manifest.offsets = list(default_nefarious_offsets().offsets)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    read_dataset(path)
    manifest = tmp_path / "m.manifest.json"
    doc = json.loads(manifest.read_text())
    holder, at = {**MANIFEST_INTEGERS, **MANIFEST_REALS}[key](doc)
    holder[at] = value
    text = json.dumps(doc)
    if value in ("NaN", "Infinity", "-Infinity"):  # the JSON literals, not strings
        text = text.replace(f'"{value}"', value)
    manifest.write_text(text)
    what = "an integer" if key in MANIFEST_INTEGERS else "a finite number"
    with pytest.raises(DatasetFormatError, match=rf'm\.manifest\.json: "{key}" must be {what}'):
        read_dataset(path)


@pytest.mark.parametrize("key", ["3_0", "nan", "30.0", " 30", "3e1", "4"])
def test_manifest_count_key_must_be_the_written_grid_point(tmp_path, key):
    # float() read "3_0" as 30 dB and took "nan"
    small = build_master(RngStream(3), snr_grid=(0.0, 30.0), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    manifest = tmp_path / "m.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["counts"][key] = doc["counts"].pop("30")
    manifest.write_text(json.dumps(doc))
    expected = f'"counts" key {key!r} is not format(snr, "g") of a "snr_grid" point'
    with pytest.raises(DatasetFormatError, match=re.escape(expected)):
        read_dataset(path)


def test_manifest_counts_of_grid_points_beyond_six_digits_round_trip(tmp_path):
    # a count key is format(snr, "g"), six significant digits, so float() of
    # it missed such a point and the counts disagreed with the rows
    small = build_master(RngStream(3), snr_grid=(1.2345678, 2.0), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    assert "1.23457" in json.loads((tmp_path / "m.manifest.json").read_text())["counts"]
    assert read_cold(path).manifest.counts == small.manifest.counts


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_feature_names_line(tmp_path, bad):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[7] = bad
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"m\.csv:3:"):
        read_dataset(path)


@pytest.mark.parametrize("fault", ["cells", "float", "label"])
def test_read_dataset_names_malformed_line(tmp_path, fault):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    if fault == "cells":
        cells.pop()
    elif fault == "float":
        cells[9] = "0.5x"
    else:
        cells[1] = "maybe"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"m\.csv:4:"):
        read_dataset(path)


BULK_FAULTS = ["blank-line", "extra-cell", "comment-mark", "underscore", "long-label",
               "nul-label", "label-before-float"]


def _write_with_fault(path, fault):
    """A 4-sample master file whose line 4 holds the fault."""
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=4)
    write_dataset(path, small)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    if fault == "blank-line":
        lines[3] = ""
    elif fault == "extra-cell":
        lines[3] += ",0.5"
    elif fault == "comment-mark":
        cells[9] = "0.5#x"
    elif fault == "underscore":
        cells[9] = "1_0"
    elif fault == "long-label":
        cells[1] = "illegitimateX"
    elif fault == "nul-label":
        cells[1] = "legitimate\0"
    else:
        cells[1] = "maybe"
        after = lines[4].split(",")
        after[9] = "0.5x"
        lines[4] = ",".join(after)
    if fault not in ("blank-line", "extra-cell"):
        lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fault", BULK_FAULTS)
def test_read_dataset_names_line_the_bulk_parse_would_misread(tmp_path, fault):
    # np.loadtxt skips blank lines, ignores surplus cells, strips "#..." by
    # default, cuts fixed-width strings and drops their trailing NULs; each
    # must still fail, naming line 4. Python's float() accepted "1_0".
    path = tmp_path / "m.csv"
    _write_with_fault(path, fault)
    with pytest.raises(DatasetFormatError, match=r"m\.csv:4:"):
        read_dataset(path)


def _columns_dataset(x, snr, legit, source) -> Dataset:
    """A test-kind Dataset of the given columns, with a manifest that counts them."""
    counts = {}
    for s, is_legit in zip(snr.tolist(), legit.tolist()):
        key = (s, "legitimate" if is_legit else "illegitimate")
        counts[key] = counts.get(key, 0) + 1
    # a grid has at least one point, also when no row is at it
    manifest = DatasetManifest(
        seed=1, kind="test_accidental", snr_grid=sorted(set(snr.tolist())) or [0.0],
        counts=counts, h_true=np.zeros((4, 4), dtype=complex),
    )
    return Dataset(manifest, x, snr, legit, source)


EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308]


def _drawn_dataset(data, n, id_size=40) -> Dataset:
    """n rows of features among them ±0.0, subnormals and the extremes, and
    ids of up to `id_size` characters."""
    def column(elements):
        return data.draw(st.lists(elements, min_size=n, max_size=n))

    doubles = st.one_of(
        st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
    )
    x = np.array(column(st.lists(doubles, min_size=32, max_size=32)), dtype=float).reshape(n, 32)
    snr = np.array(column(st.sampled_from([-4.0, -0.0, 2.0, 12.5, 30.0])), dtype=float)
    legit = np.array(column(st.booleans()), dtype=bool)
    # ids hold no comma, control character or line separator
    characters = st.characters(
        blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=","
    )
    source = np.array(column(st.text(characters, max_size=id_size)), dtype=str)
    return _columns_dataset(x, snr, legit, source)


def assert_same_dataset(got, want):
    """Bit for bit, dtypes and manifests included."""
    for column in ("x", "snr", "legit", "source"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for field in ("seed", "kind", "snr_grid", "counts", "offsets"):
        assert getattr(got.manifest, field) == getattr(want.manifest, field)
    assert got.manifest.h_true.tobytes() == want.manifest.h_true.tobytes()


@given(data=st.data(), n=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_read_dataset_matches_per_line_reader(data, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(path, _drawn_dataset(data, n))
        back = read_cold(path)
        want = read_dataset_by_lines(path, 35)
    for column_name, ref in zip(("x", "snr", "legit", "source"), want):
        got = getattr(back, column_name)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_a_remembered_read_skips_loadtxt_and_an_unremembered_one_runs_it_once(tmp_path):
    _, test = split_train_test(build_master(RngStream(3), snr_grid=(0.0, 2.0), samples_per_snr=10))
    paths = [tmp_path / "accidental.csv", tmp_path / "nefarious.csv"]
    write_dataset(paths[0], build_accidental(test, RngStream(4)))
    write_dataset(paths[1], build_nefarious(test, default_nefarious_offsets(), RngStream(4)))
    datasets._REMEMBERED.pop(paths[1].resolve())  # as if another process wrote it
    with loadtxt_spy() as spy:
        remembered = read_dataset(paths[0])
        assert spy.call_count == 0
        parsed = read_dataset(paths[1])
    assert spy.call_count == 1
    for got, path in zip((remembered, parsed), paths):
        assert_same_dataset(got, read_cold(path))


def test_an_unremembered_file_is_parsed_whole_at_every_read(tmp_path):
    # the attack sets repeat the test split's legitimate lines; no read takes
    # a line from an earlier one, nor remembers the file it parsed
    _, test = split_train_test(build_master(RngStream(3), snr_grid=(0.0, 2.0), samples_per_snr=10))
    paths = [tmp_path / "accidental.csv", tmp_path / "nefarious.csv"]
    write_dataset(paths[0], build_accidental(test, RngStream(4)))
    write_dataset(paths[1], build_nefarious(test, default_nefarious_offsets(), RngStream(4)))
    for path in paths:
        datasets._REMEMBERED.pop(path.resolve())  # as if another process wrote it
    with loadtxt_spy() as spy:
        got = [read_dataset(path) for path in paths + paths]
    assert [len(call.args[0]) for call in spy.call_args_list] == [len(ds.snr) for ds in got]
    assert all(path.resolve() not in datasets._REMEMBERED for path in paths)
    for ds, path in zip(got, paths + paths):
        assert_same_dataset(ds, read_cold(path))


@pytest.mark.parametrize("n", [0, 1])
def test_read_dataset_edge_shapes_and_long_ids(tmp_path, n):
    gen = RngStream(5).generator()
    source = np.array(["s" * 39 + str(i) for i in range(n)], dtype=str)
    ds = _columns_dataset(gen.standard_normal((n, 32)), np.full(n, 4.0), np.zeros(n, bool), source)
    path = tmp_path / "d.csv"
    write_dataset(path, ds)
    back = read_cold(path)
    assert back.x.shape == (n, 32) and back.x.flags.c_contiguous
    for column in ("x", "snr", "legit", "source"):
        np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
    assert all(len(s) == 40 for s in back.source)


# The dataset memo: a file this process wrote is not parsed.

@given(data=st.data(), n=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_a_remembered_read_equals_a_parse_bit_for_bit(data, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(path, _drawn_dataset(data, n, id_size=120))
        with loadtxt_spy() as spy:
            written = read_dataset(path)
        assert spy.call_count == 0
        cold = read_cold(path)
    assert_same_dataset(written, cold)


@pytest.mark.parametrize("n", [0, 1])
def test_a_remembered_read_of_an_edge_shape_equals_a_parse(tmp_path, n):
    x = np.array([[0.0, -0.0, 5e-324, -5e-324] * 8] * n).reshape(n, 32)
    source = np.array(["s" * 200] * n, dtype=str)
    path = tmp_path / "d.csv"
    write_dataset(path, _columns_dataset(x, np.full(n, -0.0), np.ones(n, bool), source))
    with loadtxt_spy() as spy:
        written = read_dataset(path)
    assert spy.call_count == 0
    assert_same_dataset(written, read_cold(path))


def _remembered_master(path):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    write_dataset(path, small)
    read_dataset(path)
    return small


def _raised(read, path) -> str:
    with pytest.raises(DatasetFormatError) as error:
        read(path)
    return str(error.value)


@pytest.mark.parametrize("edit", ["feature", "label"])
def test_a_same_size_edit_with_its_mtime_put_back_is_parsed(tmp_path, edit):
    path = tmp_path / "m.csv"
    _remembered_master(path)
    before = path.stat()
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    if edit == "feature":
        cells[5] = cells[5][:-1] + "x"
    else:
        cells[1] = cells[1][:-1] + "X"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert path.stat().st_mtime_ns == before.st_mtime_ns
    with loadtxt_spy() as spy:
        error = _raised(read_dataset, path)
    assert spy.call_count > 0
    assert error.startswith(f"{path}:3: ")
    assert error == _raised(read_cold, path)


def test_an_edit_of_the_manifest_alone_is_parsed(tmp_path):
    # a remembered read would return the 32 features of the 4x4 file it wrote
    path = tmp_path / "m.csv"
    _remembered_master(path)
    manifest = tmp_path / "m.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["n_rx"], doc["h_true"] = 2, doc["h_true"][:16]
    manifest.write_text(json.dumps(doc))
    error = _raised(read_dataset, path)
    assert error == f"{path}: header does not match the 2x4 dataset schema"
    assert error == _raised(read_cold, path)


@pytest.mark.parametrize("fault", ["unequal-columns", "feature-width", "counts", "manifest"])
def test_write_dataset_refuses_what_read_dataset_refuses_and_writes_nothing(tmp_path, fault):
    # each file was written, and only reading it back failed: ten feature
    # rows with nine SNRs wrote nine lines, 31 features "expected 35 cells"
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=10)
    if fault == "manifest":
        small.manifest.h_true[1, 2] = complex(np.nan, 0.0)
        message = '"h_true" must be a finite number, got NaN'
    elif fault == "unequal-columns":
        small.snr = small.snr[:9]
        message = "columns of shapes (10, 32), (9,), (10,) and (10,) are not (n, d), (n,), (n,) and (n,)"
    elif fault == "feature-width":
        small.x = small.x[:, :31]
        message = "rows of 31 features; 4x4 CSI has 32"
    else:
        small.manifest.counts[(0.0, "legitimate")] = 11
        message = "sample counts disagree with manifest (differing keys: values)"
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError) as error:
        write_dataset(path, small)
    assert str(error.value) == f"{path}: {message}; not written"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "char", [",", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_a_source_id_that_breaks_a_cell_is_refused_at_its_write_and_nothing_written(tmp_path, char):
    # the file was written, and reading it back failed: "expected 35 cells"
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    small.source = np.array(["legit", f"a{char}b", "legit"])
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError) as error:
        write_dataset(path, small)
    assert str(error.value) == f"{path}: row 1 has a source id that holds a cell or line break; not written"
    assert list(tmp_path.iterdir()) == []


def test_a_source_id_holding_a_nul_reads_back_after_its_write(tmp_path):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    small.source = np.array(["a\0b"] * len(small))
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    with loadtxt_spy() as spy:
        written = read_dataset(path)
    assert spy.call_count == 0
    assert_same_dataset(written, read_cold(path))


def test_a_source_column_of_objects_is_remembered_as_the_text_it_wrote(tmp_path):
    # it was written and then parsed at every read
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    small.source = np.array([7, "legit", 2.5], dtype=object)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    with loadtxt_spy() as spy:
        written = read_dataset(path)
    assert spy.call_count == 0
    assert written.source.tolist() == ["7", "legit", "2.5"]
    assert_same_dataset(written, read_cold(path))


def test_changing_a_written_or_returned_dataset_leaves_the_next_read_alone(tmp_path):
    small = build_master(RngStream(3), snr_grid=(0.0, 2.0), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    small.x[0, 0] += 1.0
    small.snr[:] = 2.0
    small.legit[1] = False
    small.source[:] = "zz"
    with loadtxt_spy() as spy:
        first = read_dataset(path)
        first.x[:] = 0.0
        first.snr[:] = 0.0
        first.legit[:] = False
        first.source[:] = "zz"
        second = read_dataset(path)
    assert spy.call_count == 0
    assert_same_dataset(second, read_cold(path))


def test_remembering_a_file_of_another_directory_forgets_the_rest(tmp_path):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for path in (a / "m.csv", a / "n.csv", b / "m.csv"):
        write_dataset(path, small)
    assert set(datasets._REMEMBERED) == {(b / "m.csv").resolve()}
    with loadtxt_spy() as spy:
        read_dataset(b / "m.csv")
        assert spy.call_count == 0
        read_dataset(a / "m.csv")
        read_dataset(a / "n.csv")
    assert spy.call_count == 2


def test_a_file_the_memo_lacks_is_parsed_without_a_hash_and_not_remembered(tmp_path):
    # a stage run as its own process reads only files another process wrote
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    datasets._REMEMBERED.clear()
    with loadtxt_spy() as spy, mock.patch.object(
        datasets.hashlib, "sha256", wraps=datasets.hashlib.sha256
    ) as sha256:
        read_dataset(path)
        read_dataset(path)
    assert spy.call_count == 2
    assert sha256.call_count == 0
    assert datasets._REMEMBERED == {}


def test_threads_writing_and_reading_in_two_directories_read_what_they_wrote(tmp_path):
    # one-row files, so that most of a thread's time goes to the memo
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=1)
    paths = [tmp_path / d / f"m{i}.csv" for d in ("a", "b") for i in range(8)]
    for path in paths:
        path.parent.mkdir(exist_ok=True)
    want = small.x.tobytes()

    def work(path):
        for _ in range(100):
            write_dataset(path, small)
            assert read_dataset(path).x.tobytes() == want

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(paths)) as pool:
            futures = [pool.submit(work, path) for path in paths]
            done, pending = wait(futures, timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not pending
    for future in done:
        future.result()


def test_a_file_that_is_not_utf8_is_a_format_error_naming_its_line(tmp_path):
    # the UnicodeDecodeError named no file
    path = tmp_path / "m.csv"
    _remembered_master(path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",legit,", b",leg\xffit,")
    path.write_bytes(b"\n".join(lines))
    message = f"{path}:3: not UTF-8 text (invalid start byte: byte 0xff)"
    assert _raised(read_dataset, path) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_write_dataset_rejects_non_finite_feature_and_writes_nothing(tmp_path, bad):
    # such a value was written as a "nan" or "inf" cell, which read_dataset rejects
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=5)
    small.x[3, 7] = bad
    small.x[4, 0] = bad
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 3 has a non-finite feature")):
        write_dataset(path, small)
    assert list(tmp_path.iterdir()) == []


def test_write_dataset_rejects_a_source_id_utf8_cannot_encode_and_writes_nothing(tmp_path):
    # the last line's id stopped the write with a bare UnicodeEncodeError,
    # leaving the lines before it and no manifest
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=300)
    small.source = small.source.astype(object)
    small.source[-1] = "\ud800"
    path = tmp_path / "m.csv"
    message = f"{path}: row 299 has a source id that UTF-8 cannot encode; not written"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_dataset(path, small)
    assert list(tmp_path.iterdir()) == []


def test_write_dataset_rejects_a_grid_whose_points_share_a_tag_and_writes_nothing(tmp_path):
    # both points were written under the count key "1", and reading the file
    # back failed with a count mismatch that named no file
    small = build_master(RngStream(1), snr_grid=(1.0, 1.000001), samples_per_snr=3)
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: grid points 1.0 and 1.000001 share")):
        write_dataset(path, small)
    assert list(tmp_path.iterdir()) == []


def test_count_mismatch_names_the_file(tmp_path):
    small = build_master(RngStream(3), snr_grid=(0.0,), samples_per_snr=3)
    path = tmp_path / "m.csv"
    write_dataset(path, small)
    manifest = tmp_path / "m.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["counts"]["0"]["legitimate"] = 4
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: sample counts disagree")):
        read_dataset(path)


def _powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-7, 18)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]).tolist()


# Ties: an odd m / 2**(17 - k) in [10**k, 10**(k + 1)) has 18 significant
# digits, the last a 5, so rounding it to 17 digits is a tie.
TIES = st.integers(-5, 14).flatmap(
    lambda k: st.integers(
        math.ceil(Fraction(10) ** k * 2 ** (17 - k)),
        math.ceil(Fraction(10) ** (k + 1) * 2 ** (17 - k)) - 1,
    ).map(lambda m, k=k: (m | 1) / 2 ** (17 - k))
)
FEATURE_VALUES = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.sampled_from([1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1), 1e15,
                     np.nextafter(1e15, 0), np.nextafter(1e15, np.inf)]),
    st.sampled_from(_powers_of_ten_and_neighbours()),
    st.integers(-(10**7), 10**7).map(lambda k: k / 2),
    st.integers(-(10**7), 10**7).map(lambda k: k / 1000),
    st.integers(-1074, 1023).map(lambda e: 2.0**e),
    TIES,
    st.floats(1e-5, 1e15),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_write_dataset_bytes_equal_per_row_oracle(data, n):
    signs = st.sampled_from([1.0, -1.0])
    x = np.array(
        data.draw(st.lists(st.tuples(FEATURE_VALUES, signs).map(lambda vs: vs[0] * vs[1]),
                           min_size=32 * n, max_size=32 * n)),
        dtype=float,
    ).reshape(n, 32)
    snr = np.array(data.draw(st.lists(st.sampled_from([-4.0, -0.0, 0.0, 2.5, 30.0]),
                                      min_size=n, max_size=n)))
    legit = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    source = np.array(data.draw(st.lists(st.sampled_from(["legit", "imp1", "nef5"]),
                                         min_size=n, max_size=n)), dtype=str)
    ds = _columns_dataset(x, snr, legit, source)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_dataset(got, ds)
        write_dataset_by_rows(want, ds)
        assert got.read_bytes() == want.read_bytes()


def test_feature_text_equals_format_in_every_decade():
    gen = RngStream(19).generator()
    x = gen.standard_normal(100_000) * 10.0 ** gen.integers(-7, 18, 100_000)
    x[::7] = np.round(x[::7], 3)  # values with trailing zeros
    rows = x.reshape(-1, 32)
    want = [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
    assert _feature_text(rows) == want


def test_feature_text_bounds_hold_exactly():
    # _DECADES[k + 5] is the least double at or above 10**k
    for k, bound in zip(range(-5, 16), _DECADES.tolist()):
        assert Fraction(bound) >= Fraction(10) ** k > Fraction(np.nextafter(bound, 0))
    # and the greatest double below a power of ten stays below it at 17 digits
    for k in range(-4, 16):
        below = np.nextafter(_DECADES[k + 5], 0)
        assert 1 - Fraction(below) / Fraction(10) ** k > Fraction(5, 10**18)
