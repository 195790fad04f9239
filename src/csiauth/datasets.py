"""Dataset construction: master, train/test split, and the two attack scenarios.

The master dataset adds measurement noise to a single enrolled CSI matrix
across an SNR grid. The accidental-authentication test set mixes in five
unrelated transmitters; the nefarious-users test set mixes in five spoofed
transmitters whose reference is the enrolled matrix shifted by a complex
offset. A Dataset stores its samples as row-aligned columns (flattened
CSI features, SNR, ground truth, transmitter id), so selecting an SNR is a
boolean mask over `snr`. Files are CSV with a JSON manifest sidecar; input
is validated once, when a file is read. A file whose bytes this process
wrote, and whose manifest is unchanged, is not parsed: its columns come
from a memo checked against the sha256 of those bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .channel import NoiseModel, flatten_csi, measurement_batch, sample_csi, unflatten_csi
from .packed import number, scalar
from .rng import RngStream

LEGITIMATE = "legitimate"
ILLEGITIMATE = "illegitimate"
ENROLLED_ID = "legit"

KIND_MASTER = "master"
KIND_TRAIN = "train"
KIND_TEST = "test"
KIND_ACCIDENTAL = "test_accidental"
KIND_NEFARIOUS = "test_nefarious"
_KINDS = (KIND_MASTER, KIND_TRAIN, KIND_TEST, KIND_ACCIDENTAL, KIND_NEFARIOUS)

DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 31, 2))
MAX_GRID_POINTS = 1000
MASTER_SAMPLES_PER_SNR = 1000
TRAIN_FRACTION = 0.7
N_ATTACKERS = 5
SAMPLES_PER_ATTACKER = 80
_WRITE_BLOCK = 128  # CSV lines formatted and joined per write
# One character wider than the longest label, so that a longer cell is cut to
# an invalid label and can never be cut to a valid one.
_LABEL_DTYPE = f"U{len(ILLEGITIMATE) + 1}"


class DatasetFormatError(ValueError):
    """Raised when a dataset file or manifest does not match the schema."""


@dataclass
class DatasetManifest:
    seed: int
    kind: str
    snr_grid: list[float]
    counts: dict[tuple[float, str], int]
    h_true: np.ndarray
    offsets: list[complex] | None = None


@dataclass
class Dataset:
    """Columnar samples; row i of every column describes one measurement.

    `x` (n, 2 * n_rx * m_tx) holds the flattened CSI in flatten_csi's layout;
    `snr` (n,) the SNR in dB, `legit` (n,) the ground truth and `source` (n,)
    the transmitter id of each row.
    """

    manifest: DatasetManifest
    x: np.ndarray
    snr: np.ndarray
    legit: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.snr)


@dataclass(frozen=True)
class NefariousOffsets:
    """Five distinct nonzero complex offsets, one per spoofing user."""

    offsets: tuple[complex, ...]

    def __post_init__(self):
        if len(self.offsets) != N_ATTACKERS:
            raise ValueError(f"expected {N_ATTACKERS} offsets, got {len(self.offsets)}")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("offsets must be distinct")
        if any(o == 0 for o in self.offsets):
            raise ValueError("zero offset would duplicate the legitimate cloud")


def snr_tag(snr: float) -> str:
    """The SNR's name in manifests, model files and reports."""
    return format(snr, "g")


def check_snr_grid(points) -> tuple[float, ...]:
    """points as a tuple: 1 to MAX_GRID_POINTS finite reals, strictly increasing,
    each with its own tag; else ValueError."""
    points = tuple(points)
    if not 1 <= len(points) <= MAX_GRID_POINTS:
        raise ValueError(f"a grid has 1 to {MAX_GRID_POINTS} points, got {len(points)}")
    if not all(map(math.isfinite, points)):
        raise ValueError(f"grid points must be finite, got {points}")
    for a, b in zip(points, points[1:]):
        if not a < b:
            raise ValueError(f"grid points must increase strictly, got {a:g} then {b:g}")
        # tags round to six significant digits, so equal tags are neighbours
        if snr_tag(a) == snr_tag(b):
            raise ValueError(
                f"grid points {a!r} and {b!r} share the tag {snr_tag(a)!r};"
                " points must differ in their first six significant digits"
            )
    return points


def default_nefarious_offsets() -> NefariousOffsets:
    """Magnitudes 0.1..0.5 spread over five phases; spans below- to above-noise."""
    offs = tuple(
        complex(0.1 * (i + 1) * np.exp(1j * 2.0 * np.pi * i / N_ATTACKERS))
        for i in range(N_ATTACKERS)
    )
    return NefariousOffsets(offs)


def build_master(
    rng: RngStream,
    n_rx: int = 4,
    m_tx: int = 4,
    snr_grid: tuple[float, ...] = DEFAULT_SNR_GRID,
    samples_per_snr: int = MASTER_SAMPLES_PER_SNR,
) -> Dataset:
    """One enrolled CSI matrix; `samples_per_snr` noisy measurements per SNR."""
    h_true = sample_csi(n_rx, m_tx, rng.substream("master-h"))
    parts = []
    counts = {}
    for snr in snr_grid:
        batch = measurement_batch(
            h_true, NoiseModel(snr), samples_per_snr, rng.substream("master", snr)
        )
        parts.append(_measured(batch, snr, True, ENROLLED_ID))
        counts[(snr, LEGITIMATE)] = samples_per_snr
    manifest = DatasetManifest(
        seed=rng.seed, kind=KIND_MASTER, snr_grid=list(snr_grid), counts=counts, h_true=h_true
    )
    return _stack(manifest, parts)


def split_train_test(master: Dataset, train_fraction: float = TRAIN_FRACTION) -> tuple[Dataset, Dataset]:
    """Per-SNR split with identical proportions at every SNR: the first
    `train_fraction` of each SNR slice, by sample index, is the train set."""
    if master.manifest.kind != KIND_MASTER:
        raise ValueError(f"expected a master dataset, got kind {master.manifest.kind!r}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_parts, test_parts = [], []
    train_counts, test_counts = {}, {}
    for snr in master.manifest.snr_grid:
        rows = np.flatnonzero(master.snr == snr)
        if rows.size == 0:
            raise ValueError(f"master dataset has no samples at SNR {snr}")
        n_train = round(train_fraction * rows.size)
        train_parts.append(_rows(master, rows[:n_train]))
        test_parts.append(_rows(master, rows[n_train:]))
        train_counts[(snr, LEGITIMATE)] = n_train
        test_counts[(snr, LEGITIMATE)] = rows.size - n_train
    mf = master.manifest
    train = _stack(
        DatasetManifest(mf.seed, KIND_TRAIN, list(mf.snr_grid), train_counts, mf.h_true),
        train_parts,
    )
    test = _stack(
        DatasetManifest(mf.seed, KIND_TEST, list(mf.snr_grid), test_counts, mf.h_true),
        test_parts,
    )
    return train, test


def build_accidental(test_legit: Dataset, rng: RngStream) -> Dataset:
    """Add five unrelated CN(0,1) transmitters, 80 noisy samples each per SNR."""
    _check_legit_test(test_legit)
    mf = test_legit.manifest
    n_rx, m_tx = mf.h_true.shape
    refs = [
        sample_csi(n_rx, m_tx, rng.substream("accidental-ref", i)) for i in range(N_ATTACKERS)
    ]
    return _mix_attackers(test_legit, refs, "imp", "accidental", rng, KIND_ACCIDENTAL)


def build_nefarious(
    test_legit: Dataset, offsets: NefariousOffsets, rng: RngStream
) -> Dataset:
    """Five spoofing users, each the enrolled matrix shifted by one offset."""
    _check_legit_test(test_legit)
    refs = [test_legit.manifest.h_true + off for off in offsets.offsets]
    ds = _mix_attackers(test_legit, refs, "nef", "nefarious", rng, KIND_NEFARIOUS)
    ds.manifest.offsets = list(offsets.offsets)
    return ds


def _mix_attackers(test_legit, refs, id_prefix, purpose, rng, kind) -> Dataset:
    mf = test_legit.manifest
    parts = []
    counts = {}
    for snr in mf.snr_grid:
        legit = np.flatnonzero(test_legit.snr == snr)
        parts.append(_rows(test_legit, legit))
        counts[(snr, LEGITIMATE)] = legit.size
        for i, ref in enumerate(refs):
            batch = measurement_batch(
                ref, NoiseModel(snr), SAMPLES_PER_ATTACKER, rng.substream(purpose, snr, i)
            )
            parts.append(_measured(batch, snr, False, f"{id_prefix}{i + 1}"))
        counts[(snr, ILLEGITIMATE)] = len(refs) * SAMPLES_PER_ATTACKER
    manifest = DatasetManifest(mf.seed, kind, list(mf.snr_grid), counts, mf.h_true)
    return _stack(manifest, parts)


def _check_legit_test(ds: Dataset) -> None:
    if not ds.legit.all():
        raise ValueError("test split must contain only legitimate samples")
    per_snr = {snr: ds.manifest.counts.get((snr, LEGITIMATE), 0) for snr in ds.manifest.snr_grid}
    if len(set(per_snr.values())) != 1 or 0 in per_snr.values():
        raise ValueError(f"uneven legitimate counts across SNRs: {per_snr}")


# ---------------------------------------------------------------------------
# Column assembly
#
# A part is an (x, snr, legit, source) tuple of row-aligned columns.

def _measured(batch: np.ndarray, snr: float, legit: bool, source: str) -> tuple:
    """Columns for a (count, n_rx, m_tx) batch of measurements of one transmitter."""
    n = batch.shape[0]
    return flatten_csi(batch), np.full(n, snr), np.full(n, legit), np.full(n, source)


def _rows(ds: Dataset, idx: np.ndarray) -> tuple:
    return ds.x[idx], ds.snr[idx], ds.legit[idx], ds.source[idx]


def _stack(manifest: DatasetManifest, parts: list[tuple]) -> Dataset:
    x, snr, legit, source = (np.concatenate(column) for column in zip(*parts))
    return Dataset(manifest, x, snr, legit, source)


# ---------------------------------------------------------------------------
# Persistence

# The dataset memo: resolved CSV path -> (sha256 of the file's bytes, its
# manifest's text, copies of the x, snr, legit and source columns a read of
# the two returns), for the files of one directory at a time, one run's
# datasets. The lock keeps a thread's change out of another's scan.
_REMEMBERED: dict[Path, tuple[bytes, str, tuple]] = {}
_REMEMBERED_LOCK = threading.Lock()
# The code points that end a cell or a line for read_dataset: the delimiter
# and every line boundary of str.splitlines.
_CELL_BREAKS = np.array([ord(c) for c in ",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"], np.uint32)


def write_dataset(path, dataset: Dataset, memo: dict | None = None) -> None:
    """CSV of samples plus a `<name>.manifest.json` sidecar; lossless round trip.

    Each feature cell is the text of format(v, ".17g"), made by
    `_feature_text`. What read_dataset would refuse raises ValueError naming
    the file, and nothing is written: columns of unequal length, a feature
    row that is not 2 * n_rx * m_tx wide, a non-finite feature, a source id
    that UTF-8 cannot encode or that holds a _CELL_BREAKS character, and
    counts that disagree with the manifest.

    `memo` maps the raw bytes of a feature row to the row's text. Calls that
    share one dict format a legitimate row they have in common once; keying
    on bytes keeps rows apart that compare equal but print differently (0.0,
    -0.0). Only legitimate rows are added: the splits and attack sets repeat
    the enrolled rows of the master set, while each attacker row is written
    once, and holding its text would only cost memory.

    The file's bytes are hashed as they are written, and the dataset memo
    keeps their digest with copies of the columns, so that read_dataset does
    not parse them again.
    """
    path = Path(path)
    resolved = path.resolve()
    with _REMEMBERED_LOCK:
        _REMEMBERED.pop(resolved, None)
    mf = dataset.manifest
    memo = {} if memo is None else memo

    def refuse(what):
        return ValueError(f"{path}: {what}; not written")

    try:
        manifest = _manifest_to_json(mf)
        counts = _manifest_from_json(manifest).counts  # the counts a read checks
    except (TypeError, ValueError) as exc:
        raise refuse(exc) from None
    n_rx, m_tx = mf.h_true.shape
    header = _csv_header(n_rx, m_tx)
    x = np.ascontiguousarray(dataset.x, dtype=float)
    snr = np.ascontiguousarray(dataset.snr, dtype=float)
    legit = np.asarray(dataset.legit, dtype=bool)
    ids = np.ascontiguousarray(dataset.source, dtype=str)
    if not (x.ndim == 2 and snr.shape == legit.shape == ids.shape == x.shape[:1]):
        raise refuse(f"columns of shapes {x.shape}, {snr.shape}, {legit.shape} and {ids.shape}"
                     " are not (n, d), (n,), (n,) and (n,)")
    if x.shape[1] != 2 * n_rx * m_tx:
        raise refuse(f"rows of {x.shape[1]} features; {n_rx}x{m_tx} CSI has {2 * n_rx * m_tx}")
    # each id's code points; UTF-8 cannot encode a lone surrogate, U+D800 to U+DFFF
    points = ids.view(np.uint32).reshape(len(ids), ids.itemsize // 4)
    for fault, rows in (
        ("a non-finite feature", ~np.isfinite(x).all(axis=1)),
        ("a source id that UTF-8 cannot encode", ((points >= 0xD800) & (points <= 0xDFFF)).any(axis=1)),
        ("a source id that holds a cell or line break", np.isin(points, _CELL_BREAKS).any(axis=1)),
    ):
        if rows.any():
            raise refuse(f"row {np.argmax(rows)} has {fault}")
    try:
        verify_counts(counts, snr, legit, path)
    except DatasetFormatError as exc:
        raise ValueError(f"{exc}; not written") from None
    labels = {}  # the label cells of each (SNR, label, source) triple
    row_bytes = np.dtype((np.void, x.itemsize * x.shape[1]))
    digest = hashlib.sha256()
    with path.open("wb") as fh:

        def put(text: str) -> None:
            data = text.encode()
            digest.update(data)
            fh.write(data)

        # Each line's label cells start with the newline that ends the line
        # before, so that the rows' text needs no newline of its own.
        put(",".join(header))
        # A block of lines at a time, so that the file's text is never held
        # whole; a line is joined from its label cells and the row's text.
        for start in range(0, len(x), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            keys = x[block].view(row_bytes).ravel().tolist()
            texts = list(map(memo.get, keys))
            legits = legit[block].tolist()
            missing = [i for i, text in enumerate(texts) if text is None]
            if missing:
                for i, text in zip(missing, _feature_text(x[block][missing])):
                    texts[i] = text
                    if legits[i]:
                        memo[keys[i]] = text
            lines = []
            # an SNR is told apart by its bits, so that -0.0 keeps its sign
            for value, bits, is_legit, source, text in zip(
                snr[block].tolist(), snr[block].view(np.uint64).tolist(), legits,
                ids[block].tolist(), texts,
            ):
                key = (bits, is_legit, source)
                if key not in labels:
                    kind = LEGITIMATE if is_legit else ILLEGITIMATE
                    labels[key] = f"\n{format(value, '.17g')},{kind},{source},"
                lines += (labels[key], text)
            put("".join(lines))
        put("\n")
    _manifest_path(path).write_text(manifest, encoding="utf-8")
    # copies, the source column as a read builds it: as wide as its longest id
    width = max([1, *(len(source) for _, _, source in labels)])
    columns = (x.copy(), snr.copy(), legit.copy(), ids.astype(f"U{width}"))
    with _REMEMBERED_LOCK:
        if any(p.parent != resolved.parent for p in _REMEMBERED):
            _REMEMBERED.clear()  # one directory's files at a time
        _REMEMBERED[resolved] = (digest.digest(), manifest, columns)


# ---------------------------------------------------------------------------
# Feature text
#
# format(v, ".17g") for many doubles at once, byte for byte. For
# 1e-5 <= |v| < 1e15 the decimal exponent k = floor(log10|v|) and the 17
# significant digits D = round-half-even(|v| * 10**(16 - k)) are exact: k
# comes from comparing |v| with the powers of ten themselves, 10**0..10**22
# are doubles, and Dekker's error-free product gives |v| * 10**(16 - k) as
# hi + lo without rounding. The digits are laid out by
# the rules of "g": fixed notation for -4 <= k < 17, d.ddd...e-05 below,
# trailing zeros dropped, and the point if no digit follows it. Every other
# value (zero, -0.0, subnormals, |v| < 1e-5 or |v| >= 1e15) is formatted by
# Python.

_FAST_MIN, _FAST_MAX = 1e-5, 1e15
# The least double at or above 10**k, for k = -5..15: 10**0..10**15 are
# doubles, and each of 1e-5..1e-1 rounds up. So a double a lies in
# [10**k, 10**(k + 1)) exactly when _DECADES[k + 5] <= a < _DECADES[k + 6].
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 16)])
_POW10 = np.array([float(10**e) for e in range(23)])
# Four ASCII digits per uint32, "0000" to "9999".
_DIGITS4 = np.array([f"{i:04d}".encode() for i in range(10_000)]).view(np.uint32)
# The widest text of any double, "-2.2250738585072014e-308", and a
# separator; the kernel's widest is "-0.00012345678901234567".
_CELL = 25


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a split into halves of 26 bits each, a = hi + lo exactly."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _feature_text(x: np.ndarray) -> list[str]:
    """The text of each row of x: format(v, ".17g") of each value, joined by
    commas.

    Each value is laid out in a cell of _CELL bytes, whose unused bytes are
    NUL and are dropped at the end.
    """
    n_cols = x.shape[1]
    v = x.ravel()
    a = np.abs(v)
    in_range = (a >= _FAST_MIN) & (a < _FAST_MAX)
    fast = np.flatnonzero(in_range)
    k = _exponent(a[fast])
    # One stable sort groups the values by exponent, so that each group is
    # laid out by slices.
    order = np.argsort(k, kind="stable")
    fast, k = fast[order], k[order]
    cell = np.dtype((np.void, _CELL))
    cells = np.zeros((v.size, _CELL), np.uint8)
    cells.view(cell)[fast] = _layout(k, _digits(a[fast], k), v[fast] < 0).view(cell)
    for i in np.flatnonzero(~in_range).tolist():
        slow = format(v[i], ".17g").encode()
        cells[i, : len(slow)] = list(slow)
    cells[:, -1] = ord(",")
    cells[n_cols - 1 :: n_cols, -1] = ord("\n")
    cells = cells.ravel()
    return cells[cells != 0].tobytes().decode("ascii").split("\n")[:-1]


def _exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) exactly, for a in [_FAST_MIN, _FAST_MAX)."""
    return np.searchsorted(_DECADES, a, side="right") - 6


def _digits(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The 17 significant digits of each a, whose exponent is k, rounded half
    to even: 20 ASCII bytes per value, the first three "000"."""
    e = 16 - k
    hi = a * _POW10[e]
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI[e], _POW10_LO[e]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo  # hi + lo == a * 10**e
    # hi + lo lies in [1e16, 1e17), so hi is an even integer, and rounding lo
    # alone rounds the sum half to even. The sum cannot round up to 1e17: no
    # double in range lies within a relative 5e-18 below a power of ten.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    words = np.empty((len(d), 5), np.uint32)
    for j, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        group = d // scale
        words[:, j] = _DIGITS4[group]
        d -= group * scale
    words[:, 4] = _DIGITS4[d]
    return words.view(np.uint8)


def _layout(k: np.ndarray, digits: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The "g" text of values sorted by exponent k, from their 17 digits
    (columns 3..19 of `digits`), in _CELL bytes each with NUL padding."""
    text = np.zeros((len(k), _CELL), np.uint8)
    text[:, 0] = np.where(negative, ord("-"), 0)
    d = digits[:, 3:]
    exponents, starts = np.unique(k, return_index=True)
    for e, lo, hi in zip(exponents.tolist(), starts.tolist(), [*starts[1:].tolist(), len(k)]):
        t, g = text[lo:hi], d[lo:hi]
        if e >= 0:  # ddd.ddd
            t[:, 1 : e + 2] = g[:, : e + 1]
            t[:, e + 2] = ord(".")
            t[:, e + 3 : 19] = g[:, e + 1 :]
        elif e >= -4:  # 0.000ddd
            t[:, 1:3] = list(b"0.")
            t[:, 3 : 2 - e] = ord("0")
            t[:, 2 - e : 19 - e] = g
        else:  # d.ddde-05
            t[:, 1] = g[:, 0]
            t[:, 2] = ord(".")
            t[:, 3:19] = g[:, 1:]
            t[:, 19:23] = list(b"e-05")
    # Drop trailing zeros of the digits, and then the point if no digit
    # follows it. Only a value whose last digit is 0 has any.
    zeros = np.flatnonzero(d[:, -1] == ord("0"))
    if zeros.size:
        e = k[zeros]
        small = (e < 0) & (e >= -4)  # 0.000ddd: every digit follows the point
        whole = np.maximum(e, 0)  # else digits 0..whole precede the point
        last = 16 - np.argmax(d[zeros, ::-1] != ord("0"), axis=1)  # last nonzero digit
        kept = np.maximum(last, whole)
        end = np.where(small, kept - e + 3, kept + 2 + (kept > whole))
        stop = np.where(small, _CELL, 19)  # "e-05" starts at column 19
        columns = np.arange(_CELL)
        drop = (columns >= end[:, None]) & (columns < stop[:, None])
        text[zeros] = np.where(drop, 0, text[zeros])
    return text


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; every feature must be finite.

    The body is parsed by one `np.loadtxt` pass, so a number must follow its
    grammar: Python's `float()` without underscores or non-ASCII digits.

    A file whose bytes (by sha256) and manifest text are those this process
    last wrote at the same path is not parsed: its columns are fresh copies
    from the dataset memo, and its manifest is parsed. write_dataset refused
    whatever a parse of them would refuse. A file the memo does not hold is
    parsed without being hashed, and is not remembered.
    """
    path = Path(path)
    mpath = _manifest_path(path)
    if not mpath.exists():
        raise DatasetFormatError(f"missing manifest sidecar: {mpath}")
    try:
        manifest_text = mpath.read_bytes().decode()
        manifest = _manifest_from_json(manifest_text)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed manifest {mpath}: {exc}") from exc
    # only a file this process wrote is hashed; any other is parsed at once
    seen = _REMEMBERED.get(path.resolve())
    data = path.read_bytes()
    if seen is not None and seen[1] == manifest_text and seen[0] == hashlib.sha256(data).digest():
        return Dataset(manifest, *(column.copy() for column in seen[2]))
    text = _decode(path, data)
    del data  # the parse holds the file's text; its bytes too would double that
    return _parse(path, text, manifest)


def _decode(path: Path, data: bytes) -> str:
    """data as UTF-8 text; else DatasetFormatError naming the line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetFormatError(
            f"{path}:{line}: not UTF-8 text ({exc.reason}: byte 0x{data[exc.start]:02x})"
        ) from None


def _parse(path: Path, text: str, manifest: DatasetManifest) -> Dataset:
    """The checked dataset of a file's text."""
    n_rx, m_tx = manifest.h_true.shape
    expected_header = _csv_header(n_rx, m_tx)
    n_cells = len(expected_header)
    lines = text.splitlines()
    if not lines or lines[0].split(",") != expected_header:
        raise DatasetFormatError(
            f"{path}: header does not match the {n_rx}x{m_tx} dataset schema"
        )
    body = lines[1:]
    dtype = np.dtype([("snr", float), ("label", _LABEL_DTYPE), ("x", float, (n_cells - 3,))])
    parse = partial(
        np.loadtxt, dtype=dtype, delimiter=",", usecols=[0, 1, *range(3, n_cells)],
        comments=None, ndmin=1,
    )
    try:
        rec = parse(body) if body else np.empty(0, dtype)
    except ValueError as exc:
        raise _first_bad_line(path, body, n_cells, parse) or DatasetFormatError(
            f"{path}: {exc}"
        ) from exc
    # loadtxt skips empty lines, ignores cells past the last column it reads,
    # and drops a label's trailing NULs ("legitimate\0" would read as valid)
    if len(rec) != len(body) or text.count(",") != len(lines) * (n_cells - 1) or "\0" in text:
        error = _first_bad_line(path, body, n_cells, parse)
        if error:
            raise error
    legit = rec["label"] == LEGITIMATE
    bad = np.flatnonzero(~legit & (rec["label"] != ILLEGITIMATE))
    if bad.size:
        label = body[bad[0]].split(",", 2)[1]
        raise DatasetFormatError(f"{path}:{bad[0] + 2}: unknown label {label!r}")
    x = np.ascontiguousarray(rec["x"])
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"{path}:{bad[0] + 2}: non-finite feature value")
    ds = Dataset(
        manifest, x, np.ascontiguousarray(rec["snr"]), legit,
        np.array([line.split(",", 3)[2] for line in body], dtype=str),
    )
    verify_counts(manifest.counts, ds.snr, ds.legit, path)
    return ds


def _first_bad_line(path, body, n_cells, parse) -> DatasetFormatError | None:
    """The error naming the first malformed body line, found one line at a time.

    Only a file that fails a bulk check pays for this scan.
    """
    for ln, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != n_cells:
            return DatasetFormatError(f"{path}:{ln}: expected {n_cells} cells")
        try:
            parse([line])
        except ValueError as exc:
            # numpy's message ends with the cell's position in the one-line parse
            return DatasetFormatError(f"{path}:{ln}: {str(exc).partition(' at row')[0]}")
        if cells[1] not in (LEGITIMATE, ILLEGITIMATE):
            return DatasetFormatError(f"{path}:{ln}: unknown label {cells[1]!r}")
    return None


def verify_counts(counts: dict, snr: np.ndarray, legit: np.ndarray, path) -> None:
    """Raise DatasetFormatError naming `path` unless the tallies of the snr
    and legit columns match a manifest's `counts` exactly."""
    actual = {}
    for flag, label in ((True, LEGITIMATE), (False, ILLEGITIMATE)):
        values, tally = np.unique(snr[legit == flag], return_counts=True)
        actual.update(zip([(value, label) for value in values.tolist()], tally.tolist()))
    if actual != counts:
        missing = set(counts) ^ set(actual)
        raise DatasetFormatError(
            f"{path}: sample counts disagree with manifest (differing keys: {sorted(missing) or 'values'})"
        )


def _csv_header(n_rx: int, m_tx: int) -> list[str]:
    header = ["snr_db", "label", "source_id"]
    for n in range(n_rx):
        for m in range(m_tx):
            header += [f"re_{n}_{m}", f"im_{n}_{m}"]
    return header


def _manifest_path(path: Path) -> Path:
    return path.with_suffix(".manifest.json")


def _manifest_to_json(mf: DatasetManifest) -> str:
    if mf.kind not in _KINDS:
        raise ValueError(f"unknown dataset kind {mf.kind!r}")
    check_snr_grid(mf.snr_grid)
    n_rx, m_tx = mf.h_true.shape
    doc = {
        "seed": mf.seed,
        "kind": mf.kind,
        "n_rx": n_rx,
        "m_tx": m_tx,
        "snr_grid": mf.snr_grid,
        "counts": {
            snr_tag(snr): {
                label: mf.counts[(snr, label)]
                for label in (LEGITIMATE, ILLEGITIMATE)
                if (snr, label) in mf.counts
            }
            for snr in mf.snr_grid
        },
        "h_true": [float(v) for v in flatten_csi(mf.h_true)],
    }
    if mf.offsets is not None:
        doc["offsets"] = [[o.real, o.imag] for o in mf.offsets]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _manifest_from_json(text: str) -> DatasetManifest:
    doc = json.loads(text)
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")

    def reals(key, values):
        return [number(v, float, f'"{key}"') for v in values]

    n_rx, m_tx = scalar(doc, "n_rx", int), scalar(doc, "m_tx", int)
    h_true = unflatten_csi(np.array(reals("h_true", doc["h_true"])), n_rx, m_tx)
    snr_grid = list(check_snr_grid(reals("snr_grid", doc["snr_grid"])))
    snr_of = {snr_tag(snr): snr for snr in snr_grid}  # the keys the writer writes
    counts = {}
    for snr_key, by_label in doc["counts"].items():
        if snr_key not in snr_of:
            raise ValueError(f'"counts" key {snr_key!r} is not format(snr, "g") of a "snr_grid" point')
        for label, count in by_label.items():
            counts[(snr_of[snr_key], label)] = number(count, int, '"counts"')
    offsets = None
    if "offsets" in doc:
        offsets = [complex(re, im) for re, im in (reals("offsets", p) for p in doc["offsets"])]
    return DatasetManifest(
        seed=scalar(doc, "seed", int), kind=kind, snr_grid=snr_grid, counts=counts,
        h_true=h_true, offsets=offsets,
    )
