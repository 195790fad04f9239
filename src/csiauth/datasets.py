"""Dataset construction: master, train/test split, and the two attack scenarios.

The master dataset adds measurement noise to a single enrolled CSI matrix
across an SNR grid. The accidental-authentication test set mixes in five
unrelated transmitters; the nefarious-users test set mixes in five spoofed
transmitters whose reference is the enrolled matrix shifted by a complex
offset. A Dataset stores its samples as row-aligned columns (flattened
CSI features, SNR, ground truth, transmitter id), so selecting an SNR is a
boolean mask over `snr`. Files are CSV with a JSON manifest sidecar; input
is validated once, when a file is read.
"""

from __future__ import annotations

import json
from collections import Counter
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
MASTER_SAMPLES_PER_SNR = 1000
TRAIN_FRACTION = 0.7
N_ATTACKERS = 5
SAMPLES_PER_ATTACKER = 80
_WRITE_BLOCK = 256  # CSV lines joined per write
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

def write_dataset(path, dataset: Dataset, memo: dict | None = None) -> None:
    """CSV of samples plus a `<name>.manifest.json` sidecar; lossless round trip.

    `memo` maps the raw bytes of a feature row to the row's text. Calls that
    share one dict format a legitimate row they have in common once; keying
    on bytes keeps rows apart that compare equal but print differently (0.0,
    -0.0). Only legitimate rows are added: the splits and attack sets repeat
    the enrolled rows of the master set, while each attacker row is written
    once, and holding its text would only cost memory.
    """
    path = Path(path)
    mf = dataset.manifest
    memo = {} if memo is None else memo
    header = _csv_header(*mf.h_true.shape)
    # "%.17g" renders a double exactly as format(v, ".17g") does.
    features = ",".join(["%.17g"] * (len(header) - 3)) + "\n"
    x = np.ascontiguousarray(dataset.x, dtype=float)
    row_bytes = np.dtype((np.void, x.itemsize * x.shape[1]))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        # A block of lines at a time, so that the file's text is never held
        # whole; a line is joined from its label cells and the row's text.
        for start in range(0, len(x), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            rows = x[block]
            lines = []
            for i, (snr, legit, source, key) in enumerate(zip(
                dataset.snr[block].tolist(), dataset.legit[block].tolist(),
                dataset.source[block].tolist(), rows.view(row_bytes).ravel().tolist(),
            )):
                text = memo.get(key)
                if text is None:
                    text = features % tuple(rows[i].tolist())
                    if legit:
                        memo[key] = text
                label = LEGITIMATE if legit else ILLEGITIMATE
                lines += (f"{format(snr, '.17g')},{label},{source},", text)
            fh.write("".join(lines))
    _manifest_path(path).write_text(_manifest_to_json(mf))


def read_dataset(path) -> Dataset:
    """Parse and validate a dataset file; every feature must be finite.

    The body is parsed by one `np.loadtxt` pass, so a number must follow its
    grammar: Python's `float()` without underscores or non-ASCII digits.
    """
    path = Path(path)
    mpath = _manifest_path(path)
    if not mpath.exists():
        raise DatasetFormatError(f"missing manifest sidecar: {mpath}")
    try:
        manifest = _manifest_from_json(mpath.read_text())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed manifest {mpath}: {exc}") from exc
    n_rx, m_tx = manifest.h_true.shape
    expected_header = _csv_header(n_rx, m_tx)
    n_cells = len(expected_header)
    text = path.read_text()
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
    verify_counts(ds)
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


def verify_counts(dataset: Dataset) -> None:
    """Raise DatasetFormatError unless sample tallies match the manifest exactly."""
    labels = np.where(dataset.legit, LEGITIMATE, ILLEGITIMATE).tolist()
    actual = dict(Counter(zip(dataset.snr.tolist(), labels)))
    if actual != dataset.manifest.counts:
        missing = set(dataset.manifest.counts) ^ set(actual)
        raise DatasetFormatError(
            f"sample counts disagree with manifest (differing keys: {sorted(missing) or 'values'})"
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
    n_rx, m_tx = mf.h_true.shape
    doc = {
        "seed": mf.seed,
        "kind": mf.kind,
        "n_rx": n_rx,
        "m_tx": m_tx,
        "snr_grid": mf.snr_grid,
        "counts": {
            format(snr, "g"): {
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
    snr_grid = reals("snr_grid", doc["snr_grid"])
    snr_of = {format(snr, "g"): snr for snr in snr_grid}  # the keys the writer writes
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
