"""Confusion matrices and accuracy-vs-SNR curves over the test datasets.

Every authenticator is an `Authenticator`: a score of each feature row, as
stored in `Dataset.x`, higher meaning more legitimate, and a cut. `evaluate`
and `evaluate_sets` build one score vector per (set, method, SNR), and one
helper, `_tally`, compares each with its cut: a row is accepted iff its
score >= cut. Rows of the confusion matrix are ground truth (Real =
legitimate), columns the prediction. `evaluate_sets` scores each row that
test sets share once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import flatten_csi
from .datasets import Dataset, snr_tag
from .detectors import (
    IForestModel,
    LofModel,
    OcsvmModel,
    iforest_scores,
    lof_scores,
    ocsvm_decision_values,
)
from .gan import scores_batch
from .neuralnet import Mlp
from .packed import read_document, scalar
from .threshold import Threshold, max_sq_distance


@dataclass(frozen=True)
class ConfusionMatrix:
    method: str
    snr_db: float
    real_real: int
    real_fake: int
    fake_real: int
    fake_fake: int

    @property
    def accuracy(self) -> float:
        total = self.real_real + self.real_fake + self.fake_real + self.fake_fake
        return (self.real_real + self.fake_fake) / total


@dataclass(frozen=True)
class AccuracyCurve:
    method: str
    points: list[tuple[float, float]]  # (snr_db, accuracy)


@dataclass(frozen=True)
class Authenticator:
    """score maps feature rows (n, d) to (n,) scores; accept iff score >= cut."""

    score: Callable[[np.ndarray], np.ndarray]
    cut: float


def authenticator(model: Mlp | LofModel | IForestModel | OcsvmModel, tau: float = 0.5) -> Authenticator:
    """The GAN discriminator's D(x) cut at tau, OC-SVM's decision value cut at
    0, or LOF's or iForest's negated outlier score cut at -threshold."""
    if isinstance(model, Mlp):
        return Authenticator(lambda rows: scores_batch(model, rows), tau)
    if isinstance(model, OcsvmModel):
        return Authenticator(lambda rows: ocsvm_decision_values(model, rows), 0.0)
    outlier_scores = lof_scores if isinstance(model, LofModel) else iforest_scores
    return Authenticator(lambda rows: -outlier_scores(model, rows), -model.threshold)


def hypothesis_authenticator(h_ref: np.ndarray, thr: Threshold) -> Authenticator:
    """The per-element distance test against h_ref: -max squared distance, cut -z**2."""
    ref = flatten_csi(h_ref)
    return Authenticator(lambda rows: -max_sq_distance(rows, ref), -thr.z**2)


def evaluate(auth: Authenticator, dataset: Dataset, snr_db: float, method: str = "") -> ConfusionMatrix:
    """The confusion matrix of auth on the dataset's rows at snr_db, scored
    as one batch in file order; a row is accepted iff its score >= cut."""
    rows, legit = _at_snr(dataset, snr_db)
    return _tally(method, snr_db, _scores(auth, rows), auth.cut, legit)


def evaluate_sets(
    table: dict[str, dict[float, Authenticator]], sets: dict[str, Dataset], grid
) -> dict[str, list[ConfusionMatrix]]:
    """Each set's matrices evaluate(table[method][snr], ds, snr, method), for
    method in sorted(table) and snr in grid, in that order.

    The attack sets repeat the same legitimate rows. Each SNR's rows are
    sliced once, and each later set's rows are matched by their bytes to
    the first set's. Then each authenticator scores the first set's slice
    whole, as evaluate does, and only the unmatched rows of each later
    set's slice, as one batch; a matched row takes its match's score.
    """
    (first_name, first), *later = sets.items()
    found = {name: {} for name in sets}
    for snr in grid:
        rows, legit = _at_snr(first, snr)
        slices = []
        for name, ds in later:
            later_rows, later_legit = _at_snr(ds, snr)
            source = _shared_rows(later_rows, rows)
            slices.append((name, later_legit, source, later_rows[source < 0]))
        for method in sorted(table):
            auth = table[method][snr]
            known = _scores(auth, rows)
            found[first_name][method, snr] = _tally(method, snr, known, auth.cut, legit)
            for name, later_legit, source, unshared in slices:
                scores = known[source]
                if len(unshared):
                    scores[source < 0] = _scores(auth, unshared)
                found[name][method, snr] = _tally(method, snr, scores, auth.cut, later_legit)
    return {name: [found[name][method, snr] for method in sorted(table) for snr in grid]
            for name in sets}


def _at_snr(dataset: Dataset, snr_db: float) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's feature rows and labels at snr_db, in file order."""
    at_snr = dataset.snr == snr_db
    if not at_snr.any():
        raise ValueError(f"dataset has no samples at SNR {snr_db} dB")
    return dataset.x[at_snr], dataset.legit[at_snr]


def _shared_rows(rows: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """For each row of rows, the index of a row of earlier with the same
    bytes, or -1; comparing bytes keeps 0.0 and -0.0 apart."""
    def keys(a):
        a = np.ascontiguousarray(a)
        return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel().tolist()

    index = {key: i for i, key in enumerate(keys(earlier))}
    return np.array([index.get(key, -1) for key in keys(rows)], dtype=np.intp)


def _scores(auth: Authenticator, rows: np.ndarray) -> np.ndarray:
    """auth's scores of rows, one per row; any other shape raises ValueError."""
    scores = np.asarray(auth.score(rows))
    if scores.shape != (len(rows),):
        raise ValueError(f"score returned shape {scores.shape}, expected {(len(rows),)}")
    return scores


def _tally(method: str, snr_db: float, scores: np.ndarray, cut: float, legit: np.ndarray) -> ConfusionMatrix:
    """The confusion matrix of one score per row against the rows' labels:
    a row is accepted iff its score >= cut."""
    # bin 2 * fake + rejected: real_real, real_fake, fake_real, fake_fake
    counts = np.bincount(2 * np.logical_not(legit) + np.logical_not(scores >= cut), minlength=4)
    return ConfusionMatrix(method, snr_db, *map(int, counts))


# ---------------------------------------------------------------------------
# Report emission

def emit_report(matrices: list[ConfusionMatrix], out_dir) -> list[Path]:
    """Write accuracy.csv, per-(method, SNR) confusion JSON, and accuracy.svg;
    the curves are those of curves_from_confusions(matrices). A confusion
    file in out_dir that this call did not write is removed, so the
    directory holds these matrices' files only."""
    if not matrices:
        raise ValueError("nothing to report")
    curves = curves_from_confusions(matrices)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    acc_path = out / "accuracy.csv"
    with acc_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "snr_db", "accuracy"])
        for curve in curves:
            for snr, acc in curve.points:
                writer.writerow([curve.method, snr_tag(snr), format(acc, ".17g")])
    written.append(acc_path)

    for m in sorted(matrices, key=lambda m: (m.method, m.snr_db)):
        path = out / _file_name(m)
        doc = {**asdict(m), "accuracy": m.accuracy}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)
    for path in set(out.glob("confusion_*.json")).difference(written):
        path.unlink()

    svg_path = out / "accuracy.svg"
    svg_path.write_text(render_accuracy_svg(curves))
    written.append(svg_path)
    return written


def load_confusions(report_dir) -> list[ConfusionMatrix]:
    """Read back the confusion JSON files emitted by emit_report; a malformed
    one, or one whose method and SNR are not those of its name, raises
    ValueError naming it."""
    paths = sorted(Path(report_dir).glob("confusion_*.json"))
    return [read_document(path, partial(_confusion, name=path.name)) for path in paths]


def _file_name(m: ConfusionMatrix) -> str:
    return f"confusion_{m.method}_{snr_tag(m.snr_db)}.json"


def _confusion(doc: dict, name: str) -> ConfusionMatrix:
    """The matrix of doc, read from the file `name`, whose method must be a
    string and whose counts must be >= 0 and not all 0, so that its accuracy
    is a fraction."""
    method, snr_db = doc["method"], scalar(doc, "snr_db", float)
    if not isinstance(method, str):
        raise ValueError(f'"method" must be a string, got {json.dumps(method)}')
    keys = ("real_real", "real_fake", "fake_real", "fake_fake")
    counts = {key: scalar(doc, key, int) for key in keys}
    if min(counts.values()) < 0 or not any(counts.values()):
        raise ValueError(f"counts must be >= 0 and not all 0, got {counts}")
    m = ConfusionMatrix(method, snr_db, **counts)
    if (own := _file_name(m)) != name:
        raise ValueError(f"method {method!r} at {snr_tag(snr_db)} dB belongs in {own}")
    return m


def curves_from_confusions(matrices: list[ConfusionMatrix]) -> list[AccuracyCurve]:
    """One curve per method, in method order, with its points in SNR order."""
    ordered = sorted(matrices, key=lambda m: (m.method, m.snr_db))
    return [AccuracyCurve(method, [(m.snr_db, m.accuracy) for m in group])
            for method, group in groupby(ordered, key=lambda m: m.method)]


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def render_accuracy_svg(curves: list[AccuracyCurve]) -> str:
    """Self-contained accuracy-vs-SNR line chart; fixed axes 0-30 dB x 0-1."""
    width, height = 640, 440
    ml, mr, mt, mb = 60, 170, 20, 50
    pw, ph = width - ml - mr, height - mt - mb

    def sx(snr):
        return ml + pw * snr / 30.0

    def sy(acc):
        return mt + ph * (1.0 - acc)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for snr in range(0, 31, 5):
        x = sx(snr)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle">{snr}</text>'
        )
    for tick in range(0, 11, 2):
        acc = tick / 10.0
        y = sy(acc)
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{acc:.1f}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 12}" text-anchor="middle">SNR (dB)</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.2f})">Accuracy</text>'
    )
    for i, curve in enumerate(sorted(curves, key=lambda c: c.method)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(snr):.2f},{sy(acc):.2f}" for snr, acc in sorted(curve.points))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 18 * i
        parts.append(
            f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}">{curve.method}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
