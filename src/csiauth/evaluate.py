"""Confusion matrices and accuracy-vs-SNR curves over the test datasets.

Every authenticator is adapted to one contract: a callable taking feature
rows (n, 2 * n_rx * m_tx), as stored in `Dataset.x`, and returning the
(n,) boolean accept mask, which for the hypothesis test is
`threshold.accept_rows` itself. Rows of the confusion matrix are ground
truth (Real = legitimate), columns are the prediction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import flatten_csi
from .datasets import Dataset
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
from .threshold import Threshold, accept_rows

DecisionFn = Callable[[np.ndarray], np.ndarray]


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


# ---------------------------------------------------------------------------
# Decision adapters: each maps feature rows (n, d) to the (n,) accept mask.

def threshold_decider(h_ref: np.ndarray, thr: Threshold) -> DecisionFn:
    ref = flatten_csi(h_ref)
    return lambda rows: accept_rows(rows, ref, thr)


def gan_decider(d: Mlp, tau: float = 0.5) -> DecisionFn:
    return lambda rows: scores_batch(d, rows) >= tau


def lof_decider(model: LofModel) -> DecisionFn:
    return lambda rows: lof_scores(model, rows) <= model.threshold


def iforest_decider(model: IForestModel) -> DecisionFn:
    return lambda rows: iforest_scores(model, rows) <= model.threshold


def ocsvm_decider(model: OcsvmModel) -> DecisionFn:
    return lambda rows: ocsvm_decision_values(model, rows) >= 0.0


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(decider: DecisionFn, dataset: Dataset, snr_db: float, method: str = "") -> ConfusionMatrix:
    at_snr = dataset.snr == snr_db
    if not at_snr.any():
        raise ValueError(f"dataset has no samples at SNR {snr_db} dB")
    legit = dataset.legit[at_snr]
    accepts = np.asarray(decider(dataset.x[at_snr]), dtype=bool)
    if accepts.shape != legit.shape:
        raise ValueError(f"decider returned shape {accepts.shape}, expected {legit.shape}")
    return ConfusionMatrix(
        method=method, snr_db=snr_db,
        real_real=int(np.sum(accepts & legit)),
        real_fake=int(np.sum(~accepts & legit)),
        fake_real=int(np.sum(accepts & ~legit)),
        fake_fake=int(np.sum(~accepts & ~legit)),
    )


def accuracy_curve(
    deciders: dict[float, DecisionFn], dataset: Dataset, method: str = ""
) -> tuple[AccuracyCurve, list[ConfusionMatrix]]:
    """One evaluation per SNR in the dataset grid; requires a decider for each."""
    grid = dataset.manifest.snr_grid
    missing = [snr for snr in grid if snr not in deciders]
    if missing:
        raise ValueError(f"no decider fitted for SNR levels {missing}")
    matrices = [evaluate(deciders[snr], dataset, snr, method) for snr in grid]
    curve = AccuracyCurve(method=method, points=[(m.snr_db, m.accuracy) for m in matrices])
    return curve, matrices


# ---------------------------------------------------------------------------
# Report emission

def emit_report(curves: list[AccuracyCurve], matrices: list[ConfusionMatrix], out_dir) -> list[Path]:
    """Write accuracy.csv, per-(method, SNR) confusion JSON, and accuracy.svg."""
    if not curves or not matrices:
        raise ValueError("nothing to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    acc_path = out / "accuracy.csv"
    with acc_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "snr_db", "accuracy"])
        for curve in sorted(curves, key=lambda c: c.method):
            for snr, acc in curve.points:
                writer.writerow([curve.method, format(snr, "g"), format(acc, ".17g")])
    written.append(acc_path)

    for m in sorted(matrices, key=lambda m: (m.method, m.snr_db)):
        path = out / f"confusion_{m.method}_{format(m.snr_db, 'g')}.json"
        doc = {**asdict(m), "accuracy": m.accuracy}
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)

    svg_path = out / "accuracy.svg"
    svg_path.write_text(render_accuracy_svg(curves))
    written.append(svg_path)
    return written


def load_confusions(report_dir) -> list[ConfusionMatrix]:
    """Read back the confusion JSON files emitted by emit_report; a malformed
    one raises ValueError naming it."""
    paths = sorted(Path(report_dir).glob("confusion_*.json"))
    return [read_document(path, _confusion) for path in paths]


def _confusion(doc: dict) -> ConfusionMatrix:
    counts = ("real_real", "real_fake", "fake_real", "fake_fake")
    return ConfusionMatrix(
        doc["method"], scalar(doc, "snr_db", float), *(scalar(doc, key, int) for key in counts)
    )


def spearman_vs_snr(curve: AccuracyCurve) -> float:
    """Rank correlation of accuracy with SNR; a soft monotonicity indicator."""
    pts = sorted(curve.points)
    if len(pts) < 2:
        return 1.0
    accs = np.array([a for _, a in pts])
    snr_rank = np.arange(len(pts), dtype=float)
    acc_rank = _mid_ranks(accs)
    sx = snr_rank - snr_rank.mean()
    sy = acc_rank - acc_rank.mean()
    denom = np.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    if denom == 0:
        return 1.0  # constant curve, e.g. all slices perfect
    return float(np.sum(sx * sy) / denom)


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def curves_from_confusions(matrices: list[ConfusionMatrix]) -> list[AccuracyCurve]:
    by_method: dict[str, list[ConfusionMatrix]] = {}
    for m in matrices:
        by_method.setdefault(m.method, []).append(m)
    curves = []
    for method in sorted(by_method):
        ms = sorted(by_method[method], key=lambda m: m.snr_db)
        curves.append(AccuracyCurve(method, [(m.snr_db, m.accuracy) for m in ms]))
    return curves


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
