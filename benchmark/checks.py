"""Output checks for a finished csiauth run directory.

The checks recompute what they can from the files alone and pin no digests,
so a change that only moves float rounding (a closed-form disk probability,
columnar datasets, batched GAN training) still passes. Each check returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DATASETS = ("master", "train", "test", "test_accidental", "test_nefarious")
TEST_SETS = ("accidental", "nefarious")
MODEL_METHODS = ("gan", "lof", "iforest", "ocsvm")
ANALYTIC_CONFIGS = ((1, 1), (2, 2), (4, 4), (8, 8))
ANALYTIC_MULTIPLIERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
# Accepted absolute error of one disk probability: above the usual error of
# the quadrature in csiauth.analytic (up to about 5e-6, though its
# SIMPSON_TOL is 1e-8), far below the errors of a wrong disk or variance.
DISK_ATOL = 1e-5
LEGITIMATE = "legitimate"


def snr_tag(snr: float) -> str:
    return format(snr, "g")


def load_dataset(run_dir: Path, name: str):
    """(manifest dict, snr (n,), labels (n,), features (n, d)) read from the CSV."""
    path = Path(run_dir) / "datasets" / f"{name}.csv"
    manifest = json.loads(path.with_suffix(".manifest.json").read_text())
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = list(reader)
    snr = np.array([float(r[0]) for r in rows])
    labels = np.array([r[1] for r in rows])
    x = np.array([[float(v) for v in r[3:]] for r in rows]).reshape(len(rows), -1)
    return manifest, snr, labels, x


def manifest_count(manifest: dict, snr: float, label: str) -> int:
    return int(manifest["counts"].get(snr_tag(snr), {}).get(label, 0))


def check_datasets(run_dir: Path) -> list[str]:
    """Every dataset's rows, per (SNR, label), match its manifest."""
    errors = []
    for name in DATASETS:
        try:
            manifest, snr, labels, x = load_dataset(run_dir, name)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"dataset {name}: unreadable ({exc})")
            continue
        width = 2 * manifest["n_rx"] * manifest["m_tx"]
        if x.shape[1] != width or not np.all(np.isfinite(x)):
            errors.append(f"dataset {name}: expected {width} finite features per row")
        actual: dict[tuple[str, str], int] = {}
        for s, label in zip(snr, labels):
            key = (snr_tag(s), str(label))
            actual[key] = actual.get(key, 0) + 1
        expected = {
            (snr_key, label): int(n)
            for snr_key, by_label in manifest["counts"].items()
            for label, n in by_label.items()
        }
        if actual != expected:
            errors.append(f"dataset {name}: row counts {actual} != manifest {expected}")
    return errors


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _numbers(item)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def check_models(run_dir: Path, pooled: bool, epochs: int) -> list[str]:
    """One discriminator checkpoint (per SNR, or pooled) holding only finite
    numbers, trained for `epochs` epochs."""
    models = Path(run_dir) / "models"
    grid = load_dataset(run_dir, "train")[0]["snr_grid"]
    names = ["gan_pooled"] if pooled else [f"gan_snr{snr_tag(s)}" for s in grid]
    errors = []
    for name in names:
        path = models / f"{name}.json"
        if not path.is_file():
            errors.append(f"missing model {name}.json")
            continue
        if not all(math.isfinite(v) for v in _numbers(json.loads(path.read_text()))):
            errors.append(f"{name}: checkpoint holds non-finite numbers")
        report = (models / f"{name}_train_report.csv").read_text().splitlines()
        if len(report) - 1 != epochs:
            errors.append(f"{name}: {len(report) - 1} epochs in its report, expected {epochs}")
    return errors


def check_detectors(run_dir: Path, algo: str) -> list[str]:
    models = Path(run_dir) / "models"
    grid = load_dataset(run_dir, "train")[0]["snr_grid"]
    return [
        f"missing model {algo}_snr{snr_tag(s)}.json"
        for s in grid
        if not (models / f"{algo}_snr{snr_tag(s)}.json").is_file()
    ]


def load_confusions(run_dir: Path, test_set: str) -> dict[tuple[str, float], dict]:
    out = {}
    for path in sorted((Path(run_dir) / "reports" / test_set).glob("confusion_*.json")):
        doc = json.loads(path.read_text())
        out[(doc["method"], float(doc["snr_db"]))] = doc
    return out


def hypothesis_accepts(x: np.ndarray, h_true: np.ndarray, snr: float, multiplier: float) -> np.ndarray:
    """Per-element disk test, recomputed independently of csiauth.threshold."""
    sigma2 = 10.0 ** (-snr / 10.0)
    z = multiplier * math.sqrt(sigma2 / 2.0)
    delta = x - h_true[np.newaxis, :]
    d2 = delta[:, 0::2] ** 2 + delta[:, 1::2] ** 2
    return np.all(d2 <= z * z, axis=1)


def check_eval(run_dir: Path) -> list[str]:
    """Every confusion matrix sums to its SNR slice; the hypothesis-test
    matrices equal a recomputation from the test CSVs and h_true."""
    errors = []
    for test_set in TEST_SETS:
        manifest, snr, labels, x = load_dataset(run_dir, f"test_{test_set}")
        grid = [float(s) for s in manifest["snr_grid"]]
        h_true = np.array(manifest["h_true"], dtype=float)
        matrices = load_confusions(run_dir, test_set)
        methods = sorted({m for m, _ in matrices})
        hypothesis = [m for m in methods if m.startswith("hypothesis-z")]
        missing = [m for m in MODEL_METHODS if m not in methods]
        if missing or not hypothesis:
            errors.append(f"{test_set}: missing methods {missing or ['hypothesis-z*']}")
        for method in methods:
            for s in grid:
                doc = matrices.get((method, s))
                if doc is None:
                    errors.append(f"{test_set}: no confusion matrix for {method} at {s} dB")
                    continue
                legit = manifest_count(manifest, s, LEGITIMATE)
                illegit = manifest_count(manifest, s, "illegitimate")
                if (doc["real_real"] + doc["real_fake"], doc["fake_real"] + doc["fake_fake"]) != (legit, illegit):
                    errors.append(f"{test_set}: {method} at {s} dB does not sum to its slice")
                if method in hypothesis:
                    mult = float(method.removeprefix("hypothesis-z"))
                    rows = snr == s
                    acc = hypothesis_accepts(x[rows], h_true, s, mult)
                    real = labels[rows] == LEGITIMATE
                    expected = [int(np.sum(acc & real)), int(np.sum(~acc & real)),
                                int(np.sum(acc & ~real)), int(np.sum(~acc & ~real))]
                    got = [doc["real_real"], doc["real_fake"], doc["fake_real"], doc["fake_fake"]]
                    if got != expected:
                        errors.append(f"{test_set}: {method} at {s} dB is {got}, recomputed {expected}")
    return errors


def accuracy_curves(run_dir: Path) -> dict[str, dict[str, list[list[float]]]]:
    """accuracy.csv of each test set, as {test set: {method: [[snr, accuracy], ...]}}."""
    curves: dict[str, dict[str, list[list[float]]]] = {}
    for test_set in TEST_SETS:
        path = Path(run_dir) / "reports" / test_set / "accuracy.csv"
        by_method: dict[str, list[list[float]]] = {}
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                by_method.setdefault(row["method"], []).append([float(row["snr_db"]), float(row["accuracy"])])
        curves[test_set] = by_method
    return curves


def check_report(run_dir: Path) -> list[str]:
    """accuracy.csv and the SVG agree with the confusion matrices."""
    errors = []
    curves = accuracy_curves(run_dir)
    for test_set in TEST_SETS:
        if not (Path(run_dir) / "reports" / test_set / "accuracy.svg").is_file():
            errors.append(f"{test_set}: missing accuracy.svg")
        for (method, s), doc in load_confusions(run_dir, test_set).items():
            total = doc["real_real"] + doc["real_fake"] + doc["fake_real"] + doc["fake_fake"]
            expected = (doc["real_real"] + doc["fake_fake"]) / total
            points = dict(map(tuple, curves[test_set].get(method, [])))
            if s not in points or abs(points[s] - expected) > 1e-12:
                errors.append(f"{test_set}: accuracy of {method} at {s} dB disagrees with its matrix")
    return errors


def sweep_oracle(seed: int, trials: int) -> dict[tuple[int, int, float], tuple[float, float]]:
    """(exact mean authentication probability, tolerance) per sweep row.

    A CN(0, 1) impostor lands within z = mult * sqrt(1/2) of centre c with
    probability ncx2.cdf(mult^2, 2, 2|c|^2), since each real component has
    variance 1/2. The references are redrawn from the sweep's seeded streams.
    The tolerance propagates DISK_ATOL through each product to first order:
    |d prod p_i| <= prod p_i * sum(DISK_ATOL / p_i), averaged over trials.
    """
    from scipy.stats import ncx2

    from csiauth.channel import sample_csi
    from csiauth.rng import RngStream

    n_max = max(n for n, _ in ANALYTIC_CONFIGS)
    m_max = max(m for _, m in ANALYTIC_CONFIGS)
    rng = RngStream(seed).substream("analytic")
    refs = [sample_csi(n_max, m_max, rng.substream("sweep-ref", n_max, m_max, t)) for t in range(trials)]
    out = {}
    for n, m in ANALYTIC_CONFIGS:
        for mult in ANALYTIC_MULTIPLIERS:
            factors = [ncx2.cdf(mult * mult, 2, 2.0 * np.abs(h[:n, :m]) ** 2) for h in refs]
            exact = np.mean([np.prod(p) for p in factors])
            tol = np.mean([np.prod(p) * np.sum(DISK_ATOL / p) for p in factors])
            out[(n, m, mult)] = (float(exact), float(tol))
    return out


def check_sweep(run_dir: Path, seed: int, trials: int) -> tuple[list[str], float | None]:
    """24 rows, monotone in antennas and multiplier, and each within its
    propagated tolerance of the ncx2 oracle. Also returns the worst relative
    error, which is reported whether or not the check passes."""
    path = Path(run_dir) / "analytic" / "auth_probability_sweep.csv"
    with path.open(newline="") as fh:
        rows = {
            (int(r["n_rx"]), int(r["m_tx"]), float(r["multiplier"])): float(r["probability"])
            for r in csv.DictReader(fh)
        }
    expected_keys = [(n, m, mult) for n, m in ANALYTIC_CONFIGS for mult in ANALYTIC_MULTIPLIERS]
    if sorted(rows) != sorted(expected_keys):
        return [f"sweep has rows {sorted(rows)}, expected {len(expected_keys)} (config, multiplier) rows"], None
    errors = []
    slack = 1e-12
    for mult in ANALYTIC_MULTIPLIERS:
        ps = [rows[(n, m, mult)] for n, m in ANALYTIC_CONFIGS]
        if any(b > a * (1 + slack) for a, b in zip(ps, ps[1:])):
            errors.append(f"sweep increases with antennas at multiplier {mult}: {ps}")
    for n, m in ANALYTIC_CONFIGS:
        ps = [rows[(n, m, mult)] for mult in ANALYTIC_MULTIPLIERS]
        if any(b < a * (1 - slack) for a, b in zip(ps, ps[1:])):
            errors.append(f"sweep decreases with the multiplier at {n}x{m}: {ps}")
    oracle = sweep_oracle(seed, trials)
    for key in expected_keys:
        exact, tol = oracle[key]
        if not abs(rows[key] - exact) <= tol:
            errors.append(f"sweep row {key} is {rows[key]!r}, ncx2 gives {exact!r} (tolerance {tol:.3g})")
    worst = max(abs(rows[k] - oracle[k][0]) / max(oracle[k][0], 1e-300) for k in expected_keys)
    return errors, worst
