import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from oracles import per_matrix_threshold_test

from csiauth import datasets
from csiauth.channel import NoiseModel, unflatten_csi
from csiauth.datasets import build_accidental, build_master, split_train_test
from csiauth.detectors import (
    iforest_fit,
    iforest_scores,
    lof_fit,
    lof_scores,
    ocsvm_decision_values,
    ocsvm_fit,
)
from csiauth.evaluate import (
    AccuracyCurve,
    ConfusionMatrix,
    accuracy_curve,
    curves_from_confusions,
    emit_report,
    evaluate,
    gan_decider,
    iforest_decider,
    load_confusions,
    lof_decider,
    ocsvm_decider,
    render_accuracy_svg,
    threshold_decider,
)
from csiauth.gan import build_discriminator, scores_batch
from csiauth.rng import RngStream
from csiauth.threshold import Threshold


def always(rows):
    return np.ones(len(rows), dtype=bool)


def never(rows):
    return np.zeros(len(rows), dtype=bool)


@pytest.fixture(scope="module")
def acc_dataset():
    master = build_master(RngStream(7), snr_grid=(0.0, 10.0, 30.0))
    _, test = split_train_test(master)
    return build_accidental(test, RngStream(7))


def test_perfect_and_trivial_deciders(acc_dataset):
    lookup = {row.tobytes(): legit for row, legit in zip(acc_dataset.x, acc_dataset.legit)}
    perfect = lambda rows: np.array([lookup[row.tobytes()] for row in rows])
    cm = evaluate(perfect, acc_dataset, 10.0, "perfect")
    assert (cm.real_real, cm.real_fake, cm.fake_real, cm.fake_fake) == (300, 0, 0, 400)
    assert cm.accuracy == 1.0

    cm = evaluate(always, acc_dataset, 10.0, "always")
    assert (cm.real_real, cm.real_fake, cm.fake_real, cm.fake_fake) == (300, 0, 400, 0)
    assert cm.accuracy == pytest.approx(300 / 700)


def test_row_sums_match_class_counts(acc_dataset):
    thr = Threshold.from_sigma2(3.0, NoiseModel(10.0).sigma2)
    decider = threshold_decider(acc_dataset.manifest.h_true, thr)
    cm = evaluate(decider, acc_dataset, 10.0, "hypothesis-z3")
    assert cm.real_real + cm.real_fake == 300
    assert cm.fake_real + cm.fake_fake == 400


def test_batch_path_matches_scalar_path(acc_dataset):
    # the test applied to one CSI matrix at a time is the reference for the row form
    h_ref = acc_dataset.manifest.h_true
    for snr in acc_dataset.manifest.snr_grid:
        thr = Threshold.from_sigma2(3.0, NoiseModel(snr).sigma2)
        rows = acc_dataset.x[acc_dataset.snr == snr]
        scalar = [
            per_matrix_threshold_test(unflatten_csi(row, *h_ref.shape), h_ref, thr.z)
            for row in rows
        ]
        batch = threshold_decider(h_ref, thr)(rows)
        assert batch.dtype == bool
        np.testing.assert_array_equal(batch, scalar)
        assert 0 < batch.sum() < len(rows)


def _gaussian(n, seed, scale=1.0):
    return RngStream(seed).generator().standard_normal((n, 32)) * scale


@pytest.fixture(scope="module")
def adapters():
    train = _gaussian(120, 40, scale=0.3)
    h_ref = unflatten_csi(train[0], 4, 4)
    thr = Threshold.from_sigma2(3.0, 0.2)
    lof = lof_fit(train, k=10)
    ifo = iforest_fit(train, n_trees=20, subsample=64, rng=RngStream(41))
    svm = ocsvm_fit(train, nu=0.1)
    disc = build_discriminator(RngStream(42))
    return {
        "threshold": (
            threshold_decider(h_ref, thr),
            lambda rows: np.array(
                [np.abs(unflatten_csi(r, 4, 4) - h_ref).max() <= thr.z for r in rows]
            ),
        ),
        "gan": (gan_decider(disc, 0.5), lambda rows: scores_batch(disc, rows) >= 0.5),
        "lof": (lof_decider(lof), lambda rows: lof_scores(lof, rows) <= lof.threshold),
        "iforest": (iforest_decider(ifo), lambda rows: iforest_scores(ifo, rows) <= ifo.threshold),
        "ocsvm": (ocsvm_decider(svm), lambda rows: ocsvm_decision_values(svm, rows) >= 0.0),
    }


@pytest.mark.parametrize("name", ["threshold", "gan", "lof", "iforest", "ocsvm"])
def test_adapter_returns_score_vs_threshold_mask(adapters, name):
    accept, rule = adapters[name]
    rows = np.vstack([_gaussian(40, 43, scale=0.3), _gaussian(40, 44, scale=3.0)])
    mask = accept(rows)
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (80,)
    np.testing.assert_array_equal(mask, rule(rows))


def test_decider_must_return_one_decision_per_row(acc_dataset):
    with pytest.raises(ValueError):
        evaluate(lambda rows: True, acc_dataset, 10.0)


def test_accuracy_invariant_to_sample_order(acc_dataset):
    thr = Threshold.from_sigma2(3.0, NoiseModel(0.0).sigma2)
    decider = threshold_decider(acc_dataset.manifest.h_true, thr)
    perm = RngStream(5).generator().permutation(len(acc_dataset))
    shuffled = datasets.Dataset(
        acc_dataset.manifest, acc_dataset.x[perm], acc_dataset.snr[perm],
        acc_dataset.legit[perm], acc_dataset.source[perm],
    )
    assert evaluate(decider, acc_dataset, 0.0).accuracy == evaluate(decider, shuffled, 0.0).accuracy


def test_missing_slice_raises(acc_dataset):
    with pytest.raises(ValueError):
        evaluate(always, acc_dataset, 99.0)


def test_accuracy_curve_requires_all_snrs(acc_dataset):
    with pytest.raises(ValueError):
        accuracy_curve({0.0: always}, acc_dataset, "m")
    deciders = {snr: always for snr in acc_dataset.manifest.snr_grid}
    curve, cms = accuracy_curve(deciders, acc_dataset, "always")
    assert len(curve.points) == len(acc_dataset.manifest.snr_grid)
    assert all(acc == pytest.approx(3 / 7) for _, acc in curve.points)
    assert len(cms) == len(acc_dataset.manifest.snr_grid)


def test_emit_report_files(tmp_path, acc_dataset):
    grid = acc_dataset.manifest.snr_grid
    curves, matrices = [], []
    for method in ("always", "never"):
        fn = always if method == "always" else never
        curve, cms = accuracy_curve({s: fn for s in grid}, acc_dataset, method)
        curves.append(curve)
        matrices.extend(cms)
    written = emit_report(curves, matrices, tmp_path / "rep")
    csv_path = tmp_path / "rep" / "accuracy.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,snr_db,accuracy"
    assert len(lines) == 1 + 2 * len(grid)
    names = {p.name for p in written}
    assert "accuracy.svg" in names
    for m in matrices:
        assert (tmp_path / "rep" / f"confusion_{m.method}_{format(m.snr_db, 'g')}.json").exists()
    doc = json.loads((tmp_path / "rep" / "confusion_always_0.json").read_text())
    assert doc["real_real"] == 300 and doc["fake_real"] == 400

    # deterministic re-emission
    before = {p.name: p.read_bytes() for p in (tmp_path / "rep").iterdir()}
    emit_report(curves, matrices, tmp_path / "rep")
    after = {p.name: p.read_bytes() for p in (tmp_path / "rep").iterdir()}
    assert before == after


def test_svg_is_well_formed_xml():
    curve = AccuracyCurve("m", [(float(s), 0.5 + s / 100) for s in range(0, 31, 2)])
    svg = render_accuracy_svg([curve])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_load_confusions_round_trip(tmp_path, acc_dataset):
    grid = acc_dataset.manifest.snr_grid
    curve, cms = accuracy_curve({s: always for s in grid}, acc_dataset, "always")
    emit_report([curve], cms, tmp_path / "rep")
    back = load_confusions(tmp_path / "rep")
    assert sorted((m.method, m.snr_db) for m in back) == sorted(
        (m.method, m.snr_db) for m in cms
    )
    curves = curves_from_confusions(back)
    assert curves[0].points == curve.points


@pytest.mark.parametrize(
    "key,value,what",
    [("real_real", 3.5, "an integer"), ("fake_fake", "7", "an integer"),
     ("real_fake", True, "an integer"), ("snr_db", float("nan"), "a finite number"),
     ("snr_db", "0", "a finite number")],
)
def test_load_confusions_takes_only_json_numbers(tmp_path, key, value, what):
    # int() read a count of 3.5 as 3 and "7" as 7; a missing key was a KeyError
    m = ConfusionMatrix("always", 0.0, 300, 0, 400, 0)
    emit_report([AccuracyCurve("always", [(0.0, m.accuracy)])], [m], tmp_path)
    path = tmp_path / "confusion_always_0.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf'always_0\.json: "{key}" must be {what}'):
        load_confusions(tmp_path)
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"always_0\.json: missing key '{key}'"):
        load_confusions(tmp_path)


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], [], tmp_path)


def test_spearman_soft_check_helper():
    from csiauth.evaluate import spearman_vs_snr

    rising = AccuracyCurve("m", [(s, 0.5 + s / 100) for s in range(0, 31, 2)])
    assert spearman_vs_snr(rising) == pytest.approx(1.0)
    falling = AccuracyCurve("m", [(s, 1.0 - s / 100) for s in range(0, 31, 2)])
    assert spearman_vs_snr(falling) == pytest.approx(-1.0)
    flat = AccuracyCurve("m", [(s, 1.0) for s in range(0, 31, 2)])
    assert spearman_vs_snr(flat) == 1.0
    noisy = AccuracyCurve("m", [(0.0, 0.6), (2.0, 0.8), (4.0, 0.7), (6.0, 0.9)])
    assert -1.0 <= spearman_vs_snr(noisy) <= 1.0
