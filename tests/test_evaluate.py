import importlib
import json
import re
import xml.etree.ElementTree as ET
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    evaluate_each_set,
    gan_accepts,
    iforest_accepts,
    lof_accepts,
    ocsvm_accepts,
    per_matrix_threshold_test,
    threshold_accepts,
)

from csiauth import datasets
from csiauth.channel import NoiseModel, unflatten_csi
from csiauth.cli import main
from csiauth.datasets import (
    build_accidental,
    build_master,
    build_nefarious,
    default_nefarious_offsets,
    split_train_test,
)
from csiauth.detectors import iforest_fit, lof_fit, ocsvm_fit
from csiauth.evaluate import (
    AccuracyCurve,
    Authenticator,
    ConfusionMatrix,
    authenticator,
    curves_from_confusions,
    emit_report,
    evaluate,
    evaluate_sets,
    hypothesis_authenticator,
    load_confusions,
    render_accuracy_svg,
)
from csiauth.gan import build_discriminator
from csiauth.rng import RngStream
from csiauth.threshold import Threshold

ALWAYS = Authenticator(lambda rows: np.zeros(len(rows)), 0.0)
NEVER = Authenticator(lambda rows: np.zeros(len(rows)), 1.0)
# the module, which the package's `evaluate` function shadows
evaluate_module = importlib.import_module("csiauth.evaluate")


def accepts(auth, rows):
    return auth.score(rows) >= auth.cut


@pytest.fixture(scope="module")
def acc_dataset():
    master = build_master(RngStream(7), snr_grid=(0.0, 10.0, 30.0))
    _, test = split_train_test(master)
    return build_accidental(test, RngStream(7))


def test_perfect_and_trivial_authenticators(acc_dataset):
    lookup = {row.tobytes(): legit for row, legit in zip(acc_dataset.x, acc_dataset.legit)}
    perfect = Authenticator(lambda rows: np.array([lookup[row.tobytes()] for row in rows]), 1)
    cm = evaluate(perfect, acc_dataset, 10.0, "perfect")
    assert (cm.real_real, cm.real_fake, cm.fake_real, cm.fake_fake) == (300, 0, 0, 400)
    assert cm.accuracy == 1.0

    cm = evaluate(ALWAYS, acc_dataset, 10.0, "always")
    assert (cm.real_real, cm.real_fake, cm.fake_real, cm.fake_fake) == (300, 0, 400, 0)
    assert cm.accuracy == pytest.approx(300 / 700)


def test_row_sums_match_class_counts(acc_dataset):
    thr = Threshold.from_sigma2(3.0, NoiseModel(10.0).sigma2)
    auth = hypothesis_authenticator(acc_dataset.manifest.h_true, thr)
    cm = evaluate(auth, acc_dataset, 10.0, "hypothesis-z3")
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
        batch = accepts(hypothesis_authenticator(h_ref, thr), rows)
        assert batch.dtype == bool
        np.testing.assert_array_equal(batch, scalar)
        assert 0 < batch.sum() < len(rows)


def _gaussian(n, seed, scale=1.0):
    return RngStream(seed).generator().standard_normal((n, 32)) * scale


@pytest.fixture(scope="module")
def authenticators():
    """Each method's Authenticator and the accept mask of its old adapter."""
    train = _gaussian(120, 40, scale=0.3)
    h_ref = unflatten_csi(train[0], 4, 4)
    thr = Threshold.from_sigma2(3.0, 0.2)
    lof = lof_fit(train, k=10)
    ifo = iforest_fit(train, n_trees=20, subsample=64, rng=RngStream(41))
    svm = ocsvm_fit(train, nu=0.1)
    disc = build_discriminator(RngStream(42))
    return {
        "threshold": (hypothesis_authenticator(h_ref, thr), threshold_accepts(h_ref, thr)),
        "gan": (authenticator(disc), gan_accepts(disc, 0.5)),
        "lof": (authenticator(lof), lof_accepts(lof)),
        "iforest": (authenticator(ifo), iforest_accepts(ifo)),
        "ocsvm": (authenticator(svm), ocsvm_accepts(svm)),
    }


@pytest.mark.parametrize("name", ["threshold", "gan", "lof", "iforest", "ocsvm"])
def test_score_and_cut_accept_what_the_old_adapter_accepted(authenticators, name):
    auth, old = authenticators[name]
    rows = np.vstack([_gaussian(40, 43, scale=0.3), _gaussian(40, 44, scale=3.0)])
    # a NaN, +inf or -inf in one element, or in both parts of one element
    rows[0::8, 5] = np.nan
    rows[1::8, 6] = np.inf
    rows[2::8, 7] = -np.inf
    rows[3::8, 8:10] = [np.inf, -np.inf]
    rows[4::8, 10:12] = [np.nan, np.inf]
    mask = accepts(auth, rows)
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (80,)
    np.testing.assert_array_equal(mask, old(rows))
    finite = np.isfinite(rows).all(axis=1)
    assert 0 < mask[finite].sum() < finite.sum()


def test_score_must_return_one_score_per_row(acc_dataset):
    with pytest.raises(ValueError, match="score returned shape"):
        evaluate(Authenticator(lambda rows: 1.0, 0.0), acc_dataset, 10.0)


def test_accuracy_invariant_to_sample_order(acc_dataset):
    thr = Threshold.from_sigma2(3.0, NoiseModel(0.0).sigma2)
    auth = hypothesis_authenticator(acc_dataset.manifest.h_true, thr)
    perm = RngStream(5).generator().permutation(len(acc_dataset))
    shuffled = datasets.Dataset(
        acc_dataset.manifest, acc_dataset.x[perm], acc_dataset.snr[perm],
        acc_dataset.legit[perm], acc_dataset.source[perm],
    )
    assert evaluate(auth, acc_dataset, 0.0).accuracy == evaluate(auth, shuffled, 0.0).accuracy


def test_missing_slice_raises(acc_dataset):
    with pytest.raises(ValueError):
        evaluate(ALWAYS, acc_dataset, 99.0)


# Rows 0 and 1 differ only in the sign of a zero.
POOL = np.array([[0.0, 1.0, 2.0, 3.0], [-0.0, 1.0, 2.0, 3.0], [0.5, -1.0, 0.25, 8.0],
                 [1.5, 2.0, -3.0, 0.0], [4.0, 4.0, 4.0, 4.0], [-2.0, 0.125, 7.0, 1.0]])
POOL_GRID = (0.0, 10.0)


def _pool_set(slices) -> datasets.Dataset:
    """Rows POOL[slices[j]] at POOL_GRID[j]; rows 0 to 2 are legitimate."""
    idx = np.array([i for part in slices for i in part], dtype=int)
    snr = np.concatenate([np.full(len(part), g) for g, part in zip(POOL_GRID, slices)])
    manifest = datasets.DatasetManifest(1, "test_accidental", list(POOL_GRID), {},
                                        np.zeros((1, 2), dtype=complex))
    return datasets.Dataset(manifest, POOL[idx], snr, idx < 3, np.full(len(idx), "s"))


def _row_hash(offset):
    """A score of each row's bytes, so that 0.0 and -0.0 score apart, plus
    an offset that tells the SNRs' authenticators apart."""
    return lambda rows: np.array([zlib.crc32(row.tobytes()) / 2**32 + offset for row in rows])


POOL_TABLE = {
    "hash": {snr: Authenticator(_row_hash(snr), snr + 0.5) for snr in POOL_GRID},
    "sum": {snr: Authenticator(lambda rows, snr=snr: rows.sum(axis=1) + snr, snr + 6.0)
            for snr in POOL_GRID},
}


def _with_scores(run, sets):
    """run(POOL_TABLE, sets, POOL_GRID), and the bytes of the score vectors
    compared with the cut, by (method, SNR), one per set in set order."""
    seen = {}
    original = evaluate_module._tally

    def spy(method, snr, scores, cut, legit):
        seen.setdefault((method, snr), []).append(scores.tobytes())
        return original(method, snr, scores, cut, legit)

    with mock.patch.object(evaluate_module, "_tally", spy):
        return run(POOL_TABLE, sets, POOL_GRID), seen


SLICES = st.lists(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6),
                  min_size=2, max_size=2)


@given(first=SLICES, later=SLICES)
@example(first=[[2], [3]], later=[[4], [5]])  # no row shared
@example(first=[[0, 1, 2], [3]], later=[[2, 0], [3]])  # every row shared
@example(first=[[2], [3]], later=[[3], [2]])  # shared only at the other SNR
@example(first=[[0], [3]], later=[[1], [3]])  # 0.0 against -0.0
@example(first=[[0, 0, 2], [3, 3]], later=[[2, 2, 4], [3, 5, 5]])  # repeats within a set
@settings(max_examples=80, deadline=None)
def test_evaluate_sets_matches_scoring_each_set_whole(first, later):
    sets = {"first": _pool_set(first), "later": _pool_set(later)}
    got, got_scores = _with_scores(evaluate_sets, sets)
    want, want_scores = _with_scores(evaluate_each_set, sets)
    assert got == want
    assert len(want_scores) == 4 and all(len(vectors) == 2 for vectors in want_scores.values())
    assert got_scores == want_scores


@pytest.mark.parametrize("scalar_for", ["first", "later"])
def test_every_scored_batch_must_return_one_score_per_row(scalar_for):
    # at 0 dB the first set's slice has 3 rows and the later set's unshared
    # batch 2; at 10 dB the later set shares its one row
    sets = {"first": _pool_set([[0, 1, 2], [3]]), "later": _pool_set([[2, 4, 5], [3]])}
    size = 3 if scalar_for == "first" else 2
    auth = Authenticator(lambda rows: 1.0 if len(rows) == size else rows.sum(axis=1), 0.0)
    with pytest.raises(ValueError, match=rf"score returned shape \(\), expected \({size},\)"):
        evaluate_sets({"m": dict.fromkeys(POOL_GRID, auth)}, sets, POOL_GRID)


def test_later_set_scores_only_its_unshared_rows():
    # the attack sets share the test split's rows: the nefarious set's
    # score call gets its attacker rows alone, the accidental set's its
    # whole slice in file order
    grid = (0.0, 10.0)
    _, test = split_train_test(build_master(RngStream(7), snr_grid=grid, samples_per_snr=100))
    acc = build_accidental(test, RngStream(8))
    nef = build_nefarious(test, default_nefarious_offsets(), RngStream(8))
    calls = []

    def score(rows):
        calls.append(rows.copy())
        return rows[:, 0]

    table = {"count": dict.fromkeys(grid, Authenticator(score, 0.0))}
    sets = {"accidental": acc, "nefarious": nef}
    matrices = evaluate_sets(table, sets, grid)
    assert [len(rows) for rows in calls] == [430, 400, 430, 400]
    for snr, whole, unshared in zip(grid, calls[0::2], calls[1::2]):
        np.testing.assert_array_equal(whole, acc.x[acc.snr == snr])
        np.testing.assert_array_equal(unshared, nef.x[(nef.snr == snr) & ~nef.legit])
    assert matrices == evaluate_each_set(table, sets, grid)


def _matrices(dataset, methods):
    return [evaluate(auth, dataset, snr, method)
            for method, auth in methods.items() for snr in dataset.manifest.snr_grid]


def test_curves_from_confusions_have_one_point_per_snr_in_snr_order(acc_dataset):
    matrices = _matrices(acc_dataset, {"never": NEVER, "always": ALWAYS})
    curves = curves_from_confusions(matrices[::-1])
    assert [c.method for c in curves] == ["always", "never"]
    for curve, acc in zip(curves, (3 / 7, 4 / 7)):
        assert [snr for snr, _ in curve.points] == acc_dataset.manifest.snr_grid
        assert all(a == pytest.approx(acc) for _, a in curve.points)


def test_emit_report_files(tmp_path, acc_dataset):
    grid = acc_dataset.manifest.snr_grid
    matrices = _matrices(acc_dataset, {"always": ALWAYS, "never": NEVER})
    written = emit_report(matrices, tmp_path / "rep")
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

    # deterministic re-emission, whatever the order of the matrices
    before = {p.name: p.read_bytes() for p in (tmp_path / "rep").iterdir()}
    emit_report(matrices[::-1], tmp_path / "rep")
    after = {p.name: p.read_bytes() for p in (tmp_path / "rep").iterdir()}
    assert before == after


def test_svg_is_well_formed_xml():
    curve = AccuracyCurve("m", [(float(s), 0.5 + s / 100) for s in range(0, 31, 2)])
    svg = render_accuracy_svg([curve])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_load_confusions_round_trip(tmp_path, acc_dataset):
    cms = _matrices(acc_dataset, {"always": ALWAYS})
    emit_report(cms, tmp_path / "rep")
    back = load_confusions(tmp_path / "rep")
    assert back == cms
    assert curves_from_confusions(back) == curves_from_confusions(cms)


@pytest.mark.parametrize(
    "key,value,what",
    [("real_real", 3.5, "an integer"), ("fake_fake", "7", "an integer"),
     ("real_fake", True, "an integer"), ("snr_db", float("nan"), "a finite number"),
     ("snr_db", "0", "a finite number")],
)
def test_load_confusions_takes_only_json_numbers(tmp_path, key, value, what):
    # int() read a count of 3.5 as 3 and "7" as 7; a missing key was a KeyError
    emit_report([ConfusionMatrix("always", 0.0, 300, 0, 400, 0)], tmp_path)
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
        emit_report([], tmp_path)


BAD_COUNTS = {"negative": {"real_real": -5}, "all-zero": {"real_real": 0, "fake_real": 0}}
BAD_COUNTS_ERROR = "counts must be >= 0 and not all 0, got "


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_load_confusions_rejects_negative_or_all_zero_counts(tmp_path, case):
    # a count of -5 was reported as an accuracy, and four zeros divided by zero
    emit_report([ConfusionMatrix("gan", 0.0, 300, 0, 400, 0)], tmp_path)
    path = tmp_path / "confusion_gan_0.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **BAD_COUNTS[case]}))
    with pytest.raises(ValueError, match=rf"gan_0\.json: {BAD_COUNTS_ERROR}"):
        load_confusions(tmp_path)


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_report_of_bad_counts_is_one_error_line(tmp_path, capsys, case):
    reports = tmp_path / "reports" / "accidental"
    emit_report([ConfusionMatrix("gan", 0.0, 300, 0, 400, 0)], reports)
    path = reports / "confusion_gan_0.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **BAD_COUNTS[case]}))
    before = (reports / "accuracy.csv").read_bytes()
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {BAD_COUNTS_ERROR}") and err.count("\n") == 1
    assert (reports / "accuracy.csv").read_bytes() == before


def _report_rejects_lof_0(tmp_path, capsys, change, expected):
    """confusion_lof_0.json beside gan's, with `change` made to it, fails
    load_confusions and report with `expected`, and report writes nothing."""
    reports = tmp_path / "reports" / "accidental"
    emit_report([ConfusionMatrix(m, 0.0, 300, 0, 400, 0) for m in ("gan", "lof")], reports)
    path = reports / "confusion_lof_0.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(ValueError, match=rf"lof_0\.json: {re.escape(expected)}"):
        load_confusions(reports)
    before = (reports / "accuracy.csv").read_bytes()
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {expected}\n"
    assert (reports / "accuracy.csv").read_bytes() == before


@pytest.mark.parametrize("method", [5, None, ["gan"]])
def test_report_rejects_a_method_that_is_not_a_string(tmp_path, capsys, method):
    # a "method" of 5 beside "gan" ended report in a TypeError from sorting
    expected = f'"method" must be a string, got {json.dumps(method)}'
    _report_rejects_lof_0(tmp_path, capsys, {"method": method}, expected)


@pytest.mark.parametrize("change,expected", [
    # a copy of lof_30's file over lof_0's was reported as lof at 30 dB twice
    ({"snr_db": 30.0}, "method 'lof' at 30 dB belongs in confusion_lof_30.json"),
    ({"method": "gan"}, "method 'gan' at 0 dB belongs in confusion_gan_0.json"),
    ({"snr_db": -5.0}, "method 'lof' at -5 dB belongs in confusion_lof_-5.json"),
    ({"snr_db": 0.5}, "method 'lof' at 0.5 dB belongs in confusion_lof_0.5.json"),
], ids=["copied-snr", "other-method", "negative-snr", "fractional-snr"])
def test_report_rejects_a_file_whose_method_and_snr_do_not_give_its_name(tmp_path, capsys, change,
                                                                          expected):
    _report_rejects_lof_0(tmp_path, capsys, change, expected)


def test_load_confusions_reads_back_the_names_of_negative_and_fractional_snrs(tmp_path):
    # each file's name is its (method, SNR), also where the SNR's tag has a sign or a point
    cms = [ConfusionMatrix(m, snr, 300, 0, 400, 0)
           for m in ("gan", "hypothesis-z1.5") for snr in (-5.0, 0.0, 0.5, 12.5, 30.0)]
    emit_report(cms, tmp_path)
    assert sorted(load_confusions(tmp_path), key=lambda m: (m.method, m.snr_db)) == cms


@pytest.mark.parametrize("kept", [{"methods": ("gan",), "snrs": (0.0, 10.0)},
                                  {"methods": ("gan", "lof"), "snrs": (10.0,)}],
                         ids=["fewer-methods", "fewer-snrs"])
def test_emit_report_removes_the_confusion_files_it_did_not_write(tmp_path, kept):
    # report read back the files of an earlier eval's methods and SNRs
    def matrices(methods, snrs):
        return [ConfusionMatrix(m, snr, 300, 0, 400, 0) for m in methods for snr in snrs]

    emit_report(matrices(("gan", "lof"), (0.0, 10.0)), tmp_path)
    (tmp_path / "notes.txt").write_text("kept\n")
    written = emit_report(matrices(kept["methods"], kept["snrs"]), tmp_path)
    assert set(tmp_path.iterdir()) == set(written) | {tmp_path / "notes.txt"}
    assert load_confusions(tmp_path) == matrices(kept["methods"], kept["snrs"])
    # a report of what the directory holds removes nothing
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    emit_report(load_confusions(tmp_path), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

