import dataclasses
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    brute_force_lof,
    column_smo_ocsvm_fit,
    edit_packed,
    forest_from_trees,
    format1_document,
    iforest_fit_by_recursion,
    iforest_scores_by_walk,
    pack_array,
    set_at,
    unpack_array,
    whole_matrix_lof_fit,
    whole_matrix_lof_scores,
    whole_matrix_lof_train_scores,
    whole_matrix_rbf,
)

from csiauth import datasets, detectors
from csiauth.detectors import (
    _ROW_BLOCK,
    LOF_K,
    ConvergenceError,
    DetectorConfig,
    LofModel,
    OcsvmModel,
    _SplitDraws,
    _rbf,
    iforest_fit,
    iforest_fit_slices,
    iforest_scores,
    lof_fit,
    lof_scores,
    lof_train_scores,
    load_model,
    ocsvm_decision_values,
    ocsvm_fit,
    save_model,
)
from csiauth.rng import RngStream


def gaussian_points(n, d, seed, scale=1.0, shift=0.0):
    g = RngStream(seed).generator()
    return g.standard_normal((n, d)) * scale + shift


# ---------------------------------------------------------------------------
# LOF

def test_lof_inlier_score_near_one():
    x = gaussian_points(500, 4, seed=1)
    model = lof_fit(x, k=20)
    probe = gaussian_points(50, 4, seed=2) * 0.5
    scores = lof_scores(model, probe)
    assert np.all((scores >= 0.8) & (scores <= 1.2))


def test_lof_far_point_is_outlier():
    x = gaussian_points(300, 4, seed=3)
    model = lof_fit(x, k=20)
    diameter = np.max(x) - np.min(x)
    far = np.full((1, 4), 100 * diameter)
    score = lof_scores(model, far)[0]
    assert score > 10
    assert score > model.threshold


def test_lof_matches_brute_force_on_train_points():
    x = gaussian_points(50, 3, seed=4)
    model = lof_fit(x, k=10)
    np.testing.assert_allclose(lof_train_scores(model), brute_force_lof(x, 10), atol=1e-9)


def test_lof_matches_brute_force_on_queries():
    x = gaussian_points(50, 3, seed=5)
    q = gaussian_points(20, 3, seed=6)
    model = lof_fit(x, k=7)
    np.testing.assert_allclose(lof_scores(model, q), brute_force_lof(x, 7, q), atol=1e-9)


def test_lof_scale_invariant():
    x = gaussian_points(200, 5, seed=7)
    q = gaussian_points(30, 5, seed=8)
    s1 = lof_scores(lof_fit(x, k=15), q)
    s2 = lof_scores(lof_fit(x * 37.5, k=15), q * 37.5)
    np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_lof_order_invariant():
    x = gaussian_points(120, 4, seed=9)
    q = gaussian_points(10, 4, seed=10)
    perm = RngStream(11).generator().permutation(len(x))
    np.testing.assert_allclose(
        lof_scores(lof_fit(x, k=12), q), lof_scores(lof_fit(x[perm], k=12), q), atol=1e-12
    )


def test_lof_k_validation():
    x = gaussian_points(10, 2, seed=12)
    with pytest.raises(ValueError):
        lof_fit(x, k=10)
    with pytest.raises(ValueError):
        lof_fit(x, k=0)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    block=st.sampled_from([1, 3, 64]),
    mapped=st.booleans(),
    n=st.integers(2, 90),
    distinct=st.integers(1, 90),
    k_frac=st.floats(0.0, 1.0),
    grid=st.booleans(),
    # Query counts 1, block - 1, block, block + 1 and 3 * block + 5.
    count=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_lof_and_rbf_match_whole_matrix_bit_for_bit(
    block, mapped, n, distinct, k_frac, grid, count, seed
):
    """Row blocks and the buffer's memory change only the working set:
    kdist, lrd, the scores and the RBF kernel keep every bit of the
    whole-matrix computation, also with duplicated training rows and queries
    equal to training rows (ties at the k-distance, zero distances)."""
    g = np.random.default_rng(seed)

    def draw(rows):
        if grid:
            return g.integers(-2, 3, size=(rows, 3)).astype(float)
        return g.standard_normal((rows, 3))

    x = draw(distinct)[g.integers(0, distinct, size=n)]
    k = 1 + int(k_frac * (n - 2))
    m = max(1, count[0] * block + count[1])
    q = np.where(g.random((m, 1)) < 0.5, x[g.integers(0, n, size=m)], draw(m))
    gamma = float(g.uniform(0.05, 2.0))
    # Every distance matrix here is against the n rows of x: block rows each.
    with mock.patch.object(detectors, "_DIST_BLOCK_ITEMS", block * n), \
            mock.patch.object(detectors, "_MAPPED_BYTES", 0 if mapped else detectors._MAPPED_BYTES), \
            np.errstate(divide="ignore", invalid="ignore"):
        model, oracle = lof_fit(x, k=k), whole_matrix_lof_fit(x, k)
        assert _same_bits(model.kdist, oracle.kdist)
        assert _same_bits(model.lrd, oracle.lrd)
        assert _same_bits(lof_train_scores(model), whole_matrix_lof_train_scores(oracle))
        assert _same_bits(lof_scores(model, q), whole_matrix_lof_scores(oracle, q))
        assert _same_bits(_rbf(q, x, gamma), whole_matrix_rbf(q, x, gamma))
        assert _same_bits(_rbf(x, x, gamma), whole_matrix_rbf(x, x, gamma))


def test_lof_and_ocsvm_match_whole_matrix_on_seed7_benchmark_data():
    """The seed-7 data at the benchmark's scale (SNRs 0 and 30 dB): the LOF
    fit, the training-row scores and the four query scorings an eval runs,
    the OC-SVM fit (its kernel matrix) and its decision values, each
    bit-identical to the whole-matrix computation."""
    rng = RngStream(7)
    master = datasets.build_master(rng, snr_grid=(0.0, 30.0))
    train, test = datasets.split_train_test(master)
    tests = [
        datasets.build_accidental(test, rng),
        datasets.build_nefarious(test, datasets.default_nefarious_offsets(), rng),
    ]
    for snr in (0.0, 30.0):
        x = train.x[train.snr == snr]
        model, oracle = lof_fit(x), whole_matrix_lof_fit(x, detectors.LOF_K)
        assert _same_bits(model.kdist, oracle.kdist) and _same_bits(model.lrd, oracle.lrd)
        assert _same_bits(lof_train_scores(model), whole_matrix_lof_train_scores(oracle))
        svm = ocsvm_fit(x)
        with mock.patch.object(detectors, "_rbf", whole_matrix_rbf):
            svm_oracle = ocsvm_fit(x)
        for field in dataclasses.fields(OcsvmModel):
            a, b = getattr(svm, field.name), getattr(svm_oracle, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        for ds in tests:
            q = ds.x[ds.snr == snr]
            assert len(q) > detectors._DIST_BLOCK_ITEMS // len(x)  # several row blocks
            assert _same_bits(lof_scores(model, q), whole_matrix_lof_scores(oracle, q))
            with mock.patch.object(detectors, "_rbf", whole_matrix_rbf):
                expected = ocsvm_decision_values(svm, q)
            assert _same_bits(ocsvm_decision_values(svm, q), expected)


def test_lof_scores_peak_memory_is_one_distance_matrix():
    """One (queries, train) float64 buffer plus row-block scratch, not a
    fresh whole-matrix temporary per step. A buffer in its own memory
    mapping is outside tracemalloc's view, so the heap is used here."""
    x = gaussian_points(700, 32, seed=13)
    q = gaussian_points(2100, 32, seed=14)
    model = lof_fit(x)
    tracemalloc.start()
    try:
        with mock.patch.object(detectors, "_MAPPED_BYTES", math.inf):
            lof_scores(model, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * len(q) * len(x)


# ---------------------------------------------------------------------------
# Isolation forest

def test_iforest_scores_in_unit_interval():
    x = gaussian_points(400, 6, seed=13)
    model = iforest_fit(x, rng=RngStream(14), subsample=128)
    s = iforest_scores(model, gaussian_points(100, 6, seed=15, scale=3.0))
    assert np.all((s > 0.0) & (s < 1.0))


def test_iforest_far_outlier_scores_above_cluster_point():
    center_scores, outlier_scores = [], []
    x = gaussian_points(400, 4, seed=16)
    far = np.full((1, 4), 12.0)
    center = np.zeros((1, 4))
    for t in range(10):
        model = iforest_fit(x, n_trees=50, subsample=128, rng=RngStream(17, t))
        center_scores.append(iforest_scores(model, center)[0])
        outlier_scores.append(iforest_scores(model, far)[0])
    assert np.mean(outlier_scores) > np.mean(center_scores)
    assert np.mean(outlier_scores) > 0.5


def test_iforest_deterministic_given_seed():
    x = gaussian_points(300, 4, seed=18)
    q = gaussian_points(40, 4, seed=19)
    a = iforest_scores(iforest_fit(x, rng=RngStream(20), subsample=100), q)
    b = iforest_scores(iforest_fit(x, rng=RngStream(20), subsample=100), q)
    np.testing.assert_array_equal(a, b)


def test_iforest_height_limit():
    x = gaussian_points(300, 4, seed=21)
    model = iforest_fit(x, n_trees=20, subsample=64, rng=RngStream(22))
    assert model.height_limit == 6
    for tree in format1_document(model)["payload"]["trees"]:
        assert _max_depth(tree) <= model.height_limit


def test_iforest_medoid_scores_below_extreme_point():
    x = gaussian_points(300, 4, seed=23)
    medoid = x[np.argmin(np.sum(np.linalg.norm(x[:, None] - x[None], axis=-1), axis=1))]
    farthest = x[np.argmax(np.linalg.norm(x - medoid, axis=1))]
    model = iforest_fit(x, rng=RngStream(24), subsample=128)
    s_medoid, s_farthest = iforest_scores(model, np.vstack([medoid, farthest]))
    assert s_medoid <= s_farthest
    assert s_medoid <= model.threshold


def test_iforest_validation():
    x = gaussian_points(50, 3, seed=25)
    with pytest.raises(ValueError):
        iforest_fit(x, subsample=51, rng=RngStream(0))
    with pytest.raises(ValueError):
        iforest_fit(x, n_trees=0, rng=RngStream(0))
    with pytest.raises(ValueError):
        iforest_fit(x, rng=None)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_iforest_rejects_non_finite_training_rows(bad):
    x = gaussian_points(100, 4, seed=46)
    x[37, 2] = float(bad)
    x[52, 0] = float(bad)
    with pytest.raises(ValueError, match="row 37 "):
        iforest_fit(x, subsample=64, rng=RngStream(47))


@pytest.mark.parametrize("column", [0, 3])
def test_iforest_rejects_column_with_non_finite_range(column):
    # Every value is finite, but max - min overflows.
    x = gaussian_points(100, 4, seed=46)
    x[::2, column] = 1e308
    x[1::2, column] = -1e308
    with pytest.raises(ValueError, match=f"column {column}: max - min is not finite"):
        iforest_fit(x, subsample=64, rng=RngStream(47))


def _primed_generators():
    """Four generators, two with a buffered upper half (has_uint32) and two
    without; each call returns fresh generators in the same states."""
    primes = [lambda g: None, lambda g: g.integers(3), lambda g: g.uniform(),
              lambda g: (g.integers(5), g.integers(7), g.integers(9))]
    gens = [RngStream(50, i).generator() for i in range(len(primes))]
    for g, prime in zip(gens, primes):
        prime(g)
    return gens


@pytest.mark.parametrize("block", [1, 3, 512])
def test_split_draws_match_generator_bit_for_bit(block):
    gens, twins = _primed_generators(), _primed_generators()
    assert [g.bit_generator.state["has_uint32"] for g in gens] == [0, 1, 0, 1]
    draws = _SplitDraws(twins, block)
    plan = np.random.default_rng(51)
    # 2**31 + 1 rejects about half of its 32-bit values.
    bounds = np.array([1, 2, 31, 32, 2**31 + 1])
    for _ in range(300):
        t = np.flatnonzero(plan.random(len(gens)) < 0.7)
        if plan.random() < 0.5:
            c = plan.choice(bounds, size=t.size)
            expected = [gens[i].integers(b) for i, b in zip(t.tolist(), c.tolist())]
            got = draws.integers(t, c)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        else:
            lo = plan.normal(size=t.size) * 10.0 ** plan.integers(-3, 4, size=t.size)
            hi = lo + plan.exponential(size=t.size) * (plan.random(size=t.size) < 0.9)
            expected = [gens[i].uniform(a, b) for i, a, b in zip(t.tolist(), lo, hi)]
            got = draws.uniform(t, lo, hi)
            np.testing.assert_array_equal(got.view(np.uint64), np.array(expected).view(np.uint64))
    if block < 512:
        assert draws._words.shape[1] > block  # refilled


@pytest.mark.parametrize("v", [2**31 - 2, 2**32 - 1])
def test_split_draws_rejection_threshold_boundary(v):
    # For c = 2**31 + 1 the threshold is 2**31 - 1: a buffered v = 2**31 - 2
    # leaves 2**31 - 2 (rejected), and v = 2**32 - 1 leaves exactly 2**31 - 1
    # (accepted).
    c = 2**31 + 1
    g, twin = RngStream(52).generator(), RngStream(52).generator()
    for gen in (g, twin):
        state = gen.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, v
        gen.bit_generator.state = state
    draws = _SplitDraws([twin], 4)
    got = draws.integers(np.array([0]), np.array([c]))
    assert got.tolist() == [g.integers(c)]
    assert int(draws._pos[0]) == (1 if v == 2**31 - 2 else 0)


def test_split_draws_require_pcg64():
    with pytest.raises(AssertionError):
        _SplitDraws([np.random.Generator(np.random.MT19937(0))], 4)


@pytest.mark.parametrize(
    "case",
    ["default", "subsample-2", "subsample-n", "subsample-100", "one-tree", "identical-rows",
     "duplicated-rows", "rounded-columns", "constant-columns"],
)
def test_iforest_fit_matches_recursive_growth(tmp_path, case):
    x = gaussian_points(300, 6, seed=48)
    kwargs = {"n_trees": 100, "subsample": 256}
    if case == "subsample-2":
        kwargs["subsample"] = 2
    elif case == "subsample-n":
        kwargs["subsample"] = len(x)
    elif case == "subsample-100":
        kwargs["subsample"] = 100
    elif case == "one-tree":
        kwargs["n_trees"] = 1
    elif case == "identical-rows":
        x = np.ones_like(x)
    elif case == "duplicated-rows":
        x = np.repeat(x[:60], 5, axis=0)
    elif case == "rounded-columns":
        x = np.round(x, 1)
    elif case == "constant-columns":
        x[:, [1, 4]] = 2.5
    rng = RngStream(49)
    fitted = iforest_fit(x, rng=rng, **kwargs)
    grown = forest_from_trees(iforest_fit_by_recursion(x, rng=rng, **kwargs))
    for key in ("n_nodes", "feature", "right", "size"):
        np.testing.assert_array_equal(getattr(fitted, key), getattr(grown, key))
    fitted_path, grown_path = tmp_path / "fit.json", tmp_path / "grown.json"
    save_model(fitted, fitted_path)
    save_model(grown, grown_path)
    assert fitted_path.read_bytes() == grown_path.read_bytes()
    # The model holds its file's arrays, fitted and loaded alike.
    payload = json.loads(fitted_path.read_text())["payload"]
    for forest in (fitted, load_model(fitted_path)):
        for key in ("n_nodes", "feature", "split", "right", "size"):
            got = getattr(forest, key)
            length = forest.n_trees if key == "n_nodes" else forest.n_nodes.sum()
            assert got.shape == (length,), key
            np.testing.assert_array_equal(got, unpack_array(payload[key]))


def test_iforest_fit_slices_matches_per_slice_growth(tmp_path):
    """One lockstep over several slices saves, slice by slice, the bytes of
    each slice grown alone: a slice with tied columns beside slices with
    none (the tied columns are then the union, checked at every node), a
    slice under the subsample (a lower height limit) and a smaller
    subsample."""
    tied = np.round(gaussian_points(300, 6, seed=60), 1)
    distinct = gaussian_points(400, 6, seed=61)
    assert not (np.diff(np.sort(distinct, axis=0), axis=0) == 0).any()
    slices = [
        (distinct, 256, RngStream(62, 0)),
        (tied, 256, RngStream(62, 1)),
        (gaussian_points(90, 6, seed=63), 90, RngStream(62, 2)),
        (gaussian_points(200, 6, seed=64, scale=3.0), 32, RngStream(62, 3)),
    ]
    models = iforest_fit_slices(slices, n_trees=40, threshold=0.6)
    assert [m.height_limit for m in models] == [8, 8, 7, 5]
    for s, ((x, subsample, rng), model) in enumerate(zip(slices, models)):
        alone = forest_from_trees(
            iforest_fit_by_recursion(x, 40, subsample, rng, threshold=0.6)
        )
        for key in ("n_nodes", "feature", "right", "size"):
            np.testing.assert_array_equal(getattr(model, key), getattr(alone, key))
        paths = [tmp_path / f"{s}_{name}.json" for name in ("lockstep", "alone", "fit")]
        save_model(model, paths[0])
        save_model(alone, paths[1])
        save_model(iforest_fit(x, 40, subsample, rng, threshold=0.6), paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_iforest_fit_slices_validates_every_slice():
    good = (gaussian_points(50, 3, seed=65), 32, RngStream(66))
    with pytest.raises(ValueError, match="subsample"):
        iforest_fit_slices([good, (gaussian_points(20, 3, seed=67), 32, RngStream(66))])
    with pytest.raises(ValueError, match="requires an RngStream"):
        iforest_fit_slices([good, (gaussian_points(50, 3, seed=67), 32, None)])
    with pytest.raises(ValueError, match="n_trees"):
        iforest_fit_slices([good], n_trees=0)


def _split_queries(doc):
    """Rows that each hit one stored split value exactly on its feature."""
    rows = []
    for tree in doc["payload"]["trees"][:5]:
        for f, s in zip(tree["feature"], tree["split"]):
            if f >= 0:
                row = np.zeros(4)
                row[f] = s
                rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize(
    "case",
    ["default", "subsample-2", "identical-train", "duplicated-train", "query-on-split",
     "far-queries", "beyond-row-block"],
)
def test_iforest_scores_match_tree_walk(tmp_path, case):
    x = gaussian_points(400, 4, seed=38)
    q = gaussian_points(300, 4, seed=39, scale=2.0)
    kwargs = {}
    if case == "subsample-2":
        kwargs = {"subsample": 2}
    elif case == "identical-train":
        x = np.ones((300, 4))
    elif case == "duplicated-train":
        x = np.repeat(x[:60], 5, axis=0)
    elif case == "far-queries":
        q = np.vstack([q * 1e12, -q * 1e12])
    elif case == "beyond-row-block":
        q = gaussian_points(2 * _ROW_BLOCK + 17, 4, seed=40, scale=2.0)
    model = iforest_fit(x, rng=RngStream(41), **kwargs)
    doc = format1_document(model)
    if case == "identical-train":
        assert all(len(tree["feature"]) == 1 for tree in doc["payload"]["trees"])
    elif case == "query-on-split":
        q = _split_queries(doc)
    np.testing.assert_array_equal(iforest_scores(model, q), iforest_scores_by_walk(doc, q))


def _max_depth(tree):
    depth, stack = {0: 0}, [0]
    while stack:
        node = stack.pop()
        if tree["feature"][node] >= 0:
            for child in (tree["left"][node], tree["right"][node]):
                depth[child] = depth[node] + 1
                stack.append(child)
    return max(depth.values())


def _saved_doc(model, tmp_path):
    path = tmp_path / "saved.json"
    save_model(model, path)
    return json.loads(path.read_text())


def _rejects(tmp_path, doc, expected):
    """load_model of doc, written to edited.json, raises ValueError naming
    the file with `expected` (a literal) in its message."""
    path = tmp_path / "edited.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=rf"edited\.json: .*{re.escape(expected)}"):
        load_model(path)


@pytest.mark.parametrize(
    "rule",
    ["list-lengths", "n-nodes-sum", "huge-n-nodes", "empty-tree", "tree-count",
     "child-outside-tree", "child-before-parent", "leaf-with-children", "inner-node-at-end",
     "deeper-than-height-limit", "nan-split", "inf-threshold"],
)
def test_load_model_rejects_malformed_iforest(tmp_path, rule):
    model = iforest_fit(gaussian_points(200, 4, seed=42), n_trees=5, subsample=32, rng=RngStream(43))
    doc = _saved_doc(model, tmp_path)
    payload = doc["payload"]
    # Tree 2's nodes sit at [start, end) of each node array.
    start = int(model.n_nodes[:2].sum())
    end = start + int(model.n_nodes[2])
    first_leaf = start + int(np.flatnonzero(model.feature[start:end] == -1)[0])
    expected = "tree 2"
    if rule == "list-lengths":
        edit_packed(payload, "split", lambda a: a[:-1])
        expected = f"split holds {model.n_nodes.sum() - 1} nodes, n_nodes sums to {model.n_nodes.sum()}"
    elif rule == "n-nodes-sum":
        edit_packed(payload, "n_nodes", set_at(4, model.n_nodes[4] + 1))
        expected = f"n_nodes sums to {model.n_nodes.sum() + 1}"
    elif rule == "huge-n-nodes":
        # Rejected before any array of n_nodes.sum() entries is allocated.
        edit_packed(payload, "n_nodes", set_at(2, 2**31 - 1))
        expected = f"n_nodes sums to {model.n_nodes.sum() - model.n_nodes[2] + 2**31 - 1}"
    elif rule == "empty-tree":
        edit_packed(payload, "n_nodes", lambda a: a + np.array([0, 0, -int(a[2]), int(a[2]), 0]))
    elif rule == "tree-count":
        doc["hyperparameters"]["n_trees"] = 6
        expected = "6"
    elif rule == "child-outside-tree":
        edit_packed(payload, "right", set_at(start, end - start))
    elif rule == "child-before-parent":
        edit_packed(payload, "right", set_at(start, 0))
    elif rule == "leaf-with-children":
        edit_packed(payload, "right", set_at(first_leaf, 1))
    elif rule == "inner-node-at-end":
        # Its implied left child, the next node, is outside the tree.
        edit_packed(payload, "feature", set_at(end - 1, 0))
    elif rule == "nan-split":
        edit_packed(payload, "split", set_at(start, float("nan")))
    elif rule == "inf-threshold":
        doc["hyperparameters"]["threshold"] = float("inf")
        expected = '"threshold" must be a finite number, got Infinity'
    else:
        depths = [_max_depth(t) for t in format1_document(model)["payload"]["trees"]]
        payload["height_limit"] = max(depths) - 1
        expected = f"tree {depths.index(max(depths))}"
    _rejects(tmp_path, doc, expected)


@pytest.mark.parametrize(
    "feature,right",
    [([0, 0, 0, 0, 0, 0, 0, -1], [1, 2, 3, 4, 5, 6, 7, -1]), ([0, -1, -1, -1], [3, -1, -1, -1])],
    ids=["shared-children", "orphan"],
)
def test_load_model_rejects_a_node_without_exactly_one_parent(tmp_path, feature, right):
    # Tree 1 is either a chain whose every right child is its implied left
    # child, the next node, or a root whose children skip node 2. Both passed
    # every other check; the depth walk, which follows both children, doubled
    # the chain's frontier per level, 2^n indices for n nodes. Keep it short.
    model = iforest_fit(gaussian_points(50, 3, seed=46), n_trees=2, subsample=16, rng=RngStream(47))
    doc = _saved_doc(model, tmp_path)
    payload = doc["payload"]
    n = len(feature)
    columns = {
        "n_nodes": [1, n],
        "feature": [-1, *feature],
        "split": np.zeros(n + 1),
        "right": [-1, *right],
        "size": np.ones(n + 1),
    }
    for key, column in columns.items():
        edit_packed(payload, key, lambda a, column=column: np.asarray(column, dtype=a.dtype))
    payload["height_limit"] = n
    _rejects(tmp_path, doc, "tree 1: a node is not the child of exactly one inner node")


def test_iforest_rejects_points_too_narrow_for_model():
    x = gaussian_points(200, 4, seed=44)
    model = iforest_fit(x, n_trees=10, subsample=64, rng=RngStream(45))
    used = int(model.feature.max()) + 1
    assert iforest_scores(model, x[:, :used]).shape == (200,)
    with pytest.raises(ValueError, match="features"):
        iforest_scores(model, x[:, : used - 1])


# ---------------------------------------------------------------------------
# One-class SVM

def test_ocsvm_identical_training_points():
    x = np.ones((20, 3))
    model = ocsvm_fit(x, nu=0.5, gamma=1.0)
    assert ocsvm_decision_values(model, np.ones((1, 3)))[0] >= 0


def test_ocsvm_far_point_rejected():
    x = gaussian_points(300, 4, seed=26)
    model = ocsvm_fit(x, nu=0.05)
    radius = np.max(np.linalg.norm(x, axis=1))
    assert ocsvm_decision_values(model, np.full((1, 4), 10 * radius))[0] < 0


def test_ocsvm_nu_property():
    x = gaussian_points(700, 4, seed=27)
    model = ocsvm_fit(x, nu=0.05)
    rejected = np.mean(ocsvm_decision_values(model, x) < 0)
    assert rejected <= 0.05 + 0.02


def test_ocsvm_kkt_residual_within_tolerance():
    for seed in (28, 29):
        x = gaussian_points(250, 5, seed=seed)
        model = ocsvm_fit(x, nu=0.1, tol=1e-4)
        assert model.kkt_residual <= 1e-4 * 1.01
        assert model.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        cap = 1.0 / (0.1 * len(x))
        assert np.all(model.alphas >= -1e-12) and np.all(model.alphas <= cap + 1e-12)


def test_ocsvm_convergence_error_carries_residual():
    x = gaussian_points(200, 4, seed=30)
    with pytest.raises(ConvergenceError) as exc:
        ocsvm_fit(x, nu=0.05, max_iter=2)
    assert exc.value.residual > 0


def test_ocsvm_order_invariant_decisions():
    x = gaussian_points(250, 4, seed=31)
    q = gaussian_points(60, 4, seed=32, scale=2.0)
    perm = RngStream(33).generator().permutation(len(x))
    d1 = ocsvm_decision_values(ocsvm_fit(x, nu=0.1), q)
    d2 = ocsvm_decision_values(ocsvm_fit(x[perm], nu=0.1), q)
    np.testing.assert_allclose(d1, d2, atol=1e-3)
    assert np.array_equal(np.sign(d1), np.sign(d2))


def _same_model(a, b):
    for field in dataclasses.fields(OcsvmModel):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name


@pytest.mark.parametrize("case", ["gaussian", "wide", "tight-nu", "duplicated", "seed7-0dB", "seed7-30dB"])
def test_ocsvm_fit_matches_column_smo(case):
    """The SMO that keeps -grad and reads kernel rows gives the bits of the
    first-form loop: support vectors, alphas, rho and KKT residual."""
    nu, gamma = 0.05, None
    if case.startswith("seed7"):
        rng = RngStream(7)
        train, _ = datasets.split_train_test(datasets.build_master(rng, snr_grid=(0.0, 30.0)))
        x = train.x[train.snr == (0.0 if case == "seed7-0dB" else 30.0)]
    elif case == "wide":
        x = gaussian_points(300, 32, seed=70, scale=4.0)
    elif case == "tight-nu":
        x, nu, gamma = gaussian_points(250, 5, seed=71), 0.5, 0.3
    elif case == "duplicated":
        x = np.repeat(gaussian_points(50, 4, seed=72), 4, axis=0)
    else:
        x = gaussian_points(400, 4, seed=73)
    gamma = detectors.default_gamma(x) if gamma is None else gamma
    model = ocsvm_fit(x, nu=nu, gamma=gamma)
    _same_model(model, column_smo_ocsvm_fit(x, nu, gamma, detectors.OCSVM_TOL, detectors.OCSVM_MAX_ITER))


@pytest.mark.parametrize("nu,max_iter", [(0.05, 1), (0.05, 2), (0.05, 17), (1.0, 5)])
def test_ocsvm_convergence_error_matches_column_smo(nu, max_iter):
    # nu = 1 puts every alpha at its cap from the start: no alpha may rise
    x = gaussian_points(200, 4, seed=30)
    gamma = detectors.default_gamma(x)
    with pytest.raises(ConvergenceError) as got:
        ocsvm_fit(x, nu=nu, max_iter=max_iter)
    with pytest.raises(ConvergenceError) as want:
        column_smo_ocsvm_fit(x, nu, gamma, detectors.OCSVM_TOL, max_iter)
    assert np.float64(got.value.residual).tobytes() == np.float64(want.value.residual).tobytes()


@pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (7, 4), (64, 32), (65, 32), (700, 32), (701, 5)])
def test_rbf_of_a_matrix_with_itself_is_exactly_symmetric(n, d):
    """ocsvm_fit reads kernel rows in place of columns: _rbf(x, x) must be
    symmetric bit for bit (a @ a.T goes through one symmetric product)."""
    x = gaussian_points(n, d, seed=74)
    for gamma in (1e-3, detectors.default_gamma(x) if n > 1 else 0.5, 10.0):
        k = _rbf(x, x, gamma)
        assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()


def test_ocsvm_validation():
    x = gaussian_points(50, 3, seed=34)
    with pytest.raises(ValueError):
        ocsvm_fit(x, nu=0.0)
    with pytest.raises(ValueError):
        ocsvm_fit(x, nu=1.5)
    with pytest.raises(ValueError):
        ocsvm_fit(x, gamma=-1.0)


# ---------------------------------------------------------------------------
# Serialization

@pytest.mark.parametrize("algo", ["lof", "iforest", "ocsvm"])
def test_model_json_round_trip(tmp_path, algo):
    x = gaussian_points(150, 4, seed=35)
    q = gaussian_points(30, 4, seed=36, scale=2.0)
    if algo == "lof":
        model = lof_fit(x, k=10)
        score = lof_scores
    elif algo == "iforest":
        model = iforest_fit(x, n_trees=25, subsample=64, rng=RngStream(37))
        score = iforest_scores
    else:
        model = ocsvm_fit(x, nu=0.1)
        score = ocsvm_decision_values
    path = tmp_path / f"{algo}.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(score(model, q), score(back, q))
    again = tmp_path / f"{algo}-again.json"
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_model_rejects_unknown(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"algorithm": "dbscan", "hyperparameters": {}, "payload": {}}')
    with pytest.raises(ValueError):
        load_model(path)
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "y.json")


@pytest.mark.parametrize("case", ["lof-coincident-rows", "ocsvm-nan-alpha"])
def test_save_model_refuses_what_load_model_refuses_and_writes_nothing(tmp_path, case):
    # 21 or more coincident rows at k=20 sum to a reach-distance of 0, so
    # their lrd is inf: the file was written, and load_model refused it
    if case == "lof-coincident-rows":
        x = np.vstack([np.zeros((25, 32)), gaussian_points(100, 32, seed=53)])
        with np.errstate(divide="ignore"):
            model = lof_fit(x, k=20)
        assert np.isinf(model.lrd).sum() == 25
        key = "lrd"
    else:
        model = ocsvm_fit(gaussian_points(60, 4, seed=47), nu=0.2)
        model = dataclasses.replace(model, alphas=set_at(1, float("nan"))(model.alphas.copy()))
        key = "alphas"
    path = tmp_path / "model.json"
    with pytest.raises(ValueError) as error:
        save_model(model, path)
    assert str(error.value) == f"{path}: {key} holds a non-finite value; not saved"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "case",
    ["lof-nan-training-point", "lof-inf-lrd", "lof-short-kdist", "lof-short-lrd",
     "lof-k-not-below-n", "lof-inf-threshold", "ocsvm-short-alphas", "ocsvm-nan-support-vector",
     "ocsvm-inf-rho", "ocsvm-zero-gamma", "ocsvm-nu-above-one"],
)
def test_load_model_rejects_malformed_lof_and_ocsvm(tmp_path, case):
    x = gaussian_points(60, 4, seed=47)
    model = lof_fit(x, k=10) if case.startswith("lof") else ocsvm_fit(x, nu=0.2)
    doc = _saved_doc(model, tmp_path)
    hp, payload = doc["hyperparameters"], doc["payload"]
    if case == "lof-nan-training-point":
        edit_packed(payload, "train_points", set_at((3, 1), float("nan")))
        expected = "train_points holds a non-finite"
    elif case == "lof-inf-lrd":
        edit_packed(payload, "lrd", set_at(5, float("inf")))
        expected = "lrd holds a non-finite"
    elif case == "lof-short-kdist":
        edit_packed(payload, "kdist", lambda a: a[:-1])
        expected = "59 kdist"
    elif case == "lof-short-lrd":
        edit_packed(payload, "lrd", lambda a: a[:-1])
        expected = "59 lrd"
    elif case == "lof-k-not-below-n":
        hp["k"] = 60
        expected = "k must satisfy"
    elif case == "lof-inf-threshold":
        hp["threshold"] = float("inf")
        expected = '"threshold" must be a finite number, got Infinity'
    elif case == "ocsvm-short-alphas":
        edit_packed(payload, "alphas", lambda a: a[:-1])
        expected = "alphas"
    elif case == "ocsvm-nan-support-vector":
        edit_packed(payload, "support_vectors", set_at((0, 0), float("nan")))
        expected = "support_vectors holds a non-finite"
    elif case == "ocsvm-inf-rho":
        payload["rho"] = float("-inf")
        expected = '"rho" must be a finite number, got -Infinity'
    elif case == "ocsvm-zero-gamma":
        hp["gamma"] = 0.0
        expected = "gamma must be > 0"
    else:
        hp["nu"] = 1.5
        expected = "nu must be in"
    _rejects(tmp_path, doc, expected)


def test_detector_config_checks_each_field_by_its_kind():
    assert DetectorConfig() == DetectorConfig(
        lof_k=LOF_K, lof_threshold=1.5, iforest_trees=100, iforest_subsample=256,
        iforest_threshold=0.5, ocsvm_nu=0.05, ocsvm_gamma=None,
    )
    config = DetectorConfig(lof_threshold=2, ocsvm_gamma=3, lof_k=np.int64(7))
    assert (config.lof_threshold, config.ocsvm_gamma, config.lof_k) == (2.0, 3.0, 7)
    assert [type(v) for v in (config.lof_threshold, config.ocsvm_gamma, config.lof_k)] == [
        float, float, int
    ]
    for bad in ({"lof_k": 20.7}, {"iforest_trees": "100"}, {"iforest_subsample": True}):
        with pytest.raises(ValueError, match=f'"{next(iter(bad))}" must be an integer'):
            DetectorConfig(**bad)
    for bad in ({"lof_threshold": True}, {"ocsvm_nu": "0.1"}, {"ocsvm_gamma": float("nan")},
                {"iforest_threshold": float("inf")}):
        with pytest.raises(ValueError, match=f'"{next(iter(bad))}" must be a finite number'):
            DetectorConfig(**bad)


# Every number a detector file holds outside its packed arrays.
DETECTOR_NUMBERS = {
    "lof": [("hyperparameters", "k", int), ("hyperparameters", "threshold", float)],
    "iforest": [("hyperparameters", "n_trees", int), ("hyperparameters", "subsample", int),
                ("hyperparameters", "threshold", float), ("payload", "height_limit", int)],
    "ocsvm": [("hyperparameters", "nu", float), ("hyperparameters", "gamma", float),
              ("payload", "rho", float), ("payload", "kkt_residual", float)],
}


def _small_model(algo):
    if algo == "iforest":
        return iforest_fit(gaussian_points(200, 4, seed=42), n_trees=5, subsample=32,
                           rng=RngStream(43))
    x = gaussian_points(60, 4, seed=47)
    return lof_fit(x, k=10) if algo == "lof" else ocsvm_fit(x, nu=0.2)


@pytest.mark.parametrize(
    "algo,part,key,kind,value",
    [
        (algo, part, key, kind, value)
        for algo, numbers in DETECTOR_NUMBERS.items()
        for part, key, kind in numbers
        for value in (["20", True, 20.7] if kind is int else ["0.5", True])
        + [float("nan"), float("inf")]
    ],
)
def test_load_model_takes_only_json_numbers_of_each_kind(tmp_path, algo, part, key, kind, value):
    # int() read "k": 20.7 as 20, true as 1 and "20" as 20, and raised
    # OverflowError for Infinity; float() read "nu": true as 1.0
    doc = _saved_doc(_small_model(algo), tmp_path)
    doc[part][key] = value
    what = "an integer" if kind is int else "a finite number"
    _rejects(tmp_path, doc, f'"{key}" must be {what}, got {json.dumps(value)}')


@pytest.mark.parametrize(
    "case",
    ["format-1-document", "format-version-1", "missing-format-version", "top-level-array",
     "float-dtype", "int-dtype", "short-bytes", "shape-too-large", "negative-shape",
     "shape-dimensions", "non-base64-character", "not-packed", "inf-in-packed-floats"],
)
def test_load_model_rejects_bad_packed_layout(tmp_path, case):
    x = gaussian_points(60, 4, seed=47)
    lof = lof_fit(x, k=10)
    doc = _saved_doc(lof, tmp_path)
    payload = doc["payload"]
    rerun = "re-run `csiauth fit-detector`"
    if case == "format-1-document":
        doc, expected = json.dumps(format1_document(lof)), f"format None is not 2; {rerun}"
    elif case == "format-version-1":
        doc["format_version"], expected = 1, f"format 1 is not 2; {rerun}"
    elif case == "missing-format-version":
        del doc["format_version"]
        expected = rerun
    elif case == "top-level-array":
        doc, expected = "[1, 2]", "expected a JSON object"
    elif case == "float-dtype":
        payload["train_points"] = pack_array(lof.train_points, "<f4")
        expected = "train_points has dtype '<f4', expected '<f8'"
    elif case == "int-dtype":
        model = iforest_fit(x, n_trees=5, subsample=32, rng=RngStream(43))
        doc = _saved_doc(model, tmp_path)
        doc["payload"]["feature"]["dtype"] = "<i8"
        expected = "feature has dtype '<i8', expected '<i4'"
    elif case == "short-bytes":
        edit_packed(payload, "train_points", lambda a: a[:-1])
        payload["train_points"]["shape"] = [60, 4]
        expected = "train_points holds 1888 bytes, shape [60, 4] needs 1920"
    elif case == "shape-too-large":
        payload["kdist"]["shape"] = [61]
        expected = "kdist holds 480 bytes, shape [61] needs 488"
    elif case == "negative-shape":
        payload["train_points"]["shape"] = [-1, 4]
        expected = "train_points must have a shape of 2 dimensions, got [-1, 4]"
    elif case == "shape-dimensions":
        payload["train_points"]["shape"] = [240]
        expected = "train_points must have a shape of 2 dimensions, got [240]"
    elif case == "non-base64-character":
        text = payload["lrd"]["base64"]
        payload["lrd"]["base64"] = text[:8] + "!" + text[9:]
        expected = "lrd is not valid base64"
    elif case == "not-packed":
        payload["kdist"] = lof.kdist.tolist()
        expected = "kdist must be a packed array object, got list"
    else:
        edit_packed(payload, "kdist", set_at(7, float("-inf")))
        expected = "kdist holds a non-finite"
    _rejects(tmp_path, doc, expected)


def _edge_model(algo):
    """A model whose stored floats include -0.0, subnormals and values near
    +-1e308, built directly (no fit would produce them)."""
    edge = np.array([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308,
                     1e308, 0.1, -1.0 / 3.0])
    rows = np.vstack([edge, edge[::-1], np.roll(edge, 3)]).reshape(-1, 4)
    if algo == "lof":
        return LofModel(k=3, train_points=rows, threshold=-0.0, kdist=edge[:6], lrd=edge[2:])
    if algo == "ocsvm":
        return OcsvmModel(nu=5e-324, gamma=1.7976931348623157e308, support_vectors=rows,
                          alphas=edge[:6], rho=-0.0, kkt_residual=-2.5e-310)
    model = iforest_fit(gaussian_points(200, 4, seed=42), n_trees=5, subsample=32, rng=RngStream(43))
    inner = model.feature >= 0
    split = model.split.copy()
    split[inner] = np.resize(edge, int(inner.sum()))
    return dataclasses.replace(model, split=split, threshold=5e-324)


def _format1_values(doc):
    """Every number of a parsed format-1 document, by model attribute: arrays
    as float64 or int64 arrays (a forest's node lists concatenated), scalars
    as float64."""
    payload = doc["payload"]
    if doc["algorithm"] == "iforest":
        values = {
            key: np.array([v for tree in payload["trees"] for v in tree[key]],
                          dtype=float if key == "split" else np.int64)
            for key in ("feature", "split", "right", "size")
        }
        values["n_nodes"] = np.array([len(tree["feature"]) for tree in payload["trees"]])
        values["threshold"] = np.float64(doc["hyperparameters"]["threshold"])
        return values
    values = {}
    for key, v in {**doc["hyperparameters"], **payload}.items():
        values[key] = np.array(v, dtype=np.int64 if key == "k" else float)
    return values


@pytest.mark.parametrize("algo", ["lof", "iforest", "ocsvm"])
def test_load_model_matches_format1_text_bit_for_bit(tmp_path, algo):
    model = _edge_model(algo)
    path = tmp_path / f"{algo}.json"
    save_model(model, path)
    loaded = load_model(path)
    reference = json.loads(json.dumps(format1_document(model), sort_keys=True))
    for key, want in _format1_values(reference).items():
        got = np.asarray(getattr(loaded, key), dtype=want.dtype)
        assert got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
    again = tmp_path / f"{algo}-again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("case", ["missing-payload", "missing-k", "truncated"])
def test_load_model_unreadable_document_raises_value_error_naming_file(tmp_path, case):
    path = tmp_path / "lof.json"
    save_model(lof_fit(gaussian_points(60, 4, seed=48), k=10), path)
    text = path.read_text()
    doc = json.loads(text)
    if case == "missing-payload":
        del doc["payload"]
        text, expected = json.dumps(doc), "missing key 'payload'"
    elif case == "missing-k":
        del doc["hyperparameters"]["k"]
        text, expected = json.dumps(doc), "missing key 'k'"
    else:
        text, expected = text[: len(text) // 2], ""
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"lof\.json: {expected}"):
        load_model(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("algo", ["lof", "ocsvm"])
def test_lof_and_ocsvm_reject_non_finite_training_rows(algo, bad):
    fit = {"lof": lof_fit, "ocsvm": ocsvm_fit}[algo]
    x = gaussian_points(100, 4, seed=46)
    x[37, 2] = float(bad)
    x[52, 0] = float(bad)
    with pytest.raises(ValueError, match=f"{algo} training row 37 "):
        fit(x)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_ocsvm_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        ocsvm_fit(gaussian_points(50, 4, seed=30), max_iter=max_iter)
