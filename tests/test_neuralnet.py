import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    activation_slope,
    edit_packed,
    format1_checkpoint,
    pack_array,
    set_at,
    two_branch_sigmoid,
    where_leaky_relu,
)

from csiauth.neuralnet import (
    AdamState,
    DenseLayer,
    Mlp,
    dense_layer,
    forward,
    load_checkpoint,
    _activate,
    _adam,
    _apply,
    _Backprop,
    _backprop_activation,
    _backward,
    _bce,
    _bce_scratch,
    _dropout_mask,
    _forward,
    _sigmoid,
    _tape,
    save_checkpoint,
)
from csiauth.rng import RngStream

EDGE_VALUES = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 710.0, -710.0, np.nan, -np.nan]
)


def small_net(seed=0, dims=(5, 3, 1), acts=("leaky_relu", "sigmoid"), dropout=None):
    rng = RngStream(seed)
    layers = [
        dense_layer(dims[i], dims[i + 1], acts[i], rng.substream("l", i))
        for i in range(len(dims) - 1)
    ]
    return Mlp(layers, dropout or {})


def train_forward(net, x, masks=None):
    """_forward into a fresh tape that applies `masks`; returns (output, tape)."""
    tape = _tape(net, len(x), masks or {})
    return _forward(net, x, tape), tape


def masks_for(net, rows, gen):
    """Dropout masks of `rows` rows for each dropout layer, drawn in layer order."""
    return {i: _dropout_mask(gen.random((rows, net.layers[i].out_dim)), rate)
            for i, rate in sorted(net.dropout.items()) if rate}


def grads_of(net, tape, upstream, input_grad=True):
    """_backward into fresh buffers; returns (work, dinput): work.grads holds
    the (dW, db) pairs, work.flat the whole gradient in net.params order."""
    work = _Backprop(net, len(upstream), tape.dropout_masks)
    return work, _backward(net, tape, upstream, work, param_grads=True, input_grad=input_grad)


def bce(pred, target):
    return _bce(pred, target, _bce_scratch(pred.size))


def fd_param_grads(loss_fn, params, coords, h=1e-5):
    out = []
    for pi, idx in coords:
        p = params[pi]
        old = p.flat[idx]
        p.flat[idx] = old + h
        up = loss_fn()
        p.flat[idx] = old - h
        down = loss_fn()
        p.flat[idx] = old
        out.append((up - down) / (2 * h))
    return np.array(out)


def test_forward_zero_weights_sigmoid_is_half():
    net = small_net()
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    out = forward(net, np.ones((1, 5)))
    assert out[0, 0] == pytest.approx(0.5)


def test_leaky_relu_negative_slope():
    layer = DenseLayer(np.array([[1.0]]), np.zeros(1), "leaky_relu", alpha=0.3)
    net = Mlp([layer])
    out = forward(net, np.array([[-1.0]]))
    assert out[0, 0] == pytest.approx(-0.3)


def test_dropout_rate_zero_is_noop():
    net = small_net(dropout={0: 0.0})
    x = RngStream(1).generator().standard_normal((1, 5))
    mask = _dropout_mask(RngStream(2).generator().random((1, 3)), 0.0)
    np.testing.assert_array_equal(train_forward(net, x, {0: mask})[0], forward(net, x))


def test_forward_rejects_bad_input():
    net = small_net()
    with pytest.raises(ValueError, match=r"\(n, 5\) rows"):
        forward(net, np.ones((1, 4)))
    with pytest.raises(ValueError, match=r"\(n, 5\) rows, got shape \(5,\)"):
        forward(net, np.ones(5))  # a single sample is a (1, 5) row


def test_infer_mode_is_deterministic_without_rng():
    net = small_net(dropout={0: 0.5})
    x = np.ones((1, 5))
    a = forward(net, x)
    b = forward(net, x)
    np.testing.assert_array_equal(a, b)


def test_dropout_inverted_scaling_preserves_mean():
    net = small_net(seed=3, dims=(4, 50, 1), acts=("linear", "linear"), dropout={0: 0.2})
    base = forward(net, np.ones((1, 4)))[0, 0]
    x = np.ones((3000, 4))
    outs, _ = train_forward(net, x, masks_for(net, len(x), RngStream(4).generator()))
    assert np.mean(outs) == pytest.approx(base, abs=0.05 * max(abs(base), 1.0))


def test_backward_matches_finite_differences():
    net = small_net(seed=5)
    gen = RngStream(6).generator()
    x = gen.standard_normal((1, 5))
    target = np.ones(1)

    def loss_fn():
        return bce(forward(net, x)[:, 0], target)[0]

    out, tape = train_forward(net, x)
    loss, dpred = bce(out[:, 0], target)
    work, _ = grads_of(net, tape, dpred.reshape(-1, 1))
    params = net.parameters()
    coords = [(pi, idx) for pi in range(len(params)) for idx in range(params[pi].size)]
    fd = fd_param_grads(loss_fn, params, coords)
    an = work.flat
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
    assert np.max(np.abs(fd - an) / denom) <= 1e-4


def test_backward_zero_upstream_gives_zero_grads():
    net = small_net(seed=7)
    out, tape = train_forward(net, np.ones((1, 5)))
    work, dx = grads_of(net, tape, np.zeros_like(out))
    assert np.all(work.flat == 0)
    assert np.all(dx == 0)


def test_backward_linear_layer_closed_form():
    layer = dense_layer(3, 2, "linear", RngStream(8))
    net = Mlp([layer])
    x = np.array([[1.0, -2.0, 3.0]])
    up = np.array([[0.5, -1.5]])
    _, tape = train_forward(net, x)
    work, dx = grads_of(net, tape, up)
    np.testing.assert_allclose(work.grads[0][0], np.outer(up, x))
    np.testing.assert_allclose(work.grads[0][1], up[0])
    np.testing.assert_allclose(dx, up @ layer.weights)


def test_backward_without_input_grad_keeps_parameter_grads():
    net = small_net(seed=9, dims=(5, 4, 3, 1), acts=("leaky_relu", "leaky_relu", "sigmoid"),
                    dropout={1: 0.2})
    xs = RngStream(10).generator().standard_normal((6, 5))
    out, tape = train_forward(net, xs, masks_for(net, 6, RngStream(11).generator()))
    up = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
    work, dx = grads_of(net, tape, up)
    work_only, none = grads_of(net, tape, up, input_grad=False)
    assert dx.shape == xs.shape and none is None
    assert work.flat.tobytes() == work_only.flat.tobytes()


def test_backward_batch_matches_mean_of_singles():
    net = small_net(seed=9)
    gen = RngStream(10).generator()
    xs = gen.standard_normal((4, 5))
    out, tape = train_forward(net, xs)
    loss, dpred = bce(out[:, 0], np.ones(4))
    batch, _ = grads_of(net, tape, dpred.reshape(-1, 1))
    acc = np.zeros(net.param_count())
    for i in range(4):
        o, t = train_forward(net, xs[i : i + 1])
        _, dp = bce(o[:, 0], np.ones(1))
        acc += grads_of(net, t, dp.reshape(-1, 1))[0].flat
    np.testing.assert_allclose(batch.flat, acc / 4, atol=1e-12)


def bce1(pred, target):
    """_bce of one prediction, as a (1,) row; returns (loss, scalar gradient)."""
    loss, grad = bce(np.array([pred]), np.array([target]))
    return loss, grad[0]


def test_bce_values():
    loss, _ = bce1(0.5, 1.0)
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    loss0, _ = bce1(0.5, 0.0)
    assert loss0 == pytest.approx(np.log(2), abs=1e-12)
    near_one, _ = bce1(1.0 - 1e-9, 1.0)
    assert near_one < 1e-6


def test_bce_gradient_matches_finite_difference():
    h = 1e-7
    _, grad = bce1(0.3, 1.0)
    up = bce1(0.3 + h, 1.0)[0]
    down = bce1(0.3 - h, 1.0)[0]
    assert grad == pytest.approx((up - down) / (2 * h), abs=1e-6)


def test_bce_clipping_absorbs_saturation():
    loss, grad = bce1(0.0, 1.0)
    assert np.isfinite(loss) and grad == 0.0


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, 2.0])
    _adam(AdamState(lr=0.1), p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.0, 2.0])


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected ratio is 1 on the first step for any constant gradient
    p = np.array([1.0])
    _adam(AdamState(lr=0.01), p, np.array([123.456]))
    assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_adam_zero_lr_keeps_params():
    p = np.array([3.0])
    _adam(AdamState(lr=0.0), p, np.array([5.0]))
    assert p[0] == 3.0


@given(dims=st.lists(st.integers(1, 8), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_param_count_formula(dims):
    rng = RngStream(0)
    layers = [
        dense_layer(dims[i], dims[i + 1], "linear", rng.substream("x", i))
        for i in range(len(dims) - 1)
    ]
    net = Mlp(layers)
    expected = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))
    assert net.param_count() == expected


def test_single_step_decreases_loss():
    for trial in range(20):
        net = small_net(seed=100 + trial)
        gen = RngStream(200 + trial).generator()
        x = gen.standard_normal((1, 5))
        target = np.array([float(gen.integers(0, 2))])
        out, tape = train_forward(net, x)
        loss, dpred = bce(out[:, 0], target)
        work, _ = grads_of(net, tape, dpred.reshape(-1, 1), input_grad=False)
        _apply(net, AdamState(lr=1e-4), work.flat)
        loss2, _ = bce(forward(net, x)[:, 0], target)
        assert loss2 < loss


def test_checkpoint_round_trip(tmp_path):
    net = small_net(seed=12, dropout={0: 0.2})
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert [sorted(layer) for layer in doc["layers"]] == [
        ["activation", "alpha", "biases", "weights"]
    ] * 2
    assert doc["layers"][0]["weights"]["shape"] == [3, 5]
    assert doc["layers"][0]["biases"]["shape"] == [3]
    back = load_checkpoint(path)
    assert back.dropout == net.dropout
    assert back.params.tobytes() == net.params.tobytes()
    x = np.linspace(-1, 1, 5).reshape(1, 5)
    np.testing.assert_array_equal(forward(net, x), forward(back, x))
    again = tmp_path / "again.json"
    save_checkpoint(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "layers": []}))
    with pytest.raises(ValueError, match=r"bad\.json: checkpoint format 99 is not 2"):
        load_checkpoint(path)


def test_mlp_validates_chain_and_dropout():
    l1 = dense_layer(3, 4, "linear", RngStream(1))
    l2 = dense_layer(5, 1, "linear", RngStream(2))
    with pytest.raises(ValueError):
        Mlp([l1, l2])
    with pytest.raises(ValueError):
        Mlp([l1], dropout={0: 1.0})
    with pytest.raises(ValueError):
        Mlp([l1], dropout={5: 0.2})


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_leaky_relu_and_its_gradient_match_where_forms_bit_for_bit(alpha):
    layer = DenseLayer(np.ones((1, 1)), np.zeros(1), "leaky_relu", alpha)
    np.testing.assert_array_equal(
        bits(_activate(EDGE_VALUES, layer)), bits(where_leaky_relu(EDGE_VALUES, alpha))
    )
    # every upstream value against every pre-activation value
    g, pre = np.meshgrid(EDGE_VALUES, EDGE_VALUES)
    want = g * activation_slope(pre, None, "leaky_relu", alpha, False)
    np.testing.assert_array_equal(bits(_backprop_activation(g, pre, None, layer, False)), bits(want))


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    np.testing.assert_array_equal(bits(_sigmoid(EDGE_VALUES)), bits(two_branch_sigmoid(EDGE_VALUES)))
    layer = DenseLayer(np.ones((1, 1)), np.zeros(1), "sigmoid")
    g, pre = np.meshgrid(EDGE_VALUES, EDGE_VALUES)
    want = g * activation_slope(pre, None, "sigmoid", 0.3, True)
    np.testing.assert_array_equal(bits(_backprop_activation(g, pre, None, layer, True)), bits(want))


def test_parameters_are_views_into_one_buffer():
    net = small_net(seed=13, dims=(5, 4, 3, 1), acts=("leaky_relu", "tanh", "sigmoid"))
    params = net.parameters()
    assert all(p.base is net.params for p in params)
    assert net.param_count() == net.params.size == sum(p.size for p in params)
    assert np.concatenate([p.ravel() for p in params]).tobytes() == net.params.tobytes()
    # one Adam update over the buffer is per-array Adam, bit for bit
    copies = [p.copy() for p in params]
    out, tape = train_forward(net, RngStream(14).generator().standard_normal((6, 5)))
    work, _ = grads_of(net, tape, np.ones_like(out))
    state = AdamState(lr=0.01)
    ref_states = [AdamState(lr=0.01) for _ in copies]
    for _ in range(3):
        _apply(net, state, work.flat)
        for c, g, s in zip(copies, [g for pair in work.grads for g in pair], ref_states):
            _adam(s, c, g)
    for p, c in zip(net.parameters(), copies):
        assert p.tobytes() == c.tobytes()


@pytest.mark.parametrize("name", ["weights", "biases"])
def test_apply_refuses_rebound_parameters(name):
    net = small_net(seed=15)
    out, tape = train_forward(net, np.ones((1, 5)))
    work, _ = grads_of(net, tape, np.ones_like(out))
    layer = net.layers[1]
    setattr(layer, name, getattr(layer, name).copy())
    before = net.params.copy()
    with pytest.raises(ValueError, match="rebound"):
        _apply(net, AdamState(lr=0.01), work.flat)
    assert net.params.tobytes() == before.tobytes()


@pytest.mark.parametrize("alpha", [1.5, float("nan"), -0.1, float("inf")])
def test_leaky_alpha_outside_unit_interval_rejected(tmp_path, alpha):
    with pytest.raises(ValueError, match="alpha"):
        Mlp([DenseLayer(np.ones((1, 1)), np.zeros(1), "leaky_relu", alpha)])
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=16), path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["alpha"] = alpha
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="alpha"):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["alpha", "dropout"])
@pytest.mark.parametrize("value", ["0.2", True, float("nan"), float("-inf")], ids=str)
def test_checkpoint_numbers_must_be_finite_json_numbers(tmp_path, where, value):
    # float() read a dropout rate "0.2" as 0.2, and true passed as alpha 1
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=22, dropout={0: 0.2}), path)
    doc = json.loads(path.read_text())
    if where == "alpha":
        doc["layers"][1]["alpha"] = value
        name = 'layer 1 "alpha"'
    else:
        doc["dropout"]["0"] = value
        name = 'dropout "0"'
    path.write_text(json.dumps(doc))
    expected = f"{name} must be a finite number, got {json.dumps(value)}"
    with pytest.raises(ValueError, match=rf"ckpt\.json: {re.escape(expected)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", [" +1 ", "01", "1.0", "+1", "3", "x"])
def test_checkpoint_dropout_key_must_be_a_layer_index(tmp_path, key):
    # int() read " +1 " and "01" as layer 1
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=23, dims=(5, 4, 3, 1), acts=("tanh", "tanh", "sigmoid"),
                              dropout={1: 0.2}), path)
    doc = json.loads(path.read_text())
    doc["dropout"] = {key: 0.2}
    path.write_text(json.dumps(doc))
    expected = f"dropout key {key!r} is not a layer index 0 to 2"
    with pytest.raises(ValueError, match=rf"ckpt\.json: {re.escape(expected)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,bad", [("weights", float("nan")), ("biases", float("inf"))])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, name, bad):
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=17), path)
    doc = json.loads(path.read_text())
    edit_packed(doc["layers"][1], name, set_at(0, bad))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"ckpt\.json: layer 1 {name} holds a non-finite value"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,bad", [("weights", float("nan")), ("biases", float("-inf"))])
def test_save_checkpoint_refuses_non_finite_parameters(tmp_path, name, bad):
    net = small_net(seed=19)
    getattr(net.layers[1], name).flat[0] = bad
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError, match=r"ckpt\.json: layer 1 has a non-finite weight or bias"):
        save_checkpoint(net, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "edit,expected",
    [
        (lambda doc: doc["layers"][0].pop("weights"), "missing key 'weights'"),
        (lambda doc: edit_packed(doc["layers"][0], "weights", lambda a: a.reshape(-1)[:1]),
         "layer 0 weights must have a shape of 2 dimensions, got [1]"),
        (lambda doc: doc["layers"][0]["weights"].update(shape=[3, 1]),
         "layer 0 weights holds 120 bytes, shape [3, 1] needs 24"),
        (lambda doc: doc["layers"][1].pop("alpha"), "missing key 'alpha'"),
        (lambda doc: doc.pop("dropout"), "missing key 'dropout'"),
        (lambda doc: doc.update(dropout=[0.2]), "dropout must be a JSON object"),
        (None, "Expecting"),  # truncated JSON
    ],
    ids=["missing-weights", "one-weight", "short-shape", "missing-alpha", "missing-dropout",
         "dropout-list", "truncated"],
)
def test_checkpoint_malformed_document_raises_value_error_naming_file(tmp_path, edit, expected):
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=18), path)
    text = path.read_text()
    if edit is None:
        text = text[:-2]  # drop the closing brace
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"ckpt\.json: {re.escape(expected)}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "shape,expected",
    [((1,), r"layer 0 has weights of shape \(3, 5\) and biases of shape \(1,\)"),
     ((4,), r"layer 0 has weights of shape \(3, 5\) and biases of shape \(4,\)"),
     ((3, 1), r"layer 0 biases must have a shape of 1 dimensions, got \[3, 1\]")],
    ids=["one", "four", "column"],
)
def test_mlp_rejects_biases_not_of_out_dim(tmp_path, shape, expected):
    with pytest.raises(ValueError, match=r"layer 0 has weights of shape \(3, 5\) and biases"):
        Mlp([DenseLayer(np.ones((3, 5)), np.full(shape, 0.25), "leaky_relu")])
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_net(seed=20), path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["biases"] = pack_array(np.full(shape, 0.25), "<f8")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"ckpt\.json: {expected}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "case",
    ["format-1-document", "missing-format-version", "top-level-array", "float32-weights",
     "int-biases", "short-bytes", "nan-in-packed-weights", "not-packed"],
)
def test_checkpoint_rejects_bad_packed_layout(tmp_path, case):
    net = small_net(seed=21, dropout={0: 0.2})
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    doc = json.loads(path.read_text())
    layer = doc["layers"][0]
    rerun = "; re-run `csiauth train` to rewrite it"
    if case == "format-1-document":
        doc, expected = format1_checkpoint(net), f"checkpoint format 1 is not 2{rerun}"
    elif case == "missing-format-version":
        del doc["format_version"]
        expected = f"checkpoint format None is not 2{rerun}"
    elif case == "top-level-array":
        doc, expected = [doc], "expected a JSON object"
    elif case == "float32-weights":
        layer["weights"] = pack_array(net.layers[0].weights, "<f4")
        expected = "layer 0 weights has dtype '<f4', expected '<f8'"
    elif case == "int-biases":
        layer["biases"] = pack_array(np.zeros(3), "<i4")
        expected = "layer 0 biases has dtype '<i4', expected '<f8'"
    elif case == "short-bytes":
        edit_packed(layer, "weights", lambda a: a.reshape(-1)[:-1])
        layer["weights"]["shape"] = [3, 5]
        expected = "layer 0 weights holds 112 bytes, shape [3, 5] needs 120"
    elif case == "nan-in-packed-weights":
        edit_packed(layer, "weights", set_at((2, 4), float("nan")))
        expected = "layer 0 weights holds a non-finite value"
    else:
        layer["biases"] = net.layers[0].biases.tolist()
        expected = "layer 0 biases must be a packed array object, got list"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"ckpt\.json: {re.escape(expected)}$"):
        load_checkpoint(path)


def test_checkpoint_matches_format1_text_bit_for_bit(tmp_path):
    """-0.0, subnormals and the largest doubles load with the bits that
    parsing the decimal text of checkpoint format 1 gives."""
    edge = np.array([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e308, 0.1, -1.0 / 3.0, 2.0**-1074 * 3])
    net = Mlp([
        DenseLayer(np.resize(edge, (3, 5)), edge[:3], "leaky_relu", 0.3),
        DenseLayer(np.resize(edge[::-1], (2, 3)), edge[-2:], "tanh"),
        DenseLayer(np.resize(np.roll(edge, 4), (1, 2)), edge[4:5], "sigmoid"),
    ], {1: 0.2})
    path = tmp_path / "ckpt.json"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    reference = json.loads(json.dumps(format1_checkpoint(net), sort_keys=True))
    want = np.array([v for layer in reference["layers"] for key in ("weights", "biases")
                     for v in layer[key]], dtype=float)
    assert loaded.params.tobytes() == want.tobytes()
    assert [(l.activation, l.alpha) for l in loaded.layers] == [
        (layer["activation"], layer["alpha"]) for layer in reference["layers"]
    ]
    assert loaded.dropout == {1: 0.2}
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()
