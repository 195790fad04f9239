import hashlib

import numpy as np
import pytest
from oracles import reference_train_gan

from csiauth.channel import flatten_csi, sample_csi
from csiauth.evaluate import authenticator
from csiauth.gan import (
    CSI_FEATURES,
    TrainConfig,
    _Batch,
    _discriminator_step,
    _generator_step,
    build_discriminator,
    build_generator,
    scores_batch,
    train_gan,
    write_report_csv,
)
from csiauth.neuralnet import (
    AdamState,
    _Backprop,
    _backward,
    _bce,
    _bce_scratch,
    _dropout_mask,
    _forward,
    _tape,
    forward,
)
from csiauth.rng import RngStream


def params_digest(net):
    h = hashlib.sha256()
    for p in net.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


def legit_samples(n, snr_db=20.0, seed=0):
    """Feature rows (n, 32) of noisy measurements of one enrolled matrix."""
    h = sample_csi(4, 4, RngStream(seed, 1))
    gen = RngStream(seed, 2).generator()
    s = np.sqrt(10 ** (-snr_db / 10) / 2)
    out = []
    for i in range(n):
        out.append(h + s * (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))))
    return flatten_csi(np.stack(out))


def test_discriminator_architecture():
    d = build_discriminator(RngStream(1))
    assert d.param_count() == 4225
    assert d.layers[0].in_dim == 32
    assert [l.out_dim for l in d.layers] == [64, 32, 1]
    assert [l.activation for l in d.layers] == ["leaky_relu", "leaky_relu", "sigmoid"]
    assert all(l.alpha == 0.3 for l in d.layers[:2])
    assert d.dropout == {0: 0.2, 1: 0.2}
    x = RngStream(2).generator().standard_normal((64, 32)) * 10
    out = forward(d, x)
    assert np.all((out > 0) & (out < 1))


def test_generator_architecture():
    g = build_generator(RngStream(3))
    assert g.param_count() == 4832
    assert g.layers[0].in_dim == 5
    assert [l.out_dim for l in g.layers] == [16, 32, 64, 32]
    assert [l.activation for l in g.layers] == ["leaky_relu", "leaky_relu", "tanh", "linear"]
    z = RngStream(4).generator().standard_normal((1, 5))
    out = forward(g, z)
    csi = (out[0, 0::2] + 1j * out[0, 1::2]).reshape(4, 4)
    assert csi.shape == (4, 4)


def test_untrained_discriminator_near_chance():
    # an untrained D carries no information: scores hug 0.5 and balanced
    # accuracy averaged over initializations is chance level
    real = legit_samples(300, seed=7)
    accs = []
    for seed in range(20):
        d = build_discriminator(RngStream(5, seed))
        g = build_generator(RngStream(6, seed))
        z = RngStream(8, seed).generator().standard_normal((300, 5))
        fake = forward(g, z)
        s_real = scores_batch(d, real)
        s_fake = scores_batch(d, fake)
        assert np.all(np.abs(np.concatenate([s_real, s_fake]) - 0.5) < 0.35)
        accs.append((np.mean(s_real >= 0.5) + np.mean(s_fake < 0.5)) / 2)
    assert abs(np.mean(accs) - 0.5) <= 0.1


def test_train_rejects_bad_data():
    with pytest.raises(ValueError):
        train_gan([], TrainConfig(), RngStream(0))
    with pytest.raises(ValueError):
        train_gan(legit_samples(4)[:, :8], TrainConfig(), RngStream(0))  # 2x2 CSI rows
    with pytest.raises(ValueError):
        train_gan(legit_samples(4)[0], TrainConfig(), RngStream(0))  # one unbatched row


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=51)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_d=0.0)
    for bad in ({"max_epochs": 2.5}, {"batch": 64.0}, {"latent_dim": True}, {"batch": "64"}):
        with pytest.raises(ValueError, match=f'"{next(iter(bad))}" must be an integer'):
            TrainConfig(**bad)
    assert TrainConfig(max_epochs=np.int64(3)).max_epochs == 3


@pytest.mark.parametrize("value", ["0.001", True, float("nan"), float("inf")], ids=str)
def test_train_config_learning_rates_are_finite_numbers(value):
    # "0.001" used to get through to a TypeError from `<=`, and NaN past `<= 0`
    for name in ("lr_d", "lr_g"):
        with pytest.raises(ValueError, match=f'"{name}" must be a finite number'):
            TrainConfig(**{name: value})
    assert type(TrainConfig(lr_d=1).lr_d) is float


def test_training_is_deterministic():
    data = legit_samples(128, seed=9)
    cfg = TrainConfig(max_epochs=3)
    d1, r1 = train_gan(data, cfg, RngStream(10))
    d2, r2 = train_gan(data, cfg, RngStream(10))
    assert params_digest(d1) == params_digest(d2)
    assert r1.d_loss == r2.d_loss and r1.g_loss == r2.g_loss
    assert r1.epochs_run == 3
    assert len(r1.d_accuracy_on_real) == len(r1.d_accuracy_on_fake) == 3


def test_train_gan_matches_reference_step():
    # 150 rows make batches of 64, 64 and 22; the discriminator's dropout is
    # on, so every draw of every stream must line up with the reference
    data = legit_samples(150, seed=27)
    cfg = TrainConfig(max_epochs=3)
    disc, report = train_gan(data, cfg, RngStream(28))
    ref_params, ref_report = reference_train_gan(data, cfg, RngStream(28))
    assert len(disc.parameters()) == len(ref_params) == 6
    for got, want in zip(disc.parameters(), ref_params):
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    for key, want in ref_report.items():
        got = getattr(report, key)
        np.testing.assert_array_equal(got, want)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert report.epochs_run == 3


def test_epoch_hook_runs_each_epoch():
    data = legit_samples(64, seed=11)
    seen = []
    train_gan(data, TrainConfig(max_epochs=2), RngStream(12),
              on_epoch_end=lambda e, d, r: seen.append((e, r.epochs_run)))
    assert seen == [(0, 1), (1, 2)]


def test_steps_freeze_the_other_network():
    x = legit_samples(64, seed=13)
    d = build_discriminator(RngStream(14))
    g = build_generator(RngStream(15))
    sd, sg = AdamState(lr=3e-4), AdamState(lr=9e-4)
    batch = _Batch(d, g, 64, TrainConfig().latent_dim)
    batch.draw(x, np.arange(64), RngStream(16).generator(), RngStream(17).generator())
    g_before = params_digest(g)
    _discriminator_step(d, g, sd, batch)
    assert params_digest(g) == g_before
    d_before = params_digest(d)
    _generator_step(d, g, sg, batch)
    assert params_digest(d) == d_before
    assert params_digest(g) != g_before


def test_authenticate_tau_extremes():
    d = build_discriminator(RngStream(18))
    rows = flatten_csi(sample_csi(4, 4, RngStream(19)))[np.newaxis, :]
    for tau, accepted in ((0.0, True), (1.0, False)):
        auth = authenticator(d, tau=tau)
        assert (auth.score(rows) >= auth.cut).tolist() == [accepted]
    assert 0.0 < scores_batch(d, rows)[0] < 1.0


def test_authenticate_matches_batch_scores_and_flatten_order():
    # a stack of matrices flattens row by row in the single-matrix layout, and
    # each row's score does not depend on the rest of the batch
    d = build_discriminator(RngStream(20))
    csis = np.stack([sample_csi(4, 4, RngStream(21, i)) for i in range(5)])
    rows = flatten_csi(csis)
    for i, csi in enumerate(csis):
        np.testing.assert_array_equal(rows[i], flatten_csi(csi))
    batch = scores_batch(d, rows)
    singles = [scores_batch(d, flatten_csi(csi)[np.newaxis, :])[0] for csi in csis]
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-15)
    auth = authenticator(d)
    assert auth.cut == 0.5
    np.testing.assert_array_equal(auth.score(rows), batch)


def test_authenticate_shape_mismatch():
    d = build_discriminator(RngStream(22))
    with pytest.raises(ValueError):
        authenticator(d).score(flatten_csi(sample_csi(2, 2, RngStream(23)))[np.newaxis, :])


def test_drift_toward_chance_soft_check(capsys):
    # soft check, logged and never hard-failed: as the generator improves,
    # the discriminator's train-time accuracy on real-vs-generated should
    # drift toward 0.5 in at least one of five seeds
    data = legit_samples(256, snr_db=10.0, seed=26)
    drifted = []
    for seed in range(5):
        _, report = train_gan(data, TrainConfig(max_epochs=10), RngStream(300 + seed))
        early = (report.d_accuracy_on_real[0] + report.d_accuracy_on_fake[0]) / 2
        late = (report.d_accuracy_on_real[-1] + report.d_accuracy_on_fake[-1]) / 2
        drifted.append(abs(late - 0.5) < abs(early - 0.5) or abs(late - 0.5) <= 0.15)
    print(f"[soft-check] discriminator accuracy drift toward 0.5: {sum(drifted)}/5 seeds")


def test_report_csv_format(tmp_path):
    data = legit_samples(64, seed=24)
    _, report = train_gan(data, TrainConfig(max_epochs=2), RngStream(25))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,d_loss,g_loss,acc_real,acc_fake"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


def test_discriminator_input_gradient_matches_finite_differences():
    # The generator step's gradient reaches the generator only through this
    # input gradient, taken through the discriminator's replayed dropout.
    d = build_discriminator(RngStream(30))
    gen = RngStream(31).generator()
    b, h = 4, 1e-5
    masks = {i: _dropout_mask(gen.random((b, d.layers[i].out_dim)), rate)
             for i, rate in sorted(d.dropout.items())}
    while True:  # finite differences are invalid across a leaky-ReLU kink
        x = gen.standard_normal((b, CSI_FEATURES))
        tape = _tape(d, b, masks)
        pred = _forward(d, x, tape)
        if min(np.abs(pre).min() for pre in tape.pres[:2]) > 1e-3:
            break
    targets = np.ones(b)  # the generator's objective

    def loss(rows):
        return _bce(_forward(d, rows, _tape(d, b, masks))[:, 0], targets, _bce_scratch(b))[0]

    _, dpred = _bce(pred[:, 0], targets, _bce_scratch(b))
    dx = _backward(d, tape, dpred.reshape(-1, 1), _Backprop(d, b, masks),
                   param_grads=False, input_grad=True)
    fd = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (loss(up) - loss(down)) / (2 * h)
    np.testing.assert_allclose(dx, fd, rtol=1e-6, atol=1e-10)
