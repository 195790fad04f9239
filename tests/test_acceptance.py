"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The GAN
calibration criteria (6, 7, 9) and the LOF-dominance half of criterion 8
are currently red; the failure messages carry the measured numbers.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import brute_force_lof, mc_disk_probability

from csiauth import detectors
from csiauth.analytic import (
    DiskRegion,
    GaussianSpec,
    auth_probability,
    disk_probability_exact,
    sweep_auth_probability,
)
from csiauth.channel import NoiseModel, sample_csi
from csiauth.datasets import (
    build_accidental,
    build_master,
    build_nefarious,
    default_nefarious_offsets,
    split_train_test,
)
from csiauth.gan import TrainConfig, build_discriminator, build_generator, scores_batch, train_gan
from csiauth.neuralnet import (
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
from csiauth.threshold import Threshold, false_accept_rate_sim

PIPELINE_SEED = 7
GAN_SEEDS = (101, 102, 103, 104, 105)  # the documented seed set for criteria 6-7
Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared artifacts

@pytest.fixture(scope="module")
def pipeline():
    rng = RngStream(PIPELINE_SEED)
    master = build_master(rng)
    train, test = split_train_test(master)
    acc = build_accidental(test, rng)
    nef = build_nefarious(test, default_nefarious_offsets(), rng)
    grid = master.manifest.snr_grid
    slices = {}
    for name, ds in (("train", train), ("acc", acc), ("nef", nef)):
        for snr in grid:
            at_snr = ds.snr == snr
            slices[(name, snr)] = (at_snr, ds.x[at_snr], ds.legit[at_snr])
    return SimpleNamespace(
        master=master, train=train, test=test, acc=acc, nef=nef, grid=grid, slices=slices
    )


def eval_gan(disc, pipeline, ds_name, snr):
    _, feats, legit = pipeline.slices[(ds_name, snr)]
    s = scores_batch(disc, feats)
    accepts = s >= 0.5
    acc = float(np.mean(accepts == legit))
    fake_real = int(np.sum(accepts & ~legit))
    return acc, fake_real


@pytest.fixture(scope="module")
def gan_sweep(pipeline):
    t0 = time.perf_counter()
    models = {}
    for seed in GAN_SEEDS:
        for snr in pipeline.grid:
            _, feats, _ = pipeline.slices[("train", snr)]
            disc, _ = train_gan(feats, TrainConfig(), RngStream(seed).substream("gan-train", snr))
            models[(seed, snr)] = disc
    return models, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gan_default(pipeline):
    models = {}
    for snr in pipeline.grid:
        _, feats, _ = pipeline.slices[("train", snr)]
        disc, _ = train_gan(
            feats, TrainConfig(), RngStream(PIPELINE_SEED).substream("gan-train", snr)
        )
        models[snr] = disc
    return models


@pytest.fixture(scope="module")
def detector_sweep(pipeline):
    rng = RngStream(PIPELINE_SEED)
    models = {}
    for snr in pipeline.grid:
        _, feats, _ = pipeline.slices[("train", snr)]
        models[("lof", snr)] = detectors.lof_fit(feats)
        models[("iforest", snr)] = detectors.iforest_fit(
            feats, rng=rng.substream("iforest", snr), subsample=min(256, len(feats))
        )
        models[("ocsvm", snr)] = detectors.ocsvm_fit(feats)
    return models


def detector_accuracy(models, pipeline, algo, ds_name, snr):
    _, feats, legit = pipeline.slices[(ds_name, snr)]
    model = models[(algo, snr)]
    if algo == "lof":
        accepts = detectors.lof_scores(model, feats) <= model.threshold
    elif algo == "iforest":
        accepts = detectors.iforest_scores(model, feats) <= model.threshold
    else:
        accepts = detectors.ocsvm_decision_values(model, feats) >= 0
    return float(np.mean(accepts == legit))


def hypothesis_accuracy(pipeline, mult, ds_name, snr):
    thr = Threshold.from_sigma2(mult, NoiseModel(snr).sigma2)
    h_ref = pipeline.master.manifest.h_true
    chunk, feats, legit = pipeline.slices[(ds_name, snr)]
    from csiauth.channel import flatten_csi

    ref = flatten_csi(h_ref)
    delta = feats - ref[np.newaxis, :]
    d2 = delta[:, 0::2] ** 2 + delta[:, 1::2] ** 2
    accepts = np.all(d2 <= thr.z**2, axis=1)
    return float(np.mean(accepts == legit))


# ---------------------------------------------------------------------------
# Criteria

def test_criterion_01_analytic_vs_oracle():
    t0 = time.perf_counter()
    # closed form at the origin
    for sigma2 in (0.25, 1.0, 4.0):
        for mult in (0.5, 1.0, 2.0):
            z = mult * math.sqrt(sigma2)
            p = disk_probability_exact(DiskRegion(0.0, 0.0, z), GaussianSpec(sigma2))
            closed = 1.0 - math.exp(-(z**2) / sigma2)
            assert abs(p - closed) <= 1e-6, (sigma2, mult, p, closed)
    # randomized 20-point grid vs Monte Carlo
    gen = RngStream(123).generator()
    worst = 0.0
    for trial in range(20):
        sigma2 = float(gen.uniform(0.25, 4.0))
        s = math.sqrt(sigma2 / 2.0)
        region = DiskRegion(
            float(gen.uniform(-2.0 * s, 2.0 * s)),
            float(gen.uniform(-2.0 * s, 2.0 * s)),
            float(gen.uniform(0.4 * s, 4.0 * s)),
        )
        p = disk_probability_exact(region, GaussianSpec(sigma2))
        n = 10**6
        p_hat = mc_disk_probability(region, s, n, gen)
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        worst = max(worst, abs(p - p_hat) / (3.0 * se))
        assert abs(p - p_hat) <= 3.0 * se, (trial, p, p_hat, se)
    elapsed = time.perf_counter() - t0
    report(1, "analytic-vs-oracle", elapsed < 30.0,
           f"worst |p-p_hat|/3se={worst:.2f}, elapsed={elapsed:.1f}s")


def test_criterion_02_sweep_reproduction():
    t0 = time.perf_counter()
    configs = [(1, 1), (2, 2), (4, 4), (8, 8)]
    mults = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    rng = RngStream(321)
    rows = sweep_auth_probability(configs, mults, trials=12, rng=rng)
    table = {(r.n_rx, r.m_tx, r.multiplier): r.probability for r in rows}
    for mult in mults:
        seq = [table[(n, m, mult)] for n, m in configs]
        assert all(a > b for a, b in zip(seq, seq[1:])), (mult, seq)
    for n, m in configs:
        seq = [table[(n, m, mult)] for mult in mults]
        assert all(a < b for a, b in zip(seq, seq[1:])), ((n, m), seq)
    # 1x1 equals the single-disk value on the same reference draws
    g = GaussianSpec(1.0)
    z = 3.0 * math.sqrt(0.5)
    direct = float(
        np.mean(
            [
                disk_probability_exact(
                    DiskRegion(h[0, 0].real, h[0, 0].imag, z), g
                )
                for h in (
                    sample_csi(8, 8, rng.substream("sweep-ref", 8, 8, t)) for t in range(12)
                )
            ]
        )
    )
    assert table[(1, 1, 3.0)] == pytest.approx(direct, abs=1e-12)
    elapsed = time.perf_counter() - t0
    report(2, "antenna/threshold monotonicity", elapsed < 60.0, f"elapsed={elapsed:.1f}s")


def _leaky_margin(net, tape):
    margins = [
        float(np.min(np.abs(tape.pres[i])))
        for i, l in enumerate(net.layers)
        if l.activation == "leaky_relu"
    ]
    return min(margins) if margins else 1.0


def _fd_check(net, loss_fn, in_dim, coords_per_layer, gen, h=1e-5):
    """Max relative error between backprop and central finite differences,
    both through the kernels that GAN training runs.

    Inputs are resampled until every leaky-ReLU pre-activation clears the
    kink by a margin (finite differences are invalid across the kink).
    Dropout masks, drawn per dropout layer in layer order, are replayed for
    every evaluation.
    """
    while True:
        x = gen.standard_normal((1, in_dim))
        masks = {i: _dropout_mask(gen.random((1, net.layers[i].out_dim)), rate)
                 for i, rate in sorted(net.dropout.items()) if rate}
        tape = _tape(net, 1, masks)
        out = _forward(net, x, tape)
        if _leaky_margin(net, tape) > 1e-3:
            break

    def full_loss():
        return loss_fn(_forward(net, x, _tape(net, 1, masks)))[0]

    _, upstream = loss_fn(out)
    work = _Backprop(net, 1, masks)
    _backward(net, tape, upstream, work, param_grads=True, input_grad=True)
    flat = [g for pair in work.grads for g in pair]
    worst = 0.0
    for pi, p in enumerate(net.parameters()):
        idxs = gen.choice(p.size, size=min(coords_per_layer, p.size), replace=False)
        for idx in idxs:
            old = p.flat[idx]
            p.flat[idx] = old + h
            up = full_loss()
            p.flat[idx] = old - h
            down = full_loss()
            p.flat[idx] = old
            fd = (up - down) / (2 * h)
            an = flat[pi].flat[idx]
            denom = max(abs(fd), abs(an))
            if denom > 1e-10:
                worst = max(worst, abs(fd - an) / denom)
    return worst


def test_criterion_03_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    gen = RngStream(55).generator()
    for draw in range(100):
        if draw % 2 == 0:
            net = build_discriminator(RngStream(1000 + draw))
            target = float(draw % 4 < 2)

            def loss_fn(o, t=np.array([target])):
                loss, dpred = _bce(o[:, 0], t, _bce_scratch(1))
                return loss, dpred.reshape(-1, 1)

            worst = max(worst, _fd_check(net, loss_fn, 32, coords_per_layer=6, gen=gen))
        else:
            net = build_generator(RngStream(2000 + draw))
            c = gen.standard_normal((1, 32))

            def loss_fn(o, c=c):
                return float(np.dot(o[0], c[0])), c

            worst = max(worst, _fd_check(net, loss_fn, 5, coords_per_layer=6, gen=gen))
    elapsed = time.perf_counter() - t0
    report(3, "gradient correctness", worst <= 1e-4 and elapsed < 60.0,
           f"max rel err={worst:.2e}, elapsed={elapsed:.1f}s")


def test_criterion_04_architecture_fidelity():
    d = build_discriminator(RngStream(1))
    g = build_generator(RngStream(2))
    ok = (
        d.param_count() == 4225
        and g.param_count() == 4832
        and g.layers[0].in_dim == 5
    )
    x = RngStream(3).generator().standard_normal((256, 32)) * 3.0
    out = forward(d, x)
    ok = ok and bool(np.all((out > 0.0) & (out < 1.0)))
    report(4, "architecture fidelity",
           ok, f"D={d.param_count()} params, G={g.param_count()} params, latent={g.layers[0].in_dim}")


def test_criterion_05_dataset_fidelity():
    t0 = time.perf_counter()
    rng = RngStream(PIPELINE_SEED)
    master = build_master(rng)
    train, test = split_train_test(master)
    acc = build_accidental(test, rng)
    nef = build_nefarious(test, default_nefarious_offsets(), rng)
    grid = master.manifest.snr_grid
    ok = len(grid) == 16 and len(master) == 16_000
    for snr in grid:
        ok = ok and master.manifest.counts[(snr, "legitimate")] == 1000
        ok = ok and train.manifest.counts[(snr, "legitimate")] == 700
        ok = ok and test.manifest.counts[(snr, "legitimate")] == 300
        for ds in (acc, nef):
            ok = ok and ds.manifest.counts[(snr, "legitimate")] == 300
            ok = ok and ds.manifest.counts[(snr, "illegitimate")] == 400
    imp = set(acc.source[~acc.legit])
    nefids = set(nef.source[~nef.legit])
    ok = ok and len(imp) == 5 and len(nefids) == 5
    elapsed = time.perf_counter() - t0
    report(5, "dataset fidelity", ok and elapsed < 10.0,
           f"1000x16 master, 700/300 split, 300+400 tests, 5+5 attackers, elapsed={elapsed:.1f}s")


def test_criterion_06_gan_accidental(pipeline, gan_sweep):
    models, train_time = gan_sweep
    hi = [s for s in pipeline.grid if s >= 10.0]
    lo = [s for s in pipeline.grid if s < 10.0]
    acc = {}
    fr = {}
    for seed in GAN_SEEDS:
        for snr in pipeline.grid:
            acc[(seed, snr)], fr[(seed, snr)] = eval_gan(models[(seed, snr)], pipeline, "acc", snr)
    qualifying = [
        seed
        for seed in GAN_SEEDS
        if all(acc[(seed, s)] == 1.0 for s in hi) and all(fr[(seed, s)] == 0 for s in lo)
    ]
    medians = {s: float(np.median([acc[(seed, s)] for seed in GAN_SEEDS])) for s in hi}
    med_ok = all(v >= 0.99 for v in medians.values())
    best = max(GAN_SEEDS, key=lambda seed: min(acc[(seed, s)] for s in hi))
    detail = (
        f"qualifying seeds={qualifying}, worst median >=10dB="
        f"{min(medians.values()):.3f}@{min(medians, key=medians.get):g}dB, "
        f"best seed {best} accuracies >=10dB="
        f"{[round(acc[(best, s)], 3) for s in hi]}, train+eval={train_time:.0f}s"
    )
    report(6, "GAN accidental accuracy", bool(qualifying) and med_ok and train_time < 600, detail)


def test_criterion_07_gan_nefarious(pipeline, gan_sweep):
    models, _ = gan_sweep
    hi = [s for s in pipeline.grid if s >= 20.0]
    acc = {}
    for seed in GAN_SEEDS:
        for snr in hi:
            acc[(seed, snr)], _ = eval_gan(models[(seed, snr)], pipeline, "nef", snr)
    qualifying = [seed for seed in GAN_SEEDS if all(acc[(seed, s)] == 1.0 for s in hi)]
    medians = {s: float(np.median([acc[(seed, s)] for seed in GAN_SEEDS])) for s in hi}
    med_ok = all(v >= 0.99 for v in medians.values())
    best = max(GAN_SEEDS, key=lambda seed: min(acc[(seed, s)] for s in hi))
    detail = (
        f"qualifying seeds={qualifying}, worst median >=20dB={min(medians.values()):.3f}, "
        f"best seed {best} accuracies >=20dB={[round(acc[(best, s)], 3) for s in hi]}"
    )
    report(7, "GAN nefarious accuracy", bool(qualifying) and med_ok, detail)


def test_criterion_08_detector_ordering(pipeline, detector_sweep, gan_default):
    # accidental: LOF must not be beaten by any other evaluated method
    others_by_snr = {}
    lof_acc = {}
    for snr in pipeline.grid:
        lof_acc[snr] = detector_accuracy(detector_sweep, pipeline, "lof", "acc", snr)
        others = {
            "iforest": detector_accuracy(detector_sweep, pipeline, "iforest", "acc", snr),
            "ocsvm": detector_accuracy(detector_sweep, pipeline, "ocsvm", "acc", snr),
            "gan": eval_gan(gan_default[snr], pipeline, "acc", snr)[0],
        }
        for mult in (1.0, 3.0, 5.0, 6.0):
            others[f"hypothesis-z{mult:g}"] = hypothesis_accuracy(pipeline, mult, "acc", snr)
        others_by_snr[snr] = others
    dominated = {
        snr: {m: (round(lof_acc[snr], 4), round(a, 4)) for m, a in others_by_snr[snr].items() if a > lof_acc[snr]}
        for snr in pipeline.grid
        if any(a > lof_acc[snr] for a in others_by_snr[snr].values())
    }

    def first_perfect(algo):
        for snr in pipeline.grid:
            if detector_accuracy(detector_sweep, pipeline, algo, "nef", snr) == 1.0:
                return snr
        return float("inf")

    lof_first = first_perfect("lof")
    ifo_first = first_perfect("iforest")
    svm_first = first_perfect("ocsvm")
    nef_ok = lof_first <= ifo_first and lof_first <= svm_first
    detail = (
        f"accidental: LOF beaten at {dominated if dominated else 'no SNR'}; "
        f"nefarious first-1.000 SNR: lof={lof_first:g}, iforest={ifo_first:g}, ocsvm={svm_first:g}"
    )
    report(8, "detector ordering", not dominated and nef_ok, detail)


def test_criterion_09_baseline_closeness(pipeline, gan_default):
    gaps = {}
    for snr in pipeline.grid:
        z3 = hypothesis_accuracy(pipeline, 3.0, "acc", snr)
        gan_acc = eval_gan(gan_default[snr], pipeline, "acc", snr)[0]
        gaps[snr] = abs(z3 - gan_acc)
    worst_snr = max(gaps, key=gaps.get)
    ok = all(v <= 0.05 for v in gaps.values())
    report(9, "hypothesis-z3 tracks GAN", ok,
           f"worst |z3-gan|={gaps[worst_snr]:.3f} at {worst_snr:g} dB")


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    # (a) LOF vs brute force on 50-point instances
    worst_lof = 0.0
    for seed in (61, 62, 63):
        g = RngStream(seed).generator()
        x = g.standard_normal((50, 3))
        model = detectors.lof_fit(x, k=10)
        mine = detectors.lof_train_scores(model)
        ref = brute_force_lof(x, 10)
        worst_lof = max(worst_lof, float(np.max(np.abs(mine - ref))))
    ok_lof = worst_lof <= 1e-9

    # (b) threshold-test Monte Carlo vs the analytic per-element product
    sigma2 = 1.0
    h_ref = sample_csi(4, 4, RngStream(64))
    ok_mc = True
    details = []
    for mult in (3.0, 5.0):
        thr = Threshold.from_sigma2(mult, sigma2)
        p = auth_probability(h_ref, thr.z, GaussianSpec(1.0))
        n = 100_000
        p_hat = false_accept_rate_sim(h_ref, thr, n, RngStream(65, int(mult)))
        se = math.sqrt(p * (1.0 - p) / n)
        ok_mc = ok_mc and abs(p - p_hat) <= Z99 * se
        details.append(f"z{mult:g}: |{p:.4f}-{p_hat:.4f}|<={Z99 * se:.4f}")
    elapsed = time.perf_counter() - t0
    report(10, "oracle equivalence", ok_lof and ok_mc,
           f"LOF max dev={worst_lof:.1e}; {'; '.join(details)}; elapsed={elapsed:.1f}s")


def test_criterion_11_pipeline_determinism(tmp_path):
    from csiauth.cli import main

    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        args = ["--seed", "7", "--out", str(out)]
        assert main(["gen", *args]) == 0
        assert main(["train", *args]) == 0
        for algo in ("lof", "iforest", "ocsvm"):
            assert main(["fit-detector", "--algo", algo, *args]) == 0
        assert main(["eval", *args]) == 0
        assert main(["report", *args]) == 0
        outs.append(out)
    a, b = outs
    a_files = sorted(p.relative_to(a) for p in (a / "reports").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b) for p in (b / "reports").rglob("*") if p.is_file())
    ok = a_files == b_files and len(a_files) > 0
    differing = []
    for rel in a_files:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            differing.append(str(rel))
            ok = False
    report(11, "pipeline determinism", ok,
           f"{len(a_files)} report files compared" + (f", differing: {differing[:3]}" if differing else ""))
