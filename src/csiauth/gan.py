"""Adversarially trained discriminator used as the CSI authenticator.

A small generator forges flattened CSI samples from a 5-dimensional latent
draw while the discriminator scores samples in (0, 1), 1.0 meaning
authentic. They are trained against each other in alternating mini-batch
steps; the generator is discarded at the end and the discriminator kept as
the authentication decision function.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .neuralnet import (
    AdamState,
    Mlp,
    apply_gradients,
    backward,
    bce_loss,
    dense_layer,
    forward,
)
from .rng import RngStream

CSI_FEATURES = 32  # 16 complex elements, (re, im) each
LATENT_DIM = 5
LEAKY_ALPHA = 0.3
DROPOUT_RATE = 0.2
MAX_EPOCHS = 50


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = MAX_EPOCHS
    batch: int = 64
    lr_d: float = 0.0003
    lr_g: float = 0.0009
    latent_dim: int = LATENT_DIM

    def __post_init__(self):
        if not 1 <= self.max_epochs <= MAX_EPOCHS:
            raise ValueError(f"max_epochs must be in [1, {MAX_EPOCHS}], got {self.max_epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.lr_d <= 0 or self.lr_g <= 0:
            raise ValueError("learning rates must be > 0")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")


@dataclass
class TrainReport:
    d_loss: list[float] = field(default_factory=list)
    g_loss: list[float] = field(default_factory=list)
    d_accuracy_on_real: list[float] = field(default_factory=list)
    d_accuracy_on_fake: list[float] = field(default_factory=list)
    epochs_run: int = 0


def build_discriminator(rng: RngStream) -> Mlp:
    """32 concatenated inputs -> 64 -> 32 (leaky ReLU, dropout 0.2) -> sigmoid."""
    layers = [
        dense_layer(CSI_FEATURES, 64, "leaky_relu", rng.substream("d-layer", 0), LEAKY_ALPHA),
        dense_layer(64, 32, "leaky_relu", rng.substream("d-layer", 1), LEAKY_ALPHA),
        dense_layer(32, 1, "sigmoid", rng.substream("d-layer", 2)),
    ]
    return Mlp(layers, dropout={0: DROPOUT_RATE, 1: DROPOUT_RATE})


def build_generator(rng: RngStream, latent_dim: int = LATENT_DIM) -> Mlp:
    """latent -> 16 -> 32 (leaky ReLU) -> 64 (tanh) -> 16 linear pairs."""
    layers = [
        dense_layer(latent_dim, 16, "leaky_relu", rng.substream("g-layer", 0), LEAKY_ALPHA),
        dense_layer(16, 32, "leaky_relu", rng.substream("g-layer", 1), LEAKY_ALPHA),
        dense_layer(32, 64, "tanh", rng.substream("g-layer", 2)),
        dense_layer(64, CSI_FEATURES, "linear", rng.substream("g-layer", 3)),
    ]
    return Mlp(layers)


def train_gan(
    train_rows: np.ndarray, cfg: TrainConfig, rng: RngStream, on_epoch_end=None
) -> tuple[Mlp, TrainReport]:
    """Alternating D/G mini-batch training; returns the kept discriminator.

    `train_rows` (n, 32) are flattened legitimate CSI samples; the caller
    checks their labels. Per batch: the discriminator takes one step on real
    samples labeled 1.0 stacked with generated samples labeled 0.0; then the
    generator takes one step toward fooling the frozen discriminator
    (non-saturating objective, generated samples labeled 1.0). Latent inputs
    are standard normal. The generator is discarded; only the discriminator
    of the final epoch and the report are returned. `on_epoch_end(epoch_index,
    discriminator, report)` runs after each epoch, e.g. to save per-epoch
    checkpoints.
    """
    x_real = np.asarray(train_rows, dtype=float)
    if len(x_real) == 0:
        raise ValueError("training data is empty")
    if x_real.ndim != 2 or x_real.shape[1] != CSI_FEATURES:
        raise ValueError(f"expected (n, {CSI_FEATURES}) feature rows, got shape {x_real.shape}")

    disc = build_discriminator(rng.substream("init-d"))
    gen = build_generator(rng.substream("init-g"), cfg.latent_dim)
    state_d = AdamState(lr=cfg.lr_d)
    state_g = AdamState(lr=cfg.lr_g)
    order_gen = rng.substream("batch-order").generator()
    latent_gen = rng.substream("latent").generator()
    dropout_gen = rng.substream("dropout").generator()

    report = TrainReport()
    n = x_real.shape[0]
    # per batch of an epoch: d_loss, g_loss, acc_real, acc_fake
    stats = np.empty((4, -(-n // cfg.batch)))
    for _epoch in range(cfg.max_epochs):
        perm = order_gen.permutation(n)
        for k, start in enumerate(range(0, n, cfg.batch)):
            idx = perm[start : start + cfg.batch]
            real = x_real[idx]
            stats[0, k], stats[2, k], stats[3, k] = _discriminator_step(
                disc, gen, state_d, real, cfg, latent_gen, dropout_gen
            )
            stats[1, k] = _generator_step(
                disc, gen, state_g, len(idx), cfg, latent_gen, dropout_gen
            )
        d_loss, g_loss, acc_real, acc_fake = (float(row.mean()) for row in stats)
        report.d_loss.append(d_loss)
        report.g_loss.append(g_loss)
        report.d_accuracy_on_real.append(acc_real)
        report.d_accuracy_on_fake.append(acc_fake)
        report.epochs_run += 1
        if on_epoch_end is not None:
            on_epoch_end(_epoch, disc, report)
    return disc, report


def _discriminator_step(disc, gen, state_d, real, cfg, latent_gen, dropout_gen):
    b = real.shape[0]
    z = latent_gen.standard_normal((b, cfg.latent_dim))
    fake, _ = forward(gen, z, "infer")
    batch = np.vstack([real, fake])
    targets = np.concatenate([np.ones(b), np.zeros(b)])
    pred, tape = forward(disc, batch, "train", dropout_gen)
    scores = pred[:, 0]
    loss, dscores = bce_loss(scores, targets)
    grads, _ = backward(disc, tape, dscores.reshape(-1, 1), input_grad=False)
    apply_gradients(disc, state_d, grads)
    acc_real = np.count_nonzero(scores[:b] >= 0.5) / b
    acc_fake = np.count_nonzero(scores[b:] < 0.5) / b
    return loss, acc_real, acc_fake


def _generator_step(disc, gen, state_g, b, cfg, latent_gen, dropout_gen):
    z = latent_gen.standard_normal((b, cfg.latent_dim))
    fake, tape_g = forward(gen, z, "train")
    pred, tape_d = forward(disc, fake, "train", dropout_gen)
    loss, dscores = bce_loss(pred[:, 0], np.ones(b))
    _, dfake = backward(disc, tape_d, dscores.reshape(-1, 1), param_grads=False)
    grads_g, _ = backward(gen, tape_g, dfake, input_grad=False)
    apply_gradients(gen, state_g, grads_g)
    return loss


def scores_batch(d: Mlp, feature_rows: np.ndarray) -> np.ndarray:
    """Discriminator scores for pre-flattened samples, shape (n,)."""
    out, _ = forward(d, feature_rows, "infer")
    return out[:, 0]


def write_report_csv(report: TrainReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "d_loss", "g_loss", "acc_real", "acc_fake"])
        for e in range(report.epochs_run):
            writer.writerow(
                [
                    e + 1,
                    format(report.d_loss[e], ".17g"),
                    format(report.g_loss[e], ".17g"),
                    format(report.d_accuracy_on_real[e], ".17g"),
                    format(report.d_accuracy_on_fake[e], ".17g"),
                ]
            )
