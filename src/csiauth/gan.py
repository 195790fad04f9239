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
    _apply,
    _Backprop,
    _backward,
    _bce,
    _bce_scratch,
    _dropout_mask,
    _forward,
    _tape,
    dense_layer,
    forward,
)
from .packed import NumberFields
from .rng import RngStream

CSI_FEATURES = 32  # 16 complex elements, (re, im) each
LATENT_DIM = 5
LEAKY_ALPHA = 0.3
DROPOUT_RATE = 0.2
MAX_EPOCHS = 50


@dataclass(frozen=True)
class TrainConfig(NumberFields):
    max_epochs: int = MAX_EPOCHS
    batch: int = 64
    lr_d: float = 0.0003
    lr_g: float = 0.0009
    latent_dim: int = LATENT_DIM

    def __post_init__(self):
        super().__post_init__()
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
    batches: dict[int, _Batch] = {}  # by batch size: a full one and a last, shorter one
    # per batch of an epoch: d_loss, g_loss, acc_real, acc_fake
    stats = np.empty((4, -(-n // cfg.batch)))
    for _epoch in range(cfg.max_epochs):
        perm = order_gen.permutation(n)
        for k, start in enumerate(range(0, n, cfg.batch)):
            idx = perm[start : start + cfg.batch]
            if len(idx) not in batches:
                batches[len(idx)] = _Batch(disc, gen, len(idx), cfg.latent_dim)
            batch = batches[len(idx)]
            batch.draw(x_real, idx, latent_gen, dropout_gen)
            stats[0, k], stats[2, k], stats[3, k] = _discriminator_step(disc, gen, state_d, batch)
            stats[1, k] = _generator_step(disc, gen, state_g, batch)
        d_loss, g_loss, acc_real, acc_fake = (float(row.mean()) for row in stats)
        report.d_loss.append(d_loss)
        report.g_loss.append(g_loss)
        report.d_accuracy_on_real.append(acc_real)
        report.d_accuracy_on_fake.append(acc_fake)
        report.epochs_run += 1
        if on_epoch_end is not None:
            on_epoch_end(_epoch, disc, report)
    return disc, report


class _Batch:
    """Every array a D/G step pair over b real rows writes, allocated once
    per batch size. draw() takes the batch's random draws in the streams'
    order: one standard_normal((2b, latent)) whose first b rows feed the
    discriminator step and last b the generator step, and one random() for
    the four dropout masks, those of the discriminator step's 2b rows and
    then of the generator step's b rows, each pass layer by layer."""

    def __init__(self, disc: Mlp, gen: Mlp, b: int, latent_dim: int):
        self.b = b
        self.z = np.empty((2 * b, latent_dim))
        self.rows = np.empty((2 * b, CSI_FEATURES))  # real rows, then generated
        self.targets = np.concatenate([np.ones(b), np.zeros(b)])
        dropped = [i for i in sorted(disc.dropout) if disc.dropout[i]]
        width = sum(disc.layers[i].out_dim for i in dropped)
        self.uniforms = np.empty(3 * b * width)
        # Masks follow each other in the buffer; neighbours of one rate are
        # scaled as one span.
        masks, spans, offset = [], [], 0
        for rows in (2 * b, b):
            masks.append({})
            for i in dropped:
                end = offset + rows * disc.layers[i].out_dim
                masks[-1][i] = self.uniforms[offset:end].reshape(rows, -1)
                if spans and spans[-1][2] == disc.dropout[i]:
                    spans[-1][1] = end
                else:
                    spans.append([offset, end, disc.dropout[i]])
                offset = end
        self.spans = [(self.uniforms[start:end], rate) for start, end, rate in spans]
        self.d_tape, self.d_work = _tape(disc, 2 * b, masks[0]), _Backprop(disc, 2 * b, dropped)
        self.d_bce = _bce_scratch(2 * b)
        self.gd_tape, self.gd_work = _tape(disc, b, masks[1]), _Backprop(disc, b, dropped)
        self.g_bce = _bce_scratch(b)
        self.g_tape, self.g_work = _tape(gen, b, {}), _Backprop(gen, b, ())

    def draw(self, x_real, idx, latent_gen, dropout_gen):
        np.take(x_real, idx, axis=0, out=self.rows[: self.b], mode="clip")  # idx is in range
        latent_gen.standard_normal(out=self.z)
        dropout_gen.random(out=self.uniforms)
        for span, rate in self.spans:
            _dropout_mask(span, rate)


def _discriminator_step(disc, gen, state_d, batch: _Batch):
    """One discriminator step on the batch's real rows labeled 1.0 stacked
    with generated rows labeled 0.0; returns (loss, acc_real, acc_fake)."""
    b = batch.b
    batch.rows[b:] = _forward(gen, batch.z[:b], batch.g_tape)
    scores = _forward(disc, batch.rows, batch.d_tape)[:, 0]
    loss, dscores = _bce(scores, batch.targets, batch.d_bce)
    _backward(disc, batch.d_tape, dscores.reshape(-1, 1), batch.d_work,
              param_grads=True, input_grad=False)
    _apply(disc, state_d, batch.d_work.flat)
    acc_real = np.count_nonzero(scores[:b] >= 0.5) / b
    acc_fake = np.count_nonzero(scores[b:] < 0.5) / b
    return loss, acc_real, acc_fake


def _generator_step(disc, gen, state_g, batch: _Batch):
    """One generator step toward the frozen discriminator scoring its rows
    1.0; returns the loss."""
    fake = _forward(gen, batch.z[batch.b :], batch.g_tape)
    pred = _forward(disc, fake, batch.gd_tape)
    loss, dscores = _bce(pred[:, 0], batch.targets[: batch.b], batch.g_bce)
    dfake = _backward(disc, batch.gd_tape, dscores.reshape(-1, 1), batch.gd_work,
                      param_grads=False, input_grad=True)
    _backward(gen, batch.g_tape, dfake, batch.g_work, param_grads=True, input_grad=False)
    _apply(gen, state_g, batch.g_work.flat)
    return loss


def scores_batch(d: Mlp, feature_rows: np.ndarray) -> np.ndarray:
    """Discriminator scores for pre-flattened samples, shape (n,)."""
    return forward(d, feature_rows)[:, 0]


def write_report_csv(report: TrainReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "d_loss", "g_loss", "acc_real", "acc_fake"])
        columns = (report.d_loss, report.g_loss, report.d_accuracy_on_real,
                   report.d_accuracy_on_fake)
        for e, row in enumerate(zip(*columns), start=1):
            writer.writerow([e, *(format(v, ".17g") for v in row)])
