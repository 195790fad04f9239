"""Physical-layer authentication workbench built on MIMO channel state information.

Simulates noisy CSI measurement, implements the per-element threshold
hypothesis test with its analytic false-accept probability, trains a GAN
whose discriminator authenticates transmitters, and benchmarks one-class
detectors, with per-SNR accuracy reporting.
"""

from .rng import RngStream
from .channel import (
    NoiseModel,
    flatten_csi,
    sample_csi,
    unflatten_csi,
)
from .threshold import Threshold, accept_rows, false_accept_rate_sim
from .analytic import (
    DiskRegion,
    GaussianSpec,
    auth_probability,
    disk_probability_exact,
    sweep_auth_probability,
)
from .datasets import (
    Dataset,
    DatasetManifest,
    NefariousOffsets,
    build_accidental,
    build_master,
    build_nefarious,
    default_nefarious_offsets,
    read_dataset,
    split_train_test,
    write_dataset,
)
from .neuralnet import AdamState, DenseLayer, Mlp, forward
from .gan import TrainConfig, TrainReport, build_discriminator, build_generator, train_gan
from .detectors import (
    ConvergenceError,
    IForestModel,
    LofModel,
    OcsvmModel,
    iforest_fit,
    lof_fit,
    ocsvm_fit,
)
from .evaluate import AccuracyCurve, Authenticator, ConfusionMatrix, authenticator, emit_report, evaluate

__version__ = "0.1.0"
