"""End-to-end orchestration: gen -> train -> fit-detector -> eval -> report.

Stages are composable and individually seeded; every command honors
--seed and reproduces byte-identical outputs given one BLAS thread
(OPENBLAS_NUM_THREADS=1 and the like), as LOF's and OC-SVM's BLAS products
round by thread count. Every flag follows its subcommand, which holds its
default; a JSON config file (--config) holds only what no flag sets: the
GAN and detector settings and the analytic trial count. The default output
directory comes from $CSIAUTH_OUT when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analytic, datasets, detectors, gan, neuralnet
from .channel import NoiseModel
from .datasets import MAX_GRID_POINTS, check_snr_grid, snr_tag
from .packed import number, typed_fields
from .evaluate import (
    authenticator,
    emit_report,
    evaluate_sets,
    hypothesis_authenticator,
    load_confusions,
)
from .rng import RngStream
from .threshold import Threshold

ANALYTIC_CONFIGS = ((1, 1), (2, 2), (4, 4), (8, 8))
ANALYTIC_MULTIPLIERS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@dataclass
class RunConfig:
    seed: int
    out_dir: Path
    snr_grid: tuple[float, ...]
    z_multipliers: tuple[float, ...]
    pooled: bool
    gan_config: gan.TrainConfig
    detector_config: detectors.DetectorConfig
    analytic_trials: int

    @property
    def data_dir(self) -> Path:
        return self.out_dir / "datasets"

    @property
    def model_dir(self) -> Path:
        return self.out_dir / "models"

    @property
    def report_dir(self) -> Path:
        return self.out_dir / "reports"


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse 'a:b:step' of finite reals into the inclusive grid a + i*step,
    i = 0, 1, ... up to b (1e-9 of slack), of at most MAX_GRID_POINTS points."""
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text!r}")
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad grid bounds in {text!r}")
    last = (b + 1e-9 - a) / step  # the last point's index, before flooring
    if not last < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"{text!r} has more than {MAX_GRID_POINTS} points")
    try:
        return check_snr_grid(round(a + i * step, 9) for i in range(math.floor(last) + 1))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"the seed must be in [0, 2**64), got {seed}")
    return seed


def _z_tag(mult: float) -> str:
    """The multiplier's name in the hypothesis-test baseline hypothesis-z<tag>."""
    return format(mult, "g")


def parse_multipliers(text: str) -> tuple[float, ...]:
    """Parse a comma list of finite reals >= 0, no two of which share a tag;
    -0 reads as 0, as both name the baseline hypothesis-z0."""
    try:
        mults = tuple(float(v) + 0.0 for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma list of reals, got {text!r}") from exc
    if not all(map(math.isfinite, mults)):
        raise argparse.ArgumentTypeError(f"multipliers must be finite, got {text!r}")
    if min(mults) < 0:
        raise argparse.ArgumentTypeError(f"multipliers must be >= 0, got {text!r}")
    first = {}
    for mult in mults:
        if (tag := _z_tag(mult)) in first:
            raise argparse.ArgumentTypeError(
                f"multipliers {first[tag]!r} and {mult!r} share the tag {tag!r};"
                " multipliers must differ in their first six significant digits"
            )
        first[tag] = mult
    return mults


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=parse_seed, default=7, help="master RNG seed (u64)")
    common.add_argument("--out", type=Path, default=os.environ.get("CSIAUTH_OUT", "runs"),
                        metavar="DIR", help="output directory (default: $CSIAUTH_OUT or ./runs)")
    common.add_argument("--config", type=Path, default=None, metavar="JSON",
                        help="JSON config file of the gan, detectors and analytic_trials settings")
    common.add_argument("--jobs", type=int, choices=(1,), default=1, metavar="N",
                        help="each stage runs on one thread; takes only 1")
    common.add_argument("--pooled", action="store_true",
                        help="train/evaluate one pooled GAN instead of one per SNR")
    common.add_argument("--snr-grid", type=parse_snr_grid, default=datasets.DEFAULT_SNR_GRID,
                        metavar="A:B:STEP", help="SNR grid in dB (default 0:30:2)")
    common.add_argument("--z-mult", type=parse_multipliers, default=(1.0, 3.0, 5.0, 6.0),
                        metavar="LIST",
                        help="threshold multipliers for the hypothesis-test baselines")
    parser = argparse.ArgumentParser(
        prog="csiauth",
        description="CSI-based physical-layer authentication workbench",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen", parents=[common], help="generate all datasets")
    p.set_defaults(func=cmd_gen)
    p = sub.add_parser("train", parents=[common], help="train GAN discriminators")
    p.set_defaults(func=cmd_train)
    p = sub.add_parser("fit-detector", parents=[common], help="fit a one-class detector")
    p.add_argument("--algo", required=True, choices=("lof", "iforest", "ocsvm"))
    p.set_defaults(func=cmd_fit_detector)
    p = sub.add_parser("eval", parents=[common], help="evaluate all methods on both test sets")
    p.set_defaults(func=cmd_eval)
    p = sub.add_parser("analytic", parents=[common], help="accidental-authentication sweep CSV")
    p.set_defaults(func=cmd_analytic)
    p = sub.add_parser("report", parents=[common], help="regenerate reports from saved confusions")
    p.set_defaults(func=cmd_report)
    return parser


# Each key of a config file, for the settings no flag sets, and the kind of
# its value: an integer, or an object of the fields of a dataclass.
CONFIG_KEYS = {"gan": gan.TrainConfig, "detectors": detectors.DetectorConfig, "analytic_trials": int}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The flags, and the --config file over its settings' defaults; an error
    in the file raises ValueError naming it."""
    try:
        file_cfg = {} if args.config is None else json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise ValueError("expected a JSON object")
        file_cfg = {key: _config_value(key, value) for key, value in file_cfg.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.config}: {exc}") from exc
    return RunConfig(
        seed=args.seed,
        out_dir=args.out,
        snr_grid=args.snr_grid,
        z_multipliers=args.z_mult,
        pooled=args.pooled,
        gan_config=file_cfg.get("gan", gan.TrainConfig()),
        detector_config=file_cfg.get("detectors", detectors.DetectorConfig()),
        analytic_trials=file_cfg.get("analytic_trials", 50),
    )


def _config_value(key: str, value):
    """A config file's value of `key`, checked against its kind in CONFIG_KEYS;
    an unknown key is an error, as a misspelt one would otherwise do nothing."""
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown key {key!r}")
    kind = CONFIG_KEYS[key]
    if kind is int:
        return number(value, int, f'"{key}"')
    if not isinstance(value, dict):
        raise ValueError(f'"{key}" must be a JSON object')
    return kind(**typed_fields(kind, value, f' under "{key}"'))


# ---------------------------------------------------------------------------
# Stages

def cmd_gen(cfg: RunConfig) -> int:
    rng = RngStream(cfg.seed)
    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    master = datasets.build_master(rng, snr_grid=cfg.snr_grid)
    train, test = datasets.split_train_test(master)
    accidental = datasets.build_accidental(test, rng)
    nefarious = datasets.build_nefarious(test, datasets.default_nefarious_offsets(), rng)
    built = {
        "master": master,
        "train": train,
        "test": test,
        "test_accidental": accidental,
        "test_nefarious": nefarious,
    }
    # The splits and attack sets repeat master's rows; one memo formats each once.
    memo = {}
    for name, ds in built.items():
        path = cfg.data_dir / f"{name}.csv"
        datasets.write_dataset(path, ds, memo)
        print(f"wrote {path} ({len(ds)} samples)")
    return 0


def _load_train(cfg: RunConfig) -> datasets.Dataset:
    path = _require(cfg.data_dir / "train.csv", "csiauth gen")
    train = datasets.read_dataset(path)
    if not train.legit.all():
        raise ValueError(f"{path}: training data must contain only legitimate samples")
    return train


def cmd_train(cfg: RunConfig) -> int:
    train_ds = _load_train(cfg)
    cfg.model_dir.mkdir(parents=True, exist_ok=True)
    rng = RngStream(cfg.seed)
    if cfg.pooled:
        slices = {"gan_pooled": (train_ds.x, rng.substream("gan-train", "pooled"))}
    else:
        slices = {
            f"gan_snr{snr_tag(snr)}": (train_ds.x[train_ds.snr == snr], rng.substream("gan-train", snr))
            for snr in train_ds.manifest.snr_grid
        }
    # every GAN is trained before any file is written, so a failing fit writes none
    trained = {name: gan.train_gan(x, cfg.gan_config, stream) for name, (x, stream) in slices.items()}
    for name, (disc, report) in trained.items():
        ckpt = cfg.model_dir / f"{name}.json"
        neuralnet.save_checkpoint(disc, ckpt)
        gan.write_report_csv(report, cfg.model_dir / f"{name}_train_report.csv")
        print(f"wrote {ckpt} (epochs={report.epochs_run})")
    return 0


def cmd_fit_detector(cfg: RunConfig, algo: str) -> int:
    train_ds = _load_train(cfg)
    cfg.model_dir.mkdir(parents=True, exist_ok=True)
    dc = cfg.detector_config
    rng = RngStream(cfg.seed)
    grid = train_ds.manifest.snr_grid
    slices = [train_ds.x[train_ds.snr == snr] for snr in grid]

    # every model is fitted before any file is written, so a failing fit writes none
    if algo == "iforest":
        # Every slice's trees grow in one lockstep.
        models = detectors.iforest_fit_slices(
            [(x, min(dc.iforest_subsample, x.shape[0]), rng.substream("iforest", snr))
             for snr, x in zip(grid, slices)],
            n_trees=dc.iforest_trees, threshold=dc.iforest_threshold,
        )
    elif algo == "lof":
        models = [detectors.lof_fit(x, k=dc.lof_k, threshold=dc.lof_threshold) for x in slices]
    else:
        models = [detectors.ocsvm_fit(x, nu=dc.ocsvm_nu, gamma=dc.ocsvm_gamma) for x in slices]
    for snr, model in zip(grid, models):
        path = cfg.model_dir / f"{algo}_snr{snr_tag(snr)}.json"
        detectors.save_model(model, path)
        print(f"wrote {path}")
    return 0


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing {path}; run `{hint}` first")
    return path


def cmd_eval(cfg: RunConfig) -> int:
    test_sets = {}
    for name in ("test_accidental", "test_nefarious"):
        path = _require(cfg.data_dir / f"{name}.csv", "csiauth gen")
        test_sets[name.removeprefix("test_")] = datasets.read_dataset(path)
    grid = test_sets["accidental"].manifest.snr_grid
    if test_sets["nefarious"].manifest.snr_grid != grid:
        raise ValueError("test_accidental and test_nefarious have different SNR grids")

    def per_snr(name, load, hint):
        paths = {snr: cfg.model_dir / f"{name}_snr{snr_tag(snr)}.json" for snr in grid}
        return {snr: authenticator(load(_require(path, hint))) for snr, path in paths.items()}

    # method -> {SNR: Authenticator}
    if cfg.pooled:
        ckpt = _require(cfg.model_dir / "gan_pooled.json", "csiauth train --pooled")
        table = {"gan": dict.fromkeys(grid, authenticator(neuralnet.load_checkpoint(ckpt)))}
    else:
        table = {"gan": per_snr("gan", neuralnet.load_checkpoint, "csiauth train")}
    for algo in ("lof", "iforest", "ocsvm"):
        table[algo] = per_snr(algo, detectors.load_model, f"csiauth fit-detector --algo {algo}")
    h_true = test_sets["accidental"].manifest.h_true
    for mult in cfg.z_multipliers:
        table[f"hypothesis-z{_z_tag(mult)}"] = {
            snr: hypothesis_authenticator(h_true, Threshold.from_sigma2(mult, NoiseModel(snr).sigma2))
            for snr in grid
        }

    for ds_name, matrices in evaluate_sets(table, test_sets, grid).items():
        out = cfg.report_dir / ds_name
        written = emit_report(matrices, out)
        print(f"wrote {len(written)} report files under {out}")
    return 0


def cmd_analytic(cfg: RunConfig) -> int:
    rng = RngStream(cfg.seed).substream("analytic")
    rows = analytic.sweep_auth_probability(
        list(ANALYTIC_CONFIGS), list(ANALYTIC_MULTIPLIERS), cfg.analytic_trials, rng
    )
    out = cfg.out_dir / "analytic"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "auth_probability_sweep.csv"
    analytic.write_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    regenerated = 0
    if not cfg.report_dir.exists():
        raise FileNotFoundError(f"missing {cfg.report_dir}; run `csiauth eval` first")
    for ds_dir in sorted(p for p in cfg.report_dir.iterdir() if p.is_dir()):
        matrices = load_confusions(ds_dir)
        if not matrices:
            continue
        emit_report(matrices, ds_dir)
        regenerated += 1
        print(f"regenerated reports under {ds_dir}")
    if not regenerated:
        raise FileNotFoundError(f"no confusion files under {cfg.report_dir}; run `csiauth eval` first")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 2
    try:
        cfg = resolve_config(args)
        if args.func is cmd_fit_detector:
            return cmd_fit_detector(cfg, args.algo)
        return args.func(cfg)
    # FileNotFoundError and DatasetFormatError among them; ConvergenceError
    # when an OC-SVM fit reaches its iteration cap
    except (OSError, ValueError, detectors.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
