import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from csiauth import cli
from csiauth.cli import build_parser, main, parse_snr_grid, resolve_config
from csiauth.datasets import check_snr_grid, read_dataset, write_dataset
from csiauth.detectors import DetectorConfig
from csiauth.gan import TrainConfig


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def fast_config(tmp_path):
    """Short training so pipeline commands stay quick; gen takes the small
    grid from GRID."""
    cfg = {
        "gan": {"max_epochs": 2},
        "detectors": {"iforest_trees": 20, "iforest_subsample": 64},
        "analytic_trials": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


GRID = ("--snr-grid", "0:8:4")


def test_parse_snr_grid():
    assert parse_snr_grid("0:30:2") == tuple(float(s) for s in range(0, 31, 2))
    assert parse_snr_grid("0:8:4") == (0.0, 4.0, 8.0)
    with pytest.raises(Exception):
        parse_snr_grid("5:1:2")
    with pytest.raises(Exception):
        parse_snr_grid("nope")


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds` of wall time, so that
    a parse that loops forever fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def accumulated_grid(a, b, step):
    """The grid as it was once built, by adding step to a running value."""
    grid, v = [], a
    while v <= b + 1e-9:
        grid.append(round(v, 9))
        v += step
    return tuple(grid)


@pytest.mark.parametrize(
    "text", ["0:30:2", "0:30:30", "0:8:4", "0:1:0.1", "-3.5:7:0.25", "2:2:1", "0:999:1"]
)
def test_snr_grid_points_are_those_of_the_running_sum(text):
    with deadline(5):
        grid = parse_snr_grid(text)
    assert grid == accumulated_grid(*map(float, text.split(":")))
    assert parse_snr_grid("0:30:30") == (0.0, 30.0)


@pytest.mark.parametrize(
    "text,message",
    [
        ("0:inf:2", "must be finite"), ("0:nan:2", "must be finite"),
        ("nan:30:2", "must be finite"), ("0:30:inf", "must be finite"),
        ("-inf:0:1", "must be finite"), ("1e20:1e20:1", None),
        ("0:1000:1", "more than 1000 points"), ("0:1e308:1e-300", "more than 1000 points"),
        ("-1e308:1e308:1", "more than 1000 points"), ("5:5:5e-324", "more than 1000 points"),
        ("0:30:0", "bad grid bounds"), ("0:30:-2", "bad grid bounds"),
    ],
)
def test_snr_grid_rejects_what_cannot_be_a_finite_grid(text, message):
    # the grid used to be built by `v += step` until v > b: unbounded for
    # b = inf, stuck where step is below v's spacing, and empty for NaN
    with deadline(5):
        if message is None:
            assert parse_snr_grid(text) == (1e20,)
            return
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            parse_snr_grid(text)


@pytest.mark.parametrize("flag,value", [("--snr-grid", "0:inf:2"), ("--z-mult", "nan,inf"),
                                        ("--z-mult", "1,inf")])
def test_non_finite_flags_are_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gen", flag, value])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_output_path_that_is_a_file_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli("gen", "--snr-grid", "0:0:1", "--out", blocker) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker) in err


FLAGS = ("--seed", "--out", "--config", "--jobs", "--pooled", "--snr-grid", "--z-mult")


def test_help_documents_global_flags(capsys):
    # the top level lists the commands; each command documents every flag
    commands = ("gen", "train", "fit-detector", "eval", "analytic", "report")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    text = capsys.readouterr().out
    for command in commands:
        assert command in text
    assert not any(flag in text for flag in FLAGS)
    for command in commands:
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in FLAGS:
            assert flag in text, (command, flag)


def test_subcommand_help_has_global_flags(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gen", "--help"])
    text = capsys.readouterr().out
    for flag in FLAGS:
        assert flag in text


@pytest.mark.parametrize("argv", [["--seed", "3", "gen"], ["--out", "x", "gen"], ["--pooled", "train"]])
def test_flags_before_the_subcommand_are_a_usage_error(capsys, argv):
    # they parsed, and the subcommand's defaults overwrote them: `--out x
    # --seed 3 gen` wrote ./runs with seed 7
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: csiauth [-h] COMMAND ...\n")


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seed", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("--seed", "7.9", "invalid literal for int() with base 10: '7.9'"),
        ("--seed", "true", "invalid literal for int() with base 10: 'true'"),
        ("--seed", "nan", "invalid literal for int() with base 10: 'nan'"),
        ("--seed", "inf", "invalid literal for int() with base 10: 'inf'"),
        ("--seed", "1e3", "invalid literal for int() with base 10: '1e3'"),
        ("--jobs", "two", "invalid int value: 'two'"),
        ("--jobs", "2.5", "invalid int value: '2.5'"),
        ("--jobs", "true", "invalid int value: 'true'"),
        ("--jobs", "nan", "invalid int value: 'nan'"),
        ("--jobs", "inf", "invalid int value: 'inf'"),
        ("--snr-grid", "nope", "expected a:b:step, got 'nope'"),
        ("--z-mult", "1,x", "expected a comma list of reals, got '1,x'"),
    ],
    ids=["seed-text", "seed-fraction", "seed-bool", "seed-nan", "seed-inf", "seed-exponent",
         "jobs-text", "jobs-fraction", "jobs-bool", "jobs-nan", "jobs-inf", "snr-grid-text",
         "z-mult-text"],
)
def test_flag_value_error_names_the_flag(capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gen", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument {flag}: {message}\n")


@pytest.mark.parametrize(
    "value,message",
    [
        ("-1", "multipliers must be >= 0, got '-1'"),
        ("3,-0.5", "multipliers must be >= 0, got '3,-0.5'"),
        ("1,1.0000001,3", "multipliers 1.0 and 1.0000001 share the tag '1'"),
        ("3,1,3", "multipliers 3.0 and 3.0 share the tag '3'"),
        ("0,-0", "multipliers 0.0 and 0.0 share the tag '0'"),
    ],
    ids=["negative", "negative-later", "same-tag", "repeated", "signed-zero"],
)
def test_z_mult_rejects_negative_and_same_named_multipliers(tmp_path, capsys, value, message):
    # eval names each baseline hypothesis-z<format(m, "g")>: 1 and 1.0000001
    # gave one z1 report holding the second's result, and -1 stopped eval
    # after it had loaded every model, naming no flag
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", f"--z-mult={value}", "--out", tmp_path / "run")
    assert exc.value.code == 2
    assert f"argument --z-mult: {message}" in capsys.readouterr().err
    assert build_parser().parse_args(["eval", "--z-mult", "0,1,1.00001"]).z_mult == (0, 1, 1.00001)


@pytest.mark.parametrize(
    "key,value",
    [("seed", 3), ("out", "elsewhere"), ("jobs", 1), ("pooled", False), ("snr_grid", "0:0:1"),
     ("z_mult", "1")],
)
def test_removed_config_keys_are_unknown(tmp_path, capsys, monkeypatch, key, value):
    # each is a flag's setting, and flags alone set them now
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    assert run_cli("gen", "--snr-grid", "0:0:1", "--config", path, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"error: {path}: unknown key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_config_precedence(tmp_path):
    # the file sets what no flag sets, over its defaults; flags over theirs
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"analytic_trials": 3}))
    parser = build_parser()
    rc = resolve_config(parser.parse_args(["gen", "--config", str(cfg_path), "--seed", "99"]))
    assert (rc.seed, rc.analytic_trials) == (99, 3)
    rc = resolve_config(parser.parse_args(["gen"]))
    assert (rc.seed, rc.analytic_trials) == (7, 50)


def test_missing_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("gen", "--config", missing, "--out", tmp_path / "run") == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ['{"seed": 3,', "[3]"], ids=["truncated", "not-an-object"])
def test_malformed_config_file_errors(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli("gen", "--config", bad, "--out", tmp_path / "run") == 1
    assert f"error: {bad}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section,key,command",
    [("gan", "epochs", ["train"]), ("detectors", "lof_kk", ["fit-detector", "--algo", "lof"])],
    ids=["gan", "detectors"],
)
def test_unknown_config_key_errors(tmp_path, capsys, section, key, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: 2}}))
    assert run_cli(*command, "--config", path, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f'error: {path}: unknown key {key!r} under "{section}"\n'
    assert not (tmp_path / "run").exists()


def test_unknown_top_level_config_key_errors(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sed": 3, "analytc_trials": 2}))
    assert run_cli("gen", "--config", path, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"error: {path}: unknown key 'sed'\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "cfg,expected",
    [
        ({"analytic_trials": "abc"}, '"analytic_trials" must be an integer, got "abc"'),
        ({"analytic_trials": None}, '"analytic_trials" must be an integer, got null'),
        ({"gan": [2]}, '"gan" must be a JSON object'),
    ],
    ids=["trials", "trials-null", "gan"],
)
def test_config_value_error_names_file(tmp_path, capsys, cfg, expected):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("analytic", "--config", path, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {expected}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "cfg,key",
    [
        ({"gan": {"max_epochs": 2.5}}, '"max_epochs" under "gan"'),
        ({"gan": {"batch": 64.0}}, '"batch" under "gan"'),
        ({"gan": {"latent_dim": True}}, '"latent_dim" under "gan"'),
        ({"analytic_trials": 4.0}, '"analytic_trials"'),
        ({"analytic_trials": "4"}, '"analytic_trials"'),
        ({"analytic_trials": True}, '"analytic_trials"'),
        ({"analytic_trials": 1.5}, '"analytic_trials"'),
        ({"detectors": {"lof_k": 20.7}}, '"lof_k" under "detectors"'),
        ({"detectors": {"iforest_trees": "100"}}, '"iforest_trees" under "detectors"'),
        ({"detectors": {"iforest_subsample": False}}, '"iforest_subsample" under "detectors"'),
    ],
)
def test_config_integer_key_must_be_a_json_integer(tmp_path, capsys, cfg, key):
    # int() would run trials 1.5 as 1, "4" as 4 and true as 1, and range()
    # would crash on a float epoch count
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    value = next(iter(cfg.values()))
    if isinstance(value, dict):
        value = next(iter(value.values()))
    assert run_cli("train", "--config", path, "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == (
        f"error: {path}: {key} must be an integer, got {json.dumps(value)}\n"
    )
    assert not (tmp_path / "run").exists()


def test_config_integer_keys_accept_json_integers(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "analytic_trials": 4,
        "gan": {"max_epochs": 2, "batch": 32, "latent_dim": 5},
        "detectors": {"lof_k": 10, "iforest_trees": 20, "iforest_subsample": 64},
    }))
    rc = resolve_config(build_parser().parse_args(["train", "--config", str(path)]))
    assert rc.analytic_trials == 4
    gc, dc = rc.gan_config, rc.detector_config
    assert (gc.max_epochs, gc.batch, gc.latent_dim) == (2, 32, 5)
    assert (dc.lof_k, dc.iforest_trees, dc.iforest_subsample) == (10, 20, 64)


# Every number a config file may hold: (section, key, kind), the kind as the
# annotation text. Each section's keys are the fields of its dataclass.
CONFIG_NUMBERS = [
    ("", "analytic_trials", "int"),
    *(("gan", f.name, f.type) for f in fields(TrainConfig)),
    *(("detectors", f.name, f.type) for f in fields(DetectorConfig)),
]
NOT_INTEGERS = {"string": "20", "bool": True, "nan": float("nan"), "inf": float("inf"),
                "fraction": 20.7}
NOT_REALS = {"string": "0.5", "bool": False, "nan": float("nan"), "-inf": float("-inf")}


@pytest.mark.parametrize(
    "section,key,what,value",
    [
        pytest.param(section, key, what, value, id=f"{key}-{case}")
        for section, key, kind in CONFIG_NUMBERS
        for what, bad in [("an integer", NOT_INTEGERS) if kind == "int"
                          else ("a finite number", NOT_REALS)]
        for case, value in bad.items()
    ],
)
def test_config_number_keys_reject_what_is_not_that_number(
    tmp_path, capsys, section, key, what, value
):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}} if section else {key: value}))
    assert run_cli("train", "--config", path, "--out", tmp_path / "run") == 1
    where = f' under "{section}"' if section else ""
    assert capsys.readouterr().err == (
        f'error: {path}: "{key}"{where} must be {what}, got {json.dumps(value)}\n'
    )
    assert not (tmp_path / "run").exists()


SHARED_TAG = ("grid points 1.0 and 1.000001 share the tag '1';"
              " points must differ in their first six significant digits")


def test_snr_grid_flag_rejects_points_that_share_a_tag(tmp_path, capsys):
    # the four points were one "1" key of the manifest counts, and `train`
    # then stopped with "sample counts disagree with manifest", naming no file
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--snr-grid", "1:1.000003:0.000001", "--out", tmp_path / "run")
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument --snr-grid: {SHARED_TAG}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "change,expected",
    [(lambda grid: grid[::-1], "grid points must increase strictly, got 8 then 4"),
     (lambda grid: [0.0, *grid], "grid points must increase strictly, got 0 then 0")],
    ids=["reversed", "repeated"],
)
def test_eval_rejects_a_manifest_grid_that_is_not_a_grid(tmp_path, fast_config, capsys, change,
                                                         expected):
    # a reversed grid made eval write its reports from 8 dB down to 0, and a
    # repeated point two "gan,0" rows
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    path = out / "datasets" / "test_accidental.manifest.json"
    doc = json.loads(path.read_text())
    doc["snr_grid"] = change(doc["snr_grid"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--config", fast_config, "--out", out) == 1
    assert capsys.readouterr().err == f"error: malformed manifest {path}: {expected}\n"
    assert not (out / "reports").exists()


def test_snr_grid_text_goes_through_the_grid_check():
    # step is far below the 1e-9 the points are rounded to, so they repeat
    with pytest.raises(argparse.ArgumentTypeError, match="increase strictly, got 0 then 0"):
        parse_snr_grid("0:1e-10:1e-11")
    assert check_snr_grid([0, 2.5, 1000]) == (0.0, 2.5, 1000.0)
    # points apart in the sixth significant digit keep their own tags
    assert check_snr_grid([1, 1.00001]) == (1.0, 1.00001)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_is_an_error_naming_its_source(capsys, seed):
    # numpy stopped it with "expected non-negative integer", naming no flag
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gen", "--seed", str(seed)])
    assert exc.value.code == 2
    assert f"argument --seed: the seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_seed_range_ends_are_accepted():
    for seed in (0, 2**64 - 1):
        assert resolve_config(build_parser().parse_args(["gen", "--seed", str(seed)])).seed == seed


def test_config_sections_are_typed_objects(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "gan": {"lr_d": 1, "lr_g": 0.002},
        "detectors": {"lof_threshold": 2, "ocsvm_nu": 0.1, "ocsvm_gamma": None},
    }))
    rc = resolve_config(build_parser().parse_args(["train", "--config", str(path)]))
    assert rc.gan_config == TrainConfig(lr_d=1.0, lr_g=0.002)
    assert rc.detector_config == DetectorConfig(lof_threshold=2.0, ocsvm_nu=0.1)
    # a JSON integer given for a real key is stored as the float fits and files use
    assert type(rc.gan_config.lr_d) is type(rc.detector_config.lof_threshold) is float
    defaults = resolve_config(build_parser().parse_args(["train"]))
    assert defaults.gan_config == TrainConfig() and defaults.detector_config == DetectorConfig()


def test_out_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CSIAUTH_OUT", str(tmp_path / "envout"))
    args = build_parser().parse_args(["analytic"])
    assert resolve_config(args).out_dir == tmp_path / "envout"


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().out


def test_gen_writes_and_validates(tmp_path, fast_config):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out, "--seed", "5") == 0
    for name in ("master", "train", "test", "test_accidental", "test_nefarious"):
        assert (out / "datasets" / f"{name}.csv").exists()
        manifest = json.loads((out / "datasets" / f"{name}.manifest.json").read_text())
        expected = sum(n for per_snr in manifest["counts"].values() for n in per_snr.values())
        assert len(read_dataset(out / "datasets" / f"{name}.csv")) == expected > 0
    doc = json.loads((out / "datasets" / "master.manifest.json").read_text())
    assert doc["seed"] == 5
    assert doc["counts"]["0"]["legitimate"] == 1000


def test_gen_is_deterministic(tmp_path, fast_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", a, "--seed", "5") == 0
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", b, "--seed", "5") == 0
    for f in sorted((a / "datasets").iterdir()):
        assert f.read_bytes() == (b / "datasets" / f.name).read_bytes()


def test_train_and_eval_pipeline(tmp_path, fast_config, capsys):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0

    # eval without models fails, naming what to run
    assert run_cli("eval", "--config", fast_config, "--out", out) == 1
    err = capsys.readouterr().err
    assert "csiauth train" in err

    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    ckpts = sorted((out / "models").glob("gan_snr*.json"))
    reports = sorted((out / "models").glob("gan_snr*_train_report.csv"))
    assert len(ckpts) == 3 and len(reports) == 3

    assert run_cli("eval", "--config", fast_config, "--out", out) == 1
    err = capsys.readouterr().err
    assert "fit-detector" in err

    for algo in ("lof", "iforest", "ocsvm"):
        assert run_cli("fit-detector", "--algo", algo, "--config", fast_config, "--out", out) == 0
        assert len(list((out / "models").glob(f"{algo}_snr*.json"))) == 3

    assert run_cli("eval", "--config", fast_config, "--out", out) == 0
    for ds in ("accidental", "nefarious"):
        acc_csv = out / "reports" / ds / "accuracy.csv"
        lines = acc_csv.read_text().splitlines()
        methods = {ln.split(",")[0] for ln in lines[1:]}
        assert methods == {
            "gan", "lof", "iforest", "ocsvm",
            "hypothesis-z1", "hypothesis-z3", "hypothesis-z5", "hypothesis-z6",
        }
        assert len(lines) == 1 + 8 * 3
        assert (out / "reports" / ds / "accuracy.svg").exists()

    # report regenerates every file eval wrote, byte for byte, from the confusions
    def report_files():
        return {p: p.read_bytes() for p in sorted((out / "reports").rglob("*")) if p.is_file()}

    before = report_files()
    assert len(before) == 2 * (2 + 8 * 3)
    for path in before:
        if not path.name.startswith("confusion_"):
            path.unlink()
    assert run_cli("report", "--config", fast_config, "--out", out) == 0
    assert report_files() == before


@pytest.mark.parametrize("name,key", [("lof_snr0", "payload"), ("gan_snr0", "layers")])
def test_eval_with_malformed_model_file_errors(tmp_path, fast_config, capsys, name, key):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    assert run_cli("fit-detector", "--algo", "lof", "--config", fast_config, "--out", out) == 0
    path = out / "models" / f"{name}.json"
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--config", fast_config, "--out", out) == 1
    assert f"error: {path}: missing key '{key}'" in capsys.readouterr().err


def test_eval_with_infinite_lof_k_is_one_error_line(tmp_path, fast_config, capsys):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    for algo in ("lof", "iforest", "ocsvm"):
        assert run_cli("fit-detector", "--algo", algo, "--config", fast_config, "--out", out) == 0
    path = out / "models" / "lof_snr4.json"
    doc = json.loads(path.read_text())
    doc["hyperparameters"]["k"] = float("inf")  # int() would raise OverflowError
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--config", fast_config, "--out", out) == 1
    assert capsys.readouterr().err == f'error: {path}: "k" must be an integer, got Infinity\n'


def test_eval_with_top_level_array_model_file_errors(tmp_path, fast_config, capsys):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    assert run_cli("train", "--config", fast_config, "--out", out) == 0
    for algo in ("lof", "iforest", "ocsvm"):
        assert run_cli("fit-detector", "--algo", algo, "--config", fast_config, "--out", out) == 0
    for name in ("gan_snr4", "lof_snr4"):
        path = out / "models" / f"{name}.json"
        text = path.read_text()
        path.write_text("[1, 2]")
        capsys.readouterr()
        assert run_cli("eval", "--config", fast_config, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"
        path.write_text(text)


def test_train_pooled_single_checkpoint(tmp_path, fast_config, capsys):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    assert run_cli("train", "--pooled", "--config", fast_config, "--out", out) == 0
    assert (out / "models" / "gan_pooled.json").exists()
    assert len(list((out / "models").glob("gan_pooled*.json"))) == 1
    assert not list((out / "models").glob("gan_snr*.json"))

    for algo in ("lof", "iforest", "ocsvm"):
        assert run_cli("fit-detector", "--algo", algo, "--config", fast_config, "--out", out) == 0
    assert run_cli("eval", "--pooled", "--config", fast_config, "--out", out) == 0
    for ds in ("accidental", "nefarious"):
        test_set = read_dataset(out / "datasets" / f"test_{ds}.csv")
        for snr in (0, 4, 8):
            doc = json.loads((out / "reports" / ds / f"confusion_gan_{snr}.json").read_text())
            counts = [doc[k] for k in ("real_real", "real_fake", "fake_real", "fake_fake")]
            assert sum(counts) == (test_set.snr == snr).sum() > 0

    (out / "models" / "gan_pooled.json").unlink()
    capsys.readouterr()
    assert run_cli("eval", "--pooled", "--config", fast_config, "--out", out) == 1
    assert "run `csiauth train --pooled` first" in capsys.readouterr().err


def test_train_refuses_to_save_a_diverged_network(tmp_path, fast_config, capsys, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    train_gan = cli.gan.train_gan

    def diverged(rows, tc, stream):
        disc, report = train_gan(rows, tc, stream)
        disc.params[7] = float("nan")
        return disc, report

    monkeypatch.setattr(cli.gan, "train_gan", diverged)
    capsys.readouterr()
    assert run_cli("train", "--pooled", "--config", fast_config, "--out", out) == 1
    path = out / "models" / "gan_pooled.json"
    assert capsys.readouterr().err == (
        f"error: {path}: layer 0 has a non-finite weight or bias; not saved\n"
    )
    assert not path.exists()


@pytest.mark.parametrize("algo", ["lof", "iforest", "ocsvm"])
def test_train_file_with_illegitimate_rows_rejected(tmp_path, fast_config, capsys, algo):
    out = tmp_path / "run"
    assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
    data = out / "datasets"
    write_dataset(data / "train.csv", read_dataset(data / "test_accidental.csv"))
    assert run_cli("fit-detector", "--algo", algo, "--config", fast_config, "--out", out) == 1
    assert "only legitimate samples" in capsys.readouterr().err
    assert not list((out / "models").glob(f"{algo}_snr*.json"))


def test_train_missing_dataset_errors(tmp_path, capsys):
    assert run_cli("train", "--out", tmp_path / "nowhere") == 1
    assert "csiauth gen" in capsys.readouterr().err


def test_report_without_eval_errors(tmp_path, capsys):
    assert run_cli("report", "--out", tmp_path / "empty") == 1
    assert "csiauth eval" in capsys.readouterr().err


def test_analytic_sweep_csv(tmp_path, fast_config):
    out = tmp_path / "run"
    assert run_cli("analytic", "--config", fast_config, "--out", out, "--seed", "3") == 0
    path = out / "analytic" / "auth_probability_sweep.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "n_rx,m_tx,multiplier,probability"
    assert len(lines) == 1 + 4 * 6  # configs x multipliers
    values = {}
    for ln in lines[1:]:
        n, m, mult, p = ln.split(",")
        values[(int(n), float(mult))] = float(p)
    for mult in (1.0, 2.0, 3.0):
        assert values[(1, mult)] > values[(2, mult)] > values[(4, mult)] > values[(8, mult)]


def test_analytic_runs_without_scipy(tmp_path, fast_config):
    # numpy is the only runtime dependency (pyproject.toml); scipy is test-only
    code = (
        "import sys, csiauth\n"
        "from csiauth.cli import main\n"
        "assert main(['analytic', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(fast_config), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


PIPELINE = (
    ("gen", *GRID), ("train",), ("fit-detector", "--algo", "lof"),
    ("fit-detector", "--algo", "iforest"), ("fit-detector", "--algo", "ocsvm"), ("eval",),
)


def test_pipeline_in_one_process_parses_no_dataset(tmp_path, fast_config, monkeypatch):
    # gen's files are remembered, so train, the fits and eval read them unparsed
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    for stage in PIPELINE:
        assert run_cli(*stage, "--config", fast_config, "--out", tmp_path / "run") == 0
    assert calls == []


def test_eval_replaces_the_confusion_files_of_an_earlier_eval(tmp_path, fast_config):
    # report read back the z3, z5 and z6 files that only the first eval wrote
    out = tmp_path / "run"
    for stage in PIPELINE:
        assert run_cli(*stage, "--config", fast_config, "--out", out) == 0
    assert run_cli("eval", "--z-mult", "1", "--config", fast_config, "--out", out) == 0
    sets = [out / "reports" / ds for ds in ("accidental", "nefarious")]
    evaluated = [(ds / "accuracy.csv").read_bytes() for ds in sets]
    assert run_cli("report", "--config", fast_config, "--out", out) == 0
    assert [(ds / "accuracy.csv").read_bytes() for ds in sets] == evaluated
    methods = {line.split(",")[0] for line in evaluated[0].decode().splitlines()[1:]}
    assert methods == {"gan", "lof", "iforest", "ocsvm", "hypothesis-z1"}
    for ds in sets:
        assert len(list(ds.glob("confusion_*.json"))) == 5 * 3


def test_pipeline_writes_the_same_bytes_in_one_process_and_in_one_per_stage(tmp_path, fast_config):
    # a stage in its own process parses every file it reads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    one, many = tmp_path / "one", tmp_path / "many"
    for stage in (*PIPELINE, ("report",), ("analytic",)):
        args = [*stage, "--config", str(fast_config)]
        assert run_cli(*args, "--out", one) == 0
        done = subprocess.run(
            [sys.executable, "-m", "csiauth.cli", *args, "--out", str(many)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    files = tree(one)
    assert len(files) > 50 and files == tree(many)


def test_jobs_flag_gives_same_results(tmp_path, fast_config):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, jobs in ((a, "1"), (b, "4")):
        assert run_cli("gen", *GRID, "--config", fast_config, "--out", out) == 0
        assert run_cli("train", "--config", fast_config, "--out", out, "--jobs", jobs) == 0
    for f in sorted((a / "models").glob("*.json")):
        assert f.read_bytes() == (b / "models" / f.name).read_bytes()
