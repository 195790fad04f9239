#!/usr/bin/env python3
"""Benchmark of csiauth through its CLI: three closed-loop workloads.

Run from the repository root:

    python3 benchmark/run.py --workload reproduce --seed 7 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 7        # every workload, each in a fresh process

A workload drives csiauth only through `csiauth.cli.main`, in process, one
caller, `--jobs 1`, with its outputs in a temporary directory under
`.bench_work/`. It sets up (the stages its loop needs, several times, in
fresh directories), then repeats its loop for `--seconds`, starting each
operation only when the previous one has finished. An operation is one pass
of the loop: the whole pipeline for `reproduce`, one CLI stage otherwise.
Every operation's outputs must be byte-identical to the first one's, and
the outputs of every stage that ran are checked (benchmark/checks.py).

With `--trace 0` the last stdout line reports the end-to-end metrics. With `--trace 1` it reports per-layer metrics:
odd-numbered operations run with the tracer installed (benchmark/tracing.py),
even-numbered ones without it, giving per-stage times and the tracing
overhead. The lines before it are a readable table and one JSON line of
information: the machine, failures, the sweep's error against its oracle and
the accuracy curves (recorded, not gated). The exit code is 0 only if every
operation and every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Scale: the paper pipeline on the two ends of its 0..30 dB grid, with fewer
# GAN epochs and sweep trials, so that several passes fit in one run. The
# analytic sweep stays the largest stage, about a third of a pass.
SNR_GRID = "0:30:30"
GAN_EPOCHS = 10
ANALYTIC_TRIALS = 2
SETUP_REPEATS = 3
# One BLAS thread: with two, an operation's wall time depends on whether the
# machine's other vCPU is free (eval's spread across runs was 0.21 with two
# threads against 0.04 for its CPU time). Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STAGES = {
    "gen": ("gen",),
    "train": ("train",),
    "fit-lof": ("fit-detector", "--algo", "lof"),
    "fit-iforest": ("fit-detector", "--algo", "iforest"),
    "fit-ocsvm": ("fit-detector", "--algo", "ocsvm"),
    "eval": ("eval",),
    "report": ("report",),
    "analytic": ("analytic",),
}
PIPELINE = tuple(STAGES)
FITS = ("fit-lof", "fit-iforest", "fit-ocsvm")


@dataclass(frozen=True)
class Workload:
    setup: tuple[str, ...]
    loop: tuple[str, ...]
    gan_epochs: int = GAN_EPOCHS
    pooled: bool = False


WORKLOADS = {
    # What users run, gen to analytic; the only loop where the analytic sweep
    # and per-SNR GAN training do work. Set-up is warm-up `gen` runs.
    "reproduce": Workload(setup=("gen",), loop=PIPELINE),
    # The decision path: repeated eval passes over both test sets. Analytic
    # and training do no work in the loop. GANs get one epoch in set-up,
    # since inference cost does not depend on the epoch count.
    "authenticate": Workload(setup=("gen", "train") + FITS, loop=("eval",), gan_epochs=1),
    # One GAN over every training sample: the sample-epochs of the per-SNR
    # models in `reproduce`, as a single model, so batching across SNRs
    # cannot help and a slower single-model step shows.
    "train-pooled": Workload(setup=("gen",), loop=("train",), pooled=True),
}

# Every workload reports every end-to-end metric, so these are properties of
# an operation; per-stage times are the `cli.*` per-layer metrics. Wall time
# per operation is reported as information only: it includes the time the
# virtual CPU is descheduled, up to half a second in a one-second operation.
E2E_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}
CLI_UNITS = {
    "cli.gen_s": "s",
    "cli.train_s": "s",
    "cli.fit_s": "s",
    "cli.eval_s": "s",
    "cli.report_s": "s",
    "cli.analytic_s": "s",
    "cli.decisions_per_s": "1/s",
    "cli.train_samples_per_s": "1/s",
}
TRACE_UNITS = {
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_pct": "%",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def costliest(values) -> float:
    """CPU time is reported for the run's most CPU-costly operation. On a
    shared virtual machine speed alternates between a plateau and phases up to
    1.6x faster that last 5 to 60 s; a run's median or quartiles land in
    either, while its costliest operation stays on the plateau (README.md,
    "Statistics")."""
    return float(max(values)) if values else 0.0


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (Linux /proc)."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs CLI stages in process and keeps their timings and failures."""

    def __init__(self, cli, workload: Workload, seed: int, config: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.config = config
        self.executions: Counter = Counter()
        self.failures: list[str] = []
        self.failed = 0

    def fail(self, count: int, message: str) -> None:
        """Record `count` failed stage executions."""
        self.failed += count
        self.failures.append(message)

    def stage(self, name: str, out_dir: Path) -> float | None:
        """Wall seconds of one CLI stage, or None if it failed."""
        argv = [*STAGES[name], "--seed", str(self.seed), "--out", str(out_dir), "--jobs", "1",
                "--snr-grid", SNR_GRID, "--config", str(self.config)]
        if self.workload.pooled and name in ("train", "eval"):
            argv.append("--pooled")
        self.executions[name] += 1
        log = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed stage is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        if code != 0:
            self.fail(1, f"{name}: exit {code}; {log.getvalue()[-400:]!r}")
            return None
        return wall

    def stages(self, names, out_dir: Path) -> dict[str, float] | None:
        """Wall seconds of each stage run in order, or None at the first failure."""
        walls = {}
        for name in names:
            wall = self.stage(name, out_dir)
            if wall is None:
                return None
            walls[name] = wall
        return walls


def output_checks(run_dir: Path, workload: Workload, seed: int, ran) -> tuple[dict[str, list[str]], float | None]:
    """(failure messages by the stage whose output failed, the sweep's worst
    relative error against the ncx2 oracle), for the stages in `ran`."""
    import checks

    sweep_error = None

    def sweep():
        nonlocal sweep_error
        errors, sweep_error = checks.check_sweep(run_dir, seed, ANALYTIC_TRIALS)
        return errors

    found = {
        "gen": lambda: checks.check_datasets(run_dir),
        "train": lambda: checks.check_models(run_dir, workload.pooled, workload.gan_epochs),
        "eval": lambda: checks.check_eval(run_dir),
        "report": lambda: checks.check_report(run_dir),
        "analytic": sweep,
    }
    for fit in FITS:
        found[fit] = lambda algo=fit.removeprefix("fit-"): checks.check_detectors(run_dir, algo)
    out = {}
    for stage, check in found.items():
        if stage not in ran:
            continue
        try:
            errors = check()
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if errors:
            out[stage] = errors
    return out, sweep_error


def work_counts(run_dir: Path) -> tuple[int, int]:
    """(decisions per eval pass, training sample-epochs per train stage), 0 where
    the run has no such output."""
    import checks

    def rows(name):
        counts = checks.load_dataset(run_dir, name)[0]["counts"]
        return sum(n for by_label in counts.values() for n in by_label.values())

    methods = {m for m, _ in checks.load_confusions(run_dir, checks.TEST_SETS[0])}
    decisions = sum(rows(f"test_{t}") for t in checks.TEST_SETS) * len(methods)
    report = next((run_dir / "models").glob("*_train_report.csv"), None)
    epochs = len(report.read_text().splitlines()) - 1 if report else 0
    return decisions, rows("train") * epochs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, information)."""
    from csiauth import cli
    from tracing import LAYER_UNITS, Tracer

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        config = work / "config.json"
        config.write_text(json.dumps({"gan": {"max_epochs": workload.gan_epochs},
                                      "analytic_trials": ANALYTIC_TRIALS}))
        runner = Runner(cli, workload, seed, config)

        setup_times = []
        for r in range(SETUP_REPEATS):
            run_dir = work / f"setup{r}"
            t0 = perf_counter()
            ok = runner.stages(workload.setup, run_dir) is not None
            setup_times.append(perf_counter() - t0)
            if not ok:
                break
            if r + 1 < SETUP_REPEATS:
                shutil.rmtree(run_dir)

        # A loop that starts with `gen` builds everything anew, so each pass
        # gets a fresh directory, as a user's pipeline run would.
        fresh = "gen" in workload.loop
        tracer = Tracer() if trace else None
        ops, traced_ops = [], []
        first_digest = None
        start = perf_counter()

        def another() -> bool:
            """Start an operation only if a typical one still fits in `seconds`."""
            if not ops or (trace and not traced_ops):
                return True
            return perf_counter() - start + median([op["wall"] for op in ops + traced_ops]) <= seconds

        i = 0
        while ok and another():
            traced = trace and i % 2 == 1
            if fresh:
                previous, run_dir = run_dir, work / f"pass{i}"
            if traced:
                tracer.install()
                tracer.reset()
            w0, c0, b0 = perf_counter(), process_time(), written_bytes()
            stage_walls = runner.stages(workload.loop, run_dir)
            op = {"wall": perf_counter() - w0, "cpu": process_time() - c0,
                  "mb": (written_bytes() - b0) / 1e6, "stages": stage_walls}
            if traced:
                tracer.uninstall()
                op["layers"] = tracer.layer_metrics()
            ok = stage_walls is not None
            if fresh and previous.exists():
                shutil.rmtree(previous)
            if ok:
                (traced_ops if traced else ops).append(op)
                digest = dir_digest(run_dir)
                first_digest = first_digest or digest
                if digest != first_digest:
                    runner.fail(len(workload.loop), f"operation {i}: outputs differ from operation 0")
            i += 1

        failed_checks, sweep_error = output_checks(run_dir, workload, seed, runner.executions) if ok else ({}, None)
        for stage, errors in failed_checks.items():
            runner.fail(runner.executions[stage], "; ".join(errors))
        info = {"operations": len(ops) + len(traced_ops),
                "op_wall_s": [round(op["wall"], 6) for op in ops],
                "op_wall_median_s": median([op["wall"] for op in ops]),
                "failures": runner.failures, "sweep_worst_rel_err": sweep_error}
        if ok and "eval" in runner.executions:
            import checks

            info["accuracy"] = {
                test_set: {m: pts for m, pts in curves.items() if m in checks.MODEL_METHODS}
                for test_set, curves in checks.accuracy_curves(run_dir).items()
            }

        if trace:
            metrics = {k: median([op["layers"][k] for op in traced_ops]) for k in LAYER_UNITS}
            metrics.update(stage_metrics(ops, run_dir) if ok else {})
            metrics["trace.run_s"] = median([op["wall"] for op in traced_ops])
            metrics["trace.untraced_run_s"] = median([op["wall"] for op in ops])
            if ops and traced_ops:
                metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.run_s"] / metrics["trace.untraced_run_s"] - 1.0)
            units = {**LAYER_UNITS, **CLI_UNITS, **TRACE_UNITS}
            info["absent"] = tracer.absent
        else:
            metrics = {
                "setup_s": median(setup_times),
                "cpu_s": costliest([op["cpu"] for op in ops]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "artifact_mb": median([op["mb"] for op in ops]),
            }
            units = E2E_UNITS
        attempted = max(sum(runner.executions.values()), 1)
        result = {
            "correct": ok and not runner.failures,
            "attempted": attempted,
            "failed": min(runner.failed, attempted),
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
        }
        return result, info
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def stage_metrics(ops: list[dict], run_dir: Path) -> dict[str, float]:
    """Per-stage (cli layer) medians over untraced operations."""
    def stage(name):
        return median([op["stages"][name] for op in ops if name in op["stages"]])

    m = {f"cli.{s}_s": stage(s) for s in ("gen", "train", "eval", "report", "analytic")}
    m["cli.fit_s"] = sum(stage(f) for f in FITS)
    decisions, sample_epochs = work_counts(run_dir)
    m["cli.decisions_per_s"] = decisions / m["cli.eval_s"] if m["cli.eval_s"] else 0.0
    m["cli.train_samples_per_s"] = sample_epochs / m["cli.train_s"] if m["cli.train_s"] else 0.0
    return m


def machine_record(seed: int) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    head = read(ROOT / ".git" / "HEAD")
    commit = read(ROOT / ".git" / head[5:]) if head and head.startswith("ref: ") else head
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "commit": commit,
        "seed": seed,
        "scale": {"snr_grid": SNR_GRID, "gan_epochs": GAN_EPOCHS, "analytic_trials": ANALYTIC_TRIALS,
                  "setup_repeats": SETUP_REPEATS},
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower()}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def print_table(metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "csiauth" / "cli.py").is_file():
        print(f"error: csiauth sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result["metrics"])
    print(json.dumps({"machine": machine_record(args.seed), **info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
