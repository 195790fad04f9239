"""Per-layer tracing of csiauth from outside the package.

The layers are csiauth's modules. `Tracer.install` replaces each traced
public function with a timing wrapper in every csiauth namespace that binds
it (a module's own globals, re-exports such as `evaluate.nn_forward`, and
the package namespace), so calls made through any of those names are seen.
Every wrapped call is a span; a span's self time is its duration minus the
durations of the traced spans it encloses. `Tracer.uninstall` restores the
original bindings, so untraced operations run the unmodified program.

A target that no longer exists in its module is recorded in `absent` and its
metrics read 0; it is not an error, because later versions of csiauth may
rename or delete the function.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Position of a named argument, so wrappers can read it without binding the
# full signature on every call (forward runs thousands of times per run).
_ARG_POS = {"mode": 2, "method": 3, "points": 1, "path": 0,
            "antenna_configs": 0, "multipliers": 1, "trials": 2}


def _arg(args, kwargs, name, default=None):
    if name in kwargs:
        return kwargs[name]
    pos = _ARG_POS[name]
    return args[pos] if len(args) > pos else default


def _method_group(args, kwargs):
    # "hypothesis-z3" -> "hypothesis"; the threshold test runs inside evaluate.
    return str(_arg(args, kwargs, "method", "")).split("-")[0]


def _forward_mode(args, kwargs):
    return _arg(args, kwargs, "mode", "infer")


def _count_written(tracer, args, kwargs, result):
    path = Path(_arg(args, kwargs, "path"))
    for p in (path, path.with_suffix(".manifest.json")):
        if p.exists():
            tracer.extra["datasets.write_bytes"] += p.stat().st_size


def _count_read(tracer, args, kwargs, result):
    counts = getattr(getattr(result, "manifest", None), "counts", {}) or {}
    tracer.extra["datasets.read_rows"] += sum(counts.values())


def _count_scored(tracer, args, kwargs, result):
    tracer.extra["detectors.scored_rows"] += len(_arg(args, kwargs, "points"))


def _count_disks(tracer, args, kwargs, result):
    # Counted from the sweep's inputs: every element of every configuration's
    # reference, once per trial and multiplier.
    configs = _arg(args, kwargs, "antenna_configs")
    multipliers = _arg(args, kwargs, "multipliers")
    trials = _arg(args, kwargs, "trials")
    tracer.extra["analytic.disks"] += trials * len(multipliers) * sum(n * m for n, m in configs)


# module -> {function name: (tag function or None, post-call counter or None)}
TARGETS = {
    "analytic": {"sweep_auth_probability": (None, _count_disks)},
    "datasets": {
        "write_dataset": (None, _count_written),
        "read_dataset": (None, _count_read),
        "build_master": (None, None),
        "split_train_test": (None, None),
        "build_accidental": (None, None),
        "build_nefarious": (None, None),
        "slice_snr": (None, None),
    },
    "channel": {"flatten_csi": (None, None), "unflatten_csi": (None, None)},
    "evaluate": {"evaluate": (_method_group, None), "accuracy_curve": (None, None)},
    "detectors": {
        "lof_fit": (None, None),
        "iforest_fit": (None, None),
        "ocsvm_fit": (None, None),
        "save_model": (None, None),
        "load_model": (None, None),
        "lof_scores": (None, _count_scored),
        "iforest_scores": (None, _count_scored),
        "ocsvm_decision_values": (None, _count_scored),
    },
    "neuralnet": {
        "forward": (_forward_mode, None),
        "backward": (None, None),
        "adam_step": (None, None),
        "bce_loss": (None, None),
        "save_checkpoint": (None, None),
        "load_checkpoint": (None, None),
    },
    "gan": {"train_gan": (None, None)},
}

# Per-layer metric -> unit. Each moves the end-to-end metric named in
# benchmark/README.md on the workload named there.
LAYER_UNITS = {
    "analytic.sweep_s": "s",
    "analytic.disks_per_s": "1/s",
    "analytic.disks": "count",
    "datasets.write_s": "s",
    "datasets.write_mb_per_s": "MB/s",
    "datasets.read_s": "s",
    "datasets.read_rows_per_s": "1/s",
    "datasets.build_s": "s",
    "datasets.slice_snr_s": "s",
    "channel.flatten_csi.calls": "count",
    "channel.flatten_csi_s": "s",
    "channel.unflatten_csi.calls": "count",
    "evaluate.gan_s": "s",
    "evaluate.lof_s": "s",
    "evaluate.iforest_s": "s",
    "evaluate.ocsvm_s": "s",
    "evaluate.hypothesis_s": "s",
    "evaluate.adapter_self_s": "s",
    "detectors.lof_fit_s": "s",
    "detectors.iforest_fit_s": "s",
    "detectors.ocsvm_fit_s": "s",
    "detectors.save_model_s": "s",
    "detectors.lof_score_s": "s",
    "detectors.iforest_score_s": "s",
    "detectors.ocsvm_score_s": "s",
    "detectors.scored_rows_per_s": "1/s",
    "detectors.load_model_s": "s",
    "neuralnet.forward_train_s": "s",
    "neuralnet.forward_infer_s": "s",
    "neuralnet.backward_s": "s",
    "neuralnet.adam_s": "s",
    "neuralnet.bce_s": "s",
    "neuralnet.steps": "count",
    "neuralnet.save_checkpoint_s": "s",
    "neuralnet.load_checkpoint_s": "s",
    "gan.train_self_s": "s",
    "trace.calls": "count",
}


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        # key -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = defaultdict(float)

    def _wrap(self, key, fn, tag, after):
        stack, tracer = self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                name = key if tag is None else f"{key}[{tag(args, kwargs)}]"
                s = tracer.stats[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every csiauth namespace that binds it."""
        if self._bindings:
            return
        originals: dict[int, object] = {}
        self.absent = []
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"csiauth.{module_name}")
            for fn_name, (tag, after) in functions.items():
                fn = getattr(module, fn_name, None) if module is not None else None
                if not callable(fn):
                    self.absent.append(f"{module_name}.{fn_name}")
                    continue
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(f"{module_name}.{fn_name}", fn, tag, after)
                originals[id(fn)] = fn
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "csiauth" or n.startswith("csiauth.")) and m is not None]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    setattr(module, attr, self._wrappers[id(value)])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        def summed(key, field):
            return sum(v[field] for k, v in self.stats.items() if k == key or k.startswith(key + "["))

        def calls(key):
            return summed(key, 0)

        def total(key):
            return summed(key, 1)

        def self_time(key):
            return summed(key, 2)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        sweep_s = total("analytic.sweep_auth_probability")
        write_s = total("datasets.write_dataset")
        read_s = total("datasets.read_dataset")
        score_keys = ("lof_scores", "iforest_scores", "ocsvm_decision_values")
        score_s = sum(total(f"detectors.{k}") for k in score_keys)
        m = {
            "analytic.sweep_s": sweep_s,
            "analytic.disks_per_s": rate(self.extra["analytic.disks"], sweep_s),
            "analytic.disks": self.extra["analytic.disks"],
            "datasets.write_s": write_s,
            "datasets.write_mb_per_s": rate(self.extra["datasets.write_bytes"] / 1e6, write_s),
            "datasets.read_s": read_s,
            "datasets.read_rows_per_s": rate(self.extra["datasets.read_rows"], read_s),
            "datasets.build_s": sum(total(f"datasets.{k}") for k in (
                "build_master", "split_train_test", "build_accidental", "build_nefarious")),
            "datasets.slice_snr_s": total("datasets.slice_snr"),
            "channel.flatten_csi.calls": calls("channel.flatten_csi"),
            "channel.flatten_csi_s": total("channel.flatten_csi"),
            "channel.unflatten_csi.calls": calls("channel.unflatten_csi"),
            "evaluate.adapter_self_s": self_time("evaluate.evaluate") + self_time("evaluate.accuracy_curve"),
            "detectors.save_model_s": total("detectors.save_model"),
            "detectors.lof_score_s": total("detectors.lof_scores"),
            "detectors.iforest_score_s": total("detectors.iforest_scores"),
            "detectors.ocsvm_score_s": total("detectors.ocsvm_decision_values"),
            "detectors.scored_rows_per_s": rate(self.extra["detectors.scored_rows"], score_s),
            "detectors.load_model_s": total("detectors.load_model"),
            "neuralnet.forward_train_s": total("neuralnet.forward[train]"),
            "neuralnet.forward_infer_s": total("neuralnet.forward[infer]"),
            "neuralnet.backward_s": total("neuralnet.backward"),
            "neuralnet.adam_s": total("neuralnet.adam_step"),
            "neuralnet.bce_s": total("neuralnet.bce_loss"),
            "neuralnet.steps": calls("neuralnet.adam_step"),
            "neuralnet.save_checkpoint_s": total("neuralnet.save_checkpoint"),
            "neuralnet.load_checkpoint_s": total("neuralnet.load_checkpoint"),
            "gan.train_self_s": self_time("gan.train_gan"),
            "trace.calls": sum(v[0] for v in self.stats.values()),
        }
        for method in ("gan", "lof", "iforest", "ocsvm", "hypothesis"):
            m[f"evaluate.{method}_s"] = total(f"evaluate.evaluate[{method}]")
        for algo in ("lof", "iforest", "ocsvm"):
            m[f"detectors.{algo}_fit_s"] = total(f"detectors.{algo}_fit")
        return m
