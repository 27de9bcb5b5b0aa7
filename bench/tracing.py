"""Outside-in tracing of adau's layers for the benchmark's traced run.

The tracer replaces public functions of the adau modules, and methods on
their classes, with wrappers that record one span per call: name, start, end,
the span that was open when the call began, and the phase of the benchmark
("setup" or "op"). A few wrappers also count work from the call's arguments
or result. Spans and counts stay in memory until the run writes them out.
Nothing inside the package is changed; removing the tracer restores every
original attribute.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# adau.adversarial clamps discriminator outputs to [1e-7, 1 - 1e-7] in the
# BCE; a row outside that band gets a zero gradient, so the reversed gradient
# to the extractor stops for that row
SATURATION = 1e-7

# module -> public functions, wrapped in every adau module that refers to them
FUNCTIONS = {
    "data": ("synth_generate", "save_dataset", "load_dataset"),
    "elm": ("train_oneclass", "ridge_solve", "helm_train"),
    "adversarial": ("mds_loss", "discriminator_loss", "train_adau", "save_adau", "load_adau"),
    "harness": ("run_experiment", "aggregate", "significance_report"),
    "metrics": ("glm_model_factor", "mcnemar", "confusion"),
    "cli": ("main",),
}
# (module, class, method, span name), patched on the class; both Standardizer
# methods report as one layer
METHODS = (
    ("elm", "ElmLayer", "predict", "elm.ElmLayer.predict"),
    ("adversarial", "DenseNet", "forward", "adversarial.DenseNet.forward"),
    ("adversarial", "DenseNet", "backward", "adversarial.DenseNet.backward"),
    ("adversarial", "Adam", "step", "adversarial.Adam.step"),
    ("adversarial", "AdauModel", "detect", "adversarial.AdauModel.detect"),
    ("harness", "Standardizer", "__init__", "harness.Standardizer"),
    ("harness", "Standardizer", "__call__", "harness.Standardizer"),
)
# names whose calls happen in set-up on some workloads; timed per call
PER_CALL = ("adversarial.save_adau", "adversarial.load_adau")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    return list(dict.fromkeys(names + [label for *_, label in METHODS]))


def _rows(data) -> int:
    return len(getattr(data, "samples", data))


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work."""
    return num / den if den else 0.0


def _within_pairs(n_source: int, n_target: int) -> int:
    return n_source * (n_source - 1) // 2 + n_target * (n_target - 1) // 2


class Tracer:
    """Span recorder over the adau package, installed around chosen phases."""

    def __init__(self, package, modules: dict):
        self.package = package
        self.modules = modules  # short name -> module
        self.spans: list[tuple] = []  # (name, start, end, parent index, phase)
        self.counts: dict[str, Counter] = defaultdict(Counter)  # phase -> counter
        self.phase = "setup"
        self._stack: list[int] = []
        self._available: list[int] = []  # within-domain pairs of the enclosing train_adau
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, phase: str) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.phase = phase
        scan = [self.package, *self.modules.values()]
        for mod, fns in FUNCTIONS.items():
            for fn_name in fns:
                original = getattr(self.modules[mod], fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for owner in scan:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
        for mod, cls_name, method, label in METHODS:
            cls = getattr(self.modules[mod], cls_name)
            self._patch(cls, method, self._wrap(label, vars(cls)[method]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.phase)
            if count is not None:
                count(result, *args, **kwargs)
            return result

        if name == "adversarial.train_adau":
            return self._with_available(traced)
        return traced

    def _with_available(self, traced):
        @functools.wraps(traced)
        def inner(source, target, *args, **kwargs):
            self._available.append(_within_pairs(_rows(source), _rows(target)))
            try:
                return traced(source, target, *args, **kwargs)
            finally:
                self._available.pop()

        return inner

    # -- counts read from arguments and results ---------------------------

    def _count_adversarial_mds_loss(self, result, X, F, domain):
        is_source = np.asarray(domain) == "source"
        n_source = int(is_source.sum())
        pairs = _within_pairs(n_source, is_source.size - n_source)
        c = self.counts[self.phase]
        c["mds_loss.pairs"] += pairs
        c["mds_loss.available"] += self._available[-1] if self._available else pairs

    def _count_adversarial_discriminator_loss(self, result, d_out, domain, weights=None):
        d = np.asarray(d_out).ravel()
        c = self.counts[self.phase]
        c["discriminator_loss.saturated"] += int(np.count_nonzero((d < SATURATION) | (d > 1.0 - SATURATION)))
        c["discriminator_loss.rows"] += d.size

    def _count_data_load_dataset(self, result, path):
        self.counts[self.phase]["load_dataset.rows"] += result.n_samples

    def _count_adversarial_save_adau(self, result, model, path):
        self.counts[self.phase]["artifact_bytes"] = Path(path).stat().st_size

    # -- reduction --------------------------------------------------------

    def self_times(self, phases: tuple[str, ...]) -> tuple[dict, Counter]:
        """Per-name self time (span minus its direct children) and call count."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, calls = defaultdict(float), Counter()
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            if phase in phases:
                busy[name] += end - start - child[i]
                calls[name] += 1
        return busy, calls

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics per traced op, as (value, unit) pairs."""
        busy, calls = self.self_times(("op",))
        out = {}
        for name in span_names():
            if name not in PER_CALL:
                out[f"{name}.busy_s"] = (busy[name] / n_ops, "s")
                out[f"{name}.calls"] = (calls[name] / n_ops, "count")
        all_busy, all_calls = self.self_times(("setup", "op"))
        for name in PER_CALL:
            out[f"{name}.s_per_call"] = (_ratio(all_busy[name], all_calls[name]), "s")
        c = self.counts["op"]
        out["adversarial.mds_loss.pairs"] = (_ratio(c["mds_loss.pairs"], calls["adversarial.mds_loss"]), "count")
        out["adversarial.mds_loss.pair_coverage"] = (_ratio(c["mds_loss.pairs"], c["mds_loss.available"]), "ratio")
        out["adversarial.discriminator_loss.saturated_frac"] = (
            _ratio(c["discriminator_loss.saturated"], c["discriminator_loss.rows"]),
            "ratio",
        )
        out["adversarial.artifact_bytes"] = (float(self.counts["setup"]["artifact_bytes"] or c["artifact_bytes"]), "B")
        out["data.load_dataset.rows_per_s"] = (_ratio(c["load_dataset.rows"], busy["data.load_dataset"]), "rows/s")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end (s), parent index (-1 for none), phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
