"""The benchmark's workloads: set-up, one timed op, and checks on its outputs.

Every workload builds its inputs from an integer seed. A workload object is
one set-up; ``op`` is the timed call; ``inspect`` checks one op's outputs
outside the timed region; ``quality`` turns the outcomes of the fixed quality
seeds into the quality metrics and the checks across seeds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adau import adversarial, cli, data, harness, metrics

# the paper cuts 200 windows from each recording, so a stream delivers
# 200-row batches
BATCH_ROWS = 200
# the mean scored BA over three seeds was 0.86 or more on twenty workload
# seeds; a detector that flags every row, or none, scores 0.5
SCORED_BA_FLOOR = 0.80


@dataclass(frozen=True)
class Size:
    full_spm: int  # samples per mode of fit-full (full-batch MDS)
    subsampled_spm: int  # samples per mode of fit-subsampled (above full_batch_limit)
    score_spm: int  # samples per mode behind the scored artifact
    block_spm: int  # samples per mode of the scored block: 2 * n_modes * block_spm rows
    epochs: int | None  # None keeps the config's epochs
    quality_checks: bool  # the cross-seed checks need fully trained models


FULL = Size(full_spm=200, subsampled_spm=500, score_spm=500, block_spm=10_000, epochs=None, quality_checks=True)
TINY = Size(full_spm=20, subsampled_spm=500, score_spm=20, block_spm=100, epochs=5, quality_checks=False)


@dataclass
class Outcome:
    """Checks failed by one op, and what its outputs say about quality."""

    problems: list[str]
    quality: dict  # model -> {"unseen_ba", "unseen_fpr", "scored_ba"}
    signature: str  # digest of the outputs, equal for equal answers


def _experiment_config(config: dict, spm: int, epochs: int | None) -> dict:
    config = json.loads(json.dumps(config))
    config["repetitions"] = 1
    config["synthetic"]["samples_per_mode"] = spm
    if epochs is not None:
        config["architecture"]["epochs"] = epochs
    return config


def unseen_modes(config: dict) -> list[int]:
    synthetic = config["synthetic"]
    seen = set(synthetic["modes_in_target_training"])
    return [m for m in range(1, synthetic["n_modes"] + 1) if m not in seen]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _cross_seed_quality(outcomes: list[Outcome], model: str) -> dict:
    usable = [o.quality[model] for o in outcomes if model in o.quality]
    if not usable:
        return {k: float("nan") for k in ("unseen_ba", "unseen_fpr", "scored_ba")}
    return {k: float(np.mean([q[k] for q in usable])) for k in usable[0]}


class FitWorkload:
    """One seed of ``adau experiment``: three models, aggregation,
    significance tests and the output files, run in-process through the CLI."""

    def __init__(self, config: dict, spm: int, size: Size, work: Path):
        self.config = _experiment_config(config, spm, size.epochs)
        self.size = size
        self.work = work
        self.config_path = work / "experiment.json"
        self.config_path.write_text(json.dumps(self.config))
        self.unseen = unseen_modes(self.config)
        n_test = 2 * self.config["synthetic"]["n_modes"] * spm
        self.rows_per_op = len(self.config["models"]) * n_test

    def op(self, seed: int):
        out = self.work / f"experiment-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", str(self.config_path), "--out", str(out), "--seed", str(seed)])
        return out, code

    def inspect(self, result) -> Outcome:
        out, code = result
        try:
            problems = [] if code == 0 else [f"experiment exit code {code}"]
            runs = harness.load_runs(out / "runs")
            models = list(self.config["models"])
            problems += [f"{r.model} failed: {r.error}" for r in runs if r.failed]
            if sorted(r.model for r in runs) != sorted(models):
                problems.append(f"run records for {sorted(r.model for r in runs)}")
            summary = (out / "summary.csv").read_text().splitlines()[1:]
            if {line.split(",")[0] for line in summary} != set(models):
                problems.append("summary.csv lacks a model")
            if not json.loads((out / "significance.json").read_text()):
                problems.append("significance.json is empty")
            quality = {
                r.model: {
                    "unseen_ba": float(np.mean([r.per_mode[m]["ba"] for m in self.unseen])),
                    "unseen_fpr": float(np.mean([r.per_mode[m]["fpr"] for m in self.unseen])),
                    "scored_ba": r.ba,
                }
                for r in runs
                if not r.failed
            }
            signature = hashlib.sha256((out / "summary.csv").read_bytes() + (out / "significance.json").read_bytes()).hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(problems, quality, signature)

    def quality(self, outcomes: list[Outcome]) -> tuple[dict, list[str]]:
        """ADAU quality over the quality seeds, and the criterion-9 ordering
        target-helm < mixed-helm < adau on unseen-mode balanced accuracy."""
        by_model = {m: _cross_seed_quality(outcomes, m) for m in self.config["models"]}
        problems = []
        if self.size.quality_checks:
            order = [by_model[m]["unseen_ba"] for m in (harness.MODEL_TARGET_ONLY, harness.MODEL_MIXED, harness.MODEL_ADAU)]
            if not order[0] < order[1] < order[2]:
                problems.append("unseen-mode BA ordering target-helm < mixed-helm < adau fails: " + ", ".join(f"{v:.4f}" for v in order))
        return by_model[harness.MODEL_ADAU], problems


class StreamScore:
    """An ADAU artifact trained, saved and loaded in set-up scores a fixed
    block of target rows in 200-row batches, each standardized on its own."""

    def __init__(self, config: dict, size: Size, work: Path, seed: int):
        experiment = harness.ExperimentConfig.from_dict(_experiment_config(config, size.score_spm, size.epochs))
        arch = experiment.architecture
        spec = dataclasses.replace(experiment.synthetic, seed=seed)
        source, target_train, _, _ = data.synth_generate(spec)
        self.scaler = harness.Standardizer(source.samples, arch.input_gain)
        adau_config = adversarial.AdauConfig(
            extractor_width=arch.extractor_width,
            n_oneclass=arch.n_oc,
            alpha=arch.alpha,
            epochs=arch.epochs,
            learning_rate=arch.learning_rate,
            ridge_lambda=arch.ridge_lambda,
            seed=seed,
            feature_gain=arch.feature_gain,
            n_committee=arch.n_committee,
        )
        trained = adversarial.train_adau(self.scaler(source), self.scaler(target_train), adau_config)
        self.artifact = work / "adau.json"
        adversarial.save_adau(trained, self.artifact)
        self.model = adversarial.load_adau(self.artifact)
        # scored rows come from the same synthetic units the model was trained on
        _, _, healthy, anomalous = data.synth_generate(dataclasses.replace(spec, samples_per_mode=size.block_spm))
        self.block = data.concat_datasets([healthy, anomalous])
        self.unseen = unseen_modes(config)
        self.floor = SCORED_BA_FLOOR if size.quality_checks else 0.0
        self.rows_per_op = self.block.n_samples
        self.source, self.input_gain = source, arch.input_gain
        self.reference = self._predict(trained)

    def _predict(self, model) -> np.ndarray:
        X = self.block.samples
        return np.concatenate(
            [model.detect(self.scaler(X[i : i + BATCH_ROWS])) for i in range(0, len(X), BATCH_ROWS)]
        )

    def op(self, seed: int):
        return self._predict(self.model)

    def inspect(self, pred) -> Outcome:
        problems = []
        if not np.array_equal(pred, self.reference):
            problems.append("loaded artifact's predictions differ from the trained model's")
        return Outcome(problems, {harness.MODEL_ADAU: self._quality(pred)}, _digest(pred))

    def _quality(self, pred) -> dict:
        labels, groups = self.block.labels, self.block.groups
        per_mode = [metrics.confusion(labels[groups == m], pred[groups == m]) for m in self.unseen]
        return {
            "unseen_ba": float(np.mean([metrics.balanced_accuracy(c) for c in per_mode])),
            "unseen_fpr": float(np.mean([metrics.fpr(c) for c in per_mode])),
            "scored_ba": metrics.balanced_accuracy(metrics.confusion(labels, pred)),
        }

    def quality(self, outcomes: list[Outcome]) -> tuple[dict, list[str]]:
        q = _cross_seed_quality(outcomes, harness.MODEL_ADAU)
        problems = []
        if not q["scored_ba"] >= self.floor:
            problems.append(f"scored BA {q['scored_ba']:.4f} below the floor {self.floor}")
        return q, problems


class BulkScore(StreamScore):
    """The ``adau evaluate`` path through public functions: load the labelled
    CSV and the artifact, standardize on the source CSV, one ``detect`` call
    over every row, confusion counts."""

    def __init__(self, config: dict, size: Size, work: Path, seed: int):
        super().__init__(config, size, work, seed)
        self.csv = work / "scored.csv"
        self.source_csv = work / "source.csv"
        data.save_dataset(self.block, self.csv)
        data.save_dataset(self.source, self.source_csv)

    def _predict(self, model) -> np.ndarray:
        return model.detect(self.scaler(self.block.samples))

    def op(self, seed: int):
        test = data.load_dataset(self.csv)
        model = adversarial.load_adau(self.artifact)
        scaler = harness.Standardizer(data.load_dataset(self.source_csv).samples, self.input_gain)
        pred = model.detect(scaler(test.samples))
        return pred, metrics.confusion(test.labels, pred)

    def inspect(self, result) -> Outcome:
        pred, counts = result
        outcome = super().inspect(pred)
        if counts != metrics.confusion(self.block.labels, self.reference):
            outcome.problems.append("confusion counts differ from the reference")
        return outcome
