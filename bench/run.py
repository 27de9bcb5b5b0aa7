"""adau benchmark: seeded experiment fits and detector scoring.

    python3 bench/run.py --workload fit-full --seed 0 --seconds 10 --trace 0

Workloads (the reasons are in BENCHMARK.json and bench/README.md):

    fit-full        one seed of `adau experiment` on configs/acceptance.json
    fit-subsampled  the same op at 500 samples per mode, above full_batch_limit
    score-stream    a loaded ADAU artifact scores 100 000 rows in 200-row batches
    score-bulk      the `adau evaluate` path over a 100 000-row labelled CSV

Every run sets up, runs one untimed warm-up op as part of set-up, then times
ops for --seconds (and at least until the quality seeds are done). With
--trace 1 it also repeats the timed ops under the tracer in bench/tracing.py
and reports per-layer metrics instead of end-to-end ones. Each op's outputs
are checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds the environment,
the sample counts and every quality figure per seed.
"""
import os

# one BLAS thread, set before numpy loads: with OpenBLAS's default of two
# threads on a two-core machine, acceptance fits ran slower and spread wider
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "acceptance.json"
WORK = ROOT / ".bench_build"  # op outputs, artifacts and traces

# workload -> (set-ups per run, quality seeds). Each set-up ends with the
# warm-up op on its own quality seed; the timed ops continue the seed list.
# fit-full sets up once because its warm-up op is a 9 s fit.
PLAN = {
    "fit-full": (1, 5),
    "fit-subsampled": (3, 5),
    "score-stream": (3, 3),
    "score-bulk": (3, 3),
}
MIN_TIMED_OPS = 3
# a workload seed w gives op seeds w * SEED_STRIDE + i, i = 0, 1, ...
SEED_STRIDE = 1000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PLAN))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Run:
    """One benchmark run: set-ups, timed ops, and the checks on their outputs."""

    def __init__(self, make, seed):
        self.make = make
        self.seed = seed
        self.outcomes = []  # (seed index, Outcome or None), in the order run
        self.failed: set[int] = set()  # positions in self.outcomes
        self.problems: list[str] = []

    def op_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def _record(self, index, outcome, error=None):
        if error is None and outcome.problems:
            error = "; ".join(outcome.problems)
        if error is not None:
            self.failed.add(len(self.outcomes))
            self.problems.append(f"op {index}: {error}")
        self.outcomes.append((index, outcome))

    def setup(self, n_setups):
        """Set up ``n_setups`` times, each ending with a warm-up op on its own seed."""
        times = []
        for i in range(n_setups):
            start = time.perf_counter()
            workload = self.make(self.op_seed(i))
            result = workload.op(self.op_seed(i))
            times.append(time.perf_counter() - start)
            self._record(i, workload.inspect(result))
        return workload, times

    def timed(self, workload, index_of, seconds, min_ops, tracer=None):
        """Time ops on seed indices ``index_of(0), index_of(1), ...`` for at
        least ``seconds`` and ``min_ops``; returns the passing ops' times.
        A tracer, if given, records the ops but not the checks."""
        times, rows = [], 0
        start = time.perf_counter()
        k = 0
        while k < min_ops or time.perf_counter() - start < seconds:
            index = index_of(k)
            k += 1
            try:
                if tracer is not None:
                    tracer.install("op")
                try:
                    t0 = time.perf_counter()
                    result = workload.op(self.op_seed(index))
                    elapsed = time.perf_counter() - t0
                finally:
                    if tracer is not None:
                        tracer.remove()
                outcome = workload.inspect(result)
            except Exception as exc:  # a failing op is counted, not fatal
                self._record(index, None, f"{type(exc).__name__}: {exc}")
                continue
            self._record(index, outcome)
            if not outcome.problems:
                times.append(elapsed)
                rows += workload.rows_per_op
        return times, rows

    def check_quality(self, workload, n_quality):
        """Quality over the first outcome of each of seed indices 0..n_quality-1."""
        positions = {}
        for pos, (index, outcome) in enumerate(self.outcomes):
            if index < n_quality and outcome is not None:
                positions.setdefault(index, pos)
        outcomes = [self.outcomes[pos][1] for pos in positions.values()]
        quality, problems = workload.quality(outcomes)
        if problems:
            self.problems += problems
            self.failed.update(positions.values())
        per_seed = [{"op": i, **self.outcomes[pos][1].quality.get("adau", {})} for i, pos in positions.items()]
        return quality, per_seed

    def check_traced(self, first):
        """Outputs of traced ops (from position ``first``) must equal the untraced ones."""
        untraced = {i: o.signature for i, o in self.outcomes[:first] if o is not None}
        for pos in range(first, len(self.outcomes)):
            index, outcome = self.outcomes[pos]
            if outcome is not None and outcome.signature != untraced.get(index):
                self.failed.add(pos)
                self.problems.append(f"op {index}: traced outputs differ from untraced")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _metrics(pairs: dict) -> dict:
    return {k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in pairs.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adau" / "__init__.py").is_file() or not CONFIG.is_file():
        print(f"bench: no adau sources at {SRC} or no {CONFIG}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import adau
    import tracing
    import workloads as wl
    from adau import adversarial, cli, data, elm, harness, metrics

    size = wl.FULL if args.size == "full" else wl.TINY
    config = json.loads(CONFIG.read_text())
    n_setups, n_quality = PLAN[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    make = {
        "fit-full": lambda seed: wl.FitWorkload(config, size.full_spm, size, work),
        "fit-subsampled": lambda seed: wl.FitWorkload(config, size.subsampled_spm, size, work),
        "score-stream": lambda seed: wl.StreamScore(config, size, work, seed),
        "score-bulk": lambda seed: wl.BulkScore(config, size, work, seed),
    }[args.workload]
    run = Run(make, args.seed)
    modules = {"data": data, "elm": elm, "adversarial": adversarial, "harness": harness, "metrics": metrics, "cli": cli}
    tracer = tracing.Tracer(adau, modules)
    try:
        import_s = time.perf_counter() - T_START
        if args.trace:
            tracer.install("setup")
        try:
            workload, setup_times = run.setup(n_setups)
        finally:
            tracer.remove()
        # the timed ops continue the seed list, so they cover the quality
        # seeds the set-ups did not
        times, rows = run.timed(workload, lambda k: n_setups + k, args.seconds, max(MIN_TIMED_OPS, n_quality - n_setups))
        quality, per_seed = run.check_quality(workload, n_quality)

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "environment": environment(np),
            "import_s": import_s,
            "setup_times_s": setup_times,
            "op_times_s": times,
            "op_samples": len(times),
            "quality": quality,
            "quality_per_seed": per_seed,
        }
        if args.trace:
            first, n_timed = len(run.outcomes), len(run.outcomes) - n_setups
            traced_times, _ = run.timed(workload, lambda k: n_setups + k % n_timed, args.seconds, 1, tracer)
            run.check_traced(first)
            trace_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            layer = tracer.layer_metrics(len(run.outcomes) - first)
            layer["trace.op_s_p50"] = (_median(traced_times), "s")
            layer["trace.overhead_s"] = (_median(traced_times) - _median(times), "s")
            metrics_out = _metrics(layer)
            detail.update(traced_op_times_s=traced_times, trace_file=str(trace_path.relative_to(ROOT)))
        else:
            metrics_out = _metrics(
                {
                    "setup_s": (import_s + statistics.median(setup_times), "s"),
                    "op_s_p50": (_median(times), "s"),
                    "rows_per_s": (rows / sum(times) if times else float("nan"), "rows/s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
                    "unseen_ba": (quality["unseen_ba"], "ratio"),
                    "scored_ba": (quality["scored_ba"], "ratio"),
                }
            )
        detail["problems"] = run.problems
        print(json.dumps(detail))
        print(
            json.dumps(
                {"correct": not run.failed, "attempted": len(run.outcomes), "failed": len(run.failed), "metrics": metrics_out}
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
