"""The ``lake-cold`` workload (in-process).

It annotates the four zero-shot benchmarks with ArcheType+ (rulesets on),
driven the way ``ExperimentRunner`` drives them: ``annotate_stream`` with
chunks of 64 columns, each column carrying its single-column table, a
SQLite response store attached to the engine.  Every pass gets a fresh
store file and fresh annotators, so every prompt misses the store, reaches
the model (10 ms simulated round trip per call) and is written through to
the store.

The evaluation split and the annotators' seed are fixed, so labels,
accuracy and token cost are the same figures on every run; ``--seed``
orders the four benchmarks within a pass.

A pass is one sweep of identical work; the run repeats passes while another
one fits in its time and reports totals over all of them.  Set-up (store
open, annotator and model construction) is timed in a block of many
constructions before each pass.  Every chunk's wall time is kept as the
latency of its columns.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from perfbench import metrics
from perfbench.spans import Recorder
from perfbench.system import peak_rss_mb, reset_peak_rss

BENCHMARKS: tuple[str, ...] = ("sotab-27", "d4-20", "amstr-56", "pubchem-20")
COLUMNS_PER_BENCHMARK = 500
CHUNK_SIZE = 64
RTT_S = 0.010
#: Seed of the evaluation split and of every annotator's planner RNG.
DATA_SEED = 0
#: ``setup_s`` is the median over blocks of one block's time per set-up;
#: one block runs before each pass, so the blocks sample the whole run.
SETUPS_PER_BLOCK = 32
MIN_PASSES = 4
#: Four passes of 32 chunks put 12 chunks beyond p90.
TAIL_LEVEL = "90"


@dataclass
class LakeInput:
    """One benchmark's columns, their stream arguments and ground truth."""

    benchmark: object
    columns: list
    tables: list
    truth: list[str]
    golden: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    chunk_wall_s: list[float]
    chunk_columns: list[int]
    labels: list[list[str]]
    tokens: int
    counters: dict[str, float]

    @property
    def queries(self) -> int:
        return int(self.counters["n_queries"])


def benchmark_order(seed: int) -> list[str]:
    """The order in which a pass for ``seed`` sweeps the four benchmarks."""
    rng = np.random.default_rng(seed)
    return [BENCHMARKS[i] for i in rng.permutation(len(BENCHMARKS))]


def build_inputs(names: Sequence[str]) -> list[LakeInput]:
    """The fixed evaluation split of each named benchmark, in that order."""
    from repro.core.table import Table
    from repro.datasets.registry import load_benchmark

    inputs = []
    for name in names:
        benchmark = load_benchmark(
            name, n_columns=COLUMNS_PER_BENCHMARK, seed=DATA_SEED
        )
        columns = [bc.column for bc in benchmark.columns]
        tables = [
            Table(columns=[bc.column], name=bc.table_name)
            if bc.table_name is not None
            else None
            for bc in benchmark.columns
        ]
        truth = [bc.label for bc in benchmark.columns]
        inputs.append(LakeInput(benchmark, columns, tables, truth))
    return inputs


def _annotator(lake: LakeInput, rtt_s: float):
    from repro.baselines.llm_baselines import get_zero_shot_method

    annotator = get_zero_shot_method(
        "archetype", lake.benchmark, model="gpt", use_rules=True, seed=DATA_SEED
    )
    annotator.model.latency = rtt_s
    return annotator


def golden_run(inputs: list[LakeInput]) -> None:
    """Instant-model sequential labels, with no store."""
    for lake in inputs:
        results = _annotator(lake, 0.0).annotate_columns(
            lake.columns,
            tables=lake.tables,
            column_indices=[0] * len(lake.columns),
            executor="sequential",
        )
        lake.golden = [r.label for r in results]


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def set_up(inputs: list[LakeInput], store_path: Path):
    """The program's set-up: open the store, build and attach the annotators."""
    from repro.core.store import SQLiteResponseStore

    store = SQLiteResponseStore(store_path)
    annotators = [_annotator(lake, RTT_S) for lake in inputs]
    for annotator in annotators:
        annotator.attach_store(store)
    return store, annotators


def time_setups(inputs: list[LakeInput], paths: Sequence[Path]) -> float:
    """Seconds per set-up over one block of set-ups, one per store path.

    Closing the stores is left untimed.
    """
    start = time.perf_counter()
    built = [set_up(inputs, path) for path in paths]
    seconds = (time.perf_counter() - start) / len(paths)
    for store, _ in built:
        store.close()
    return seconds


def run_pass(
    inputs: list[LakeInput],
    store_path: Path,
    recorder: Recorder | None,
    pass_index: int,
) -> PassResult:
    """Set up (untimed), then one timed sweep over the split."""
    store, annotators = set_up(inputs, store_path)
    walls: list[float] = []
    sizes: list[int] = []
    labels: list[list[str]] = []
    tokens = 0
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    root = recorder.span("bench.pass", pass_index) if recorder else nullcontext()
    with root:
        for lake, annotator in zip(inputs, annotators):
            stream = annotator.annotate_stream(
                lake.columns,
                tables=lake.tables,
                column_indices=itertools.repeat(0, len(lake.columns)),
                chunk_size=CHUNK_SIZE,
            )
            got: list[str] = []
            while True:
                chunk_start = time.perf_counter()
                chunk = list(itertools.islice(stream, CHUNK_SIZE))
                if not chunk:
                    break
                walls.append(time.perf_counter() - chunk_start)
                sizes.append(len(chunk))
                got.extend(result.label for result in chunk)
                tokens += sum(r.prompt.token_count for r in chunk if r.prompt)
            labels.append(got)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    store.close()

    counters = dict.fromkeys(
        ("n_submitted", "n_hits", "n_coalesced", "n_batches", "batch_prompts",
         "n_cross_request_batches", "n_queries"),
        0.0,
    )
    for annotator in annotators:
        stats = annotator.engine.stats
        scheduler = annotator.engine.scheduler.scheduler_stats
        counters["n_submitted"] += scheduler.n_submitted
        counters["n_hits"] += stats.n_hits
        counters["n_coalesced"] += scheduler.n_coalesced
        counters["n_batches"] += scheduler.n_batches
        counters["batch_prompts"] += sum(
            int(size) * count for size, count in scheduler.batch_sizes.items()
        )
        counters["n_cross_request_batches"] += scheduler.n_cross_request_batches
        counters["n_queries"] += stats.n_queries
    return PassResult(wall_s, cpu_s, walls, sizes, labels, tokens, counters)


def columns_per_s(passes: list[PassResult], columns_per_pass: int) -> float:
    return len(passes) * columns_per_pass / sum(p.wall_s for p in passes)


class LakeWorkload:
    """Inputs, golden labels and the measured phase of ``lake-cold``."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.inputs = build_inputs(benchmark_order(seed))
        self.columns_per_pass = sum(len(lake.columns) for lake in self.inputs)
        golden_run(self.inputs)
        self.rtt_s = RTT_S
        self.failures: list[str] = []
        self.mismatches = 0
        self._passes = itertools.count()

    def _store_path(self, name: str) -> Path:
        """A fresh store file named ``name``."""
        path = self.workdir / f"cold-{name}.sqlite"
        _remove_store(path)
        return path

    def setup_block(self, index: int) -> float:
        """Seconds per set-up over one block of set-ups on fresh stores."""
        paths = [
            self._store_path(f"setup-{index}-{i}") for i in range(SETUPS_PER_BLOCK)
        ]
        seconds = time_setups(self.inputs, paths)
        for path in paths:
            _remove_store(path)
        return seconds

    def _check(self, result: PassResult) -> None:
        for lake, got in zip(self.inputs, result.labels):
            mismatched = sum(a != b for a, b in zip(got, lake.golden))
            mismatched += abs(len(got) - len(lake.golden))
            self.mismatches += mismatched
            if mismatched:
                self.failures.append(
                    f"{lake.benchmark.name}: {mismatched} labels differ from golden"
                )

    def measure(
        self,
        seconds: float,
        min_passes: int,
        recorder: Recorder | None = None,
        setups: list[float] | None = None,
    ) -> list[PassResult]:
        """Run ``min_passes``, then more while the last one's length still fits.

        With ``setups``, a block of set-ups is timed before each pass and its
        seconds per set-up appended there.
        """
        results: list[PassResult] = []
        deadline = time.perf_counter() + seconds
        last = 0.0
        while len(results) < min_passes or time.perf_counter() + last <= deadline:
            started = time.perf_counter()
            index = next(self._passes)
            if setups is not None:
                setups.append(self.setup_block(index))
            path = self._store_path(f"pass-{index}")
            result = run_pass(self.inputs, path, recorder, index)
            _remove_store(path)
            self._check(result)
            results.append(result)
            last = time.perf_counter() - started
        return results

    # --------------------------------------------------------------- results
    def accuracy(self, passes: list[PassResult]) -> float:
        """Share of the measured labels, over all passes, equal to the truth."""
        right = sum(
            label == truth
            for p in passes
            for lake, got in zip(self.inputs, p.labels)
            for label, truth in zip(got, lake.truth)
        )
        return right / (len(passes) * self.columns_per_pass)

    def end_to_end(self, seconds: float) -> tuple[dict[str, float], dict]:
        gc.collect()
        reset_peak_rss()
        setups: list[float] = []
        passes = self.measure(seconds, MIN_PASSES, setups=setups)
        # A column waits for its whole chunk: one latency sample per column.
        latencies = [
            wall
            for p in passes
            for wall, size in zip(p.chunk_wall_s, p.chunk_columns)
            for _ in range(size)
        ]
        n_columns = len(passes) * self.columns_per_pass
        values = {
            "setup_s": statistics.median(setups),
            "columns_per_s": columns_per_s(passes, self.columns_per_pass),
            "cpu_ms_per_column": 1000 * sum(p.cpu_s for p in passes) / n_columns,
            "latency_p50_ms": 1000 * metrics.percentile(latencies, 50),
            "latency_tail_ms": 1000 * metrics.percentile(latencies, TAIL_LEVEL),
            "accuracy": self.accuracy(passes),
            "prompt_tokens_per_column": sum(p.tokens for p in passes) / n_columns,
            "peak_rss_mb": peak_rss_mb(),
        }
        n_chunks = sum(len(p.chunk_wall_s) for p in passes)
        info = {
            "passes": len(passes),
            "benchmark_order": [lake.benchmark.name for lake in self.inputs],
            "setups_per_block": SETUPS_PER_BLOCK,
            "setup_block_s_per_setup": setups,
            "columns_per_pass": self.columns_per_pass,
            "ops_attempted": n_columns,
            "ops_succeeded": n_columns - self.mismatches,
            "ops_failed": self.mismatches,
            "latency_samples": n_chunks,
            "latency_unit": f"one column, waiting for its chunk of <= {CHUNK_SIZE}",
            "latency_tail_percentile": TAIL_LEVEL,
            "latency_tail_supported": metrics.tail_level(n_chunks),
            "model_queries_per_column": passes[0].queries / self.columns_per_pass,
        }
        return values, info

    def traced(self, seconds: float) -> tuple[dict[str, float], dict]:
        """Half the time untraced, half traced; per-layer metrics of the latter."""
        plain = self.measure(seconds / 2, MIN_PASSES // 2)
        recorder = Recorder()
        recorder.install()
        try:
            traced = self.measure(seconds / 2, MIN_PASSES // 2, recorder)
        finally:
            recorder.uninstall()
        columns = len(traced) * self.columns_per_pass
        counters = {
            key: sum(p.counters[key] for p in traced) for key in traced[0].counters
        }
        values = metrics.layer_metrics(recorder.spans, columns, counters)
        values["trace.overhead_share"] = (
            columns_per_s(plain, self.columns_per_pass)
            / columns_per_s(traced, self.columns_per_pass)
            - 1
        )
        wall = sum(p.wall_s for p in traced)
        attempted = (len(plain) + len(traced)) * self.columns_per_pass
        info = {
            "passes_untraced": len(plain),
            "passes_traced": len(traced),
            "ops_attempted": attempted,
            "ops_succeeded": attempted - self.mismatches,
            "ops_failed": self.mismatches,
            "spans": len(recorder.spans),
            "traced_wall_s": wall,
            "breakdown_share_of_wall": {
                name: seconds_ / wall
                for name, seconds_ in metrics.breakdown(recorder.spans).items()
            },
        }
        return values, info
