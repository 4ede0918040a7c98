"""Executor tests: golden equivalence, edge cases, and failure modes.

The golden label lists below were captured from the PRE-refactor
``annotate_column`` / ``annotate_columns`` implementations (commit 6c0124c)
on fixed benchmark seeds.  They pin the acceptance criterion that the
plan/execute refactor changes no labels: sequential and batched execution
must stay bit-identical to the historical code, and the concurrent executor
must produce the same labels for the pure bundled backends.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import nullcontext
from typing import Sequence

import pytest

from repro.core.executor import (
    BatchedExecutor,
    ConcurrentExecutor,
    ProcessExecutor,
    SequentialExecutor,
    get_executor,
    resolve_executor,
)
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.remapping import (
    NULL_LABEL,
    ContainsResampleRemapper,
    RemapResult,
    Remapper,
    ResampleRemapper,
    contains_match,
    exact_match,
    get_remapper,
)
from repro.core.rules import SOTAB_27_RULES
from repro.core.table import Column
from repro.datasets.registry import load_benchmark
from repro.exceptions import ConfigurationError
from repro.llm.base import GenerationParams, LanguageModel

LABELS = ["state", "person", "url", "number", "text"]

#: Labels produced by the pre-refactor pipeline for
#: load_benchmark("sotab-27", n_columns=60, seed=5) with
#: ArcheTypeConfig(model="gpt", sample_size=5, seed=0); sequential and
#: batched (batch_size=7) paths agreed bit-for-bit.
GOLDEN_SOTAB_GPT = [
    'product', 'streetaddress', 'url', 'currency', 'product', 'number',
    'time', 'category', 'category', 'boolean', 'product', 'zipcode',
    'telephone', 'streetaddress', 'organization', 'category',
    'streetaddress', 'currency', 'weight', 'category', 'price', 'person',
    'time', 'person', 'url', 'time', 'time', 'category', 'category',
    'creativework', 'telephone', 'country', 'product', 'streetaddress',
    'streetaddress', 'time', 'date', 'url', 'time', 'date', 'category',
    'category', 'price', 'number', 'weight', 'zipcode', 'coordinates',
    'person', 'creativework', 'person', 'boolean', 'time', 'number',
    'telephone', 'category', 'date', 'date', 'category', 'company', 'weight',
]

#: Labels produced by the pre-refactor batched pipeline for
#: load_benchmark("sotab-27", n_columns=40, seed=13) with
#: ArcheTypeConfig(model="t5", sample_size=5, seed=2, ruleset=SOTAB_27_RULES).
GOLDEN_SOTAB_T5_RULES = [
    'product', 'url', 'telephone', 'language', 'creativework', 'time',
    'product', 'url', 'boolean', 'country', 'age', 'company', 'gender',
    'gender', 'email', 'currency', 'number', 'date', 'product', 'company',
    'date', 'date', 'date', 'product', 'telephone', 'number',
    'creativework', 'jobposting', 'company', 'time', 'time', 'country',
    'gender', 'time', 'zipcode', 'url', 'sportsteam', 'organization',
    'organization', 'person',
]


def _golden_benchmark():
    return load_benchmark("sotab-27", n_columns=60, seed=5)


def _golden_annotator(benchmark) -> ArcheType:
    return ArcheType(ArcheTypeConfig(
        model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
    ))


class TestGoldenEquivalence:
    """The refactored pipeline reproduces pre-refactor labels exactly."""

    def test_sequential_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        labels = [
            annotator.annotate_column(bc.column).label for bc in benchmark.columns
        ]
        assert labels == GOLDEN_SOTAB_GPT

    def test_batched_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns], batch_size=7
        )
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_rules_variant_matches_pre_refactor_golden(self):
        benchmark = load_benchmark("sotab-27", n_columns=40, seed=13)
        annotator = ArcheType(ArcheTypeConfig(
            model="t5", label_set=benchmark.label_set, sample_size=5, seed=2,
            ruleset=SOTAB_27_RULES,
        ))
        results = annotator.annotate_columns([bc.column for bc in benchmark.columns])
        assert [r.label for r in results] == GOLDEN_SOTAB_T5_RULES

    def test_concurrent_matches_golden_label_multiset(self):
        """Acceptance: >= 4 workers produce the same label multiset."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns],
            executor="concurrent",
            workers=4,
        )
        assert Counter(r.label for r in results) == Counter(GOLDEN_SOTAB_GPT)
        # The bundled backends are pure, so ordering is in fact identical too.
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_stream_matches_pre_refactor_golden(self):
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        labels = [
            r.label
            for r in annotator.annotate_stream(
                (bc.column for bc in benchmark.columns), chunk_size=13
            )
        ]
        assert labels == GOLDEN_SOTAB_GPT


class TestExecutorEdgeCases:
    """Edge cases the refactor must preserve (ISSUE 2 satellite)."""

    def _annotator(self, **overrides) -> ArcheType:
        return ArcheType(ArcheTypeConfig(model="gpt", label_set=LABELS, **overrides))

    def test_empty_column_short_circuit_inside_batched_mode(self):
        empty = Column(values=["", "   ", ""])
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        for batch_size in (None, 1, 2):
            results = self._annotator().annotate_columns(
                [empty, state, empty], batch_size=batch_size
            )
            assert results[0].label == NULL_LABEL
            assert results[0].strategy == "empty-column"
            assert results[1].label == "state"
            assert results[2].label == NULL_LABEL

    def test_all_columns_short_circuit_issues_no_queries(self):
        empty = Column(values=[""])
        annotator = self._annotator()
        results = annotator.annotate_columns([empty, empty], batch_size=3)
        assert [r.label for r in results] == [NULL_LABEL, NULL_LABEL]
        assert annotator.query_count == 0

    @pytest.mark.parametrize("batch_size", [1, 3, 99])
    def test_chunk_boundaries(self, batch_size):
        """chunk=1, chunk mid-split and chunk>len all agree with unchunked."""
        benchmark = load_benchmark("d4-20", n_columns=12, seed=21)
        columns = [bc.column for bc in benchmark.columns]

        def annotate(**kwargs):
            annotator = ArcheType(ArcheTypeConfig(
                model="gpt", label_set=benchmark.label_set, seed=0,
            ))
            return [r.label for r in annotator.annotate_columns(columns, **kwargs)]

        assert annotate(batch_size=batch_size) == annotate(batch_size=None)

    def test_rule_hits_interleaved_with_queried_columns(self):
        url = Column(values=["http://a.com/x", "http://b.org/y", "http://c.net/z"])
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        empty = Column(values=[""])
        workload = [url, state, empty, url, state]
        for executor in ("sequential", "batched", "concurrent"):
            annotator = self._annotator(ruleset=SOTAB_27_RULES)
            results = annotator.annotate_columns(workload, executor=executor)
            assert [r.label for r in results] == \
                ["url", "state", NULL_LABEL, "url", "state"]
            assert [r.rule_applied for r in results] == \
                [True, False, False, True, False]

    def test_executor_object_can_be_passed_directly(self):
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        annotator = self._annotator()
        results = annotator.annotate_columns(
            [state], executor=BatchedExecutor(batch_size=2)
        )
        assert results[0].label == "state"


class TestExecutorResolution:
    def test_get_executor_names(self):
        assert isinstance(get_executor("sequential"), SequentialExecutor)
        assert isinstance(get_executor("batched", batch_size=5), BatchedExecutor)
        concurrent = get_executor("concurrent", workers=8)
        assert isinstance(concurrent, ConcurrentExecutor)
        assert concurrent.workers == 8

    def test_get_executor_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_executor("warp-drive")

    def test_conflicting_batch_size_rejected_cleanly(self):
        """Knobs the named executor cannot honour are clean config errors."""
        with pytest.raises(ConfigurationError, match="batch_size=0"):
            get_executor("batched", batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_size=0"):
            get_executor("concurrent", batch_size=0, workers=2)
        with pytest.raises(ConfigurationError, match="no effect"):
            get_executor("sequential", batch_size=5)
        with pytest.raises(ConfigurationError, match="executor instance"):
            resolve_executor(BatchedExecutor(batch_size=2), batch_size=5)
        # batch_size=0 with the sequential executor is consistent, not an error.
        assert isinstance(get_executor("sequential", batch_size=0),
                          SequentialExecutor)

    def test_resolve_defaults_preserve_batch_size_semantics(self):
        assert isinstance(resolve_executor(None, batch_size=0), SequentialExecutor)
        batched = resolve_executor(None, batch_size=7)
        assert isinstance(batched, BatchedExecutor)
        assert batched.batch_size == 7
        assert isinstance(resolve_executor(None), BatchedExecutor)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedExecutor(batch_size=0)
        with pytest.raises(ConfigurationError):
            ConcurrentExecutor(workers=0)
        with pytest.raises(ConfigurationError):
            resolve_executor(3.14)  # type: ignore[arg-type]

    def test_workers_without_concurrent_executor_rejected(self):
        """workers must not be silently ignored on a single-threaded run."""
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            resolve_executor(None, workers=8)
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            get_executor("batched", workers=8)
        with pytest.raises(ConfigurationError, match="concurrent or process"):
            get_executor("sequential", workers=8)

    def test_get_executor_process(self):
        process = get_executor("process", workers=3)
        assert isinstance(process, ProcessExecutor)
        assert process.workers == 3
        # batch_size maps onto the per-worker chunk size, like the
        # concurrent executor's chunking knob.
        chunked = get_executor("process", workers=2, batch_size=9)
        assert isinstance(chunked, ProcessExecutor)
        assert chunked.chunk_size == 9
        with pytest.raises(ConfigurationError):
            ProcessExecutor(workers=0)


class ShortReturningModel(LanguageModel):
    """A miscounting backend: generate_batch silently drops the last answer."""

    name = "short-returning"
    context_window = 2048

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        return "state"

    def generate_batch(self, prompts, params=None) -> list[str]:
        return ["state"] * max(len(prompts) - 1, 0)


class TestShortReturningBackend:
    """Regression (ISSUE 2 satellite): a miscounting backend must fail loudly
    instead of silently dropping columns."""

    def _workload(self) -> list[Column]:
        return [
            Column(values=["Alaska", "Colorado", "Kentucky"]),
            Column(values=["Bob Smith", "Alice Jones", "Carol White"]),
            Column(values=["http://a.com", "http://b.org", "http://c.net"]),
        ]

    def test_batched_mode_raises(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(self._workload())

    def test_batched_mode_raises_with_cache_disabled(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
            query_cache_size=0,
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(self._workload())

    def test_concurrent_mode_raises(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=ShortReturningModel(), label_set=LABELS, remapper="none",
        ))
        with pytest.raises(RuntimeError, match="completions for"):
            annotator.annotate_columns(
                self._workload(), executor="concurrent", workers=2
            )


class UnpicklableModel(LanguageModel):
    """A backend holding process-local state that cannot cross a fork."""

    name = "unpicklable"
    context_window = 2048

    def __init__(self) -> None:
        self.session = lambda prompt: "state"  # lambdas never pickle

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        return self.session(prompt)


class TestProcessExecutor:
    """ISSUE 7 tentpole: worker processes, bit-identical labels, truthful
    accounting."""

    def test_process_matches_pre_refactor_golden(self):
        """Acceptance: bit-identical labels to SequentialExecutor."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        results = annotator.annotate_columns(
            [bc.column for bc in benchmark.columns],
            executor="process",
            workers=4,
        )
        assert [r.label for r in results] == GOLDEN_SOTAB_GPT

    def test_worker_accounting_absorbed_into_parent(self):
        """query_count and stage stats must cover worker-side model calls."""
        benchmark = _golden_benchmark()
        reference = _golden_annotator(benchmark)
        workload = [bc.column for bc in benchmark.columns]
        [reference.annotate_column(column) for column in workload]

        annotator = _golden_annotator(benchmark)
        annotator.annotate_columns(workload, executor="process", workers=3)
        assert annotator.query_count == reference.query_count
        stages = {row["stage"]: row for row in annotator.stats.as_rows()}
        assert stages["query"]["calls"] > 0
        assert stages["remap"]["calls"] > 0

    def test_pool_reused_across_stream_chunks(self):
        """annotate_stream executes chunk-at-a-time through ONE pool."""
        benchmark = _golden_benchmark()
        annotator = _golden_annotator(benchmark)
        executor = ProcessExecutor(workers=2)
        with executor:
            labels = [
                r.label
                for r in annotator.annotate_stream(
                    (bc.column for bc in benchmark.columns),
                    chunk_size=20,
                    executor=executor,
                )
            ]
            assert labels == GOLDEN_SOTAB_GPT
            assert executor._pool is not None

    def test_unpicklable_model_is_a_clean_config_error(self):
        annotator = ArcheType(ArcheTypeConfig(
            model=UnpicklableModel(), label_set=LABELS, remapper="none",
        ))
        workload = [Column(values=["Alaska", "Colorado", "Kentucky"])]
        with pytest.raises(ConfigurationError, match="pickle"):
            annotator.annotate_columns(workload, executor="process", workers=2)

    def test_config_executor_and_workers_defaults(self):
        """ArcheTypeConfig(executor=..., workers=...) applies when the call
        site passes neither."""
        benchmark = load_benchmark("sotab-27", n_columns=12, seed=5)
        reference = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
        ))
        configured = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
            executor="process", workers=2,
        ))
        workload = [bc.column for bc in benchmark.columns]
        expected = [reference.annotate_column(column).label for column in workload]
        assert [r.label for r in configured.annotate_columns(workload)] == expected
        # An explicit executor still overrides the config default (fresh
        # annotator: each planned column advances the RNG stream).
        override = ArcheType(ArcheTypeConfig(
            model="gpt", label_set=benchmark.label_set, sample_size=5, seed=0,
            executor="process", workers=2,
        ))
        assert [
            r.label
            for r in override.annotate_columns(workload, executor="sequential")
        ] == expected


# --------------------------------------------------------------------------
# Resample rounds: Algorithm 3 set-at-a-time, per-column semantics unchanged.

ZERO_SHOT_BENCHMARKS = ("sotab-27", "d4-20", "amstr-56", "pubchem-20")
REMAPPERS = ("none", "contains", "resample", "similarity", "contains+resample")
RESAMPLE_K = 3


def _executors() -> dict[str, object]:
    return {
        "sequential": SequentialExecutor(),
        "batched": BatchedExecutor(),
        "batched-7": BatchedExecutor(batch_size=7),
        "concurrent": ConcurrentExecutor(workers=3),
        "process": ProcessExecutor(workers=2),
    }


def _column_at_a_time(name, response, label_set, requery):
    """``(label, remapped, attempts)`` as the per-column loop computed them.

    For the resample strategies this is Algorithm 3 written out one column
    and one model round trip at a time — the reference the set-at-a-time
    rounds must reproduce; the other strategies never requery.
    """
    if name not in ("resample", "contains+resample"):
        result = get_remapper(name).remap(response, label_set, requery)
        return result.label, result.remapped, result.attempts

    def accept(text):
        matched = exact_match(text, label_set)
        if matched is None and name == "contains+resample":
            matched = contains_match(text, label_set)
        return matched

    accepted = accept(response)
    if accepted is not None:
        return accepted, accepted != response, 0
    for attempt in range(1, RESAMPLE_K + 1):
        accepted = accept(requery(attempt))
        if accepted is not None:
            return accepted, True, attempt
    return NULL_LABEL, False, RESAMPLE_K


def _split(name):
    benchmark = load_benchmark(name, n_columns=30, seed=1)
    return benchmark, [bc.column for bc in benchmark.columns]


def _parity_annotator(benchmark, remapper):
    return ArcheType(ArcheTypeConfig(
        model="gpt", label_set=benchmark.label_set, remapper=remapper,
        resample_k=RESAMPLE_K, seed=0,
    ))


def _reference_run(benchmark, columns, remapper):
    """Labels, remap outcomes and query counters of the per-column loop."""
    annotator = _parity_annotator(benchmark, remapper)
    engine = annotator.engine
    outcomes = []
    for position, column in enumerate(columns):
        plan = annotator.plan_column(column, position=position)
        if plan.result is not None:
            outcomes.append((plan.result.label, plan.result.remapped, None))
            continue
        text = plan.prompt.text
        response = engine.query(text)
        outcomes.append(_column_at_a_time(
            remapper, response, plan.prompt.label_set,
            lambda attempt: engine.query(text, engine.params.permuted(attempt)),
        ))
    return outcomes, engine.stats.n_queries, engine.stats.n_resamples


class RecordingRemapper(Remapper):
    """Delegates to ``inner`` and keeps every result in call order."""

    def __init__(self, inner: Remapper) -> None:
        self.inner = inner
        self.name = inner.name
        self.results: list[RemapResult] = []

    def remap(self, response, label_set, requery=None):
        result = self.inner.remap(response, label_set, requery)
        self.results.append(result)
        return result

    def remap_many(self, responses, label_sets, requery_many=None):
        results = self.inner.remap_many(responses, label_sets, requery_many)
        self.results.extend(results)
        return results


class TestResampleParity:
    """Every remapper under every executor reproduces the per-column loop:
    labels, ``remapped``, ``attempts``, ``n_queries`` and ``n_resamples``."""

    @pytest.mark.parametrize("remapper", REMAPPERS)
    def test_every_executor_matches_the_per_column_loop(self, remapper):
        exercised_rounds = 0
        for name in ZERO_SHOT_BENCHMARKS:
            benchmark, columns = _split(name)
            expected, queries, resamples = _reference_run(
                benchmark, columns, remapper
            )
            exercised_rounds += resamples
            for executor_name, executor in _executors().items():
                annotator = _parity_annotator(benchmark, remapper)
                if executor_name != "process":
                    # A process worker remaps with its own unpickled copy.
                    recorder = RecordingRemapper(annotator.remapper)
                    annotator.remapper = recorder
                with executor if isinstance(executor, ProcessExecutor) else (
                    nullcontext()
                ):
                    results = annotator.annotate_columns(
                        columns, executor=executor
                    )
                context = (name, remapper, executor_name)
                assert [(r.label, r.remapped) for r in results] == [
                    (label, remapped) for label, remapped, _ in expected
                ], context
                assert annotator.engine.stats.n_queries == queries, context
                assert annotator.engine.stats.n_resamples == resamples, context
                if executor_name != "process":
                    # In-process executors remap pending plans in plan order.
                    assert [r.attempts for r in recorder.results] == [
                        attempts for _, _, attempts in expected
                        if attempts is not None
                    ], context
        if remapper in ("resample", "contains+resample"):
            assert exercised_rounds > 0  # the splits do reach the rounds

    @pytest.mark.parametrize("remapper", ["resample", "contains+resample"])
    def test_remap_many_matches_remap_item_by_item(self, remapper):
        """``remap`` is ``remap_many`` over one item, for any mix of items."""
        labels = ["state", "url", "person"]
        script = {
            "nope": ["still nope", "state", "url"],
            "never": ["x", "y", "z"],
            "the url": ["state", "state", "state"],
        }
        responses = ["state", "nope", "never", "the url", "State."]
        strategy = get_remapper(remapper, k=RESAMPLE_K)
        one_by_one = [
            strategy.remap(
                response, labels,
                lambda attempt, response=response: script[response][attempt - 1],
            )
            for response in responses
        ]
        rounds: list[list[int]] = []

        def requery_many(items, attempt):
            rounds.append(list(items))
            return [script[responses[item]][attempt - 1] for item in items]

        batch = strategy.remap_many(responses, [labels] * len(responses), requery_many)
        assert batch == one_by_one
        assert len(rounds) <= RESAMPLE_K
        # Round a retries exactly the items still unresolved after a - 1.
        unresolved = [i for i, r in enumerate(one_by_one) if r.attempts > 0]
        assert rounds[0] == unresolved
        for attempt, items in enumerate(rounds[1:], start=2):
            assert items == [i for i in unresolved if one_by_one[i].attempts >= attempt]


#: Base generation parameters and their resample permutations, by attempt.
_ATTEMPT_OF = {GenerationParams().permuted(a): a for a in range(RESAMPLE_K + 1)}


class RoundCountingModel(LanguageModel):
    """Answers in-set only from the attempt named in the column's values.

    A column whose cells read ``needs<N>`` gets ``state`` from attempt ``N``
    on and an out-of-set answer before; every ``generate_batch`` call's size
    is recorded.
    """

    name = "round-counting"
    context_window = 2048

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []

    def generate(self, prompt: str, params: GenerationParams | None = None) -> str:
        needed = int(re.search(r"needs(\d)", prompt).group(1))
        attempt = _ATTEMPT_OF[params or GenerationParams()]
        return "state" if attempt >= needed else "no idea"

    def generate_batch(self, prompts, params=None) -> list[str]:
        self.batch_sizes.append(len(prompts))
        return super().generate_batch(prompts, params)


#: Attempt each column needs; 4 is beyond k, so that column maps to null.
_NEEDS = [0, 1, 1, 2, 2, 2, 3, 4, 4, 0]


def _round_workload() -> list[Column]:
    return [
        Column(values=[f"needs{needed} cell{index}-{row}" for row in range(3)])
        for index, needed in enumerate(_NEEDS)
    ]


def _round_annotator(model, remapper="contains+resample") -> ArcheType:
    return ArcheType(ArcheTypeConfig(
        model=model, label_set=LABELS, remapper=remapper,
        resample_k=RESAMPLE_K, sampler="firstk", seed=0,
    ))


class TestResampleRounds:
    """A batch issues one ``generate_batch`` per attempt round, not one per
    requery."""

    @pytest.mark.parametrize("executor", ["batched", "concurrent"])
    def test_one_model_call_per_round(self, executor):
        model = RoundCountingModel()
        annotator = _round_annotator(model)
        results = annotator.annotate_columns(
            _round_workload(), executor=executor,
            **({"workers": 1} if executor == "concurrent" else {}),
        )
        assert [r.label for r in results] == [
            "state" if needed <= RESAMPLE_K else NULL_LABEL for needed in _NEEDS
        ]
        # First attempt, then rounds 1..k over the shrinking unresolved set.
        assert model.batch_sizes == [10, 8, 6, 3]
        assert annotator.engine.stats.n_resamples == 8 + 6 + 3

    def test_rounds_stop_when_every_column_resolves(self):
        model = RoundCountingModel()
        annotator = _round_annotator(model)
        workload = [c for c, needed in zip(_round_workload(), _NEEDS) if needed <= 1]
        annotator.annotate_columns(workload)
        assert model.batch_sizes == [4, 2]

    def test_each_stream_chunk_issues_at_most_k_rounds(self):
        model = RoundCountingModel()
        annotator = _round_annotator(model)
        list(annotator.annotate_stream(_round_workload(), chunk_size=5))
        # Chunk 1 needs 0,1,1,2,2; chunk 2 needs 2,3,4,4,0.
        assert model.batch_sizes == [5, 4, 2, 5, 4, 4, 3]

    def test_sequential_executor_still_requeries_column_by_column(self):
        model = RoundCountingModel()
        annotator = _round_annotator(model)
        annotator.annotate_columns(_round_workload(), executor="sequential")
        assert model.batch_sizes == [1] * (len(_NEEDS) + 8 + 6 + 3)


class RetryOnceRemapper(Remapper):
    """A custom strategy implementing only ``remap``: one retry, exact only."""

    name = "retry-once"

    def remap(self, response, label_set, requery=None):
        matched = exact_match(response, label_set)
        attempts = 0
        if matched is None and requery is not None:
            attempts = 1
            matched = exact_match(requery(1), label_set)
        return RemapResult(
            label=matched if matched is not None else NULL_LABEL,
            original_response=response,
            remapped=matched is not None and matched != response,
            strategy=self.name,
            attempts=attempts,
        )


class TestRemapOnlySubclass:
    """A ``Remapper`` that implements only ``remap`` works under every
    executor, through the default ``remap_many``."""

    def test_every_executor_matches_sequential(self):
        benchmark, columns = _split("sotab-27")

        def annotator():
            return _parity_annotator(benchmark, RetryOnceRemapper())

        reference = annotator()
        expected = [
            (r.label, r.remapped)
            for r in reference.annotate_columns(columns, executor="sequential")
        ]
        assert reference.engine.stats.n_resamples > 0
        for executor_name, executor in _executors().items():
            candidate = annotator()
            with executor if isinstance(executor, ProcessExecutor) else (
                nullcontext()
            ):
                results = candidate.annotate_columns(columns, executor=executor)
            assert [(r.label, r.remapped) for r in results] == expected, executor_name
            assert candidate.engine.stats.n_queries == reference.engine.stats.n_queries
            assert (
                candidate.engine.stats.n_resamples
                == reference.engine.stats.n_resamples
            )

    def test_default_remap_many_requeries_item_by_item(self):
        calls: list[tuple[list[int], int]] = []

        def requery_many(items: Sequence[int], attempt: int) -> list[str]:
            calls.append((list(items), attempt))
            return ["state"] * len(items)

        results = RetryOnceRemapper().remap_many(
            ["state", "nope", "also nope"], [LABELS] * 3, requery_many
        )
        assert [r.label for r in results] == ["state", "state", "state"]
        assert calls == [([1], 1), ([2], 1)]
