"""Tests for the streaming annotation API (ArcheType.annotate_stream)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.querying import QueryEngine
from repro.core.table import Column, Table
from repro.datasets.registry import load_benchmark
from repro.exceptions import ConfigurationError

LABELS = ["state", "person", "url", "number", "text"]


def _annotator(benchmark=None, **overrides) -> ArcheType:
    label_set = benchmark.label_set if benchmark is not None else LABELS
    return ArcheType(ArcheTypeConfig(model="gpt", label_set=label_set, **overrides))


class TestAnnotateStream:
    def test_stream_is_lazy(self):
        """Results are yielded per chunk, before later columns are planned."""
        state = Column(values=["Alaska", "Colorado", "Kentucky", "Nevada", "Texas"])
        consumed: list[int] = []

        def column_source():
            for index in range(6):
                consumed.append(index)
                yield state

        stream = _annotator().annotate_stream(column_source(), chunk_size=2)
        assert consumed == []  # nothing consumed before iteration starts
        first = next(stream)
        assert first.label == "state"
        # Exactly one chunk (plus nothing else) has been pulled from the source.
        assert consumed == [0, 1]

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_stream_matches_batched_labels(self, chunk_size):
        benchmark = load_benchmark("sotab-27", n_columns=30, seed=3)
        columns = [bc.column for bc in benchmark.columns]
        reference = [
            r.label for r in _annotator(benchmark, seed=1).annotate_columns(columns)
        ]
        streamed = [
            r.label
            for r in _annotator(benchmark, seed=1).annotate_stream(
                iter(columns), chunk_size=chunk_size
            )
        ]
        assert streamed == reference

    def test_stream_with_concurrent_executor(self):
        benchmark = load_benchmark("d4-20", n_columns=24, seed=6)
        columns = [bc.column for bc in benchmark.columns]
        reference = [
            r.label for r in _annotator(benchmark, seed=0).annotate_columns(columns)
        ]
        streamed = [
            r.label
            for r in _annotator(benchmark, seed=0).annotate_stream(
                iter(columns), chunk_size=8, executor="concurrent", workers=4
            )
        ]
        assert streamed == reference

    def test_stream_shared_table_uses_global_column_indices(self, small_table):
        """Chunking must not reset the shared-table column index."""
        annotator = _annotator()
        streamed = list(
            annotator.annotate_stream(
                small_table.columns, table=small_table, chunk_size=2
            )
        )
        reference_annotator = _annotator()
        reference = reference_annotator.annotate_columns(
            small_table.columns, table=small_table
        )
        assert [r.label for r in streamed] == [r.label for r in reference]
        assert [r.prompt.text if r.prompt else None for r in streamed] == \
            [r.prompt.text if r.prompt else None for r in reference]

    def test_stream_with_per_column_tables(self, state_column, url_column):
        tables = [
            Table(columns=[state_column], name="a.csv"),
            Table(columns=[url_column], name="b.csv"),
        ]
        results = list(
            _annotator().annotate_stream(
                iter([state_column, url_column]),
                tables=iter(tables),
                column_indices=iter([0, 0]),
                chunk_size=1,
            )
        )
        assert len(results) == 2
        assert results[0].label == "state"

    def test_stream_rejects_nonpositive_chunk(self):
        with pytest.raises(ConfigurationError):
            list(_annotator().annotate_stream(iter([]), chunk_size=0))

    def test_stream_short_tables_iterable_raises_cleanly(self, state_column):
        """A short tables/column_indices iterable must raise ConfigurationError,
        not an opaque PEP-479 'generator raised StopIteration' RuntimeError."""
        columns = [state_column, state_column, state_column]
        with pytest.raises(ConfigurationError, match="one entry per"):
            list(_annotator().annotate_stream(
                iter(columns), tables=iter([None]), chunk_size=1
            ))
        with pytest.raises(ConfigurationError, match="one entry per"):
            list(_annotator().annotate_stream(
                iter(columns), column_indices=iter([0, 0]), chunk_size=2
            ))

    def test_stream_empty_source(self):
        assert list(_annotator().annotate_stream(iter([]))) == []


class TestSharedEngineStreams:
    """Streams over one engine, as the service runs them."""

    def test_concurrent_streams_over_one_engine_lose_no_update(self):
        """Stress: more streams than cores over one shared engine with a tiny
        switch interval, so resample rounds of different streams interleave
        in the scheduler; no label or stage count drifts."""
        benchmark = load_benchmark("d4-20", n_columns=20, seed=4)
        columns = [bc.column for bc in benchmark.columns]
        expected = [
            r.label for r in _annotator(benchmark, seed=2).annotate_columns(columns)
        ]
        engine = QueryEngine(_annotator(benchmark, seed=2).model)
        annotators = [
            ArcheType(
                ArcheTypeConfig(model="gpt", label_set=benchmark.label_set, seed=2),
                engine=engine,
            )
            for _ in range(6)
        ]
        labels: dict[int, list[str]] = {}

        def drive(index: int) -> None:
            stream = annotators[index].annotate_stream(iter(columns), chunk_size=3)
            labels[index] = [r.label for r in stream]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(len(annotators))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert labels == {i: expected for i in range(len(annotators))}
        for annotator in annotators:
            stages = annotator.stats.snapshot()
            assert stages["sample"]["calls"] == len(columns)
            assert stages["remap"]["calls"] == stages["query"]["calls"]
