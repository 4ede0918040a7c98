"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from perfbench import metrics
from perfbench.service import (
    MAX_REPEAT_GAP, MIN_REQUESTS, SCORED_COLUMNS, UNIQUE_COLUMNS, request_order,
)
from perfbench.spans import Recorder, Span, covered, self_times


def _span(id_, parent, name, start, end, request=None, note=None):
    return Span(id_, parent, name, start, end, request, note)


# ------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "child", 1.0, 3.0),
        _span(3, 2, "grandchild", 1.5, 2.5),
        _span(4, 1, "child", 6.0, 7.0),
    ]
    assert self_times(spans) == pytest.approx({1: 7.0, 2: 1.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    # Two children on other threads overlap in [3, 5]; a third runs past
    # the parent's end.  Only the union inside the parent is subtracted.
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 5.0),
        _span(3, 1, "b", 3.0, 7.0),
        _span(4, 1, "c", 9.0, 12.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_merges_unsorted_and_contained_intervals():
    assert covered([(4.0, 6.0), (0.0, 2.0), (1.0, 1.5), (5.0, 8.0)], 1.0, 7.0) == (
        pytest.approx(1.0 + 3.0)
    )


def test_recorder_links_parents_and_restores_originals():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    original = Layer.__dict__["outer"]
    recorder = Recorder()
    recorder.wrap(Layer, "outer", "outer", lambda args, result: result)
    recorder.wrap(Layer, "inner", "inner")
    with recorder.span("root", request=7):
        assert Layer().outer(3) == 7
    recorder.uninstall()
    assert Layer.__dict__["outer"] is original

    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["root"].id
    assert {span.request for span in recorder.spans} == {7}
    assert by_name["outer"].note == 7


def test_recorder_hands_off_across_threads():
    class Service:
        def parse(self, body):
            return {"body": body}

        def job(self, spec):
            return spec["body"]

    recorder = Recorder()
    recorder.wrap(Service, "parse", "parse", link_result=True)
    recorder.wrap(Service, "job", "job", link_arg=1)
    service = Service()
    with recorder.span("dispatch", request=3):
        spec = service.parse("x")
        worker = threading.Thread(target=service.job, args=(spec,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["job"].parent == by_name["dispatch"].id
    assert by_name["job"].request == 3


def test_recorder_keeps_interleaved_tasks_apart():
    class Handler:
        async def dispatch(self, delay):
            await asyncio.sleep(delay)
            self.step()
            await asyncio.sleep(delay)

        def step(self):
            pass

    recorder = Recorder()
    recorder.wrap(Handler, "dispatch", "dispatch", new_request=True)
    recorder.wrap(Handler, "step", "step")

    async def both():
        handler = Handler()
        await asyncio.gather(handler.dispatch(0.01), handler.dispatch(0.002))

    asyncio.run(both())
    dispatches = {s.id: s for s in recorder.spans if s.name == "dispatch"}
    steps = [s for s in recorder.spans if s.name == "step"]
    assert len(dispatches) == 2 and len(steps) == 2
    for step in steps:
        assert step.request == dispatches[step.parent].request
    assert len({s.request for s in dispatches.values()}) == 2


def test_recorder_spans_each_generator_resumption():
    class Stream:
        def items(self):
            yield from range(3)

    recorder = Recorder()
    recorder.wrap(Stream, "items", "stream")
    assert list(Stream().items()) == [0, 1, 2]
    spans = [s for s in recorder.spans if s.name == "stream"]
    assert len(spans) == 4  # three items and the final resumption
    assert not any(s.error for s in spans)


# ------------------------------------------------------------ percentiles
@pytest.mark.parametrize(
    ("n", "level"),
    [(19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
     (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_level_needs_ten_samples_beyond(n, level):
    assert metrics.tail_level(n) == level


def test_percentile_matches_numpy_interpolation():
    values = list(np.random.default_rng(0).exponential(size=1001))
    for level in ("50", "90", "99", "99.9"):
        assert metrics.percentile(values, level) == pytest.approx(
            np.percentile(values, float(level))
        )


# ------------------------------------------------------------- workloads
def test_request_order_is_deterministic_per_seed():
    assert request_order(200, seed=4) == request_order(200, seed=4)


def test_request_order_moves_repeats_with_the_seed():
    assert request_order(200, seed=4) != request_order(200, seed=5)


def test_request_order_sends_each_column_twice_repeat_later():
    order = request_order(300, seed=1)
    first, second = {}, {}
    for position, index in enumerate(order):
        (second if index in first else first)[index] = position
    assert sorted(first) == sorted(second) == list(range(300))
    assert all(second[i] > first[i] for i in range(300))
    # At most MAX_REPEAT_GAP originals lie between a column's two requests.
    originals = sorted(first.values())
    assert all(
        sum(first[i] < o < second[i] for o in originals) <= MAX_REPEAT_GAP
        for i in range(300)
    )
    # Originals keep index order, so any prefix's unique columns are the
    # first k columns — what the golden query count relies on.
    assert sorted(first, key=first.get) == list(range(300))


@pytest.mark.parametrize("seed", range(1, 11))
def test_every_run_sends_the_scored_columns(seed):
    # Accuracy and tokens are taken over these columns' first requests.
    sent = set(request_order(UNIQUE_COLUMNS, seed)[:MIN_REQUESTS])
    assert set(range(SCORED_COLUMNS)) <= sent


def test_benchmark_order_is_a_seeded_permutation():
    from perfbench.lake import BENCHMARKS, benchmark_order

    assert benchmark_order(2) == benchmark_order(2)
    assert sorted(benchmark_order(2)) == sorted(BENCHMARKS)
    assert len({tuple(benchmark_order(seed)) for seed in range(1, 11)}) > 1


# ---------------------------------------------------------- layer reducer
def test_layer_metrics_service_request_arithmetic():
    spans = [
        _span(1, None, "handlers", 0.000, 0.010, request=1),
        _span(2, 1, "protocol.parse", 0.000, 0.001, request=1),
        _span(3, 1, "admission", 0.001, 0.002, request=1, note=False),
        _span(4, 1, "handlers.job", 0.003, 0.008, request=1),
        _span(5, 4, "scheduler.submit", 0.004, 0.005, request=1),
        _span(6, 4, "scheduler.wait", 0.005, 0.008, request=1),
        _span(7, 6, "model", 0.005, 0.007, request=1, note=1),
        _span(8, 1, "protocol.encode", 0.009, 0.010, request=1),
    ]
    counters = dict.fromkeys(
        ("n_submitted", "n_hits", "n_coalesced", "n_batches", "batch_prompts",
         "n_cross_request_batches", "n_queries"), 1.0,
    )
    values = metrics.layer_metrics(spans, 1, counters, [0.012])
    assert values["handlers.pool_wait_ms_per_request"] == pytest.approx(1.0)
    # dispatch self 10-1-1-5-1 = 2 ms, job self 5-1-3 = 1 ms, minus the wait.
    assert values["handlers.self_ms_per_request"] == pytest.approx(2.0)
    assert values["scheduler.wait_ms_per_prompt"] == pytest.approx(1.0)
    assert values["model.compute_ms_per_column"] == pytest.approx(2.0)
    assert values["server.overhead_ms_per_request"] == pytest.approx(2.0)
    assert values["trace.unattributed_share"] == pytest.approx(2.0 / 12.0)
    assert set(values) == set(metrics.PER_LAYER) - {"trace.overhead_share"}
