"""Metric names and units, the percentile rule, and the per-layer reducer.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
``run.py`` prints exactly these names.  Layers a workload does not exercise
(the HTTP layers on ``lake-cold``, the store on ``service-columns``)
report ``0.0``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Sequence

from perfbench.spans import Span, self_times

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "columns_per_s": "col/s",
    "cpu_ms_per_column": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "accuracy": "share",
    "prompt_tokens_per_column": "tokens/column",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    "sampling.ms_per_column": "ms",
    "rules.ms_per_column": "ms",
    "rules.hit_share": "share",
    "features.ms_per_column": "ms",
    "serialization.self_ms_per_column": "ms",
    "tokenizer.ms_per_column": "ms",
    "tokenizer.calls_per_column": "calls/column",
    "plan.self_ms_per_column": "ms",
    "executor.self_ms_per_column": "ms",
    "pipeline.self_ms_per_column": "ms",
    "pipeline.build_ms_per_annotator": "ms",
    "scheduler.submit_ms_per_prompt": "ms",
    "scheduler.wait_ms_per_prompt": "ms",
    "scheduler.batch_size_mean": "prompts/batch",
    "scheduler.lookup_hit_share": "share",
    "scheduler.coalesced_share": "share",
    "scheduler.cross_request_batch_share": "share",
    "model.queries_per_column": "queries/column",
    "model.calls_per_column": "calls/column",
    "model.prompts_per_call": "prompts/call",
    "model.compute_ms_per_column": "ms",
    "model.rtt_ms_per_column": "ms",
    "model.errors": "count",
    "remapping.self_ms_per_column": "ms",
    "remapping.remapped_share": "share",
    "remapping.requeries_per_column": "requeries/column",
    "store.get_ms_per_call": "ms",
    "store.put_ms_per_call": "ms",
    "store.gets_per_column": "gets/column",
    "store.puts_per_column": "puts/column",
    "store.get_hit_share": "share",
    "store.errors": "count",
    "protocol.parse_ms_per_request": "ms",
    "protocol.encode_ms_per_request": "ms",
    "admission.admit_ms_per_request": "ms",
    "admission.rejected": "count",
    "handlers.pool_wait_ms_per_request": "ms",
    "handlers.self_ms_per_request": "ms",
    "server.overhead_ms_per_request": "ms",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER: tuple[str, ...] = ("50", "90", "99", "99.9")
#: Samples a reported percentile needs beyond it.
TAIL_BEYOND = 10


def tail_level(n_samples: int) -> str | None:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples above it.

    Exact arithmetic: ``n * (100 - p) / 100 >= TAIL_BEYOND`` with ``p`` parsed as
    a fraction, so 1000 samples support p99 and 10000 support p99.9.
    """
    best = None
    for level in TAIL_LADDER:
        if n_samples * (100 - Fraction(level)) / 100 >= TAIL_BEYOND:
            best = level
    return best


def percentile(values: Sequence[float], level: str | float) -> float:
    """Linear-interpolated percentile (the same rule as ``numpy.percentile``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = float(level) / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    columns: int,
    counters: Mapping[str, float],
    client_latencies_s: Sequence[float] = (),
) -> dict[str, float]:
    """Reduce traced spans and program counters to the per-layer metrics.

    ``counters`` holds the scheduler's own counts summed over the traced
    phase (``n_submitted``, ``n_hits``, ``n_coalesced``, ``n_batches``,
    ``batch_prompts``, ``n_cross_request_batches``, ``n_queries``).
    ``client_latencies_s`` is given for the service: the HTTP requests as
    the client timed them, one per column.  ``trace.overhead_share`` needs
    an untraced run and is left to the caller.
    """
    selfs = self_times(spans)
    names = {span.id: span.name for span in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def outermost(name: str) -> list[Span]:
        return [s for s in by_name[name] if names.get(s.parent) != name]

    def self_ms(*layer_names: str, requests: set[int] | None = None) -> float:
        return 1000 * sum(
            selfs[s.id]
            for name in layer_names
            for s in by_name[name]
            if requests is None or s.request in requests
        )

    def dur_ms(name: str, requests: set[int] | None = None) -> float:
        return 1000 * sum(
            s.duration
            for s in by_name[name]
            if requests is None or s.request in requests
        )

    def per_column(value: float) -> float:
        return _ratio(value, columns)

    rules = outermost("rules")
    model_calls = outermost("model")
    remaps = outermost("remapping")
    gets, puts = by_name["store.get"], by_name["store.put"]
    n_submit = len(by_name["scheduler.submit"])

    # The service's annotate requests are the ones that reached a worker.
    jobs = {s.request: s for s in by_name["handlers.job"]}
    requests = set(jobs)
    admits = {s.request: s for s in by_name["admission"] if s.request in requests}
    pool_wait_ms = 1000 * sum(
        jobs[r].start - admits[r].end for r in requests if r in admits
    )
    n_requests = len(requests)
    dispatch_ms = dur_ms("handlers", requests)
    latency_ms = 1000 * sum(client_latencies_s)

    metrics = {
        "sampling.ms_per_column": per_column(self_ms("sampling")),
        "rules.ms_per_column": per_column(self_ms("rules")),
        "rules.hit_share": _ratio(sum(bool(s.note) for s in rules), len(rules)),
        "features.ms_per_column": per_column(self_ms("features")),
        "serialization.self_ms_per_column": per_column(self_ms("serialization")),
        "tokenizer.ms_per_column": per_column(self_ms("tokenizer")),
        "tokenizer.calls_per_column": per_column(len(by_name["tokenizer"])),
        "plan.self_ms_per_column": per_column(self_ms("plan")),
        "executor.self_ms_per_column": per_column(self_ms("executor")),
        "pipeline.self_ms_per_column": per_column(self_ms("pipeline")),
        "pipeline.build_ms_per_annotator": _ratio(
            dur_ms("pipeline.build"), len(by_name["pipeline.build"])
        ),
        "scheduler.submit_ms_per_prompt": _ratio(
            self_ms("scheduler.submit"), n_submit
        ),
        "scheduler.wait_ms_per_prompt": _ratio(self_ms("scheduler.wait"), n_submit),
        "scheduler.batch_size_mean": _ratio(
            counters["batch_prompts"], counters["n_batches"]
        ),
        "scheduler.lookup_hit_share": _ratio(
            counters["n_hits"], counters["n_submitted"]
        ),
        "scheduler.coalesced_share": _ratio(
            counters["n_coalesced"], counters["n_submitted"]
        ),
        "scheduler.cross_request_batch_share": _ratio(
            counters["n_cross_request_batches"], counters["n_batches"]
        ),
        "model.queries_per_column": per_column(counters["n_queries"]),
        "model.calls_per_column": per_column(len(model_calls)),
        "model.prompts_per_call": _ratio(
            sum(s.note or 0 for s in model_calls), len(model_calls)
        ),
        "model.compute_ms_per_column": per_column(self_ms("model")),
        "model.rtt_ms_per_column": per_column(dur_ms("model.rtt")),
        "model.errors": float(sum(s.error for s in by_name["model"])),
        "remapping.self_ms_per_column": per_column(
            self_ms("remapping", "remapping.requery")
        ),
        "remapping.remapped_share": _ratio(
            sum(bool(s.note) for s in remaps), len(remaps)
        ),
        "remapping.requeries_per_column": per_column(
            len(by_name["remapping.requery"])
        ),
        "store.get_ms_per_call": _ratio(dur_ms("store.get"), len(gets)),
        "store.put_ms_per_call": _ratio(dur_ms("store.put"), len(puts)),
        "store.gets_per_column": per_column(len(gets)),
        "store.puts_per_column": per_column(len(puts)),
        "store.get_hit_share": _ratio(sum(bool(s.note) for s in gets), len(gets)),
        "store.errors": float(sum(s.error for s in gets + puts)),
        "protocol.parse_ms_per_request": _ratio(
            dur_ms("protocol.parse", requests), n_requests
        ),
        "protocol.encode_ms_per_request": _ratio(
            dur_ms("protocol.encode", requests), n_requests
        ),
        "admission.admit_ms_per_request": _ratio(
            dur_ms("admission", requests), n_requests
        ),
        "admission.rejected": float(sum(bool(s.note) for s in by_name["admission"])),
        "handlers.pool_wait_ms_per_request": _ratio(pool_wait_ms, n_requests),
        "handlers.self_ms_per_request": _ratio(
            self_ms("handlers", "handlers.job", "handlers.build", requests=requests)
            - pool_wait_ms,
            n_requests,
        ),
        "server.overhead_ms_per_request": _ratio(
            latency_ms - dispatch_ms, n_requests
        ),
    }
    if client_latencies_s:
        # Inside a request everything below dispatch is a layer's self time;
        # what the spans miss is the HTTP framing, sockets and the client.
        metrics["trace.unattributed_share"] = _ratio(
            latency_ms - dispatch_ms, latency_ms
        )
    else:
        metrics["trace.unattributed_share"] = _ratio(
            self_ms("bench.pass"), dur_ms("bench.pass")
        )
    return metrics


def breakdown(
    spans: Sequence[Span], requests: set[int] | None = None
) -> dict[str, float]:
    """Self time per span name over the request trees, in seconds.

    Only spans on a unit of work's path carry a request id, so background
    work (the service's drainer thread) is left out and the shares add up to
    the traced wall.  ``requests`` narrows the trees to those ids.
    """
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.request is not None and (
            requests is None or span.request in requests
        ):
            totals[span.name] += selfs[span.id]
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
