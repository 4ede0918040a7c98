"""The ``service-columns`` workload: ``repro serve`` under closed-loop load.

The server runs as a child process with its defaults (no store) plus a
10 ms simulated model round trip.  Two client threads, each holding one
keep-alive connection, send single-column ``POST /v1/annotate`` requests
and wait for each reply before sending the next (a closed loop: callers
that wait, two of them because the box has two cores).  The requests walk
one seeded order over a fixed split of ``sotab-27`` columns in which every
column is sent twice, the repeat at a random later position, so repeats
meet the shared scheduler's LRU or coalesce onto an identical request in
flight.  Requests carry no seed or sample size, so the server's defaults
apply.

Golden labels come afterwards, outside every timed interval: an
instant-model in-process run of the columns actually sent, one fresh
annotator per request over one shared engine built from the server's
default ``ServiceConfig`` (what the server does), with the sequential
executor.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import metrics
from perfbench.spans import load_spans
from perfbench.system import cpu_seconds, peak_rss_mb

BENCHMARK = "sotab-27"
#: Seed of the fixed split; ``--seed`` only moves the repeats.
DATA_SEED = 0
#: 20000 requests: about three times what the unmodified server answers in
#: a 30 s run, so a faster server still runs for the whole measured phase.
UNIQUE_COLUMNS = 10000
MAX_REPEAT_GAP = 64
CONNECTIONS = 2
RTT_S = 0.010
SETUPS = 7
#: p99 needs 1000 requests (10 beyond it).  Every run sends at least this
#: prefix of the order.
MIN_REQUESTS = 2000
#: Original ``i`` sits at position ``<= 2 * i``, so the prefix above holds
#: the first request for each of these columns whatever the seed; accuracy
#: and prompt tokens are taken over them and are the same on every run.
SCORED_COLUMNS = MIN_REQUESTS // 2
TAIL_LEVEL = "99"
_ANNOUNCE = re.compile(r"listening on http://[^:\s]+:(\d+)")


def request_order(n_unique: int, seed: int) -> list[int]:
    """Column indices in send order: each twice, the repeat later.

    Originals go in index order; each repeat lands a seeded random 1 to
    ``MAX_REPEAT_GAP`` originals after its own.
    """
    rng = np.random.default_rng([seed, n_unique])
    gaps = rng.integers(1, MAX_REPEAT_GAP + 1, size=n_unique)
    keyed = [(float(i), i) for i in range(n_unique)]
    keyed += [(i + float(gaps[i]) + 0.5, i) for i in range(n_unique)]
    return [index for _, index in sorted(keyed)]


@dataclass
class Sent:
    """One request as the client saw it."""

    index: int
    start: float
    end: float
    status: int
    label: str | None


class Server:
    """A server child process, from spawn to drained exit."""

    def __init__(self, command: list[str], root: Path, log: Path) -> None:
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, str(root), env.get("PYTHONPATH")) if p
        )
        self._log = open(log, "w")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=self._log, text=True,
                env=env, cwd=str(root),
            )
        except BaseException:
            self._log.close()
            raise
        try:
            self.port = self._await_port(started + 60)
            self._await_healthy(started + 60)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = stdout.readline() if ready else ""
        match = _ANNOUNCE.search(line)
        if match is None:
            raise RuntimeError(f"server did not announce a port (got {line!r})")
        return int(match.group(1))

    def _await_healthy(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; the exit code must be 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        finally:
            self._close()

    def kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=60)
        self._close()

    def _close(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def drive(port: int, bodies: list[bytes], order: list[int], seconds: float,
          min_requests: int) -> list[Sent]:
    """Closed loop over ``order`` from ``CONNECTIONS`` keep-alive clients."""
    lock = threading.Lock()
    sent: list[Sent] = []
    cursor = [0]
    deadline = time.perf_counter() + seconds

    def take() -> int | None:
        with lock:
            index = cursor[0]
            done = index >= len(order) or (
                time.perf_counter() >= deadline and len(sent) >= min_requests
            )
            if done:
                return None
            cursor[0] += 1
            return index

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while (position := take()) is not None:
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/v1/annotate", body=bodies[order[position]],
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    payload, status = b"", 0
                end = time.perf_counter()
                label = json.loads(payload).get("label") if status == 200 else None
                with lock:
                    sent.append(Sent(position, start, end, status, label))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 170)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return sorted(sent, key=lambda s: s.index)


class ServiceWorkload:
    """Inputs, server lifecycle, load and checks of ``service-columns``."""

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        from repro.datasets.registry import load_benchmark

        self.workdir = workdir
        self.root = root
        self.rtt_s = RTT_S
        benchmark = load_benchmark(
            BENCHMARK, n_columns=UNIQUE_COLUMNS, seed=DATA_SEED
        )
        self.label_set = list(benchmark.label_set)
        self.columns = [bc.column for bc in benchmark.columns]
        self.truth = [bc.label for bc in benchmark.columns]
        self.bodies = [
            json.dumps({
                "column": {"name": column.name, "values": list(column.values)},
                "label_set": self.label_set,
            }).encode()
            for column in self.columns
        ]
        self.order = request_order(len(self.columns), seed)
        self.failures: list[str] = []
        self.ops_failed = 0
        self._servers = 0

    # ---------------------------------------------------------------- server
    def _spawn(self, traced: bool) -> Server:
        self._servers += 1
        args = ["--port", "0", "--model-latency", str(self.rtt_s)]
        if traced:
            spans = self.workdir / "spans.json"
            command = [sys.executable, str(self.root / "perfbench" / "serve_traced.py"),
                       str(spans), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        return Server(command, self.root, self.workdir / f"server-{self._servers}.log")

    def _load(self, server: Server, seconds: float, min_requests: int) -> dict:
        """Drive one server, then read its counters and stop it."""
        try:
            cpu_before = cpu_seconds(server.process.pid)
            sent = drive(server.port, self.bodies, self.order, seconds, min_requests)
            cpu = cpu_seconds(server.process.pid) - cpu_before
            rss = peak_rss_mb(server.process.pid)
            stats = server.get_json("/stats")
        finally:
            code = server.stop()
        if code != 0:
            self.failures.append(f"server exited with code {code}")
        tokens = self._check(sent, stats)
        return {"sent": sent, "cpu_s": cpu, "rss_mb": rss, "stats": stats,
                "tokens": tokens}

    # ---------------------------------------------------------------- checks
    def _golden(self, n_sent: int) -> tuple[dict[int, str], dict[int, int], int]:
        """Labels and prompt tokens per column sent, and the unique prompts."""
        from repro.core.pipeline import ArcheType, ArcheTypeConfig
        from repro.core.querying import QueryEngine
        from repro.llm.registry import get_model
        from repro.service.config import ServiceConfig

        config = ServiceConfig()
        engine = QueryEngine(get_model(config.model, seed=config.seed))
        labels: dict[int, str] = {}
        tokens: dict[int, int] = {}
        for index in self.order[:n_sent]:
            if index in labels:
                continue
            annotator = ArcheType(
                ArcheTypeConfig(
                    model=engine.model, label_set=self.label_set,
                    sample_size=config.sample_size, seed=config.seed,
                ),
                engine=engine,
            )
            [result] = annotator.annotate_columns(
                [self.columns[index]], executor="sequential"
            )
            labels[index] = result.label
            tokens[index] = result.prompt.token_count if result.prompt else 0
        return labels, tokens, engine.stats.n_queries

    def _check(self, sent: list[Sent], stats: dict) -> dict[int, int]:
        """Gate the run against the golden run; its prompt tokens per column."""
        n_sent = len(sent)
        if [s.index for s in sent] != list(range(n_sent)):
            self.failures.append("requests sent are not a prefix of the order")
        labels, tokens, unique_prompts = self._golden(n_sent)
        bad_status = sum(s.status != 200 for s in sent)
        if bad_status:
            self.failures.append(f"{bad_status} responses were not 200")
        wrong = sum(
            s.status == 200 and s.label != labels[self.order[s.index]] for s in sent
        )
        if wrong:
            self.failures.append(f"{wrong} labels differ from golden")
        queries = stats["queries"]["n_queries"]
        if queries != unique_prompts:
            self.failures.append(
                f"server made {queries} model queries, golden unique prompts "
                f"{unique_prompts}"
            )
        self.ops_failed += bad_status + wrong
        return tokens

    def _score(self, sent: list[Sent], tokens: dict[int, int]) -> tuple[float, float]:
        """Accuracy and prompt tokens per column over the scored columns."""
        first: dict[int, Sent] = {}
        for s in sent:
            first.setdefault(self.order[s.index], s)
        scored = range(SCORED_COLUMNS)
        accuracy = statistics.fmean(first[i].label == self.truth[i] for i in scored)
        return accuracy, statistics.fmean(tokens[i] for i in scored)

    # --------------------------------------------------------------- results
    def end_to_end(self, seconds: float) -> tuple[dict[str, float], dict]:
        setups = []
        for _ in range(SETUPS - 1):
            server = self._spawn(traced=False)
            setups.append(server.setup_s)
            if server.stop() != 0:
                self.failures.append("server did not exit 0 after set-up")
        server = self._spawn(traced=False)
        setups.append(server.setup_s)
        run = self._load(server, seconds, MIN_REQUESTS)
        sent: list[Sent] = run["sent"]
        latencies = [s.end - s.start for s in sent]
        wall = max(s.end for s in sent) - min(s.start for s in sent)
        accuracy, tokens_per_column = self._score(sent, run["tokens"])
        values = {
            "setup_s": statistics.median(setups),
            "columns_per_s": len(sent) / wall,
            "cpu_ms_per_column": 1000 * run["cpu_s"] / len(sent),
            "latency_p50_ms": 1000 * metrics.percentile(latencies, 50),
            "latency_tail_ms": 1000 * metrics.percentile(latencies, TAIL_LEVEL),
            "accuracy": accuracy,
            "prompt_tokens_per_column": tokens_per_column,
            "peak_rss_mb": run["rss_mb"],
        }
        info = {
            "ops_attempted": len(sent),
            "ops_succeeded": sum(s.status == 200 for s in sent),
            "ops_failed": self.ops_failed,
            "setups": len(setups),
            "latency_samples": len(latencies),
            "latency_unit": "one single-column request",
            "latency_tail_percentile": TAIL_LEVEL,
            "latency_tail_supported": metrics.tail_level(len(latencies)),
            "connections": CONNECTIONS,
            "model_queries_per_column": run["stats"]["queries"]["n_queries"] / len(sent),
            "scheduler": run["stats"]["scheduler"],
        }
        return values, info

    def traced(self, seconds: float) -> tuple[dict[str, float], dict]:
        """Half the time against a plain server, half against a traced one."""
        plain = self._load(self._spawn(traced=False), seconds / 2, 0)
        traced = self._load(self._spawn(traced=True), seconds / 2, 0)
        spans = load_spans(self.workdir / "spans.json")
        sent: list[Sent] = traced["sent"]
        latencies = [s.end - s.start for s in sent]
        stats = traced["stats"]
        scheduler, queries = stats["scheduler"], stats["queries"]
        histogram = scheduler["batch_size_histogram"]
        counters = {
            "n_submitted": scheduler["n_submitted"],
            "n_hits": queries["n_cache_hits"] + queries["n_store_hits"]
            + queries["n_inflight_hits"],
            "n_coalesced": scheduler["n_coalesced"],
            "n_batches": scheduler["n_batches"],
            "batch_prompts": sum(int(k) * v for k, v in histogram.items()),
            "n_cross_request_batches": scheduler["n_cross_request_batches"],
            "n_queries": queries["n_queries"],
        }
        values = metrics.layer_metrics(spans, len(sent), counters, latencies)
        plain_latency = statistics.fmean(s.end - s.start for s in plain["sent"])
        values["trace.overhead_share"] = statistics.fmean(latencies) / plain_latency - 1
        wall = sum(latencies)
        requests = {s.request for s in spans if s.name == "handlers.job"}
        shares = metrics.breakdown(spans, requests)
        shares["server.overhead"] = wall - sum(
            s.duration for s in spans if s.name == "handlers" and s.request in requests
        )
        info = {
            "ops_attempted": len(plain["sent"]) + len(sent),
            "ops_succeeded": sum(
                s.status == 200 for s in plain["sent"] + sent
            ),
            "ops_failed": self.ops_failed,
            "requests_untraced": len(plain["sent"]),
            "requests_traced": len(sent),
            "spans": len(spans),
            "traced_wall_s": wall,
            "breakdown_share_of_wall": {
                name: seconds_ / wall for name, seconds_ in shares.items()
            },
        }
        return values, info
