"""In-memory span recording around the program's layer functions.

The benchmark never edits ``src/``.  Instead, :meth:`Recorder.install`
replaces the public functions that mark each layer boundary (planner stages,
scheduler submit/wait, model calls, store reads/writes, remapping, the HTTP
handlers) with thin wrappers that record one :class:`Span` per call, and
:meth:`Recorder.uninstall` puts the originals back.  Spans stay in a list
until the run ends; :func:`self_times` then subtracts from each span the
part of its interval that its children cover.

The parent of a span is whatever span is current in the calling context
(a :class:`contextvars.ContextVar`, so interleaved asyncio tasks keep their
own stacks).  Work that hops threads — the service hands a parsed request
to a worker thread — is linked explicitly: the span that produced an object
registers it, and the span that consumes it on the other thread takes the
producer's parent and request id.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence

Note = Callable[[tuple, Any], Any]


class Span(NamedTuple):
    """One timed call: ``[start, end]`` on the ``perf_counter`` clock.

    ``request`` groups the spans of one unit of work (a lake pass or an HTTP
    request); ``note`` carries a per-call outcome (a rule hit, a store hit,
    the number of prompts in a model call); ``error`` marks a call that
    raised.
    """

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int | None = None
    note: Any = None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _overrides(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` concretely."""
    found: list[type] = []
    stack = [base]
    seen: set[type] = set()
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        value = cls.__dict__.get(attr)
        if value is not None and not getattr(value, "__isabstractmethod__", False):
            found.append(cls)
    return found


class Recorder:
    """Collects spans for one process; install once, dump once."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int, int | None] | None] = (
            contextvars.ContextVar(f"perfbench-span-{id(self)}", default=None)
        )
        self._links: dict[int, tuple[int, int | None]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def new_request(self) -> int:
        return next(self._requests)

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """Record a span around a ``with`` block (the benchmark's own roots)."""
        current = self._current.get()
        parent = current[0] if current else None
        if request is None and current:
            request = current[1]
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(span_id, parent, name, start, end, request))

    def _call(
        self,
        name: str,
        func: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        note: Note | None,
        link: tuple[int, int | None] | None,
        new_request: bool,
    ) -> Any:
        current = link or self._current.get()
        parent = current[0] if current else None
        request = current[1] if current else None
        if new_request:
            request = self.new_request()
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        error = False
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        except StopIteration:
            raise
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            noted = None if note is None or error else note(args, result)
            self.spans.append(
                Span(span_id, parent, name, start, end, request, noted, error)
            )

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        note: Note | None = None,
        *,
        new_request: bool = False,
        link_result: bool = False,
        link_arg: int | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``new_request`` starts a request id (the root of one unit of work);
        ``link_result`` registers the returned object as a hand-off to
        another thread, and ``link_arg`` names the positional argument whose
        registered hand-off becomes this span's parent.
        """
        original = getattr(owner, attr)
        recorder = self

        def link_for(args: tuple) -> tuple[int, int | None] | None:
            if link_arg is None or len(args) <= link_arg:
                return None
            return recorder._links.pop(id(args[link_arg]), None)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                request = recorder.new_request() if new_request else None
                with recorder.span(name, request):
                    return await original(*args, **kwargs)

            replacement: object = async_wrapper
        elif inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                # One span per resumption: the consumer's code between
                # yields is not the generator's time.
                generator = original(*args, **kwargs)
                while True:
                    try:
                        item = recorder._call(
                            name, next, (generator,), {}, None, None, False
                        )
                    except StopIteration:
                        return
                    yield item

            replacement = gen_wrapper
        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                current = recorder._current.get()
                result = recorder._call(
                    name, original, args, kwargs, note, link_for(args), new_request
                )
                if link_result and current is not None:
                    recorder._links[id(result)] = current
                return result

            replacement = wrapper
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_overrides(
        self, base: type, attr: str, name: str, note: Note | None = None
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
        for cls in _overrides(base, attr):
            self.wrap(cls, attr, name, note)

    def install(self) -> None:
        """Wrap every layer boundary of the program (see the module docs)."""
        import repro.core.plan as plan_module
        import repro.service.handlers as handlers
        from repro.core.executor import Executor
        from repro.core.pipeline import ArcheType
        from repro.core.plan import ColumnPlanner
        from repro.core.querying import QueryEngine
        from repro.core.remapping import Remapper
        from repro.core.rules import RuleSet
        from repro.core.sampling import ContextSampler
        from repro.core.scheduler import RequestScheduler
        from repro.core.serialization import PromptSerializer
        from repro.core.store import ResponseStore
        from repro.llm.base import LanguageModel
        from repro.llm.simulated import SimulatedLLM
        from repro.llm.tokenizer import SimpleTokenizer
        from repro.service.admission import AdmissionController

        self.wrap_overrides(ContextSampler, "sample", "sampling")
        self.wrap(RuleSet, "apply", "rules", lambda a, r: r is not None)
        self.wrap(plan_module, "build_feature_strings", "features")
        self.wrap(PromptSerializer, "serialize", "serialization")
        self.wrap(SimpleTokenizer, "count", "tokenizer")
        self.wrap(ColumnPlanner, "plan", "plan")
        self.wrap_overrides(Executor, "execute", "executor")
        self.wrap(ArcheType, "__init__", "pipeline.build")
        self.wrap(ArcheType, "annotate_columns", "pipeline")
        self.wrap(ArcheType, "annotate_stream", "pipeline")
        self.wrap(RequestScheduler, "submit", "scheduler.submit")
        self.wrap(RequestScheduler, "wait", "scheduler.wait")
        self.wrap_overrides(
            LanguageModel, "generate_batch", "model", lambda a, r: len(a[1])
        )
        self.wrap(SimulatedLLM, "_simulate_round_trip", "model.rtt")
        self.wrap_overrides(
            Remapper, "remap", "remapping", lambda a, r: bool(r.remapped)
        )
        self.wrap(QueryEngine, "requery", "remapping.requery")
        self.wrap_overrides(
            ResponseStore, "get", "store.get", lambda a, r: r is not None
        )
        self.wrap_overrides(ResponseStore, "put", "store.put")
        self.wrap(
            handlers, "parse_annotation_request", "protocol.parse",
            link_result=True,
        )
        self.wrap(handlers, "json_response", "protocol.encode")
        self.wrap(
            AdmissionController, "try_admit", "admission",
            lambda a, r: not r.admitted,
        )
        self.wrap(handlers.ServiceState, "dispatch", "handlers", new_request=True)
        self.wrap(handlers.ServiceState, "annotate_job", "handlers.job", link_arg=1)
        self.wrap(handlers.ServiceState, "build_annotator", "handlers.build")

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output
    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON document (once, at the end)."""
        Path(path).write_text(json.dumps([list(span) for span in self.spans]))


def load_spans(path: str | Path) -> list[Span]:
    return [Span(*row) for row in json.loads(Path(path).read_text())]


def covered(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may run concurrently (overlapping each other) or on another
    thread; only the union of their intervals inside the parent counts.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
