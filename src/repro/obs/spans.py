"""Request spans: a per-connection trace context for the live stack.

A :class:`Tracer` mints one trace per accepted connection; handlers
open a child span per request, and the layers a request crosses --
parse, authorize, queue-wait, transfer, storage commit -- each record
a timed child span.  The result is a span *tree* that answers "why was
this request slow?" with the same vocabulary across all five wire
protocols.

Propagation is deliberately low-tech: the active span is kept on a
thread-local stack (one thread serves a request end to end, so this
is exact), and a layer that is handed work on one thread and may
finish it on another -- the transfer manager -- takes the parent span
explicitly.  Code deep in the stack (storage, ACL, lots) does not need a
tracer reference at all: :func:`maybe_span` opens a child of whatever
span is active, and is a no-op costing one thread-local read when
nothing is being traced.

Finished spans land in a bounded :class:`SpanRecorder` ring; the
management endpoint and the Chrome trace exporter read from there.

Recording every request's tree is not free, so the live server *head
samples*: :meth:`Tracer.head_sample` decides once per request, and a
request left out pushes an :class:`UnsampledSpan` marker instead of a
span -- every ``child`` of it is the shared null span, so the layers
below record nothing without being told.  What the marker remembers is
the request's status, so an error is still seen and kept.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from collections import deque
from typing import Any, Iterable, Optional

__all__ = [
    "Span",
    "SpanRecorder",
    "Tracer",
    "UnsampledSpan",
    "annotate",
    "current_span",
    "current_trace_context",
    "format_trace_context",
    "maybe_span",
    "parse_trace_context",
    "spans_from_dicts",
]


#: Wall-clock seconds at ``perf_counter()`` zero: a span reads one clock
#: and derives its epoch ``start`` from it.
PERF_EPOCH = time.time() - time.perf_counter()


class Span:
    """One timed operation inside a trace.

    ``start`` is epoch seconds (for cross-host correlation), while the
    duration is measured with ``perf_counter`` so it is monotonic and
    sub-millisecond accurate; both come from one ``perf_counter`` read
    (``start`` via :data:`PERF_EPOCH`).  Attributes are a small flat dict --
    protocol, op, user class, outcome, byte counts, fault and retry
    annotations.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start",
                 "duration", "attributes", "status", "_recorder", "_t0")

    def __init__(self, trace_id: str, span_id: str, name: str,
                 parent_id: str | None = None,
                 recorder: "SpanRecorder | None" = None,
                 attributes: dict[str, Any] | None = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._t0 = t0 = time.perf_counter()
        self.start = PERF_EPOCH + t0
        self.duration: float | None = None
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self._recorder = recorder

    # -- annotation --------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        self.attributes.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Increment a numeric attribute (retry counts, fault counts)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount
        return self

    # -- lifecycle ---------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.duration is not None

    def end(self, status: str | None = None) -> "Span":
        """Close the span (idempotent) and hand it to the recorder."""
        if self.duration is not None:
            return self
        self.duration = time.perf_counter() - self._t0
        if status is not None:
            self.status = status
        if self._recorder is not None:
            self._recorder.record(self)
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span in the same trace."""
        return Span(self.trace_id, _next_span_id(), name,
                    parent_id=self.span_id, recorder=self._recorder,
                    attributes=attrs)

    def child_at(self, name: str, start: float, duration: float, *,
                 status: str = "ok", **attrs: Any) -> "Span":
        """Record a retroactive child whose timing was measured
        elsewhere (a kept request that head sampling had left out)."""
        span = Span(self.trace_id, _next_span_id(), name,
                    parent_id=self.span_id, recorder=self._recorder,
                    attributes=attrs)
        span.start = start
        span.duration = duration
        span.status = status
        if self._recorder is not None:
            self._recorder.record(span)
        return span

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _pop(self)
        self.end(status="error" if exc_type is not None else None)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.2f}ms" if self.ended else "open"
        return f"<Span {self.name!r} trace={self.trace_id} {state}>"


class _NullSpan:
    """The do-nothing span :func:`maybe_span` yields when no trace is
    active; every annotation method is a cheap no-op."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self

    def end(self, status: str | None = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class UnsampledSpan:
    """What a request head sampling left out pushes instead of its
    ``request`` span: one small object, no id, nothing recorded.

    Its children are :data:`NULL_SPAN`, so ``maybe_span`` and every
    ``parent.child(...)`` below it cost nothing further; ``end`` keeps
    only the status, so an in-band error (``mark_request_error``) still
    reaches the request scope, which then records the request after
    all."""

    __slots__ = ("status",)

    def __init__(self) -> None:
        self.status = "ok"

    def child(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def set(self, **attrs: Any) -> "UnsampledSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "UnsampledSpan":
        return self

    def end(self, status: str | None = None) -> "UnsampledSpan":
        if status is not None:
            self.status = status
        return self

    def __enter__(self) -> "UnsampledSpan":
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _pop(self)
        self.end(status="error" if exc_type is not None else None)


class SpanRecorder:
    """Bounded ring of finished spans (newest last), thread-safe.

    ``dropped`` counts exactly the spans pushed out of the full ring."""

    def __init__(self, limit: int = 4096):
        self.limit = limit
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=limit)
        self.dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.limit:
                self.dropped += 1
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """Snapshot of recorded spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> list[Span]:
        """Every recorded span of one trace, oldest first."""
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# id generation and thread-local propagation
# ----------------------------------------------------------------------
_ids = itertools.count(1)


def _next_span_id() -> str:
    # next() on an itertools.count is atomic under the GIL
    return f"{next(_ids):08x}"


_active = threading.local()


def _stack() -> list[Span]:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    return stack


def _push(span: Span) -> None:
    _stack().append(span)


def _pop(span: Span) -> None:
    stack = _stack()
    if stack and stack[-1] is span:
        stack.pop()
    elif span in stack:  # unbalanced exit; drop it anyway
        stack.remove(span)


def current_span() -> Optional[Span]:
    """The innermost active span on this thread, or None."""
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None


def maybe_span(name: str, **attrs: Any):
    """A child span of the active span, or a shared no-op.

    This is the instrumentation point for layers without a tracer
    reference (storage manager, ACL checks, lot accounting): inside a
    traced request it yields a real child span; outside one it costs a
    thread-local read and returns the null span.
    """
    parent = current_span()
    if parent is None:
        return NULL_SPAN
    return parent.child(name, **attrs)


def annotate(key: str, amount: float = 1) -> None:
    """Increment a numeric attribute on the active span, if any.

    Used by the retry and fault layers to stamp "this request saw N
    retries / M injected faults" onto whatever is being traced.
    """
    span = current_span()
    if span is not None:
        span.add(key, amount)


class Tracer:
    """Mints traces and root spans bound to one recorder, and makes the
    head-sampling decision: one request in ``trace_every`` has its tree
    recorded."""

    #: Head sampling (ROADMAP 4(b): a budgeted telemetry cost): the live
    #: server records the span tree of one request in this many.  Errors,
    #: requests slower than the ``request_latency_p99`` SLO threshold and
    #: requests carrying a wire trace context are recorded regardless;
    #: metrics count every request.  A test or drive that inspects every
    #: tree sets it to 1 on its server's tracer instance.
    trace_every = 32

    def __init__(self, recorder: SpanRecorder | None = None,
                 service: str = "nest"):
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self.service = service
        self._trace_ids = itertools.count(1)
        self._requests = itertools.count()

    def _next_trace_id(self) -> str:
        return f"{self.service}-{next(self._trace_ids):06d}"

    def head_sample(self) -> bool:
        """Whether the request about to be served records its span
        tree: a deterministic 1 in ``trace_every`` (the first request
        always), never an RNG.  Errors, slow requests and requests
        carrying a trace context are kept by the caller regardless."""
        return next(self._requests) % self.trace_every == 0

    def start_trace(self, name: str, **attrs: Any) -> Span:
        """A new root span beginning a fresh trace."""
        return Span(self._next_trace_id(), _next_span_id(), name,
                    recorder=self.recorder, attributes=attrs)

    def span(self, name: str, parent: Span | None = None,
             **attrs: Any) -> Span:
        """A span under ``parent`` (or the thread's active span, or a
        fresh trace when neither exists)."""
        parent = parent or current_span()
        if parent is not None:
            return parent.child(name, **attrs)
        return self.start_trace(name, **attrs)

    def adopt(self, name: str, trace_id: str, parent_span_id: str,
              **attrs: Any) -> Span:
        """A span continuing a trace started in *another* process.

        The remote caller's span becomes the parent: the trace_id is
        theirs, the span id is freshly minted here, and the resulting
        tree stitches across the wire when traces from both processes
        are merged.
        """
        return Span(trace_id, _next_span_id(), name,
                    parent_id=parent_span_id, recorder=self.recorder,
                    attributes=attrs)


# ----------------------------------------------------------------------
# wire-format trace context
# ----------------------------------------------------------------------
#: The one serialized form of a trace context: ``<trace_id>:<span_id>``.
#: Chirp carries it as a tagged trailing argument (``tc=<token>``) and
#: HTTP as the ``X-Repro-Trace`` header.  The grammar is deliberately
#: tight so a garbled or foreign token is ignored rather than adopted.
_TRACE_CONTEXT_RE = re.compile(
    r"^(?P<trace>[A-Za-z0-9][A-Za-z0-9._-]{0,127})"
    r":(?P<span>[A-Za-z0-9]{1,32})$")


def format_trace_context(span: Span) -> str:
    """Serialize ``span`` as the wire trace-context token."""
    return f"{span.trace_id}:{span.span_id}"


def parse_trace_context(token: Any) -> tuple[str, str] | None:
    """Parse a wire token into ``(trace_id, parent_span_id)``.

    Returns None for anything malformed -- old peers, proxies, or
    hand-typed requests must degrade to an untraced request, never to
    an error.
    """
    if not isinstance(token, str):
        return None
    match = _TRACE_CONTEXT_RE.match(token)
    if match is None:
        return None
    return match.group("trace"), match.group("span")


def current_trace_context() -> str | None:
    """The active span's wire token, or None when nothing is traced
    (or the request was left out by head sampling).

    Protocol clients call this right before serializing a request; the
    one thread-local read keeps untraced hot paths free of overhead.
    """
    span = current_span()
    if span is None or type(span) is UnsampledSpan:
        return None
    return format_trace_context(span)


def spans_from_dicts(records: Iterable[dict]) -> list[Span]:
    """Rebuild :class:`Span` objects from :meth:`Span.to_dict` records.

    The shard control plane ships spans between processes as plain
    dicts (picklable, version-tolerant); the parent rebuilds them here
    so the merged-trace exporter can treat local and shipped spans
    uniformly.  Unfinished or malformed records are skipped.
    """
    spans: list[Span] = []
    for rec in records:
        if not isinstance(rec, dict):
            continue
        trace_id = rec.get("trace_id")
        span_id = rec.get("span_id")
        duration = rec.get("duration")
        if not trace_id or not span_id or duration is None:
            continue
        span = Span(str(trace_id), str(span_id), str(rec.get("name", "?")),
                    parent_id=rec.get("parent_id"),
                    attributes=rec.get("attributes") or {})
        span.start = float(rec.get("start", 0.0))
        span.duration = float(duration)
        span.status = str(rec.get("status", "ok"))
        spans.append(span)
    return spans
