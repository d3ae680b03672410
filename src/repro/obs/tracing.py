"""Query-lifecycle spans, distributed trace context and Chrome export.

A :class:`Tracer` records wall-clock :class:`Span`\\ s with parent/child
nesting — ``ingest``, ``clean_cells``, ``sdist``, ``xshuffle_dedup``,
``refine`` and friends — while the existing
:class:`~repro.simgpu.trace.GpuTrace` records simulated kernel and
transfer events.  :func:`write_chrome_trace` merges both into one
Chrome-trace JSON (two process tracks: ``cpu`` and ``gpu (simulated)``)
loadable in Perfetto / ``chrome://tracing``, which is how one answers
"why was *this* query slow?".

Every span additionally carries a **trace identity**: a 128-bit trace id
shared by the whole tree plus a 64-bit span id, modelled on the W3C
Trace Context ``traceparent`` header.  :class:`TraceContext` is the
wire form: the cluster router encodes its probe span's context and each
shard's :class:`~repro.server.server.QueryServer` decodes it, so one
scatter-gathered kNN query renders as a single trace tree (router span,
per-shard probe spans, ladder-rung spans, merge span) no matter how many
serving components it crossed.  See DESIGN.md §13.

Instrumentation sites in the hot paths use the module-level
:func:`span` function, which is a single global read plus a shared
no-op context manager when no tracer is active — zero allocations, so
the library pays nothing when observability is off.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ConfigError
from repro.simgpu.trace import GpuTrace

_TRACE_ID_BITS = 128
_SPAN_ID_BITS = 64


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagated identity of one span, W3C ``traceparent`` style.

    ``encode()`` produces ``"00-<32 hex trace id>-<16 hex span id>-<2
    hex flags>"`` and :meth:`decode` parses it back; the pair is the
    wire protocol between the cluster router and its shards (and any
    future remote hop).  Ids are non-zero per the W3C spec — an all-zero
    id means "no context" there, so we reject it too.
    """

    trace_id: int
    span_id: int
    sampled: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.trace_id < (1 << _TRACE_ID_BITS):
            raise ConfigError(f"trace_id out of range: {self.trace_id}")
        if not 0 < self.span_id < (1 << _SPAN_ID_BITS):
            raise ConfigError(f"span_id out of range: {self.span_id}")

    @property
    def trace_id_hex(self) -> str:
        return f"{self.trace_id:032x}"

    @property
    def span_id_hex(self) -> str:
        return f"{self.span_id:016x}"

    def encode(self) -> str:
        """The ``traceparent`` header form of this context."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id_hex}-{self.span_id_hex}-{flags}"

    @classmethod
    def decode(cls, header: str) -> "TraceContext":
        """Parse an :meth:`encode`\\ d header.

        Raises:
            ConfigError: malformed version, field widths, non-hex
                digits, or all-zero ids.
        """
        parts = header.split("-")
        if len(parts) != 4:
            raise ConfigError(f"malformed trace context {header!r}")
        version, trace_hex, span_hex, flags = parts
        if version != "00":
            raise ConfigError(f"unsupported trace context version {version!r}")
        if len(trace_hex) != 32 or len(span_hex) != 16 or len(flags) != 2:
            raise ConfigError(f"malformed trace context {header!r}")
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
            flag_bits = int(flags, 16)
        except ValueError:
            raise ConfigError(f"non-hex trace context {header!r}") from None
        if trace_id == 0 or span_id == 0:
            raise ConfigError(f"all-zero id in trace context {header!r}")
        return cls(trace_id, span_id, sampled=bool(flag_bits & 1))


@dataclass(slots=True)
class Span:
    """One timed section of work, possibly nested inside a parent."""

    name: str
    start_s: float
    end_s: float = 0.0
    depth: int = 0
    parent: "Span | None" = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: distributed trace identity: the tree-wide trace id, this span's
    #: own id and its parent's (None on a trace root); assigned by the
    #: tracer when the span is pushed
    trace_id: int = 0
    span_id: int = 0
    parent_span_id: int | None = None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    @property
    def trace_id_hex(self) -> str:
        return f"{self.trace_id:032x}"

    @property
    def context(self) -> TraceContext:
        """This span's propagatable :class:`TraceContext`."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def traceparent(self) -> str:
        """This span's encoded context, the header a child joins with."""
        return self.context.encode()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class _NullSpan:
    """Shared do-nothing span used when no tracer is active.

    It answers :class:`Span`'s identity reads with ``None``, so a
    caller hands its ``traceparent`` on and stamps its ``trace_id_hex``
    without asking whether tracing is on.
    """

    __slots__ = ()
    traceparent = None
    trace_id_hex = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None


NULL_SPAN = _NullSpan()

#: The tracer instrumentation sites publish to (None = tracing off).
_ACTIVE: "Tracer | None" = None


def current_tracer() -> "Tracer | None":
    return _ACTIVE


def span(name: str, attrs: dict[str, Any] | None = None):
    """Open a span on the active tracer, or a shared no-op when none.

    Call with ``attrs=None`` on hot paths: the inactive case then costs
    one global read and allocates nothing.
    """
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, attrs)


def current_context() -> TraceContext | None:
    """The context of the innermost open span on the active tracer."""
    if _ACTIVE is None or not _ACTIVE._stack:
        return None
    return _ACTIVE._stack[-1].context


class _SpanHandle:
    """Context manager pairing one Span with its tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_: Span) -> None:
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer._pop(self._span)

    def set_attr(self, key: str, value: Any) -> None:
        self._span.attrs[key] = value


class _RootHandle(_SpanHandle):
    """A span handle that also makes its tracer the active one."""

    __slots__ = ("_previous",)

    def __enter__(self) -> Span:
        global _ACTIVE
        self._tracer._push(self._span)
        self._previous = _ACTIVE
        _ACTIVE = self._tracer
        return self._span

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        try:
            self._tracer._pop(self._span)
        finally:
            _ACTIVE = self._previous


def root_span(
    tracer: "Tracer | None",
    name: str,
    attrs: dict[str, Any] | None = None,
    parent: "TraceContext | str | None" = None,
):
    """Open an operation's outermost span on ``tracer``.

    Inside the span ``tracer`` is the active tracer, so the module-level
    :func:`span` calls beneath it record into the same tree; the
    previously active tracer is restored on exit, even when the body
    raises.  ``parent`` joins a propagated context, as in
    :meth:`Tracer.span`.  With no tracer this is the shared
    :data:`NULL_SPAN`, so one body serves traced and untraced runs.
    """
    if tracer is None:
        return NULL_SPAN
    return _RootHandle(tracer, tracer._new_span(name, attrs, parent))


class Tracer:
    """Records a tree of wall-clock spans relative to its creation.

    Trace identity: a span opened with an empty stack and no remote
    parent starts a fresh trace (new trace id); nested spans inherit the
    enclosing span's trace id; a span opened with ``parent=`` (a
    :class:`TraceContext` or its encoded header) joins that remote
    trace.  Ids are drawn from deterministic per-tracer counters so
    replays produce stable trace ids.

    When a root span closes (the stack empties), the completed tree is
    handed to ``on_trace_complete`` — the hook the flight recorder's
    ring buffer feeds from.

    Example:
        >>> tracer = Tracer()
        >>> with tracer.span("query", {"k": 4}):
        ...     with tracer.span("sdist"):
        ...         pass
        >>> [s.name for s in tracer.spans], tracer.spans[1].depth
        (['query', 'sdist'], 1)
        >>> tracer.spans[0].trace_id == tracer.spans[1].trace_id
        True
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: list[Span] = []  # completed-or-open, in start order
        self._stack: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._root_index = 0  # index into spans where the open trace began
        #: called with the list of spans of each completed trace tree
        self.on_trace_complete: Callable[[list[Span]], None] | None = None

    # -- recording -----------------------------------------------------
    def span(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        parent: "TraceContext | str | None" = None,
    ) -> _SpanHandle:
        """Open a span; ``parent`` joins a propagated remote context."""
        return _SpanHandle(self, self._new_span(name, attrs, parent))

    def _new_span(
        self,
        name: str,
        attrs: dict[str, Any] | None,
        parent: "TraceContext | str | None",
    ) -> Span:
        s = Span(name=name, start_s=self._clock() - self._epoch)
        if attrs:
            s.attrs.update(attrs)
        if parent is not None:
            ctx = TraceContext.decode(parent) if isinstance(parent, str) else parent
            s.trace_id = ctx.trace_id
            s.parent_span_id = ctx.span_id
        return s

    def _push(self, s: Span) -> None:
        s.span_id = next(self._span_ids)
        if self._stack:
            s.parent = self._stack[-1]
            s.depth = s.parent.depth + 1
            if s.trace_id == 0:  # no remote parent: inherit in-process
                s.trace_id = s.parent.trace_id
                s.parent_span_id = s.parent.span_id
        else:
            self._root_index = len(self.spans)
            if s.trace_id == 0:
                s.trace_id = next(self._trace_ids)
        self._stack.append(s)
        self.spans.append(s)

    def _pop(self, s: Span) -> None:
        if not self._stack or self._stack[-1] is not s:
            raise ConfigError(f"span {s.name!r} closed out of order")
        s.end_s = self._clock() - self._epoch
        self._stack.pop()
        if not self._stack and self.on_trace_complete is not None:
            self.on_trace_complete(self.spans[self._root_index:])

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer the target of module-level :func:`span`."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._root_index = 0
        self._epoch = self._clock()

    # -- reporting -----------------------------------------------------
    def total_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration_s
        return totals

    def to_chrome_events(self, pid: int = 1) -> list[dict[str, Any]]:
        """Complete-duration (``ph: X``) events, microsecond timestamps.

        Each event's ``args`` carries the span's trace identity, so a
        trace id taken from a histogram exemplar or a slow-query entry
        can be searched for in Perfetto directly.
        """
        return [_chrome_event(s, pid) for s in self.spans]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _chrome_event(s: Span, pid: int) -> dict[str, Any]:
    args: dict[str, Any] = {k: _jsonable(v) for k, v in s.attrs.items()}
    args["trace_id"] = s.trace_id_hex
    args["span_id"] = f"{s.span_id:016x}"
    if s.parent_span_id is not None:
        args["parent_span_id"] = f"{s.parent_span_id:016x}"
    return {
        "name": s.name,
        "cat": "cpu",
        "ph": "X",
        "ts": s.start_s * 1e6,
        "dur": s.duration_s * 1e6,
        "pid": pid,
        "tid": 0,
        "args": args,
    }


def spans_to_chrome_events(spans: list[Span], pid: int = 1) -> list[dict[str, Any]]:
    """Chrome events for an arbitrary span list (flight-recorder dumps)."""
    return [_chrome_event(s, pid) for s in spans]


_GPU_PID = 0
_CPU_PID = 1


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer | None = None,
    gpu_trace: GpuTrace | None = None,
) -> Path:
    """Write one merged Chrome-trace JSON for a traced query (or run).

    CPU spans land on the ``cpu`` process track (wall-clock time) and
    GPU kernel/transfer events on the ``gpu (simulated)`` track
    (simulated time); both tracks start at 0 so the phase *structure*
    lines up even though the clocks differ (DESIGN.md §2 explains why
    simulated and wall time cannot share an axis).
    """
    if tracer is None and gpu_trace is None:
        raise ConfigError("need a tracer and/or a gpu trace to export")
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _CPU_PID,
            "args": {"name": "cpu"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _GPU_PID,
            "args": {"name": "gpu (simulated)"},
        },
    ]
    if tracer is not None:
        events.extend(tracer.to_chrome_events(pid=_CPU_PID))
    if gpu_trace is not None:
        events.extend(
            {
                "name": e.name,
                "cat": e.category,
                "ph": "X",
                "ts": e.start_s * 1e6,
                "dur": e.duration_s * 1e6,
                "pid": _GPU_PID,
                "tid": {"kernel": 0, "h2d": 1, "d2h": 2}.get(e.category, 3),
                "args": {k: _jsonable(v) for k, v in e.detail.items()},
            }
            for e in gpu_trace.events
        )
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events}))
    return path
