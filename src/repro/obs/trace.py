"""Span tracing: record *where PerFlow's own time goes*.

A **span** is one timed region of PerFlow's execution — a pipeline
node, a parallel-view construction phase, a simulated-run stage — with
a name, a category, a monotonic start/end, the recording thread, and
free-form ``args`` (set cardinalities, fixpoint iteration counts, byte
counts).  Spans nest: the recorder keeps a per-thread stack, so a
``node:hotspot`` span recorded while ``pipeline:lammps-loop`` is open
becomes its child.

The module-level :func:`span` helper is what library code calls.  It is
engineered so that **disabled tracing is effectively free**: when no
recorder is installed it performs one global read, one identity check,
and returns a shared no-op span object — no allocation, no clock read,
no kwargs dict is ever inspected.  The overhead guard in
``benchmarks/test_obs_overhead.py`` holds this path to <2% of the
LAMMPS parallel-view paradigm.

Export formats:

* :meth:`SpanRecorder.to_chrome_trace` — the Chrome trace-event JSON
  format (``{"traceEvents": [{"ph": "X", "ts": …, "dur": …}, …]}``),
  loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Timestamps are microseconds relative to the
  first recorded span.
* :meth:`SpanRecorder.to_tree` — an indented console tree with
  durations and args, for quick terminal inspection.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_SPAN",
    "span",
    "timed_span",
    "traced",
    "current_span",
    "enable",
    "disable",
    "enabled",
    "get_recorder",
    "set_recorder",
    "scoped_recorder",
    "get_flight",
    "set_flight",
]


class Span:
    """One recorded region.  Created by :meth:`SpanRecorder.span`.

    Use as a context manager; inside the block, :meth:`set` attaches
    args (``sp.set(out_size=len(result))``).  ``duration`` is valid
    after exit (and live-reads while open).
    """

    __slots__ = (
        "name",
        "category",
        "args",
        "t_start",
        "t_end",
        "tid",
        "children",
        "_recorder",
        "_parent",
    )

    def __init__(
        self,
        recorder: Optional["SpanRecorder"],
        name: str,
        category: Optional[str],
        args: Optional[Dict[str, Any]],
        parent: Optional["Span"] = None,
    ):
        self.name = name
        self.category = category
        self.args: Dict[str, Any] = dict(args) if args else {}
        self.t_start = 0.0
        self.t_end = 0.0
        self.tid = 0
        self.children: List["Span"] = []
        self._recorder = recorder
        self._parent = parent

    # -- annotation --------------------------------------------------------
    def set(self, **args: Any) -> "Span":
        """Attach/overwrite args on the span (chainable)."""
        self.args.update(args)
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __bool__(self) -> bool:
        """True — real spans are truthy, the null span is falsy, so hot
        code can guard expensive annotation with ``if sp: sp.set(…)``."""
        return True

    @property
    def duration(self) -> float:
        """Elapsed seconds (to *now* while the span is still open)."""
        end = self.t_end if self.t_end else time.perf_counter()
        return end - self.t_start if self.t_start else 0.0

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        if self._recorder is not None:
            self._recorder._push(self)
        self.tid = threading.get_ident()
        fl = _flight
        if fl is not None:
            fl.begin(self.name, self.tid)
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.t_end = time.perf_counter()
        fl = _flight
        if fl is not None:
            fl.end(self.name, self.tid)
        if self._recorder is not None:
            self._recorder._pop(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, args={self.args})"


class _NullSpan:
    """Shared, falsy, no-op stand-in used when tracing is disabled.

    All methods are no-ops; a single instance is reused for every
    disabled ``span()`` call, so the disabled path never allocates.
    """

    __slots__ = ()

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: The singleton no-op span returned while tracing is disabled.
NULL_SPAN = _NullSpan()


class _FlightSpan:
    """Falsy span recorded only into the flight-recorder ring.

    Returned by :func:`span` when no full recorder is installed but a
    flight recorder (:mod:`repro.obs.flight`) is — the always-on path.
    Deliberately minimal: no args dict, no parent bookkeeping, no
    per-span clock reads beyond what the ring itself stamps, so the
    always-on overhead stays inside the <2% benchmark guard.
    """

    __slots__ = ("name", "_fl", "_tid")

    def __init__(self, name: str, fl: Any):
        self.name = name
        self._fl = fl

    def set(self, **args: Any) -> "_FlightSpan":
        return self

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0

    def __enter__(self) -> "_FlightSpan":
        self._tid = threading.get_ident()
        self._fl.begin(self.name, self._tid)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._fl.end(self.name, self._tid)


class _TimedSpan(Span):
    """A span that times itself but records nowhere.

    Returned by :func:`timed_span` when tracing is disabled, for call
    sites that *consume* the measured duration (e.g. static analysis
    reporting its own cost) rather than merely contributing it to a
    trace.
    """

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(None, name, None, None)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []


class SpanRecorder:
    """Accumulates spans with per-thread nesting.

    Thread-safe: each thread nests into its own stack; the flat
    ``spans`` list (start order) and every ``children`` mutation are
    guarded by one lock.  Spans started on worker threads would
    normally become per-thread roots; callers that fan work out (the
    wavefront scheduler) pass an explicit ``parent=`` so the worker's
    span still nests under the submitting thread's open span.
    """

    def __init__(self) -> None:
        #: All recorded spans in start order (across threads).
        self.spans: List[Span] = []
        #: Spans with no parent (per-thread roots), in start order.
        self.roots: List[Span] = []
        self._local = _ThreadState()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def span(
        self,
        name: str,
        category: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Create a span attached to this recorder (enter to start it).

        ``parent`` overrides the thread-local nesting: the span becomes
        that span's child regardless of which thread enters it (used
        for cross-thread parenting of scheduler worker spans).
        """
        return Span(self, name, category, args, parent=parent)

    def _push(self, sp: Span) -> None:
        stack = self._local.stack
        with self._lock:
            self.spans.append(sp)
            if sp._parent is not None:
                sp._parent.children.append(sp)
            elif stack:
                stack[-1].children.append(sp)
            else:
                self.roots.append(sp)
        stack.append(sp)

    def _pop(self, sp: Span) -> None:
        stack = self._local.stack
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # pragma: no cover - unbalanced exit
            stack.remove(sp)

    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> List[Span]:
        """All spans with exactly this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def iter_spans(self) -> Iterator[Span]:
        return iter(self.spans)

    # -- export ------------------------------------------------------------
    def to_chrome_trace(
        self,
        process_name: str = "repro",
        metrics: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The Chrome trace-event document (Perfetto-loadable).

        One complete event (``"ph": "X"``) per span, timestamps in
        microseconds relative to the earliest span start, plus process
        and thread name metadata events.  Thread ids are compacted to
        small integers in first-seen order.

        The current metrics snapshot rides along as one extra metadata
        event (``"name": "perflow_metrics"``) so a single Perfetto file
        carries both signals.  ``metrics`` overrides the snapshot (a
        :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` document);
        by default the process-global registry is used.  The event is
        omitted entirely when the snapshot is empty, and the export is
        byte-stable for identical spans + snapshot (metric names are
        sorted, ordering is deterministic).
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        t0 = min((s.t_start for s in self.spans), default=0.0)
        tid_map: Dict[int, int] = {}
        for s in self.spans:
            tid = tid_map.setdefault(s.tid, len(tid_map))
            event: Dict[str, Any] = {
                "name": s.name,
                "cat": s.category or "repro",
                "ph": "X",
                "ts": round((s.t_start - t0) * 1e6, 3),
                "dur": round((s.t_end - s.t_start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
            if s.args:
                event["args"] = _json_args(s.args)
            events.append(event)
        for ident, tid in tid_map.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"thread-{tid} ({ident})"},
                }
            )
        snapshot = metrics
        if snapshot is None:
            from repro.obs.metrics import registry as _registry

            snapshot = _registry.to_dict()
        if any(snapshot.get(k) for k in ("counters", "gauges", "histograms")):
            events.append(
                {
                    "name": "perflow_metrics",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"metrics": snapshot},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @classmethod
    def from_chrome_trace(cls, doc: Dict[str, Any]) -> "SpanRecorder":
        """Rebuild a recorder from a Chrome trace-event document.

        The lossy inverse of :meth:`to_chrome_trace`: timestamps come
        back as seconds re-based at the export origin, thread ids are
        the compacted export ids, and nesting is recovered by interval
        containment per ``(pid, tid)`` track — the same reconstruction
        :mod:`repro.obs.selfpag` uses.  This is what lets
        ``repro obs analyze --tree trace.json`` render a saved trace.
        """
        rec = cls()
        by_track: Dict[Any, List[Dict[str, Any]]] = {}
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") == "X":
                by_track.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
        for track in sorted(by_track, key=repr):
            # Sort by (start, -duration): an enclosing span precedes the
            # children it contains, so a stack of open spans rebuilds
            # the nesting.
            evs = sorted(
                by_track[track],
                key=lambda e: (float(e.get("ts", 0.0)), -float(e.get("dur", 0.0))),
            )
            stack: List[Span] = []
            for ev in evs:
                t0 = float(ev.get("ts", 0.0)) / 1e6
                dur = float(ev.get("dur", 0.0)) / 1e6
                sp = Span(None, str(ev.get("name", "?")), ev.get("cat"), ev.get("args"))
                sp.t_start = t0
                sp.t_end = t0 + dur
                sp.tid = track[1] if isinstance(track[1], int) else 0
                while stack and sp.t_start >= stack[-1].t_end - 1e-12:
                    stack.pop()
                rec.spans.append(sp)
                if stack:
                    sp._parent = stack[-1]
                    stack[-1].children.append(sp)
                else:
                    rec.roots.append(sp)
                stack.append(sp)
        rec.spans.sort(key=lambda s: s.t_start)
        rec.roots.sort(key=lambda s: s.t_start)
        return rec

    def save(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write the Chrome trace-event JSON; returns bytes written."""
        doc = json.dumps(self.to_chrome_trace(), indent=1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return len(doc)

    def to_tree(self, min_ms: float = 0.0) -> str:
        """Indented console tree: durations, names, args.

        ``min_ms`` hides spans shorter than the threshold (their
        children are hidden with them).
        """
        lines: List[str] = []

        def render(sp: Span, depth: int) -> None:
            ms = (sp.t_end - sp.t_start) * 1e3
            if ms < min_ms:
                return
            args = ""
            if sp.args:
                args = "  " + " ".join(f"{k}={v}" for k, v in sp.args.items())
            lines.append(f"{'  ' * depth}{ms:9.3f} ms  {sp.name}{args}")
            for child in sp.children:
                render(child, depth + 1)

        for root in self.roots:
            render(root, 0)
        return "\n".join(lines)


def _json_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """Args coerced to JSON-safe values (repr() for anything exotic)."""
    out: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class NullRecorder:
    """The disabled-mode recorder: every span is :data:`NULL_SPAN`."""

    def span(
        self,
        name: str,
        category: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


_NULL_RECORDER = NullRecorder()
_recorder: Union[SpanRecorder, NullRecorder] = _NULL_RECORDER

#: The installed flight recorder (:class:`repro.obs.flight.FlightRecorder`)
#: or None.  It lives here — not in the flight module — so the
#: :func:`span` fast path can consult it with one module-global read,
#: and so :class:`Span` can tap begin/end events into the ring even
#: when a full recorder is also active (one source of truth, no
#: double-wrapping).
_flight: Optional[Any] = None


def set_flight(flight: Optional[Any]) -> None:
    """Install (or with None, remove) the process flight recorder.

    Called by :func:`repro.obs.flight.enable` / ``disable``; not meant
    for direct use.
    """
    global _flight
    _flight = flight


def get_flight() -> Optional[Any]:
    return _flight


# ----------------------------------------------------------------------
# module-level API (what library code calls)
# ----------------------------------------------------------------------
def span(
    name: str,
    category: Optional[str] = None,
    parent: Optional[Span] = None,
    **args: Any,
):
    """A span on the installed recorder — or the shared no-op when
    tracing is disabled.  This is the instrumentation entry point::

        with obs.span("pv.flows", category="pag", flows=n) as sp:
            ...
            sp.set(edges=pv.num_edges)

    ``parent`` (a :class:`Span`) pins the new span under an explicit
    parent across threads; passing the falsy :data:`NULL_SPAN` or
    ``None`` keeps the default per-thread nesting.
    """
    rec = _recorder
    if rec is _NULL_RECORDER:
        fl = _flight
        if fl is None:
            return NULL_SPAN
        return _FlightSpan(name, fl)
    if parent is not None and not isinstance(parent, Span):
        parent = None  # NULL_SPAN / foreign objects: thread-local nesting
    return rec.span(name, category, parent=parent, **args)


def timed_span(name: str, category: Optional[str] = None, **args: Any) -> Span:
    """Like :func:`span`, but *always* measures wall time.

    For call sites that consume ``sp.duration`` themselves (e.g.
    ``static_analysis`` reporting its measured cost): when tracing is
    enabled the span lands in the trace as usual; when disabled a
    fresh unrecorded span still times the block.
    """
    rec = _recorder
    if rec is _NULL_RECORDER:
        return _TimedSpan(name)
    return rec.span(name, category, **args)


def current_span() -> Union[Span, _NullSpan, None]:
    """The innermost open span on this thread (None/disabled-safe)."""
    return _recorder.current()


def get_recorder() -> Union[SpanRecorder, NullRecorder]:
    return _recorder


def set_recorder(recorder: Union[SpanRecorder, NullRecorder, None]) -> None:
    """Install ``recorder`` (None restores the disabled null recorder)."""
    global _recorder
    _recorder = recorder if recorder is not None else _NULL_RECORDER


def enable(recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Install (and return) a recorder; a fresh one if none is given."""
    rec = recorder if recorder is not None else SpanRecorder()
    set_recorder(rec)
    return rec


def disable() -> Union[SpanRecorder, NullRecorder]:
    """Restore the null recorder; returns the previously installed one."""
    prev = _recorder
    set_recorder(None)
    return prev


def enabled() -> bool:
    return _recorder is not _NULL_RECORDER


class scoped_recorder:
    """Context manager: install a fresh recorder, restore on exit.

    ::

        with obs.scoped_recorder() as rec:
            run_workload()
        rec.save("trace.json")
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._prev: Union[SpanRecorder, NullRecorder, None] = None

    def __enter__(self) -> SpanRecorder:
        self._prev = _recorder
        set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: Any) -> None:
        set_recorder(self._prev)


def traced(
    name_or_fn: Union[str, Callable, None] = None,
    category: Optional[str] = None,
) -> Callable:
    """Decorator form: wrap every call of ``fn`` in a span.

    ``@traced``, ``@traced("custom.name")`` and
    ``@traced(category="runtime")`` all work.  The disabled-mode cost
    is one global read plus a no-op context manager.
    """

    def decorate(fn: Callable, span_name: Optional[str] = None) -> Callable:
        label = span_name or getattr(fn, "__qualname__", fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = _recorder
            if rec is _NULL_RECORDER:
                fl = _flight
                if fl is None:
                    return fn(*args, **kwargs)
                with _FlightSpan(label, fl):
                    return fn(*args, **kwargs)
            with rec.span(label, category):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name_or_fn):
        return decorate(name_or_fn)
    return lambda fn: decorate(fn, name_or_fn)
