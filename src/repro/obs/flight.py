"""Always-on flight recorder: the last N span/log events, cheaply.

The full :class:`~repro.obs.trace.SpanRecorder` keeps every span and is
opt-in (``--trace``); when a run hangs or crashes with tracing off, the
evidence is gone.  The flight recorder is the production answer: a
**preallocated bounded ring buffer** of recent span begin/end and log
events that is cheap enough to leave on for every CLI invocation
(budget: the same <2% guard as disabled tracing, enforced in
``benchmarks/test_obs_overhead.py``).  Old events are overwritten in
place — memory use is fixed at ``capacity`` slots forever.

Integration is a single hook: :func:`enable` installs the ring via
:func:`repro.obs.trace.set_flight`.  When only the flight recorder is
on, ``span()`` returns a falsy ``_FlightSpan`` that taps begin/end into
the ring; when a full recorder is *also* on, real :class:`Span` objects
tap the same ring from ``__enter__``/``__exit__`` — one source of
truth, no double-wrapping.  ``logging`` records on the ``repro.*``
hierarchy are mirrored into the ring by a handler (WARNING and up by
default), so the crash report shows what the library said last.

Two dump triggers, both producing the same crash-report JSON
(:meth:`FlightRecorder.crash_report`):

* **unhandled CLI exception** — ``repro.cli.main`` wraps dispatch and
  writes ``crash-*.json`` under ``$PERFLOW_CRASH_DIR`` (default
  ``.perflow/``) before re-raising;
* **SIGUSR2** — :func:`install_signal_dump` registers a handler for
  live hang diagnosis: ``kill -USR2 <pid>`` snapshots the ring, the
  per-thread active-span stacks, and the metrics registry without
  stopping the process.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import sys
import threading
import time
import traceback as _traceback
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs import trace as _trace

__all__ = [
    "FlightRecorder",
    "enable",
    "disable",
    "enabled",
    "get",
    "crash_dir",
    "install_signal_dump",
    "uninstall_signal_dump",
    "ENV_CRASH_DIR",
    "DEFAULT_CAPACITY",
]

#: Environment override for where crash reports land.
ENV_CRASH_DIR = "PERFLOW_CRASH_DIR"

#: Default ring capacity (events, not spans — a span is two events).
DEFAULT_CAPACITY = 2048

#: Event kinds stored in the ring.
KIND_BEGIN = "B"
KIND_END = "E"
KIND_LOG = "L"

# One ring slot: (seq, wall_time, mono_time, tid, kind, name, detail).
# ``wall_time`` (time.time) orients the reader in calendar time;
# ``mono_time`` (time.perf_counter) is what durations are derived from,
# so an NTP step mid-run cannot produce negative or wildly wrong span
# durations in a crash report.
_Event = Tuple[int, float, float, int, str, str, Optional[str]]


class FlightRecorder:
    """A fixed-capacity ring of recent span begin/end and log events.

    All mutation happens under one lock: a slot write is a tuple store
    plus a counter increment, and the per-thread active-span stacks are
    maintained in the same critical section so a crash report's
    "active spans" view is consistent with its event tail.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[_Event]] = [None] * capacity
        self._n = 0  # total events ever written
        self._stacks: Dict[int, List[str]] = {}
        self._lock = threading.Lock()

    # -- recording (called from repro.obs.trace span enter/exit) -----------
    def begin(self, name: str, tid: int) -> None:
        with self._lock:
            self._ring[self._n % self.capacity] = (
                self._n,
                time.time(),
                time.perf_counter(),
                tid,
                KIND_BEGIN,
                name,
                None,
            )
            self._n += 1
            self._stacks.setdefault(tid, []).append(name)

    def end(self, name: str, tid: int) -> None:
        with self._lock:
            self._ring[self._n % self.capacity] = (
                self._n,
                time.time(),
                time.perf_counter(),
                tid,
                KIND_END,
                name,
                None,
            )
            self._n += 1
            stack = self._stacks.get(tid)
            if stack:
                if stack[-1] == name:
                    stack.pop()
                elif name in stack:  # unbalanced exit; drop the match
                    stack.remove(name)

    def log(self, name: str, message: str, tid: Optional[int] = None) -> None:
        """Record a log line (logger name + rendered message)."""
        if tid is None:
            tid = threading.get_ident()
        with self._lock:
            self._ring[self._n % self.capacity] = (
                self._n,
                time.time(),
                time.perf_counter(),
                tid,
                KIND_LOG,
                name,
                message,
            )
            self._n += 1

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return min(self._n, self.capacity)

    @property
    def total(self) -> int:
        """Events ever written (>= len() once the ring has wrapped)."""
        return self._n

    @property
    def dropped(self) -> int:
        """Events overwritten by ring wrap-around."""
        return max(0, self._n - self.capacity)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first, as JSON-safe dicts.

        END events whose matching BEGIN is still in the retained window
        additionally carry ``dur`` — seconds derived from the monotonic
        stamps (never the wall clock) and clamped at >= 0, so a stepped
        system clock cannot yield a negative span duration.
        """
        with self._lock:
            n = self._n
            if n <= self.capacity:
                raw = [e for e in self._ring[:n]]
            else:
                cut = n % self.capacity
                raw = self._ring[cut:] + self._ring[:cut]
        out: List[Dict[str, Any]] = []
        # Per-thread stacks of (name, mono) for BEGINs seen in-window.
        open_spans: Dict[int, List[Tuple[str, float]]] = {}
        for ev in raw:
            if ev is None:  # pragma: no cover - defensive
                continue
            seq, t, mono, tid, kind, name, detail = ev
            # durations come from the reported stamps, so ``dur`` equals
            # the difference of the two ``mono`` values a reader sees
            mono = round(mono, 6)
            rec: Dict[str, Any] = {
                "seq": seq,
                "t": round(t, 6),
                "mono": mono,
                "tid": tid,
                "kind": kind,
                "name": name,
            }
            if kind == KIND_BEGIN:
                open_spans.setdefault(tid, []).append((name, mono))
            elif kind == KIND_END:
                stack = open_spans.get(tid)
                if stack and stack[-1][0] == name:
                    rec["dur"] = round(max(0.0, mono - stack.pop()[1]), 6)
                elif stack and any(n_ == name for n_, _ in stack):
                    # unbalanced exit: match the innermost same-named begin
                    for i in range(len(stack) - 1, -1, -1):
                        if stack[i][0] == name:
                            rec["dur"] = round(max(0.0, mono - stack[i][1]), 6)
                            del stack[i]
                            break
            if detail is not None:
                rec["detail"] = detail
            out.append(rec)
        return out

    def active_spans(self) -> Dict[str, List[str]]:
        """Open span names per thread id (outermost first)."""
        with self._lock:
            return {
                str(tid): list(stack)
                for tid, stack in sorted(self._stacks.items())
                if stack
            }

    # -- crash reporting -----------------------------------------------------
    def crash_report(
        self, reason: str, exc: Optional[BaseException] = None
    ) -> Dict[str, Any]:
        """The post-mortem document: ring tail + active spans + metrics."""
        import platform

        from repro.obs.metrics import registry as _metrics_registry

        exc_doc: Optional[Dict[str, Any]] = None
        if exc is not None:
            exc_doc = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    _traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
        return {
            "schema": 1,
            "reason": reason,
            "time": time.time(),
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "exception": exc_doc,
            "capacity": self.capacity,
            "events_total": self.total,
            "events_dropped": self.dropped,
            "events": self.events(),
            "active_spans": self.active_spans(),
            "metrics": _metrics_registry.to_dict(),
        }

    def dump_crash_report(
        self,
        directory: Union[str, "os.PathLike[str]", None] = None,
        reason: str = "crash",
        exc: Optional[BaseException] = None,
    ) -> str:
        """Write the crash report atomically; returns the file path.

        ``directory`` defaults to :func:`crash_dir`.  The write goes
        through a temp file + ``os.replace`` so a reader never sees a
        torn report, and the filename embeds pid + nanosecond time so
        concurrent processes never collide.
        """
        root = os.fspath(directory) if directory is not None else crash_dir()
        os.makedirs(root, exist_ok=True)
        fname = f"crash-{reason}-{os.getpid()}-{time.time_ns()}.json"
        path = os.path.join(root, fname)
        doc = json.dumps(self.crash_report(reason, exc), indent=1, sort_keys=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(doc)
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlightRecorder(capacity={self.capacity}, total={self._n})"


class _FlightLogHandler(logging.Handler):
    """Mirrors ``repro.*`` log records into the flight ring."""

    def __init__(self, flight: FlightRecorder, level: int = logging.WARNING):
        super().__init__(level=level)
        self._flight = flight

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._flight.log(record.name, record.getMessage())
        except Exception:  # pragma: no cover - never break the caller
            pass


_log_handler: Optional[_FlightLogHandler] = None
_prev_sigusr2: Any = None
_signal_installed = False


def crash_dir() -> str:
    """Where crash reports go: ``$PERFLOW_CRASH_DIR`` or ``.perflow``."""
    return os.environ.get(ENV_CRASH_DIR) or ".perflow"


def enable(
    capacity: int = DEFAULT_CAPACITY,
    logs: bool = True,
    log_level: int = logging.WARNING,
) -> FlightRecorder:
    """Install (and return) a flight recorder.

    ``logs=True`` also attaches a handler on the ``repro`` logger so
    warnings/errors land in the ring alongside span events.  Re-enabling
    replaces any existing ring (the old one stops receiving events).
    """
    global _log_handler
    fl = FlightRecorder(capacity)
    if logs:
        handler = _FlightLogHandler(fl, level=log_level)
        logger = logging.getLogger("repro")
        if _log_handler is not None:
            logger.removeHandler(_log_handler)
        logger.addHandler(handler)
        _log_handler = handler
    _trace.set_flight(fl)
    return fl


def disable() -> Optional[FlightRecorder]:
    """Remove the flight recorder (and its log handler); returns it."""
    global _log_handler
    fl = _trace.get_flight()
    _trace.set_flight(None)
    if _log_handler is not None:
        logging.getLogger("repro").removeHandler(_log_handler)
        _log_handler = None
    uninstall_signal_dump()
    return fl


def enabled() -> bool:
    return _trace.get_flight() is not None


def get() -> Optional[FlightRecorder]:
    """The installed flight recorder, or None."""
    return _trace.get_flight()


def install_signal_dump(
    directory: Union[str, "os.PathLike[str]", None] = None,
) -> bool:
    """Dump a crash report on SIGUSR2 (live hang diagnosis).

    Returns True when the handler was installed; False on platforms
    without SIGUSR2 (Windows) or off the main thread, where Python
    forbids ``signal.signal``.  The previous handler is restored by
    :func:`uninstall_signal_dump` (called from :func:`disable`).
    """
    global _prev_sigusr2, _signal_installed
    if not hasattr(signal, "SIGUSR2"):
        return False

    def _on_sigusr2(signum: int, frame: Any) -> None:
        fl = _trace.get_flight()
        if fl is not None:
            try:
                fl.dump_crash_report(directory, reason="sigusr2")
            except OSError:  # pragma: no cover - unwritable dump dir
                pass

    try:
        _prev_sigusr2 = signal.signal(signal.SIGUSR2, _on_sigusr2)
    except ValueError:  # not the main thread
        return False
    _signal_installed = True
    return True


def uninstall_signal_dump() -> None:
    """Restore the pre-install SIGUSR2 disposition (no-op otherwise)."""
    global _prev_sigusr2, _signal_installed
    if not _signal_installed:
        return
    try:
        signal.signal(
            signal.SIGUSR2,
            _prev_sigusr2 if _prev_sigusr2 is not None else signal.SIG_DFL,
        )
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _prev_sigusr2 = None
    _signal_installed = False
