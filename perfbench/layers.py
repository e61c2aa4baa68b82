"""Outside-in layer tracing for the benchmark's traced runs.

Nothing under ``src/`` records these spans.  :func:`install` rebinds,
for the duration of one traced run, the name each calling module uses
for a layer's public function (``repro.dataflow.api.run_program``,
``repro.pag.views.analyze``, ...) to a wrapper that records a span and
the layer's work counts.  :func:`uninstall` puts the originals back.

Spans live in memory (:class:`Recorder`) and are written out once, when
the run ends, as Chrome trace-event JSON that ``repro obs analyze``
opens, so PerFlow's own hotspot pass ranks the benchmark's layers.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run_id", "tid")

    def __init__(self, sid: int, name: str, parent: Optional[int], run_id: str) -> None:
        self.sid = sid
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.run_id = run_id
        self.tid = threading.get_ident()

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            sp = Span(len(self.spans), name, stack[-1].sid if stack else None, self.run_id)
            self.spans.append(sp)
        stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- derived figures ----------------------------------------------------
    def children(self, sp: Span) -> List[Span]:
        return [c for c in self.spans if c.parent == sp.sid]

    def self_ms(self, sp: Span) -> float:
        """``sp``'s duration minus the part its child spans cover."""
        covered = 0.0
        reach = sp.start
        for c in sorted(self.children(sp), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (sp.end - sp.start - covered) * 1e3

    def total_ms(self, name: str) -> float:
        return sum(sp.ms for sp in self.spans if sp.name == name)

    def total_self_ms(self, prefix: str) -> float:
        return sum(self.self_ms(sp) for sp in self.spans if sp.name.startswith(prefix))

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "counts": dict(self.counts),
            "spans": [
                [sp.sid, sp.name, sp.start, sp.end, sp.parent, sp.tid] for sp in self.spans
            ],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Recorder":
        rec = cls(doc["run_id"])
        rec.counts = dict(doc["counts"])
        for sid, name, start, end, parent, tid in doc["spans"]:
            sp = Span(sid, name, parent, rec.run_id)
            sp.start, sp.end, sp.tid = start, end, tid
            rec.spans.append(sp)
        return rec


def chrome_trace(recorders: List[Recorder]) -> Dict[str, Any]:
    """One Chrome trace document; each recorded run is its own ``pid``."""
    events: List[Dict[str, Any]] = []
    for pid, rec in enumerate(recorders, start=1):
        t0 = min((sp.start for sp in rec.spans), default=0.0)
        tids: Dict[int, int] = {}
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": rec.run_id}}
        )
        for sp in rec.spans:
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((sp.start - t0) * 1e6, 3),
                "dur": round((sp.end - sp.start) * 1e6, 3),
                "pid": pid,
                "tid": tids.setdefault(sp.tid, len(tids)),
                "args": {"run_id": sp.run_id},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- the layer boundaries ---------------------------------------------------

def _memory_mb(pag: Any) -> float:
    st = pag.memory_stats()
    total = sum(st["structural"].values()) + st["strings"]
    total += sum(st["vertex_columns"].values()) + sum(st["edge_columns"].values())
    return total / 2**20


def _count_run(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("runtime.comm_events", len(result.comm_events))
    rec.count("runtime.lock_events", len(result.lock_events))


def _count_ir(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("ir.vertices", result.pag.num_vertices)


def _count_pv(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("pag.parallel_view_vertices", result.num_vertices)
    rec.count("pag.parallel_view_edges", result.num_edges)
    rec.count("pag.parallel_view_mb", _memory_mb(result))


def _count_sgm(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("algorithms.subgraph_embeddings", len(result))


def _count_flow(rec: Recorder, result: Any, args: tuple) -> None:
    rec.count("dataflow.nodes", args[0].num_nodes)


Counter = Optional[Callable[[Recorder, Any, tuple], None]]

#: (calling module, name bound there, span name, counter).  A dotted
#: name is a method looked up on a class of that module.
BOUNDARIES: List[Tuple[str, str, str, Counter]] = [
    ("repro.cli", "_build", "apps.build", None),
    ("repro.dataflow.api", "run_program", "runtime.run_program", _count_run),
    ("repro.dataflow.api", "build_top_down_view", "pag.top_down", None),
    ("repro.pag.views", "analyze", "ir.analyze", _count_ir),
    ("repro.pag.views", "embed_samples", "pag.embed", None),
    ("repro.dataflow.api", "build_parallel_view", "pag.parallel_view", _count_pv),
    ("repro.dataflow.api", "PerFlow.instances", "pag.instances", None),
    ("repro.dataflow.graph", "PerFlowGraph.run", "dataflow.run", _count_flow),
    ("repro.paradigms.mpi_profiler", "comm_filter", "passes.comm_filter", None),
    ("repro.paradigms.mpi_profiler", "hotspot_detection", "passes.hotspot", None),
    ("repro.dataflow.api", "hotspot_detection", "passes.hotspot", None),
    ("repro.dataflow.api", "differential_analysis", "passes.differential", None),
    ("repro.dataflow.api", "causal_analysis", "passes.causal", None),
    ("repro.dataflow.api", "contention_detection", "passes.contention", None),
    ("repro.dataflow.api", "critical_path_analysis", "passes.critical_path", None),
    ("repro.passes.critical", "critical_path", "algorithms.critical_path", None),
    ("repro.passes.contention", "subgraph_matching", "algorithms.subgraph_matching",
     _count_sgm),
    ("repro.paradigms", "mpi_profiler_paradigm", "paradigms.mpi_profiler", None),
    ("repro.paradigms", "critical_path_paradigm", "paradigms.critical_path", None),
    ("repro.paradigms", "branching_diagnosis_paradigm", "paradigms.contention", None),
]


def _wrap(rec: Recorder, fn: Callable, name: str, counter: Counter) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        sp = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(sp)
        if counter is not None:
            counter(rec, result, args)
        return result

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Rebind every boundary to a recording wrapper; returns the undo."""
    undo: List[Tuple[Any, str, Any]] = []
    for module, attr, name, counter in BOUNDARIES:
        owner: Any = importlib.import_module(module)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[leaf]
        undo.append((owner, leaf, original))
        setattr(owner, leaf, _wrap(rec, original, name, counter))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall
