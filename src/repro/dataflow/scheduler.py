"""Wavefront scheduler: the one execution core behind ``PerFlowGraph.run``.

The PerFlowGraph is a DAG whose edges always point from lower to higher
node ids (construction order guarantees acyclicity), so the classic
dependency-counting wavefront applies directly: every node carries a
count of unfinished dependencies; nodes whose count is zero form the
*ready set*; each completion decrements its dependents' counts and
releases the newly ready ones.  :func:`run_wavefront` owns that core —
one dependency count, one ready heap, one first-error rule and one
cache probe — and drives it one of two ways:

* ``jobs == 1`` (or a one-node graph) executes each ready node inline
  on the calling thread.  Without a cost model the heap pops in node-id
  order, which is exactly the serial topological sweep.
* ``jobs > 1`` submits ready nodes to a ``ThreadPoolExecutor``, so
  independent branches of the pipeline — the very structure the paper's
  dataflow abstraction exposes — execute concurrently, while chains
  still serialize on their data dependencies.

Either way the semantics are those of the serial sweep:

* **Same results.**  Each node runs exactly once with the same resolved
  input values, so the ``{name: output}`` mapping is value-identical
  (pure passes).  Fixpoint nodes iterate inside a single worker to the
  same ``_stable_key`` fixed point.
* **Deterministic first error.**  The serial sweep surfaces the failing
  node with the smallest node id whose dependencies all succeeded
  (everything after it never runs).  After a failure the wavefront keeps
  executing only nodes with a *smaller* id than the best failure seen so
  far (only those can precede it serially — every dependency edge points
  id-upward), then re-raises the winning node's original exception.
  Nodes downstream of a failure, and ready nodes with larger ids, are
  cancelled without running.
* **Same observability.**  One ``node:<name>`` span per node, parented
  under the ``pipeline:<name>`` span across threads; pool runs tag each
  node span with the executing ``worker`` and publish the gauges
  ``dataflow.scheduler.jobs`` and ``dataflow.scheduler.ready_max`` (the
  widest observed wavefront) and the counter
  ``dataflow.scheduler.nodes_parallel`` (nodes executed by the pool).

Thread-safety contract: passes run concurrently only when they are
dependency-independent, so any pass that touches shared mutable state
must synchronize it.  The built-in set passes are pure readers of the
columnar PAG (bulk numpy reads are shared-read-safe), which is why the
built-in paradigms can opt in wholesale.

``jobs`` resolution (:func:`resolve_jobs`): an explicit argument wins,
then the ``PERFLOW_JOBS`` environment variable, then ``1`` (serial).

**Cost-ordered scheduling**: when a ``cost_model`` is supplied —
anything with a ``cost(name) -> seconds`` method, e.g.
:meth:`repro.obs.ledger.Ledger.cost_model`, or a plain name→seconds
mapping — the ready heap orders by *descending measured cost* instead
of node id, so the longest-running independent nodes start first and
the critical path shrinks (classic LPT list scheduling).  Results and
the deterministic first error are unaffected: ordering among ready
nodes was never observable in outputs, and error selection still picks
the smallest failing node id.
"""

from __future__ import annotations

import heapq
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.graph import PerFlowGraph

__all__ = ["ENV_JOBS", "resolve_jobs", "run_wavefront"]

#: Environment variable supplying the default worker count.
ENV_JOBS = "PERFLOW_JOBS"

_LOG = get_logger("dataflow.scheduler")


def resolve_jobs(jobs: Any = None) -> int:
    """Resolve a ``jobs`` request to a worker count (``>= 1``).

    ``None`` falls back to the ``PERFLOW_JOBS`` environment variable,
    and to ``1`` (serial execution) when that is unset or empty.
    Anything that is not a positive integer raises ``ValueError`` — a
    silently clamped typo would mask the difference between "serial on
    purpose" and "parallel as configured".
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_JOBS} must be a positive integer, got {raw!r}"
            ) from None
        if jobs < 1:
            raise ValueError(f"{ENV_JOBS} must be >= 1, got {jobs}")
        return jobs
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _lookup_cost(cost_model: Any, name: str) -> float:
    """Measured cost (seconds) of a node name; 0.0 when unknown.

    Accepts anything with a ``cost(name)`` method
    (:class:`repro.obs.ledger.CostModel`) or a plain mapping.  Never
    raises — a broken cost model degrades to arrival order, it must not
    break a working pipeline.
    """
    try:
        getter = getattr(cost_model, "cost", None)
        if getter is not None:
            return float(getter(name))
        return float(cost_model.get(name, 0.0))
    except Exception:
        return 0.0


def run_wavefront(
    graph: "PerFlowGraph",
    inputs: Dict[str, Any],
    jobs: int,
    session: Any = None,
    cost_model: Any = None,
) -> List[Any]:
    """Execute ``graph``; returns per-node values indexed by node id.

    Called by :meth:`PerFlowGraph.run` after the pipeline check.  Runs
    ready nodes inline when ``jobs == 1`` or the graph has one node,
    otherwise on ``jobs`` worker threads.  Raises the serial-equivalent
    first error (see the module docstring) after all in-flight work has
    drained — no orphaned futures survive a failure.

    ``session`` (a :class:`~repro.cache.CacheSession`) enables the
    result cache: each ready pass/fixpoint node is probed on the
    calling thread when it is popped, and a hit completes the node —
    recording its span and releasing its dependents — without it ever
    executing.  Missed nodes execute and store under the key the probe
    memoized.

    ``cost_model`` switches the ready heap from node-id order to
    descending measured cost (see the module docstring) — purely an
    execution-order heuristic, results and error semantics unchanged.
    """
    nodes = graph._nodes
    n = len(nodes)
    # Dependency edges always point id-upward; duplicate refs to the
    # same producer (e.g. two .out() selections) count once.
    dependents: List[List[int]] = [[] for _ in range(n)]
    pending = [0] * n
    for node in nodes:
        for dep in {ref.node_id for ref in node.inputs}:
            dependents[dep].append(node.node_id)
            pending[node.node_id] += 1
    values: List[Any] = [None] * n
    errors: Dict[int, BaseException] = {}  # failing node id -> exception
    # The open pipeline span (entered on the calling thread) becomes the
    # explicit parent of every node span, also those recorded on pool
    # threads; falsy when tracing is disabled.
    parent = _trace.current_span() or None

    # Heap entries are (priority, node_id): without a cost model the
    # priority is the node id, with one it is negated measured cost
    # (largest first) with the node id as the deterministic tie break.
    def prio(nid: int) -> Any:
        if cost_model is None:
            return nid
        return -_lookup_cost(cost_model, nodes[nid].name)

    ready = [(prio(nid), nid) for nid in range(n) if not pending[nid]]
    heapq.heapify(ready)

    def resolve(ref: Any) -> Any:
        value = values[ref.node_id]
        return value if ref.output_index is None else value[ref.output_index]

    def complete(nid: int, value: Any) -> None:
        values[nid] = value
        for dep in dependents[nid]:
            pending[dep] -= 1
            if not pending[dep]:
                heapq.heappush(ready, (prio(dep), dep))

    def next_ready() -> Optional[int]:
        """Pop the next runnable node id; ``None`` when the heap drains.

        Applies the failure cut — after a failure only nodes that could
        precede it serially (smaller id) may still run, and since the
        smallest failing id only ever decreases a discarded node could
        never become runnable again — and the cache probe.
        """
        while ready:
            nid = heapq.heappop(ready)[1]
            if errors and nid >= min(errors):
                continue
            node = nodes[nid]
            if session is not None and node.kind in ("pass", "fixpoint"):
                args = [resolve(r) for r in node.inputs]
                hit, value = session.probe(node, args)
                if hit:
                    graph._note_cache_hit(node, args, value, parent=parent)
                    complete(nid, value)
                    continue
            return nid
        return None

    def execute(nid: int, worker: Optional[str] = None) -> Any:
        return graph._execute_node(
            nodes[nid], resolve, inputs, parent=parent, worker=worker, session=session
        )

    if jobs == 1 or n <= 1:
        nid = next_ready()
        while nid is not None:
            try:
                value = execute(nid)
            except Exception as exc:
                errors[nid] = exc
            else:
                complete(nid, value)
            nid = next_ready()
    else:

        def work(nid: int) -> Any:
            # ThreadPoolExecutor names workers "<prefix>_<k>"; the suffix
            # is the stable worker id within this pool.
            return execute(nid, threading.current_thread().name.rsplit("_", 1)[-1])

        executed, ready_max = 0, len(ready)
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix=f"perflow-{graph.name}"
        ) as pool:
            running: Dict[Any, int] = {}  # future -> node_id

            def submit_ready() -> None:
                nid = next_ready()
                while nid is not None:
                    running[pool.submit(work, nid)] = nid
                    nid = next_ready()

            submit_ready()
            while running:
                done, _ = wait(set(running), return_when=FIRST_COMPLETED)
                for fut in done:
                    nid = running.pop(fut)
                    exc = fut.exception()
                    if exc is not None:
                        errors[nid] = exc
                        continue
                    complete(nid, fut.result())
                    executed += 1
                submit_ready()
                ready_max = max(ready_max, len(running) + len(ready))
        _metrics.gauge("dataflow.scheduler.jobs").set(jobs)
        _metrics.gauge("dataflow.scheduler.ready_max").set(ready_max)
        _metrics.gauge("dataflow.scheduler.cost_ordered").set(
            1 if cost_model is not None else 0
        )
        _metrics.counter("dataflow.scheduler.nodes_parallel").inc(executed)

    if errors:
        first = min(errors)
        _LOG.debug(
            "wavefront of PerFlowGraph %r failed at node %d (%r); %d error(s) observed",
            graph.name,
            first,
            nodes[first].name,
            len(errors),
        )
        raise errors[first]
    return values
