"""The serial topological sweep, kept verbatim as a test oracle.

``PerFlowGraph.run`` used to execute ``jobs=1`` with its own loop: visit
the nodes in id order and execute each one, probing the result cache
*inside* the node (a hit records its span and skips the pass) and
storing after a miss.  Every run now goes through the wavefront in
:mod:`repro.dataflow.scheduler`; this module keeps the old sweep —
the ``_run_serial`` loop plus ``_execute_node``'s probe-inside-the-node
cache path — so the scheduler can be checked against it on outputs,
first error, cache hits, and node spans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.dataflow.graph import NodeRef, PerFlowGraph, _Node, _size_of, _sum_sizes
from repro.obs.trace import span as _span


def _execute_node(
    graph: PerFlowGraph,
    node: _Node,
    resolve: Callable[[NodeRef], Any],
    inputs: Dict[str, Any],
    session: Any = None,
) -> Any:
    """Execute one node: probe the cache, run on a miss, store after."""
    with _span(
        f"node:{node.name}",
        category=f"dataflow.{node.kind}",
        node_id=node.node_id,
    ) as sp:
        if node.kind == "input":
            value = inputs[node.name]
            if sp:
                size = _size_of(value)
                sp.set(in_size=size, out_size=size)
            return value
        if node.kind == "pass":
            args = [resolve(r) for r in node.inputs]
            cache_hit = False
            if session is not None:
                cache_hit, value = session.probe(node, args)
            if not cache_hit:
                value = node.fn(*args)
                if session is not None:
                    session.store(node, value)
            if sp:
                sp.set(in_size=_sum_sizes(args), out_size=_size_of(value))
                if session is not None:
                    sp.set(cache_hit=cache_hit)
            return value
        # fixpoint
        value = resolve(node.inputs[0])
        if sp:
            sp.set(in_size=_size_of(value))
        if session is not None:
            cache_hit, cached = session.probe(node, [value])
            if cache_hit:
                if sp:
                    sp.set(out_size=_size_of(cached), cache_hit=True)
                return cached
        value, iterations, converged = graph._apply_fixpoint(node, value)
        if not converged:
            graph._note_nonconverged(node, iterations)
        if session is not None:
            session.store(node, value)
        if sp:
            sp.set(
                out_size=_size_of(value),
                iterations=iterations,
                converged=converged,
            )
            if session is not None:
                sp.set(cache_hit=False)
        return value


def run_serial(
    graph: PerFlowGraph, inputs: Dict[str, Any], session: Any = None
) -> Dict[str, Any]:
    """The serial sweep; returns ``{name: value}`` named as ``run()`` names."""
    values: List[Any] = [None] * len(graph._nodes)

    def resolve(ref: NodeRef) -> Any:
        value = values[ref.node_id]
        if ref.output_index is not None:
            return value[ref.output_index]
        return value

    for node in graph._nodes:
        values[node.node_id] = _execute_node(graph, node, resolve, inputs, session)

    named: Dict[str, Any] = {}
    for node in graph._nodes:
        key = node.name
        k = 1
        while key in named:
            k += 1
            key = f"{node.name}#{k}"
        named[key] = values[node.node_id]
    return named
