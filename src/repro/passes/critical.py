"""Critical-path analysis pass.

Wraps :func:`repro.algorithms.critical_path.critical_path` as a pass:
input is any vertex set of a parallel view (only its PAG matters),
output is the path's vertices/edges plus the path weight, with each
path vertex annotated ``on_critical_path = True``.

The algorithm is one O(V+E) pass over the PAG's edge and property
columns (vertex weight ``max(0, time - wait)``), called exactly once:
it handles the lateral cycles of parallel views itself.
"""

from __future__ import annotations

from typing import Tuple

from repro.dataflow.signatures import SetKind, signature
from repro.algorithms.critical_path import critical_path
from repro.pag.sets import EdgeSet, VertexSet


@signature(inputs=(VertexSet,), outputs=(VertexSet, EdgeSet, SetKind.ANY))
def critical_path_analysis(V: VertexSet) -> Tuple[VertexSet, EdgeSet, float]:
    """The longest weighted activity chain of the execution.

    Returns ``(vertices, edges, weight)``; vertices in path order.

    Parallel views aggregate repeated interactions onto the same vertex
    pair, which can create lateral cycles (a lock bouncing between two
    threads contributes edges in both directions).  When that happens,
    the path is computed over the acyclic id-increasing edge subset —
    flow edges always qualify, and exactly one direction of each lateral
    pair survives — a deterministic approximation.  Every path of the
    subset is a path of the full view, so its weight is a lower bound
    on the true critical path.  A non-numeric ``time`` or ``wait``
    property raises ``TypeError``.
    """
    pag = V.pag
    if pag is None:
        return VertexSet([]), EdgeSet([]), 0.0
    vertices, edges, weight = critical_path(pag)
    for v in vertices:
        v["on_critical_path"] = True
    return VertexSet(vertices), EdgeSet(edges), weight
