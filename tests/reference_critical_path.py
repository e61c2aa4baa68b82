"""Handle-walking reference for the critical path and topological order.

These are the original per-element implementations, kept verbatim as a
test oracle: every vertex and edge is visited through ``Vertex``/``Edge``
handles and the PAG's lazy adjacency lists, weights come from one
``vertex_weight`` call per vertex, and the critical-path pass found a
lateral cycle only by catching ``ValueError`` and retrying over the
id-increasing edge subset (:func:`critical_path_with_retry`).  The
array implementations in :mod:`repro.algorithms` must agree with them
exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex

EdgePredicate = Callable[[Edge], bool]


def _neighbors(pag: PAG, vid: int, direction: str, edge_ok: Optional[EdgePredicate]):
    if direction not in ("out", "in", "both"):
        raise ValueError(f"invalid direction {direction!r}")
    if direction in ("out", "both"):
        for e in pag.out_edges(vid):
            if edge_ok is None or edge_ok(e):
                yield e.dst_id, e
    if direction in ("in", "both"):
        for e in pag.in_edges(vid):
            if edge_ok is None or edge_ok(e):
                yield e.src_id, e


def topological_order(
    pag: PAG, edge_ok: Optional[EdgePredicate] = None
) -> List[int]:
    """Kahn topological order of vertex ids.

    Raises ``ValueError`` on cycles — PAG views are DAGs by construction
    (tree + forward flow/comm edges), so a cycle indicates a malformed
    graph.
    """
    n = pag.num_vertices
    indeg = [0] * n
    for e in pag.edges():
        if edge_ok is None or edge_ok(e):
            indeg[e.dst_id] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order: List[int] = []
    while queue:
        vid = queue.popleft()
        order.append(vid)
        for nid, _e in _neighbors(pag, vid, "out", edge_ok):
            indeg[nid] -= 1
            if indeg[nid] == 0:
                queue.append(nid)
    if len(order) != n:
        raise ValueError("graph contains a cycle under the given edge filter")
    return order


def default_vertex_weight(v: Vertex) -> float:
    time = v["time"] or 0.0
    wait = v["wait"] or 0.0
    return max(0.0, float(time) - float(wait))


def critical_path(
    pag: PAG,
    vertex_weight: Callable[[Vertex], float] = default_vertex_weight,
    edge_weight: Optional[Callable[[Edge], float]] = None,
    edge_ok: Optional[EdgePredicate] = None,
) -> Tuple[List[Vertex], List[Edge], float]:
    """Longest weighted path through the DAG.

    Returns ``(vertices, edges, total_weight)`` with vertices in path
    order.  Ties are broken deterministically by predecessor id.
    """
    order = topological_order(pag, edge_ok)
    n = pag.num_vertices
    best = [0.0] * n
    pred_edge: List[Optional[Edge]] = [None] * n
    for vid in order:
        best[vid] += vertex_weight(pag.vertex(vid))
        for e in pag.out_edges(vid):
            if edge_ok is not None and not edge_ok(e):
                continue
            w = edge_weight(e) if edge_weight else 0.0
            cand = best[vid] + w
            d = e.dst_id
            if cand > best[d] or (
                cand == best[d]
                and pred_edge[d] is not None
                and e.src_id < pred_edge[d].src_id
            ):
                best[d] = cand
                pred_edge[d] = e

    if n == 0:
        return [], [], 0.0
    end = max(range(n), key=lambda vid: (best[vid], -vid))
    # walk back
    edges: List[Edge] = []
    vertices: List[Vertex] = [pag.vertex(end)]
    vid = end
    while pred_edge[vid] is not None:
        e = pred_edge[vid]
        edges.append(e)
        vid = e.src_id
        vertices.append(pag.vertex(vid))
    vertices.reverse()
    edges.reverse()
    return vertices, edges, best[end]


def critical_path_with_retry(pag: PAG) -> Tuple[List[Vertex], List[Edge], float]:
    """The critical-path pass's former lateral-cycle policy."""
    try:
        return critical_path(pag)
    except ValueError:
        return critical_path(pag, edge_ok=lambda e: e.src_id < e.dst_id)
