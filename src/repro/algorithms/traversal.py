"""Graph traversals over PAGs: BFS, DFS, topological order, reachability.

All traversals accept an optional edge predicate, which is how passes
impose the "constraints" of §4.3.1 (e.g. follow only inter-process
edges, or only edges with positive wait time).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

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


def bfs(
    pag: PAG,
    sources: Iterable[Vertex],
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Iterator[Vertex]:
    """Breadth-first search from ``sources``; yields visited vertices
    (sources first) in discovery order."""
    queue = deque()
    seen: Set[int] = set()
    for v in sources:
        if v.id not in seen:
            seen.add(v.id)
            queue.append((v.id, 0))
            yield v
    while queue:
        vid, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        for nid, _e in _neighbors(pag, vid, direction, edge_ok):
            if nid not in seen:
                seen.add(nid)
                queue.append((nid, depth + 1))
                yield pag.vertex(nid)


def dfs_preorder(
    pag: PAG,
    source: Vertex,
    direction: str = "out",
    edge_ok: Optional[EdgePredicate] = None,
) -> Iterator[Vertex]:
    """Depth-first pre-order from ``source`` (iterative; graph-safe)."""
    stack = [source.id]
    seen: Set[int] = set()
    while stack:
        vid = stack.pop()
        if vid in seen:
            continue
        seen.add(vid)
        yield pag.vertex(vid)
        nxt = [nid for nid, _e in _neighbors(pag, vid, direction, edge_ok)]
        # reversed: visit in natural adjacency order
        stack.extend(reversed([n for n in nxt if n not in seen]))


def _csr(
    n: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[List[int], List[int], List[int]]:
    """Out-adjacency of ``n`` vertices as ``(ptr, dst, pos)`` int lists.

    Vertex ``u``'s out-edges are positions ``ptr[u]:ptr[u+1]`` of
    ``dst``/``pos``; ``pos`` maps each back to its index in ``src``.  The
    sort is stable, so each vertex's edges keep their input order.
    """
    pos = np.argsort(src, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return ptr.tolist(), dst[pos].tolist(), pos.tolist()


def _kahn(n: int, ptr: Sequence[int], dst: Sequence[int]) -> List[int]:
    """FIFO Kahn order over a CSR, seeded with the sources in id order.

    Returns fewer than ``n`` ids when the graph has a cycle.
    """
    indeg = [0] * n
    for d in dst:
        indeg[d] += 1
    order = [u for u in range(n) if indeg[u] == 0]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for k in range(ptr[u], ptr[u + 1]):
            d = dst[k]
            indeg[d] -= 1
            if indeg[d] == 0:
                order.append(d)
    return order


def topological_order(
    pag: PAG, edge_ok: Optional[EdgePredicate] = None
) -> List[int]:
    """Kahn topological order of vertex ids.

    FIFO, seeded with the sources in id order, each vertex's out-edges
    taken in edge id order; ``edge_ok`` is asked once per edge.

    Raises ``ValueError`` on cycles — PAG views are DAGs by construction
    (tree + forward flow/comm edges), so a cycle indicates a malformed
    graph.
    """
    n = pag.num_vertices
    src = np.asarray(pag._e_src, dtype=np.int64)
    dst = np.asarray(pag._e_dst, dtype=np.int64)
    if edge_ok is not None:
        keep = np.fromiter(
            (bool(edge_ok(e)) for e in pag.edges()), dtype=bool, count=len(src)
        )
        src, dst = src[keep], dst[keep]
    ptr, out, _pos = _csr(n, src, dst)
    order = _kahn(n, ptr, out)
    if len(order) != n:
        raise ValueError("graph contains a cycle under the given edge filter")
    return order


def ancestors(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices that can reach ``v`` (excluding ``v``)."""
    out = {u.id for u in bfs(pag, [v], "in", edge_ok, max_depth)}
    out.discard(v.id)
    return out


def descendants(
    pag: PAG,
    v: Vertex,
    edge_ok: Optional[EdgePredicate] = None,
    max_depth: Optional[int] = None,
) -> Set[int]:
    """Ids of vertices reachable from ``v`` (excluding ``v``)."""
    out = {u.id for u in bfs(pag, [v], "out", edge_ok, max_depth)}
    out.discard(v.id)
    return out
