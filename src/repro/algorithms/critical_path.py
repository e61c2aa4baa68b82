"""Critical-path extraction over the parallel view.

The critical path of a parallel execution is the longest
vertex-weighted path through the parallel view's DAG: the chain of
activities whose shortening would shorten the run (Böhme et al. [19],
Schmitt et al. [54] — the inspirations the paper cites for its
critical-path paradigm).

Weights: each vertex contributes its exclusive ``time`` minus its
``wait`` (waiting is by definition *not* on the critical path — the
thing waited for is), floored at zero; absent values read as zero.
Both are read as whole property columns, never per vertex.

Extraction is one O(V+E) sweep over plain integer arrays: a CSR
adjacency from the PAG's edge columns (each vertex's out-edges in edge
id order), a topological order, and a longest-path DP.  No vertex or
edge handle is made except for the returned path.

Parallel views aggregate repeated interactions onto the same vertex
pair, which can create lateral cycles (a lock bouncing between two
threads contributes edges in both directions).  When the graph has a
cycle, the path is computed over the id-increasing edge subset instead:
flow edges always qualify and exactly one direction of each lateral
pair survives.  That subset is a DAG whose paths are all paths of the
full graph, so the weight found is a lower bound on the true critical
path.
"""

from __future__ import annotations

import numbers
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.traversal import _csr, _kahn
from repro.pag.columns import ObjColumn, StrColumn
from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex


def _column(pag: PAG, key: str) -> np.ndarray:
    """Vertex property ``key`` as floats, 0.0 where absent."""
    store = pag._vprops
    n = pag.num_vertices
    col = store.column(key)
    if isinstance(col, StrColumn) and len(col.rows()):
        raise TypeError(f"critical path: vertex property {key!r} is not numeric")
    if not isinstance(col, ObjColumn):
        return store.numeric(key, np.arange(n, dtype=np.int64))
    out = np.zeros(n)
    for vid, value in col.items():
        if value is None:
            continue
        if not isinstance(value, numbers.Real):
            raise TypeError(
                f"critical path: vertex property {key!r} is not numeric "
                f"(vertex {vid} holds {value!r})"
            )
        out[vid] = float(value)
    return out


def _vertex_weights(pag: PAG) -> np.ndarray:
    """``max(0, time - wait)`` per vertex; NaN differences weigh zero."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.fmax(0.0, _column(pag, "time") - _column(pag, "wait"))


def critical_path(pag: PAG) -> Tuple[List[Vertex], List[Edge], float]:
    """Longest vertex-weighted path through the parallel view.

    Returns ``(vertices, edges, total_weight)`` with vertices in path
    order.  A vertex's predecessor on the path is the in-neighbour with
    the largest path weight, ties going to the lowest neighbour id and
    then the lowest edge id; a vertex whose best incoming weight is zero
    starts a path.  The end vertex is the heaviest, lowest id first.
    These rules make the result independent of the topological order
    used.  A cyclic graph is handled as the module docstring describes.
    """
    n = pag.num_vertices
    if n == 0:
        return [], [], 0.0
    src = np.asarray(pag._e_src, dtype=np.int64)
    dst = np.asarray(pag._e_dst, dtype=np.int64)
    ptr, out, pos = _csr(n, src, dst)
    order: Sequence[int] = _kahn(n, ptr, out)
    eids: Optional[np.ndarray] = None
    if len(order) < n:
        # cycle: the id-increasing subset is a DAG and id order sorts it
        eids = np.flatnonzero(src < dst)
        ptr, out, pos = _csr(n, src[eids], dst[eids])
        order = range(n)

    weight = _vertex_weights(pag).tolist()
    best = [0.0] * n
    pred = [-1] * n  # CSR position of the chosen in-edge
    pred_src = [-1] * n  # its source; -1 lets no tie replace "no edge"
    for u in order:
        b = best[u] + weight[u]
        best[u] = b
        for k in range(ptr[u], ptr[u + 1]):
            d = out[k]
            bd = best[d]
            if b > bd or (b == bd and u < pred_src[d]):
                best[d] = b
                pred[d] = k
                pred_src[d] = u

    end = int(np.argmax(best))
    path = [end]
    path_edges: List[int] = []
    vid = end
    while pred[vid] >= 0:
        path_edges.append(pos[pred[vid]])
        vid = pred_src[vid]
        path.append(vid)
    path.reverse()
    path_edges.reverse()
    if eids is not None:
        path_edges = [int(eids[i]) for i in path_edges]
    vertices = [pag.vertex(v) for v in path]
    edges = [pag.edge(e) for e in path_edges]
    return vertices, edges, best[end]
