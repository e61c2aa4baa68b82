"""Handle-walking reference for labeled subgraph matching.

This is the original per-element matcher, kept verbatim as a test
oracle: every candidate pool is rebuilt from ``pag.in_edges`` /
``pag.out_edges`` handles for each partial mapping, vertex and edge
constraints are tested on ``Vertex``/``Edge`` handles, and no candidate
is pruned.  The pattern's search order and adjacency are copied too, so
the oracle pins the enumeration order independently of
:mod:`repro.algorithms.subgraph`.  The integer-id matcher there must
return exactly the same embeddings, in the same order.

The ``limit`` is honoured as it always was, i.e. only for ``limit >= 1``
(a non-positive limit still returned one embedding here).
"""

from __future__ import annotations

import fnmatch
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.algorithms.subgraph import Embedding, PatternGraph
from repro.pag.edge import Edge
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex


def _vertex_matches(pv, v: Vertex) -> bool:
    if pv.label is not None and v.label is not pv.label:
        return False
    if pv.call_kind is not None and v.call_kind is not pv.call_kind:
        return False
    if pv.name is not None and not fnmatch.fnmatchcase(v.name, pv.name):
        return False
    if pv.predicate is not None and not pv.predicate(v):
        return False
    return True


def _edge_matches(pe, e: Edge) -> bool:
    if pe.label is not None and e.label is not pe.label:
        return False
    if pe.predicate is not None and not pe.predicate(e):
        return False
    return True


def _adjacency(pattern: PatternGraph):
    out_adj: Dict[Any, list] = {k: [] for k in pattern._vertices}
    in_adj: Dict[Any, list] = {k: [] for k in pattern._vertices}
    for pe in pattern._edges:
        out_adj[pe.src].append(pe)
        in_adj[pe.dst].append(pe)
    return out_adj, in_adj


def _search_order(pattern: PatternGraph) -> List[Any]:
    """Connected-first ordering: each vertex after the first shares an
    edge with an earlier one when possible (cuts the search space)."""
    out_adj, in_adj = _adjacency(pattern)
    degree = {
        k: len(out_adj[k]) + len(in_adj[k]) for k in pattern._vertices
    }
    order: List[Any] = []
    placed = set()
    remaining = set(pattern._vertices)
    while remaining:
        connected = [
            k
            for k in remaining
            if any(pe.dst in placed for pe in out_adj[k])
            or any(pe.src in placed for pe in in_adj[k])
        ]
        pool = connected or list(remaining)
        # highest degree first (the anchor of the search is the most
        # constrained vertex); ties resolved by key string ascending
        nxt = sorted(pool, key=lambda k: (-degree[k], str(k)))[0]
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def subgraph_matching(
    pag: PAG,
    pattern: PatternGraph,
    candidates: Optional[Iterable[Vertex]] = None,
    limit: Optional[int] = None,
) -> List[Embedding]:
    """All embeddings of ``pattern`` in ``pag`` (injective on vertices).

    ``candidates`` restricts the anchor (first pattern vertex in search
    order) to the given vertices — the contention pass searches "around"
    its input set this way instead of over the whole graph.  ``limit``
    caps the number of embeddings returned.
    """
    order = _search_order(pattern)
    if not order:
        return []
    out_adj, in_adj = _adjacency(pattern)
    results: List[Embedding] = []

    anchor_pool: Iterable[Vertex]
    pv0 = pattern._vertices[order[0]]
    if candidates is not None:
        anchor_pool = [v for v in candidates if _vertex_matches(pv0, v)]
    else:
        anchor_pool = (v for v in pag.vertices() if _vertex_matches(pv0, v))

    def candidates_for(key: Any, mapping: Dict[Any, Vertex]) -> Iterator[Vertex]:
        """Data vertices adjacent to already-mapped pattern neighbors."""
        pv = pattern._vertices[key]
        pools: List[List[Vertex]] = []
        for pe in out_adj[key]:
            if pe.dst in mapping:
                pool = [
                    e.src
                    for e in pag.in_edges(mapping[pe.dst].id)
                    if _edge_matches(pe, e)
                ]
                pools.append(pool)
        for pe in in_adj[key]:
            if pe.src in mapping:
                pool = [
                    e.dst
                    for e in pag.out_edges(mapping[pe.src].id)
                    if _edge_matches(pe, e)
                ]
                pools.append(pool)
        if not pools:
            yield from (v for v in pag.vertices() if _vertex_matches(pv, v))
            return
        base = min(pools, key=len)
        other_ids = [{v.id for v in p} for p in pools if p is not base]
        for v in base:
            if _vertex_matches(pv, v) and all(v.id in ids for ids in other_ids):
                yield v

    def check_edges(key: Any, v: Vertex, mapping: Dict[Any, Vertex]) -> Optional[List[Edge]]:
        """Verify every pattern edge between ``key`` and mapped keys."""
        matched: List[Edge] = []
        for pe in out_adj[key]:
            if pe.dst in mapping:
                hits = [
                    e
                    for e in pag.out_edges(v.id)
                    if e.dst_id == mapping[pe.dst].id and _edge_matches(pe, e)
                ]
                if not hits:
                    return None
                matched.append(hits[0])
        for pe in in_adj[key]:
            if pe.src in mapping:
                hits = [
                    e
                    for e in pag.in_edges(v.id)
                    if e.src_id == mapping[pe.src].id and _edge_matches(pe, e)
                ]
                if not hits:
                    return None
                matched.append(hits[0])
        return matched

    def backtrack(idx: int, mapping: Dict[Any, Vertex], edges: List[Edge]) -> bool:
        """Returns True when the embedding limit is reached."""
        if idx == len(order):
            results.append(Embedding(dict(mapping), list(edges)))
            return limit is not None and len(results) >= limit
        key = order[idx]
        used = {v.id for v in mapping.values()}
        pool = anchor_pool if idx == 0 else candidates_for(key, mapping)
        for v in pool:
            if v.id in used:
                continue
            matched = check_edges(key, v, mapping)
            if matched is None:
                continue
            mapping[key] = v
            if backtrack(idx + 1, mapping, edges + matched):
                return True
            del mapping[key]
        return False

    backtrack(0, {}, [])
    return results
