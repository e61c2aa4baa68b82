"""Labeled subgraph matching — the contention-detection kernel.

Paper §4.3.2-D: resource-contention misbehaviours have characteristic
shapes on the parallel view; contention detection searches all
embeddings of small candidate pattern graphs.

Pattern vertices may constrain the data-graph vertex by ``label``
(VertexLabel), ``call_kind``, ``name`` glob, or an arbitrary predicate;
pattern edges may constrain by ``label`` (EdgeLabel) or predicate.
Unconstrained pattern elements match anything, so Listing 6's abstract
A..E pattern is expressible directly.  A pattern edge joins two distinct
pattern vertices (self-loops are rejected).

The search is a backtracking matcher over integer vertex and edge ids.
Pattern vertices are placed in a connected-first order (highest pattern
degree first).  A vertex joined to already-placed ones draws its
candidates from the shortest of the label-filtered neighbour lists of
its placed neighbours; each such list is read once per (pattern edge,
data vertex) from the PAG's adjacency and edge columns and memoized.
Vertex constraints compare label and call-kind codes and a per-name-id
glob memo.  A sound feasibility filter, memoized per (pattern vertex,
data vertex), drops a candidate that has fewer distinct neighbours
(itself excluded) than the pattern vertex has distinct pattern
neighbours, per edge label and in total; pattern edges with a predicate
are left out of those counts.  A pruned candidate could yield no
embedding, so pruning never changes the result.  Handles are created
only to call predicates and for the returned embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.pag.edge import ELABEL_CODE, Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import CALLKIND_CODE, VLABEL_CODE, CallKind, Vertex, VertexLabel


@dataclass
class _PatternVertex:
    key: Any
    label: Optional[VertexLabel] = None
    call_kind: Optional[CallKind] = None
    name: Optional[str] = None
    predicate: Optional[Callable[[Vertex], bool]] = None


@dataclass
class _PatternEdge:
    src: Any
    dst: Any
    label: Optional[EdgeLabel] = None
    predicate: Optional[Callable[[Edge], bool]] = None


class PatternGraph:
    """A small labeled pattern (the ``sub_pag`` of Listing 6)."""

    def __init__(self) -> None:
        self._vertices: Dict[Any, _PatternVertex] = {}
        self._edges: List[_PatternEdge] = []

    def add_vertex(
        self,
        key: Any,
        label: Optional[VertexLabel] = None,
        call_kind: Optional[CallKind] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[Vertex], bool]] = None,
    ) -> "PatternGraph":
        if key in self._vertices:
            raise ValueError(f"duplicate pattern vertex {key!r}")
        self._vertices[key] = _PatternVertex(key, label, call_kind, name, predicate)
        return self

    def add_vertices(self, items: Iterable[Tuple[Any, str]]) -> "PatternGraph":
        """Listing-6 style bulk add: ``[(1, "A"), (2, "B"), ...]``.

        The second element is a display tag only (the paper's pattern
        vertices are abstract); it imposes no constraint.
        """
        for key, _tag in items:
            self.add_vertex(key)
        return self

    def add_edge(
        self,
        src: Any,
        dst: Any,
        label: Optional[EdgeLabel] = None,
        predicate: Optional[Callable[[Edge], bool]] = None,
    ) -> "PatternGraph":
        """Add the pattern edge ``src -> dst``; parallel edges are allowed,
        self-loops (``src == dst``) raise ``ValueError``."""
        for key in (src, dst):
            if key not in self._vertices:
                raise KeyError(f"pattern vertex {key!r} not declared")
        if src == dst:
            raise ValueError(f"self-loop pattern edge on {src!r}")
        self._edges.append(_PatternEdge(src, dst, label, predicate))
        return self

    def add_edges(self, pairs: Iterable[Tuple[Any, Any]]) -> "PatternGraph":
        for src, dst in pairs:
            self.add_edge(src, dst)
        return self

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    # -- matcher internals ---------------------------------------------------
    def _adjacency(self):
        out_adj: Dict[Any, List[_PatternEdge]] = {k: [] for k in self._vertices}
        in_adj: Dict[Any, List[_PatternEdge]] = {k: [] for k in self._vertices}
        for pe in self._edges:
            out_adj[pe.src].append(pe)
            in_adj[pe.dst].append(pe)
        return out_adj, in_adj

    def _search_order(self) -> List[Any]:
        """Connected-first ordering: each vertex after the first shares an
        edge with an earlier one when possible (cuts the search space)."""
        out_adj, in_adj = self._adjacency()
        degree = {
            k: len(out_adj[k]) + len(in_adj[k]) for k in self._vertices
        }
        order: List[Any] = []
        placed = set()
        remaining = set(self._vertices)
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

    def _links(self, order: List[Any]) -> List[List[Tuple[int, int, bool]]]:
        """Per search position, the pattern edges to earlier positions as
        ``(edge index, earlier position, forward)``: edges leaving the
        vertex first, then edges entering it, each in insertion order.
        ``forward`` means the data edge runs from the placed vertex to the
        candidate, so candidates come from the placed vertex's out-list."""
        pos = {key: i for i, key in enumerate(order)}
        links: List[List[Tuple[int, int, bool]]] = []
        for i, key in enumerate(order):
            leaving = [
                (p, pos[pe.dst], False)
                for p, pe in enumerate(self._edges)
                if pe.src == key and pos[pe.dst] < i
            ]
            entering = [
                (p, pos[pe.src], True)
                for p, pe in enumerate(self._edges)
                if pe.dst == key and pos[pe.src] < i
            ]
            links.append(leaving + entering)
        return links

    def _needs(self, key: Any) -> Tuple[int, Dict[int, int]]:
        """Distinct pattern neighbours of ``key`` over predicate-free edges:
        the total, and per edge-label code for labeled edges."""
        total: Set[Any] = set()
        by_label: Dict[int, Set[Any]] = {}
        for pe in self._edges:
            if pe.predicate is not None or key not in (pe.src, pe.dst):
                continue
            other = pe.dst if pe.src == key else pe.src
            total.add(other)
            if pe.label is not None:
                by_label.setdefault(ELABEL_CODE[pe.label], set()).add(other)
        return len(total), {code: len(ks) for code, ks in by_label.items()}


@dataclass
class Embedding:
    """One match: pattern key -> data vertex, plus the matched edges."""

    vertices: Dict[Any, Vertex] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)


def subgraph_matching(
    pag: PAG,
    pattern: PatternGraph,
    candidates: Optional[Iterable[Vertex]] = None,
    limit: Optional[int] = None,
) -> List[Embedding]:
    """All embeddings of ``pattern`` in ``pag`` (injective on vertices).

    ``candidates`` (vertices of ``pag``) restricts the anchor — the first
    pattern vertex in search order — to those vertices, in the given
    order and with repeats kept; the contention pass searches "around"
    its input set this way instead of over the whole graph.  ``limit``
    caps the number of embeddings returned: ``None`` means all, ``0``
    returns ``[]``, and a negative limit raises ``ValueError``.

    Embeddings come in backtracking order.  Each maps pattern keys (in
    search order) to data vertices; its edges are, per pattern vertex in
    search order, the lowest-id data edge matching each pattern edge to
    an earlier vertex.  Parallel data edges make a candidate appear once
    per edge, so they repeat embeddings.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"subgraph_matching: limit must be >= 0, got {limit}")
    order = pattern._search_order()
    if not order or limit == 0:
        return []
    n = len(order)
    links = pattern._links(order)
    pvs = [pattern._vertices[key] for key in order]
    pes = pattern._edges
    needs = [pattern._needs(key) for key in order]
    need_codes = sorted({code for _total, by in needs for code in by})

    out, inn = pag._ensure_adj()
    e_src, e_dst, e_label = pag._e_src, pag._e_dst, pag._e_label
    v_label, v_kind, v_name = pag._v_label, pag._v_kind, pag._v_name
    num_vertices = pag.num_vertices

    glob_memos: List[Dict[int, bool]] = [{} for _ in order]

    def vertex_ok(i: int, v: int) -> bool:
        pv = pvs[i]
        if pv.label is not None and v_label[v] != VLABEL_CODE[pv.label]:
            return False
        if pv.call_kind is not None and v_kind[v] != CALLKIND_CODE[pv.call_kind]:
            return False
        if pv.name is not None:
            sid = v_name[v]
            hit = glob_memos[i].get(sid)
            if hit is None:
                hit = glob_memos[i][sid] = bool(pag.strings.glob_mask(pv.name, (sid,))[0])
            if not hit:
                return False
        return pv.predicate is None or bool(pv.predicate(Vertex._attached(pag, v)))

    degree_memo: Dict[int, Tuple[int, Dict[int, int]]] = {}

    def distinct_degree(v: int) -> Tuple[int, Dict[int, int]]:
        """Distinct neighbours of ``v`` (itself excluded): the total, and
        per edge-label code the pattern constrains."""
        hit = degree_memo.get(v)
        if hit is None:
            total: Set[int] = set()
            by_label: Dict[int, Set[int]] = {code: set() for code in need_codes}
            for eids, ends in ((out[v], e_dst), (inn[v], e_src)):
                for eid in eids:
                    u = ends[eid]
                    if u != v:
                        total.add(u)
                        bucket = by_label.get(e_label[eid])
                        if bucket is not None:
                            bucket.add(u)
            hit = degree_memo[v] = (
                len(total),
                {code: len(us) for code, us in by_label.items()},
            )
        return hit

    host_memos: List[Dict[int, bool]] = [{} for _ in order]

    def can_host(i: int, v: int) -> bool:
        """``v`` satisfies pattern vertex ``i`` and the feasibility filter."""
        memo = host_memos[i]
        ok = memo.get(v)
        if ok is None:
            ok = vertex_ok(i, v)
            need_total, need_by = needs[i]
            if ok and need_total:
                have_total, have_by = distinct_degree(v)
                ok = have_total >= need_total and all(
                    have_by[code] >= k for code, k in need_by.items()
                )
            memo[v] = ok
        return ok

    nbr_memos: List[Dict[int, Tuple[List[int], Dict[int, int]]]] = [{} for _ in pes]

    def neighbours(p: int, x: int, forward: bool) -> Tuple[List[int], Dict[int, int]]:
        """Data vertices joined to ``x`` by edges matching pattern edge ``p``
        — one entry per edge, in edge-id order — and the first such edge
        id per neighbour."""
        memo = nbr_memos[p]
        hit = memo.get(x)
        if hit is None:
            pe = pes[p]
            code = None if pe.label is None else ELABEL_CODE[pe.label]
            eids, ends = (out[x], e_dst) if forward else (inn[x], e_src)
            nbrs: List[int] = []
            first: Dict[int, int] = {}
            for eid in eids:
                if code is not None and e_label[eid] != code:
                    continue
                if pe.predicate is not None and not pe.predicate(Edge._attached(pag, eid)):
                    continue
                u = ends[eid]
                nbrs.append(u)
                first.setdefault(u, eid)
            hit = memo[x] = (nbrs, first)
        return hit

    every: Dict[int, List[int]] = {}

    def unconstrained_pool(i: int) -> List[int]:
        """All data vertices, in id order, that can host position ``i``."""
        if i not in every:
            every[i] = [v for v in range(num_vertices) if can_host(i, v)]
        return every[i]

    anchors = None if candidates is None else [v.id for v in candidates]
    results: List[Embedding] = []
    mapped = [0] * n
    used: Set[int] = set()
    edge_ids: List[int] = []

    def extend(i: int) -> bool:
        """Place positions ``i..``; True once ``limit`` is reached."""
        if i == n:
            results.append(
                Embedding(
                    {order[t]: Vertex._attached(pag, mapped[t]) for t in range(n)},
                    [Edge._attached(pag, eid) for eid in edge_ids],
                )
            )
            return limit is not None and len(results) >= limit
        firsts: List[Dict[int, int]] = []
        if not links[i]:
            pool = anchors if i == 0 and anchors is not None else unconstrained_pool(i)
            others: List[Dict[int, int]] = []
        else:
            found = [neighbours(p, mapped[j], fwd) for p, j, fwd in links[i]]
            base = min(range(len(found)), key=lambda t: len(found[t][0]))
            pool = found[base][0]
            firsts = [first for _nbrs, first in found]
            others = [first for t, first in enumerate(firsts) if t != base]
        for v in pool:
            if v in used or not all(v in first for first in others):
                continue
            if not can_host(i, v):
                continue
            mapped[i] = v
            used.add(v)
            edge_ids.extend(first[v] for first in firsts)
            if extend(i + 1):
                return True
            del edge_ids[len(edge_ids) - len(firsts):]
            used.discard(v)
        return False

    extend(0)
    return results
