"""Property-based equivalence: integer-id subgraph matching vs the oracle.

Hypothesis builds PAGs of 0-30 vertices with mixed vertex labels, call
kinds and names, and random edges with mixed labels (so parallel edges
and data self-loops occur), then 1-5-vertex patterns whose vertices
carry label, ``call_kind``, name-glob or predicate constraints and
whose edges carry labels or predicates, parallel pattern edges
included.  Anchor ``candidates`` are ``None`` or a list with repeats
and non-matching vertices; ``limit`` is ``None`` or small.

:func:`repro.algorithms.subgraph_matching` must return exactly what the
original handle-walking matcher returned
(:mod:`tests.reference_subgraph`): the same embeddings in the same
order, each with the same ordered vertex map and the same edge ids.
A real thread-expanded vite parallel view is checked the same way, and
a guard bounds the element handles one search creates.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.dataflow  # noqa: F401 - resolves the passes/dataflow import cycle
from repro.algorithms import PatternGraph, subgraph_matching
from repro.apps import vite
from repro.dataflow.api import PerFlow
from repro.pag.edge import Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.sets import VertexSet
from repro.pag.vertex import CallKind, Vertex, VertexLabel
from repro.passes.contention import default_contention_pattern

from tests import reference_subgraph as ref

#: (label, call kind, name) of the data vertices
KINDS = (
    (VertexLabel.CALL, CallKind.COMM, "MPI_Send"),
    (VertexLabel.CALL, CallKind.COMM, "MPI_Recv"),
    (VertexLabel.CALL, CallKind.THREAD, "lock"),
    (VertexLabel.CALL, None, "alloc"),
    (VertexLabel.FUNCTION, None, "main"),
    (VertexLabel.LOOP, None, "loop_1"),
    (VertexLabel.INSTRUCTION, None, "a"),
    (VertexLabel.INSTRUCTION, None, "ab"),
)
ELABELS = (
    EdgeLabel.INTER_THREAD,
    EdgeLabel.INTER_THREAD,
    EdgeLabel.INTRA_PROCEDURAL,
    EdgeLabel.INTER_PROCESS,
)
GLOBS = ("MPI_*", "a*", "?", "*o*", "lock", "[lm]*")
VERTEX_PREDICATES = (
    lambda v: v.id % 3 != 1,
    lambda v: (v["w"] or 0) > 0,
)
EDGE_PREDICATES = (
    lambda e: (e.id + e.src_id) % 2 == 0,
    lambda e: (e["wait"] or 0) > 0,
)

def _graph(n: int):
    """``n`` vertices (kind, weight) and n..3n edges (src, dst, label, wait)."""
    vertex = st.tuples(st.integers(0, len(KINDS) - 1), st.integers(0, 2))
    edge = st.tuples(
        st.integers(0, max(n - 1, 0)),
        st.integers(0, max(n - 1, 0)),
        st.integers(0, len(ELABELS) - 1),
        st.integers(0, 2),
    )
    return st.tuples(
        st.lists(vertex, min_size=n, max_size=n),
        st.lists(edge, min_size=n if n else 0, max_size=3 * n),
    )


graphs = st.integers(0, 30).flatmap(_graph)

NONE = st.just(("none", None))

# unconstrained elements are drawn most often, so that embeddings exist
vertex_constraint = st.one_of(
    NONE,
    NONE,
    NONE,
    st.tuples(st.just("label"), st.sampled_from((VertexLabel.CALL, VertexLabel.INSTRUCTION))),
    st.tuples(st.just("call_kind"), st.sampled_from((CallKind.COMM, CallKind.THREAD))),
    st.tuples(st.just("name"), st.sampled_from(GLOBS)),
    st.tuples(st.just("predicate"), st.integers(0, len(VERTEX_PREDICATES) - 1)),
)

edge_constraint = st.one_of(
    NONE,
    NONE,
    st.tuples(st.just("label"), st.sampled_from(ELABELS)),
    st.tuples(st.just("predicate"), st.integers(0, len(EDGE_PREDICATES) - 1)),
)

patterns = st.tuples(
    st.lists(vertex_constraint, min_size=1, max_size=5),
    # spanning edge of vertex i (i >= 1): (earlier vertex, reversed, constraint)
    st.lists(st.tuples(st.integers(0, 4), st.booleans(), edge_constraint), min_size=4, max_size=4),
    # extra edges, possibly parallel to the spanning ones
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), edge_constraint), max_size=3),
    st.integers(-1, 4),  # vertex whose spanning edge is dropped (-1: none)
)

candidate_specs = st.one_of(st.none(), st.lists(st.integers(0, 29), max_size=12))
limits = st.one_of(st.none(), st.integers(1, 6))


def _build_pag(spec) -> PAG:
    vertices, edges = spec
    g = PAG()
    for kind, w in vertices:
        label, call_kind, name = KINDS[kind]
        v = g.add_vertex(label, name, call_kind)
        if w:
            v["w"] = w - 1
    for a, b, label, wait in edges:
        e = g.add_edge(a, b, ELABELS[label])
        if wait:
            e["wait"] = wait - 1
    return g


def _edge_kwargs(constraint):
    kind, value = constraint
    if kind == "label":
        return {"label": value}
    if kind == "predicate":
        return {"predicate": EDGE_PREDICATES[value]}
    return {}


def _build_pattern(spec) -> PatternGraph:
    vertex_specs, spanning, extra, dropped = spec
    pat = PatternGraph()
    for key, (kind, value) in enumerate(vertex_specs):
        if kind == "predicate":
            pat.add_vertex(key, predicate=VERTEX_PREDICATES[value])
        elif kind == "none":
            pat.add_vertex(key)
        else:
            pat.add_vertex(key, **{kind: value})
    k = len(vertex_specs)
    for i in range(1, k):
        earlier, reverse, constraint = spanning[i - 1]
        if i == dropped:
            continue
        src, dst = (i, earlier % i) if reverse else (earlier % i, i)
        pat.add_edge(src, dst, **_edge_kwargs(constraint))
    for a, b, constraint in extra:
        a, b = a % k, b % k
        if a != b:
            pat.add_edge(a, b, **_edge_kwargs(constraint))
    return pat


def _encode(embeddings):
    return [
        (
            [(key, v.id) for key, v in emb.vertices.items()],
            [e.id for e in emb.edges],
        )
        for emb in embeddings
    ]


@settings(max_examples=300, deadline=None)
@given(graphs, patterns, candidate_specs, limits)
def test_subgraph_matching_matches_oracle(graph_spec, pattern_spec, cand_spec, limit):
    g = _build_pag(graph_spec)
    pat = _build_pattern(pattern_spec)
    candidates = None
    if cand_spec is not None:
        candidates = [g.vertex(i % g.num_vertices) for i in cand_spec] if g.num_vertices else []
    got = subgraph_matching(g, pat, candidates=candidates, limit=limit)
    want = ref.subgraph_matching(g, pat, candidates=candidates, limit=limit)
    assert _encode(got) == _encode(want)


# ---------------------------------------------------------------- real view
@pytest.fixture(scope="module")
def vite_view():
    pflow = PerFlow()
    pag = pflow.run(bin=vite.build(phases=1), nprocs=2, nthreads=3)
    pv = pflow.parallel_view(pag, max_ranks=2, expand_threads=True)
    # the contention pass's anchoring: suspects plus their inter-thread
    # neighbourhood, in id order
    ids = set()
    for v in pv.vertices():
        if v.name in ("_M_realloc_insert", "allocate", "_M_emplace"):
            ids.add(v.id)
            for e in pv.incident(v.id):
                if e.label is EdgeLabel.INTER_THREAD:
                    ids.add(e.other(v.id))
    return pv, sorted(ids)


@pytest.mark.parametrize("limit", [50, None])
def test_vite_view_matches_oracle(vite_view, limit):
    pv, anchor_ids = vite_view
    anchors = [pv.vertex(i) for i in anchor_ids]
    pat = default_contention_pattern()
    got = subgraph_matching(pv, pat, candidates=anchors, limit=limit)
    want = ref.subgraph_matching(pv, pat, candidates=anchors, limit=limit)
    assert len(want) == 50 if limit else len(want) > 50
    assert _encode(got) == _encode(want)


def test_handles_bounded_by_result(vite_view, monkeypatch):
    """Handles are made only for the embeddings returned (plus the
    caller's anchors, here minted while iterating a VertexSet)."""
    pv, anchor_ids = vite_view
    anchors = VertexSet([pv.vertex(i) for i in anchor_ids])
    pat = default_contention_pattern()
    made = []
    for cls in (Vertex, Edge):
        attached = cls._attached

        def counting(klass, pag, i, _attached=attached):
            made.append(i)
            return _attached(pag, i)

        monkeypatch.setattr(cls, "_attached", classmethod(counting))
    result = subgraph_matching(pv, pat, candidates=anchors, limit=50)
    assert len(result) == 50
    per_embedding = pat.num_vertices + len(pat._edges)
    assert len(made) <= per_embedding * len(result) + len(anchors)


# ---------------------------------------------------------------- limit / loops
def _path_pag() -> PAG:
    g = PAG()
    for name in "abc":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    g.add_edge(0, 1, EdgeLabel.INTRA_PROCEDURAL)
    g.add_edge(1, 2, EdgeLabel.INTRA_PROCEDURAL)
    return g


def test_limit_zero_returns_nothing():
    pat = PatternGraph().add_vertex("x").add_vertex("y").add_edge("x", "y")
    assert len(subgraph_matching(_path_pag(), pat)) == 2
    assert subgraph_matching(_path_pag(), pat, limit=0) == []


def test_negative_limit_raises():
    pat = PatternGraph().add_vertex("x").add_vertex("y").add_edge("x", "y")
    with pytest.raises(ValueError, match="limit"):
        subgraph_matching(_path_pag(), pat, limit=-1)


def test_self_loop_pattern_edge_rejected():
    pat = PatternGraph().add_vertex("x")
    with pytest.raises(ValueError, match="self-loop"):
        pat.add_edge("x", "x")
    # a one-vertex pattern without the loop still matches every vertex
    assert len(subgraph_matching(_path_pag(), pat)) == 3


def test_equal_length_pools_follow_the_first():
    """With two candidate pools of equal length, candidates come in the
    order of the first one (the original ``min(pools, key=len)``)."""
    g = PAG()
    for name in "ABXY":
        g.add_vertex(VertexLabel.INSTRUCTION, name)
    for src, dst in [(0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (1, 0)]:
        g.add_edge(src, dst, EdgeLabel.INTER_THREAD)
    pat = PatternGraph()
    for key in "abc":
        pat.add_vertex(key)
    pat.add_edges([("a", "b"), ("a", "c"), ("b", "c")])
    got = _encode(subgraph_matching(g, pat))
    assert got == _encode(ref.subgraph_matching(g, pat))
    assert got[:2] == [
        ([("a", 0), ("b", 1), ("c", 2)], [0, 1, 4]),
        ([("a", 0), ("b", 1), ("c", 3)], [0, 2, 3]),
    ]
