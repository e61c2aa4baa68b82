"""Property-based equivalence: array critical path vs the handle oracle.

Hypothesis builds random PAGs of 0-40 vertices whose ``time``/``wait``
columns hold tied, zero, NaN and infinite values, integers (an int
column), mixed ints and floats (the spill column), or nothing at all,
with ``wait`` free to exceed ``time``.  Edges are random pairs, so
parallel edges, self-loops, back edges and lateral 2-cycles all occur;
half the graphs keep only id-increasing edges, which skips Kahn.

:func:`repro.algorithms.critical_path` must return exactly what the
original handle-walking implementation plus the pass's former
catch-and-retry policy returned (:mod:`tests.reference_critical_path`):
the same vertex ids, the same edge ids and a bit-identical weight.
:func:`repro.algorithms.topological_order` must return the same order
or raise ``ValueError`` on the same graphs.
"""

from __future__ import annotations

import math
import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms import critical_path, topological_order
from repro.pag.edge import EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import VertexLabel

from tests import reference_critical_path as ref

FLOATS = (0.0, 0.0, -0.0, -1.0, 0.5, 1.0, 1.0, 2.0, 3.5, math.nan, math.inf)
INTS = (0, 0, -1, 1, 1, 2, 5)

column = st.one_of(
    st.just(("missing", ())),
    st.tuples(st.just("float"), st.lists(st.sampled_from(FLOATS + (None,)), max_size=40)),
    st.tuples(st.just("int"), st.lists(st.sampled_from(INTS + (None,)), max_size=40)),
    st.tuples(
        st.just("mixed"),
        st.lists(st.sampled_from(FLOATS + INTS + (None,)), max_size=40),
    ),
)

graphs = st.tuples(
    st.integers(min_value=0, max_value=40),
    column,
    column,
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    st.booleans(),
)


def _build(spec) -> PAG:
    n, time, wait, pairs, forward_only = spec
    g = PAG()
    for i in range(n):
        g.add_vertex(VertexLabel.INSTRUCTION, f"v{i}")
    for key, (_kind, values) in (("time", time), ("wait", wait)):
        for vid, value in enumerate(values[:n]):
            if value is not None:
                g.vertex(vid)[key] = value
    for a, b in pairs:
        if n == 0:
            break
        a, b = a % n, b % n
        if forward_only:
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
        g.add_edge(a, b, EdgeLabel.INTRA_PROCEDURAL if a < b else EdgeLabel.INTER_THREAD)
    return g


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@settings(max_examples=250, deadline=None)
@given(graphs)
def test_critical_path_matches_oracle(spec):
    g = _build(spec)
    vertices, edges, weight = critical_path(g)
    want_v, want_e, want_w = ref.critical_path_with_retry(g)
    assert [v.id for v in vertices] == [v.id for v in want_v]
    assert [e.id for e in edges] == [e.id for e in want_e]
    assert _same_float(weight, want_w)


def _outcome(fn, g, edge_ok):
    try:
        return fn(g, edge_ok)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(graphs, st.sampled_from(["all", "forward", "flow", "every-third"]))
def test_topological_order_matches_oracle(spec, which):
    g = _build(spec)
    edge_ok = {
        "all": None,
        "forward": lambda e: e.src_id < e.dst_id,
        "flow": lambda e: e.label is EdgeLabel.INTRA_PROCEDURAL,
        "every-third": lambda e: e.id % 3 != 0,
    }[which]
    assert _outcome(topological_order, g, edge_ok) == _outcome(
        ref.topological_order, g, edge_ok
    )
