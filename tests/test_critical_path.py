"""The critical path on real parallel views, and how the pass calls it.

* Real views: the array kernel agrees exactly with the handle-walking
  oracle (:mod:`tests.reference_critical_path`) on views that are
  cyclic (cg, vite with expanded threads), acyclic with back edges
  (zeusmp) and thread-expanded (the pthreads micro-benchmark).
* The pass calls :func:`critical_path` once, also on a lateral cycle,
  through the module-level name in :mod:`repro.passes.critical`.
* Non-numeric weights raise ``TypeError`` naming the property.
* No per-element handles: on a 50k-vertex graph only the returned path
  gets ``Vertex``/``Edge`` handles and the lazy adjacency is never built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import critical_path
from repro.apps import microbench, registry
from repro.dataflow.api import PerFlow  # before repro.passes: breaks an import cycle
from repro.pag.edge import Edge, EdgeLabel
from repro.pag.graph import PAG
from repro.pag.vertex import Vertex, VertexLabel
from repro.passes import critical as critical_mod
from repro.passes.critical import critical_path_analysis

from tests import reference_critical_path as ref


def _view(app, nprocs, nthreads=1, params=None, expand_threads=False):
    pflow = PerFlow()
    prog = microbench.build() if app == "microbench" else registry("S")[app]()
    pag = pflow.run(bin=prog, nprocs=nprocs, nthreads=nthreads, params=params)
    return pflow.parallel_view(pag, expand_threads=expand_threads)


def _is_acyclic(g: PAG) -> bool:
    try:
        ref.topological_order(g)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "app, nprocs, nthreads, params, expand, acyclic",
    [
        ("cg", 4, 1, None, False, False),
        ("zeusmp", 4, 1, None, False, True),
        ("vite", 2, 2, None, True, False),
        ("microbench", 1, 4, {"nthreads": 4}, True, True),
    ],
    ids=["cg-np4", "zeusmp-np4", "vite-np2x2", "microbench-4t"],
)
def test_real_view_matches_oracle(app, nprocs, nthreads, params, expand, acyclic):
    pv = _view(app, nprocs, nthreads, params, expand)
    assert _is_acyclic(pv) is acyclic
    if app == "zeusmp":  # acyclic, yet ids alone do not order it
        assert (np.asarray(pv._e_src) > np.asarray(pv._e_dst)).any()
    vertices, edges, weight = critical_path(pv)
    want_v, want_e, want_w = ref.critical_path_with_retry(pv)
    assert [v.id for v in vertices] == [v.id for v in want_v]
    assert [e.id for e in edges] == [e.id for e in want_e]
    assert weight == want_w
    assert weight > 0


def _lateral_pair() -> PAG:
    g = PAG()
    a = g.add_vertex(VertexLabel.INSTRUCTION, "a", properties={"time": 1.0})
    b = g.add_vertex(VertexLabel.INSTRUCTION, "b", properties={"time": 2.0})
    c = g.add_vertex(VertexLabel.INSTRUCTION, "c", properties={"time": 4.0})
    g.add_edge(a, b, EdgeLabel.INTER_THREAD)
    g.add_edge(b, a, EdgeLabel.INTER_THREAD)
    g.add_edge(b, c, EdgeLabel.INTRA_PROCEDURAL)
    return g


@pytest.fixture
def spy(monkeypatch):
    calls = []

    def counted(pag):
        calls.append(pag)
        return critical_path(pag)

    monkeypatch.setattr(critical_mod, "critical_path", counted)
    return calls


def test_pass_calls_critical_path_once_on_lateral_cycle(spy):
    g = _lateral_pair()
    vs, es, weight = critical_path_analysis(g.vs)
    assert len(spy) == 1
    assert [v.name for v in vs] == ["a", "b", "c"]
    assert [e.id for e in es] == [0, 2]
    assert weight == 7.0
    assert all(v["on_critical_path"] for v in vs)


@pytest.mark.parametrize("key", ["time", "wait"])
@pytest.mark.parametrize("spilled", [False, True], ids=["str-column", "spill-column"])
def test_non_numeric_weight_raises_type_error(spy, key, spilled):
    g = _lateral_pair()
    if spilled:
        g.vertex(0)[key] = 0.5  # a float column first, then a string spills it
    g.vertex(1)[key] = "slow"
    with pytest.raises(TypeError, match=repr(key)):
        critical_path_analysis(g.vs)
    assert len(spy) == 1


def _four_chains(length: int) -> PAG:
    """Four ``length``-vertex rank chains with forward messages between them."""
    g = PAG()
    n = 4 * length
    for i in range(n):
        g.add_vertex(VertexLabel.INSTRUCTION, "step")
    g._vprops.set_numeric_bulk("time", np.arange(n), (np.arange(n) % 7) * 1e-3)
    g._vprops.set_numeric_bulk("wait", np.arange(n), (np.arange(n) % 5) * 1e-3)
    for r in range(4):
        base = r * length
        for i in range(length - 1):
            g.add_edge(base + i, base + i + 1, EdgeLabel.INTRA_PROCEDURAL)
    for i in range(0, length - 1, 97):  # messages rank r -> r+1, and a back one
        for r in range(3):
            g.add_edge(r * length + i, (r + 1) * length + i + 1, EdgeLabel.INTER_PROCESS)
        g.add_edge(3 * length + i, i + 1, EdgeLabel.INTER_PROCESS)
    return g


def test_no_per_element_handles(monkeypatch):
    g = _four_chains(12_500)
    g._adj = None
    counts = {"handles": 0}

    def counting(orig):
        def attached(cls, pag, i):
            counts["handles"] += 1
            return orig(cls, pag, i)

        return classmethod(attached)

    monkeypatch.setattr(Vertex, "_attached", counting(Vertex._attached.__func__))
    monkeypatch.setattr(Edge, "_attached", counting(Edge._attached.__func__))

    def no_adjacency(self):
        raise AssertionError("critical path built the lazy adjacency lists")

    monkeypatch.setattr(PAG, "_ensure_adj", no_adjacency)
    vs, es, weight = critical_path_analysis(g.vs)
    assert len(vs) > 12_000 and len(es) == len(vs) - 1
    assert weight > 0
    assert counts["handles"] <= 2 * len(vs)
