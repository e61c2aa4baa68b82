"""Property suite: parallel wavefront execution == serial execution.

Hypothesis generates random PerFlowGraphs of *pure set-passes* over
``frozenset[int]`` values — unary/binary set algebra, multi-output
splits consumed through ``NodeRef.out(i)``, and fixpoint closure nodes
— and asserts that ``run(jobs=n)`` for n ∈ {2, 4} returns the exact
``{name: output}`` mapping of the serial ``run(jobs=1)``, node for
node.  A second property injects a raising pass at a random position
and asserts the parallel run surfaces the *same* first error (type and
message) as the serial sweep, with no hung or leaked worker threads.

Three more properties draw ``jobs`` from {1, 2, 3} and pin every run to
the old serial sweep kept verbatim in :mod:`tests.reference_scheduler`:
outputs and the multiset of ``node:<name>`` spans (with their
``in_size``/``out_size``/``cache_hit`` args), the deterministic first
error, and cache hits under a result cache.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheSession, PassCache
from repro.dataflow.graph import PerFlowGraph
from repro.obs import trace as obs_trace
from tests.reference_scheduler import run_serial

# ----------------------------------------------------------------------
# pure set-pass vocabulary (all deterministic, all thread-safe)
# ----------------------------------------------------------------------


def _union(*sets):
    return frozenset().union(*sets)


def _intersection(a, b):
    return a & b


def _symdiff(a, b):
    return a ^ b


def _shift(a):
    return frozenset(x + 1 for x in a)


def _halve(a):
    return frozenset(x // 2 for x in a)


def _split_parity(a):
    """Multi-output pass: (evens, odds), consumed via ``.out(i)``."""
    return (
        frozenset(x for x in a if x % 2 == 0),
        frozenset(x for x in a if x % 2 == 1),
    )


def _closure_step(a):
    """Fixpoint body: halving closure — converges (values shrink to 0)."""
    return a | frozenset(x // 2 for x in a)


_UNARY = [_shift, _halve]
_BINARY = [_intersection, _symdiff, lambda a, b: _union(a, b)]


# ----------------------------------------------------------------------
# random-DAG specs: a list of node descriptors, each wiring to earlier
# outputs only (PerFlowGraph construction order guarantees acyclicity)
# ----------------------------------------------------------------------

_NODE_KINDS = ("unary", "binary", "union3", "split", "fixpoint")


@st.composite
def graph_specs(draw):
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    inputs = [
        draw(st.frozensets(st.integers(min_value=0, max_value=31), max_size=8))
        for _ in range(n_inputs)
    ]
    n_nodes = draw(st.integers(min_value=1, max_value=12))
    nodes = []
    for i in range(n_nodes):
        avail = n_inputs + i  # producers available to node i
        kind = draw(st.sampled_from(_NODE_KINDS))
        if kind == "unary":
            wiring = [draw(st.integers(0, avail - 1))]
            op = draw(st.integers(0, len(_UNARY) - 1))
        elif kind == "binary":
            wiring = [draw(st.integers(0, avail - 1)) for _ in range(2)]
            op = draw(st.integers(0, len(_BINARY) - 1))
        elif kind == "union3":
            wiring = [draw(st.integers(0, avail - 1)) for _ in range(3)]
            op = 0
        else:  # split / fixpoint
            wiring = [draw(st.integers(0, avail - 1))]
            op = 0
        nodes.append((kind, wiring, op))
    return inputs, nodes


def _producer_is_split(nodes, n_inputs, idx):
    return idx >= n_inputs and nodes[idx - n_inputs][0] == "split"


def build_graph(spec, poison_at=(), wrap=None):
    """Materialize a spec as a PerFlowGraph; optionally poison one node.

    Split producers are consumed through ``.out(parity)`` fan-out;
    everything else flows whole.  ``poison_at`` (node indices) wraps
    each such node's function to raise ``ValueError('poisoned node <i>')``;
    ``wrap`` maps every pass function before it is added.
    """
    inputs, nodes = spec
    g = PerFlowGraph("prop")
    refs = [g.input(f"in{i}") for i in range(len(inputs))]
    bindings = {f"in{i}": v for i, v in enumerate(inputs)}

    for i, (kind, wiring, op) in enumerate(nodes):
        def pick(slot, j):
            ref = refs[j]
            if _producer_is_split(nodes, len(inputs), j):
                return ref.out(slot % 2)
            return ref

        if kind == "unary":
            fn, wired = _UNARY[op], (pick(0, wiring[0]),)
        elif kind == "binary":
            fn, wired = _BINARY[op], tuple(pick(s, j) for s, j in enumerate(wiring))
        elif kind == "union3":
            fn, wired = _union, tuple(pick(s, j) for s, j in enumerate(wiring))
        elif kind == "split":
            fn, wired = _split_parity, (pick(0, wiring[0]),)
        else:  # fixpoint
            fn, wired = _closure_step, (pick(0, wiring[0]),)

        if i in poison_at:
            msg = f"poisoned node {i}"

            def poisoned(*args, _msg=msg):
                raise ValueError(_msg)

            fn = poisoned

        if wrap is not None:
            fn = wrap(fn)

        if kind == "fixpoint":
            refs.append(g.add_fixpoint(fn, wired[0], max_iters=16, name=f"n{i}"))
        else:
            refs.append(g.add_pass(fn, *wired, name=f"n{i}"))
    return g, bindings


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(spec=graph_specs())
def test_parallel_results_equal_serial(spec):
    g, bindings = build_graph(spec)
    serial = g.run(jobs=1, **bindings)
    for jobs in (2, 4):
        parallel = g.run(jobs=jobs, **bindings)
        assert list(parallel) == list(serial)  # same names, same order
        for name in serial:
            assert parallel[name] == serial[name], (
                f"node {name!r} diverged at jobs={jobs}"
            )


@_SETTINGS
@given(spec=graph_specs(), data=st.data())
def test_injected_error_matches_serial(spec, data):
    _, nodes = spec
    poison_at = data.draw(st.integers(0, len(nodes) - 1), label="poison_at")
    g, bindings = build_graph(spec, poison_at=(poison_at,))

    with pytest.raises(ValueError) as serial_exc:
        g.run(jobs=1, **bindings)
    before = threading.active_count()
    for jobs in (2, 4):
        with pytest.raises(ValueError) as parallel_exc:
            g.run(jobs=jobs, **bindings)
        assert str(parallel_exc.value) == str(serial_exc.value)
        assert type(parallel_exc.value) is type(serial_exc.value)
    assert threading.active_count() <= before  # pool joined, no leaks


_JOBS = st.sampled_from([1, 2, 3])


def _node_spans(rec):
    """Multiset of node spans with the args every executor must agree on."""
    return sorted(
        (
            sp.name,
            repr(sp.args.get("in_size")),
            repr(sp.args.get("out_size")),
            repr(sp.args.get("cache_hit")),
        )
        for sp in rec.spans
        if sp.name.startswith("node:")
    )


def _traced(fn):
    """``(fn(), node spans, recorder)`` with tracing enabled around the call."""
    rec = obs_trace.enable()
    try:
        out = fn()
    finally:
        obs_trace.disable()
    return out, _node_spans(rec), rec


@_SETTINGS
@given(spec=graph_specs(), jobs=_JOBS)
def test_jobs_results_and_spans_equal_reference(spec, jobs):
    g, bindings = build_graph(spec)
    ref, ref_spans, _ = _traced(lambda: run_serial(g, bindings))
    out, spans, _ = _traced(lambda: g.run(jobs=jobs, cache=False, **bindings))
    assert list(out) == list(ref)  # same names, same order
    for name in ref:
        assert out[name] == ref[name], f"node {name!r} diverged at jobs={jobs}"
    assert spans == ref_spans


@_SETTINGS
@given(spec=graph_specs(), data=st.data())
def test_jobs_injected_error_matches_reference(spec, data):
    _, nodes = spec
    jobs = data.draw(_JOBS, label="jobs")
    poison_at = data.draw(
        st.sets(st.integers(0, len(nodes) - 1), min_size=1, max_size=2),
        label="poison_at",
    )
    g, bindings = build_graph(spec, poison_at=poison_at)

    def raised(run):
        with pytest.raises(ValueError) as info:
            run()
        return info.value

    ref_exc, ref_spans, _ = _traced(lambda: raised(lambda: run_serial(g, bindings)))
    exc, spans, _ = _traced(
        lambda: raised(lambda: g.run(jobs=jobs, cache=False, **bindings))
    )
    assert str(exc) == str(ref_exc)
    assert type(exc) is type(ref_exc)
    if jobs == 1:  # inline: nothing after the first failure runs
        assert spans == ref_spans


def _as_tuples(value):
    """Sorted int tuples (content-keyed, so cacheable) for frozensets."""
    if isinstance(value, tuple):  # a split's (evens, odds)
        return tuple(_as_tuples(v) for v in value)
    return tuple(sorted(value))


def _tupled(fn):
    def over_tuples(*args):
        return _as_tuples(fn(*(frozenset(a) for a in args)))

    return over_tuples


@_SETTINGS
@given(spec=graph_specs(), jobs=_JOBS)
def test_jobs_cache_hits_match_reference(spec, jobs):
    g, bindings = build_graph(spec, wrap=_tupled)
    bindings = {k: _as_tuples(v) for k, v in bindings.items()}
    ref_cache, cache = PassCache(), PassCache()
    for warm in (False, True):
        session = CacheSession(ref_cache)
        ref, ref_spans, _ = _traced(lambda: run_serial(g, bindings, session))
        out, spans, rec = _traced(lambda: g.run(jobs=jobs, cache=cache, **bindings))
        hits = rec.find(f"pipeline:{g.name}")[0].args["cache_hits"]
        assert out == ref
        # A cold pool run may probe two identically keyed nodes before
        # either stores; only the inline run is order-exact when cold.
        if warm or jobs == 1:
            assert hits == session.hits
            assert spans == ref_spans
    assert session.hits == sum(node.kind != "input" for node in g._nodes)


def test_jobs_fixpoint_and_fanout():
    """Deterministic cover: ``.out(i)`` fan-out feeding a fixpoint node
    and a diamond merge, identical inline (jobs=1) and on a pool."""
    def build():
        g = PerFlowGraph("fan")
        x = g.input("x")
        split = g.add_pass(_split_parity, x, name="split")
        evens = g.add_pass(_shift, split.out(0), name="evens")
        odds = g.add_pass(_shift, split.out(1), name="odds")
        close = g.add_fixpoint(_closure_step, evens, max_iters=32, name="close")
        g.add_pass(_union, close, odds, name="merge")
        return g

    bindings = {"x": frozenset(range(17))}
    inline = build().run(jobs=1, **bindings)
    pooled = build().run(jobs=3, **bindings)
    assert pooled == inline == run_serial(build(), bindings)


def test_serial_and_parallel_share_fixpoint_iterates():
    """Fixpoint nodes converge to the identical fixed point either way."""
    g = PerFlowGraph("fixcheck")
    x = g.input("x")
    fx = g.add_fixpoint(_closure_step, x, max_iters=32, name="close")
    g.add_pass(_shift, fx, name="after")
    bindings = {"x": frozenset({17, 64, 999})}
    assert g.run(jobs=1, **bindings) == g.run(jobs=4, **bindings)
