"""Ablations of the design choices DESIGN.md calls out.

Not paper tables — these quantify why PerFlow's design decisions hold
on this substrate:

* hybrid static-dynamic vs trace-everything: the overhead gap;
* sampling frequency vs collection overhead (the 200 Hz choice);
* parallel-view size: linear in rank count (why Table 2's parallel
  columns are |V|_td x 128);
* subgraph matching: search anchored at suspects vs whole-graph search.
"""

import pytest

from repro.algorithms.subgraph import subgraph_matching
from repro.pag.views import build_top_down_view, parallel_view_stats
from repro.passes.contention import default_contention_pattern
from repro.runtime.executor import run_program
from repro.runtime.sampler import dynamic_overhead_percent
from repro.tools.scalasca import scalasca_trace

from benchmarks.conftest import print_table


def test_ablation_hybrid_vs_tracing(benchmark, all_programs, runs_128):
    """Hybrid collection beats full tracing by orders of magnitude."""

    def measure():
        out = []
        for name in ("cg", "zeusmp"):
            run = runs_128[name]
            hybrid = dynamic_overhead_percent(run)
            tracing = scalasca_trace(all_programs[name], 128, run=run).overhead_pct
            out.append((name, hybrid, tracing))
        return out

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: hybrid sampling vs full tracing (overhead %)",
        ["program", "hybrid", "tracing"],
        [[n, f"{h:.2f}", f"{t:.2f}"] for n, h, t in rows],
    )
    for _n, hybrid, tracing in rows:
        assert tracing > 10 * hybrid


def test_ablation_sampling_frequency(benchmark, runs_128):
    """Overhead grows linearly with sampling frequency; 200 Hz is cheap."""

    def sweep():
        run = runs_128["bt"]
        return {hz: dynamic_overhead_percent(run, hz) for hz in (50, 200, 1000, 5000)}

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: overhead vs sampling frequency (BT @128)",
        ["Hz", "overhead %"],
        [[hz, f"{pct:.3f}"] for hz, pct in sorted(table.items())],
    )
    assert table[200] < 1.0
    assert table[5000] > table[200]
    # linearity of the sampling term
    delta_hi = table[5000] - table[1000]
    delta_lo = table[1000] - table[200]
    assert delta_hi == pytest.approx(delta_lo * 4000 / 800, rel=0.05)


def test_ablation_parallel_view_linear_in_ranks(benchmark, all_programs):
    """|V| of the parallel view is exactly linear in the rank count."""
    prog = all_programs["cg"]

    def measure():
        out = {}
        for nprocs in (16, 32, 64):
            run = run_program(prog, nprocs=nprocs)
            td, _ = build_top_down_view(prog, run)
            out[nprocs] = parallel_view_stats(td, run)
        return out

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: parallel-view size vs ranks (CG)",
        ["ranks", "|V|", "|E|"],
        [[p, v, e] for p, (v, e) in sorted(sizes.items())],
    )
    assert sizes[32][0] == 2 * sizes[16][0]
    assert sizes[64][0] == 4 * sizes[16][0]


def test_ablation_anchored_subgraph_matching(benchmark, vite_runs):
    """Anchoring the pattern search at suspects cuts the search space."""
    import time

    from repro.dataflow.api import PerFlow, RunContext

    pflow = PerFlow()
    prog = vite_runs["program"]
    run = vite_runs[("orig", 8)]
    pag, sr = build_top_down_view(prog, run)
    pflow._contexts[id(pag)] = RunContext(prog, run, sr, pag)
    pv = pflow.parallel_view(pag, max_ranks=2, expand_threads=True)
    pattern = default_contention_pattern()
    suspects = [v for v in pv.vertices() if v.name == "_M_realloc_insert"][:20]

    def anchored():
        return subgraph_matching(pv, pattern, candidates=suspects, limit=20)

    def whole_graph():
        return subgraph_matching(pv, pattern, limit=20)

    t0 = time.perf_counter()
    a = anchored()
    t_anchored = time.perf_counter() - t0
    t0 = time.perf_counter()
    w = benchmark.pedantic(whole_graph, rounds=1, iterations=1)
    t_whole = time.perf_counter() - t0
    print_table(
        "Ablation: anchored vs whole-graph pattern search",
        ["variant", "embeddings", "seconds"],
        [["anchored", len(a), f"{t_anchored:.4f}"], ["whole graph", len(w), f"{t_whole:.4f}"]],
    )
    # both find contention; anchoring is not slower
    assert len(w) > 0
    assert t_anchored <= t_whole * 1.5 + 0.05
