"""The repository benchmark: PerFlow analyses timed through the entry
points users call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (``BENCHMARK.json`` gives why
each was chosen):

* ``profile-lammps``, ``critpath-lammps``, ``contention-vite`` — batch:
  each analysis is one ``repro.cli.main(argv)`` call in a fresh
  interpreter (:mod:`child`), repeated for ``--seconds``.  The program
  inputs are the fixed application models; the seed sets each
  interpreter's ``PYTHONHASHSEED``, so a seed fixes every hash order.
* ``serve-mixed`` — a ``repro serve`` subprocess driven over HTTP
  (:mod:`serve_load`); the seed generates the request sequence.

Every analysis output is checked against ``reference.json`` (recorded
at the commit that introduced the benchmark, plus the simulator's
ground truth).

The host's speed drifts by a third over tens of seconds on a shared
machine, far more than the bounds a change is held to.  So a fixed,
repo-independent calibration loop (:func:`common.calibrate`) runs in
this process between the timed operations, and every end-to-end time
is scaled to the reference host: measured × ``CAL_REF_S`` ÷ the mean
of the calibrations around it.  The loop never runs while repro code
does: sharing a core with the analysis would make the gauge depend on
what the analysis does.  A change to repro code thus moves the scaled
times exactly as it moves the measured ones; the unscaled samples and
calibrations are kept in the result record, and ``host.calibration_ms``
reports the host's speed with the per-layer metrics.

With ``--trace 0`` the last line of standard output is the JSON result with
every ``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1``
it carries every ``per_layer`` metric instead (0 where the workload's
path does not reach the layer), from the outside-in spans of
:mod:`layers`.  The full record — samples, provenance, the Chrome trace
of a traced run — is kept under ``.perfbench_work/``.  The exit code is
1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List

from common import CAL_REF_S, HERE, ROOT, WORK, HostGauge, child_env, median

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Import-only interpreters per batch run, so ``setup_s`` is a median
#: of several starts even when an analysis takes most of the run.
SETUP_SPAWNS = 5
#: Upper bound on one child interpreter; a hung analysis counts as failed.
CHILD_TIMEOUT_S = 60

BATCH: Dict[str, List[str]] = {
    "profile-lammps": ["paradigm", "mpi-profiler", "lammps", "--np", "8"],
    "critpath-lammps": ["paradigm", "critical-path", "lammps", "--np", "4"],
    "contention-vite": ["paradigm", "contention", "vite", "--np", "4", "--threads", "3"],
}


# -- shared helpers -----------------------------------------------------------

def provenance() -> Dict[str, Any]:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def hashseed(seed: int, k: int) -> int:
    """``PYTHONHASHSEED`` of the ``k``-th interpreter of a run.  Any
    ``--seed``, negative or wider than 32 bits too, maps into the range
    Python accepts."""
    return (seed * 1000 + k) % 2**32


def reference() -> Dict[str, Any]:
    return json.loads((HERE / "reference.json").read_text())


# -- batch workloads ------------------------------------------------------------

def check_profile(out: str, ref: Dict[str, Any]) -> List[str]:
    rows = [line.rstrip() for line in out.splitlines()[1:] if line.strip()]
    return [] if rows == ref["rows"] else [f"profile rows differ: {rows!r}"]


def check_critpath(out: str, ref: Dict[str, Any]) -> List[str]:
    m = re.search(r"critical path weight: ([0-9.]+)s", out)
    if m is None:
        return ["no critical path weight printed"]
    problems = []
    if m.group(1) != ref["weight"]:
        problems.append(f"weight {m.group(1)} != recorded {ref['weight']}")
    if float(m.group(1)) > ref["makespan_s"]:
        problems.append(f"weight {m.group(1)} exceeds simulated makespan {ref['makespan_s']}")
    return problems


def check_contention(out: str, ref: Dict[str, Any]) -> List[str]:
    hubs = set(re.findall(r"serialization hub: (\S+)", out))
    missing = sorted(set(ref["hubs"]) - hubs)
    return [f"injected allocator hubs not found: {missing}"] if missing else []


CHECKS: Dict[str, Callable[[str, Dict[str, Any]], List[str]]] = {
    "profile-lammps": check_profile,
    "critpath-lammps": check_critpath,
    "contention-vite": check_contention,
}


def spawn(tmp: Path, tag: str, argv: List[str], trace: bool, hashseed: int) -> Dict[str, Any]:
    """One fresh interpreter running :mod:`child`; returns its record
    plus ``setup_s`` (spawn → ``import repro.cli`` done) and ``total_s``
    (spawn → exit), or ``{"error": ...}``."""
    out = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(out), "1" if trace else "0", "--", *argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(tmp, hashseed), cwd=tmp, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{tag}: no exit within {CHILD_TIMEOUT_S}s"}
    total = time.monotonic() - t0
    if proc.returncode != 0 or not out.exists():
        return {"error": f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    doc = json.loads(out.read_text())
    out.unlink()
    doc.update(setup_s=doc["imported_at"] - t0, total_s=total)
    return doc


def layer_figures(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced analysis."""
    import layers

    rec = layers.Recorder.from_json(doc["trace"])
    fig: Dict[str, float] = dict(rec.counts)
    for name in {sp.name for sp in rec.spans}:
        fig[f"{name}_ms"] = rec.total_ms(name)
    # Counted by spans, so a call that raises (the critical-path
    # traversal that meets a cycle) counts too.
    fig["algorithms.critical_path_calls"] = sum(
        sp.name == "algorithms.critical_path" for sp in rec.spans
    )
    fig["dataflow.self_ms"] = rec.total_self_ms("dataflow.run")
    fig["paradigms.self_ms"] = rec.total_self_ms("paradigms.")
    main_span = next(sp for sp in rec.spans if sp.name == "cli.main")
    fig["trace.unattributed_ms"] = rec.self_ms(main_span)
    fig["traced_wall_s"] = main_span.ms / 1e3
    return fig


def export_trace(docs: List[Dict[str, Any]], path: Path, tmp: Path) -> List[str]:
    """Write the traced runs as one Chrome trace and check that
    ``repro obs analyze`` opens it."""
    import layers

    recs = [layers.Recorder.from_json(d["trace"]) for d in docs]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(layers.chrome_trace(recs)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "analyze", str(path), "--top", "5"],
        env=child_env(tmp), cwd=tmp, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    spans = sum(len(rec.spans) for rec in recs)
    if proc.returncode != 0 or f"trace: {spans} spans" not in proc.stdout:
        return [f"repro obs analyze did not read the {spans} spans of {path}: "
                f"{(proc.stderr or proc.stdout).strip()[-400:]}"]
    return []


def run_batch(name: str, args: argparse.Namespace, tmp: Path) -> Dict[str, Any]:
    ref = reference()[name]
    argv = BATCH[name]
    problems: List[str] = []
    setups: List[float] = []
    deadline = time.monotonic() + args.seconds
    gauge = HostGauge()
    for i in range(SETUP_SPAWNS):
        doc = spawn(tmp, f"setup{i}", [], False, hashseed(args.seed, i))
        scale = gauge.tick()
        if "error" in doc:
            problems.append(doc["error"])
        else:
            setups.append(doc["setup_s"] * scale)

    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = 0
    min_samples = 2 if args.trace else 1
    while attempted < min_samples or time.monotonic() < deadline:
        # A traced run alternates plain and traced analyses, so the two
        # medians it compares share the machine's state.
        with_trace = bool(args.trace) and attempted % 2 == 1
        doc = spawn(tmp, f"op{attempted}", argv, with_trace,
                    hashseed(args.seed, 500 + attempted))
        doc["scale"] = gauge.tick()
        attempted += 1
        errs = [doc["error"]] if "error" in doc else []
        if not errs and doc["rc"] != 0:
            errs = [f"repro exited {doc['rc']}"]
        if not errs:
            errs = CHECKS[name](doc["stdout"], ref)
        if errs:
            problems.extend(errs)
            continue
        setups.append(doc["setup_s"] * doc["scale"])
        (traced if with_trace else plain).append(doc)
    failed = attempted - len(plain) - len(traced)

    def scaled(key: str, docs: List[Dict[str, Any]]) -> List[float]:
        return [d[key] * d["scale"] for d in docs]

    metrics: Dict[str, float] = {
        "setup_s": median(setups),
        "analysis_s": median(scaled("wall_s", plain)),
        "cpu_s": median(scaled("cpu_s", plain)),
        "peak_rss_mb": median([d["rss_mb"] for d in plain]),
        "ops_per_s": 1.0 / median(scaled("total_s", plain)) if plain else 0.0,
        "host.calibration_ms": 1e3 * median(gauge.cals),
    }
    samples = {"setup": len(setups), "analysis": len(plain), "traced": len(traced)}
    raw = {
        "calibration_s": gauge.cals, "scale": [d["scale"] for d in plain],
        **{k: [d[k] for d in plain] for k in ("wall_s", "cpu_s", "total_s")},
    }
    trace_file = None
    if traced:
        figs = [layer_figures(d) for d in traced]
        for key in sorted({k for f in figs for k in f}):
            metrics[key] = median([f.get(key, 0.0) for f in figs])
        if plain:
            traced_s = median([f["traced_wall_s"] * d["scale"] for f, d in zip(figs, traced)])
            metrics["trace.overhead_pct"] = 100.0 * (traced_s / metrics["analysis_s"] - 1.0)
        trace_file = WORK / "traces" / f"{name}-seed{args.seed}.json"
        trace_problems = export_trace(traced, trace_file, tmp)
        problems.extend(trace_problems)
        failed += bool(trace_problems)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "samples": samples, "raw": raw,
        "trace_file": str(trace_file) if trace_file else None,
    }


# -- entry point ------------------------------------------------------------------

def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload in BATCH:
            res = run_batch(args.workload, args, tmp)
        else:
            import serve_load

            res = serve_load.run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {
        m["name"]: {"value": float(res["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), **res,
        "error_rate": res["failed"] / max(res["attempted"], 1),
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:14.6f} {m['unit']}")
    print(f"{'error_rate':32} {record['error_rate']:14.6f} fraction "
          f"({res['failed']} of {res['attempted']})")
    print(f"host calibration median {res['metrics']['host.calibration_ms']:.1f} ms "
          f"(times above are scaled to the reference {1e3 * CAL_REF_S:.0f} ms)")
    print(f"samples {json.dumps(res['samples'])}; record {out.relative_to(ROOT)}")
    if res.get("trace_file"):
        print(f"trace {Path(res['trace_file']).relative_to(ROOT)} "
              f"(open with: python3 -m repro obs analyze FILE)")
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
