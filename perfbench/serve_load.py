"""The ``serve-mixed`` workload: ``repro serve`` under a closed loop.

Set-up writes three format-3 PAGs (cg at 8 ranks, zeusmp at 16, lammps
at 8, class W) and starts the server ``SETUP_SPAWNS`` times as a
subprocess with a fresh ``--cache-dir``; each start is timed from spawn
to the first 200 on ``/healthz``, and the last server takes the load.

The load is a closed loop of ``CONNECTIONS`` client threads in this one
process: callers wait for their reply, so each sends its next request
only when the previous one ended.  Requests come in order from a
sequence generated from the seed over the ``hotspot``/``mpi_profiler``/
``imbalance`` pipelines with a random ``top``; half of them repeat an
earlier request exactly.  The load runs in ``SEGMENT_S`` segments with
a host calibration (:class:`common.HostGauge`) after each, and every
time measured in a segment is scaled by it.  The client reads each
NDJSON stream line by line, timing ``accepted`` and ``result``;
server-side figures are the delta of ``GET /metrics`` across the load,
and the server's CPU and RSS high-water come from ``/proc``.

``analysis_s`` is the mean scaled request latency: the traffic mix is
fixed and its latencies are multimodal (cache hit or miss, PAG size),
so their median falls in a gap between modes and jumps from run to
run; ``serve.request_p50_ms`` keeps the unscaled median.

Checks: every response is a 200 whose last event is ``result``; a
repeated request's result equals its first answer; a seeded sample of
distinct requests equals an in-process run of the same pipeline with
the cache off.  A refused, failed or wrong request counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, HostGauge, child_env, median

PAGS: Tuple[Tuple[str, int], ...] = (("cg", 8), ("zeusmp", 16), ("lammps", 8))
PIPELINES = ("hotspot", "mpi_profiler", "imbalance")
#: Clients = cores of the machine the benchmark was tuned on (2).
CONNECTIONS = 2
SETUP_SPAWNS = 3
#: The load runs in segments of this many seconds, each followed by a
#: host calibration while the server is idle.
SEGMENT_S = 2.0
TOP_RANGE = (1, 200)
VERIFY_SAMPLE = 6
TIMEOUT_S = 60.0

Key = Tuple[str, str, int]


def request_sequence(seed: int) -> List[Key]:
    """Blocks of two requests per (PAG, pipeline) pair, in seeded order:
    one with a ``top`` not asked before, one repeating an earlier
    request of the pair.  Every seed thus has the same mix and the same
    repeat share; the order and the ``top`` values vary.  The sequence
    ends when a pair has used every ``top`` in ``TOP_RANGE``."""
    rng = random.Random(seed)
    pairs = [(app, pipeline) for app, _ in PAGS for pipeline in PIPELINES]
    unused = {pair: list(range(TOP_RANGE[0], TOP_RANGE[1] + 1)) for pair in pairs}
    earlier: Dict[Tuple[str, str], List[Key]] = {pair: [] for pair in pairs}
    seq: List[Key] = []
    while all(unused.values()):
        block: List[Key] = []
        for pair in pairs:
            top = unused[pair].pop(rng.randrange(len(unused[pair])))
            earlier[pair].append((*pair, top))
            block += [earlier[pair][-1], rng.choice(earlier[pair])]
        rng.shuffle(block)
        seq += block
    return seq


def write_pags(tmp: Path) -> Dict[str, str]:
    from repro.apps import lammps, registry
    from repro.dataflow.api import PerFlow
    from repro.pag.formats import save_pag

    apps = registry("W")
    paths = {}
    for app, nprocs in PAGS:
        pflow = PerFlow(machine=lammps.MACHINE if app == "lammps" else None)
        pag = pflow.run(bin=apps[app](), nprocs=nprocs)
        paths[app] = str(tmp / f"{app}.pag3")
        save_pag(pag, paths[app], format=3)
    return paths


# -- HTTP -------------------------------------------------------------------------

def get_json(port: int, path: str) -> Dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def analyze(port: int, key: Key, paths: Dict[str, str]) -> Dict[str, Any]:
    """One request; times ``accepted`` and ``result`` as their lines arrive."""
    app, pipeline, top = key
    body = json.dumps(
        {"pipeline": pipeline, "params": {"top": top}, "pag_path": paths[app]}
    ).encode("utf-8")
    out: Dict[str, Any] = {"key": key, "ok": False}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        conn.request("POST", "/v1/analyze", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        out["status"] = resp.status
        if resp.status != 200:
            out["error"] = resp.read().decode("utf-8", "replace")[:200]
            return out
        last: Optional[Dict[str, Any]] = None
        while True:
            line = resp.readline()
            if not line:
                break
            last = json.loads(line)
            if last["event"] == "accepted":
                out["accepted_s"] = time.perf_counter() - t0
            elif last["event"] == "result":
                out["latency_s"] = time.perf_counter() - t0
                out["result"] = json.dumps(last["result"], sort_keys=True)
    except (OSError, http.client.HTTPException, ValueError) as err:
        out["error"] = f"{type(err).__name__}: {err}"
        return out
    finally:
        conn.close()
    if last is None or last["event"] != "result" or "accepted_s" not in out:
        out["error"] = f"stream did not end in result: {last!r}"[:200]
        return out
    out["ok"] = True
    return out


# -- the server process -------------------------------------------------------------

def start_server(tmp: Path, i: int) -> Tuple[subprocess.Popen, int, float]:
    """Spawn ``repro serve``; returns (process, port, spawn → healthy s)."""
    log = tmp / f"serve{i}.log"
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp / f"cache{i}")],
            env=child_env(tmp), cwd=tmp, stdout=fh, stderr=subprocess.STDOUT,
        )
    try:
        port = None
        while time.monotonic() - t0 < TIMEOUT_S and proc.poll() is None:
            if port is None:
                for line in log.read_text().splitlines():
                    if line.startswith("serving on "):
                        port = int(line.rsplit(":", 1)[1])
            if port is not None:
                try:
                    get_json(port, "/healthz")
                    return proc, port, time.monotonic() - t0
                except (OSError, http.client.HTTPException, RuntimeError):
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server {i} never became healthy: {log.read_text()[-400:]}")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# -- the load ---------------------------------------------------------------------

def closed_loop(port: int, seq: List[Key], paths: Dict[str, str],
                seconds: float, start: int) -> Tuple[List[Dict[str, Any]], float]:
    """Requests ``seq[start:]`` until ``seconds`` have passed."""
    lock = threading.Lock()
    records: List[Dict[str, Any]] = []
    cursor = [start]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline or cursor[0] >= len(seq):
                    return
                i = cursor[0]
                cursor[0] += 1
            rec = analyze(port, seq[i], paths)
            rec["index"] = i
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r["index"])
    return records, time.perf_counter() - t0


def verify(records: List[Dict[str, Any]], paths: Dict[str, str],
           seed: int) -> List[str]:
    """Mark wrong answers not ok; returns the problems found."""
    from repro.pag.formats import load_pag
    from repro.serve.pipelines import build_graph

    problems: List[str] = []
    first: Dict[Key, Dict[str, Any]] = {}
    for rec in records:
        if not rec["ok"]:
            problems.append(f"{rec['key']}: {rec.get('status')} {rec.get('error')}")
            continue
        head = first.setdefault(rec["key"], rec)
        if rec["result"] != head["result"]:
            rec["ok"] = False
            problems.append(f"{rec['key']}: repeat differs from its first answer")
    rng = random.Random(seed + 1)
    sample = rng.sample(sorted(first), min(VERIFY_SAMPLE, len(first)))
    pags = {app: load_pag(path, mmap=True) for app, path in paths.items()}
    for key in sample:
        app, pipeline, top = key
        want = build_graph(pipeline, {"top": top}).run(cache=False, V=pags[app].vs)["result"]
        if json.dumps(json.loads(json.dumps(want)), sort_keys=True) != first[key]["result"]:
            first[key]["ok"] = False
            problems.append(f"{key}: served result differs from an in-process run")
    return problems


def delta(after: Dict[str, Any], before: Dict[str, Any], kind: str, name: str,
          field: Optional[str] = None) -> float:
    def get(doc: Dict[str, Any]) -> float:
        value = doc[kind].get(name, {} if field else 0)
        return float(value.get(field, 0.0) if field else value)

    return get(after) - get(before)


def run(args: Any, tmp: Path) -> Dict[str, Any]:
    for name in [k for k in os.environ if k.startswith("PERFLOW_")]:
        del os.environ[name]  # the in-process reference runs the defaults too
    sys.path.insert(0, str(ROOT / "src"))
    paths = write_pags(tmp)
    seq = request_sequence(args.seed)

    setups: List[float] = []
    records: List[Dict[str, Any]] = []
    wall = cpu = 0.0  # reference-host seconds of load and of server CPU
    server = None
    gauge = HostGauge()
    try:
        for i in range(SETUP_SPAWNS):
            if server is not None:
                stop_server(server)
            server, port, setup = start_server(tmp, i)
            setups.append(setup * gauge.tick())
        before = get_json(port, "/metrics")
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline and len(records) < len(seq):
            cpu0 = proc_cpu_s(server.pid)
            segment, seg_wall = closed_loop(
                port, seq, paths, min(SEGMENT_S, deadline - time.monotonic()), len(records)
            )
            seg_cpu = proc_cpu_s(server.pid) - cpu0
            scale = gauge.tick()
            for rec in segment:
                rec["scale"] = scale
            records += segment
            wall += seg_wall * scale
            cpu += seg_cpu * scale
        hwm = proc_hwm_mb(server.pid)
        after = get_json(port, "/metrics")
    finally:
        if server is not None:
            stop_server(server)

    problems = verify(records, paths, args.seed)
    ok = [r for r in records if r["ok"]]
    seen: set = set()
    repeats = []
    for r in records:
        if r["key"] in seen and r["ok"]:
            repeats.append(r["latency_s"])
        seen.add(r["key"])
    latencies = [r["latency_s"] for r in ok]
    scaled = [r["latency_s"] * r["scale"] for r in ok]
    hits = delta(after, before, "counters", "dataflow.cache.hits")
    lookups = hits + delta(after, before, "counters", "dataflow.cache.misses")
    loads = delta(after, before, "histograms", "pag.load.seconds", "count")
    metrics = {
        "setup_s": median(setups),
        "analysis_s": statistics.mean(scaled) if scaled else 0.0,
        "cpu_s": cpu / max(len(ok), 1),
        "peak_rss_mb": hwm,
        "ops_per_s": len(ok) / wall,
        "host.calibration_ms": 1e3 * median(gauge.cals),
        "serve.request_p50_ms": 1e3 * median(latencies),
        "serve.prepare_p50_ms": 1e3 * median([r["accepted_s"] for r in ok]),
        "serve.execute_p50_ms": 1e3 * median([r["latency_s"] - r["accepted_s"] for r in ok]),
        "serve.request_p95_ms":
            1e3 * statistics.quantiles(latencies, n=20)[18] if len(latencies) > 1 else 0.0,
        "serve.repeat_p50_ms": 1e3 * median(repeats),
        "serve.collapsed": delta(after, before, "counters", "serve.collapsed"),
        "serve.rejected": delta(after, before, "counters", "serve.rejected"),
        "serve.errors": delta(after, before, "counters", "serve.errors"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.bytes": delta(after, before, "counters", "dataflow.cache.bytes"),
        "pag.load_p50_ms": 1e3 * after["histograms"].get("pag.load.seconds", {}).get("p50", 0.0),
        "pag.load_ms_total":
            1e3 * delta(after, before, "histograms", "pag.load.seconds", "sum"),
    }
    return {
        "attempted": len(records), "failed": len(records) - len(ok),
        "problems": problems, "metrics": metrics,
        "samples": {"setup": len(setups), "requests": len(records),
                    "repeats": len(repeats), "pag_loads": int(loads),
                    "p95_tail": len(latencies) - int(0.95 * len(latencies))},
        "trace_file": None,
    }
