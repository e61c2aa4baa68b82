#!/usr/bin/env python
"""CI smoke test for ``repro serve``: real process, real sockets.

Starts the server as an operator would (``python -m repro serve``),
drives concurrent load — including two byte-identical requests that
must collapse onto one execution — then sends SIGTERM and checks for a
clean drain (exit code 0).

Usage::

    python scripts/serve_smoke.py [--jobs N]

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

from repro.dataflow.api import PerFlow  # noqa: E402
from repro.pag.formats import save_pag  # noqa: E402
from repro.serve.client import analyze, http_request, wait_ready  # noqa: E402

_ANNOUNCE = re.compile(r"serving on ([\d.]+):(\d+)")


def _fail(msg: str) -> "NoReturn":  # noqa: F821 - py39-safe comment type
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _smoke_pag_file(workdir: str) -> str:
    from repro.apps import microbench  # local import: needs sys.path set up

    pag = PerFlow().run(bin=microbench.build(), nprocs=4)
    path = os.path.join(workdir, "smoke.pag")
    save_pag(pag, path, format=3)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as workdir:
        pag_path = _smoke_pag_file(workdir)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--jobs",
                str(args.jobs),
                "--cache-dir",
                os.path.join(workdir, "cache"),
                "--ledger-dir",
                os.path.join(workdir, "ledger"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
        )
        try:
            deadline = time.monotonic() + 30.0
            host, port = "", 0
            while time.monotonic() < deadline and not port:
                line = proc.stdout.readline()
                if not line and proc.poll() is not None:
                    _fail(f"server exited rc={proc.poll()}: {proc.stderr.read()[-2000:]}")
                m = _ANNOUNCE.search(line or "")
                if m:
                    host, port = m.group(1), int(m.group(2))
            if not port:
                proc.kill()
                _fail("server never announced its address")
            wait_ready(host, port)

            status, _h, body = http_request(host, port, "GET", "/healthz")
            if status != 200:
                _fail(f"healthz returned {status}: {body!r}")

            # Concurrent load: distinct pipelines plus TWO byte-identical
            # requests (same pipeline, params, PAG) that must collapse.
            payloads = [
                {"pipeline": "hotspot", "pag_path": pag_path},
                {"pipeline": "mpi_profiler", "pag_path": pag_path},
                {"pipeline": "imbalance", "pag_path": pag_path},
                {"pipeline": "hotspot", "params": {"top": 3}, "pag_path": pag_path},
                {"pipeline": "hotspot", "params": {"top": 3}, "pag_path": pag_path},
            ]
            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                results = list(
                    pool.map(lambda p: analyze(host, port, p, timeout=60.0), payloads)
                )
            collapsed_seen = 0
            for payload, (status, events) in zip(payloads, results):
                if status != 200:
                    _fail(f"{payload['pipeline']}: status {status}: {events}")
                last = events[-1]
                if last.get("event") != "result":
                    _fail(f"{payload['pipeline']}: no result event: {last}")
                collapsed_seen += 1 if last.get("collapsed") else 0
            if collapsed_seen != 1:
                _fail(
                    f"expected exactly 1 collapsed response from the identical "
                    f"pair, saw {collapsed_seen}"
                )

            status, _h, body = http_request(host, port, "GET", "/metrics")
            metrics = json.loads(body)
            counters = metrics.get("counters", {})
            if counters.get("serve.requests", 0) < len(payloads):
                _fail(f"serve.requests missing or low: {counters}")
            if counters.get("serve.collapsed", 0) != 1:
                _fail(f"serve.collapsed != 1: {counters}")

            proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                _fail("server did not drain within 30s of SIGTERM")
            if rc != 0:
                _fail(f"SIGTERM drain exited {rc}: {proc.stderr.read()[-2000:]}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    print(f"serve-smoke: OK (jobs={args.jobs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
