"""One batch analysis in a fresh interpreter.

    python3 perfbench/child.py OUT.json TRACE -- <repro CLI argv>

Imports ``repro.cli``, calls ``repro.cli.main(argv)`` once with its
standard output captured, and writes to ``OUT.json`` the monotonic time
at which the import finished (the parent subtracts its spawn time), the
call's wall and CPU seconds, the process's peak RSS, the exit code and
the captured output.  With ``TRACE`` = 1 the layer boundaries of
:mod:`layers` record spans during the call.  With no ARGV it only
imports ``repro.cli`` (a set-up sample).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main() -> int:
    out_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py OUT.json 0|1 -- ARGV...")
    rec = None
    if trace == "1":
        import layers

        rec = layers.Recorder(os.path.basename(out_path))
        span = rec.begin("cli.import")
    import repro.cli

    imported_at = time.monotonic()
    if not argv:  # import only: a set-up sample
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": imported_at}, fh)
        return 0
    if rec is not None:
        rec.end(span)
        analysis = rec.begin("cli.main")
        uninstall = layers.install(rec)
    captured = io.StringIO()
    cpu0, wall0 = _cpu(), time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = repro.cli.main(argv)
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    if rec is not None:
        uninstall()
        rec.end(analysis)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    doc = {
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss_kb / 1024.0,
        "rc": rc,
        "stdout": captured.getvalue(),
        "trace": rec.to_json() if rec is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
