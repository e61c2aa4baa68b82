"""Paths and helpers shared by the benchmark's workloads."""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run writes: per-run temp dirs, result records, traces.
WORK = ROOT / ".perfbench_work"


#: Seconds :func:`calibrate` takes on the reference host.  Every timed
#: end-to-end figure is reported as what it would have been there.
CAL_REF_S = 0.125


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of numpy sorting and
    Python dict and tuple churn.  No repro code runs in it, so it
    gauges only how fast the host is at that moment; on a shared host
    that speed swings by a third over tens of seconds."""
    t0 = time.perf_counter()
    a = np.random.default_rng(0).random(400_000)
    np.cumsum(a[np.argsort(a)])
    d = {}
    for i in range(100_000):
        d[(i * 7919) % 1_000_003] = (i, str(i))
    sorted(d.items())
    return time.perf_counter() - t0


class HostGauge:
    """Calibrations taken between the timed operations of a run.

    Call :meth:`tick` right after each operation; it returns the factor
    that turns a time measured in that operation into reference-host
    time: ``CAL_REF_S`` over the mean of the calibrations just before
    and just after it."""

    def __init__(self) -> None:
        calibrate()  # warm-up: the first call also pays page faults
        self.cals = [calibrate()]

    def tick(self) -> float:
        self.cals.append(calibrate())
        return CAL_REF_S / ((self.cals[-2] + self.cals[-1]) / 2)


def child_env(tmp: Path, hashseed: Optional[int] = None) -> Dict[str, str]:
    """The default configuration: no ``PERFLOW_*`` settings except a
    ledger and crash dir inside this run's temp dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFLOW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PERFLOW_LEDGER_DIR"] = str(tmp / "ledger")
    env["PERFLOW_CRASH_DIR"] = str(tmp / "crash")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return env

