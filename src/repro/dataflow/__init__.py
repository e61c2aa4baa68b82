"""PerFlow programming abstraction: the dataflow layer.

* :mod:`~repro.dataflow.graph` — :class:`PerFlowGraph`: the dataflow
  graph of passes (vertices) and sets (edges) of §4.1/§4.2, with
  deterministic topological execution and fixpoint groups for
  repeat-until-stable analyses (Fig. 11).
* :mod:`~repro.dataflow.scheduler` — the dependency-counting wavefront
  behind every ``PerFlowGraph.run``: inline in node-id order at
  ``jobs=1``, and with ``jobs=N`` independent nodes run concurrently on
  a thread pool with serial-identical semantics.
* :mod:`~repro.dataflow.lowlevel` — the low-level API surface of
  §4.3.1: graph operations, graph algorithms, set operations, and the
  constants (``MPI``, ``LOOP``, ``COMM``, ``COLL_COMM``, …) the paper's
  listings reference as ``pflow.*``.
* :mod:`~repro.dataflow.api` — the :class:`PerFlow` facade
  (``pflow = PerFlow(); pag = pflow.run(...)``) exposing the built-in
  pass library as high-level methods.
"""

from repro.dataflow.graph import PerFlowGraph, PipelineError
from repro.dataflow.scheduler import ENV_JOBS, resolve_jobs
from repro.dataflow.signatures import PassSignature, SetKind, signature
from repro.dataflow.api import PerFlow

__all__ = [
    "PerFlowGraph",
    "PipelineError",
    "PerFlow",
    "PassSignature",
    "SetKind",
    "signature",
    "ENV_JOBS",
    "resolve_jobs",
]
