"""repro.serve — analysis-as-a-service front end.

Turns one-shot CLI analyses into a long-lived concurrent service:
``repro serve`` accepts PAG-plus-pipeline requests over HTTP/JSON,
validates them with ``PerFlowGraph.check()``, executes them on a
bounded worker pool, collapses concurrent
identical requests into one execution (single-flight), and shares the
content-addressed result cache across every client.  See
``docs/SERVING.md``.
"""

from repro.serve.pipelines import (
    PipelineSpec,
    build_graph,
    get_pipeline,
    pipeline_names,
    register_pipeline,
    unregister_pipeline,
)
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    ProtocolError,
    parse_analyze_request,
)
from repro.serve.queue import AdmissionController
from repro.serve.server import ReproServer, ServerConfig
from repro.serve.singleflight import SingleFlight

__all__ = [
    "AdmissionController",
    "AnalyzeRequest",
    "MAX_BODY_BYTES",
    "PipelineSpec",
    "ProtocolError",
    "ReproServer",
    "ServerConfig",
    "SingleFlight",
    "build_graph",
    "get_pipeline",
    "parse_analyze_request",
    "pipeline_names",
    "register_pipeline",
    "unregister_pipeline",
]
