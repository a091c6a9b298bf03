"""Hint schemas, trace containers, serialization, the trace cache and noise injection."""

from repro.trace.binio import (
    BinaryTraceWriter,
    StreamedTrace,
    TraceFormatError,
    write_trace_binary,
)
from repro.trace.cache import (
    TraceCache,
    TraceSpec,
    default_trace_cache,
    set_default_trace_cache,
)
from repro.trace.noise import ZipfSampler, inject_noise_hints
from repro.trace.records import Trace, TraceSummary
from repro.trace.schema import (
    DB2_HINT_NAMES,
    MYSQL_HINT_NAMES,
    RequestType,
    db2_schema,
    mysql_schema,
)

__all__ = [
    "Trace",
    "TraceSummary",
    "TraceFormatError",
    "BinaryTraceWriter",
    "StreamedTrace",
    "write_trace_binary",
    "TraceCache",
    "TraceSpec",
    "default_trace_cache",
    "set_default_trace_cache",
    "ZipfSampler",
    "inject_noise_hints",
    "RequestType",
    "DB2_HINT_NAMES",
    "MYSQL_HINT_NAMES",
    "db2_schema",
    "mysql_schema",
]
