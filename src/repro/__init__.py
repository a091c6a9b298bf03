"""repro — a full reproduction of CLIC: CLient-Informed Caching for Storage Servers.

The package is organised as follows:

* :mod:`repro.core` — the paper's contribution: the generic hint framework,
  on-line hint analysis, and the CLIC replacement policy.
* :mod:`repro.cache` — the paper's baseline replacement policies (LRU,
  ARC, TQ and the offline OPT), all behind one interface.
* :mod:`repro.simulation` — the trace-driven storage-server cache simulator
  and parameter-sweep drivers.
* :mod:`repro.trace` — hint schemas, trace containers, serialization and
  noise injection.
* :mod:`repro.workloads` — synthetic first-tier DBMS clients (TPC-C-like and
  TPC-H-like workloads over a simulated buffer pool) that generate hinted
  I/O traces, standing in for the paper's instrumented DB2/MySQL systems.
* :mod:`repro.analysis` — hint-set priority analysis and report formatting.
* :mod:`repro.experiments` — one entry point per table/figure of the paper.
"""

from repro.cache import (
    ARCPolicy,
    CachePolicy,
    CacheStats,
    LRUPolicy,
    OPTPolicy,
    PAPER_POLICIES,
    TQPolicy,
    available_policies,
    create_policy,
    register_policy,
)
from repro.core import (
    CLICConfig,
    CLICPolicy,
    EMPTY_HINT_SET,
    HintSchema,
    HintSet,
    HintType,
    make_hint_set,
)
from repro.simulation import (
    CacheSimulator,
    IORequest,
    RequestKind,
    SimulationResult,
    SweepResult,
    read_request,
    simulate,
    write_request,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CLICPolicy",
    "CLICConfig",
    "HintSchema",
    "HintSet",
    "HintType",
    "make_hint_set",
    "EMPTY_HINT_SET",
    # cache policies
    "CachePolicy",
    "CacheStats",
    "LRUPolicy",
    "ARCPolicy",
    "OPTPolicy",
    "TQPolicy",
    "PAPER_POLICIES",
    "available_policies",
    "create_policy",
    "register_policy",
    # simulation
    "IORequest",
    "RequestKind",
    "read_request",
    "write_request",
    "CacheSimulator",
    "simulate",
    "SimulationResult",
    "SweepResult",
]
