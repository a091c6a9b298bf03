"""The benchmark's tracer still finds every method it times.

``perfbench/tracer.py`` wraps each layer it measures through the owning
class's (or module's) ``__dict__``, so renaming or deleting one of those
methods makes ``perfbench/run.py --trace 1`` raise ``KeyError``.  The
benchmark's own tests are not part of this suite, so this one loads the
tracer by path and enters and exits its instrumentation.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_instrumentation_wraps_and_restores_every_traced_method():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    instrumentation = tracer.Instrumentation(tracer.Tracer())
    with instrumentation:
        wrapped = list(instrumentation._saved)
        assert wrapped
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original, (owner, attr)
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, (owner, attr)
