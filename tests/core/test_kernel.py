"""The build of the kernel library (``repro.core.kernel``).

Every compiled policy and the queueing pass load one library, built once
from all the kernel sources: concurrent builds into one directory, reuse of
a built file, and the errors a failing or missing compiler raises.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import kernel

ROOT = Path(__file__).resolve().parents[2]

#: Replays a fixed stream through every online paper policy, from a library
#: built into ``argv[1]``, and prints the outcomes as JSON.
_BUILD_AND_REPLAY = """
import json, sys
from pathlib import Path
from repro.core import kernel
kernel.KERNEL_DIR = Path(sys.argv[1])
from repro.cache.registry import create_policy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.trace.columnar import ColumnarChunk
hints = [make_hint_set("c", obj=i) for i in range(4)]
requests = [
    IORequest((seq * 7) % 23, RequestKind.READ, hints[seq % 4 if seq % 3 else 0])
    for seq in range(400)
]
results = {}
for name in ("CLIC", "LRU", "ARC", "TQ"):
    kwargs = {"config": CLICConfig(window_size=10, charge_metadata=False)} if name == "CLIC" else {}
    policy = create_policy(name, capacity=8, **kwargs)
    batch = policy.batch_access(ColumnarChunk.from_requests(requests))
    results[name] = [
        column.tolist()
        for column in (batch.hit, batch.admitted, batch.bypassed, batch.evicted_pages,
                       batch.evicted_offsets)
    ]
print(json.dumps(results))
"""


def test_concurrent_builds_into_one_directory_replay_equal_outcomes(tmp_path):
    directory = tmp_path / "kernels"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILD_AND_REPLAY, str(directory)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    outputs = [process.communicate(timeout=120) for process in processes]
    for process, (_, stderr) in zip(processes, outputs):
        assert process.returncode == 0, stderr
    first, second = (json.loads(stdout) for stdout, _ in outputs)
    assert first == second
    # Every policy evicted a page.
    assert all(evicted_pages for _, _, _, evicted_pages, _ in first.values())
    # One finished library, no half-written temporary left behind.
    assert [path.name for path in directory.iterdir()] == [kernel.build(directory).name]


def _no_compiler(*args, **kwargs):
    raise AssertionError(f"the compiler ran: {args}")


def test_a_second_build_reuses_the_file(tmp_path, monkeypatch):
    path = kernel.build(tmp_path)
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(kernel.subprocess, "run", _no_compiler)
    assert kernel.build(tmp_path) == path
    assert path.stat().st_mtime_ns == stamp


def test_other_compiler_flags_build_another_file(tmp_path, monkeypatch):
    # The flags shape results (-ffp-contract=off), so a library built
    # with other flags is never reused.
    path = kernel.build(tmp_path)
    monkeypatch.setattr(kernel, "COMPILE", kernel.COMPILE[:-1])
    other = kernel.build(tmp_path)
    assert other != path
    assert sorted(tmp_path.iterdir()) == sorted([path, other])


def test_a_failing_compiler_raises_with_its_command_and_output(tmp_path, monkeypatch):
    failing = (sys.executable, "-c", "import sys; sys.stderr.write('no way'); sys.exit(3)")
    monkeypatch.setattr(kernel, "COMPILE", failing)
    with pytest.raises(RuntimeError, match="(?s)exited with status 3.*no way") as info:
        kernel.build(tmp_path)
    assert sys.executable in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_a_missing_compiler_raises_with_its_command(tmp_path, monkeypatch):
    missing = str(tmp_path / "no-such-compiler")
    monkeypatch.setattr(kernel, "COMPILE", (missing, "-O2"))
    with pytest.raises(RuntimeError, match="needs a C compiler") as info:
        kernel.build(tmp_path / "kernels")
    assert missing in str(info.value)
    assert list((tmp_path / "kernels").iterdir()) == []
