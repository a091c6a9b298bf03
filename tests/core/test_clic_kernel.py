"""Edge cases of CLIC's C kernel (``repro/core/_clic_kernel.c``).

* parity with the pure-Python reference (``tests/clic_reference.py``) on
  streams built to reach the kernel's corners: page ids that share a home
  slot in its page and outqueue tables (multiples of ``2**32``), the extreme
  ids ``0`` and ``2**63 - 1``, tiny caches and outqueues, and more hint sets
  than the kernel's first per-hint allocation, so those arrays grow
  mid-stream;
* the build: concurrent builds into one directory, reuse of a built file,
  and the error a failing compiler raises;
* a policy instance owns its kernel state, so it cannot be copied.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.trace.columnar import ColumnarChunk

from tests.clic_reference import CLICPolicy as ReferenceCLIC

ROOT = Path(__file__).resolve().parents[2]

#: Page ids whose low 32 bits are equal share one home slot in the kernel's
#: tables, so these build long probe runs and delete from their middle.
PAGES = [0, 2**63 - 1] + [k * 2**32 for k in range(1, 7)]

#: More hint sets than the kernel's initial per-hint allocation (64).
HINT_SETS = [make_hint_set("c", obj=i) for i in range(80)]


@st.composite
def edge_streams(draw):
    """Requests over :data:`PAGES`.  Every other request cycles through all
    of :data:`HINT_SETS` in order, so each stream uses at least 70 of them;
    the others draw theirs from the first few, which keeps re-references
    frequent enough to give hint sets nonzero priorities."""
    length = draw(st.integers(min_value=140, max_value=260))
    stream = []
    for position in range(length):
        page = draw(st.sampled_from(PAGES))
        kind = RequestKind.WRITE if draw(st.integers(0, 3)) == 0 else RequestKind.READ
        if position % 2:
            hints = HINT_SETS[draw(st.integers(min_value=0, max_value=4))]
        else:
            hints = HINT_SETS[(position // 2) % len(HINT_SETS)]
        stream.append(IORequest(page, kind, hints))
    return stream


def _replay_in_chunks(policy, stream, sizes):
    outcomes = []
    offset = 0
    index = 0
    while offset < len(stream):
        take = sizes[index % len(sizes)]
        chunk = ColumnarChunk.from_requests(stream[offset : offset + take], start_seq=offset)
        outcomes.extend(policy.batch_access(chunk).outcomes())
        offset += take
        index += 1
    return outcomes


@given(
    stream=edge_streams(),
    capacity=st.integers(min_value=1, max_value=4),
    outqueue=st.integers(min_value=0, max_value=2),
    window=st.integers(min_value=2, max_value=12),
    decay=st.sampled_from([1.0, 0.5]),
    top_k=st.sampled_from([None, 3]),
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_reference_on_colliding_pages(
    stream, capacity, outqueue, window, decay, top_k, sizes
):
    config = CLICConfig(
        window_size=window,
        decay=decay,
        top_k=top_k,
        outqueue_factor=outqueue / capacity,
        charge_metadata=False,
    )
    reference = ReferenceCLIC(capacity, config)
    assert reference.outqueue.capacity == outqueue
    expected = [reference.access(request, seq) for seq, request in enumerate(stream)]

    batched = CLICPolicy(capacity, config)
    assert _replay_in_chunks(batched, stream, sizes) == expected
    assert sorted(batched.cached_pages()) == sorted(reference.cached_pages())
    assert all(batched.contains(page) == reference.contains(page) for page in PAGES)

    scalar = CLICPolicy(capacity, config)
    assert [scalar.access(request, seq) for seq, request in enumerate(stream)] == expected
    assert len(scalar) == len(reference)


# ----------------------------------------------------------------- the build

#: Replays a fixed stream through a kernel built into ``argv[1]`` and prints
#: the outcomes as JSON.
_BUILD_AND_REPLAY = """
import json, sys
from pathlib import Path
from repro.core import kernel
kernel.KERNEL_DIR = Path(sys.argv[1])
from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
hints = [make_hint_set("c", obj=i) for i in range(4)]
policy = CLICPolicy(8, CLICConfig(window_size=10, charge_metadata=False))
outcomes = []
for seq in range(400):
    request = IORequest((seq * 7) % 23, RequestKind.READ, hints[seq % 4 if seq % 3 else 0])
    outcome = policy.access(request, seq)
    outcomes.append([outcome.hit, outcome.admitted, outcome.bypassed, list(outcome.evicted)])
print(json.dumps(outcomes))
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
    assert any(evicted for *_, evicted in first)
    # One finished library, no half-written temporary left behind.
    assert [path.name for path in directory.iterdir()] == [kernel.build(directory).name]


def test_a_second_build_reuses_the_file(tmp_path, monkeypatch):
    path = kernel.build(tmp_path)
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(kernel, "COMPILE", (str(tmp_path / "no-such-compiler"),))
    assert kernel.build(tmp_path) == path
    assert path.stat().st_mtime_ns == stamp


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


# --------------------------------------------------------------- ownership


def test_a_policy_cannot_be_copied_or_pickled():
    policy = CLICPolicy(4, CLICConfig(window_size=10, charge_metadata=False))
    with pytest.raises(TypeError, match="C state"):
        copy.deepcopy(policy)
    with pytest.raises(TypeError, match="C state"):
        pickle.dumps(policy)
