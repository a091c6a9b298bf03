"""Build and load the C library of policy kernels through ctypes.

The library holds the per-request loops of every cache policy (CLIC, LRU,
ARC, TQ and OPT: ``_<name>_kernel.c``), the sharded cluster's hash router
(``_route_kernel.c``), the queueing simulation's two hot loops
(``_queueing_kernel.c``) and the binary trace format's BLOCK decoder
(``_trace_kernel.c``), all built from the sources beside this module and the
header the policies share (``_kernel.h``).  The first :func:`load`
in a process compiles them with the system C compiler into one library in
``~/.cache/repro-clic/kernels/``, under a file name keyed by the sha256 of
the compiler command and of every source and header, and by the
interpreter's cache tag, and later calls (and later processes) reuse that
file.  The library lands through a temporary file and an atomic rename, as
:meth:`repro.trace.cache.TraceCache.ensure` writes traces, so processes that
build at once never load a half-written file.  A missing or failing compiler
raises :class:`RuntimeError` naming the command and its output; there is no
fallback.

:class:`KernelPolicy` is the Python side every compiled policy shares: the
instance's kernel handle, freed with the instance, the inspection accessors,
and one kernel call per chunk.
:func:`replay` hands a chunk's columns to that call, on one handle or on
every shard handle of a sharded cluster.
"""

from __future__ import annotations

import abc
import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import weakref
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.cache.base import AccessOutcomeBatch, CachePolicy

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.core.hints import HintSet
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "COMPILE",
    "HEADERS",
    "KERNEL_DIR",
    "KernelPolicy",
    "SOURCES",
    "address",
    "build",
    "columns",
    "load",
    "replay",
]

_HERE = Path(__file__).parent
#: The library's C sources, shipped as package data.
SOURCES = tuple(
    _HERE / f"_{name}_kernel.c"
    for name in ("clic", "lru", "arc", "tq", "opt", "route", "queueing", "trace")
)
#: The header the sources share.
HEADERS = (_HERE / "_kernel.h",)
#: Where built libraries are cached.
KERNEL_DIR = Path.home() / ".cache" / "repro-clic" / "kernels"
#: The compiler command; the output path, the sources and :data:`_LINK`
#: are appended.  No multiply-add is fused, so float code rounds as Python's.
COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: The libraries linked after the sources.
_LINK = ("-lm",)

_library: ctypes.CDLL | None = None


def build(directory: Path) -> Path:
    """The kernel library in *directory*, compiled there first if missing."""
    # The flags shape results (-ffp-contract=off keeps float code rounding
    # as Python's), so they key the file name with the sources.
    digest = hashlib.sha256("\0".join((*COMPILE, *_LINK)).encode() + b"\0")
    for path in (*SOURCES, *HEADERS):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    path = directory / f"kernels-{digest.hexdigest()[:16]}-{sys.implementation.cache_tag}.so"
    if path.exists():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=".kernels-", suffix=".so.tmp", dir=directory)
    os.close(fd)
    command = [*COMPILE, "-o", tmp_name, *map(str, SOURCES), *_LINK]
    try:
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(
                f"cannot build the policy kernels: `{' '.join(command)}` failed to "
                f"start ({exc}); every cache policy needs a C compiler, and so does "
                "reading a binary trace"
            ) from exc
        if result.returncode != 0:
            raise RuntimeError(
                f"cannot build the policy kernels: `{' '.join(command)}` exited with "
                f"status {result.returncode}:\n{result.stderr}"
            )
        os.replace(tmp_name, path)
    finally:
        Path(tmp_name).unlink(missing_ok=True)
    return path


def load() -> ctypes.CDLL:
    """The process's kernel library, built into :data:`KERNEL_DIR` on first use."""
    global _library
    if _library is None:
        library = ctypes.CDLL(str(build(KERNEL_DIR)))
        handle, i64, status = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
        signatures: list[tuple[str, Any, list[Any]]] = [
            ("clic_new", handle, [i64, i64, i64, ctypes.c_double, i64]),
            ("clic_reserve", status, [handle, i64]),
            ("clic_windows", i64, [handle]),
            ("clic_priorities", i64, [handle, handle, handle]),
            ("lru_new", handle, [i64]),
            ("arc_new", handle, [i64]),
            ("arc_p", ctypes.c_double, [handle]),
            ("tq_new", handle, [i64, i64, status]),
            ("opt_new", handle, [i64]),
            ("route_hash", None, [i64, handle, i64, handle]),
            (
                "queue_replay",
                status,
                [i64, handle, handle, handle, handle, i64, handle, handle, handle, i64,
                 i64, handle, handle, handle],
            ),
            (
                "poisson_times",
                None,
                [ctypes.c_uint64, ctypes.c_double, i64, i64, handle, handle],
            ),
            (
                "trace_block",
                status,
                [ctypes.c_char_p, i64, i64, i64, *[handle] * 7],
            ),
        ]
        for kernel in ("clic", "lru", "arc", "tq", "opt"):
            signatures += [
                (f"{kernel}_free", None, [handle]),
                (f"{kernel}_len", i64, [handle]),
                (f"{kernel}_contains", status, [handle, i64]),
                (f"{kernel}_pages", None, [handle, handle]),
                (f"{kernel}_replay", None, [handle, i64, handle]),
                (f"{kernel}_cluster", None, [handle, i64, handle]),
            ]
        for name, restype, argtypes in signatures:
            function = getattr(library, name)
            function.restype = restype
            function.argtypes = argtypes
        _library = library
    return _library


def address(array: Any) -> int:
    """The data pointer of a C-contiguous numpy array."""
    return int(array.__array_interface__["data"][0])


def columns(
    n: int,
    flags: int,
    evictions: int,
    page: int,
    write: int = 0,
    hint: int = 0,
    seq: int = 0,
    lookup: int = 0,
    shard: int = 0,
    lookups: int = 0,
) -> Any:
    """The kernels' ``Columns`` struct for *n* requests, from the addresses
    of the hit/admitted/bypassed flag rows (*n* bytes apart), the eviction
    columns (*n* + 1 offsets, then the evicted pages) and the input columns
    a kernel reads (0 for the others)."""
    return np.array(
        [page, write, hint, seq, lookup, shard, lookups, flags, flags + n, flags + 2 * n,
         evictions, evictions + 8 * (n + 1)],
        np.int64,
    )


def replay(
    call: Callable[[int, int], None],
    chunk: "ColumnarChunk",
    lookup_key: str | None,
    lookups: Sequence[Any],
    shard: Any = None,
) -> AccessOutcomeBatch:
    """Replay *chunk* in one kernel call, ``call(n, columns)``: a handle's
    ``<kernel>_replay`` with the one lookup column of *lookups*, or, given a
    cluster's int64 *shard* column (checked by the cluster), the shard
    handles' ``<kernel>_cluster``, shard s reading ``lookups[s]``.

    Every kernel reads the page column.  One with a lookup column (see
    :attr:`KernelPolicy.lookup_key`) also reads the seq column, and one that
    looks up through hint indexes the write and hint-index columns too.
    The kernel trusts these: every column has one entry per request, and
    every lookup key indexes every lookup column, so both are checked here.
    A kernel without a lookup column gets ``None``s.
    """
    page = np.ascontiguousarray(chunk.page, np.int64)
    n = len(page)
    write: Any = None
    hint: Any = None
    seq: Any = None
    if lookup_key is not None:
        seq = key = np.ascontiguousarray(chunk.seq, np.int64)
        if lookup_key == "hint":
            write = np.ascontiguousarray(chunk.write, np.bool_)
            hint = key = np.ascontiguousarray(chunk.hint_id, np.int64)
        if any(column is not None and len(column) != n for column in (write, hint, seq)):
            raise ValueError(f"chunk columns differ in length from its {n} pages")
        room = min(len(lookup) for lookup in lookups)
        # As uint64, a negative key lies past every room as well.
        if n and key.view(np.uint64).max() >= room:
            raise IndexError(f"lookup key outside the kernel's {room}-entry lookup column")
    flags = np.empty((3, n), np.bool_)
    evictions = np.empty(2 * n + 1, np.int64)
    inputs = [0 if column is None else address(column) for column in (page, write, hint, seq)]
    addresses = [0 if lookup is None else address(lookup) for lookup in lookups]
    if shard is None:
        struct = columns(n, address(flags), address(evictions), *inputs, addresses[0])
    else:
        # The kernel reads the shards' lookup columns through this array.
        pointers = np.array(addresses, np.int64)
        struct = columns(
            n, address(flags), address(evictions), *inputs,
            shard=address(shard), lookups=address(pointers),
        )
    call(n, address(struct))
    evicted = evictions[n + 1 : n + 1 + int(evictions[n])]
    return AccessOutcomeBatch(flags[0], flags[1], flags[2], evicted, evictions[: n + 1], shard=shard)


class KernelPolicy(CachePolicy, abc.ABC):
    """A policy whose per-request loop is one of the library's C kernels.

    A subclass names its kernel (:attr:`kernel`) and opens it with
    :meth:`_open`.  The library runs kernel ``k`` through ``k_new``,
    ``k_free``, ``k_len``, ``k_contains``, ``k_pages``, ``k_replay`` and
    ``k_cluster`` (a sharded cluster's chunk, over every shard's handle).
    Each instance owns one handle, freed when the instance is, so an
    instance cannot be copied or pickled.

    :meth:`batch_access` is one kernel call per chunk (:func:`replay`),
    over the chunk columns the kernel reads and the instance's lookup
    column (:meth:`_lookup`).
    """

    #: The kernel's name in the library.
    kernel: str

    #: The chunk column through which the kernel reads its lookup column
    #: (:meth:`_lookup`): ``"hint"`` for a column over the chunk's hint
    #: table, ``"seq"`` for one over sequence numbers, ``None`` for a kernel
    #: that reads the page alone.
    lookup_key: str | None = None

    def _open(self, *args: float) -> None:
        """Create this instance's kernel state with ``<kernel>_new(*args)``."""
        self._lib = library = load()
        handle = getattr(library, f"{self.kernel}_new")(*args)
        if not handle:
            raise MemoryError(
                f"cannot allocate {self.name} state for capacity {self.capacity}"
            )
        self._handle: int = handle
        weakref.finalize(self, getattr(library, f"{self.kernel}_free"), handle)
        self._kernel_len = getattr(library, f"{self.kernel}_len")
        self._kernel_contains = getattr(library, f"{self.kernel}_contains")
        self._kernel_pages = getattr(library, f"{self.kernel}_pages")
        self._call = partial(getattr(library, f"{self.kernel}_replay"), handle)
        # The hint table of the last hinted chunk and its lookup column.
        self._table: tuple[HintSet, ...] | None = None
        self._table_column = np.zeros(0, np.int64)

    def __reduce_ex__(self, protocol: Any) -> Any:
        # A copy would share (and later free twice) the kernel's state.
        raise TypeError(f"{type(self).__name__} holds C state; it cannot be copied or pickled")

    # ---------------------------------------------------------------- replay
    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        return replay(self._call, chunk, self.lookup_key, (self._lookup(chunk),))

    def _lookup(self, chunk: "ColumnarChunk") -> Any:
        """The int64 column the kernel reads through :attr:`lookup_key` for
        *chunk*, or ``None`` for a kernel that reads the page alone."""
        return None

    def _per_hint_set(self, chunk: "ColumnarChunk", entry: Callable[[HintSet], int]) -> Any:
        """The int64 column of *entry* over the chunk's hint table, computed
        once per table (the chunks of a stream share their table)."""
        table = chunk.hint_sets
        if table is not self._table:
            self._table_column = np.array([entry(hints) for hints in table], np.int64)
            self._table = table
        return self._table_column

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return bool(self._kernel_contains(self._handle, page))

    def __len__(self) -> int:
        return int(self._kernel_len(self._handle))

    def cached_pages(self) -> Iterable[int]:
        pages = np.empty(len(self), np.int64)
        self._kernel_pages(self._handle, address(pages))
        return iter(pages.tolist())
