"""Build and load CLIC's C kernel (``_clic_kernel.c``) through ctypes.

The first :func:`load` in a process compiles the kernel with the system C
compiler into ``~/.cache/repro-clic/kernels/``, under a file name keyed by
the source's sha256 and the interpreter's cache tag, and later calls (and
later processes) reuse that file.  The library lands through a temporary
file and an atomic rename, as :meth:`repro.trace.cache.TraceCache.ensure`
writes traces, so processes that build at once never load a half-written
file.  A missing or failing compiler raises :class:`RuntimeError` naming
the command and its output; there is no fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["COMPILE", "KERNEL_DIR", "SOURCE", "build", "load"]

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("_clic_kernel.c")
#: Where built kernels are cached.
KERNEL_DIR = Path.home() / ".cache" / "repro-clic" / "kernels"
#: The compiler command; the output and source paths are appended.
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_library: ctypes.CDLL | None = None


def build(directory: Path) -> Path:
    """The kernel library in *directory*, compiled there first if missing."""
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    path = directory / f"clic-{digest}-{sys.implementation.cache_tag}.so"
    if path.exists():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=".clic-", suffix=".so.tmp", dir=directory)
    os.close(fd)
    command = [*COMPILE, "-o", tmp_name, str(SOURCE)]
    try:
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise RuntimeError(
                f"cannot build the CLIC kernel: `{' '.join(command)}` failed to "
                f"start ({exc}); CLIC needs a C compiler"
            ) from exc
        if result.returncode != 0:
            raise RuntimeError(
                f"cannot build the CLIC kernel: `{' '.join(command)}` exited with "
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
        for name, restype, argtypes in (
            ("clic_new", handle, [i64, i64]),
            ("clic_free", None, [handle]),
            ("clic_set_priorities", status, [handle, handle, i64]),
            ("clic_len", i64, [handle]),
            ("clic_contains", status, [handle, i64]),
            ("clic_pages", None, [handle, handle]),
            ("clic_replay", status, [handle, i64, i64, i64, handle, handle, handle]),
        ):
            function = getattr(library, name)
            function.restype = restype
            function.argtypes = argtypes
        _library = library
    return _library
