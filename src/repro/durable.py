"""Durable whole-file replacement: temporary file, fsync, rename.

Every file the package rewrites in place -- run and sweep manifests,
journal checkpoints, ``metrics.json``, the bench documents, and the
serve daemon's ``pending/``, ``results/`` and ``server.json`` -- goes
through :func:`write_atomic`, so a crash or power cut leaves either the
old file or the complete new one, never a torn mix.  (The trace cache's
bundle writer keeps its own locked evict-and-retry path.)

This module imports nothing from the package but :mod:`repro.errors`,
so every layer, :mod:`repro.obs` included, can use it without a cycle.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Union

from repro.errors import ResourceExhaustedError, is_resource_exhaustion


def write_atomic(path, data: Union[bytes, str]) -> pathlib.Path:
    """Durably replace *path* with *data* (str is UTF-8 encoded).

    The bytes go to ``<path>.tmp``, are fsync'd, and the temporary is
    renamed over *path*.  On any error the temporary is removed; running
    out of disk space, quota or file descriptors raises
    :class:`~repro.errors.ResourceExhaustedError`, so callers can
    degrade instead of crash.  Returns *path*.
    """
    path = pathlib.Path(path)
    if isinstance(data, str):
        data = data.encode()
    temporary = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                     0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        if is_resource_exhaustion(exc):
            raise ResourceExhaustedError(
                f"cannot write {path}: {exc}") from exc
        raise
    return path
