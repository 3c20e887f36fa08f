"""Crash-safe JSON file writes.

Resumable campaign state (fuzz ``state.json``, corpus entries,
checkpoint snapshots) must never be observable half-written: a worker
SIGKILLed mid-``json.dump`` would otherwise leave a truncated file
that poisons the next ``--resume``.  :func:`atomic_write_json` gives
every writer the same discipline journals already use — write to a
temporary file in the destination directory, flush + fsync, then
``os.replace`` onto the final name.  POSIX guarantees the rename is
atomic, so readers only ever see the old complete file or the new
complete file.
"""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_json(path, data, indent=2, sort_keys=True):
    """Write *data* as JSON to *path* atomically.

    The text is built before the temporary file exists, with
    ``json.dumps``: it runs the C encoder when *indent* is None, where
    ``json.dump`` never does.  A serialization failure therefore
    leaves nothing behind.  The temporary file lives in the
    destination directory (``rename`` across filesystems is not
    atomic), is fsynced before the rename, and is removed on any
    write failure.
    """
    text = json.dumps(data, indent=indent, sort_keys=sort_keys) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path
