"""On-disk checkpoint store with a crash-tolerant digest stream.

Layout of a store directory::

    ckpt-000000002500-5f1d9c0a7b21.json   # Snapshot at cycle 2500
    ckpt-000000005000-90ee43b1c77d.json
    digests.jsonl                         # one line per interval

Checkpoint files are content-addressed (cycle + digest prefix in the
name, full digest verified on load) and written atomically, so a crash
can never leave a half-written checkpoint with a plausible name.  The
digest stream is an append-only JSONL file with the same truncation
tolerance as the exec journal: a torn final line (the crash write) is
dropped on load, anything worse is an error.

``keep`` bounds disk use by pruning the oldest checkpoint *files*;
the digest stream is never pruned — it is the run's oracle record.
"""

from __future__ import annotations

import json
import os
import re

from .snapshot import Snapshot, StateFormatError

_CKPT_RE = re.compile(r"^ckpt-(\d{12})-([0-9a-f]{12})\.json$")

#: Digest-stream file name inside a store directory.
STREAM_NAME = "digests.jsonl"


class CheckpointStore:
    """A directory of periodic checkpoints for one run."""

    def __init__(self, root, keep=None):
        self.root = root
        #: Keep at most this many newest checkpoint files (None = all).
        self.keep = keep

    # -- writing --------------------------------------------------------

    def put(self, snapshot, record_stream=True):
        """Persist *snapshot*; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        name = "ckpt-%012d-%s.json" % (snapshot.cycle,
                                       snapshot.digest[:12])
        path = os.path.join(self.root, name)
        snapshot.save(path)
        if record_stream:
            self.append_stream_entry(snapshot.stream_entry())
        self._prune()
        return path

    def append_stream_entry(self, entry):
        os.makedirs(self.root, exist_ok=True)
        with open(self.stream_path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _prune(self):
        if self.keep is None:
            return
        files = self._checkpoint_files()
        for cycle, _digest, name in files[:-self.keep]:
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass

    # -- reading --------------------------------------------------------

    @property
    def stream_path(self):
        return os.path.join(self.root, STREAM_NAME)

    def _checkpoint_files(self):
        """``(cycle, digest12, name)`` tuples sorted by cycle."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in os.listdir(self.root):
            match = _CKPT_RE.match(name)
            if match:
                out.append((int(match.group(1)), match.group(2), name))
        out.sort()
        return out

    def checkpoint_cycles(self):
        return [cycle for cycle, _d, _n in self._checkpoint_files()]

    def latest(self):
        """Newest loadable checkpoint (integrity-verified), or None.

        A checkpoint that fails digest verification is skipped in
        favour of the next-newest — a resumed run would rather lose one
        interval than restore corrupt state.
        """
        for cycle, _digest, name in reversed(self._checkpoint_files()):
            try:
                return Snapshot.load(os.path.join(self.root, name))
            except (StateFormatError, ValueError, OSError):
                continue
        return None

    def digest_stream(self, up_to_cycle=None):
        """Recorded stream entries, oldest first.

        Tolerates a truncated final line (torn crash write); interior
        corruption raises, as it does for the exec journal.
        """
        if not os.path.exists(self.stream_path):
            return []
        entries = []
        with open(self.stream_path) as fh:
            lines = fh.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    break  # torn tail from a crash mid-append
                raise StateFormatError(
                    "corrupt digest stream %s at line %d"
                    % (self.stream_path, index + 1))
            entries.append(entry)
        if up_to_cycle is not None:
            entries = [entry for entry in entries
                       if entry["cycle"] <= up_to_cycle]
        return entries

    def truncate_stream_after(self, cycle):
        """Drop stream entries past *cycle* (rewritten atomically).

        Used on resume: entries recorded after the checkpoint being
        restored describe intervals the resumed run will re-execute.
        """
        entries = self.digest_stream(up_to_cycle=cycle)
        tmp = self.stream_path + ".tmp"
        with open(tmp, "w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.stream_path)
        return entries
