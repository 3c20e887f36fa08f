"""Versioned, content-addressed simulation snapshots.

A snapshot is a plain hierarchical JSON tree with two top-level
sections:

``kernel``
    The scheduler's own state — signal values, the pending timed-event
    queue, process termination flags, sim time and sequence counters —
    produced by :meth:`repro.kernel.Simulator.snapshot`.
``components``
    One subtree per registered state provider (masters, slaves,
    arbiter, monitors, workload sources, ...), each the provider's
    ``state_dict()``.

The **state digest** is the SHA-256 of the tree's canonical JSON
(sorted keys, compact separators).  Two simulations are in the same
state iff their digests match; the digest stream recorded at periodic
checkpoints is therefore a bit-exactness oracle for alternative
execution tiers (ROADMAP items 1–2) and for crash/resume.

Format versioning
-----------------
``format`` is ``repro-state/<major>``.  Loaders accept only their own
major version; *additive* changes (new optional keys, new component
sections) stay within a major version, while any change that alters
the meaning or encoding of existing keys — and therefore the digest of
an unchanged simulation state — bumps the major and refuses older
files explicitly rather than silently restoring drifted state.
"""

from __future__ import annotations

import hashlib
import json

from .atomic import atomic_write_text

#: Snapshot format marker (major version; see module docstring).
FORMAT = "repro-state/1"


class StateFormatError(ValueError):
    """A snapshot file has the wrong format marker or a bad digest."""


def canonical_json(obj):
    """The canonical serialization digests are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj):
    """SHA-256 hex digest of *obj*'s canonical JSON."""
    return _sha256(canonical_json(obj))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _join(texts):
    """Canonical JSON of a dict from its string keys and the canonical
    texts of its values."""
    return "{%s}" % ",".join(json.dumps(key) + ":" + text
                             for key, text in sorted(texts.items()))


class Snapshot:
    """One captured simulation state.

    Parameters
    ----------
    tree:
        ``{"kernel": {...}, "components": {path: {...}}}``.
    meta:
        Labels *about* the capture (cycle count, sim time, scenario /
        spec identity).  Meta is stored but **excluded from the
        digest** — the digest covers simulation state only.

    The tree is encoded once (:meth:`_encode`): the digest, every
    section digest and the saved file all come from that one
    canonical text.
    """

    __slots__ = ("tree", "meta", "_digest", "_text", "_sections")

    def __init__(self, tree, meta=None):
        self.tree = tree
        self.meta = dict(meta or {})
        self._digest = self._text = self._sections = None

    def _encode(self):
        """Encode each section of the tree once, hash it, and splice
        the section texts into the tree's canonical text."""
        tree = self.tree
        kernel = {key: canonical_json(value)
                  for key, value in tree.get("kernel", {}).items()}
        components = {path: canonical_json(state) for path, state
                      in tree.get("components", {}).items()}
        sections = {
            "kernel": _sha256(_join({key: text
                                     for key, text in kernel.items()
                                     if key != "signals"})),
            "kernel.signals": _sha256(kernel.get("signals", "{}")),
        }
        for path, text in components.items():
            sections["components." + path] = _sha256(text)
        top = {key: canonical_json(value) for key, value in tree.items()
               if key not in ("kernel", "components")}
        if "kernel" in tree:
            top["kernel"] = _join(kernel)
        if "components" in tree:
            top["components"] = _join(components)
        self._text = _join(top)
        self._sections = sections
        self._digest = _sha256(self._text)

    @property
    def digest(self):
        """Canonical SHA-256 state digest (cached)."""
        if self._digest is None:
            self._encode()
        return self._digest

    @property
    def cycle(self):
        return self.meta.get("cycle", 0)

    @property
    def time_ps(self):
        return self.meta.get("time_ps", 0)

    def section_digests(self):
        """Per-section sub-digests, keyed by state path.

        One entry per kernel section plus one per registered component
        — fine enough that a divergence report can name the misbehaving
        subsystem without storing whole trees per interval.
        """
        if self._digest is None:
            self._encode()
        return dict(self._sections)

    def stream_entry(self):
        """This snapshot's record in a digest stream."""
        return {
            "cycle": self.cycle,
            "time_ps": self.time_ps,
            "digest": self.digest,
            "sections": self.section_digests(),
        }

    def to_dict(self):
        return {
            "format": FORMAT,
            "digest": self.digest,
            "meta": dict(self.meta),
            "state": self.tree,
        }

    @classmethod
    def from_dict(cls, data, verify=True):
        fmt = data.get("format")
        if fmt != FORMAT:
            raise StateFormatError(
                "not a %s snapshot (format=%r); snapshots from other "
                "major versions are not restorable" % (FORMAT, fmt))
        snapshot = cls(data["state"], meta=data.get("meta"))
        if verify:
            recorded = data.get("digest")
            if recorded != snapshot.digest:
                raise StateFormatError(
                    "snapshot digest mismatch: file says %s, content "
                    "hashes to %s (corrupt or hand-edited snapshot)"
                    % (recorded, snapshot.digest))
        return snapshot

    def save(self, path):
        """Write the snapshot atomically as compact canonical JSON;
        returns *path*.

        A snapshot file is machine state, verified by its digest on
        load, so it skips the indent, and its ``state`` is the text
        the digest was computed over.  Indented snapshot files load
        the same.
        """
        digest = self.digest      # encodes the tree, once
        return atomic_write_text(path, _join({
            "digest": json.dumps(digest),
            "format": json.dumps(FORMAT),
            "meta": canonical_json(self.meta),
            "state": self._text,
        }) + "\n")

    @classmethod
    def load(cls, path, verify=True):
        with open(path) as fh:
            return cls.from_dict(json.load(fh), verify=verify)

    def __repr__(self):
        return "Snapshot(cycle=%s, time_ps=%s, digest=%s)" % (
            self.cycle, self.time_ps, self.digest[:12])
