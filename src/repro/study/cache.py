"""Content-addressed, log-structured on-disk cache for sweep experiment rows.

A finished experiment is one line appended to a *segment* file under the cache
root::

    <key>\\t<json>\\n

``<key>`` is a SHA-256 (64 hex characters) over

* the experiment's full identity (:meth:`ExperimentSpec.key_payload` -- every
  config key and harness knob, canonically JSON-encoded),
* a cache schema version, and
* a *code token*: a digest over the source of the whole ``repro`` package,

and ``<json>`` is the compact encoding of ``{"key", "schema", "payload"[,
"spec"]}`` (compact JSON holds no raw newline or tab, so a line is a record).

The code token is deliberately coarse.  Any change to the renderers, the cost
model, the mapping, or the engine itself invalidates every entry, because a
row is only reusable if the code that would recompute it is unchanged; a hash
of "just the relevant modules" invites silent staleness the first time a
dependency moves.  Hashing the package costs a few milliseconds once per
process.

**Writers.**  Each :class:`CorpusCache` that puts a row owns one segment,
created exclusively (``O_EXCL``, a name no other writer has) on its first put,
so concurrent sweeps sharing a root never write to the same file.  A put is
one complete line handed to the operating system before ``put`` returns;
segment names start with their creation time, so segments sort oldest first.

**Readers.**  The first ``get`` / ``in`` / ``len`` indexes every segment under
the root: ``key -> (segment, offset, length)`` for each complete line, later
lines (and later segments) replacing earlier ones, so the last complete write
of a key wins.  The index holds no row; ``get`` reads the one line it points
at.  A cache sees its own later puts; rows other writers append after the
index was built read as misses until a new :class:`CorpusCache` is opened.

**Durability.**  A sweep killed at any instant loses at most the rows that
were in flight: a line cut short by the kill has no terminating newline and is
not indexed.  A line that does not decode, or whose embedded ``key`` differs
from the key it is indexed under, reads as a miss and the spec re-runs -- that
is what makes ``run --resume`` safe after any interruption.

Failures are never cached: an interrupted or crashed configuration is retried
on the next run, only successful rows short-circuit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import repro

__all__ = ["CACHE_SCHEMA_VERSION", "CorpusCache", "cache_key", "code_token"]

#: Bump when the row payload schema changes shape (invalidates every entry).
CACHE_SCHEMA_VERSION = 1

_SEGMENT_SUFFIX = ".rows"
_KEY_LENGTH = 64  # hex characters of a SHA-256


@lru_cache(maxsize=1)
def code_token() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package."""
    # ``repro`` is a namespace package (no __init__.py), so __file__ is None;
    # __path__ still names its single source directory.
    package_root = Path(next(iter(repro.__path__))).resolve()
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_key(spec_payload: dict, token: str | None = None) -> str:
    """Stable content address of one experiment.

    ``spec_payload`` must be the flat JSON-safe dict of
    :meth:`ExperimentSpec.key_payload`; canonical encoding (sorted keys, no
    whitespace variance) makes the key independent of dict ordering.
    """
    canonical = json.dumps(spec_payload, sort_keys=True, separators=(",", ":"))
    material = f"{CACHE_SCHEMA_VERSION}\x1f{token if token is not None else code_token()}\x1f{canonical}"
    return hashlib.sha256(material.encode()).hexdigest()


class CorpusCache:
    """Directory-backed store of finished experiment rows, keyed by content.

    The cache is shared-friendly: keys are content addresses, every writer
    appends to a segment of its own, and readers tolerate concurrent writers
    (at worst two processes compute the same row and the later segment wins
    with identical content modulo wall-clock timings).
    """

    def __init__(self, root: str | os.PathLike, token: str | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._token = token if token is not None else code_token()
        self.hits = 0
        self.misses = 0
        #: ``key -> (segment, offset, length)``; built on first read access.
        self._index: dict[str, tuple[Path, int, int]] | None = None
        self._segment: Path | None = None  #: this writer's own segment, once it has put a row

    # -- keys ---------------------------------------------------------------------------
    def key(self, spec_payload: dict) -> str:
        return cache_key(spec_payload, self._token)

    # -- index --------------------------------------------------------------------------
    def _segments(self) -> list[Path]:
        return sorted(self.root.glob(f"*{_SEGMENT_SUFFIX}"))

    def _indexed(self) -> dict[str, tuple[Path, int, int]]:
        if self._index is None:
            index: dict[str, tuple[Path, int, int]] = {}
            for segment in self._segments():
                offset = 0
                try:
                    with open(segment, "rb") as handle:
                        for line in handle:
                            # A torn tail has no newline; anything else that is
                            # not ``<64 characters>\t...`` is not a record.
                            if line.endswith(b"\n") and line[_KEY_LENGTH : _KEY_LENGTH + 1] == b"\t":
                                key = line[:_KEY_LENGTH].decode("ascii", "replace")
                                index[key] = (segment, offset, len(line))
                            offset += len(line)
                except OSError:
                    continue  # cleared by another process while we were listing
            self._index = index
        return self._index

    # -- access -------------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The cached row payload, or ``None`` (corrupt entries read as misses)."""
        payload = self._read(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def _read(self, key: str) -> dict | None:
        location = self._indexed().get(key)
        if location is None:
            return None
        segment, offset, length = location
        try:
            descriptor = os.open(segment, os.O_RDONLY)
            try:
                line = os.pread(descriptor, length, offset)
            finally:
                os.close(descriptor)
            entry = json.loads(line[_KEY_LENGTH + 1 :])
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return entry.get("payload")

    def put(self, key: str, payload: dict, spec_payload: dict | None = None) -> None:
        """Persist one finished row: one complete line, written before this returns."""
        entry = {"key": key, "schema": CACHE_SCHEMA_VERSION, "payload": payload}
        if spec_payload is not None:
            entry["spec"] = spec_payload
        line = f"{key}\t{json.dumps(entry, separators=(',', ':'))}\n".encode()
        if self._segment is None:
            descriptor, name = tempfile.mkstemp(
                prefix=f"{time.time_ns():020d}-", suffix=_SEGMENT_SUFFIX, dir=self.root
            )
            self._segment = Path(name)
        else:
            descriptor = os.open(self._segment, os.O_WRONLY | os.O_APPEND)
        try:
            offset = os.fstat(descriptor).st_size  # where an append lands
            written = os.write(descriptor, line)
        finally:
            os.close(descriptor)
        if written != len(line):
            # A torn line would swallow the next one appended to it: leave this
            # segment as it is and let the next put start a new one.
            torn, self._segment = self._segment, None
            raise OSError(f"short write to cache segment {torn}: {written} of {len(line)} bytes")
        if self._index is not None:
            self._index[key] = (self._segment, offset, len(line))

    def __contains__(self, key: str) -> bool:
        return key in self._indexed()

    def __len__(self) -> int:
        return len(self._indexed())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = len(self._indexed())
        for segment in self._segments():
            segment.unlink(missing_ok=True)
        self._index = {}
        self._segment = None
        return removed
