"""Content-addressed on-disk store for :class:`~repro.core.cache.ResultCache`.

:meth:`ResultCache.export` snapshots are pure data — keys built by
:meth:`~repro.core.cache.ResultCache.key_for` mapping to equivalence
verdicts, :class:`~repro.flow.session.RunReport` records and optimized
:class:`~repro.ir.module.Module` clones — so they pickle cheaply and
mean the same thing in any process.  Without a store they die with the
process, and every CI run and every user session re-does structural
work (``suite_job`` replays, ``hier_netlist`` swaps, ``cec`` verdicts)
that an earlier run had already paid for.  :class:`CacheStore` makes
the snapshots durable:

* **one file per generation** — each :meth:`CacheStore.save` writes the
  caller's delta as a single immutable generation file.  A session
  contributes one generation at close (see :meth:`~repro.flow.session.
  Session.flush_store`), a serve daemon one per explicit ``flush``;
* **content-addressed names** — the file is named by the BLAKE2b digest
  of its bytes (``gen-<digest>.rcache``), so identical deltas dedupe to
  one file, names never collide across machines, and a reader can detect
  torn or tampered content by re-hashing;
* **atomic writes** — payloads land via ``tempfile`` + :func:`os.replace`
  in the store directory, so a crash mid-write leaves at worst an
  orphaned temp file (reaped by :meth:`CacheStore.gc`), never a
  half-written generation that a later load would misparse;
* **versioned header** — every generation opens with a one-line header
  carrying the store format version and the keying-scheme fingerprint
  (:data:`repro.ir.struct_hash.SCHEME_FINGERPRINT`).  Signatures are only
  comparable between identical canonicalization schemes, so generations
  written under a different scheme are skipped as *incompatible* — not
  errors, just cache misses;
* **corrupt tolerance** — a truncated, garbled or digest-mismatched file
  is counted (``corrupt_skipped``) and skipped; :meth:`CacheStore.load`
  never raises because one generation rotted on disk.

Multiple processes may share one store directory: generations are
immutable once named, :func:`os.replace` is atomic on POSIX and Windows
within a filesystem, and concurrent saves of distinct deltas simply land
as distinct generations.  :meth:`CacheStore.gc` bounds the directory by
keeping the newest ``keep_generations`` files.

The module-level helpers :func:`atomic_write_text` / :func:`atomic_write_
bytes` expose the same crash-safe write discipline for any artifact the
tools emit (CLI ``--output`` netlists, report JSON, benchmark payloads) —
an interrupted write must never leave a corrupt file under the target
name.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..ir.struct_hash import SCHEME_FINGERPRINT

#: bump on any change to the generation-file layout (header or payload)
STORE_FORMAT = 1

#: header magic: identifies a generation file independent of its name
_MAGIC = "smartly-rcache"

#: generation filename shape: ``gen-<32 hex chars>.rcache``
_GEN_PREFIX = "gen-"
_GEN_SUFFIX = ".rcache"

#: prefix of in-flight temp files (reaped by :meth:`CacheStore.gc`)
_TMP_PREFIX = ".tmp-gen-"

#: default :meth:`CacheStore.gc` retention
DEFAULT_KEEP_GENERATIONS = 32

#: pickle protocol 4 is readable by every supported interpreter (3.4+),
#: so stores travel between the CI matrix's oldest and newest pythons
_PICKLE_PROTOCOL = 4


def _atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tempfile + ``os.replace``).

    The temp file lives in the target's directory so the final rename
    never crosses a filesystem boundary (cross-device renames are copies,
    which are not atomic).
    """
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=_TMP_PREFIX, suffix=".tmp", dir=str(parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically write ``data`` under ``path`` (never a partial file)."""
    _atomic_write(path, data)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically write ``text`` under ``path`` (never a partial file).

    The CLI routes every ``--output`` artifact (netlists, AIGER, report
    JSON) through this instead of ``open(path, "w")``: a crash mid-write
    used to leave a truncated artifact under the real name, which a
    downstream consumer would then misparse.
    """
    _atomic_write(path, text.encode(encoding))


class StoreError(Exception):
    """A store operation failed in a way the caller must see (bad
    directory, unwritable path) — *never* raised for a single corrupt
    generation, which is skipped and counted instead."""


class CacheStore:
    """A directory of immutable, content-addressed cache generations.

    ``counters`` tracks lifetime traffic: ``saved_files`` /
    ``saved_entries`` / ``dedup_saves`` (a delta whose generation already
    existed), ``loaded_files`` / ``loaded_entries``, ``corrupt_skipped``
    (truncated, garbled or digest-mismatched generations),
    ``incompatible_skipped`` (generations written under another store
    format or keying scheme) and ``gc_removed``.  Owners surface them as
    the ``store_*`` entries of :attr:`~repro.flow.session.RunReport.
    cache_stats`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        scheme: str = SCHEME_FINGERPRINT,
    ):
        self.path = Path(path)
        self.scheme = scheme
        self.counters: Counter = Counter()
        if self.path.exists() and not self.path.is_dir():
            raise StoreError(f"store path {self.path} is not a directory")

    def _header(self) -> bytes:
        return f"{_MAGIC} {STORE_FORMAT} {self.scheme}\n".encode("utf-8")

    # -- enumeration -----------------------------------------------------------

    def generations(self) -> List[Path]:
        """Generation files, oldest first (mtime, then name for ties).

        The order only affects which side of a key collision wins on
        load — and values are pure functions of their keys, so any
        deterministic order is correct.
        """
        if not self.path.is_dir():
            return []
        files = [
            entry for entry in self.path.iterdir()
            if entry.name.startswith(_GEN_PREFIX)
            and entry.name.endswith(_GEN_SUFFIX)
            and entry.is_file()
        ]

        def sort_key(entry: Path) -> Tuple[float, str]:
            try:
                return (entry.stat().st_mtime, entry.name)
            except OSError:
                return (0.0, entry.name)

        return sorted(files, key=sort_key)

    # -- save ------------------------------------------------------------------

    def save(self, entries: Mapping[Tuple, Any]) -> Optional[Path]:
        """Persist one snapshot delta as a new generation; returns its
        path (``None`` for an empty delta — no generation is written).

        The generation is addressed by the BLAKE2b digest of its full
        bytes (header + pickled payload), so saving a byte-identical
        delta twice — two sessions that learned exactly the same entries
        — lands on the existing file (``dedup_saves``) instead of
        duplicating it.
        """
        if not entries:
            return None
        payload = self._header() + pickle.dumps(
            dict(entries), protocol=_PICKLE_PROTOCOL
        )
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        target = self.path / f"{_GEN_PREFIX}{digest}{_GEN_SUFFIX}"
        if target.exists():
            self.counters["dedup_saves"] += 1
            return target
        try:
            _atomic_write(target, payload)
        except OSError as exc:
            raise StoreError(f"cannot write generation {target}: {exc}")
        self.counters["saved_files"] += 1
        self.counters["saved_entries"] += len(entries)
        return target

    # -- load ------------------------------------------------------------------

    def _load_one(self, gen: Path) -> Optional[Dict[Tuple, Any]]:
        """One generation's entries, or ``None`` when it must be skipped
        (the relevant counter is bumped; nothing propagates)."""
        try:
            raw = gen.read_bytes()
        except OSError:
            self.counters["corrupt_skipped"] += 1
            return None
        # content addressing doubles as an integrity check: the name IS
        # the digest of the bytes, so torn disk state (or a renamed
        # foreign file) shows up as a mismatch before unpickling
        digest = hashlib.blake2b(raw, digest_size=16).hexdigest()
        if gen.name != f"{_GEN_PREFIX}{digest}{_GEN_SUFFIX}":
            self.counters["corrupt_skipped"] += 1
            return None
        newline = raw.find(b"\n")
        if newline < 0:
            self.counters["corrupt_skipped"] += 1
            return None
        try:
            magic, fmt, scheme = raw[:newline].decode("utf-8").split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            self.counters["corrupt_skipped"] += 1
            return None
        if magic != _MAGIC:
            self.counters["corrupt_skipped"] += 1
            return None
        if fmt != str(STORE_FORMAT) or scheme != self.scheme:
            # a valid generation from another store format or keying
            # scheme: unreadable to us, but not rot — skip quietly
            self.counters["incompatible_skipped"] += 1
            return None
        try:
            entries = pickle.loads(raw[newline + 1:])
        except Exception:
            # pickle raises a zoo (UnpicklingError, EOFError, Attribute/
            # ImportError for renamed classes, ValueError...); every one
            # of them means "this generation is unusable", never "crash
            # the session that tried to warm-start"
            self.counters["corrupt_skipped"] += 1
            return None
        if not isinstance(entries, dict):
            self.counters["corrupt_skipped"] += 1
            return None
        return entries

    def load(self) -> Dict[Tuple, Any]:
        """Union of every readable generation (first-loaded key wins).

        Corrupt or incompatible generations are counted and skipped —
        a store that rotted on disk degrades to a smaller warm-start,
        never an exception.
        """
        merged: Dict[Tuple, Any] = {}
        for gen in self.generations():
            entries = self._load_one(gen)
            if entries is None:
                continue
            self.counters["loaded_files"] += 1
            self.counters["loaded_entries"] += len(entries)
            for key, value in entries.items():
                if key not in merged:
                    merged[key] = value
        return merged

    # -- gc --------------------------------------------------------------------

    def gc(self, keep_generations: int = DEFAULT_KEEP_GENERATIONS) -> int:
        """Drop the oldest generations beyond ``keep_generations`` (and
        any orphaned temp files from crashed writers); returns the number
        of files removed.  ``keep_generations=0`` empties the store."""
        if keep_generations < 0:
            raise ValueError("keep_generations must be >= 0")
        removed = 0
        gens = self.generations()
        excess = len(gens) - keep_generations
        for gen in gens[:max(0, excess)]:
            try:
                gen.unlink()
                removed += 1
            except OSError:
                pass  # another process may have gc'd it first
        if self.path.is_dir():
            for leftover in self.path.iterdir():
                if leftover.name.startswith(_TMP_PREFIX):
                    try:
                        leftover.unlink()
                        removed += 1
                    except OSError:
                        pass
        if removed:
            self.counters["gc_removed"] += removed
        return removed

    def __repr__(self) -> str:
        return f"CacheStore({str(self.path)!r}, scheme={self.scheme!r})"


__all__ = [
    "CacheStore",
    "DEFAULT_KEEP_GENERATIONS",
    "STORE_FORMAT",
    "StoreError",
    "atomic_write_bytes",
    "atomic_write_text",
]
