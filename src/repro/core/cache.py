"""Persistent whole-artifact result cache.

The cache holds three kinds of entries (:attr:`ResultCache.KINDS`), each
keyed by a module- or miter-level structural signature, so a renamed
clone or an isomorphic sibling shares the entry of its twin:

* ``suite_job`` — name-stripped :class:`~repro.flow.session.RunReport`
  replays (see :func:`repro.flow.session._run_suite_job` and
  :meth:`~repro.flow.session.Session.run_hierarchy`);
* ``hier_netlist`` — optimized module clones that isomorphic-instance
  replay swaps into sibling slots;
* ``cec`` — hard SAT equivalence verdicts keyed by the miter AIG's
  structural digest (see :func:`repro.equiv.cec.check_equivalence`).

:meth:`ResultCache.key_for` builds every key.  All kinds ride
:meth:`~ResultCache.export`/:meth:`~ResultCache.merge`, so warm-started
workers and follow-up sessions replay reports, netlists and proofs they
never computed.

A cache may read through a *parent*: a read-only mapping (another
cache's :meth:`~ResultCache.export`, or the live
:meth:`~ResultCache.view` of a shared one) that
:meth:`~ResultCache.lookup` consults on a miss.  That is how a job
session warm-starts without copying the cache it starts from: it reads
the parent, stores what it learns in its own entries, and
:meth:`~ResultCache.export` hands back exactly that.

One cache instance lives as long as its owner:
:class:`~repro.flow.session.Session` keeps one session-wide instance, so
entries persist across runs *and* modules of the same design, and the
serve daemon keeps one for its lifetime.  Entries are bounded with
oldest-half eviction, so the population does not grow with that
lifetime.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import islice
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

_MISS = object()


class ResultCache:
    """Bounded memo for whole-artifact outcomes (see :attr:`KINDS`).

    ``counters`` tracks per-kind traffic (``{kind}_hits`` / ``{kind}_misses``
    plus ``evictions`` — counted per evicted *entry* — and ``merged``);
    sessions surface the lifetime totals as
    :attr:`~repro.flow.session.RunReport.cache_stats`.

    ``parent`` is an optional read-only mapping consulted on a miss (a
    hit there counts as a hit); :meth:`store` never writes it, and
    :meth:`export` and ``len()`` cover only this cache's own entries.
    """

    #: the entry kinds :meth:`key_for` builds keys of
    KINDS = ("suite_job", "hier_netlist", "cec")

    def __init__(
        self,
        max_entries: int = 200_000,
        parent: Optional[Mapping[Tuple, Any]] = None,
    ):
        self.max_entries = max_entries
        self.parent = parent
        self._entries: Dict[Tuple, Any] = {}
        #: entries ever appended (a store of a new key, or a merge); the
        #: watermark :meth:`export` counts back from
        self._appended = 0
        self.counters: Counter = Counter()
        #: guards mutation sweeps and snapshot iteration: thread-suite
        #: workers merge deltas into the shared session cache while the
        #: owner may be exporting a snapshot for the next job (or the
        #: serve daemon's next request) — iterating ``_entries`` unlocked
        #: raced those inserts with ``RuntimeError: dictionary changed
        #: size during iteration``.  ``lookup`` stays lock-free: a plain
        #: ``dict.get`` is atomic under the GIL and is the hot path.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def appended(self) -> int:
        """How many entries this cache has ever appended; pass it back
        as ``export(since=...)`` to get only what came after."""
        return self._appended

    def view(self) -> Mapping[Tuple, Any]:
        """A live read-only view of this cache's own entries, fit to be
        another cache's ``parent`` without copying anything."""
        return MappingProxyType(self._entries)

    def totals(self) -> Dict[str, int]:
        """The counters plus the own-entry population (``entries``)."""
        totals = dict(self.counters)
        totals["entries"] = len(self._entries)
        return totals

    def key_for(self, kind: str, *parts: Any) -> Tuple:
        """The key ``(kind, *parts)`` of one entry.

        ``kind`` is one of :attr:`KINDS`; ``parts`` are pure data (a
        structural signature, then what else changes the answer), so a
        key pickles and means the same in any process.  An instance
        method, not a classmethod: ``perfbench/tracing.py`` replaces it
        by a plain function that passes the instance on.
        """
        if kind not in self.KINDS:
            raise ValueError(f"unknown result-cache kind {kind!r}")
        return (kind, *parts)

    def lookup(self, key: Tuple) -> Tuple[bool, Any]:
        """``(hit, value)``; counts a ``{kind}_hits``/``_misses`` event.
        A miss in the own entries falls through to the ``parent``."""
        value = self._entries.get(key, _MISS)
        if value is _MISS and self.parent is not None:
            value = self.parent.get(key, _MISS)
        kind = key[0]
        if value is _MISS:
            self.counters[f"{kind}_misses"] += 1
            return False, None
        self.counters[f"{kind}_hits"] += 1
        return True, value

    def _evict_to_half(self) -> None:
        """Sweep the oldest entries until the population is back at half
        the cap (mutation orphans stale keys, so oldest-first eviction is
        the right policy and plain-dict insertion order makes it free).
        ``evictions`` counts dropped *entries*, not sweeps.  Caller holds
        the lock."""
        drop = len(self._entries) - self.max_entries // 2
        if drop <= 0:
            return
        stale_keys = list(self._entries)[:drop]
        for stale in stale_keys:
            self._entries.pop(stale, None)
        self.counters["evictions"] += len(stale_keys)

    def store(self, key: Tuple, value: Any) -> None:
        """Memoize, sweeping down to half the cap when full (see
        :meth:`_evict_to_half`)."""
        with self._lock:
            if len(self._entries) >= self.max_entries:
                self._evict_to_half()
            if key not in self._entries:
                self._appended += 1
            self._entries[key] = value

    # -- snapshot / warm-start -------------------------------------------------

    def export(self, since: int = 0) -> Dict[Tuple, Any]:
        """Snapshot the own signature-keyed entries for another process.

        Keys are pure data (see :meth:`key_for`) and the values are
        plain outcomes, so the snapshot pickles and stays meaningful in
        any process.
        ``since`` is an earlier :attr:`appended` reading: only entries
        appended after it are exported.  Eviction drops only the oldest
        entries, so those are the newest survivors, and the walk costs
        what it returns.
        """
        # snapshot the items under the lock: concurrent thread-suite
        # workers store()/merge() into the shared session cache, and an
        # unlocked iteration raced their inserts (RuntimeError:
        # dictionary changed size during iteration)
        with self._lock:
            count = min(self._appended - since, len(self._entries))
            if count <= 0:
                return {}
            if count == len(self._entries):
                return dict(self._entries)
            newest = list(islice(reversed(self._entries.items()), count))
        return dict(reversed(newest))

    def merge(self, entries: Mapping[Tuple, Any]) -> int:
        """Adopt a snapshot's entries (existing keys win; returns #added).

        Values are pure functions of their keys, so whichever side
        computed an entry first, the content is identical — keeping the
        existing entry just preserves this cache's insertion-age order.
        The ``max_entries`` cap holds afterwards: an over-full merge
        (repeated warm-start deltas, a large on-disk snapshot) sweeps
        oldest-first back to half the cap exactly like :meth:`store`,
        instead of growing the population unboundedly.
        """
        added = 0
        with self._lock:
            for key, value in entries.items():
                if key not in self._entries:
                    self._entries[key] = value
                    added += 1
            self._appended += added
            if len(self._entries) > self.max_entries:
                self._evict_to_half()
            if added:
                self.counters["merged"] += added
        return added


__all__ = ["ResultCache"]
