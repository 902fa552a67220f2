"""Persistent sub-graph result cache: content-signature memoization.

Keys are the canonical name-free signature of
:func:`repro.ir.struct_hash.struct_signature` — equal for renamed,
cloned or independently built isomorphic sub-graphs, so entries are
shared across modules, suite jobs and (via :meth:`export`/:meth:`merge`)
worker processes.  Per-cell version bumps still invalidate: the
signature encodes each cell's current connections directly, and the
identity→signature memo (:class:`~repro.ir.struct_hash.StructKeyMemo`)
re-canonicalises whenever a version moves.  The key embeds everything
the redundancy pass's decision ladder consumes, so an entry stays valid
across pass generations: an alias connection that re-canonicalises a
boundary bit changes the key.  The reference path for this keying is no
cache at all (``SmartlyOptions(use_result_cache=False)``).

The redundancy pass writes one kind here, ``resolve``: one entry per
control query, holding the whole inference → simulation → SAT
resolution with the notes it made (every outcome but a SAT budget-out,
which depends on the solver's variable order).  The raw ball sizes are
not among those notes, since the reduced sub-graph's signature does not
cover the ball, so every query notes its own.  A data operand is one
uncached query (one inference per group of bits that share a
sub-graph): it costs less than the signatures that would key it.

A cache may read through a *parent*: a read-only mapping (another
cache's :meth:`export`, or the live :meth:`view` of a shared one) that
:meth:`lookup` consults on a miss.  That is how a job session warm-starts
without copying the cache it starts from: it reads the parent, stores
what it learns in its own entries, and :meth:`export` hands back exactly
that.

Beside the per-sub-graph ``resolve`` entries, the cache carries
whole-artifact kinds keyed by module- or miter-level signatures:
``suite_job`` (name-stripped :class:`~repro.flow.session.RunReport` replays — see
:func:`repro.flow.session._run_suite_job` and
:meth:`~repro.flow.session.Session.run_hierarchy`), ``hier_netlist``
(optimized module clones that isomorphic-instance replay swaps into
sibling slots) and ``cec`` (hard SAT equivalence verdicts keyed by the
miter AIG's structural digest — see :func:`repro.equiv.cec.
check_equivalence`).  All of them ride :meth:`export`/:meth:`merge`
like any other entry, so warm-started workers and follow-up sessions
replay proofs and netlists they never computed.

One cache instance is intended to live as long as its owner: the
:class:`~repro.core.smartly.Smartly` pass keeps one across optimization
rounds and runs, and :class:`~repro.flow.session.Session` injects a single
session-wide instance into every flow it builds so entries persist across
rounds, runs *and* modules of the same design.  Entries are bounded with
oldest-half eviction — netlist mutation permanently orphans keys of
unreachable structures, so the population must not grow with session
lifetime.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import islice
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from ..ir.struct_hash import StructKeyMemo

_MISS = object()


class ResultCache:
    """Bounded memo for sub-graph-keyed analysis outcomes.

    ``counters`` tracks per-kind traffic (``{kind}_hits`` / ``{kind}_misses``
    plus ``evictions`` — counted per evicted *entry* — and ``merged``);
    owners snapshot it around a pass invocation and report the delta as
    pass statistics (the ``rcache_*`` entries of
    :class:`~repro.flow.session.RunReport` pass stats), and sessions
    surface the lifetime totals as :attr:`~repro.flow.session.RunReport.
    cache_stats`.

    ``parent`` is an optional read-only mapping consulted on a miss (a
    hit there counts as a hit); :meth:`store` never writes it, and
    :meth:`export` and ``len()`` cover only this cache's own entries.
    """

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
        self._struct_memo = StructKeyMemo()
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

    def key_for(
        self,
        kind: str,
        subgraph: Any,
        extra: Tuple = (),
        sigmap: Any = None,
    ) -> Tuple:
        """The memo key of one analysis over one sub-graph.

        ``kind`` names the analysis (``"resolve"``); ``extra`` carries
        its parameters that change the answer (budgets, thresholds).  The
        sub-graph contributes its canonical name-free signature
        (``sigmap`` resolves raw connection bits exactly like the
        analyses do).
        """
        signature = self._struct_memo.signature(
            subgraph.cells, subgraph.target, subgraph.known,
            inputs=subgraph.inputs, sigmap=sigmap,
        )
        return (kind, signature, extra)

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

        Keys are pure data (``(kind, digest, extra)`` tuples) and the
        memoized values are plain outcomes — no live IR objects — so the
        snapshot pickles cheaply and stays meaningful in any process.
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
