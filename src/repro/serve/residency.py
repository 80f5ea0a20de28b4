"""Tiered residency: a global memory budget over lazily-loaded stores.

The fleet workload is one small synopsis per user — far more entries than
comfortably fit hydrated in memory, but each one cheap to re-read from
its mmap segment (PR 7 measured sub-millisecond cold hydration).  The
:class:`ResidencyManager` turns that into a two-tier policy: hot entries
stay hydrated, cold ones are *cooled* back to their lazy hydrator
(:meth:`~repro.serve.store.StoreEntry.cool`) whenever the watched
stores' combined resident payload bytes exceed ``max_resident_bytes``.

Victims are chosen in LRU order over hydration touches.  Only
*evictable* entries ever enter the candidate set (streaming-backed and
in-memory-built entries cannot cool), so a budget smaller than the
non-evictable mass converges to "everything evictable cooled" rather
than spinning.

Lock order (matching the store's documented discipline): the manager's
own lock is a leaf taken only to mutate the LRU; :meth:`enforce` picks a
victim under it, releases it, and only then calls ``store.cool`` (which
takes the store lock).  The store notifies hydrations while holding its
entry hydrate lock, so the manager lock must never wrap a store call —
and it does not.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

__all__ = ["ResidencyManager"]


class ResidencyManager:
    """Keep watched stores' hydrated payload under a global byte budget.

    Parameters
    ----------
    max_resident_bytes:
        The budget over the *sum* of watched stores' resident payload
        bytes (``stored_numbers * 8`` per hydrated entry).  ``None``
        disables enforcement (the manager still tracks recency).
    """

    def __init__(self, max_resident_bytes: Optional[int] = None) -> None:
        if max_resident_bytes is not None and int(max_resident_bytes) <= 0:
            raise ValueError(
                f"max_resident_bytes must be positive, got {max_resident_bytes}"
            )
        self.max_resident_bytes = (
            None if max_resident_bytes is None else int(max_resident_bytes)
        )
        self._lock = threading.Lock()
        # Hydrated-and-evictable entries in hydration order (LRU first).
        # Keyed by (id(store), name): names are only unique per store.
        self._lru: "OrderedDict[Tuple[int, str], object]" = OrderedDict()
        self._stores: Dict[int, object] = {}
        self.evictions = 0

    # ------------------------------------------------------------------ #

    def watch(self, store) -> None:
        """Start enforcing the budget over ``store``.

        Registers this manager as the store's residency hook (the store
        calls :meth:`note` after each hydration and :meth:`enforce`
        after each snapshot) and seeds the LRU with entries that are
        already hydrated and evictable.
        """
        with self._lock:
            self._stores[id(store)] = store
        store._residency = self
        for name in store.names():
            entry = store._entries.get(name)
            if entry is not None and entry.evictable:
                self.note(store, name)

    def note(self, store, name: str) -> None:
        """Record a hydration touch for ``name`` (moves it to MRU)."""
        key = (id(store), name)
        with self._lock:
            self._lru.pop(key, None)
            self._lru[key] = store

    def discard(self, store, name: str) -> None:
        """Forget a removed entry."""
        with self._lock:
            self._lru.pop((id(store), name), None)

    def resident_bytes(self) -> int:
        """Approximate resident payload bytes across all watched stores."""
        with self._lock:
            stores = list(self._stores.values())
        return sum(store._resident_bytes for store in stores)

    # ------------------------------------------------------------------ #

    def _pop_victim(self) -> Optional[Tuple[object, str]]:
        with self._lock:
            if not self._lru:
                return None
            key, store = self._lru.popitem(last=False)
            return store, key[1]

    def enforce(self) -> int:
        """Cool entries until the budget holds; returns entries cooled.

        Stops early when no evictable candidates remain (the residual
        resident mass is streaming/in-memory entries that cannot
        cool).  A candidate whose ``cool()`` returns 0 — rehydrated with
        a new non-evictable identity, or removed — is simply dropped
        from the LRU and the loop continues.
        """
        budget = self.max_resident_bytes
        if budget is None:
            return 0
        cooled = 0
        while self.resident_bytes() > budget:
            victim = self._pop_victim()
            if victim is None:
                break
            store, name = victim
            if store.cool(name):
                cooled += 1
        if cooled:
            with self._lock:
                self.evictions += cooled
        return cooled

    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly status dict (budget, resident, LRU depth)."""
        with self._lock:
            tracked = len(self._lru)
            evictions = self.evictions
        return {
            "max_resident_bytes": self.max_resident_bytes,
            "resident_bytes": self.resident_bytes(),
            "tracked_entries": tracked,
            "evictions": evictions,
        }
