"""Executor data caching and data-aware dispatch (§6 "Data management").

"We expect that data caching, proactive data replication, and
data-aware scheduling can offer significant performance improvements
for applications that exhibit locality in their data access patterns."

Two pieces:

* :class:`DataCache` — an LRU byte-budgeted cache of named data items
  on an executor's node-local disk.  A cached read costs the local
  disk; a miss costs the shared filesystem *and* populates the cache.
* :class:`DataAwareExecutor` — implements the data-aware dispatch
  policy using delay scheduling: the executor first asks for a task
  whose inputs hit its cache, and only after ``locality_wait`` of
  simulated time accepts an arbitrary task.

Ablation X3 measures the benefit on a locality-heavy workload.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.core.dispatcher import TaskRecord
from repro.core.executor import SimExecutor
from repro.sim import Interrupt

__all__ = ["DataCache", "DataAwareExecutor"]


class DataCache:
    """LRU cache of named data items, bounded in bytes."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._items: "OrderedDict[str, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def lookup(self, name: str) -> bool:
        """Check for *name*, counting hit/miss and refreshing LRU order."""
        if name in self._items:
            self._items.move_to_end(name)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, name: str, size_bytes: int) -> None:
        """Add an item, evicting LRU entries to fit.  Items larger than
        the whole cache are not cached."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if size_bytes > self.capacity_bytes:
            return
        if name in self._items:
            self._used -= self._items.pop(name)
        while self._used + size_bytes > self.capacity_bytes and self._items:
            _evicted, evicted_size = self._items.popitem(last=False)
            self._used -= evicted_size
        self._items[name] = size_bytes
        self._used += size_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"<DataCache {self._used}/{self.capacity_bytes}B items={len(self._items)}>"


class DataAwareExecutor(SimExecutor):
    """Executor with a local data cache and locality-first pulls.

    Parameters (beyond :class:`SimExecutor`'s):

    cache:
        The executor's :class:`DataCache`.
    locality_wait:
        Seconds to hold out for a cache-hitting task before accepting
        any task (delay scheduling).
    """

    def __init__(self, *args, cache: DataCache, locality_wait: float = 0.25, **kwargs) -> None:
        if locality_wait < 0:
            raise ValueError("locality_wait must be >= 0")
        super().__init__(*args, **kwargs)
        self.cache = cache
        self.locality_wait = locality_wait

    # -- dispatch policy -----------------------------------------------------
    def _cache_affinity(self, record: TaskRecord) -> bool:
        return any(ref.name in self.cache for ref in record.spec.reads)

    def _wait_for_work(self) -> Generator:
        """Two-phase pull: prefer cache-hitting tasks, then take any."""
        preferred = self.dispatcher.request_task(self._cache_affinity)
        try:
            deadline = self.env.timeout(self.locality_wait)
            yield self.env.any_of([preferred, deadline])
            if preferred.triggered:
                return preferred.value
            preferred.cancel()
        except Interrupt:
            if preferred.triggered and preferred.ok:
                self.dispatcher.requeue_undispatched(preferred.value)
            else:
                preferred.cancel()
            raise
        # Phase two: the normal (possibly idle-timed) wait for any task.
        record = yield from super()._wait_for_work()
        return record

    # -- staging through the cache ----------------------------------------------
    def _run_task(self, record: TaskRecord, shared_exchange: bool = False) -> Generator:
        # Route reads through the cache by rewriting staging on the fly:
        # hits become node-local reads, misses hit the shared filesystem
        # and then populate the cache.
        original_staging = self.staging
        if original_staging is not None:
            self.staging = _CachedStaging(original_staging, self.cache)
        try:
            outcome = yield from super()._run_task(record, shared_exchange=shared_exchange)
        finally:
            self.staging = original_staging
        return outcome


class _CachedStaging:
    """Staging adapter: cache-aware reads, pass-through writes."""

    def __init__(self, inner, cache: DataCache) -> None:
        self.inner = inner
        self.cache = cache

    def stage_in(self, env, task, node) -> Generator:
        from repro.types import DataLocation

        for ref in task.reads:
            if ref.location is DataLocation.SHARED and self.cache.lookup(ref.name):
                # Cache hit: serve from node-local disk.
                if self.inner.local is not None:
                    yield from self.inner.local.read(env, ref.size_bytes, node=node)
                continue
            fs = self.inner._require(ref.location)
            from repro.cluster.filesystem import LocalDisk

            if isinstance(fs, LocalDisk):
                yield from fs.read(env, ref.size_bytes, node=node)
            else:
                yield from fs.read(env, ref.size_bytes)
                self.cache.insert(ref.name, ref.size_bytes)

    def stage_out(self, env, task, node) -> Generator:
        yield from self.inner.stage_out(env, task, node)
        # Products written by one task may be read by another (§4.2's
        # closing observation): cache what we just wrote.
        for ref in task.writes:
            self.cache.insert(ref.name, ref.size_bytes)
