"""The parent's policy-driven pool is the oracle of the ordered-frame pool.

``PolicyPool`` keeps, unchanged but for the removed ``policy=`` knob and
``get_runs`` call, the buffer pool that delegated replacement to a
separate ``LRUPolicy`` object before the recency order became the order
of the pool's own frame table. The two must be indistinguishable:
replaying one random sequence of ``get`` / ``create`` / ``mark_dirty`` /
``drop`` / ``flush`` / ``clear`` calls on both, every step leaves equal
counters, equal physical disk traffic, the same resident set and the
same dirty set.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BufferPool, DiskManager, MetricsCounters


class LRUPolicy:
    """Least-recently-used: evict the page untouched for the longest time."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_access(self, page_id: int) -> None:
        if page_id in self._order:
            self._order.move_to_end(page_id)
        else:
            self._order[page_id] = None

    def evict(self) -> int:
        if not self._order:
            raise LookupError("no pages to evict")
        page_id, _ = self._order.popitem(last=False)
        return page_id

    def remove(self, page_id: int) -> None:
        self._order.pop(page_id, None)

    def __len__(self) -> int:
        return len(self._order)


@dataclass
class _Frame:
    payload: Any
    dirty: bool


class PolicyPool:
    """The parent commit's ``BufferPool`` with its default ``LRUPolicy``."""

    def __init__(self, disk: DiskManager, capacity: int = 16) -> None:
        self.disk = disk
        self.capacity = capacity
        self.counters = MetricsCounters()
        self._policy = LRUPolicy()
        self._frames: Dict[int, _Frame] = {}

    def get(self, page_id: int) -> Any:
        frame = self._frames.get(page_id)
        if frame is not None:
            self.counters.buffer_hits += 1
            self._policy.record_access(page_id)
            return frame.payload

        self.counters.disk_reads += 1
        payload = self.disk.read(page_id)
        self._admit(page_id, payload, dirty=False)
        return payload

    def create(self, payload: Any) -> int:
        page_id = self.disk.allocate(payload)
        self._admit(page_id, payload, dirty=True)
        return page_id

    def mark_dirty(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None:
            self.get(page_id)
            frame = self._frames[page_id]
        frame.dirty = True

    def drop(self, page_id: int) -> None:
        self._frames.pop(page_id, None)
        self._policy.remove(page_id)

    def flush(self) -> None:
        for page_id, frame in self._frames.items():
            if frame.dirty:
                self.disk.write(page_id, frame.payload)
                self.counters.disk_writes += 1
                frame.dirty = False

    def clear(self) -> None:
        self.flush()
        self._frames.clear()
        while len(self._policy):
            self._policy.evict()

    def resident_pages(self) -> frozenset:
        return frozenset(self._frames)

    def dirty_pages(self) -> frozenset:
        return frozenset(
            page_id for page_id, frame in self._frames.items() if frame.dirty
        )

    def _admit(self, page_id: int, payload: Any, dirty: bool) -> None:
        while len(self._frames) >= self.capacity:
            victim = self._policy.evict()
            victim_frame = self._frames.pop(victim)
            if victim_frame.dirty:
                self.disk.write(victim, victim_frame.payload)
                self.counters.disk_writes += 1
        self._frames[page_id] = _Frame(payload, dirty)
        self._policy.record_access(page_id)


#: A page argument picks among the disk's allocated pages by position,
#: so both sides, whose disks allocate identically, name the same page.
_PAGE = st.integers(0, 63)

_STEP = st.one_of(
    st.tuples(st.just("get"), _PAGE),
    st.tuples(st.sampled_from(["create", "mark_dirty", "drop"]), _PAGE),
    st.tuples(st.sampled_from(["flush", "clear"]), st.none()),
)


def _apply(pool, step, n):
    op, arg = step
    ids = pool.disk.allocated_ids()
    if op == "create":
        return pool.create(f"page {n}")
    if op in ("flush", "clear"):
        return getattr(pool, op)()
    return getattr(pool, op)(ids[arg % len(ids)])


def _observed(pool):
    return (
        pool.counters.snapshot(),
        pool.disk.physical_reads,
        pool.disk.physical_writes,
        pool.resident_pages(),
        pool.dirty_pages(),
    )


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 5), st.integers(1, 8), st.lists(_STEP, max_size=80))
def test_ordered_frames_replay_the_policy_pool(capacity, pages, steps):
    disks = [DiskManager(), DiskManager()]
    for disk in disks:
        for i in range(pages):
            disk.allocate(f"initial {i}")
    new, old = BufferPool(disks[0], capacity=capacity), PolicyPool(disks[1], capacity)
    for n, step in enumerate(steps):
        assert _apply(new, step, n) == _apply(old, step, n), (n, step)
        assert _observed(new) == _observed(old), (n, step)
        assert len(new) <= capacity
