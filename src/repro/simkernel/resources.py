"""Shared-resource primitives for the simulation kernel.

Three primitives cover every synchronization pattern in the JETS stack:

* :class:`Resource` — counted capacity with FIFO request queue (CPU cores,
  the dispatcher's service thread, filesystem servers).
* :class:`Store` / :class:`PriorityStore` — producer/consumer queues
  (worker mailboxes, the dispatcher's ready-worker pool, socket buffers).
* :class:`Container` — continuous level (bytes in a buffer).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .core import PENDING, Environment, Event, SimulationError

__all__ = [
    "Resource",
    "Request",
    "Store",
    "PriorityStore",
    "FilterStore",
    "Container",
]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # holding the resource
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (one stack frame per core claim adds up
        # at campaign scale).
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """Counted resource with FIFO granting.

    ``request()`` returns an event that fires when one capacity unit is
    granted; ``release(req)`` returns it.  Releasing an ungranted request
    cancels it.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._queue: deque[Request] = deque()
        self._users: set[Request] = set()

    @property
    def count(self) -> int:
        """Number of granted (in-use) capacity units."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one capacity unit; the returned event fires when granted."""
        req = Request(self)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit (or cancel a pending request)."""
        if request in self._users:
            self._users.discard(request)
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            self._users.add(req)
            # Valueless: a request holding itself as its value would be
            # a reference cycle per grant.
            req.succeed()


class StoreGet(Event):
    """Pending get on a store.

    The ``filter`` slot exists for :class:`FilterStore`, which attaches
    the predicate to the get event (plain stores leave it unset).
    """

    __slots__ = ("filter",)


class Store:
    """Unbounded-by-default FIFO item queue with blocking gets.

    ``put(item)`` succeeds immediately when below capacity; ``get()``
    returns an event that fires with the next item.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    @property
    def items(self) -> list:
        """Snapshot of currently stored items (FIFO order)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once inserted.

        Fast paths (valid for :class:`PriorityStore` via the
        ``len(self)``/``_insert``/``_pop`` hooks; :class:`FilterStore`
        overrides ``put``): with no queued putters and free capacity,
        ``_dispatch`` reduces to an insert-and-succeed, plus at most one
        hand-off when consumers are blocked — getters only ever wait
        while the store is empty, so a single put can serve exactly the
        head getter.
        """
        ev = Event(self.env)
        if not self._putters and len(self) < self.capacity:
            self._insert(item)
            ev.succeed()
            if self._getters:
                self._getters.popleft().succeed(self._pop())
        else:
            self._putters.append((ev, item))
            self._dispatch()
        return ev

    def get(self) -> StoreGet:
        """Remove and return the next item (event fires with the item)."""
        ev = StoreGet(self.env)
        # Mirror of the put fast path: with no queued putters,
        # _dispatch can only hand the head item to the head getter —
        # which is this get iff no getter is already waiting.
        if not self._putters:
            if not self._getters and len(self):
                ev.succeed(self._pop())
            else:
                self._getters.append(ev)
        else:
            self._getters.append(ev)
            self._dispatch()
        return ev

    def cancel_get(self, get_event: StoreGet) -> None:
        """Withdraw a pending get (no-op if already fulfilled)."""
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        # succeed() only *schedules* callbacks (they run at the heap pop),
        # so no new putters/getters can appear mid-dispatch: one
        # putter-drain plus one getter-drain reaches the fixpoint unless
        # getters freed capacity a blocked putter was waiting for.
        while True:
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.popleft()
                self._insert(item)
                ev.succeed()
            if not (self._getters and self._items):
                return
            while self._getters and self._items:
                self._getters.popleft().succeed(self._pop())
            if not self._putters:
                return

    def _insert(self, item: Any) -> None:
        self._items.append(item)

    def _pop(self) -> Any:
        return self._items.popleft()


class PriorityStore(Store):
    """Store returning items in ascending sort order.

    Items must be comparable (use ``(priority, seq, payload)`` tuples).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._heap: list[Any] = []

    @property
    def items(self) -> list:
        return sorted(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def _insert(self, item: Any) -> None:
        # Item priority order, not event scheduling.
        heapq.heappush(self._heap, item)  # repro: noqa[PF007]

    def _pop(self) -> Any:
        return heapq.heappop(self._heap)  # repro: noqa[PF007]

    def _dispatch(self) -> None:
        # Same fixpoint argument as Store._dispatch.
        while True:
            while self._putters and len(self._heap) < self.capacity:
                ev, item = self._putters.popleft()
                self._insert(item)
                ev.succeed()
            if not (self._getters and self._heap):
                return
            while self._getters and self._heap:
                self._getters.popleft().succeed(self._pop())
            if not self._putters:
                return


class FilterStore(Store):
    """Store whose gets may carry a predicate selecting acceptable items."""

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once inserted.

        No fast path here: filtered getters may wait while (unmatching)
        items sit in the store, so Store.put's blind hand-off would
        bypass the predicates — every put goes through ``_dispatch``.
        """
        ev = Event(self.env)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Get the first item satisfying ``filter`` (or any item if None)."""
        ev = StoreGet(self.env)
        ev.filter = filter
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        # One ordered pass: getters are offered items FIFO, each taking
        # the first match.  Removing items never lets a previously
        # unmatched getter match, so rescans are only needed when freed
        # capacity admits blocked putters (new items for the leftovers).
        while True:
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.popleft()
                self._items.append(item)
                ev.succeed()
            matched = False
            if self._getters and self._items:
                waiting: deque[StoreGet] = deque()
                while self._getters:
                    getter = self._getters.popleft()
                    pred = getattr(getter, "filter", None)
                    for idx, item in enumerate(self._items):
                        if pred is None or pred(item):
                            del self._items[idx]
                            getter.succeed(item)
                            matched = True
                            break
                    else:
                        waiting.append(getter)
                self._getters = waiting
            if not (matched and self._putters):
                return

    def _insert(self, item: Any) -> None:  # pragma: no cover - via _dispatch
        self._items.append(item)


class Container:
    """Continuous level with blocking put/get (e.g. bytes in a buffer)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._putters: deque[tuple[Event, float]] = deque()
        self._getters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; event fires once it fits under capacity."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.env)
        self._putters.append((ev, amount))
        self._dispatch()
        return ev

    def get(self, amount: float) -> Event:
        """Remove ``amount``; event fires once that much is available."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        ev = Event(self.env)
        self._getters.append((ev, amount))
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._level + self._putters[0][1] <= self.capacity:
                ev, amount = self._putters.popleft()
                self._level += amount
                ev.succeed()
                progressed = True
            if self._getters and self._level >= self._getters[0][1]:
                ev, amount = self._getters.popleft()
                self._level -= amount
                ev.succeed()
                progressed = True
