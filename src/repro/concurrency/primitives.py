"""Instrumented concurrency primitives (the Loom/Shuttle substrate).

ShardStore's concurrent paths (index mutation, LSM compaction, chunk
reclamation, the superblock buffer pool) synchronise through the primitives
in this module instead of raw ``threading`` objects.  The primitives have
two personalities:

* **Normal execution** (no model checker active): thin wrappers over
  ``threading`` -- real locks, real threads, negligible overhead.
* **Under stateless model checking** (a :class:`~repro.concurrency.scheduler.
  ModelScheduler` is installed): every acquire/release/load/store becomes a
  *yield point* where the checker may preempt the current task and run
  another, exactly how Loom and Shuttle explore interleavings of Rust
  ``std::sync`` operations (section 6 of the paper).

This dual personality is what lets the same implementation code run in unit
tests, property-based tests, and the model checker without modification --
the paper's key requirement that checking not fork the code base.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, Optional, TypeVar

T = TypeVar("T")

# The active model scheduler, if any.  Installed by ModelScheduler.run().
# A plain module global (not thread-local): the model checker serialises
# all tasks, and normal execution only reads it once per operation.
_active_scheduler: Optional["SchedulerProtocol"] = None


class SchedulerProtocol:
    """What primitives need from a model scheduler (duck-typed)."""

    def yield_point(self, reason: str = "") -> None:
        raise NotImplementedError

    def block_current(self, reason: str, wake_check: Callable[[], bool]) -> None:
        raise NotImplementedError

    def spawn(self, fn: Callable[[], None], name: str) -> "TaskHandle":
        raise NotImplementedError


def install_scheduler(scheduler: Optional[SchedulerProtocol]) -> None:
    global _active_scheduler
    _active_scheduler = scheduler


def current_scheduler() -> Optional[SchedulerProtocol]:
    return _active_scheduler


def yield_point(reason: str = "") -> None:
    """Possible preemption point; no-op outside the model checker."""
    sched = _active_scheduler
    if sched is not None:
        sched.yield_point(reason)


class Mutex(Generic[T]):
    """A mutex protecting a value, used as a context manager.

    ``with mutex as value:`` acquires, yields the protected value, releases.
    Under the model checker, acquisition is a yield point and contention
    blocks the task in the scheduler (never the OS).
    """

    def __init__(self, value: T, name: str = "mutex") -> None:
        self._value = value
        self._name = name
        self._os_lock = threading.Lock()
        self._holder: Optional[object] = None  # model-checker bookkeeping

    def acquire(self) -> T:
        """Take the lock; returns the protected value.  Also ``__enter__``,
        so a ``with`` block costs one frame on each side."""
        sched = _active_scheduler
        if sched is None:
            self._os_lock.acquire()
            return self._value
        sched.yield_point(f"acquire {self._name}")
        if self._holder is not None:
            sched.block_current(
                f"waiting for {self._name}", lambda: self._holder is None
            )
        self._holder = sched.current_task()  # type: ignore[attr-defined]
        return self._value

    def release(self, *_exc: Any) -> None:
        """Drop the lock.  Also ``__exit__``, whose exception it ignores."""
        sched = _active_scheduler
        if sched is None:
            self._os_lock.release()
            return
        self._holder = None
        sched.yield_point(f"release {self._name}")

    __enter__ = acquire
    __exit__ = release

    def locked(self) -> bool:
        """Whether the mutex is currently held (by anyone)."""
        if _active_scheduler is not None:
            return self._holder is not None
        return self._os_lock.locked()


class AtomicCell(Generic[T]):
    """A cell with atomic load/store/swap; every access is a yield point."""

    def __init__(self, value: T, name: str = "cell") -> None:
        self._value = value
        self._name = name
        self._os_lock = threading.Lock()

    def load(self) -> T:
        yield_point(f"load {self._name}")
        with self._os_lock:
            return self._value

    def store(self, value: T) -> None:
        yield_point(f"store {self._name}")
        with self._os_lock:
            self._value = value

    def swap(self, value: T) -> T:
        yield_point(f"swap {self._name}")
        with self._os_lock:
            old = self._value
            self._value = value
            return old

    def fetch_update(self, fn: Callable[[T], T]) -> T:
        """Atomically apply ``fn``; returns the previous value."""
        yield_point(f"rmw {self._name}")
        with self._os_lock:
            old = self._value
            self._value = fn(old)
            return old


class RwLock(Generic[T]):
    """A readers-writer lock protecting a value.

    Many readers or one writer; writers take priority once waiting (no
    writer starvation).  Under the model checker every acquire/release is
    a yield point and blocking parks the task in the scheduler.
    """

    def __init__(self, value: T, name: str = "rwlock") -> None:
        self._value = value
        self._name = name
        self._state_lock = threading.Lock()  # guards the counters below
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._os_cond = threading.Condition(self._state_lock)

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> T:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._os_cond.wait_for(
                    lambda: not self._writer and self._writers_waiting == 0,
                    timeout=5.0,
                )
                self._readers += 1
            return self._value
        sched.yield_point(f"acquire-read {self._name}")
        if self._writer or self._writers_waiting:
            sched.block_current(
                f"read-waiting {self._name}",
                lambda: not self._writer and self._writers_waiting == 0,
            )
        self._readers += 1
        return self._value

    def release_read(self) -> None:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._readers -= 1
                self._os_cond.notify_all()
            return
        self._readers -= 1
        sched.yield_point(f"release-read {self._name}")

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> T:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._writers_waiting += 1
                self._os_cond.wait_for(
                    lambda: not self._writer and self._readers == 0, timeout=5.0
                )
                self._writers_waiting -= 1
                self._writer = True
            return self._value
        sched.yield_point(f"acquire-write {self._name}")
        self._writers_waiting += 1
        if self._writer or self._readers:
            sched.block_current(
                f"write-waiting {self._name}",
                lambda: not self._writer and self._readers == 0,
            )
        self._writers_waiting -= 1
        self._writer = True
        return self._value

    def release_write(self) -> None:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._writer = False
                self._os_cond.notify_all()
            return
        self._writer = False
        sched.yield_point(f"release-write {self._name}")

    class _ReadGuard:
        def __init__(self, lock: "RwLock") -> None:
            self._lock = lock

        def __enter__(self):
            return self._lock.acquire_read()

        def __exit__(self, *exc: Any) -> None:
            self._lock.release_read()

    class _WriteGuard:
        def __init__(self, lock: "RwLock") -> None:
            self._lock = lock

        def __enter__(self):
            return self._lock.acquire_write()

        def __exit__(self, *exc: Any) -> None:
            self._lock.release_write()

    def read(self) -> "RwLock._ReadGuard":
        """``with lock.read() as value:`` shared access."""
        return RwLock._ReadGuard(self)

    def write(self) -> "RwLock._WriteGuard":
        """``with lock.write() as value:`` exclusive access."""
        return RwLock._WriteGuard(self)


class Condvar:
    """Condition variable over a predicate; model-checker aware."""

    def __init__(self, name: str = "condvar") -> None:
        self._name = name
        self._os_cond = threading.Condition()

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._os_cond.wait_for(predicate, timeout=5.0)
            return
        if not predicate():
            sched.block_current(f"wait {self._name}", predicate)

    def notify_all(self) -> None:
        sched = _active_scheduler
        if sched is None:
            with self._os_cond:
                self._os_cond.notify_all()
            return
        sched.yield_point(f"notify {self._name}")


class TaskHandle:
    """Join handle for a spawned task (thread or model-checker task)."""

    def __init__(self, join: Callable[[], None]) -> None:
        self._join = join

    def join(self) -> None:
        self._join()


def spawn(fn: Callable[[], None], name: str = "task") -> TaskHandle:
    """Spawn a concurrent task; a real thread outside the model checker."""
    sched = _active_scheduler
    if sched is not None:
        return sched.spawn(fn, name)
    thread = threading.Thread(target=fn, name=name, daemon=True)
    thread.start()
    return TaskHandle(thread.join)
