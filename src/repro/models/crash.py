"""Crash-aware reference model: what is allowed to be lost (section 5).

The plain reference model is too strong in the face of crashes -- soft
updates explicitly allow recent mutations to be lost.  This extension
tracks, for every mutating operation, the :class:`Dependency` the
implementation returned; after a crash it derives the paper's two
properties:

* **persistence** -- if an operation's dependency reported persistent
  before the crash, its effect must be readable after recovery *unless
  superseded by a later persisted operation*;
* **forward progress** -- after a clean (non-crashing) shutdown, every
  operation's dependency must report persistent.

Concretely, for each key the model computes the *allowed post-crash
observations*: the value of any operation at or after the key's latest
persistent operation (later, non-persisted operations may have partially
reached disk), with "absent" allowed only if one of those operations is a
delete or no operation ever persisted.

The paper's issue #9 -- "reference model was not updated correctly after a
crash during reclamation" -- was a bug in this artifact: enable
``Fault.MODEL_STALE_AFTER_CRASH_RECLAIM`` and :meth:`on_crash` wrongly
treats operations on keys relocated by an in-flight reclamation as
persistent, producing spurious persistence violations that the harness
reports (and that a developer then traces to the model, exactly as the
paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.shardstore.dependency import Dependency
from repro.shardstore.faults import Fault, FaultSet

from .candidates import Candidates


@dataclass
class LoggedOp:
    """One mutating operation the implementation performed."""

    index: int
    key: bytes
    value: Optional[bytes]  # None is a delete
    dep: Dependency
    forced_persistent: bool = False  # fault #9's corruption of the model


class CrashAwareModel:
    """Reference model extended with dependency-based loss accounting."""

    def __init__(self, faults: Optional[FaultSet] = None) -> None:
        self.faults = faults or FaultSet.none()
        self._oplog: List[LoggedOp] = []

    # ------------------------------------------------------------------
    # recording

    def record_put(self, key: bytes, value: bytes, dep: Dependency) -> None:
        self._oplog.append(LoggedOp(len(self._oplog), key, value, dep))

    def record_delete(self, key: bytes, dep: Dependency) -> None:
        self._oplog.append(LoggedOp(len(self._oplog), key, None, dep))

    def on_crash(self, reclaim_touched_keys: Iterable[bytes]) -> None:
        """Called at each dirty reboot with the keys an in-flight (or most
        recent) reclamation relocated.

        The correct model needs to do nothing here -- dependency polling
        already accounts for what reclamation persisted.  Fault #9 instead
        marks those keys' latest operations as persistent regardless of
        their dependencies, the "model not updated correctly after a crash
        during reclamation" bug.
        """
        if not self.faults.enabled(Fault.MODEL_STALE_AFTER_CRASH_RECLAIM):
            return
        touched = set(reclaim_touched_keys)
        for op in reversed(self._oplog):
            if op.key in touched:
                op.forced_persistent = True
                touched.discard(op.key)
            if not touched:
                break

    # ------------------------------------------------------------------
    # specification queries

    def _is_persistent(self, op: LoggedOp) -> bool:
        return op.forced_persistent or op.dep.is_persistent()

    def tracked_keys(self) -> List[bytes]:
        return sorted({op.key for op in self._oplog})

    def allowed_after_crash(self, key: bytes) -> Candidates:
        """The persistence property's allowed observations for ``key``."""
        ops = [op for op in self._oplog if op.key == key]
        last_persistent = None
        for op in ops:
            if self._is_persistent(op):
                last_persistent = op.index
        # Absent is allowed when nothing ever persisted, or via a delete
        # (``op.value`` None) at or after the last persistent operation.
        allowed: Dict[Optional[bytes], None] = (
            {None: None} if last_persistent is None else {}
        )
        for op in ops:
            if last_persistent is None or op.index >= last_persistent:
                allowed[op.value] = None
        return Candidates(allowed)

    def expected_after_clean_shutdown(self, key: bytes) -> Optional[bytes]:
        """After a clean shutdown the *latest* operation must be visible."""
        ops = [op for op in self._oplog if op.key == key]
        if not ops:
            return None
        return ops[-1].value

    def unpersisted_ops(self) -> List[LoggedOp]:
        """Operations whose dependency is not persistent -- must be empty
        after a clean shutdown (the forward-progress property)."""
        return [op for op in self._oplog if not self._is_persistent(op)]

    @property
    def op_count(self) -> int:
        return len(self._oplog)
