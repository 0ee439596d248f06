"""In-memory user-space disk with extents, append-only writes, and faults.

The paper's conformance tests run ShardStore against "an in-memory user-space
disk" for determinism and speed (section 4.1); this module is that disk.  It
models exactly the durable medium:

* a fixed number of *extents*, each a contiguous fixed-size region;
* writes within an extent are sequential, tracked by a *hard write pointer*
  (the next valid write position on the durable medium);
* a ``reset`` operation returns an extent's write pointer to zero, making all
  data on it unreadable even though the bytes are not physically erased;
* reads beyond an extent's write pointer are forbidden;
* page-granular persistence: the IO scheduler issues writes one page at a
  time, so a crash can tear a logical append along page boundaries (the
  mechanism behind the paper's bug #10).

Failure injection (section 4.4) lives here too: tests can arm one-shot or
permanent read/write failures per extent, which surface as
:class:`~repro.shardstore.errors.IoError`.

The disk itself never loses data on a crash -- crash semantics are the IO
scheduler's job (pending writebacks are dropped; the durable bytes here
survive).  ``snapshot``/``restore`` support the block-level crash-state
enumerator, which needs to rewind the medium while exploring crash states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ExtentError, IoError
from .observability import NULL_RECORDER, Recorder, exported_as


class FailureMode(enum.Enum):
    """How an armed fault behaves."""

    ONCE = "once"  # the next matching IO fails, then the fault disarms
    PERMANENT = "permanent"  # every matching IO fails until cleared


class FaultKind(enum.Enum):
    """What an armed fault does to the matching IO."""

    IO_ERROR = "io-error"  # the IO fails outright, no medium change
    TORN_WRITE = "torn-write"  # a write lands a prefix, then fails


@dataclass
class _ArmedFault:
    mode: FailureMode
    reads: bool
    writes: bool
    kind: FaultKind = FaultKind.IO_ERROR
    delay: int = 0  # matching IOs to let through before firing


@dataclass(frozen=True)
class DiskGeometry:
    """Shape of the simulated disk.

    Sizes are in bytes.  ``extent_size`` must be a multiple of ``page_size``.
    Extent 0 is conventionally reserved for the superblock and the
    ``metadata_extent`` for LSM-tree metadata, but the disk itself does not
    enforce that convention.
    """

    num_extents: int = 16
    extent_size: int = 4096
    page_size: int = 128

    def __post_init__(self) -> None:
        if self.num_extents < 3:
            raise ValueError("need at least 3 extents (superblock, metadata, data)")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.extent_size % self.page_size != 0:
            raise ValueError("extent_size must be a multiple of page_size")

    @property
    def pages_per_extent(self) -> int:
        return self.extent_size // self.page_size


@dataclass
class ExtentState:
    """Durable state of one extent.

    ``data`` is the *materialised* prefix of the extent: it starts empty and
    grows at the write pointer, so ``len(data) >= write_pointer`` always
    holds and a disk costs memory for the bytes written to it, not for its
    capacity.  It never shrinks -- a reset leaves the stale bytes where they
    are -- and everything past it reads as zeroes in the full-extent image.
    """

    data: bytearray
    write_pointer: int = 0  # hard write pointer: bytes durably appended
    reset_count: int = 0  # generation counter, bumped on every reset


@dataclass
class DiskStats:
    """Counters for observing IO behaviour (used by the Fig. 2 bench),
    exported as ``disk.<field>``."""

    writes: int = 0
    reads: int = 0
    resets: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    injected_failures: int = 0
    injected_corruptions: int = 0
    #: Logical service time accrued by completed IOs, in op-clock units
    #: (`latency_units` per IO).  The request plane's latency EWMA is fed
    #: from deltas of this counter, so brownout detection is deterministic.
    #: A clock, not a count: not exported.
    busy_units: int = exported_as(None)


class InMemoryDisk:
    """The durable medium: append-only extents with page-granular writes."""

    def __init__(
        self,
        geometry: Optional[DiskGeometry] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.geometry = geometry or DiskGeometry()
        self._extents: List[ExtentState] = [
            ExtentState(data=bytearray()) for _ in range(self.geometry.num_extents)
        ]
        self._faults: Dict[int, _ArmedFault] = {}
        self.stats = DiskStats()
        self.recorder = recorder
        if recorder.enabled:
            recorder.watch("disk", self.stats)
        #: Logical service time per IO, in op-clock units.  1 is a healthy
        #: disk; a brownout storm ramps this up (and heals it back down)
        #: via :meth:`set_latency`.  Purely virtual: no wall time anywhere.
        self.latency_units: int = 1

    def set_latency(self, units: int) -> None:
        """Set the logical per-IO service time (brownout injection knob)."""
        if units < 1:
            raise ValueError("latency_units must be >= 1")
        self.latency_units = units
        if self.recorder.enabled:
            self.recorder.event("disk.latency", units=units)

    # ------------------------------------------------------------------
    # basic geometry helpers

    def _check_extent(self, extent: int) -> ExtentState:
        if not 0 <= extent < self.geometry.num_extents:
            raise ExtentError(f"extent {extent} out of range")
        return self._extents[extent]

    def write_pointer(self, extent: int) -> int:
        """The hard write pointer: next durable write offset on ``extent``."""
        return self._check_extent(extent).write_pointer

    def reset_count(self, extent: int) -> int:
        """Generation counter for ``extent`` (bumped by :meth:`reset`)."""
        return self._check_extent(extent).reset_count

    def free_bytes(self, extent: int) -> int:
        state = self._check_extent(extent)
        return self.geometry.extent_size - state.write_pointer

    # ------------------------------------------------------------------
    # failure injection (section 4.4)

    def arm_fault(
        self,
        extent: int,
        mode: FailureMode = FailureMode.ONCE,
        *,
        reads: bool = True,
        writes: bool = True,
        kind: FaultKind = FaultKind.IO_ERROR,
        delay: int = 0,
    ) -> None:
        """Arm an IO fault on ``extent``.

        With :attr:`FailureMode.ONCE` the next matching IO fails and the
        fault disarms (a transient failure); with
        :attr:`FailureMode.PERMANENT` every matching IO fails until
        :meth:`clear_faults` (a dead region / failed head).

        ``kind`` selects the failure mechanics: :attr:`FaultKind.IO_ERROR`
        fails the IO without touching the medium, while
        :attr:`FaultKind.TORN_WRITE` durably lands a prefix of the write
        before failing (a power-loss-mid-IO tear; reads are unaffected).
        ``delay`` lets that many matching IOs through before the fault
        fires, so a fault plan can schedule failures ahead of time.
        """
        self._check_extent(extent)
        self._faults[extent] = _ArmedFault(
            mode=mode, reads=reads, writes=writes, kind=kind, delay=delay
        )

    def clear_faults(self, extent: Optional[int] = None) -> None:
        """Clear armed faults on ``extent``, or all faults if ``None``."""
        if extent is None:
            self._faults.clear()
        else:
            self._faults.pop(extent, None)

    def has_armed_fault(self, extent: int) -> bool:
        return extent in self._faults

    def _fire(self, extent: int, *, is_read: bool) -> Optional[_ArmedFault]:
        """Consume an armed fault for a matching IO, or return None.

        Handles delay countdown, ONCE disarming, stats and recorder
        bookkeeping; the caller raises (or tears the write) as appropriate.
        """
        fault = self._faults.get(extent)
        if fault is None:
            return None
        if is_read and not fault.reads:
            return None
        if not is_read and not fault.writes:
            return None
        if fault.delay > 0:
            fault.delay -= 1
            return None
        if fault.mode is FailureMode.ONCE:
            del self._faults[extent]
        self.stats.injected_failures += 1
        io = "read" if is_read else "write"
        if self.recorder.enabled:
            self.recorder.event(
                "disk.injected_failure", extent=extent, kind=io, fault=fault.kind.value
            )
        return fault

    def _maybe_fail(self, extent: int, *, is_read: bool) -> None:
        fault = self._fire(extent, is_read=is_read)
        if fault is None:
            return
        io = "read" if is_read else "write"
        raise IoError(
            f"injected {io} failure on extent {extent}",
            transient=fault.mode is FailureMode.ONCE,
        )

    def corrupt(self, extent: int, offset: Optional[int] = None, *, bit: int = 0) -> Optional[int]:
        """Flip one bit in the durable region of ``extent`` (silent corruption).

        ``offset`` defaults to the middle of the written region; out-of-range
        offsets are clamped below the write pointer.  Returns the corrupted
        offset, or None (no-op) when the extent has no durable data.  The
        damage is silent: only a CRC check downstream (get/scrub) notices.
        """
        state = self._check_extent(extent)
        if state.write_pointer == 0:
            return None
        if offset is None:
            offset = state.write_pointer // 2
        offset = max(0, min(offset, state.write_pointer - 1))
        state.data[offset] ^= 1 << (bit % 8)
        self.stats.injected_corruptions += 1
        if self.recorder.enabled:
            self.recorder.event("disk.corruption", extent=extent, offset=offset)
        return offset

    # ------------------------------------------------------------------
    # IO

    def write(self, extent: int, offset: int, data: bytes) -> None:
        """Durably write ``data`` at ``offset``; must land at the write pointer.

        Only the IO scheduler calls this, one page (or final partial page) at
        a time, which is what makes crash states page-granular.
        """
        state = self._check_extent(extent)
        if offset != state.write_pointer:
            raise ExtentError(
                f"non-sequential write to extent {extent}: offset {offset}, "
                f"write pointer {state.write_pointer}"
            )
        if offset + len(data) > self.geometry.extent_size:
            raise ExtentError(f"write overruns extent {extent}")
        fault = self._fire(extent, is_read=False)
        if fault is not None:
            transient = fault.mode is FailureMode.ONCE
            if fault.kind is FaultKind.TORN_WRITE:
                # Land a durable prefix before failing: the caller sees an
                # error, the medium sees a tear.
                prefix = len(data) // 2
                if prefix:
                    state.data[offset : offset + prefix] = data[:prefix]
                    state.write_pointer = offset + prefix
                    self.stats.bytes_written += prefix
                raise IoError(
                    f"injected torn write on extent {extent} "
                    f"({prefix}/{len(data)} bytes landed)",
                    transient=transient,
                )
            raise IoError(
                f"injected write failure on extent {extent}", transient=transient
            )
        state.data[offset : offset + len(data)] = data
        state.write_pointer = offset + len(data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self.stats.busy_units += self.latency_units

    def read(self, extent: int, offset: int, length: int) -> bytes:
        """Read ``length`` durable bytes; reads beyond the pointer are forbidden."""
        state = self._check_extent(extent)
        if offset < 0 or length < 0:
            raise ExtentError("negative read bounds")
        if offset + length > state.write_pointer:
            raise ExtentError(
                f"read beyond write pointer on extent {extent}: "
                f"[{offset}, {offset + length}) > {state.write_pointer}"
            )
        self._maybe_fail(extent, is_read=True)
        self.stats.reads += 1
        self.stats.bytes_read += length
        self.stats.busy_units += self.latency_units
        return bytes(state.data[offset : offset + length])

    def reset(self, extent: int) -> None:
        """Return the extent's write pointer to zero, allowing overwrites.

        Data is not physically erased (matching real devices), but becomes
        unreadable because reads beyond the pointer are forbidden.
        """
        state = self._check_extent(extent)
        self._maybe_fail(extent, is_read=False)
        state.write_pointer = 0
        state.reset_count += 1
        self.stats.resets += 1
        self.stats.busy_units += self.latency_units
        if self.recorder.enabled:
            self.recorder.event("disk.reset", extent=extent)

    def set_write_pointer(self, extent: int, pointer: int) -> None:
        """Recovery-only escape hatch: adopt a recovered soft write pointer.

        After a crash the store trusts the superblock's persisted soft
        pointer, not the medium's hard pointer.  If the recovered pointer is
        *below* the hard pointer the tail is unacknowledged data and is
        discarded; if it is *above* (the paper's bug #7 scenario) the gap
        reads back as zeroes and downstream CRC checks will flag corruption.
        """
        state = self._check_extent(extent)
        if not 0 <= pointer <= self.geometry.extent_size:
            raise ExtentError(f"write pointer {pointer} out of range")
        if pointer < state.write_pointer:
            # Discard the unacknowledged tail so later appends re-cover it.
            state.data[pointer : state.write_pointer] = bytes(
                state.write_pointer - pointer
            )
        elif pointer > len(state.data):
            state.data.extend(bytes(pointer - len(state.data)))
        state.write_pointer = pointer

    # ------------------------------------------------------------------
    # snapshot / restore (block-level crash-state exploration)

    def snapshot(self) -> List[Tuple[bytes, int, int]]:
        """Capture durable state; pair with :meth:`restore` to rewind.

        Each extent carries only its materialised bytes; zero-padded to
        ``extent_size`` they are the full-extent image.
        """
        return [
            (bytes(s.data), s.write_pointer, s.reset_count) for s in self._extents
        ]

    def restore(self, snap: List[Tuple[bytes, int, int]]) -> None:
        if len(snap) != len(self._extents):
            raise ValueError("snapshot geometry mismatch")
        for state, (data, pointer, resets) in zip(self._extents, snap):
            state.data = bytearray(data)
            state.write_pointer = pointer
            state.reset_count = resets
