"""The two-slot record logs (superblock, LSM metadata) as recovery reads them.

Sealing a log needs only its record *frames*; adopting its state needs one
decoded payload per slot, found newest-first.  That walk rests on one
invariant: **within one log extent, epochs ascend with offset** -- records
are appended with ``epoch + 1``, recovery resumes on the sealed slot of the
best record, and rotation resets the other slot before writing to it
(DESIGN.md, "Recovery").
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, TypeVar

from repro.serialization.codec import Value, decode_value, scan_frames

from .disk import InMemoryDisk
from .errors import CorruptionError

_S = TypeVar("_S")


class LogScan(NamedTuple):
    """One log extent as read once: its bytes and the valid record frames."""

    data: bytes
    frames: List[Tuple[int, int]]  # payload (start, end) per frame, by offset
    end: int  # end of the valid prefix: the seal, where appends resume


def scan_log(disk: InMemoryDisk, extent: int, page_size: int) -> LogScan:
    """Read ``extent`` up to the hard write pointer -- the write-pointer
    query a zoned device offers -- and walk its record frames."""
    hard = disk.write_pointer(extent)
    data = disk.read(extent, 0, hard) if hard else b""
    return LogScan(data, *scan_frames(data, page_size))


def adopt_newest(
    disk: InMemoryDisk,
    extents: Tuple[int, ...],
    page_size: int,
    parse: Callable[[Value], Optional[Tuple[int, _S]]],
    scans: Optional[Dict[int, LogScan]] = None,
) -> Tuple[Optional[_S], int]:
    """The highest-epoch state in a two-slot log, and the slot holding it.

    ``parse`` maps a decoded payload to ``(epoch, state)``, or None when it
    is not a state.  Each slot's payloads are decoded newest-first and the
    first that parses stands for the slot; a later slot wins only with a
    strictly higher epoch.  A CRC-valid frame whose payload does not decode
    is skipped like any other non-state (no writer produces one).  ``scans``
    carries what sealing already read; without it the extents are read here.
    """
    best: Optional[Tuple[int, _S]] = None
    best_slot = 0
    for slot, extent in enumerate(extents):
        scan = scans[extent] if scans is not None else scan_log(disk, extent, page_size)
        for start, end in reversed(scan.frames):
            try:
                found = parse(decode_value(scan.data[start:end]))
            except CorruptionError:
                continue
            if found is not None:
                if best is None or found[0] > best[0]:
                    best, best_slot = found, slot
                break
    return (best[1] if best else None), best_slot
