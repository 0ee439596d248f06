"""Workloads of the cost ladder: op streams, systems, cycles and the oracle.

Three *data* workloads drive a ``StorageNode`` or a ``ClusterRouter`` with
a closed loop of one client; the fourth, ``check-conformance``, lives in
``run.py`` because its unit of work is a checked sequence, not a request.

Everything here is a pure function of ``(workload, seed, cycles)``: the op
stream is generated up front into compact arrays, values are windows of
one seeded blob (four variants per key, so a stale read is detectable),
and the maintenance trigger depends on exact extent counts only -- two
runs of one seed do identical work, GC passes included.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterConfig, ClusterRouter
from repro.shardstore import (
    DiskGeometry,
    NotFoundError,
    ShardStoreError,
    StorageNode,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.observability import Journal
from repro.shardstore.superblock import OWNER_FREE

OP_PUT, OP_GET, OP_DELETE, OP_CONTAINS = 0, 1, 2, 3
OP_NAMES = ("put", "get", "delete", "contains")
VARIANTS = 4
ABSENT = 255  # shadow marker: the model holds no value for this key
_STRIDE = 17  # blob bytes between the value windows of adjacent variants

#: Most failure texts kept per run (the count is always exact).
MAX_FAILURE_TEXTS = 8

#: Extents reclaimed between two calibration slices (about 40 ms).
RECLAIMS_PER_SLICE = 8
#: One calibration slice: this many steps of a fixed pure-Python kernel.
CALIBRATION_STEPS = 1_500
#: What a slice takes on the reference box (2-core 2.1 GHz Xeon guest,
#: CPython 3.11) between ops of a workload when nothing else competes for
#: the core (120 us in a loop of its own, with warm caches).  It fixes
#: the unit of every calibrated time; it is not tuned per run.
REFERENCE_SLICE_NS = 145_000


class QuietClock:
    """Wall time with the box's own slowdown divided out.

    The box is a small guest whose core is shared: for seconds at a time
    everything, a fixed arithmetic loop included, runs 1.5x or 2x slower.
    The clock times that loop (a *slice*) every few milliseconds of work.
    The stretch of work between two slices is divided by how much slower
    than the reference the slices around it ran, which gives the time it
    would have taken on a quiet box.  The slices themselves are not
    counted as work.
    """

    def __init__(self) -> None:
        self.began = array("q")
        self.ended = array("q")
        self.at_op = array("q")
        self._factors: List[float] = []

    def sample(self, op_index: int = 0) -> int:
        """Time one slice, taken just before op ``op_index``; its index."""
        began = time.perf_counter_ns()
        acc = 0
        for i in range(CALIBRATION_STEPS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        self.ended.append(time.perf_counter_ns())
        self.began.append(began)
        self.at_op.append(op_index)
        return len(self.began) - 1

    def factors(self) -> List[float]:
        """Slowdown of the stretch after each slice (median of 4 around it)."""
        if len(self._factors) != len(self.began):
            slow = [
                (e - b) / REFERENCE_SLICE_NS for b, e in zip(self.began, self.ended)
            ]
            self._factors = [
                statistics.median(slow[max(0, k - 1) : k + 3])
                for k in range(len(slow))
            ]
        return self._factors

    def quiet_ns(self, first: int, last: int) -> float:
        """Calibrated time between slice ``first`` and slice ``last``."""
        factors = self.factors()
        return sum(
            (self.began[k + 1] - self.ended[k]) / factors[k]
            for k in range(first, last)
        )

    def drift(self, first: int, last: int) -> Dict[str, float]:
        """How fast the box was between two slices, and how much that moved."""
        q1, median, q3 = statistics.quantiles(self.factors()[first:last], n=4)
        return {
            "driver.calib_ms": median * REFERENCE_SLICE_NS / 1e6,
            "driver.calib_drift": (q3 - q1) / median,
            "driver.slowdown": median,
        }

    def quieten(self, lat: array, lat_base: int, first: int, last: int) -> array:
        """``lat`` with every op divided by its stretch's slowdown."""
        factors = self.factors()
        out = array("d", lat)
        for k in range(first, last):
            factor = factors[k]
            for i in range(self.at_op[k] - lat_base, self.at_op[k + 1] - lat_base):
                out[i] /= factor
        return out


@dataclass(frozen=True)
class DataWorkload:
    """Shape of one data workload (sizes in ops, never in seconds)."""

    name: str
    keys: int
    value_size: int
    #: put/get/delete/contains shares, in percent.
    mix: Tuple[int, int, int, int]
    cycle_ops: int
    #: Measured cycles per trial at the nominal ``--seconds``.
    cycles: int
    build: Callable[[int], Any]
    #: ``(access_pct, key_pct)``: that share of accesses goes to the
    #: hottest ``key_pct`` percent of keys; None means uniform.
    hot: Optional[Tuple[int, int]] = None
    #: flush()/drain() cadence in request ops; 0 where the system under
    #: test has no such knob (the router drains per replica ack).
    flush_every: int = 128
    drain_every: int = 1024
    #: Request ops between two calibration slices (5 to 25 ms of work).
    calibrate_every: int = 256
    #: Partition member ``cycle % num_nodes`` for the second quarter of
    #: every cycle (cluster only).
    partitions: bool = False


def _node(geometry: DiskGeometry, cache_pages: int) -> Callable[[int], Any]:
    def build(seed: int, journal: Optional[Journal] = None) -> StorageNode:
        return StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=geometry,
                max_chunk_payload=4096,
                memtable_flush_threshold=64,
                buffer_cache_pages=cache_pages,
                seed=seed,
                journal=journal,
            ),
        )

    return build


def _cluster(seed: int) -> ClusterRouter:
    return ClusterRouter(
        ClusterConfig(
            num_nodes=5,
            disks_per_node=2,
            replication=3,
            write_quorum=2,
            read_quorum=2,
            hint_limit=4096,
            anti_entropy=True,
            anti_entropy_interval=64,
            geometry=DiskGeometry(64, 32768, 256),
            seed=seed,
        )
    )


DATA_WORKLOADS: Dict[str, DataWorkload] = {
    w.name: w
    for w in (
        DataWorkload(
            name="node-ingest",
            keys=2_000,
            value_size=256,
            mix=(80, 10, 5, 5),
            cycle_ops=16_384,
            cycles=2,
            build=_node(DiskGeometry(64, 65536, 512), 256),
        ),
        DataWorkload(
            name="node-serve",
            keys=12_000,
            value_size=256,
            mix=(5, 85, 0, 10),
            cycle_ops=32_768,
            cycles=2,
            build=_node(DiskGeometry(128, 262144, 512), 1024),
            hot=(70, 10),
        ),
        DataWorkload(
            name="cluster-quorum",
            keys=1_000,
            value_size=128,
            mix=(60, 30, 5, 5),
            cycle_ops=4_096,
            cycles=2,
            build=_cluster,
            flush_every=0,
            drain_every=0,
            calibrate_every=64,
            partitions=True,
        ),
    )
}


def store_systems(system: Any) -> List[StoreSystem]:
    """Every ``StoreSystem`` under a node or a cluster, in a fixed order."""
    if isinstance(system, ClusterRouter):
        return [
            s
            for node_id in sorted(system.nodes)
            for s in system.nodes[node_id].node.systems
        ]
    return list(system.systems)


class OpStream:
    """Pre-generated ops: one code byte and one key index per op.

    A code is ``op | variant << 2``; the variant of a put always differs
    from the key's previous one, so serving any older value is a visible
    oracle mismatch.
    """

    def __init__(self, workload: DataWorkload, seed: int, total_ops: int) -> None:
        rand = random.Random(seed).random
        put_below = workload.mix[0] / 100
        get_below = put_below + workload.mix[1] / 100
        delete_below = get_below + workload.mix[2] / 100
        n_keys = workload.keys
        if workload.hot is not None:
            hot_share = workload.hot[0] / 100
            hot_keys = n_keys * workload.hot[1] // 100
        else:
            hot_share, hot_keys = 0.0, 0
        cold_keys = n_keys - hot_keys
        last = bytearray(n_keys)  # preload stores variant 0 everywhere
        codes = bytearray(total_ops)
        key_index = array("I", bytes(4 * total_ops))
        for i in range(total_ops):
            x = rand()
            if rand() < hot_share:
                k = int(rand() * hot_keys)
            else:
                k = hot_keys + int(rand() * cold_keys)
            if x < put_below:
                variant = (last[k] + 1 + int(rand() * (VARIANTS - 1))) % VARIANTS
                last[k] = variant
                codes[i] = OP_PUT | variant << 2
            elif x < get_below:
                codes[i] = OP_GET
            elif x < delete_below:
                codes[i] = OP_DELETE
            else:
                codes[i] = OP_CONTAINS
            key_index[i] = k
        self.codes = bytes(codes)
        self.key_index = key_index

    def sha256(self) -> str:
        digest = hashlib.sha256(self.codes)
        digest.update(self.key_index.tobytes())
        return digest.hexdigest()


class Values:
    """Four value variants per key, as windows of one seeded blob."""

    def __init__(self, workload: DataWorkload, seed: int) -> None:
        self.size = workload.value_size
        self.blob = random.Random(seed ^ 0x5EED).randbytes(
            workload.keys * VARIANTS * _STRIDE + self.size
        )

    def get(self, key_index: int, variant: int) -> bytes:
        start = (key_index * VARIANTS + variant) * _STRIDE
        return self.blob[start : start + self.size]


@dataclass
class Tally:
    """Failure accounting for one run of ops."""

    attempted: int = 0
    failed: int = 0
    texts: List[str] = field(default_factory=list)

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.texts) < MAX_FAILURE_TEXTS:
            self.texts.append(text)


class Session:
    """One built system plus the shadow model the oracle checks it against."""

    def __init__(
        self,
        workload: DataWorkload,
        seed: int,
        stream: OpStream,
        kv: Any = None,
        clock: Optional[QuietClock] = None,
    ) -> None:
        self.workload = workload
        self.stream = stream
        self.values = Values(workload, seed)
        self.keys = [b"k-%07d" % i for i in range(workload.keys)]
        self.shadow = bytearray([ABSENT]) * workload.keys
        self.tally = Tally()
        self.clock = clock if clock is not None else QuietClock()
        self.user_bytes_put = 0
        self.kv = kv if kv is not None else workload.build(seed)

    # -- set-up ---------------------------------------------------------

    def preload(self) -> None:
        """Store variant 0 of every key, then make it durable."""
        kv, values, shadow = self.kv, self.values, self.shadow
        for k, key in enumerate(self.keys):
            if k % self.workload.calibrate_every == 0:
                self.clock.sample()
            kv.put(key, values.get(k, 0))
            shadow[k] = 0
        if self.workload.flush_every:
            kv.flush()
            kv.drain()

    # -- the closed loop -------------------------------------------------

    def run_ops(self, start: int, stop: int, lat: array, lat_base: int) -> None:
        """Issue ops ``[start, stop)``; one client, each op awaits its reply.

        Only the call itself sits between the two clock reads; the compare
        against the shadow model happens after the second one.  ``start``
        must be a multiple of the calibration cadence, so that every op
        has a slice before it.
        """
        kv = self.kv
        put, get, delete, contains = kv.put, kv.get, kv.delete, kv.contains
        codes, key_index = self.stream.codes, self.stream.key_index
        keys, shadow, value_of = self.keys, self.shadow, self.values.get
        tally = self.tally
        flush_every = self.workload.flush_every
        drain_every = self.workload.drain_every
        calibrate_every = self.workload.calibrate_every
        sample = self.clock.sample
        now = time.perf_counter_ns
        user_bytes = 0
        for i in range(start, stop):
            if i % calibrate_every == 0:
                sample(i)
            code = codes[i]
            k = key_index[i]
            key = keys[k]
            op = code & 3
            error: Optional[ShardStoreError] = None
            if op == OP_GET:
                got: Optional[bytes] = None
                t0 = now()
                try:
                    got = get(key)
                except NotFoundError:
                    pass
                except ShardStoreError as exc:
                    error = exc
                t1 = now()
                held = shadow[k]
                want = None if held == ABSENT else value_of(k, held)
                if error is None and got != want:
                    tally.fail(f"op {i} get {key!r}: value differs from model")
            elif op == OP_PUT:
                variant = code >> 2
                value = value_of(k, variant)
                t0 = now()
                try:
                    put(key, value)
                except ShardStoreError as exc:
                    error = exc
                t1 = now()
                if error is None:
                    shadow[k] = variant
                    user_bytes += len(value)
            elif op == OP_CONTAINS:
                present = None
                t0 = now()
                try:
                    present = contains(key)
                except ShardStoreError as exc:
                    error = exc
                t1 = now()
                if error is None and present != (shadow[k] != ABSENT):
                    tally.fail(f"op {i} contains {key!r}: {present} differs")
            else:
                missing = False
                t0 = now()
                try:
                    delete(key)
                except NotFoundError:
                    missing = True
                except ShardStoreError as exc:
                    error = exc
                t1 = now()
                if error is None:
                    if missing != (shadow[k] == ABSENT):
                        tally.fail(f"op {i} delete {key!r}: missing={missing}")
                    shadow[k] = ABSENT
            lat[i - lat_base] = t1 - t0
            if error is not None:
                tally.fail(f"op {i} {OP_NAMES[op]} {key!r}: {error!r}")
            if flush_every:
                if (i + 1) % flush_every == 0:
                    kv.flush()
                if (i + 1) % drain_every == 0:
                    kv.drain()
        tally.attempted += stop - start
        self.user_bytes_put += user_bytes

    def run_cycle(self, cycle: int, lat: array, lat_base: int) -> "CycleCost":
        """``cycle_ops`` requests, then the maintenance step (both timed)."""
        w = self.workload
        start = cycle * w.cycle_ops
        stop = start + w.cycle_ops
        if w.partitions:
            quarter, half = start + w.cycle_ops // 4, start + w.cycle_ops // 2
            victim = cycle % self.kv.config.num_nodes
            self.run_ops(start, quarter, lat, lat_base)
            self.kv.partition_node(victim)
            self.run_ops(quarter, half, lat, lat_base)
            self.kv.heal_partition(victim)
            self.run_ops(half, stop, lat, lat_base)
        else:
            self.run_ops(start, stop, lat, lat_base)
        before_maintenance = self.clock.sample(stop)
        cost = maintain(store_systems(self.kv), self.clock, stop)
        cost.last_slice = self.clock.sample(stop)
        cost.first_slice = before_maintenance - w.cycle_ops // w.calibrate_every
        cost.quiet_ns = self.clock.quiet_ns(cost.first_slice, cost.last_slice)
        return cost

    # -- oracle sweeps and probes -----------------------------------------

    def sweep(self, what: str) -> None:
        """Check ``keys()`` and every value against the model."""
        live = [k for k in range(len(self.keys)) if self.shadow[k] != ABSENT]
        if sorted(self.kv.keys()) != [self.keys[k] for k in live]:
            self.tally.fail(f"{what}: keys() differs from the model")
        for k in live:
            try:
                got = self.kv.get(self.keys[k])
            except ShardStoreError as exc:
                self.tally.fail(f"{what}: get {self.keys[k]!r}: {exc!r}")
                continue
            if got != self.values.get(k, self.shadow[k]):
                self.tally.fail(f"{what}: {self.keys[k]!r} holds a stale value")

    def live_user_bytes(self) -> int:
        return self.workload.value_size * sum(
            1 for held in self.shadow if held != ABSENT
        )


@dataclass
class CycleCost:
    """What one cycle's maintenance step did, and the cycle's calibrated time."""

    quiet_ns: float = 0.0
    #: The cycle's first and last calibration slice.
    first_slice: int = 0
    last_slice: int = 0
    compact_ns: int = 0
    reclaim_ns: int = 0
    passes: int = 0
    scanned_chunks: int = 0
    evacuated: int = 0
    dropped: int = 0


def maintain(systems: List[StoreSystem], clock: QuietClock, at_op: int) -> CycleCost:
    """The background work a real node pays for, run between cycles.

    Compacts every store; a store with fewer than half its data extents
    free also reclaims every reclaimable extent.  Without this step the
    LSM run count and the disk fill grow until ``put`` raises
    ``ExtentError: out of space``.  A GC pass over one store takes a few
    hundred milliseconds, so the clock is sampled inside it too.
    """
    cost = CycleCost()
    now = time.perf_counter_ns
    for system in systems:
        store = system.store
        clock.sample(at_op)
        t0 = now()
        store.compact()
        t1 = now()
        cost.compact_ns += t1 - t0
        owners = store.superblock.ownership()
        free = sum(1 for owner in owners.values() if owner == OWNER_FREE)
        if 2 * free >= len(owners):
            continue
        sampling_ns = 0
        for n, extent in enumerate(store.reclaimable_extents()):
            if n % RECLAIMS_PER_SLICE == 0:
                clock.sample(at_op)
                sampling_ns += clock.ended[-1] - clock.began[-1]
            result = store.reclaim(extent)
            if result is not None:
                cost.passes += 1
                cost.scanned_chunks += result.scanned_chunks
                cost.evacuated += result.evacuated
                cost.dropped += result.dropped
        cost.reclaim_ns += now() - t1 - sampling_ns
    return cost


def set_up(
    workload: DataWorkload, seed: int, stream: OpStream, lat: array
) -> Tuple[Session, float]:
    """Build, preload, one warm-up cycle, then freeze the survivors.

    Returns the session and the calibrated seconds all of that took.
    ``gc.freeze()`` moves everything alive now out of the collector's
    reach, so a full collection inside the window scans the window's own
    garbage only.
    """
    clock = QuietClock()
    first = clock.sample()
    session = Session(workload, seed, stream, clock=clock)
    session.preload()
    session.run_cycle(0, lat, 0)
    if session.tally.failed:
        raise AssertionError(f"warm-up cycle failed: {session.tally.texts}")
    session.tally = Tally()
    session.user_bytes_put = 0
    gc.collect()
    gc.freeze()
    return session, clock.quiet_ns(first, clock.sample()) / 1e9


def counters(system: Any) -> Dict[str, int]:
    """Public stats objects summed over every store, node and the router."""
    out: Dict[str, int] = {}

    def add(name: str, value: int) -> None:
        out[name] = out.get(name, 0) + value

    for s in store_systems(system):
        store = s.store
        for name in ("writes", "reads", "resets", "bytes_written"):
            add(f"disk.{name}", getattr(store.disk.stats, name))
        add("scheduler.ios", store.scheduler.stats.ios_issued)
        add("scheduler.records", store.scheduler.stats.records_written)
        add("cache.hits", store.cache.hits)
        add("cache.misses", store.cache.misses)
    if isinstance(system, ClusterRouter):
        nodes = [system.nodes[i].node for i in sorted(system.nodes)]
        for name, value in system.stats.items():
            add(f"router.{name}", value)
    else:
        nodes = [system]
    for node in nodes:
        add("node.puts", node.stats.puts)
        add("node.gets", node.stats.gets)
        add("node.retries", node.stats.retries)
        add("node.sheds", node.stats.shed_overload + node.stats.shed_deadline)
    return out


def occupied_bytes(system: Any) -> int:
    """Bytes below the write pointer of every non-free data extent."""
    total = 0
    for s in store_systems(system):
        for extent, owner in s.store.superblock.ownership().items():
            if owner != OWNER_FREE:
                total += s.disk.write_pointer(extent)
    return total
