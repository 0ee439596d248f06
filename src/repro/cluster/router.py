"""The cluster layer: N storage nodes behind a quorum-replication router.

This is the repository's one replication mechanism (a storage node keeps
each shard on exactly one disk): :class:`ClusterRouter` places each key
on a preference list of ``replication`` nodes via a consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`), writes to all of them, and
acknowledges at ``write_quorum`` -- surfacing a typed
:class:`~repro.errors.DegradedWriteError` when the quorum is unreachable
instead of blocking.  Reads gather ``read_quorum`` replies, return the
newest version, and (when enabled) *read-repair* stale replicas in place.
Writes that miss a down/partitioned/demoted replica queue a bounded
*hinted handoff* that replays when the node returns; overflowing the hint
buffer is expected under long outages and is exactly the divergence the
read-repair sweep must converge (the ``--no-read-repair`` negative
control proves this is load-bearing).  Keys that are never read again
cannot be healed by read-repair at all; enabling ``anti_entropy`` adds
the budgeted background Merkle sync of
:mod:`repro.cluster.antientropy`, whose placement-group root comparison
turns "replicas converged" into a provable settlement gate.

Replica records are version-framed (:mod:`repro.cluster.record`) so
replicas are order-insensitive: a replica only applies a record newer
than what it holds, quorum reads pick the maximum version, and a
tombstone is just a versioned record with the delete flag.  Version
assignment is the linearization point; :class:`ClusterConfig` states the
quorum-intersection constraints that make it one.

Consistency is *checked*, not assumed, on three independent planes:

* the ``cluster`` campaign suite replays conformance PBT through the
  router under node-granularity storms (:mod:`repro.campaign.cluster`);
* every node journals with a distinct identity and the router journals
  cluster-level ops (with replica ack sets); the merged journals replay
  offline under cross-node candidate-set semantics
  (:mod:`repro.evidence.cluster`);
* the deterministic scheduler + linearizability checker model-check the
  quorum/read-repair interleavings
  (:func:`repro.core.concurrent_harnesses.quorum_harness`).

Acknowledged-write durability: a replica ack implies the write was
drained to the medium, so a quorum-acknowledged write survives the
crash/dirty-restart of any minority of nodes -- the property the campaign
settlement gate and the satellite property test assert.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.concurrency.primitives import Mutex
from repro.errors import (
    DeadlineExceededError,
    DegradedReadError,
    DegradedWriteError,
    InvalidRequestError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    ShardStoreError,
)
from repro.shardstore.config import StoreConfig
from repro.shardstore.disk import DiskGeometry
from repro.shardstore.errors import validate_key
from repro.shardstore.injection import (
    FAULT_NODE_CRASH,
    FAULT_NODE_RESTART,
    FAULT_NODE_SLOW,
    FAULT_PARTITION,
    FAULT_PARTITION_HEAL,
    PlannedFault,
)
from repro.shardstore.observability.journal import (
    Journal,
    classify_error,
    digest_bytes,
    digest_keys,
)
from repro.shardstore.resilience import AdmissionConfig
from repro.shardstore.rpc import StorageNode

from .antientropy import AntiEntropyService
from .record import (
    FLAG_TOMBSTONE,
    FLAG_VALUE,
    Reply,
    decode_record,
    encode_record,
    record_version,
)
from .ring import HashRing

__all__ = ["ClusterConfig", "ClusterNode", "ClusterRouter"]

#: Read-only key the router probes demoted nodes with.
PROBE_KEY = b"__cluster_probe__"
#: Consecutive replica errors that demote a member out of placement.
DEMOTE_THRESHOLD = 4
#: Router ops between two probes of a demoted member.
PROBE_INTERVAL = 16


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and quorum knobs.

    The quorum constraints (validated in ``__post_init__``) are the whole
    consistency argument: ``write_quorum + read_quorum > replication``
    makes every read quorum intersect the last acknowledged write quorum,
    and ``2 * write_quorum > replication`` makes any two write quorums
    intersect (so versions observed by quorum reads are monotone).
    """

    num_nodes: int = 5
    disks_per_node: int = 2
    replication: int = 3
    write_quorum: int = 2
    read_quorum: int = 2
    read_repair: bool = True
    hint_limit: int = 8
    seed: int = 0
    admission: Optional[AdmissionConfig] = None
    geometry: Optional[DiskGeometry] = None
    #: Background Merkle anti-entropy (off by default: the ``cluster``
    #: campaign suite keeps read-repair as its sole healer so the
    #: ``--no-read-repair`` negative control stays load-bearing; the
    #: ``anti-entropy`` suite and the serving demo opt in explicitly).
    anti_entropy: bool = False
    #: Router ops between background sync rounds (0 = manual only).
    anti_entropy_interval: int = 8
    #: Max diverging leaf buckets one background round descends into.
    anti_entropy_buckets: int = 8
    #: Max keys one background round repairs.
    anti_entropy_repairs: int = 16

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise InvalidRequestError("cluster needs at least one node")
        if not 1 <= self.replication <= self.num_nodes:
            raise InvalidRequestError(
                "replication must be between 1 and num_nodes"
            )
        if not 1 <= self.write_quorum <= self.replication:
            raise InvalidRequestError(
                "write_quorum must be between 1 and replication"
            )
        if not 1 <= self.read_quorum <= self.replication:
            raise InvalidRequestError(
                "read_quorum must be between 1 and replication"
            )
        if self.write_quorum + self.read_quorum <= self.replication:
            raise InvalidRequestError(
                "write_quorum + read_quorum must exceed replication "
                "(read/write quorums must intersect)"
            )
        if 2 * self.write_quorum <= self.replication:
            raise InvalidRequestError(
                "2 * write_quorum must exceed replication "
                "(write quorums must intersect)"
            )
        if self.hint_limit < 0:
            raise InvalidRequestError("hint_limit must be non-negative")
        if self.anti_entropy_interval < 0:
            raise InvalidRequestError(
                "anti_entropy_interval must be non-negative"
            )
        if self.anti_entropy_buckets < 1 or self.anti_entropy_repairs < 1:
            raise InvalidRequestError(
                "anti-entropy per-round budgets must be positive"
            )


class ClusterNode:
    """One member: a :class:`StorageNode` plus its cluster-side state."""

    def __init__(
        self, node_id: int, node: StorageNode, journal: Optional[Journal]
    ) -> None:
        self.node_id = node_id
        self.node = node
        self.journal = journal
        self.up = True
        self.partitioned = False
        self.demoted = False
        self.removed = False
        self.failures = 0  # consecutive replica-side errors
        self.probe_at = 0  # op-clock time of the next readmission probe
        # Serializes each conditional apply on this replica (the mirror's
        # version lookup or its read-through, the write, the mirror
        # update); under the deterministic scheduler this is what makes
        # concurrent quorum writes version-monotone per replica.
        self.lock: Mutex = Mutex(None, name=f"cluster-node-{node_id}")

    @property
    def reachable(self) -> bool:
        return (
            self.up
            and not self.partitioned
            and not self.demoted
            and not self.removed
        )

    def status(self) -> str:
        if self.removed:
            return "removed"
        if not self.up:
            return "crashed"
        if self.partitioned:
            return "partitioned"
        if self.demoted:
            return "demoted"
        return "up"

    def read(self, key: bytes, deadline: Optional[int] = None) -> Optional[bytes]:
        """This replica's record for ``key``, or None when it answers
        absent.  Every read of a replica record goes through here; any
        other error propagates for the caller's own policy."""
        try:
            return self.node.get(key, deadline=deadline)
        except NotFoundError:
            return None


class ClusterRouter:
    """Quorum-replicating coordinator over N storage nodes.

    ``journal_factory(identity, meta)`` (optional) builds one evidence
    journal per member plus one for the router itself; each journal
    carries its ``identity`` in the chain genesis and every record body,
    so the merged multi-journal checker can attribute records without
    op-id collisions.  The router journal's genesis meta carries the
    quorum configuration the offline checker replays under.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        journal_factory: Optional[
            Callable[[str, Dict[str, Any]], Journal]
        ] = None,
        recorder: Any = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._journal_factory = journal_factory
        self._recorder = recorder
        self.journal: Optional[Journal] = None
        if journal_factory is not None:
            self.journal = journal_factory("router", self._genesis_meta())
        self.nodes: Dict[int, ClusterNode] = {}
        self.ring = HashRing()
        self._next_node_id = 0
        self._version = 0  # per-key record versions (globally monotone)
        self._cop = 0  # cluster op ids (the router journal's op space)
        self._op_count = 0  # router op clock (probe scheduling)
        self._rebalancing = False  # reentrancy guard (demote mid-rebalance)
        self._hints: Dict[int, "OrderedDict[bytes, bytes]"] = {}
        self.stats: Dict[str, int] = {
            name: 0
            for name in (
                "puts",
                "gets",
                "deletes",
                "contains",
                "degraded_writes",
                "quorum_write_failures",
                "quorum_read_failures",
                "read_repairs",
                "hints_queued",
                "hints_dropped",
                "hints_replayed",
                "hints_revoked",
                "replica_errors",
                "replica_sheds",
                "node_crashes",
                "node_restarts",
                "partitions",
                "partition_heals",
                "slow_storms",
                "node_demotions",
                "node_readmissions",
                "node_joins",
                "node_leaves",
                "rebalances",
                "rebalance_moves",
                "anti_entropy_rounds",
                "anti_entropy_root_matches",
                "anti_entropy_buckets",
                "anti_entropy_keys_repaired",
                "anti_entropy_skips",
            )
        }
        #: Per-node hinted-handoff attribution (satellite counters): a
        #: dropped or revoked hint is a write some replica will never
        #: see by handoff -- exactly the divergence anti-entropy must
        #: catch -- so it is surfaced per node, not just in aggregate.
        self.hint_stats: Dict[int, Dict[str, int]] = {}
        self.antientropy = AntiEntropyService(self)
        for _ in range(self.config.num_nodes):
            self._build_node()

    # ------------------------------------------------------------------
    # membership

    def _genesis_meta(self) -> Dict[str, Any]:
        cfg = self.config
        return {
            "role": "router",
            "nodes": cfg.num_nodes,
            "replication": cfg.replication,
            "write_quorum": cfg.write_quorum,
            "read_quorum": cfg.read_quorum,
            "read_repair": cfg.read_repair,
            "durable_writes": True,
        }

    def _build_node(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        identity = f"node{node_id}"
        journal = (
            self._journal_factory(identity, {"role": "member"})
            if self._journal_factory is not None
            else None
        )
        kwargs: Dict[str, Any] = {
            "geometry": self.config.geometry or DiskGeometry(),
            "seed": self.config.seed + 101 * (node_id + 1),
            "journal": journal,
        }
        if self._recorder is not None:
            kwargs["recorder"] = self._recorder
        cfg = StoreConfig(**kwargs)
        node = StorageNode(
            num_disks=self.config.disks_per_node,
            config=cfg,
            admission=self.config.admission,
        )
        self.nodes[node_id] = ClusterNode(node_id, node, journal)
        self.ring.add_node(node_id)
        self._hints[node_id] = OrderedDict()
        self.hint_stats[node_id] = {
            "queued": 0, "dropped": 0, "replayed": 0, "revoked": 0
        }
        self.antientropy.register_node(node_id)
        return node_id

    def add_node(self) -> int:
        """Join a fresh node and rebalance placement onto it."""
        node_id = self._build_node()
        self.stats["node_joins"] += 1
        self._record("join", target=node_id)
        self.rebalance()
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Remove a member and rebalance its placement away."""
        cn = self._member(node_id)
        cn.removed = True
        self.ring.remove_node(node_id)
        self._count_hints(node_id, "dropped", len(self._hints.get(node_id, ())))
        self._hints[node_id] = OrderedDict()
        self.antientropy.drop_node(node_id)
        self.stats["node_leaves"] += 1
        self._record("leave", target=node_id)
        self.rebalance()

    def _member(self, node_id: int) -> ClusterNode:
        if node_id not in self.nodes:
            raise InvalidRequestError(f"unknown node {node_id}")
        return self.nodes[node_id]

    @property
    def members(self) -> List[int]:
        return [nid for nid, cn in sorted(self.nodes.items()) if not cn.removed]

    def _placement(self, key: bytes) -> List[int]:
        return self.ring.preference_list(key, self.config.replication)

    # ------------------------------------------------------------------
    # journal plumbing

    def _record(self, kind: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.record_op(kind, **fields)

    def _begin(self, kind: str, **kwargs: Any) -> Optional[Dict[str, Any]]:
        if self.journal is None:
            return None
        return self.journal.begin_op(kind, **kwargs)

    def _end(
        self, handle: Optional[Dict[str, Any]], out: str, **fields: Any
    ) -> None:
        if self.journal is not None:
            self.journal.end_op(handle, out, **fields)

    # ------------------------------------------------------------------
    # clocks and probes

    def _tick(self) -> None:
        self._op_count += 1
        self._probe_demoted()
        self.antientropy.maybe_run()

    def _next_cop(self) -> int:
        self._cop += 1
        return self._cop

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _probe_demoted(self) -> None:
        for cn in self.nodes.values():
            if not cn.demoted or cn.removed or not cn.up or cn.partitioned:
                continue
            if self._op_count < cn.probe_at:
                continue
            try:
                cn.node.contains(PROBE_KEY)
            except ShardStoreError:
                cn.probe_at = self._op_count + PROBE_INTERVAL
                continue
            self._readmit(cn)

    def _readmit(self, cn: ClusterNode) -> None:
        cn.demoted = False
        cn.failures = 0
        self.stats["node_readmissions"] += 1
        self._record("readmit", target=cn.node_id)
        self._replay_hints(cn.node_id)
        self.rebalance()

    def _note_failure(self, cn: ClusterNode) -> None:
        self.stats["replica_errors"] += 1
        cn.failures += 1
        if not cn.demoted and cn.failures >= DEMOTE_THRESHOLD:
            cn.demoted = True
            cn.probe_at = self._op_count + PROBE_INTERVAL
            self.stats["node_demotions"] += 1
            self._record("demote", target=cn.node_id)
            self.rebalance()

    # ------------------------------------------------------------------
    # hinted handoff

    def _count_hints(self, node_id: int, event: str, n: int = 1) -> None:
        """Count ``n`` hints of ``node_id`` as queued / dropped / replayed /
        revoked, in the aggregate and per node."""
        self.stats[f"hints_{event}"] += n
        self.hint_stats[node_id][event] += n

    def _queue_hint(self, node_id: int, key: bytes, record: bytes) -> None:
        if self.config.hint_limit == 0:
            self._count_hints(node_id, "dropped")
            return
        hints = self._hints[node_id]
        if key in hints:
            del hints[key]
        elif len(hints) >= self.config.hint_limit:
            hints.popitem(last=False)
            self._count_hints(node_id, "dropped")
        hints[key] = record
        self._count_hints(node_id, "queued")

    def _revoke_hints(self, node_ids: List[int], key: bytes) -> None:
        """Drop hints queued by a write that failed its quorum.

        Hinted handoff guarantees *acknowledged* writes reach every
        replica; replaying an unacknowledged write later would resurrect
        an operation its client was told failed.
        """
        for node_id in node_ids:
            hints = self._hints.get(node_id)
            if hints is not None and key in hints:
                del hints[key]
                self._count_hints(node_id, "revoked")

    def _replay_hints(self, node_id: int) -> None:
        cn = self.nodes[node_id]
        if not cn.reachable:
            return
        hints = self._hints[node_id]
        if not hints:
            return
        self._hints[node_id] = OrderedDict()
        replayed = 0
        for key, record in hints.items():
            try:
                self._replica_apply(cn, 0, key, record)
                replayed += 1
            except ShardStoreError:
                self._note_failure(cn)
        self._count_hints(node_id, "replayed", replayed)
        # A replay that raised is a dropped hint: it is not re-queued.
        self._count_hints(node_id, "dropped", len(hints) - replayed)
        self._record("hint_replay", target=node_id, count=replayed)

    def hints_pending(self, node_id: int) -> int:
        return len(self._hints.get(node_id, ()))

    # ------------------------------------------------------------------
    # replica IO

    def _replica_apply(
        self,
        cn: ClusterNode,
        cop: int,
        key: bytes,
        record: bytes,
        deadline: Optional[int] = None,
    ) -> None:
        """Conditionally apply ``record`` on one replica (newer wins).

        The replica's current version comes from the anti-entropy mirror,
        so an apply costs one write; only a version the mirror does not
        know is read through the node, which also re-derives the mirror
        entry.  The version check and the write are serialized per
        replica, which keeps replica versions monotone under concurrent
        quorum writes -- the property the model-check harness exercises.
        The ack implies a drain, so acknowledged data survives a dirty
        restart.
        """
        version = record_version(record)
        mirror = self.antientropy
        cn.lock.acquire()
        try:
            current = mirror.version(cn.node_id, key)
            if current is None:
                current = mirror.note_read(cn.node_id, key, cn.read(key, deadline))
            if current >= version:
                return
            if cn.journal is not None and cop:
                cn.journal.annotate(cop=cop)
            try:
                cn.node.put(key, record, deadline=deadline)
            except ShardStoreError:
                # The write may have applied before it raised.
                mirror.note_unknown(cn.node_id, key)
                raise
            # Mirror the apply before the drain: the record is on the node
            # either way, and a dirty restart rebuilds the mirror.
            mirror.note_apply(cn.node_id, key, record)
            cn.node.drain()
        finally:
            cn.lock.release()

    def _quorum_read(
        self, placement: List[int], key: bytes, deadline: Optional[int] = None
    ) -> List[Reply]:
        """Read ``key`` from every reachable replica of ``placement``."""
        replies: List[Reply] = []
        for node_id in placement:
            cn = self.nodes[node_id]
            if not cn.reachable:
                continue
            try:
                raw = cn.read(key, deadline)
            except (OverloadedError, DeadlineExceededError):
                self.stats["replica_sheds"] += 1
            except ShardStoreError:
                self._note_failure(cn)
            else:
                replies.append(Reply.of(node_id, raw))
                cn.failures = 0
        return replies

    def _read_verdict(
        self, handle: Optional[Dict[str, Any]], replies: List[Reply], named: bool
    ) -> Reply:
        """The read-quorum rule: the newest of ``replies``, or -- below
        ``read_quorum`` -- a journaled :class:`DegradedReadError` (whose
        record names the repliers when ``named``)."""
        want = self.config.read_quorum
        if len(replies) >= want:
            return max(replies, key=lambda r: r.version)
        self.stats["quorum_read_failures"] += 1
        exc = DegradedReadError(
            f"read reached {len(replies)}/{want} replicas",
            replies=len(replies),
            required=want,
            candidates=[(r.node, r.version) for r in replies],
        )
        repliers = [r.node for r in replies] if named else None
        self._end(handle, classify_error(exc), replies=repliers)
        raise exc

    def _read_repair(
        self, cop: int, key: bytes, replies: List[Reply], newest: Reply
    ) -> None:
        if not self.config.read_repair or newest.raw is None:
            return
        for reply in replies:
            if reply.version >= newest.version:
                continue
            cn = self.nodes[reply.node]
            try:
                self._replica_apply(cn, cop, key, newest.raw)
            except ShardStoreError:
                self._note_failure(cn)
                continue
            self.stats["read_repairs"] += 1
            self._record("read_repair", key=key, target=reply.node, ver=newest.version)

    def _quorum_write(
        self,
        handle: Optional[Dict[str, Any]],
        what: str,
        placement: List[int],
        cop: int,
        key: bytes,
        record: bytes,
        deadline: Optional[int],
        ver: Optional[int] = None,
    ) -> int:
        """Write ``record`` to ``placement``, the key's preference list (the
        ring only changes between client ops, so the caller looks it up once
        per op), hinting every replica that does not ack.  Then the
        write-quorum rule: journal the outcome and return the ack count, or
        -- below ``write_quorum`` -- revoke the write's hints and raise a
        journaled :class:`DegradedWriteError`."""
        acks: List[int] = []
        hinted: List[int] = []
        for node_id in placement:
            cn = self.nodes[node_id]
            if cn.reachable:
                try:
                    self._replica_apply(cn, cop, key, record, deadline)
                except (OverloadedError, DeadlineExceededError):
                    self.stats["replica_sheds"] += 1
                except ShardStoreError:
                    self._note_failure(cn)
                else:
                    cn.failures = 0
                    acks.append(node_id)
                    continue
            self._queue_hint(node_id, key, record)
            hinted.append(node_id)
        want = self.config.write_quorum
        if len(acks) >= want:
            self._end(handle, "ok", acks=acks, want=want, ver=ver)
            return len(acks)
        self._revoke_hints(hinted, key)
        self.stats["quorum_write_failures"] += 1
        exc = DegradedWriteError(
            f"{what} reached {len(acks)}/{want} replicas",
            acks=len(acks),
            required=want,
        )
        self._end(handle, classify_error(exc), acks=acks, want=want, ver=ver)
        raise exc

    # ------------------------------------------------------------------
    # client API (the KVNode surface, replicated)

    def _admit(
        self, stat: str, key: bytes, deadline: Optional[int], value: Any = b""
    ) -> int:
        """The client-op preamble: validate the request (a rejected one
        touches nothing), tick the op clock, count the op under ``stat``,
        and return its op id."""
        validate_key(key)
        if not isinstance(value, bytes):
            raise InvalidRequestError(
                f"value must be bytes, got {type(value).__name__}"
            )
        if deadline is not None and deadline <= 0:
            # No replica could meet it: rejected, as a node does.
            raise InvalidRequestError("deadline must be positive")
        self._tick()
        self.stats[stat] += 1
        return self._next_cop()

    def put(
        self, key: bytes, value: bytes, *, deadline: Optional[int] = None
    ) -> None:
        cop = self._admit("puts", key, deadline, value)
        version = self._next_version()
        record = encode_record(version, FLAG_VALUE, value)
        handle = self._begin(
            "put", key=key, value=record, fields={"cop": cop, "ver": version}
        )
        placement = self._placement(key)
        acks = self._quorum_write(
            handle, "write", placement, cop, key, record, deadline
        )
        if acks < len(placement):
            self.stats["degraded_writes"] += 1

    def get(self, key: bytes, *, deadline: Optional[int] = None) -> bytes:
        cop = self._admit("gets", key, deadline)
        handle = self._begin("get", key=key, fields={"cop": cop})
        replies = self._quorum_read(self._placement(key), key, deadline)
        newest = self._read_verdict(handle, replies, named=True)
        self._read_repair(cop, key, replies, newest)
        repliers = [r.node for r in replies]
        if not newest.present:
            exc = KeyNotFoundError(f"key not found: {key!r}")
            self._end(handle, classify_error(exc), replies=repliers)
            raise exc
        self._end(
            handle,
            "ok",
            value=digest_bytes(newest.raw or b""),
            ver=newest.version,
            replies=repliers,
        )
        return newest.payload

    def delete(self, key: bytes, *, deadline: Optional[int] = None) -> None:
        cop = self._admit("deletes", key, deadline)
        handle = self._begin("delete", key=key, fields={"cop": cop})
        placement = self._placement(key)
        replies = self._quorum_read(placement, key, deadline)
        if not self._read_verdict(handle, replies, named=False).present:
            exc = KeyNotFoundError(f"key not found: {key!r}")
            self._end(handle, classify_error(exc))
            raise exc
        version = self._next_version()
        record = encode_record(version, FLAG_TOMBSTONE, b"")
        self._quorum_write(
            handle, "delete", placement, cop, key, record, deadline, version
        )

    def contains(self, key: bytes) -> bool:
        cop = self._admit("contains", key, None)
        handle = self._begin("contains", key=key, fields={"cop": cop})
        replies = self._quorum_read(self._placement(key), key)
        newest = self._read_verdict(handle, replies, named=False)
        self._read_repair(cop, key, replies, newest)
        self._end(handle, "ok", exists=newest.present)
        return newest.present

    def keys(self) -> List[bytes]:
        """Every key visible through a quorum read, sorted."""
        self._tick()
        candidates: set = set()
        for cn in self.nodes.values():
            if not cn.reachable:
                continue
            try:
                candidates.update(cn.node.keys())
            except ShardStoreError:
                self._note_failure(cn)
        out: List[bytes] = []
        for key in sorted(candidates):
            if key == PROBE_KEY:
                continue
            replies = self._quorum_read(self._placement(key), key)
            if len(replies) < self.config.read_quorum:
                continue
            if max(replies, key=lambda r: r.version).present:
                out.append(key)
        self._record("keys", count=len(out), keyset=digest_keys(out))
        return out

    # ------------------------------------------------------------------
    # node-granularity fault plane

    def apply_fault(self, fault: PlannedFault) -> None:
        """Apply one node-level planned fault (``disk`` is the node id)."""
        if fault.kind == FAULT_NODE_CRASH:
            self.crash_node(fault.disk)
        elif fault.kind == FAULT_NODE_RESTART:
            self.restart_node(fault.disk)
        elif fault.kind == FAULT_PARTITION:
            self.partition_node(fault.disk)
        elif fault.kind == FAULT_PARTITION_HEAL:
            self.heal_partition(fault.disk)
        elif fault.kind == FAULT_NODE_SLOW:
            self.slow_node(fault.disk, fault.arg)
        else:
            raise InvalidRequestError(
                f"not a cluster fault kind: {fault.kind!r}"
            )

    def crash_node(self, node_id: int) -> None:
        cn = self._member(node_id)
        if not cn.up:
            return
        cn.up = False
        self.stats["node_crashes"] += 1
        self._record("crash", target=node_id)

    def restart_node(self, node_id: int) -> None:
        """Dirty-restart a crashed node: un-drained writes are lost."""
        cn = self._member(node_id)
        if cn.up:
            return
        for system in cn.node.systems:
            try:
                system.dirty_reboot()
            except ShardStoreError:
                pass
        cn.up = True
        cn.failures = 0
        self.stats["node_restarts"] += 1
        self._record("restart", target=node_id)
        # A dirty restart may have lost un-drained writes; re-derive the
        # replica's mirror (Merkle leaves and versions) from what recovery
        # actually produced (hint replay below re-applies through the
        # tracked path).
        self.antientropy.rebuild(node_id)
        self._replay_hints(node_id)

    def partition_node(self, node_id: int) -> None:
        cn = self._member(node_id)
        if cn.partitioned:
            return
        cn.partitioned = True
        self.stats["partitions"] += 1
        self._record("partition", target=node_id)

    def heal_partition(self, node_id: int) -> None:
        cn = self._member(node_id)
        if not cn.partitioned:
            return
        cn.partitioned = False
        cn.failures = 0
        self.stats["partition_heals"] += 1
        self._record("partition_heal", target=node_id)
        self._replay_hints(node_id)

    def slow_node(self, node_id: int, held_arrivals: int) -> None:
        """A gray node: hold arrivals so its admission queue sheds."""
        cn = self._member(node_id)
        self.stats["slow_storms"] += 1
        self._record("slow", target=node_id, arg=held_arrivals)
        if self.config.admission is not None:
            cn.node.hold_arrivals(held_arrivals)

    def settle(self) -> None:
        """Return the cluster to full health: heal partitions, restart
        crashed nodes, readmit demoted ones, replay every pending hint.

        Journals a ``settle`` record -- the anchor for the mined
        ``roots-converge-after-settle`` invariant (the next
        ``merkle_roots`` record after a settle must report convergence).
        """
        for node_id, cn in sorted(self.nodes.items()):
            if cn.removed:
                continue
            if cn.partitioned:
                self.heal_partition(node_id)
            if not cn.up:
                self.restart_node(node_id)
            if cn.demoted:
                self._readmit(cn)
            self._replay_hints(node_id)
        self._record("settle")

    # ------------------------------------------------------------------
    # rebalancing

    def rebalance(self) -> int:
        """Converge placement: copy each key's newest record onto every
        reachable preference replica and drop stray copies elsewhere.

        Runs after membership changes (join/leave) and breaker demotions /
        readmissions.  Returns the number of records moved or dropped.
        """
        if self._rebalancing:
            return 0
        self._rebalancing = True
        try:
            return self._rebalance()
        finally:
            self._rebalancing = False

    def _rebalance(self) -> int:
        reachable = {
            nid: cn for nid, cn in self.nodes.items() if cn.reachable
        }
        keys: set = set()
        for cn in reachable.values():
            try:
                keys.update(cn.node.keys())
            except ShardStoreError:
                continue
        keys.discard(PROBE_KEY)
        moves = 0
        for key in sorted(keys):
            best: Optional[bytes] = None
            holders: Dict[int, int] = {}
            for nid, cn in reachable.items():
                try:
                    raw = cn.read(key)
                except ShardStoreError:
                    continue
                if raw is not None:
                    holders[nid] = record_version(raw)
                    if holders[nid] > record_version(best):
                        best = raw
            if best is None:
                continue
            best_version = record_version(best)
            prefs = self._placement(key)
            for nid in prefs:
                cn = reachable.get(nid)
                if cn is None:
                    continue
                if holders.get(nid, -1) < best_version:
                    try:
                        self._replica_apply(cn, 0, key, best)
                        moves += 1
                    except ShardStoreError:
                        self._note_failure(cn)
            for nid in holders:
                if nid in prefs:
                    continue
                try:
                    reachable[nid].node.delete(key)
                except ShardStoreError:
                    self.antientropy.note_unknown(nid, key)
                    continue
                self.antientropy.note_remove(nid, key)
                moves += 1
        self.stats["rebalances"] += 1
        self.stats["rebalance_moves"] += moves
        self._record("rebalance", moves=moves)
        return moves

    # ------------------------------------------------------------------
    # replica inspection (used by the settlement convergence gate)

    def replica_states(self, key: bytes) -> Dict[int, Any]:
        """Per preference replica: its decoded record, None when it answers
        absent, or ``"unreadable (<error>)"`` when its read raises.

        Bypasses quorum logic -- this is the campaign's convergence
        oracle, not a client API.
        """
        out: Dict[int, Any] = {}
        for node_id in self._placement(key):
            try:
                raw = self.nodes[node_id].read(key)
            except ShardStoreError as exc:
                out[node_id] = f"unreadable ({type(exc).__name__}: {exc})"
                continue
            out[node_id] = None if raw is None else decode_record(raw)
        return out

    # ------------------------------------------------------------------
    # health

    def quorum_health(self) -> Dict[str, Any]:
        cfg = self.config
        reachable = sum(1 for cn in self.nodes.values() if cn.reachable)
        active = len(self.members)
        return {
            "nodes": active,
            "reachable": reachable,
            "replication": cfg.replication,
            "write_quorum": cfg.write_quorum,
            "read_quorum": cfg.read_quorum,
            "quorum_ok": reachable >= max(cfg.write_quorum, cfg.read_quorum),
            "below_replication": reachable < cfg.replication,
            "degraded": any(
                not cn.reachable and not cn.removed
                for cn in self.nodes.values()
            ),
        }

    def health_snapshot(self) -> Dict[str, Any]:
        nodes: Dict[str, Any] = {}
        for node_id, cn in sorted(self.nodes.items()):
            if cn.removed:
                continue
            nodes[str(node_id)] = {
                "status": cn.status(),
                "reachable": cn.reachable,
                "hints_pending": self.hints_pending(node_id),
                "hints_dropped": self.hint_stats[node_id]["dropped"],
                "hints_revoked": self.hint_stats[node_id]["revoked"],
                "failures": cn.failures,
            }
        return {
            "cluster": self.quorum_health(),
            "nodes": nodes,
            "counters": dict(self.stats),
            "anti_entropy": {
                "enabled": self.antientropy.enabled,
                "rounds": self.stats["anti_entropy_rounds"],
                "keys_repaired": self.stats["anti_entropy_keys_repaired"],
            },
        }

    def close(self) -> Dict[str, str]:
        """Seal every journal; returns identity -> chain head."""
        heads: Dict[str, str] = {}
        if self.journal is not None:
            heads["router"] = self.journal.close()
        for node_id, cn in sorted(self.nodes.items()):
            if cn.journal is not None:
                heads[f"node{node_id}"] = cn.journal.close()
        return heads
