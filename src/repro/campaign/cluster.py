"""Cluster-plane campaign shards: storms against the quorum router.

Both cluster-plane suites drive the same system: ``sequences`` independent
op streams against a fresh :class:`~repro.cluster.router.ClusterRouter`
while a node-granular fault storm
(:meth:`~repro.shardstore.injection.FaultPlan.generate_cluster`) crashes,
partitions and slows a strict minority of nodes mid-stream.  The harness
translates each outcome into a :class:`~repro.models.cluster.ReferenceCluster`
event (a :class:`~repro.errors.DegradedWriteError` carries its ack count).
It reports no crashes to the model: the planner never takes down more than
a minority, which an acknowledged write survives.  Hint buffers are
deliberately small, so multi-window storms overflow handoff, and
quorum-failed writes *revoke* their hints, so no background path heals
their partial acks.  Each suite then proves one healer load-bearing:

``cluster`` (read/write stream, :func:`settle_quorum`)
    1. **durability** -- after healing every node, no quorum-acknowledged
       write may be lost or corrupted (the planner never takes down more
       than a minority, so W durable replicas always survive);
    2. **convergence** -- after one read sweep, every touched key's
       preference replicas hold byte-identical records.  Only read-repair
       converges dropped- and revoked-hint divergence, which is what the
       ``--no-read-repair`` control proves by failing this gate;
    3. **availability** -- a fresh probe write/read/delete must succeed.

``anti-entropy`` (write-only stream, :func:`settle_merkle`)
    The stream never issues a client read and the router is built with
    ``read_repair=False``, so read-repair never arms -- by construction,
    not by luck.  After settlement heals every node and replays surviving
    hints, the divergence is still there, and the gate is
    ``roots_converged``: per placement group, every live member's Merkle
    root must be equal.  With anti-entropy on the harness drives budgeted
    sync rounds until the roots converge, then cross-validates the Merkle
    verdict against raw replica bytes and the model; with
    ``--no-anti-entropy`` nothing is left to converge them and the gate
    FAILS.  The router's ``settle``/``merkle_roots`` records feed the
    mined ``roots-converge-after-settle`` invariant.

Every sequence journals through one router journal plus one journal per
node (distinct chain identities); the shard replays them through the
merged-journal checker (:func:`repro.evidence.check_cluster_journals`)
and ships chain-head digests in its artifact block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import FLAG_VALUE, ClusterConfig, ClusterRouter
from repro.errors import (
    DegradedReadError,
    DegradedWriteError,
    KeyNotFoundError,
)
from repro.models.cluster import ReferenceCluster
from repro.shardstore.injection import CLUSTER_PROFILES, FaultPlan
from repro.shardstore.observability.journal import Journal

from .spec import (
    KIND_ANTIENTROPY,
    KIND_CLUSTER,
    SUITE_REGISTRY,
    ShardResult,
    ShardSpec,
)
from .storm import SequenceOutcome, run_storm_shard

__all__ = ["ClusterHarness", "settle_quorum", "settle_merkle", "run_storm", "run_shard"]

DEFAULT_NODES = 5
DEFAULT_OPS = 80
KEYSPACE = 16
#: Cumulative put / get / delete thresholds of the op roll (the rest is
#: ``contains``).
MIX = (0.50, 0.78, 0.90)
WRITE_ONLY_MIX = (0.78, 0.78, 1.0)
#: Merkle settlement budget: rounds are per-pair and bucket-budgeted, so
#: the ceiling is generous; the gate trusts the convergence check, never
#: the round count.
MAX_SETTLE_ROUNDS = 400


class ClusterHarness:
    """One op-stream + storm run against one fresh router.

    ``write_only`` streams issue puts and deletes only and make no
    observations (a delete's internal quorum read included), so nothing
    can be checked -- or healed by a read -- before settlement.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: int,
        config: ClusterConfig,
        *,
        write_only: bool,
        salt: int,
        prefix: bytes,
        journal_factory: Optional[Any] = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.write_only = write_only
        self.prefix = prefix
        self.router = ClusterRouter(config, journal_factory=journal_factory)
        self.rng = random.Random(seed ^ salt)
        self.model = ReferenceCluster(config.num_nodes)
        self.touched: set = set()
        self.fired = 0
        #: Counters a settlement gate adds to the shard's artifact block.
        self.settled: Dict[str, int] = {}

    def _observe(self, key: bytes, value: Optional[bytes]) -> Optional[str]:
        """A quorum read of ``key`` saw ``value`` (None = absent)."""
        verdict = self.model.observe(key, value)
        if verdict.permitted:
            return None
        return f"get({key!r}) saw {value!r}{_outside(verdict.allowed)}"

    # ------------------------------------------------------------------
    # op handlers (each returns a violation string or None)

    def _op_put(self, key: bytes, value: bytes) -> Optional[str]:
        try:
            self.router.put(key, value)
        except DegradedWriteError as exc:
            self.model.attempt(key, value, exc.acks)
            return None
        self.model.apply(key, value)
        return None

    def _op_get(self, key: bytes) -> Optional[str]:
        try:
            got: Optional[bytes] = self.router.get(key)
        except KeyNotFoundError:
            got = None
        except DegradedReadError:
            return None  # typed unavailability: no observation made
        return self._observe(key, got)

    def _op_delete(self, key: bytes) -> Optional[str]:
        try:
            self.router.delete(key)
        except KeyNotFoundError:
            return None if self.write_only else self._observe(key, None)
        except DegradedReadError:
            return None
        except DegradedWriteError as exc:
            self.model.attempt(key, None, exc.acks)
            return None
        self.model.apply(key, None)
        return None

    def _op_contains(self, key: bytes) -> Optional[str]:
        try:
            exists = self.router.contains(key)
        except DegradedReadError:
            return None
        verdict = self.model.observe_presence(key, exists)
        if verdict.permitted:
            return None
        if len(verdict.allowed) == 1:
            return (
                f"contains({key!r}) said {exists} but the model is "
                f"certain of {not exists}"
            )
        said, every = ("present", "absent") if exists else ("absent", "present")
        return f"contains({key!r}) said {said}; every candidate is {every}"

    # ------------------------------------------------------------------

    def run(self, ops: int) -> Optional[str]:
        """Drive ``ops`` random operations, firing planned faults between
        them; returns the first consistency violation, if any."""
        faults_by_op: Dict[int, List[Any]] = {}
        for fault in self.plan.faults:
            faults_by_op.setdefault(fault.op_index, []).append(fault)
        for index in range(ops):
            for fault in faults_by_op.get(index, []):
                self.router.apply_fault(fault)
                self.fired += 1
            key = b"%sk-%02d" % (self.prefix, self.rng.randrange(KEYSPACE))
            self.touched.add(key)
            value = b"%sv-%d-%d" % (self.prefix, self.seed, index)
            roll = self.rng.random()
            put_below, get_below, delete_below = (
                WRITE_ONLY_MIX if self.write_only else MIX
            )
            if roll < put_below:
                failure = self._op_put(key, value)
            elif roll < get_below:
                failure = self._op_get(key)
            elif roll < delete_below:
                failure = self._op_delete(key)
            else:
                failure = self._op_contains(key)
            if failure is not None:
                return f"op {index}: {failure}"
        return None


def _outside(allowed: Any) -> str:
    """How a value the model does not permit misses ``allowed``."""
    if len(allowed) == 1:
        return f" but the model is certain of {allowed[0]!r}"
    return f", outside its {len(allowed)} candidate values"


def _state(rec: Any) -> str:
    """One ``replica_states`` entry as a divergence detail names it."""
    if rec is None:
        return "absent"
    return rec if isinstance(rec, str) else "v%d" % rec[0]


def _divergence(states: Dict[int, Any]) -> Optional[str]:
    """Per-replica states when the raw replica records of one key
    disagree byte-for-byte or some replica is unreadable, else None."""
    unreadable = any(isinstance(rec, str) for rec in states.values())
    if len(set(states.values())) <= 1 and not unreadable:
        return None
    return ", ".join(f"node{nid}={_state(rec)}" for nid, rec in sorted(states.items()))


def settle_quorum(harness: ClusterHarness) -> Optional[str]:
    """Heal the cluster, then check durability, convergence and
    availability (see the module docstring)."""
    router = harness.router
    router.settle()
    # 1 + read sweep: every touched key re-read through the quorum path
    # (which is also what arms read-repair for gate 2).
    for key in sorted(harness.touched):
        failure = harness._op_get(key)
        if failure is not None:
            return f"settlement: {failure} (quorum-acked write lost?)"
    for key, value in sorted(harness.model.kv.mapping().items()):
        try:
            got = router.get(key)
        except KeyNotFoundError:
            return (
                f"settlement: quorum-acknowledged write {key!r} lost "
                "after healing a minority outage"
            )
        if got != value:
            return (
                f"settlement: quorum-acknowledged write {key!r} holds "
                "wrong data after healing"
            )
    # 2: replica convergence -- the read-repair gate.
    for key in sorted(harness.touched):
        detail = _divergence(router.replica_states(key))
        if detail is not None:
            return (
                f"settlement: replicas of {key!r} never converged "
                f"({detail}); read-repair is the only path that heals "
                "revoked-hint and dropped-hint divergence"
            )
    # 3: availability probe.
    probe = harness.prefix + b"k-probe"
    try:
        router.put(probe, b"alive")
        if router.get(probe) != b"alive":
            return "settlement: probe read returned wrong data"
        router.delete(probe)
    except (DegradedWriteError, DegradedReadError) as exc:
        return (
            "settlement: fresh writes unavailable after healing "
            f"({type(exc).__name__}: {exc})"
        )
    return None


def settle_merkle(harness: ClusterHarness) -> Optional[str]:
    """Heal the cluster, sync (when enabled), then gate on converged
    Merkle roots and cross-validate against raw replica bytes."""
    router = harness.router
    service = router.antientropy
    router.settle()
    harness.settled["pre_settle_divergent"] = int(
        service.converged_snapshot()["divergent"]
    )
    if service.enabled:
        outcome = service.run_until_converged(MAX_SETTLE_ROUNDS)
        harness.settled["settle_rounds"] = int(outcome["rounds"])
    snapshot = service.converged_snapshot()
    service.journal_roots()
    if not snapshot["converged"]:
        return (
            "settlement: Merkle roots divergent in "
            f"{snapshot['divergent']} of {snapshot['groups']} "
            "placement groups; this suite performs zero reads, so "
            "anti-entropy is the only path that converges replicas"
        )
    # The Merkle verdict is a proof over the *trees*; cross-validate it
    # against raw replica bytes and the write model.
    for key in sorted(harness.touched):
        states = router.replica_states(key)
        detail = _divergence(states)
        if detail is not None:
            return (
                f"settlement: roots converged but replicas of {key!r} "
                f"disagree ({detail}); the tree no longer mirrors the "
                "replica contents"
            )
        rec = next(iter(states.values()), None)
        observed = (
            rec[2] if rec is not None and rec[1] == FLAG_VALUE else None
        )
        allowed = harness.model.candidates(key)
        if not allowed.permits(observed):
            return (
                f"settlement: replicas of {key!r} hold {observed!r}"
                + _outside(allowed)
                + (" (quorum-acked write lost?)" if len(allowed) == 1 else "")
            )
    return None


@dataclass(frozen=True)
class _Variant:
    """What tells the two cluster-plane suites apart."""

    write_only: bool
    salt: int
    prefix: bytes
    #: Fixed ``ClusterConfig`` overrides; the suite's control adds its own.
    config: Dict[str, Any]
    settle: Callable[[ClusterHarness], Optional[str]]


_VARIANTS = {
    # Hint buffers small enough that storms overflow handoff and make
    # read-repair observable (and its absence fatal) at smoke scale.
    KIND_CLUSTER: _Variant(
        write_only=False,
        salt=0x5EED,
        prefix=b"c",
        config={"hint_limit": 4},
        settle=settle_quorum,
    ),
    # An even smaller hint buffer (divergence is the *point* here), a sync
    # cadence that demonstrably runs background rounds mid-storm, and
    # read-repair off: even the quorum read inside delete() must not heal
    # replicas, or the negative control would depend on op-mix luck.
    KIND_ANTIENTROPY: _Variant(
        write_only=True,
        salt=0xAE5EED,
        prefix=b"a",
        config={
            "read_repair": False,
            "hint_limit": 2,
            "anti_entropy_interval": 16,
        },
        settle=settle_merkle,
    ),
}

_EVIDENCE_KEYS = ("sequences", "journals", "records", "checked", "corroborated")


def run_storm(
    kind: str,
    seed: int,
    profile: str,
    ops: int = DEFAULT_OPS,
    num_nodes: int = DEFAULT_NODES,
    **config: Any,
) -> Tuple[ClusterHarness, List[Journal], Optional[str]]:
    """One settled storm sequence of suite ``kind``: the harness, the
    journals it wrote (still open) and the first violation."""
    variant = _VARIANTS[kind]
    plan = FaultPlan.generate_cluster(
        seed, ops=ops, num_nodes=num_nodes, profile=profile
    )
    journals: List[Journal] = []

    def factory(identity: str, meta: Dict[str, Any]) -> Journal:
        journal = Journal(meta=dict(meta, seed=seed), node=identity)
        journals.append(journal)
        return journal

    harness = ClusterHarness(
        plan,
        seed,
        ClusterConfig(num_nodes=num_nodes, seed=seed, **{**variant.config, **config}),
        write_only=variant.write_only,
        salt=variant.salt,
        prefix=variant.prefix,
        journal_factory=factory,
    )
    detail = harness.run(ops)
    if detail is None:
        detail = variant.settle(harness)
    return harness, journals, detail


def run_shard(spec: ShardSpec) -> ShardResult:
    """Picklable campaign entry point: one cluster-plane work unit.

    Params: ``profile`` (a :data:`~repro.shardstore.injection.
    CLUSTER_PROFILES` name), ``sequences``, ``ops``, ``nodes``, and the
    suite's control (``read_repair`` / ``anti_entropy``).  Sequence ``i``
    derives everything from ``spec.seed + i``, so shards replay
    byte-identically for any worker count.
    """
    from repro.evidence import check_cluster_journals

    suite = SUITE_REGISTRY[spec.kind]
    assert suite.control is not None and suite.section is not None
    profile = spec.param("profile", suite.plan[0]["profile"])
    if profile not in CLUSTER_PROFILES:
        raise ValueError(f"unknown cluster storm profile {profile!r}")
    ops = spec.param("ops", DEFAULT_OPS)
    num_nodes = spec.param("nodes", DEFAULT_NODES)
    control = suite.control.param
    enabled = bool(spec.param(control, True))
    hints_by_node: Dict[str, Dict[str, int]] = {}

    def run_sequence(seed: int) -> SequenceOutcome:
        harness, journals, detail = run_storm(
            spec.kind, seed, profile, ops, num_nodes, **{control: enabled}
        )
        router = harness.router
        counters = {
            **router.stats,
            "planned": len(harness.plan.faults),
            "fired": harness.fired,
            **harness.settled,
        }
        for nid, hints in sorted(router.hint_stats.items()):
            slot = hints_by_node.setdefault(
                str(nid),
                {"queued": 0, "dropped": 0, "replayed": 0, "revoked": 0},
            )
            for name in slot:
                slot[name] += hints.get(name, 0)
        heads = router.close()
        report = check_cluster_journals(
            [journal.entries for journal in journals], require_seal=True
        )
        if not report.passed and detail is None:
            detail = (
                "merged-journal replay found "
                f"{report.violation_count} violations"
            )
        return SequenceOutcome(
            ops=ops,
            detail=detail,
            counters=counters,
            evidence={
                "journals": len(journals),
                "records": report.records,
                "checked": report.checked,
                "corroborated": report.corroborated,
            },
            heads=[head for _, head in sorted(heads.items())],
            report=report,
        )

    return run_storm_shard(
        spec,
        suite.section,
        run_sequence,
        sequences=spec.param("sequences", 2),
        profile=profile,
        identity={
            "profile": profile,
            "nodes": num_nodes,
            "replication": 3,
            control: enabled,
        },
        evidence_keys=_EVIDENCE_KEYS,
        extras={"hints_by_node": hints_by_node},
    )
