"""Campaign and shard specifications (the picklable work-unit contract).

A campaign is compiled into a flat list of :class:`ShardSpec` work units
before any process is spawned.  Each spec is plain data -- strings, ints,
floats -- so it pickles across a ``ProcessPoolExecutor`` boundary, and each
carries its own ``seed`` (``base_seed + shard_id``), so the unit replays
deterministically no matter which worker runs it or in what order.

Checkers consume specs through their module-level
``run_shard(spec) -> ShardResult`` entry points (see
:func:`repro.core.conformance.run_shard` and friends); the campaign runner
only dispatches on ``spec.kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Version stamp for the campaign JSON artifact (documented in
#: EXPERIMENTS.md).  Bump when the schema changes shape.
#: v2: adds the observability sections -- top-level ``metrics``, per-shard
#: and per-failure ``trace``/``fault_events``.
#: v3: adds the failure-injection phase -- per-shard ``injection`` blocks
#: and the aggregated top-level ``injection`` section.
#: v4: adds the brownout/overload storm dimension -- injection blocks gain
#: admission/shedding identity plus shed/slow-trip/deadline-violation
#: counters, and the aggregate gains a top-level ``brownout`` section.
#: v5: adds the evidence plane -- journaled injection shards carry
#: per-shard journal record counts, chained journal digests, and
#: trace-conformance verdicts; the aggregate gains a top-level
#: ``evidence`` section.
#: v6: adds the cluster dimension -- shards of kind ``cluster`` carry a
#: per-shard ``cluster`` block (consistency verdict, partitions fired,
#: read-repairs, handoff/rebalance counters, merged-journal evidence)
#: and the aggregate gains a top-level ``cluster`` section.
#: v7: adds the anti-entropy dimension -- shards of kind ``anti-entropy``
#: carry a per-shard ``anti_entropy`` block (Merkle ``roots_converged``
#: settlement verdict, sync-round/bucket/repair counters, per-node hint
#: overflow/revocation breakdown, merged-journal evidence) and the
#: aggregate gains a top-level ``anti_entropy`` section; cluster blocks
#: gain a per-node ``hints`` breakdown.
#: v8: removes the in-node replica path -- injection blocks and the
#: ``brownout`` section lose its two counters (replica reads and writes).
SCHEMA_VERSION = 8

#: Shard kinds, dispatched by the runner to the owning checker module.
KIND_CONFORMANCE = "conformance"
KIND_CRASH = "crash"
KIND_FUZZ = "fuzz"
KIND_FAULT_MATRIX = "fault-matrix"
KIND_INJECTION = "injection"
KIND_CLUSTER = "cluster"
KIND_ANTIENTROPY = "anti-entropy"

#: Gray-failure storm sequences are longer than point-fault sequences:
#: backlog has to *accumulate* across a latency ramp or a held-arrival
#: burst before the deadline can be breached.
STORM_OPS = 160


@dataclass(frozen=True)
class Control:
    """A campaign switch: ``flag`` sets ``CampaignSpec.<spec_field>`` to
    ``value``, and every shard of the suite's kind reads it as ``param``.

    The four ``--no-*`` controls are the negative configurations CI
    asserts must FAIL -- the proof that the disabled mechanism is
    load-bearing.
    """

    flag: str
    spec_field: str
    param: str
    value: bool
    help: str

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Section:
    """How one top-level artifact section is rolled up from shard blocks.

    ``fields`` spells one per-shard entry in artifact order: ``"*"`` is
    the shard's whole block, ``shard_id``/``seed``/``cases``/``ok``/
    ``skipped`` come from the shard result, any other name is projected
    from the block.  ``keys`` are the counters summed into ``totals``.
    """

    name: str
    fields: Tuple[str, ...]
    keys: Tuple[str, ...]
    #: Only shards whose block has a truthy value here are selected.
    where: Optional[str] = None
    #: Roll up this sub-dict of the block instead of the block itself.
    sub: Optional[str] = None
    #: Schema v3 emits ``totals`` key-sorted; later sections keep ``keys``
    #: order.
    sorted_totals: bool = False
    #: (per-shard verdict key, rolled-up name): AND over the shards.
    verdict: Optional[Tuple[str, str]] = None
    #: (block key of the evidence dict -- "" is the block itself --
    #: rolled-up ``check_passed`` name); also emits ``heads_digest``.
    evidence: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class Suite:
    """One row of the suite table: everything the campaign plane knows
    about a suite.  The shard compiler, the dispatcher, the roll-up and
    the CLI are all driven from these rows, so a new suite is one row.

    A row with a ``blurb`` is a ``--suite`` choice.  A row without one is
    not selectable: it rides on whatever suite compiles its shard kind
    (``evidence`` rides on every injection-kind shard).
    """

    name: str
    blurb: str = ""
    #: Shard kind and the module whose ``run_shard`` executes it.
    kind: str = ""
    entry: str = ""
    #: Shard-param rotation, cycled through ``<sizes>_shards`` slots;
    #: ``sizes`` prefixes the ``CampaignSpec`` fields the row reads
    #: (``_shards``, ``_sequences``, ``_ops`` and, when present, ``_nodes``).
    plan: Tuple[Dict[str, str], ...] = ()
    sizes: str = ""
    min_ops: int = 0
    #: Rows compiled after the base phases (the ``full`` suite only).
    includes: Tuple[str, ...] = ()
    control: Optional[Control] = None
    section: Optional[Section] = None


#: The admission-plane counters: the tail of every injection block and
#: the whole of the ``brownout`` section.
_ADMISSION_KEYS = (
    "storm_events",
    "shed_overload",
    "shed_deadline",
    "slow_trips",
    "deadline_violations",
    "retry_budget_exhausted",
)

#: Storm and hinted-handoff counters shared by both cluster-plane suites.
_HANDOFF_KEYS = (
    "hints_queued",
    "hints_replayed",
    "hints_dropped",
    "hints_revoked",
    "node_crashes",
    "node_restarts",
    "partitions",
    "partition_heals",
    "slow_storms",
)

_BLOCK_THEN_META = ("*", "shard_id", "seed", "ok", "skipped")

#: The suite table, in artifact-section order.
SUITE_TABLE: Dict[str, Suite] = {
    row.name: row
    for row in (
        Suite(
            name="full",
            blurb="every phase: conformance, crash, fuzz, fault matrix, injection",
            includes=("injection",),
        ),
        # The node/permanent slot is the one the circuit breaker must survive
        # -- and the one that must FAIL under ``--no-breaker``.
        Suite(
            name="injection",
            blurb="failure-injection storms only (section 4.4 contract)",
            kind=KIND_INJECTION,
            entry="repro.campaign.injection",
            plan=(
                {"harness": "store", "profile": "transient"},
                {"harness": "store", "profile": "corruption"},
                {"harness": "node", "profile": "transient"},
                {"harness": "node", "profile": "permanent"},
                {"harness": "store", "profile": "mixed"},
                {"harness": "node", "profile": "mixed"},
            ),
            sizes="injection",
            control=Control(
                flag="--no-breaker",
                spec_field="breaker_enabled",
                param="breaker_enabled",
                value=False,
                help="run injection shards with the disk-health circuit "
                "breaker disabled (the permanent-fault shard is expected to "
                "FAIL)",
            ),
            section=Section(
                name="injection",
                fields=("*", "shard_id", "seed", "cases", "ok", "skipped"),
                keys=(
                    "planned",
                    "armed",
                    "fired",
                    "retries",
                    "breaker_trips",
                    "readmissions",
                    "demotions",
                    "shards_stranded",
                    "repaired",
                    "quarantined",
                )
                + _ADMISSION_KEYS,
                sorted_totals=True,
            ),
        ),
        # Gray-failure storms (latency ramps, arrival bursts) against the
        # admission-enabled node request plane.  ``deadline_violations`` is
        # the load-bearing total: 0 whenever shedding is on (late requests are
        # shed, never run), non-zero under ``--no-shedding``.
        Suite(
            name="brownout",
            blurb=(
                "gray-failure storms only: slow-disk brownouts and arrival "
                "overloads against the deadline-aware admission plane"
            ),
            kind=KIND_INJECTION,
            entry="repro.campaign.injection",
            plan=(
                {"harness": "node", "profile": "brownout"},
                {"harness": "node", "profile": "overload"},
            ),
            sizes="injection",
            min_ops=STORM_OPS,
            control=Control(
                flag="--no-shedding",
                spec_field="shedding_enabled",
                param="shedding_enabled",
                value=False,
                help="run admission-enabled (brownout/overload) shards with "
                "load shedding disabled (storm shards are expected to FAIL "
                "their deadline_violations == 0 gate)",
            ),
            section=Section(
                name="brownout",
                where="admission_enabled",
                fields=("shard_id", "seed", "profile", "shedding_enabled", "ok")
                + _ADMISSION_KEYS,
                keys=_ADMISSION_KEYS,
            ),
        ),
        # Journals carry logical ticks and digests only, so this section is
        # byte-identical for any worker count.
        Suite(
            name="evidence",
            kind=KIND_INJECTION,
            control=Control(
                flag="--journal",
                spec_field="journal",
                param="journal",
                value=True,
                help="journal every injection-shard op and replay each "
                "sequence journal through the trace checker; verdicts and "
                "chained digests land in the artifact's evidence section "
                "(schema v5)",
            ),
            section=Section(
                name="evidence",
                where="evidence",
                sub="evidence",
                fields=("shard_id", "seed", "*"),
                keys=("sequences", "records", "checked", "skipped"),
                evidence=("", "all_passed"),
            ),
        ),
        # ``consistent``: every quorum-acked write survived its minority
        # outage, replicas converged after one read sweep, and the merged
        # multi-journal replay was clean.  Revoked- and dropped-hint
        # divergence is healed by read-repair alone, hence the control.
        Suite(
            name="cluster",
            blurb=(
                "multi-node storms only: quorum conformance under node "
                "crashes, partitions and slow nodes, with merged-journal replay"
            ),
            kind=KIND_CLUSTER,
            entry="repro.campaign.cluster",
            plan=(
                {"profile": "cluster-mixed"},
                {"profile": "node-crash"},
                {"profile": "partition"},
            ),
            sizes="cluster",
            control=Control(
                flag="--no-read-repair",
                spec_field="read_repair_enabled",
                param="read_repair",
                value=False,
                help="run cluster shards with read-repair disabled (storm "
                "shards are expected to FAIL their replica-convergence "
                "settlement gate)",
            ),
            section=Section(
                name="cluster",
                fields=_BLOCK_THEN_META,
                keys=(
                    "planned",
                    "fired",
                    "degraded_writes",
                    "quorum_write_failures",
                    "quorum_read_failures",
                    "read_repairs",
                )
                + _HANDOFF_KEYS
                + (
                    "node_demotions",
                    "node_readmissions",
                    "rebalances",
                    "rebalance_moves",
                ),
                verdict=("consistent", "all_consistent"),
                evidence=("evidence", "evidence_passed"),
            ),
        ),
        # ``roots_converged``: after a write-only divergence storm every
        # placement group's live Merkle roots agree.  Zero reads ever fire,
        # so read-repair provably cannot help and the control removes the
        # only healer.
        Suite(
            name="anti-entropy",
            blurb=(
                "divergence storms only: partition + hint-overflow storms with "
                "zero post-storm reads, so Merkle anti-entropy is the only path "
                "that converges replicas (read-repair provably cannot fire)"
            ),
            kind=KIND_ANTIENTROPY,
            entry="repro.campaign.cluster",
            plan=(
                {"profile": "partition"},
                {"profile": "cluster-mixed"},
                {"profile": "node-crash"},
            ),
            sizes="antientropy",
            control=Control(
                flag="--no-anti-entropy",
                spec_field="anti_entropy_enabled",
                param="anti_entropy",
                value=False,
                help="run anti-entropy shards with Merkle sync disabled "
                "(divergence-storm shards are expected to FAIL their "
                "roots_converged settlement gate)",
            ),
            section=Section(
                name="anti_entropy",
                fields=_BLOCK_THEN_META,
                keys=("planned", "fired", "degraded_writes", "quorum_write_failures")
                + _HANDOFF_KEYS
                + (
                    "anti_entropy_rounds",
                    "anti_entropy_root_matches",
                    "anti_entropy_buckets",
                    "anti_entropy_keys_repaired",
                    "anti_entropy_skips",
                    "settle_rounds",
                    "pre_settle_divergent",
                ),
                verdict=("roots_converged", "all_converged"),
                evidence=("evidence", "evidence_passed"),
            ),
        ),
    )
}

#: The ``--suite`` choices: which slice of the shard plan a run compiles.
SUITE_REGISTRY: Dict[str, Suite] = {
    name: row for name, row in SUITE_TABLE.items() if row.blurb
}

#: Shard kind -> module whose ``run_shard(spec)`` executes it.
SHARD_ENTRY: Dict[str, str] = {
    KIND_CONFORMANCE: "repro.core.conformance",
    KIND_CRASH: "repro.core.crash_checker",
    KIND_FUZZ: "repro.serialization.fuzz",
    KIND_FAULT_MATRIX: "repro.campaign.fault_matrix",
    **{row.kind: row.entry for row in SUITE_TABLE.values() if row.entry},
}

ALL_KINDS = tuple(SHARD_ENTRY)


def compiled_rows(suite: str) -> Tuple[Suite, ...]:
    """The storm rows whose plans ``--suite suite`` compiles."""
    row = SUITE_REGISTRY[suite]
    if row.includes:
        return tuple(SUITE_REGISTRY[name] for name in row.includes)
    return (row,)


def control_suites(row: Suite) -> Tuple[str, ...]:
    """The ``--suite`` choices under which ``row``'s control has shards
    to act on: those compiling the row itself or, for a row that rides
    on a shard kind, any row of that kind."""
    return tuple(
        name
        for name in SUITE_REGISTRY
        if any(
            other is row or (not row.entry and other.kind == row.kind)
            for other in compiled_rows(name)
        )
    )


@dataclass(frozen=True)
class ShardSpec:
    """One picklable unit of campaign work.

    ``params`` holds only plain data (the checker interprets it); ``seed``
    is the single number needed to replay the shard by hand.
    """

    shard_id: int
    kind: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @staticmethod
    def make(
        shard_id: int, kind: str, seed: int, **params: Any
    ) -> "ShardSpec":
        """Build a spec from keyword params (sorted for determinism)."""
        return ShardSpec(
            shard_id=shard_id,
            kind=kind,
            seed=seed,
            params=tuple(sorted(params.items())),
        )


@dataclass
class ShardFailure:
    """One check violation found by a shard, ready for the artifact."""

    kind: str
    seed: int
    detail: str
    fault: Optional[str] = None  # injected fault name, if any
    minimized: Optional[List[str]] = None  # minimized op reproducer
    #: Observability evidence from a focused replay of the failing input
    #: (present when the campaign ran with tracing enabled).
    trace: Optional[List[Dict[str, Any]]] = None
    fault_events: Optional[List[Dict[str, Any]]] = None

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "detail": self.detail,
        }
        if self.fault is not None:
            out["fault"] = self.fault
        if self.minimized is not None:
            out["minimized"] = list(self.minimized)
        if self.trace is not None:
            out["trace"] = list(self.trace)
        if self.fault_events is not None:
            out["fault_events"] = list(self.fault_events)
        return out


@dataclass
class ShardResult:
    """What one shard reports back to the aggregator.

    ``cases`` counts whatever the shard's checker calls a test case
    (sequences, fuzz inputs, crash states, schedules); ``ops`` counts
    individual operations where that is meaningful.  ``expected_failure``
    marks fault-matrix shards, where *finding* the injected bug is the
    passing outcome.
    """

    shard_id: int
    kind: str
    seed: int
    cases: int = 0
    ops: int = 0
    failures: List[ShardFailure] = field(default_factory=list)
    expected_failure: bool = False
    detector: str = ""  # fault-matrix: which checker hunted the fault
    fault: Optional[str] = None  # fault-matrix: the injected fault name
    coverage_lines: Optional[List[Tuple[str, int]]] = None
    skipped: bool = False  # budget exhausted before this shard ran
    #: Observability sections (present when the campaign traced this shard):
    #: a metrics snapshot, the structured fault-event log, and the tail of
    #: the shard's ring-buffer trace.
    metrics: Optional[Dict[str, Any]] = None
    fault_events: Optional[List[Dict[str, Any]]] = None
    trace: Optional[List[Dict[str, Any]]] = None
    #: Storm-shard summary -- the per-shard block of the suite's artifact
    #: section: plan/harness identity, the verdict the suite gates on, the
    #: counters its :class:`Section` names, and (when journaled) the
    #: evidence verdict with chain-head digests.
    section: Optional[Dict[str, Any]] = None

    @property
    def detected(self) -> bool:
        """Fault-matrix verdict: did the checker find the injected bug?"""
        return bool(self.failures)

    @property
    def ok(self) -> bool:
        """Did this shard meet its goal (no bug found, or bug detected)?"""
        if self.skipped:
            return True
        if self.expected_failure:
            return self.detected
        return not self.failures


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to compile and run one campaign."""

    profile: str = "full"
    #: Which phases to compile -- a :data:`SUITE_REGISTRY` name.
    suite: str = "full"
    workers: int = 2
    base_seed: int = 0
    budget_seconds: Optional[float] = None
    # conformance phase
    conformance_shards_per_alphabet: int = 4
    sequences_per_shard: int = 25
    ops_per_sequence: int = 60
    # crash phase
    crash_shards: int = 4
    crash_prefix_ops: int = 24
    crash_max_states: int = 96
    # fuzz phase
    fuzz_iterations: int = 4000
    fuzz_exhaustive_len: int = 1
    # fault matrix
    fault_matrix: bool = True
    fault_matrix_sequences: int = 8
    # failure-injection phase (section 4.4 storms + recovery contract)
    injection_shards: int = 4
    injection_sequences: int = 4
    injection_ops: int = 40
    #: Disable the node's disk circuit breaker in injection shards -- the
    #: negative configuration: permanent-fault plans must then FAIL.
    breaker_enabled: bool = True
    #: Disable load shedding in admission-enabled (brownout/overload)
    #: shards -- the negative configuration: storm plans must then FAIL
    #: their ``deadline_violations == 0`` settlement gate.
    shedding_enabled: bool = True
    # cluster phase (multi-node quorum storms)
    cluster_shards: int = 3
    cluster_sequences: int = 2
    cluster_ops: int = 80
    cluster_nodes: int = 5
    #: Disable read-repair in cluster shards -- the negative
    #: configuration: storm plans must then FAIL their replica-convergence
    #: settlement gate (revoked/dropped hints leave divergence only
    #: read-repair heals).
    read_repair_enabled: bool = True
    # anti-entropy phase (divergence storms healed by Merkle sync alone)
    antientropy_shards: int = 3
    antientropy_sequences: int = 2
    antientropy_ops: int = 80
    antientropy_nodes: int = 5
    #: Disable Merkle anti-entropy in anti-entropy shards -- the negative
    #: configuration: divergence storms run with zero post-storm reads, so
    #: without anti-entropy nothing converges replicas and every shard
    #: must FAIL its ``roots_converged`` settlement gate.
    anti_entropy_enabled: bool = True
    # coverage is collected on the first store-alphabet shard only
    # (sys.settrace costs ~10x; one shard is enough for blind-spot stats)
    coverage: bool = True
    # observability: thread a RingRecorder through every store/node built
    # by conformance, crash, and fault-matrix shards; the artifact then
    # carries metrics, fault-event logs, and failure traces
    trace: bool = False
    #: Evidence plane: journal every injection-shard op sequence into an
    #: in-memory chained journal, replay it through the trace checker in
    #: the shard, and record journal digests + check verdicts (schema v5
    #: ``evidence`` sections).  Deterministic across workers.
    journal: bool = False


def smoke_spec(
    workers: int = 2,
    base_seed: int = 0,
    budget_seconds: Optional[float] = None,
    trace: bool = False,
    suite: str = "full",
    **controls: bool,
) -> CampaignSpec:
    """The per-commit CI profile: every phase, small budgets (~tens of
    seconds on two workers), still detecting all 16 Fig. 5 bugs.  It
    overrides only the sizes it shrinks; ``controls`` are the suite
    table's :class:`Control` fields (``breaker_enabled=False``,
    ``journal=True``, ...).
    """
    if suite not in SUITE_REGISTRY:
        raise ValueError(f"unknown campaign suite {suite!r}")
    return CampaignSpec(
        profile="smoke",
        suite=suite,
        workers=workers,
        base_seed=base_seed,
        budget_seconds=budget_seconds,
        trace=trace,
        conformance_shards_per_alphabet=1,
        sequences_per_shard=6,
        ops_per_sequence=40,
        crash_shards=1,
        crash_prefix_ops=14,
        crash_max_states=48,
        fuzz_iterations=600,
        injection_sequences=2,
        **controls,
    )
