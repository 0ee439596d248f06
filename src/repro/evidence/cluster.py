"""Merged multi-journal trace checking for the cluster layer.

A cluster run produces one journal per storage node plus one for the
router (each with a distinct identity in its chain genesis and every
record body).  This checker replays the *router* journal -- the
cluster-level op stream, each record carrying its replica ack set -- under
cross-node candidate-set semantics, and uses the per-node journals for
two things the router journal alone cannot prove:

* **the journal envelope per journal** -- router and member journals are
  each held to the rules of :class:`~repro.shardstore.observability.
  journal.JournalEnvelope` (the node id is in the chain, so journals
  cannot be spliced); its problems name their journal, and no two
  journals may claim one node;
* **ack corroboration** -- an acknowledged quorum write must actually
  appear in the journal of every acking node, matched by the cluster op
  id (``cop``) the router stamped on the replica-side record, with the
  same value digest.  A router that claimed an ack no node journal backs
  is a consistency violation, not a formatting problem.

The specification is :class:`~repro.models.cluster.ReferenceCluster`; this
module only translates records into its events.  One rule is the replayer's
own: it did not see the cluster start, so a key the journal has not written
yet is *learned* from its first read, not judged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.models.cluster import ReferenceCluster
from repro.shardstore.observability.journal import JournalEnvelope, read_journal

from .checker import KEYED_KINDS, MAX_VIOLATIONS, render_candidates, shape_problem

__all__ = [
    "ClusterCheckReport",
    "check_cluster_files",
    "check_cluster_journals",
]

#: Router-journal record kinds that mutate cluster placement/liveness
#: bookkeeping but never key state.
_EVENT_KINDS = (
    "crash",
    "restart",
    "partition",
    "partition_heal",
    "slow",
    "demote",
    "readmit",
    "join",
    "leave",
    "hint_replay",
    "read_repair",
    "rebalance",
    "keys",
    # Anti-entropy evidence (PR 9): settle anchors, per-round sync
    # summaries, and the placement-group root verdict.  Background
    # repairs flow through the replica-apply path, so the replayer sees
    # their effects as ordinary member-journal puts corroborated by the
    # candidate-set semantics -- these records are narration, not state.
    "settle",
    "anti_entropy",
    "merkle_roots",
)


@dataclass
class ClusterCheckReport:
    """The verdict of one merged cluster replay."""

    journals: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    ops: int = 0
    checked: int = 0
    skipped: int = 0
    corroborated: int = 0  # acked replica writes matched in node journals
    crashes: int = 0
    violation_count: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)
    chain_ok: bool = True
    sealed: bool = False  # every journal sealed
    #: The state the router journal replayed to (not in the JSON verdict).
    model: Optional[ReferenceCluster] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "journals": {
                name: dict(info) for name, info in sorted(self.journals.items())
            },
            "records": self.records,
            "ops": self.ops,
            "checked": self.checked,
            "skipped": self.skipped,
            "corroborated": self.corroborated,
            "crashes": self.crashes,
            "chain_ok": self.chain_ok,
            "sealed": self.sealed,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
        }


def _journal_identity(entries: List[Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
    if not entries or entries[0].get("kind") != "genesis":
        return "", {}
    meta = entries[0].get("meta") or {}
    return str(meta.get("node", "")), meta


class _ClusterReplay:
    def __init__(self, require_seal: bool) -> None:
        self.require_seal = require_seal
        self.report = ClusterCheckReport()
        # journal identity -> cop -> list of the records it caused
        self._node_cops: Dict[str, Dict[int, List[Dict[str, Any]]]] = {}

    # ------------------------------------------------------------------

    def _violate(self, entry: Dict[str, Any], problem: str) -> None:
        self.report.violation_count += 1
        if len(self.report.violations) < MAX_VIOLATIONS:
            self.report.violations.append(
                {
                    "op": entry.get("op"),
                    "tick": entry.get("tick"),
                    "kind": entry.get("kind"),
                    "node": entry.get("node"),
                    "key": entry.get("key"),
                    "problem": problem,
                }
            )

    def _verify_journal(
        self, name: str, entries: List[Dict[str, Any]]
    ) -> None:
        """Hold one journal to the envelope, and index its records by the
        cluster op id (``cop``) that caused them."""
        envelope = JournalEnvelope()
        cops: Dict[int, List[Dict[str, Any]]] = {}
        for entry in entries:
            for _rule, problem in envelope.feed(entry):
                self._violate({**entry, "node": name}, f"journal {name}: {problem}")
            cop = entry.get("cop")
            if isinstance(cop, int) and cop > 0:
                cops.setdefault(cop, []).append(entry)
        for _rule, problem in envelope.finish(require_seal=self.require_seal):
            self._violate({"node": name}, f"journal {name}: {problem}")
        self._node_cops[name] = cops
        self.report.journals[name] = {
            "records": envelope.records,
            "chain_ok": envelope.chain_ok,
            "sealed": envelope.sealed,
            "head": envelope.head,
        }
        self.report.records += envelope.records
        self.report.chain_ok = self.report.chain_ok and envelope.chain_ok

    # ------------------------------------------------------------------
    # record handlers

    def _corroborate(
        self, entry: Dict[str, Any], acks: List[int], vd: Optional[str]
    ) -> None:
        cop = entry.get("cop")
        if not isinstance(cop, int):
            self._violate(entry, "acknowledged write carries no cop")
            return
        for nid in acks:
            name = f"node{nid}"
            matches = self._node_cops.get(name, {}).get(cop, [])
            applied = [
                rec
                for rec in matches
                if rec.get("kind") == "put" and rec.get("out") == "ok"
            ]
            if not applied:
                self._violate(
                    entry,
                    f"ack by node {nid} has no matching replica put "
                    f"(cop {cop}) in its journal",
                )
                continue
            if vd is not None and all(
                rec.get("value") != vd for rec in applied
            ):
                self._violate(
                    entry,
                    f"node {nid}'s replica put for cop {cop} carries a "
                    f"different value digest",
                )
                continue
            self.report.corroborated += 1

    def _handle_write(self, entry: Dict[str, Any]) -> None:
        kd = entry["key"]
        out = entry.get("out", "ok")
        ver = entry.get("ver", -1)
        vd = entry["value"] if entry["kind"] == "put" else None  # tombstone
        acks = entry.get("acks")
        acks = [a for a in acks if type(a) is int] if isinstance(acks, list) else []
        want = entry.get("want", 0)
        if out == "ok":
            if len(acks) < want:
                self._violate(
                    entry,
                    f"acknowledged with {len(acks)} acks but quorum is {want}",
                )
            self.report.checked += 1
            self.model.apply(kd, vd, ver, acks)
            self._corroborate(entry, acks, vd)
        elif out == "error:DegradedWriteError":
            if not acks:
                self.report.checked += 1  # provably state-preserving
            self.model.attempt(kd, vd, len(acks), ver)
        elif out == "not_found":
            # delete of an absent key: an observation of absence.
            self._observe(entry, kd, None)
        elif out.startswith("error:"):
            self.report.skipped += 1
        # shed outcomes are impossible at the router (sheds happen at
        # replicas and simply cost the write an ack).

    def _observe(self, entry: Dict[str, Any], kd: str, vd: Optional[str]) -> None:
        if not self.model.tracked(kd):
            # First sight of a key: learn, don't judge.
            if vd is not None:
                self.model.apply(kd, vd, entry.get("ver", -1))
            return
        verdict = self.model.observe(kd, vd)
        if not verdict.constrained:
            return  # lost to a majority crash: learned again
        self.report.checked += 1
        if not verdict.permitted:
            self._violate(
                entry,
                f"observed {'absent' if vd is None else repr(vd)} but the "
                f"model allows only {{{render_candidates(verdict.allowed)}}}",
            )

    def _handle_contains(self, entry: Dict[str, Any]) -> None:
        kd = entry["key"]
        if entry.get("out") != "ok" or not self.model.tracked(kd):
            return
        exists = bool(entry.get("exists"))
        verdict = self.model.observe_presence(kd, exists)
        if not verdict.constrained:
            return
        self.report.checked += 1
        if not verdict.permitted:
            says, model = ("present", "absent") if exists else ("absent", "present")
            self._violate(entry, f"reported {says} but the model says {model}")

    # ------------------------------------------------------------------

    def replay_router(
        self, entries: List[Dict[str, Any]], meta: Dict[str, Any]
    ) -> None:
        nodes = meta.get("nodes")
        self.model = ReferenceCluster(nodes if isinstance(nodes, int) else 0)
        self.report.model = self.model
        for entry in entries:
            kind = entry.get("kind")
            if kind in ("genesis", "seal"):
                continue
            self.report.ops += 1
            problem = _field_problem(entry)
            if kind in KEYED_KINDS:
                problem = problem or shape_problem(entry)
            if problem is not None:
                self._violate(entry, problem)
            elif kind in ("put", "delete"):
                self._handle_write(entry)
            elif kind == "get" and entry.get("out", "ok") in ("ok", "not_found"):
                found = entry["value"] if entry.get("out", "ok") == "ok" else None
                self._observe(entry, entry["key"], found)
            elif kind == "get":
                self.report.skipped += 1
            elif kind == "contains":
                self._handle_contains(entry)
            elif kind == "crash":
                self.report.crashes += 1
                self.model.crash(entry.get("target"))
            elif kind == "restart":
                self.model.restart(entry.get("target"))
            elif kind not in _EVENT_KINDS:
                self._violate(entry, f"unknown router record kind {kind!r}")


def _field_problem(entry: Dict[str, Any]) -> Optional[str]:
    """A journal is outside input: the router's numeric fields must be
    integers wherever they appear, and a crash or restart names a target."""
    required = ("target",) if entry.get("kind") in ("crash", "restart") else ()
    bad = [
        name
        for name in ("ver", "want", "cop", "target")
        if (name in entry or name in required)
        and type(entry.get(name)) is not int
    ]
    return f"non-integer {', '.join(bad)} field" if bad else None


def check_cluster_journals(
    journal_entries: List[List[Dict[str, Any]]],
    *,
    require_seal: bool = False,
) -> ClusterCheckReport:
    """Replay merged cluster journals (one router + N node journals)."""
    replay = _ClusterReplay(require_seal)
    report = replay.report
    router: Optional[List[Dict[str, Any]]] = None
    for entries in journal_entries:
        name, meta = _journal_identity(entries)
        if not name:
            replay._violate(
                {}, "journal has no genesis identity (not a cluster journal?)"
            )
            continue
        if name in report.journals:
            replay._violate({"node": name}, f"two journals claim node {name!r}")
            continue
        replay._verify_journal(name, entries)
        if meta.get("role") == "router":
            if router is not None:
                replay._violate({}, "more than one router journal supplied")
            router = entries
    if router is None:
        replay._violate({}, "no router journal supplied (meta.role=router)")
    else:
        replay.replay_router(router, router[0].get("meta") or {})
    report.sealed = bool(report.journals) and all(
        info["sealed"] for info in report.journals.values()
    )
    return report


def check_cluster_files(
    paths: List[str], *, require_seal: bool = False
) -> ClusterCheckReport:
    """Read and replay cluster journal files together."""
    return check_cluster_journals(
        [read_journal(path) for path in paths], require_seal=require_seal
    )
