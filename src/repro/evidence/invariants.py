"""Daikon-style invariant mining over op journals.

Where the checker (:mod:`repro.evidence.checker`) asks *"does this trace
conform to the specification?"*, the miner asks *"what properties does
this trace exhibit?"*.  Each template below is a candidate invariant
evaluated against every journal record; the miner reports each as

* ``confirmed`` -- held at every one of its ``instances`` check sites;
* ``falsified`` -- violated at least once, with the first witness op id
  and logical tick;
* ``vacuous`` -- the journal never exercised the template (zero
  instances), so it says nothing either way.

The :data:`PROMOTED` set is the curated subset that has been confirmed
across healthy bench, campaign, and crash-recovery journals and is
enforced in CI: ``repro invariants`` exits non-zero if any promoted
invariant is falsified.  The remaining templates are exploratory --
useful evidence when triaging a flagged journal, but not gating.

Four templates read out :class:`~repro.shardstore.observability.journal.
JournalEnvelope`, the journal format's own rules stated once for every
reader: its check sites are their instances, its first problem their
witness.

The miner deliberately uses *simpler, stricter* state tracking than the
checker (no candidate sets): between error outcomes and dirty reboots it
assumes writes apply exactly.  It resets its per-key knowledge at every
uncertainty boundary, so on a healthy journal the strict templates are
still sound, while on a faulty one the checker remains the arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.shardstore.observability.journal import JournalEnvelope, read_journal

__all__ = [
    "InvariantResult",
    "PROMOTED",
    "mine_file",
    "mine_journal",
    "mine_journals",
]

#: The curated invariant set enforced in CI (falsified => exit 1).
PROMOTED = (
    "op-monotone",
    "tick-monotone",
    "chain-intact",
    "get-after-put",
    "delete-implies-absent",
    "shed-no-state-change",
    # After a router `settle` record, the next `merkle_roots` record must
    # report converged replicas -- the anti-entropy settlement contract.
    # Vacuous on journals without anti-entropy evidence, so promoting it
    # cannot flag pre-PR-9 artifacts.
    "roots-converge-after-settle",
)

#: Exploratory templates, reported but not gating.
EXPLORATORY = (
    "breaker-legality",
    "seal-counts",
)

ALL_TEMPLATES = PROMOTED + EXPLORATORY

#: Envelope rule -> the template that reads it out.  A record of another
#: node, or anything but one chain from one genesis to its seal, breaks
#: ``chain-intact``.
_ENVELOPE_TEMPLATES = {
    "chain": "chain-intact",
    "seal-last": "chain-intact",
    "genesis": "chain-intact",
    "node": "chain-intact",
    "op-id": "op-monotone",
    "tick": "tick-monotone",
    "seal": "seal-counts",
}

#: Legal circuit-breaker transitions (see resilience.CircuitBreaker).
_BREAKER_EDGES = {
    ("closed", "open"),
    ("closed", "slow"),
    ("open", "half-open"),
    ("slow", "half-open"),
    ("half-open", "probation"),
    ("half-open", "open"),
    ("half-open", "slow"),
    ("probation", "closed"),
    ("probation", "open"),
}

#: Sentinel for "key known absent" in the miner's strict per-key state.
_ABSENT = "<absent>"

_SHEDS = ("shed_overload", "shed_deadline")


@dataclass
class InvariantResult:
    """The fate of one candidate invariant over one or more journals."""

    name: str
    status: str  # "confirmed" | "falsified" | "vacuous"
    instances: int = 0
    witness_op: Optional[int] = None
    witness_tick: Optional[int] = None
    detail: str = ""
    #: Which journal identity produced the witness (the record's ``node``
    #: field).  Op ids are only per-journal monotone, so when several
    #: node journals are mined together the op id alone is ambiguous --
    #: this attributes the witness to the node that wrote it.
    witness_node: Optional[str] = None

    @property
    def promoted(self) -> bool:
        return self.name in PROMOTED

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "promoted": self.promoted,
            "instances": self.instances,
        }
        if self.witness_op is not None:
            out["witness_op"] = self.witness_op
        if self.witness_tick is not None:
            out["witness_tick"] = self.witness_tick
        if self.witness_node is not None:
            out["witness_node"] = self.witness_node
        if self.detail:
            out["detail"] = self.detail
        return out


class _Template:
    """One candidate invariant's accumulator."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances = 0
        self.witness: Optional[
            Tuple[Optional[int], Optional[int], str, Optional[str]]
        ] = None

    def check(self, held: bool, entry: Dict[str, Any], detail: str) -> None:
        self.instances += 1
        if not held:
            self.falsify(entry, detail)

    def falsify(self, entry: Dict[str, Any], detail: str) -> None:
        if self.witness is None:
            self.witness = (
                entry.get("op"),
                entry.get("tick"),
                detail,
                entry.get("node"),
            )

    def result(self) -> InvariantResult:
        if self.witness is not None:
            op, tick, detail, node = self.witness
            return InvariantResult(
                self.name,
                "falsified",
                self.instances,
                op,
                tick,
                detail,
                witness_node=node,
            )
        if self.instances == 0:
            return InvariantResult(self.name, "vacuous", 0)
        return InvariantResult(self.name, "confirmed", self.instances)


def mine_journal(entries: List[Dict[str, Any]]) -> List[InvariantResult]:
    """Mine every candidate invariant from one parsed journal."""
    templates = {name: _Template(name) for name in ALL_TEMPLATES}
    envelope = JournalEnvelope()
    # Strict per-key state: digest -> value digest or _ABSENT or None
    # (None = unknown / reset at an uncertainty boundary).
    state: Dict[str, Optional[str]] = {}
    # key -> ("put", value) / ("delete", None): last *certain* write whose
    # effect the next same-key observation must reflect.
    pending: Dict[str, Tuple[str, Optional[str]]] = {}
    # key -> pre-shed state: the next observation must match it.
    shed_expect: Dict[str, Optional[str]] = {}
    breaker_last: Dict[Any, str] = {}
    # Armed by a router `settle` record; discharged by the next
    # `merkle_roots` record (roots-converge-after-settle).
    settled = False

    def forget(kd: Optional[str]) -> None:
        """An uncertainty boundary for one key (or all, with None)."""
        if kd is None:
            state.clear()
            pending.clear()
            shed_expect.clear()
        else:
            state.pop(kd, None)
            pending.pop(kd, None)
            shed_expect.pop(kd, None)

    def observe(entry: Dict[str, Any], kd: str, value: Optional[str]) -> None:
        """A successful read of key ``kd`` seeing ``value`` (_ABSENT ok)."""
        if kd in pending:
            verb, expected = pending.pop(kd)
            if verb == "put":
                templates["get-after-put"].check(
                    value == expected,
                    entry,
                    f"after put of {expected!r} the key read back {value!r}",
                )
            else:
                templates["delete-implies-absent"].check(
                    value == _ABSENT,
                    entry,
                    f"after a successful delete the key read back {value!r}",
                )
        if kd in shed_expect:
            expected_state = shed_expect.pop(kd)
            if expected_state is not None:
                templates["shed-no-state-change"].check(
                    value == expected_state,
                    entry,
                    f"state was {expected_state!r} before the shed but "
                    f"{value!r} after",
                )
        state[kd] = value

    for entry in entries:
        for rule, problem in envelope.feed(entry):
            templates[_ENVELOPE_TEMPLATES[rule]].falsify(entry, problem)
        kind = entry.get("kind")
        if kind in ("genesis", "seal"):
            continue
        out = entry.get("out", "ok")
        if kind == "breaker":
            disk = entry.get("disk")
            frm, to = entry.get("from"), entry.get("to")
            if not entry.get("reset"):
                prev = breaker_last.get(disk)
                held = (prev is None or frm == prev) and (frm, to) in _BREAKER_EDGES
                templates["breaker-legality"].check(
                    held,
                    entry,
                    f"disk {disk}: transition {frm}->{to} (previous state "
                    f"{prev})",
                )
            breaker_last[disk] = to
            continue

        if kind == "settle":
            settled = True
            continue
        if kind == "merkle_roots":
            if settled:
                templates["roots-converge-after-settle"].check(
                    bool(entry.get("converged")),
                    entry,
                    f"roots still divergent after settle "
                    f"({entry.get('divergent')} of {entry.get('groups')} "
                    f"placement groups)",
                )
                settled = False
            continue

        kd = entry.get("key")

        if out in _SHEDS:
            # A shed must not have mutated state; arm the comparison if we
            # know the pre-shed state of this key.
            if kd is not None and kd in state and kd not in pending:
                shed_expect[kd] = state[kd]
            continue

        if kind == "put":
            if out == "ok" and kd is not None:
                vd = entry.get("value")
                state[kd] = vd
                pending[kd] = ("put", vd)
                shed_expect.pop(kd, None)
            elif kd is not None:
                forget(kd)
        elif kind == "delete":
            if out == "ok" and kd is not None:
                state[kd] = _ABSENT
                pending[kd] = ("delete", None)
                shed_expect.pop(kd, None)
            elif out == "not_found" and kd is not None:
                observe(entry, kd, _ABSENT)
            elif kd is not None:
                forget(kd)
        elif kind == "get":
            if out == "ok" and kd is not None:
                observe(entry, kd, entry.get("value"))
            elif out == "not_found" and kd is not None:
                observe(entry, kd, _ABSENT)
        elif kind == "contains":
            if out == "ok" and kd is not None:
                present = bool(entry.get("result"))
                known = state.get(kd)
                if present and known not in (None, _ABSENT):
                    observe(entry, kd, known)
                elif not present:
                    observe(entry, kd, _ABSENT)
                else:
                    # Present but exact value unknown: can still discharge
                    # a pending delete (it should have been absent).
                    if kd in pending and pending[kd][0] == "delete":
                        pending.pop(kd)
                        templates["delete-implies-absent"].check(
                            False, entry, "key present after a successful delete"
                        )
        elif kind == "reboot":
            if entry.get("mode") != "clean" or out != "ok":
                forget(None)
        elif kind == "scrub_repair":
            for qd in entry.get("quarantined") or []:
                forget(qd)
        elif kind == "bulk_create":
            items = entry.get("items") or []
            if out == "ok":
                for ikd, ivd in items:
                    state[ikd] = ivd
                    pending[ikd] = ("put", ivd)
                    shed_expect.pop(ikd, None)
            else:
                for ikd, _ in items:
                    forget(ikd)
        elif kind == "bulk_delete":
            items = entry.get("items") or []
            if out == "ok":
                for ikd in items:
                    state[ikd] = _ABSENT
                    pending.pop(ikd, None)
                    shed_expect.pop(ikd, None)
            else:
                for ikd in items:
                    forget(ikd)
        elif out.startswith("error:") and kd is not None:
            forget(kd)

    for rule, problem in envelope.finish():
        templates[_ENVELOPE_TEMPLATES[rule]].falsify({}, problem)
    for rule in ("chain", "op-id", "tick", "seal"):
        templates[_ENVELOPE_TEMPLATES[rule]].instances = envelope.checks[rule]
    return [templates[name].result() for name in ALL_TEMPLATES]


def mine_journals(
    journal_list: Iterable[List[Dict[str, Any]]],
) -> List[InvariantResult]:
    """Mine several journals and merge per-template verdicts.

    Falsified anywhere wins (first witness kept); instances are summed; a
    template confirmed in at least one journal and falsified in none is
    confirmed; otherwise vacuous.
    """
    merged: Dict[str, InvariantResult] = {}
    for entries in journal_list:
        for res in mine_journal(entries):
            prior = merged.get(res.name)
            if prior is None:
                merged[res.name] = res
                continue
            prior.instances += res.instances
            if prior.status != "falsified" and res.status == "falsified":
                prior.status = "falsified"
                prior.witness_op = res.witness_op
                prior.witness_tick = res.witness_tick
                prior.witness_node = res.witness_node
                prior.detail = res.detail
            elif prior.status == "vacuous" and res.status == "confirmed":
                prior.status = "confirmed"
    return [merged[name] for name in ALL_TEMPLATES if name in merged]


def mine_file(path: str) -> List[InvariantResult]:
    """Mine one journal file."""
    return mine_journal(read_journal(path))
