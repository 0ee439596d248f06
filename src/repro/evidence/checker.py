"""Trace-conformance checker: replay an op journal against the model.

This is the "eXtreme Modelling" side of the evidence plane: any live run
that produced a journal -- ``repro bench``, the metrics demo node, a
campaign shard -- becomes conformance evidence *after the fact*, without
re-running it.  The checker translates every journaled operation into an
event of the :class:`~repro.models.candidates.CandidateModel` specification
(over key/value *digests*; journals never carry raw bytes):

* ``put``/``get``/``delete``/``contains``/``keys`` outcomes must agree
  with the model;
* typed sheds (``shed_overload``/``shed_deadline``) are raised **before
  any substrate IO**, so a shed op must provably not have mutated state;
* ``error:*`` outcomes leave the op's effect *uncertain*: an ``attempt``,
  which the next permitted observation settles;
* crash semantics: a ``dirty`` reboot is the model's ``crash``; its
  durability ``barrier`` is a clean reboot, or a ``flush`` followed by a
  quiescent ``drain``.

The checker also enforces the promoted invariant set inline: the hash
chain must verify, op ids must be strictly monotone, and logical ticks
must be non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.models.candidates import CandidateModel
from repro.shardstore.observability.journal import (
    GENESIS_CHAIN,
    canonical_json,
    chain_digest,
    digest_key_digests,
    read_journal,
)

__all__ = ["ABSENT", "CheckReport", "TraceChecker", "check_file", "check_journal"]

#: How violation text names the absent candidate (the model's ``None``).
ABSENT = "<absent>"

#: Cap on retained violation detail records (the count keeps counting).
MAX_VIOLATIONS = 64

#: Record kinds that address one key (and so must carry its digest).
KEYED_KINDS = ("put", "get", "delete", "contains")

#: Outcomes that must not have touched state (shed before any IO).
_SHED_OUTCOMES = ("shed_overload", "shed_deadline")


def render_candidates(values: Iterable[Optional[str]]) -> str:
    return ", ".join(sorted(ABSENT if v is None else v for v in values))


def shape_problem(entry: Dict[str, Any]) -> Optional[str]:
    """What is malformed about a key-addressed record, if anything.  A
    journal is outside input: both replayers refuse a record whose key or
    value digest is missing (or not a string) before it reaches the model."""
    kind, out = entry.get("kind"), entry.get("out", "ok")
    if not isinstance(out, str):
        return f"{kind} record outcome is not a string"
    has_key = isinstance(entry.get("key"), str)
    has_value = isinstance(entry.get("value"), str)
    if kind == "put":
        if not (has_key and has_value):
            return "put record missing key/value digest"
    elif not has_key:
        return f"{kind} record missing key digest"
    elif kind == "get" and out == "ok" and not has_value:
        return "get ok record missing value digest"
    return None


@dataclass
class CheckReport:
    """The verdict of one journal replay."""

    records: int = 0
    ops: int = 0
    checked: int = 0  # ops that carried a state assertion
    skipped: int = 0  # checks skipped for soundness (crash uncertainty)
    sheds: int = 0
    violation_count: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)
    chain_ok: bool = True
    sealed: bool = False
    head: str = GENESIS_CHAIN

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "records": self.records,
            "ops": self.ops,
            "checked": self.checked,
            "skipped": self.skipped,
            "sheds": self.sheds,
            "chain_ok": self.chain_ok,
            "sealed": self.sealed,
            "head": self.head,
            "violation_count": self.violation_count,
            "violations": list(self.violations),
        }


class TraceChecker:
    """Incremental journal replayer; feed records in write order.

    Also usable live: the metrics demo node feeds its in-memory journal's
    records as they are produced and exports the running violation count
    as a gauge.
    """

    def __init__(self) -> None:
        self.model = CandidateModel()
        self.report = CheckReport()
        self._counts: Dict[str, int] = {}
        self._chain = GENESIS_CHAIN
        self._last_op_id = 0
        self._last_tick: Optional[int] = None
        self._last_flush = -1
        self._last_mutation = 0
        self._index = -1
        self._sealed_at: Optional[int] = None

    # ------------------------------------------------------------------
    # journal records -> model events

    def _write(self, kd: str, vd: Optional[str], *, certain: bool) -> None:
        """A write record: ``ok`` provably applied, ``error:*`` may have."""
        if certain:
            self.model.apply(kd, vd)
        else:
            self.model.attempt(kd, vd)
        self._last_mutation = self._index

    def _observe(self, entry: Dict[str, Any], kd: str, vd: Optional[str]) -> None:
        verdict = self.model.observe(kd, vd)
        self.report.checked += 1
        if not verdict.permitted:
            self._violate(
                entry,
                f"observed {ABSENT if vd is None else vd!r} but the model "
                f"allows only {{{render_candidates(verdict.allowed)}}}",
            )

    def _violate(self, entry: Dict[str, Any], problem: str) -> None:
        self.report.violation_count += 1
        if len(self.report.violations) < MAX_VIOLATIONS:
            self.report.violations.append(
                {
                    "record": self._index,
                    "op": entry.get("op"),
                    "tick": entry.get("tick"),
                    "kind": entry.get("kind"),
                    "key": entry.get("key"),
                    "out": entry.get("out"),
                    "problem": problem,
                }
            )

    # ------------------------------------------------------------------
    # record feed

    def feed(self, entry: Dict[str, Any]) -> None:
        """Replay one journal record (in write order)."""
        self._index += 1
        self.report.records += 1
        self._feed_chain(entry)
        kind = entry.get("kind")
        if self._sealed_at is not None:
            self._violate(entry, "record appears after the seal")
            return
        if kind == "genesis":
            if self._index != 0:
                self._violate(entry, "genesis record is not first")
            return
        if self._index == 0:
            self._violate(entry, "journal does not start with a genesis record")
        self._feed_sequencing(entry)
        if kind == "seal":
            self._feed_seal(entry)
            return
        out = entry.get("out", "ok")
        self._bump(kind, out)
        if kind == "breaker":
            return  # evidence for the miner; no key-value state effect
        self.report.ops += 1
        if out in _SHED_OUTCOMES:
            # Sheds fire before any substrate IO: provably no state change.
            self.report.sheds += 1
            self.report.checked += 1
            return
        handler = getattr(self, f"_op_{kind}", None)
        if handler is None:
            return
        if kind in KEYED_KINDS:
            problem = shape_problem(entry)
            if problem is not None:
                self._violate(entry, problem)
                return
        handler(entry, out)

    def _feed_chain(self, entry: Dict[str, Any]) -> None:
        stored = entry.get("chain")
        body = {name: val for name, val in entry.items() if name != "chain"}
        expected = chain_digest(self._chain, canonical_json(body))
        if stored != expected:
            self.report.chain_ok = False
            self._violate(
                entry,
                "chain digest mismatch: record tampered, reordered, or a "
                "predecessor deleted",
            )
            self._chain = stored if isinstance(stored, str) else expected
        else:
            self._chain = expected
        self.report.head = self._chain

    def _feed_sequencing(self, entry: Dict[str, Any]) -> None:
        op_id = entry.get("op")
        if isinstance(op_id, int):
            if op_id <= self._last_op_id:
                self._violate(
                    entry, f"op id {op_id} not above predecessor {self._last_op_id}"
                )
            self._last_op_id = max(self._last_op_id, op_id)
        tick = entry.get("tick")
        if isinstance(tick, int):
            if self._last_tick is not None and tick < self._last_tick:
                self._violate(
                    entry, f"tick {tick} went backwards (was {self._last_tick})"
                )
            self._last_tick = max(self._last_tick or 0, tick)

    def _feed_seal(self, entry: Dict[str, Any]) -> None:
        self._sealed_at = self._index
        self.report.sealed = True
        counts = entry.get("counts")
        if isinstance(counts, dict):
            mismatches = [
                name
                for name in set(counts) | set(self._counts)
                if counts.get(name, 0) != self._counts.get(name, 0)
            ]
            if mismatches:
                self._violate(
                    entry,
                    "seal counter relations do not match the replay: "
                    + ", ".join(sorted(mismatches)),
                )
        records = entry.get("records")
        if isinstance(records, int) and records != self._index + 1:
            self._violate(
                entry,
                f"seal claims {records} records but {self._index + 1} were fed",
            )

    def _bump(self, kind: Any, out: str) -> None:
        name = f"{kind}:{out}"
        self._counts[name] = self._counts.get(name, 0) + 1

    # ------------------------------------------------------------------
    # per-kind semantics

    def _op_put(self, entry: Dict[str, Any], out: str) -> None:
        kd, vd = entry["key"], entry["value"]
        if out == "ok":
            self._write(kd, vd, certain=True)
            self.report.checked += 1
        elif out.startswith("error:"):
            self._write(kd, vd, certain=False)
        else:
            self._violate(entry, f"impossible put outcome {out!r}")

    def _op_get(self, entry: Dict[str, Any], out: str) -> None:
        if out == "ok":
            self._observe(entry, entry["key"], entry["value"])
        elif out == "not_found":
            self._observe(entry, entry["key"], None)
        # error:* makes no state claim (the read failed).

    def _op_delete(self, entry: Dict[str, Any], out: str) -> None:
        kd = entry["key"]
        if out == "ok":
            self.report.checked += 1
            if not self.model.observe_presence(kd, True).permitted:
                self._violate(
                    entry, "delete succeeded but the model says the key is absent"
                )
                return
            self._write(kd, None, certain=True)
        elif out == "not_found":
            self._observe(entry, kd, None)
        elif out.startswith("error:"):
            self._write(kd, None, certain=False)

    def _op_contains(self, entry: Dict[str, Any], out: str) -> None:
        if out != "ok":
            return
        present = bool(entry.get("result"))
        self.report.checked += 1
        if not self.model.observe_presence(entry["key"], present).permitted:
            says, model = ("present", "absent") if present else ("absent", "present")
            self._violate(entry, f"reported {says} but the model says {model}")

    def _op_keys(self, entry: Dict[str, Any], out: str) -> None:
        if out != "ok":
            return
        if self.model.uncertain_keys():
            # Some key's presence is crash-uncertain: a set-level digest
            # comparison would not be sound, so skip (counted).
            self.report.skipped += 1
            return
        expected_keys = self.model.kv.keys()
        self.report.checked += 1
        n = entry.get("n")
        if isinstance(n, int) and n != len(expected_keys):
            self._violate(
                entry,
                f"keys reported {n} entries but the model has "
                f"{len(expected_keys)}",
            )
            return
        digest = entry.get("keys_digest")
        if digest is not None and digest != digest_key_digests(expected_keys):
            self._violate(entry, "keys digest differs from the model's key set")

    def _op_flush(self, entry: Dict[str, Any], out: str) -> None:
        if out == "ok":
            self._last_flush = self._index

    def _op_drain(self, entry: Dict[str, Any], out: str) -> None:
        # A drain that completed after a flush, with no mutation in
        # between, is a durability barrier: everything previously written
        # is on the medium.
        if out == "ok" and self._last_flush > self._last_mutation:
            self.model.barrier()

    def _op_reboot(self, entry: Dict[str, Any], out: str) -> None:
        if out == "ok" and entry.get("mode") == "clean":
            self.model.barrier()
        else:
            # Dirty reboot, re-entrant recovery, or a reboot that errored:
            # all widen crash uncertainty.
            self.model.crash()

    def _op_scrub_repair(self, entry: Dict[str, Any], out: str) -> None:
        if out != "ok":
            return
        # Quarantine removes unrecoverable keys from the index.  Treated as
        # an attempted delete: under fault injection a partially-failing
        # disk may have quarantined keys that never made the report, so
        # widening (rather than asserting) stays sound.
        for kd in entry.get("quarantined") or []:
            self.model.attempt(kd, None)
        # Repairs rewrite the same value: no model effect.

    # ``migrate`` / ``remove_disk`` / ``return_disk`` have no handler: the
    # reference model treats migration and disk service changes as no-ops.

    def _op_bulk_create(self, entry: Dict[str, Any], out: str) -> None:
        items = entry.get("items") or []
        if out == "ok":
            self.report.checked += 1
            for kd, vd in items:
                self._write(kd, vd, certain=True)
        elif out.startswith("error:"):
            for kd, vd in items:
                self._write(kd, vd, certain=False)

    def _op_bulk_delete(self, entry: Dict[str, Any], out: str) -> None:
        items = entry.get("items") or []
        if out == "ok":
            self.report.checked += 1
            for kd in items:
                # bulk_delete skips absent keys silently (atomic best
                # effort): present keys are removed, absent keys ignored.
                if self.model.candidates(kd) != (None,):
                    self._write(kd, None, certain=True)
        elif out.startswith("error:"):
            for kd in items:
                self._write(kd, None, certain=False)

    # ------------------------------------------------------------------

    def finish(self, *, require_seal: bool = False) -> CheckReport:
        """Final verdict; with ``require_seal`` an unsealed journal (a
        truncated tail) is itself a violation."""
        if require_seal and not self.report.sealed:
            self._violate(
                {"kind": "seal"}, "journal has no seal record (truncated tail?)"
            )
        return self.report


def check_journal(
    entries: List[Dict[str, Any]], *, require_seal: bool = False
) -> CheckReport:
    """Replay a parsed journal and return the verdict."""
    checker = TraceChecker()
    for entry in entries:
        checker.feed(entry)
    return checker.finish(require_seal=require_seal)


def check_file(path: str, *, require_seal: bool = False) -> CheckReport:
    """Replay a journal file and return the verdict."""
    return check_journal(read_journal(path), require_seal=require_seal)
