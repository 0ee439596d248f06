"""Durable operation journal: the evidence plane's chained JSONL log.

The validation story so far only produces evidence *inside* purpose-built
harnesses: a PBT run or a campaign shard checks conformance while it
executes, then throws the history away.  The journal turns any live run --
``repro bench``, the metrics demo node, a campaign shard -- into *checkable
evidence after the fact*: one ordered JSONL log of every request-plane
operation (op id, kind, key/value digests, outcome, logical tick, causal
component spans, retry/fault context) plus the resilience plane's breaker
transitions, sheds, scrub repairs and reboots.

Two properties make the log evidence rather than debug output:

* **Determinism** -- records carry logical ticks and digests only, never
  wall-clock time or raw payload bytes, so the same seed and workload
  produce a byte-identical journal (the PR 1 determinism contract extended
  to journals).
* **Tamper evidence** -- every record carries a ``chain`` digest over the
  record body and the previous record's chain (a hash chain).  Editing,
  reordering or deleting an interior record breaks the chain; deleting the
  tail removes the ``seal`` record written by :meth:`Journal.close`.

Offline tooling lives in :mod:`repro.evidence`: ``repro check-trace``
replays a journal against the flat reference model and ``repro invariants``
mines Daikon-style properties from it.

Nesting guard
-------------
One journal instance is shared by a :class:`~repro.shardstore.rpc.
StorageNode` and all its per-disk stores (``StoreConfig.journal`` is
propagated).  Only the *outermost* operation emits a record: a node ``put``
that delegates to a per-disk store ``put`` (plus breaker probes and
demotion migrations) is one logical operation and must produce one
record, from the layer the client actually called.  ``begin_op`` tracks
depth; nested calls are invisible.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from ..errors import (
    DeadlineExceededError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
)

_T = TypeVar("_T")

__all__ = [
    "CHAIN_LEN",
    "DIGEST_LEN",
    "GENESIS_CHAIN",
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "bool_outcome",
    "canonical_json",
    "chain_digest",
    "classify_error",
    "digest_bytes",
    "digest_key_digests",
    "digest_keys",
    "journal_head",
    "journaled",
    "keys_outcome",
    "read_journal",
    "repair_outcome",
    "seal_on_signal",
    "value_outcome",
    "verify_chain",
]

#: Journal record-format version (bumped on incompatible schema changes).
JOURNAL_VERSION = 1

#: Hex chars of SHA-256 kept for key/value digests (64-bit identification;
#: journals never carry raw key or value bytes).
DIGEST_LEN = 16

#: Hex chars of the per-record hash-chain digest.
CHAIN_LEN = 16

#: The chain value "before" the genesis record.
GENESIS_CHAIN = "0" * CHAIN_LEN

#: Cap on causal span names attached to one op record (the op's own
#: component spans; deterministic, so a cap truncates identically on every
#: rerun).
MAX_OP_SPANS = 12


class JournalError(Exception):
    """A journal file could not be read or written."""


def digest_bytes(data: bytes) -> str:
    """Stable short digest of raw key/value bytes (never the bytes)."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_LEN]


def digest_keys(keys: List[bytes]) -> str:
    """Order-insensitive digest of a key *set* (for ``keys`` op records).

    Sorted by per-key digest (not raw key) so the trace checker, which
    only ever sees digests, can recompute it from the model's key set.
    """
    return digest_key_digests(digest_bytes(key) for key in keys)


def digest_key_digests(key_digests: Iterable[str]) -> str:
    """:func:`digest_keys` over already-digested keys."""
    h = hashlib.sha256()
    for kd in sorted(key_digests):
        h.update(kd.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()[:DIGEST_LEN]


def canonical_json(body: Dict[str, Any]) -> str:
    """The canonical encoding the chain digest is computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def chain_digest(prev: str, body_json: str) -> str:
    """Next chain value: hash of the previous chain plus the record body."""
    return hashlib.sha256((prev + body_json).encode("utf-8")).hexdigest()[
        :CHAIN_LEN
    ]


def classify_error(exc: BaseException) -> str:
    """Map an exception to a journal outcome string.

    Typed sheds get their own outcomes (the checker proves they left state
    unchanged); not-found is an ordinary semantic outcome; anything else is
    ``error:<Type>`` (the checker treats the op's effect as uncertain).
    """
    if isinstance(exc, OverloadedError):
        return "shed_overload"
    if isinstance(exc, DeadlineExceededError):
        return "shed_deadline"
    if isinstance(exc, (NotFoundError, KeyNotFoundError)):
        return "not_found"
    return f"error:{type(exc).__name__}"


class Journal:
    """Append-only JSONL op journal with a per-record hash chain.

    ``path=None`` keeps the journal in memory only (campaign shards, the
    metrics demo node); with a path every record is written through as it
    is produced.  Records are retained in memory either way -- journals
    are bounded by the run that produces them, and in-process consumers
    (the live conformance checker, the evidence gauges) read
    :attr:`entries` without re-parsing.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        meta: Optional[Dict[str, Any]] = None,
        node: Optional[str] = None,
    ) -> None:
        self.path = path
        self.meta: Dict[str, Any] = dict(meta or {})
        #: Journal identity.  In a cluster every per-node journal (and the
        #: router's own) carries a distinct ``node`` id in its genesis meta
        #: *and in every record body*, so merged multi-journal tooling
        #: (``repro invariants``, the cluster trace checker) attributes each
        #: witness to the node that produced it instead of colliding on
        #: per-journal op ids.  The id participates in the hash chain, so
        #: two nodes' journals can never be spliced into one another.
        self.node = node
        if node is not None:
            self.meta.setdefault("node", node)
        #: Parsed records, in write order (including genesis and seal).
        self.entries: List[Dict[str, Any]] = []
        self.head = GENESIS_CHAIN
        self.records_written = 0
        self.bytes_written = 0
        self.sealed = False
        self._seq = 0  # monotone op id
        self._depth = 0  # nesting guard (see module docstring)
        self._open: Optional[Dict[str, Any]] = None
        self._counts: Dict[str, int] = {}
        self._annotation: Dict[str, Any] = {}
        self._recorder: Any = None
        self._fh = open(path, "w", encoding="utf-8") if path else None
        try:
            self._write({"kind": "genesis", "v": JOURNAL_VERSION, "meta": self.meta})
        except Exception:
            if self._fh is not None:
                self._fh.close()
            raise

    # ------------------------------------------------------------------
    # recorder streaming (causal spans / fault context)

    def attach_recorder(self, recorder: Any) -> None:
        """Stream a :class:`RingRecorder`'s spans/fault events into op
        records and stamp records with its logical tick."""
        self._recorder = recorder
        recorder.journal = self

    def on_trace_entry(self, entry: Dict[str, Any]) -> None:
        """Called by an attached recorder for every trace-ring entry."""
        record = self._open
        if record is None:
            return
        if entry.get("type") == "span":
            spans = record.setdefault("spans", [])
            if len(spans) < MAX_OP_SPANS:
                spans.append(entry["name"])
        elif entry.get("type") == "event" and entry.get("name") == "fault":
            record["faults"] = record.get("faults", 0) + 1

    def note_retry(self) -> None:
        """Count one retry attempt against the currently open op."""
        record = self._open
        if record is not None:
            record["retries"] = record.get("retries", 0) + 1

    def annotate(self, **fields: Any) -> None:
        """Attach ``fields`` to the *next* record this journal emits.

        The cluster router uses this to stamp each replica-side record with
        the cluster op id (``cop``) that caused it, so the merged-journal
        checker can corroborate an acknowledged quorum write against the
        per-node journals of its ackers.  Consumed by the first emitted
        record; a nested (suppressed) op does not consume it.
        """
        self._annotation.update(fields)

    def _tick_now(self) -> int:
        if self._recorder is not None:
            return self._recorder._tick
        return self.records_written

    # ------------------------------------------------------------------
    # op lifecycle

    def begin_op(
        self,
        kind: str,
        *,
        key: Optional[bytes] = None,
        value: Optional[bytes] = None,
        fields: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Open a top-level op; returns None (and emits nothing) if nested.

        Every ``begin_op`` must be balanced by :meth:`end_op` -- including
        the nested case -- so the depth guard stays consistent across
        exceptions.
        """
        self._depth += 1
        if self._depth > 1 or self.sealed:
            return None
        # The op id is allocated at *write* time (see end_op): records land
        # in completion order, and a standalone record_op (say, a breaker
        # transition fired mid-drain) may be written while this op is still
        # open.  Begin-time ids would then go backwards in the file.
        record: Dict[str, Any] = {"kind": kind}
        if key is not None:
            record["key"] = digest_bytes(key)
        if value is not None:
            record["value"] = digest_bytes(value)
        if fields:
            record.update(fields)
        if self._annotation:
            record.update(self._annotation)
            self._annotation = {}
        self._open = record
        return record

    def end_op(
        self, handle: Optional[Dict[str, Any]], out: str, **fields: Any
    ) -> None:
        """Close an op opened by :meth:`begin_op` and write its record."""
        self._depth = max(0, self._depth - 1)
        if handle is None:
            return
        self._open = None
        self._seq += 1
        handle["op"] = self._seq
        handle["out"] = out
        for name, val in fields.items():
            if val is not None:
                handle[name] = val
        handle["tick"] = self._tick_now()
        self._bump(handle["kind"], out)
        self._write(handle)

    def record_op(
        self,
        kind: str,
        *,
        key: Optional[bytes] = None,
        value: Optional[bytes] = None,
        out: str = "ok",
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        """Write one standalone record (breaker transition, mutant probe).

        Unlike :meth:`begin_op`, this ignores the nesting guard: breaker
        transitions triggered mid-operation are still evidence and land in
        write order, before the record of the op that triggered them.
        """
        if self.sealed:
            return None
        self._seq += 1
        record: Dict[str, Any] = {"op": self._seq, "kind": kind, "out": out}
        if key is not None:
            record["key"] = digest_bytes(key)
        if value is not None:
            record["value"] = digest_bytes(value)
        for name, val in fields.items():
            if val is not None:
                record[name] = val
        if self._annotation:
            record.update(self._annotation)
            self._annotation = {}
        record["tick"] = self._tick_now()
        self._bump(kind, out)
        self._write(record)
        return record

    def close(self) -> str:
        """Seal the journal (counter summary + final chain) and return the
        chain head.  A journal missing its seal was truncated."""
        if self.sealed:
            return self.head
        counts = {name: self._counts[name] for name in sorted(self._counts)}
        self._write(
            {
                "kind": "seal",
                "ops": self._seq,
                "records": self.records_written + 1,
                "counts": counts,
            }
        )
        self.sealed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self.head

    # ------------------------------------------------------------------
    # internals

    def _bump(self, kind: str, out: str) -> None:
        name = f"{kind}:{out}"
        self._counts[name] = self._counts.get(name, 0) + 1

    def _write(self, body: Dict[str, Any]) -> None:
        if self.sealed:
            raise JournalError("journal is sealed")
        if self.node is not None and "node" not in body:
            body["node"] = self.node
        body_json = canonical_json(body)
        chain = chain_digest(self.head, body_json)
        record = dict(body)
        record["chain"] = chain
        line = canonical_json(record)
        self.head = chain
        self.entries.append(record)
        self.records_written += 1
        self.bytes_written += len(line) + 1
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()


# Result classifiers of the ``KVNode`` ops: both implementations' envelopes
# name the same record fields, which is what the trace checker reads.


def value_outcome(value: bytes) -> Dict[str, Any]:
    return {"value": digest_bytes(value)}


def bool_outcome(result: Any) -> Dict[str, Any]:
    return {"result": bool(result)}


def keys_outcome(keys: List[bytes]) -> Dict[str, Any]:
    return {"n": len(keys), "keys_digest": digest_keys(keys)}


def repair_outcome(*reports: Any) -> Dict[str, Any]:
    """Sorted key digests healed/quarantined over some ``RepairReport``\\ s."""
    return {
        name: sorted(digest_bytes(k) for r in reports for k in getattr(r, name))
        or None
        for name in ("repaired", "quarantined")
    }


def journaled(
    kind: str,
    *,
    key: Optional[Callable[[Any], None]] = None,
    value: bool = False,
    check: Optional[Callable[..., None]] = None,
    fields: Optional[Callable[..., Dict[str, Any]]] = None,
    classify: Optional[Callable[[Any], Dict[str, Any]]] = None,
    span: Optional[str] = None,
) -> Callable[[Callable[..., _T]], Callable[..., _T]]:
    """The op envelope: declare a client-visible op of a ``KVNode`` once.

    Decorates a method of an object that has a ``journal`` attribute (a
    :class:`Journal` or None) and, when ``span`` is given, a ``recorder``.
    ``check`` and ``fields`` receive the method's positional arguments,
    ``self`` included:

    * ``key`` -- the validator of the first argument, which makes it the
      shard key: digested into the record, ``key=`` on the span.
    * ``value`` -- the second argument is the value: digested into the
      record, ``size=`` on the span.
    * ``check`` -- further request validation.  Like the key validator it
      runs before the record opens, so a rejected request leaves no record.
    * ``fields`` -- record fields known before the op runs.
    * ``classify(result)`` -- record fields derived from a successful
      result (a get's value digest, a contains' boolean).  An exception
      becomes the :func:`classify_error` outcome and propagates unchanged.
    * ``span`` -- a recorder span around the body, inside the record.

    With no journal and a disabled recorder the envelope is one frame that
    calls the body and touches neither.  (``self`` stays inside ``args`` so
    that call forwards the tuple it received instead of building one.)
    """

    def decorate(body: Callable[..., _T]) -> Callable[..., _T]:
        def spanned(*args: Any, **kwargs: Any) -> _T:
            tags: Dict[str, Any] = {}
            if key is not None:
                tags["key"] = repr(args[1])
            if value:
                tags["size"] = len(args[2])
            with args[0].recorder.span(span, **tags):
                return body(*args, **kwargs)

        @functools.wraps(body)
        def op(*args: Any, **kwargs: Any) -> _T:
            if key is not None:
                key(args[1])
            if check is not None:
                check(*args)
            self = args[0]
            run = spanned if span is not None and self.recorder.enabled else body
            journal = self.journal
            if journal is None:
                return run(*args, **kwargs)
            handle = journal.begin_op(
                kind,
                key=args[1] if key is not None else None,
                value=args[2] if value else None,
                fields=fields(*args) if fields is not None else None,
            )
            try:
                result = run(*args, **kwargs)
            except BaseException as exc:
                journal.end_op(handle, classify_error(exc))
                raise
            # A nested op (no handle) emits nothing, so it classifies nothing.
            emits = handle is not None and classify is not None
            journal.end_op(handle, "ok", **(classify(result) if emits else {}))
            return result

        return op

    return decorate


# ----------------------------------------------------------------------
# graceful shutdown


class seal_on_signal:
    """Context manager: seal journals even when the run is interrupted.

    A journal missing its seal record reads as truncated (``--require-seal``
    fails), so a bench run or metrics server killed by Ctrl-C or a
    supervisor's SIGTERM would leave evidence that cannot be
    distinguished from tampering.  This installs SIGINT/SIGTERM handlers
    that convert the signal into a :class:`KeyboardInterrupt` (so the
    wrapped loop unwinds through its normal cleanup) and, on *any* exit,
    seals every journal (idempotent -- :meth:`Journal.close` on a sealed
    journal just returns the head) before restoring the previous
    handlers.  Journal writes flush per record, so everything up to the
    interrupt is already on disk; the seal makes the tail verifiable.

    Handlers can only be installed from the main thread; elsewhere this
    degrades to seal-on-exit only.
    """

    def __init__(self, *journals: Optional[Journal]) -> None:
        self.journals = [j for j in journals if j is not None]
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "seal_on_signal":
        import signal

        def interrupt(signum: int, frame: Any) -> None:
            raise KeyboardInterrupt(f"signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, interrupt)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        import signal

        for journal in self.journals:
            try:
                journal.close()
            except Exception:  # noqa: BLE001 - best-effort on shutdown
                pass
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# offline helpers (the ``repro check-trace`` / ``repro invariants`` side)


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a journal file into its records (no verification)."""
    entries: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError as exc:
                    raise JournalError(
                        f"{path}:{lineno}: invalid journal record: {exc}"
                    ) from exc
                if not isinstance(entry, dict):
                    raise JournalError(
                        f"{path}:{lineno}: journal record is not an object"
                    )
                entries.append(entry)
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    return entries


def verify_chain(entries: List[Dict[str, Any]]) -> List[str]:
    """Recompute the hash chain; returns problems (empty = intact).

    A record whose stored chain does not match the recomputation was
    edited, reordered, or had a predecessor deleted.  Verification resumes
    from the stored value so one tampered record reports once rather than
    cascading.
    """
    problems: List[str] = []
    if not entries:
        return ["journal is empty (no genesis record)"]
    if entries[0].get("kind") != "genesis":
        problems.append("first record is not a genesis record")
    prev = GENESIS_CHAIN
    for index, entry in enumerate(entries):
        stored = entry.get("chain")
        body = {name: val for name, val in entry.items() if name != "chain"}
        expected = chain_digest(prev, canonical_json(body))
        if stored != expected:
            problems.append(
                f"record {index} (kind={entry.get('kind')!r}): chain digest "
                f"mismatch -- tampered, reordered, or a predecessor deleted"
            )
            prev = stored if isinstance(stored, str) else expected
        else:
            prev = expected
    return problems


def journal_head(entries: List[Dict[str, Any]]) -> str:
    """The chain head (last record's chain) of a parsed journal."""
    if not entries:
        return GENESIS_CHAIN
    chain = entries[-1].get("chain")
    return chain if isinstance(chain, str) else GENESIS_CHAIN
