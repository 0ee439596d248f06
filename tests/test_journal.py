"""Tests for the chained op journal (the evidence plane's write side).

Two properties carry the whole design and are pinned here byte-for-byte:
determinism (same seed => byte-identical journal file, any worker count)
and tamper evidence (any edit, reorder, interior delete, or truncated
tail is detectable from the file alone).
"""

import json

import pytest

from repro.bench import run_bench
from repro.shardstore import RingRecorder, StorageNode, StoreConfig
from repro.errors import NotFoundError
from repro.shardstore.observability import render_snapshot, render_trace
from repro.shardstore.observability.journal import (
    GENESIS_CHAIN,
    Journal,
    JournalEnvelope,
    JournalError,
    canonical_json,
    chain_digest,
    digest_bytes,
    digest_key_digests,
    digest_keys,
    read_journal,
)


def envelope_problems(entries, *, require_seal=False):
    """Every ``(record index, rule)`` the envelope flags in ``entries``
    (the end-of-journal rules at index ``len(entries)``)."""
    envelope = JournalEnvelope()
    found = [
        (index, rule)
        for index, entry in enumerate(entries)
        for rule, _problem in envelope.feed(entry)
    ]
    found += [
        (len(entries), rule)
        for rule, _problem in envelope.finish(require_seal=require_seal)
    ]
    return found


def _node_with_journal(path=None):
    journal = Journal(path, meta={"source": "test"})
    config = StoreConfig(journal=journal)
    return StorageNode(3, config), journal


class TestChainPrimitives:
    def test_digest_bytes_is_short_and_stable(self):
        assert digest_bytes(b"k1") == digest_bytes(b"k1")
        assert len(digest_bytes(b"k1")) == 16
        assert digest_bytes(b"k1") != digest_bytes(b"k2")

    def test_digest_keys_sorts_by_digest(self):
        # Order-insensitive, and recomputable from digests alone -- the
        # trace checker never sees raw keys.
        keys = [b"b", b"a", b"c"]
        assert digest_keys(keys) == digest_keys(list(reversed(keys)))
        assert digest_keys(keys) == digest_key_digests(
            digest_bytes(k) for k in keys
        )

    def test_chain_digest_depends_on_prev_and_body(self):
        body = canonical_json({"kind": "put"})
        assert chain_digest(GENESIS_CHAIN, body) != chain_digest("f" * 16, body)
        assert chain_digest(GENESIS_CHAIN, body) != chain_digest(
            GENESIS_CHAIN, canonical_json({"kind": "get"})
        )


class TestJournalLifecycle:
    def test_genesis_then_ops_then_seal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        node, journal = _node_with_journal(path=path)
        node.put(b"k", b"v")
        assert node.get(b"k") == b"v"
        node.delete(b"k")
        head = journal.close()
        entries = read_journal(path)
        assert entries[0]["kind"] == "genesis"
        assert entries[-1]["kind"] == "seal"
        assert [e["kind"] for e in entries[1:-1]] == ["put", "get", "delete"]
        assert entries[-1]["counts"] == {
            "delete:ok": 1,
            "get:ok": 1,
            "put:ok": 1,
        }
        assert entries[-1]["chain"] == head
        assert envelope_problems(entries, require_seal=True) == []

    def test_nesting_guard_one_record_per_node_op(self):
        # A node put fans out to per-disk store ops (primary + replica)
        # through the same journal; only the outermost op may record.
        node, journal = _node_with_journal()
        node.put(b"k", b"v")
        puts = [e for e in journal.entries if e.get("kind") == "put"]
        assert len(puts) == 1

    def test_op_ids_strictly_increase_in_record_order(self):
        node, journal = _node_with_journal()
        for i in range(8):
            node.put(b"k%d" % i, b"v")
        journal.record_op("breaker", out="open")
        node.get(b"k0")
        journal.close()
        ids = [e["op"] for e in journal.entries if "op" in e]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_error_outcomes_are_classified(self):
        node, journal = _node_with_journal()
        with pytest.raises(NotFoundError):
            node.get(b"missing")
        assert journal.entries[-1]["kind"] == "get"
        assert journal.entries[-1]["out"] == "not_found"

    def test_sealed_journal_rejects_writes(self):
        journal = Journal()
        journal.close()
        assert journal.record_op("put", key=b"k", value=b"v") is None
        assert journal.close() == journal.head  # idempotent

    def test_no_raw_bytes_in_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        node, journal = _node_with_journal(path=path)
        node.put(b"sekrit-key", b"sekrit-value")
        journal.close()
        raw = (tmp_path / "j.jsonl").read_text()
        assert "sekrit" not in raw


class TestTamperEvidence:
    def _journal_lines(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        artifact = run_bench(
            "mixed", ops=120, seed=11, journal_path=path
        )
        assert artifact["journal"]["head"] == read_journal(path)[-1]["chain"]
        return path, (tmp_path / "j.jsonl").read_text().splitlines()

    def test_edited_record_breaks_chain(self, tmp_path):
        path, lines = self._journal_lines(tmp_path)
        victim = json.loads(lines[3])
        victim["out"] = "not_found" if victim.get("out") == "ok" else "ok"
        lines[3] = canonical_json(victim)
        problems = envelope_problems([json.loads(line) for line in lines])
        assert problems[0] == (3, "chain")

    def test_deleted_interior_record_breaks_chain(self, tmp_path):
        path, lines = self._journal_lines(tmp_path)
        del lines[4]
        problems = envelope_problems([json.loads(line) for line in lines])
        assert (4, "chain") in problems

    def test_reordered_records_break_chain(self, tmp_path):
        path, lines = self._journal_lines(tmp_path)
        lines[3], lines[4] = lines[4], lines[3]
        problems = envelope_problems([json.loads(line) for line in lines])
        assert (3, "chain") in problems

    def test_truncated_tail_drops_seal(self, tmp_path):
        path, lines = self._journal_lines(tmp_path)
        entries = [json.loads(line) for line in lines[:-1]]
        assert envelope_problems(entries) == []  # chain intact...
        # ...but the seal is gone
        assert envelope_problems(entries, require_seal=True) == [
            (len(entries), "seal-last")
        ]

    def test_read_journal_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(JournalError):
            read_journal(str(bad))
        with pytest.raises(JournalError):
            read_journal(str(tmp_path / "missing.jsonl"))


class TestJournalDeterminism:
    @pytest.mark.parametrize("workload", ["mixed", "crash-recover"])
    def test_same_seed_byte_identical_journal(self, tmp_path, workload):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        art_a = run_bench(workload, ops=200, seed=13, journal_path=str(a))
        art_b = run_bench(workload, ops=200, seed=13, journal_path=str(b))
        assert a.read_bytes() == b.read_bytes()
        assert art_a["journal"]["head"] == art_b["journal"]["head"]

    def test_different_seed_different_journal(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_bench("mixed", ops=200, seed=13, journal_path=str(a))
        run_bench("mixed", ops=200, seed=14, journal_path=str(b))
        assert read_journal(str(a))[-1]["chain"] != read_journal(str(b))[-1]["chain"]


class TestTraceDroppedCounter:
    def test_ring_eviction_is_counted_and_rendered(self):
        recorder = RingRecorder(capacity=8)
        for i in range(20):
            recorder.event("e%d" % i)
        snapshot = recorder.snapshot()
        assert snapshot["trace_dropped"] == 12
        rendered = render_snapshot(snapshot)
        assert "evicted 12 older entries" in rendered

    def test_no_eviction_no_noise(self):
        recorder = RingRecorder(capacity=64)
        recorder.event("only")
        snapshot = recorder.snapshot()
        assert "trace_dropped" not in snapshot
        assert "evicted" not in render_trace(snapshot["trace"])
