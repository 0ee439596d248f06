"""Tests for the clock discipline: who may read one, and what is left.

The substrate is a pure function of seed and input, so only three modules
under ``src/repro`` may import a clock at all (DESIGN.md "Clocks").
Beside that: the span-to-component rule behind ``repro trace
--component``, and the hot-path guard -- with recording disabled, a
10k-op loop must never invoke the recorder at all.
"""

import ast
import pathlib

import pytest

import repro
from repro.cluster import ClusterConfig, ClusterRouter
from repro.shardstore import (
    DiskGeometry,
    NullRecorder,
    StorageNode,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.errors import NotFoundError
from repro.shardstore.observability import component_of_latency
from repro.shardstore.observability.recorder import NULL_SPAN


class TestClockImports:
    def test_only_the_three_edges_import_a_clock(self):
        root = pathlib.Path(repro.__file__).parent
        importers = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] in ("time", "datetime") for m in modules):
                    importers.add(path.relative_to(root).as_posix())
        assert importers == {
            "bench/harness.py",
            "campaign/runner.py",
            "concurrency/scheduler.py",
        }


class TestComponentOfLatency:
    @pytest.mark.parametrize(
        "name,component",
        [
            ("put", "op"),
            ("flush", "op"),
            ("bench.put", "bench"),
            ("node.get", "node"),
            ("disk.write", "disk"),
            ("lsm.flush", "lsm"),
            ("cache.fill", "cache"),
            ("scheduler.pump_one", "scheduler"),
            ("reclaim", "reclaim"),
            ("scrub", "scrub"),
        ],
    )
    def test_prefix_grouping(self, name, component):
        assert component_of_latency(name) == component


class _SpyRecorder(NullRecorder):
    """Counts every recorder invocation; guarded hot paths must make none."""

    def __init__(self):
        self.calls = []

    def span(self, name, **fields):
        self.calls.append(("span", name))
        return NULL_SPAN

    def event(self, name, **fields):
        self.calls.append(("event", name))

    def fault_event(self, fault, detail=""):
        self.calls.append(("fault_event", fault.name))


class TestHotPathOverhead:
    def test_disabled_recorder_sees_zero_calls_over_10k_ops(self):
        """Satellite (b): with recording off, the request path -- puts,
        gets, deletes, flushes, scheduler pumps, and any reclamation they
        trigger -- must not touch the recorder at all."""
        spy = _SpyRecorder()
        config = StoreConfig(
            geometry=DiskGeometry(
                num_extents=48, extent_size=32768, page_size=512
            ),
            max_chunk_payload=4096,
            memtable_flush_threshold=64,
            buffer_cache_pages=64,
            recorder=spy,
        )
        store = StoreSystem(config).store
        spy.calls.clear()  # setup may legitimately log; the loop may not

        keys = [b"hot-%03d" % index for index in range(32)]
        for key in keys:
            store.put(key, b"v" * 64)
        for index in range(10_000):
            key = keys[index % len(keys)]
            kind = index % 4
            if kind in (0, 1):
                store.put(key, b"v" * 64)
            elif kind == 2:
                store.get(key)
            else:
                store.contains(key)
            if index % 256 == 0:
                store.flush()
        store.flush()
        store.drain()

        assert spy.calls == []

    def test_disabled_recorder_sees_zero_calls_over_a_10k_op_node_loop(self):
        """ROADMAP 2c: the node's routing, admission and breaker layer adds
        no unguarded recorder call on top of the store's."""
        spy = _SpyRecorder()
        node = StorageNode(
            num_disks=3,
            config=StoreConfig(
                geometry=DiskGeometry(
                    num_extents=48, extent_size=32768, page_size=512
                ),
                max_chunk_payload=4096,
                memtable_flush_threshold=64,
                buffer_cache_pages=64,
                recorder=spy,
            ),
        )
        spy.calls.clear()  # setup may legitimately log; the loop may not

        _kv_loop(node, ops=10_000, flush_every=128, drain_every=1024)
        node.flush()
        node.drain()

        assert spy.calls == []

    def test_disabled_recorder_sees_zero_calls_over_a_2k_op_router_loop(self):
        """ROADMAP 2c: quorum fan-out, hinted handoff and anti-entropy on
        top of five nodes, still without touching a disabled recorder."""
        spy = _SpyRecorder()
        router = ClusterRouter(
            ClusterConfig(
                anti_entropy=True,
                geometry=DiskGeometry(
                    num_extents=48, extent_size=32768, page_size=256
                ),
            ),
            recorder=spy,
        )
        spy.calls.clear()

        # The router has no flush/drain of its own (every replica ack
        # drains); a partitioned member makes the loop queue and replay hints.
        _kv_loop(router, ops=500)
        router.partition_node(0)
        _kv_loop(router, ops=500)
        router.heal_partition(0)
        _kv_loop(router, ops=1_000)
        router.settle()

        assert router.stats["hints_replayed"] > 0
        assert spy.calls == []


def _kv_loop(kv, *, ops, flush_every=0, drain_every=0):
    """put/get/delete/contains (and flush/drain, where the system under test
    has them) over 32 keys, as a ``KVNode`` client would issue them."""
    keys = [b"hot-%03d" % index for index in range(32)]
    for key in keys:
        kv.put(key, b"v" * 64)
    for index in range(ops):
        key = keys[index % len(keys)]
        kind = index % 8
        try:
            if kind in (0, 1, 2):
                kv.put(key, b"v" * 64)
            elif kind in (3, 4, 5):
                kv.get(key)
            elif kind == 6:
                kv.contains(key)
            else:
                kv.delete(key)
        except NotFoundError:
            pass  # a get or delete after this key's delete
        if flush_every and (index + 1) % flush_every == 0:
            kv.flush()
        if drain_every and (index + 1) % drain_every == 0:
            kv.drain()
