"""Tests for the op envelope (``journal.journaled``).

Every client-visible op of ``ShardStore``, ``StorageNode`` and
``StoreSystem`` is declared once through the envelope.  Pinned here: one
journaled call is one record with exactly the declared fields (nested
store ops stay invisible), errors become ``classify_error`` outcomes and
re-raise the same object, rejected requests leave no record, and an
unobserved object (no journal, ``NullRecorder``) calls nothing on either.
"""

import pytest

from repro.shardstore import (
    DiskGeometry,
    InvalidRequestError,
    KVNode,
    NotFoundError,
    ShardStore,
    StorageNode,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.observability import Journal, NullRecorder, RingRecorder
from repro.shardstore.observability.journal import journaled
from repro.shardstore.rpc import PROBE_KEY

_GEOMETRY = DiskGeometry(num_extents=10, extent_size=2048, page_size=128)

#: Every record carries these; the tables below list what each op adds.
_COMMON = {"kind", "op", "out", "tick", "chain"}

#: op -> (call, record kind, extra record fields).  ``kv`` is the object
#: under test, pre-loaded with ``b"k"``.
_KV_OPS = {
    "put": (lambda kv: kv.put(b"new", b"v"), "put", {"key", "value"}),
    "get": (lambda kv: kv.get(b"k"), "get", {"key", "value"}),
    "delete": (lambda kv: kv.delete(b"k"), "delete", {"key"}),
    "contains": (lambda kv: kv.contains(b"k"), "contains", {"key", "result"}),
    "keys": (lambda kv: kv.keys(), "keys", {"n", "keys_digest"}),
    "flush": (lambda kv: kv.flush(), "flush", set()),
    "drain": (lambda kv: kv.drain(), "drain", set()),
}

_STORE_OPS = {
    **_KV_OPS,
    "merkle_scrub": (lambda s: s.merkle_scrub(), "merkle_scrub", {"proven", "root"}),
    "scrub_repair": (lambda s: s.scrub_repair(), "scrub_repair", set()),
    "scrub_repair(merkle)": (
        lambda s: s.scrub_repair(merkle=True),
        "scrub_repair",
        {"proven"},
    ),
}

_NODE_OPS = {
    **_KV_OPS,
    "remove_disk": (lambda n: n.remove_disk(0), "remove_disk", {"disk", "migrated"}),
    "return_disk": (lambda n: n.return_disk(1), "return_disk", {"disk"}),
    "migrate_shard": (
        lambda n: n.migrate_shard(b"k", (n.route_of(b"k") + 1) % 3),
        "migrate",
        {"key", "disk", "result"},
    ),
    "scrub_repair_all": (lambda n: n.scrub_repair_all(), "scrub_repair", set()),
    "bulk_create": (
        lambda n: n.bulk_create([(b"a", b"1"), (b"b", b"2")]),
        "bulk_create",
        {"items", "n"},
    ),
    "bulk_delete": (lambda n: n.bulk_delete([b"k"]), "bulk_delete", {"items", "n"}),
}

_REBOOTS = {
    "clean_reboot": "clean",
    "dirty_reboot": "dirty",
    "recover_again": "recover",
}


def _config(journal=None, recorder=None):
    extra = {} if recorder is None else {"recorder": recorder}
    return StoreConfig(geometry=_GEOMETRY, journal=journal, **extra)


def _build(kind, journal=None, recorder=None):
    config = _config(journal, recorder)
    if kind == "node":
        kv = StorageNode(num_disks=3, config=config)
    else:
        kv = StoreSystem(config).store
    kv.put(b"k", b"v" * 40)
    return kv


def _ops_since(journal, mark):
    return [e for e in journal.entries[mark:] if e["kind"] != "genesis"]


def test_kv_table_covers_the_protocol():
    protocol = {name for name in vars(KVNode) if not name.startswith("_")}
    assert protocol == set(_KV_OPS)


@pytest.mark.parametrize(
    "kind,name",
    [("store", name) for name in _STORE_OPS] + [("node", name) for name in _NODE_OPS],
)
def test_one_call_is_one_record_with_the_declared_fields(kind, name):
    call, record_kind, extra = (_STORE_OPS if kind == "store" else _NODE_OPS)[name]
    journal = Journal()
    kv = _build(kind, journal)
    if name == "return_disk":
        kv.remove_disk(1)
    mark = len(journal.entries)
    call(kv)
    records = _ops_since(journal, mark)
    assert [r["kind"] for r in records] == [record_kind]
    assert set(records[0]) == _COMMON | extra
    assert records[0]["out"] == "ok"


@pytest.mark.parametrize("method,mode", sorted(_REBOOTS.items()))
def test_reboots_are_one_record_with_their_mode(method, mode):
    journal = Journal()
    system = StoreSystem(_config(journal))
    system.store.put(b"k", b"v")
    mark = len(journal.entries)
    getattr(system, method)()
    (record,) = _ops_since(journal, mark)
    assert set(record) == _COMMON | {"mode"}
    assert (record["kind"], record["mode"], record["out"]) == ("reboot", mode, "ok")


@pytest.mark.parametrize("kind", ["store", "node"])
def test_an_error_is_classified_and_the_same_object_re_raised(kind):
    journal = Journal()
    kv = _build(kind, journal)
    boom = NotFoundError("planted")
    target = kv if kind == "store" else kv.lanes[kv.route_of(b"k")].store
    target.index.get = lambda key: (_ for _ in ()).throw(boom)
    mark = len(journal.entries)
    with pytest.raises(NotFoundError) as info:
        kv.get(b"k")
    assert info.value is boom
    (record,) = _ops_since(journal, mark)
    assert record["out"] == "not_found"
    assert set(record) == _COMMON | {"key"}


def test_unclassified_errors_are_named_by_type():
    journal = Journal()
    node = _build("node", journal)
    mark = len(journal.entries)
    with pytest.raises(InvalidRequestError):
        node.remove_disk(0), node.remove_disk(0)
    assert [r["out"] for r in _ops_since(journal, mark)] == [
        "ok",
        "error:InvalidRequestError",
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda n: n.put(b"", b"v"),
        lambda n: n.get("not-bytes"),
        lambda n: n.contains(PROBE_KEY),
        lambda n: n.remove_disk(7),
        lambda n: n.return_disk(-1),
        lambda n: n.migrate_shard(b"k", 9),
        lambda n: n.bulk_delete([b"k", PROBE_KEY]),
    ],
)
def test_a_rejected_request_leaves_no_record(call):
    journal = Journal()
    node = _build("node", journal)
    mark = len(journal.entries)
    with pytest.raises(InvalidRequestError):
        call(node)
    assert _ops_since(journal, mark) == []
    assert node.contains(b"k")  # and nothing was touched


def test_spans_sit_inside_the_record_and_carry_key_and_size():
    recorder = RingRecorder()
    journal = Journal()
    journal.attach_recorder(recorder)
    store = _build("store", journal, recorder)
    mark = len(journal.entries)
    store.put(b"key", b"12345")
    (record,) = _ops_since(journal, mark)
    assert record["spans"][0] == "put"
    span = next(
        e for e in reversed(recorder.trace()) if e["type"] == "span" and e["name"] == "put"
    )
    assert span["fields"] == {"key": repr(b"key"), "size": 5}


class _Spy:
    """Fails the test on any attribute access except the declared ones."""

    def __init__(self, **allowed):
        self.__dict__.update(allowed)

    def __getattr__(self, name):
        raise AssertionError(f"unobserved envelope touched .{name}")


def test_unobserved_envelope_calls_nothing_on_journal_or_recorder():
    """With ``journal=None`` the envelope must not look for journal methods,
    and a disabled recorder is only ever asked whether it is enabled."""

    class Thing:
        journal = None
        recorder = _Spy(enabled=False)

        @journaled("op", key=bytes, value=True, span="thing.op", classify=dict)
        def op(self, key, value, *, flag=False):
            return {"flag": flag}

    assert Thing().op(b"k", b"v", flag=True) == {"flag": True}

    calls = []
    methods = ("span", "timed", "count", "gauge", "observe", "event", "fault_event")
    spy = type(
        "Counting",
        (NullRecorder,),
        {m: (lambda self, *a, _m=m, **k: calls.append(_m)) for m in methods},
    )()
    node = _build("node", recorder=spy)
    calls.clear()
    node.put(b"a", b"1")
    node.get(b"a")
    node.contains(b"a")
    node.delete(b"a")
    node.flush()
    node.drain()
    assert calls == []


def test_enveloped_ops_stay_plain_class_attributes():
    """The ladder tracer swaps these with ``setattr`` on the class."""
    for cls in (ShardStore, StorageNode):
        for name in ("put", "get", "delete", "contains", "flush", "drain"):
            fn = cls.__dict__[name]
            assert callable(fn) and fn.__name__ == name and fn.__doc__ == (
                fn.__wrapped__.__doc__
            )
