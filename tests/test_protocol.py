"""Tests for the wire protocol (request routing, section 8.3's gap)."""

import pytest

from repro.shardstore import (
    DiskGeometry,
    StorageNode,
    StoreConfig,
)
from repro.shardstore.errors import (
    CorruptionError,
    InvalidRequestError,
    IoError,
    NotFoundError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
)
from repro.shardstore.protocol import (
    Request,
    Response,
    WireClient,
    decode_request,
    decode_response,
    dispatch,
    encode_request,
    encode_response,
)


def _node():
    return StorageNode(
        num_disks=2,
        config=StoreConfig(
            geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128)
        ),
    )


class TestMarshalling:
    @pytest.mark.parametrize(
        "request_",
        [
            Request(op="get", key=b"k"),
            Request(op="put", key=b"k", value=b"v" * 200),
            Request(op="delete", key=b"k"),
            Request(op="list"),
            Request(op="bulk_create", pairs=((b"a", b"1"), (b"b", b"2"))),
            Request(op="bulk_delete", keys=(b"a", b"b")),
            Request(op="migrate", key=b"k", target_disk=1),
            Request(op="scrub"),
        ],
    )
    def test_request_roundtrip(self, request_):
        assert decode_request(encode_request(request_)) == request_

    @pytest.mark.parametrize(
        "response",
        [
            Response(status="ok", value=b"data"),
            Response(status="not_found", message="gone"),
            Response(status="ok", shards=(b"a", b"b"), count=2),
            Response(status="retry", message="disk out of service"),
        ],
    )
    def test_response_roundtrip(self, response):
        assert decode_response(encode_response(response)) == response

    def test_unknown_op_rejected(self):
        from repro.serialization.codec import encode_record

        raw = encode_record({"op": "format_disk"}, 64)
        with pytest.raises(CorruptionError):
            decode_request(raw)

    def test_wrong_field_types_rejected(self):
        from repro.serialization.codec import encode_record

        for payload in (
            {"op": "get", "key": "not-bytes"},
            {"op": "put", "key": b"k", "value": 7},
            {"op": "migrate", "key": b"k", "target_disk": b"0"},
            {"op": "bulk_create", "pairs": [b"flat"]},
            {"op": "bulk_delete", "keys": [1, 2]},
            ["not", "a", "dict"],
        ):
            with pytest.raises(CorruptionError):
                decode_request(encode_record(payload, 64))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(CorruptionError):
            decode_request(b"\xff" * 100)
        with pytest.raises(CorruptionError):
            decode_response(b"")


class TestDispatch:
    def test_put_get_roundtrip_over_the_wire(self):
        node = _node()
        response = decode_response(
            dispatch(node, encode_request(Request(op="put", key=b"k", value=b"v")))
        )
        assert response.ok
        response = decode_response(
            dispatch(node, encode_request(Request(op="get", key=b"k")))
        )
        assert response.ok and response.value == b"v"

    def test_get_missing_is_not_found(self):
        response = decode_response(
            dispatch(_node(), encode_request(Request(op="get", key=b"nope")))
        )
        assert response.status == "not_found"

    def test_invalid_key_is_invalid_status(self):
        response = decode_response(
            dispatch(_node(), encode_request(Request(op="put", key=b"", value=b"v")))
        )
        assert response.status == "invalid"

    def test_list_and_bulk_over_the_wire(self):
        node = _node()
        response = decode_response(
            dispatch(
                node,
                encode_request(
                    Request(op="bulk_create", pairs=((b"a", b"1"), (b"b", b"2")))
                ),
            )
        )
        assert response.ok and response.count == 2
        response = decode_response(
            dispatch(node, encode_request(Request(op="list")))
        )
        assert response.shards == (b"a", b"b")
        response = decode_response(
            dispatch(node, encode_request(Request(op="bulk_delete", keys=(b"a",))))
        )
        assert response.ok and response.count == 1

    def test_migrate_over_the_wire(self):
        node = _node()
        dispatch(node, encode_request(Request(op="put", key=b"k", value=b"v")))
        source = node._shard_map[b"k"]
        response = decode_response(
            dispatch(
                node,
                encode_request(
                    Request(op="migrate", key=b"k", target_disk=1 - source)
                ),
            )
        )
        assert response.ok
        assert node._shard_map[b"k"] == 1 - source

    def test_scrub_over_the_wire(self):
        node = _node()
        dispatch(node, encode_request(Request(op="put", key=b"k", value=b"v")))
        response = decode_response(
            dispatch(node, encode_request(Request(op="scrub")))
        )
        assert response.ok and response.count == 0

    def test_garbage_request_yields_invalid_response(self):
        raw = dispatch(_node(), b"\x00\x01\x02 total garbage")
        response = decode_response(raw)
        assert response.status == "invalid"

    def test_dispatch_never_raises_on_fuzzed_input(self):
        import random

        node = _node()
        rng = random.Random(4)
        for _ in range(300):
            raw = bytes(rng.getrandbits(8) for _ in range(rng.randrange(120)))
            decode_response(dispatch(node, raw))


class _Raising:
    """A node whose every request-plane call raises ``error``."""

    def __init__(self, error):
        self.error = error

    def _raise(self, *args):
        raise self.error

    get = put = delete = keys = _raise


class TestWireClient:
    def test_round_trips_the_request_plane(self):
        client = WireClient(_node())
        client.put(b"k", b"v" * 200)
        assert client.get(b"k") == b"v" * 200
        assert client.keys() == [b"k"]
        client.delete(b"k")
        assert client.keys() == []

    @pytest.mark.parametrize(
        "raised, status, surfaced",
        [
            (InvalidRequestError("bad key"), "invalid", InvalidRequestError),
            (NotFoundError("no shard"), "not_found", NotFoundError),
            (RetryableError("out of service"), "retry", RetryableError),
            (OverloadedError("shed"), "retry", RetryableError),
            (CorruptionError("bad crc"), "error", ShardStoreError),
            (IoError("dead", transient=False), "error", ShardStoreError),
        ],
    )
    @pytest.mark.parametrize("call", ["get", "put", "delete", "keys"])
    def test_each_non_ok_status_raises_its_typed_error(
        self, raised, status, surfaced, call
    ):
        node = _Raising(raised)
        op = {"get": "get", "put": "put", "delete": "delete", "keys": "list"}[call]
        wire = decode_response(dispatch(node, encode_request(Request(op=op))))
        assert wire.status == status
        args = {"get": (b"k",), "put": (b"k", b"v"), "delete": (b"k",), "keys": ()}
        with pytest.raises(ShardStoreError) as info:
            getattr(WireClient(node), call)(*args[call])
        assert type(info.value) is surfaced
        assert str(info.value) == str(raised)
        assert info.value.__cause__ is None  # the wire carries no cause


class TestProtocolPanicFreedom:
    """The section 7 property extended to the wire decoders."""

    def test_request_decoder_in_fuzz_harness(self):
        from repro.serialization.fuzz import check_fuzz

        report = check_fuzz(
            decode_request,
            iterations=4000,
            seed=9,
            corpus=[encode_request(Request(op="put", key=b"k", value=b"v"))],
            name="decode_request",
        )
        assert report.passed, report.panic

    def test_response_decoder_in_fuzz_harness(self):
        from repro.serialization.fuzz import check_fuzz

        report = check_fuzz(
            decode_response,
            iterations=4000,
            seed=9,
            corpus=[encode_response(Response(status="ok", value=b"v"))],
            name="decode_response",
        )
        assert report.passed, report.panic
