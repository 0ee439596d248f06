"""The storage node's wire protocol: request/response marshalling.

The paper's section 8.3 singles out "parsing of S3's messaging protocol,
request routing, and business logic" as code the team was still working to
validate.  This module builds that layer for our node -- a compact,
self-describing wire format over the canonical value codec -- and closes
the validation gap the paper calls out:

* request/response decoders are **untrusted-byte** decoders and join the
  section 7 panic-freedom fuzz set (any input either parses or raises
  ``CorruptionError``);
* :func:`dispatch` routes a decoded request to a
  :class:`~repro.shardstore.rpc.StorageNode` and marshals the outcome;
  :class:`WireClient` is its caller's side, so conformance suites drive
  the node through the wire format itself.

Wire format: one request/response is a codec record whose payload is a
dict with an ``op``/``status`` discriminator and per-operation fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Protocol, Tuple, runtime_checkable

from repro.serialization.codec import decode_record, encode_record

from .errors import (
    CorruptionError,
    InvalidRequestError,
    NotFoundError,
    RetryableError,
    ShardStoreError,
)
from .rpc import StorageNode


@runtime_checkable
class KVNode(Protocol):
    """The unified key-value surface (tentpole of the observability API).

    Both :class:`~repro.shardstore.store.ShardStore` (one disk) and
    :class:`~repro.shardstore.rpc.StorageNode` (many disks behind the RPC
    layer) structurally conform, so harnesses, checkers, and the CLI can be
    written once against this protocol.  Contract highlights:

    * ``delete`` of an absent key raises
      :class:`~repro.shardstore.errors.KeyNotFoundError` on *both*
      surfaces -- no Optional-return branching;
    * invalid keys are rejected identically everywhere via
      :func:`~repro.shardstore.errors.validate_key`;
    * ``flush()`` returns an object whose ``is_persistent()`` becomes True
      once the flushed state is durable (a ``Dependency`` for the store, a
      cross-tracker conjunction for the node);
    * ``drain()`` writes back everything pending.
    """

    def put(self, key: bytes, value: bytes) -> Any: ...

    def get(self, key: bytes) -> bytes: ...

    def delete(self, key: bytes) -> Any: ...

    def contains(self, key: bytes) -> bool: ...

    def keys(self) -> List[bytes]: ...

    def flush(self) -> Any: ...

    def drain(self) -> None: ...

#: Protocol page size: requests are padded like on-disk records so the
#: same scan/seal tooling applies to message logs.
WIRE_PAGE = 64

OPS_WITH_KEY = ("get", "put", "delete", "migrate")


@dataclass(frozen=True)
class Request:
    """A decoded request."""

    op: str
    key: bytes = b""
    value: bytes = b""
    target_disk: int = 0
    pairs: Tuple[Tuple[bytes, bytes], ...] = ()
    keys: Tuple[bytes, ...] = ()


@dataclass(frozen=True)
class Response:
    """A decoded response."""

    status: str  # "ok" | "not_found" | "retry" | "invalid" | "error"
    value: bytes = b""
    shards: Tuple[bytes, ...] = ()
    count: int = 0
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def encode_request(request: Request) -> bytes:
    payload = {
        "op": request.op,
        "key": request.key,
        "value": request.value,
        "target_disk": request.target_disk,
        "pairs": [[k, v] for k, v in request.pairs],
        "keys": list(request.keys),
    }
    return encode_record(payload, WIRE_PAGE)


def decode_request(data: bytes) -> Request:
    """Parse an untrusted request; raises :class:`CorruptionError` only."""
    value, _ = decode_record(data, 0)
    if not isinstance(value, dict):
        raise CorruptionError("request payload is not a mapping")
    op = value.get("op")
    if op not in ("get", "put", "delete", "list", "bulk_create", "bulk_delete",
                  "migrate", "scrub"):
        raise CorruptionError(f"unknown request op {op!r}")
    key = value.get("key", b"")
    raw_value = value.get("value", b"")
    target = value.get("target_disk", 0)
    if not isinstance(key, bytes) or not isinstance(raw_value, bytes):
        raise CorruptionError("request key/value must be bytes")
    if not isinstance(target, int):
        raise CorruptionError("request target_disk must be an integer")
    raw_pairs = value.get("pairs", [])
    pairs: List[Tuple[bytes, bytes]] = []
    if not isinstance(raw_pairs, list):
        raise CorruptionError("request pairs must be a list")
    for item in raw_pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], bytes)
            or not isinstance(item[1], bytes)
        ):
            raise CorruptionError("malformed bulk pair")
        pairs.append((item[0], item[1]))
    raw_keys = value.get("keys", [])
    if not isinstance(raw_keys, list) or not all(
        isinstance(k, bytes) for k in raw_keys
    ):
        raise CorruptionError("request keys must be a list of bytes")
    return Request(
        op=op,
        key=key,
        value=raw_value,
        target_disk=target,
        pairs=tuple(pairs),
        keys=tuple(raw_keys),
    )


def encode_response(response: Response) -> bytes:
    payload = {
        "status": response.status,
        "value": response.value,
        "shards": list(response.shards),
        "count": response.count,
        "message": response.message,
    }
    return encode_record(payload, WIRE_PAGE)


def decode_response(data: bytes) -> Response:
    """Parse an untrusted response; raises :class:`CorruptionError` only."""
    value, _ = decode_record(data, 0)
    if not isinstance(value, dict):
        raise CorruptionError("response payload is not a mapping")
    status = value.get("status")
    if status not in ("ok", "not_found", "retry", "invalid", "error"):
        raise CorruptionError(f"unknown response status {status!r}")
    body = value.get("value", b"")
    if not isinstance(body, bytes):
        raise CorruptionError("response value must be bytes")
    raw_shards = value.get("shards", [])
    if not isinstance(raw_shards, list) or not all(
        isinstance(s, bytes) for s in raw_shards
    ):
        raise CorruptionError("response shards must be a list of bytes")
    count = value.get("count", 0)
    if not isinstance(count, int):
        raise CorruptionError("response count must be an integer")
    message = value.get("message", "")
    if not isinstance(message, str):
        raise CorruptionError("response message must be a string")
    return Response(
        status=status,
        value=body,
        shards=tuple(raw_shards),
        count=count,
        message=message,
    )


def dispatch(node: StorageNode, raw_request: bytes) -> bytes:
    """Decode, route, execute, and marshal one request.

    Malformed bytes become an ``invalid`` response rather than an
    exception: the node must shrug off garbage from the network exactly as
    it shrugs off garbage from the disk.
    """
    try:
        request = decode_request(raw_request)
    except CorruptionError as exc:
        return encode_response(Response(status="invalid", message=str(exc)))
    try:
        return encode_response(_execute(node, request))
    except InvalidRequestError as exc:
        return encode_response(Response(status="invalid", message=str(exc)))
    except NotFoundError as exc:
        return encode_response(Response(status="not_found", message=str(exc)))
    except RetryableError as exc:
        return encode_response(Response(status="retry", message=str(exc)))
    except ShardStoreError as exc:
        return encode_response(Response(status="error", message=str(exc)))


def _execute(node: StorageNode, request: Request) -> Response:
    if request.op == "get":
        return Response(status="ok", value=node.get(request.key))
    if request.op == "put":
        node.put(request.key, request.value)
        return Response(status="ok")
    if request.op == "delete":
        node.delete(request.key)
        return Response(status="ok")
    if request.op == "list":
        return Response(status="ok", shards=tuple(node.keys()))
    if request.op == "bulk_create":
        count = node.bulk_create(list(request.pairs))
        return Response(status="ok", count=count)
    if request.op == "bulk_delete":
        count = node.bulk_delete(list(request.keys))
        return Response(status="ok", count=count)
    if request.op == "migrate":
        moved = node.migrate_shard(request.key, request.target_disk)
        return Response(status="ok" if moved else "not_found")
    if request.op == "scrub":
        reports = node.scrub_all()
        bad = sum(len(report.errors) for report in reports.values())
        return Response(
            status="ok" if bad == 0 else "error",
            count=bad,
            message="" if bad == 0 else f"{bad} corrupt chunks found",
        )
    raise InvalidRequestError(f"unroutable op {request.op!r}")


#: The error each non-ok status stands for: the inverse of :func:`dispatch`.
STATUS_ERRORS = {
    "invalid": InvalidRequestError,
    "not_found": NotFoundError,
    "retry": RetryableError,
    "error": ShardStoreError,
}


class WireClient:
    """A node's request plane reached only through the wire format.

    Each call encodes a :class:`Request`, runs it through :func:`dispatch`
    and decodes the :class:`Response`; a non-ok status raises the typed
    error it stands for, so a caller sees the node's error contract.  The
    wire carries no ``__cause__``: a ``retry`` arrives cause-less.
    """

    def __init__(self, node: StorageNode) -> None:
        self.node = node

    def call(self, request: Request) -> Response:
        response = decode_response(dispatch(self.node, encode_request(request)))
        if not response.ok:
            raise STATUS_ERRORS[response.status](response.message)
        return response

    def put(self, key: bytes, value: bytes) -> None:
        self.call(Request(op="put", key=key, value=value))

    def get(self, key: bytes) -> bytes:
        return self.call(Request(op="get", key=key)).value

    def delete(self, key: bytes) -> None:
        self.call(Request(op="delete", key=key))

    def keys(self) -> List[bytes]:
        return list(self.call(Request(op="list")).shards)
