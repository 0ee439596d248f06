"""Outside-in tracer: spans around the public methods of each layer.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the listed methods *as class attributes* with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so only the traced run
pays for it.  Each call becomes a span (name, start, end, parent); the
spans under one top-level call form one *op* and share its op id.

A span's self time is its duration minus the part its child spans cover.
The root span is the traced window itself; its self time is what no layer
accounts for (driver loop, unwrapped helpers) and is reported as
``unattributed``.  By construction the self times sum to the window, with
the wrappers' own cost landing in the caller's self time --
``trace.overhead_ratio`` says how much that is.
"""

from __future__ import annotations

import heapq
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.antientropy import AntiEntropyService
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.core.alphabet import Alphabet
from repro.core.conformance import Harness
from repro.shardstore import (
    BufferCache,
    ChunkStore,
    InMemoryDisk,
    IoScheduler,
    LsmIndex,
    Reclaimer,
    ShardStore,
    StorageNode,
    Superblock,
)
from repro.shardstore.merkle import MerkleMap

_KV = ("put", "get", "delete", "contains")

#: layer -> (class, public methods wrapped), outermost layer first.
LAYERS: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    "conformance": (Alphabet, ("generate_sequence",)),
    "router": (ClusterRouter, _KV),
    "ring": (HashRing, ("preference_list",)),
    "antientropy": (AntiEntropyService, ("maybe_run",)),
    "merkle": (MerkleMap, ("set", "remove")),
    "node": (StorageNode, _KV + ("flush", "drain")),
    "store": (ShardStore, _KV + ("flush", "drain")),
    "lsm": (LsmIndex, ("put", "get", "delete", "flush", "compact")),
    "chunk_store": (
        ChunkStore, ("put_shard", "get_shard", "put_chunk", "get_chunk")
    ),
    "cache": (BufferCache, ("read", "append")),
    "superblock": (Superblock, ("note_append", "maybe_flush", "flush")),
    "scheduler": (
        IoScheduler,
        ("append", "read", "pump_one", "drain", "flush_coalesced", "reset"),
    ),
    "disk": (InMemoryDisk, ("write", "read", "reset")),
    "reclaimer": (Reclaimer, ("reclaim",)),
}

#: A second class of the ``conformance`` layer (a layer is one module).
_EXTRA = (("conformance", Harness, ("run",)),)

#: Span names whose every duration is kept, for the per-method medians.
SAMPLED = ("router.put", "router.get") + tuple(f"node.{m}" for m in _KV)

ROOT = "driver"


def _by_layer(per_span: Dict[str, int]) -> Dict[str, int]:
    """Sum a per-span-name aggregate over each layer's methods."""
    out: Dict[str, int] = {}
    for name, value in per_span.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + value
    return out


class Tracer:
    """Span stack, per-name aggregates and the slowest op trees."""

    def __init__(self, keep_slowest: int = 20) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.samples: Dict[str, array] = {name: array("q") for name in SAMPLED}
        self.ops = 0  # top-level spans seen, i.e. the last op id
        self.window_ns = 0
        self.unattributed_ns = 0
        self._keep = keep_slowest
        self._slowest: List[Tuple[int, int, List[list]]] = []
        #: Open spans as ``[child_ns, span_index]``; entry 0 is the root.
        self._stack: List[List[int]] = []
        #: Spans of the op in flight: ``[name, start, end, parent_index]``.
        self._spans: List[list] = []
        self._started = 0
        self._installed: List[Tuple[type, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span called ``name`` around every call."""
        stack, spans = self._stack, self._spans
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        sample = self.samples.get(name)
        now = time.perf_counter_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        total_ns.setdefault(name, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside start()/stop(): not part of the window
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, 0, 0, parent[1]]
            frame = [0, len(spans)]
            spans.append(span)
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                span[1] = start
                span[2] = end
                parent[0] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[0]
                total_ns[name] += duration
                if sample is not None:
                    sample.append(duration)
                if len(stack) == 1:
                    self._end_op(duration)

        return traced

    def install(self) -> None:
        """Wrap every listed method as a class attribute."""
        listed = [(layer, cls, names) for layer, (cls, names) in LAYERS.items()]
        for layer, cls, names in (*listed, *_EXTRA):
            for method in names:
                original = cls.__dict__[method]
                self._installed.append((cls, method, original))
                setattr(cls, method, self.wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    # -- the traced window ------------------------------------------------

    def start(self) -> None:
        self._stack.append([0, -1])
        self._started = time.perf_counter_ns()

    def stop(self) -> None:
        self.window_ns = time.perf_counter_ns() - self._started
        self.unattributed_ns = self.window_ns - self._stack.pop()[0]

    def _end_op(self, duration: int) -> None:
        self.ops += 1
        if len(self._slowest) < self._keep:
            heapq.heappush(
                self._slowest, (duration, self.ops, list(self._spans))
            )
        elif duration > self._slowest[0][0]:
            heapq.heapreplace(
                self._slowest, (duration, self.ops, list(self._spans))
            )
        self._spans.clear()

    # -- results ----------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer, the root's share under ``driver``."""
        return {ROOT: self.unattributed_ns, **_by_layer(self.self_ns)}

    def layer_calls(self) -> Dict[str, int]:
        return _by_layer(self.calls)

    def slowest_ops(self) -> List[Dict[str, Any]]:
        """Span trees of the slowest ops, slowest first, times from op start."""
        trees = []
        for duration, op_id, spans in sorted(self._slowest, reverse=True):
            origin = spans[0][1]
            trees.append(
                {
                    "op_id": op_id,
                    "duration_ns": duration,
                    "spans": [
                        {
                            "name": name,
                            "start_ns": start - origin,
                            "end_ns": end - origin,
                            "parent": parent,
                        }
                        for name, start, end, parent in spans
                    ],
                }
            )
        return trees
