"""``repro metrics-serve``: a live demo node behind ``/metrics``.

Runs a :class:`~repro.shardstore.rpc.StorageNode` with a
:class:`~repro.shardstore.observability.RingRecorder`, applies a
deterministic warmup workload, and serves:

* ``/metrics``  -- Prometheus text format over the node's metric registry
  and the RPC layer's ``NodeStats`` totals.
  The demo node runs with the deadline-aware admission plane enabled, so
  per-disk queue gauges (``queue_backlog_units``, ``queue_depth``,
  ``latency_ewma``, ``inflight``) and the shed counters are live.
  Each scrape also applies a small slice of fresh mixed traffic so the
  counters move like a node under load.
* ``/healthz``  -- JSON liveness: disk service states, shard count, and
  the per-disk admission-queue view (``queues`` + a rolled-up
  ``queue_state`` of ``ok``/``degraded``).

``--cluster N`` swaps the single node for a :class:`ClusterMetricsDemo`:
a quorum :class:`~repro.cluster.router.ClusterRouter` over N storage
nodes, with breaker/queue/shed series broken out per member via
the ``{node="nodeK"}`` label, a deterministic partition storm every few
scrapes so the per-node series visibly diverge, and a ``/healthz``
cluster roll-up that reports ``degraded`` whenever any member is
unreachable or the reachable count drops below the replication factor.

Stdlib ``http.server`` only.  Single-threaded by design: request handling
and workload application never interleave.  SIGTERM/SIGINT unwind through
:class:`~repro.shardstore.observability.journal.seal_on_signal`, so a
supervisor stop still seals every evidence journal.
"""

from __future__ import annotations

import json
import random
import re
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import (
    DegradedReadError,
    DegradedWriteError,
    KeyNotFoundError,
)
from repro.evidence import TraceChecker, check_cluster_journals
from repro.cluster import ClusterConfig, ClusterRouter
from repro.shardstore import StorageNode
from repro.shardstore.observability import (
    Journal,
    RingRecorder,
    render_prometheus,
    seal_on_signal,
)
from repro.shardstore.resilience import AdmissionConfig, BreakerState

from .harness import _Target, execute_op
from .workloads import generate_ops, value_for

__all__ = [
    "ClusterMetricsDemo",
    "MetricsDemoNode",
    "make_server",
    "serve",
]

#: Ops generated per traffic epoch; the cursor wraps to a fresh epoch
#: (seed+epoch) when exhausted, so the node never runs out of traffic.
_EPOCH_OPS = 4096


class MetricsDemoNode:
    """The live node plus its rolling traffic generator."""

    def __init__(
        self,
        *,
        seed: int = 0,
        num_disks: int = 3,
        value_size: int = 64,
        warmup_ops: int = 400,
        ops_per_scrape: int = 25,
        admission: Optional[AdmissionConfig] = None,
        journal_path: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.value_size = value_size
        self.ops_per_scrape = ops_per_scrape
        self.recorder = RingRecorder()
        # The evidence plane runs live: every op lands in the journal
        # (in-memory unless a path is given) and is replayed against the
        # reference model by an incremental trace checker, whose verdict
        # is exported on /metrics and /healthz.
        self.journal = Journal(
            journal_path, meta={"source": "metrics-serve", "seed": seed}
        )
        self.journal.attach_recorder(self.recorder)
        self.checker = TraceChecker()
        self._fed = 0
        # The demo node runs the deadline-aware request plane by default:
        # healthy demo traffic never sheds, but the queue gauges, shed
        # counters, and retry-budget token gauge are live on /metrics.
        self.admission = admission if admission is not None else AdmissionConfig()
        self._target = _Target(
            "node", "mixed", seed, num_disks, self.recorder,
            admission=self.admission, journal=self.journal,
        )
        self._epoch = 0
        self._sequence = generate_ops("mixed", _EPOCH_OPS, value_size, seed)
        self._cursor = 0
        self.apply_traffic(warmup_ops)
        # Write back the warmup so disk/scheduler counters are live from
        # the first scrape.
        self._target.settle()

    @property
    def node(self) -> StorageNode:
        return self._target.node  # type: ignore[return-value]

    def apply_traffic(self, ops: int) -> None:
        for _ in range(max(0, ops)):
            if self._cursor >= len(self._sequence):
                self._epoch += 1
                self._sequence = generate_ops(
                    "mixed", _EPOCH_OPS, self.value_size,
                    self.seed + self._epoch,
                )
                self._cursor = 0
            execute_op(
                self._target, self._sequence[self._cursor], self.value_size
            )
            self._cursor += 1

    def check_evidence(self) -> dict:
        """Feed new journal records to the live checker; running verdict."""
        while self._fed < len(self.journal.entries):
            self.checker.feed(self.journal.entries[self._fed])
            self._fed += 1
        report = self.checker.report
        return {
            "journal_records": self.journal.records_written,
            "journal_bytes": self.journal.bytes_written,
            "chain_head": self.journal.head,
            "violations": report.violation_count,
            "passed": report.passed,
        }

    def metrics_page(self) -> str:
        self.apply_traffic(self.ops_per_scrape)
        evidence = self.check_evidence()
        gauges = dict(self.node.health_snapshot()["gauges"])
        gauges["journal.records"] = evidence["journal_records"]
        gauges["journal.bytes"] = evidence["journal_bytes"]
        # The 48-bit chain-head prefix fits a float gauge exactly; two
        # scrapes with equal gauges saw the same journal prefix.
        gauges["journal.chain_head"] = int(evidence["chain_head"][:12], 16)
        gauges["evidence.violations"] = evidence["violations"]
        return render_prometheus(
            self.recorder.metrics.snapshot(),
            extra_counters=self.node.stats.snapshot(),
            extra_gauges=gauges,
        )

    def healthz(self) -> dict:
        node = self.node
        gauges = node.health_snapshot()["gauges"]
        queues = {}
        degraded_queues = 0
        for disk_id in range(node.num_disks):
            prefix = f"node.disk{disk_id}"
            backlog = int(gauges.get(f"{prefix}.queue_backlog_units", 0))
            slow = node.breaker_state(disk_id) is BreakerState.SLOW
            # A queue is degraded when its backlog crosses half the shed
            # bound (the next storm wave would shed) or its disk has been
            # demoted SLOW by the brownout detector.
            degraded = slow or (
                backlog >= self.admission.max_backlog_units // 2
            )
            degraded_queues += degraded
            queues[str(disk_id)] = {
                "backlog_units": backlog,
                "depth": int(gauges.get(f"{prefix}.queue_depth", 0)),
                "state": "degraded" if degraded else "ok",
            }
        return {
            "status": "ok",
            "disks": {
                str(disk_id): (
                    "removed"
                    if not node.in_service(disk_id)
                    else "degraded"
                    if node.degraded(disk_id)
                    else "in-service"
                )
                for disk_id in range(node.num_disks)
            },
            "queues": queues,
            "queue_state": "degraded" if degraded_queues else "ok",
            "shards": len(node.keys()),
            "evidence": self.check_evidence(),
        }


#: Per-disk gauge names rolled up per node by taking the worst value
#: (anything else -- backlog, depth, inflight -- sums across disks).
_MAX_GAUGES = ("breaker_state", "error_rate", "degraded")

_DISK_GAUGE = re.compile(r"^node\.disk\d+\.(.+)$")


class ClusterMetricsDemo:
    """A live quorum cluster behind ``/metrics`` and ``/healthz``.

    Drives a :class:`ClusterRouter` (admission plane on) with rolling
    mixed traffic.  Every ``storm_every``-th scrape partitions one
    member for the duration of the next traffic slice -- hints queue,
    degraded writes fire, and the per-node labeled series drift apart;
    the partition heals (replaying hints) at the start of the following
    scrape, so ``/healthz`` shows the cluster roll-up flip between
    ``ok`` and ``degraded`` as you watch.

    Evidence runs live too: one journal per member plus the router's,
    re-checked by the merged multi-journal replay on every scrape.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        cluster_nodes: int = 5,
        value_size: int = 64,
        warmup_ops: int = 300,
        ops_per_scrape: int = 25,
        storm_every: int = 4,
        journal_path: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.value_size = value_size
        self.ops_per_scrape = ops_per_scrape
        self.storm_every = storm_every
        self.journals: List[Journal] = []

        def factory(identity: str, meta: Dict[str, Any]) -> Journal:
            # The router journal (the op-ordering spine) goes to disk when
            # a path is given; member journals stay in memory.
            path = journal_path if identity == "router" else None
            journal = Journal(
                path,
                meta=dict(meta, source="metrics-serve", seed=seed),
                node=identity,
            )
            self.journals.append(journal)
            return journal

        self.router = ClusterRouter(
            ClusterConfig(
                num_nodes=cluster_nodes,
                seed=seed,
                admission=AdmissionConfig(),
                # Merkle anti-entropy on: the per-node ``repro_merkle_root``
                # gauges drift apart during a partition storm and snap back
                # together as op-clocked sync rounds repair the lag.
                anti_entropy=True,
            ),
            journal_factory=factory,
        )
        self.rng = random.Random(seed ^ 0x5EED)
        self._scrapes = 0
        self._partitioned: Optional[int] = None
        self.apply_traffic(warmup_ops)

    @property
    def journal(self) -> Journal:
        """The router journal (the one ``--journal`` writes to disk)."""
        return self.router.journal  # type: ignore[return-value]

    def apply_traffic(self, ops: int) -> None:
        for index in range(max(0, ops)):
            key = b"cd-%03d" % self.rng.randrange(64)
            roll = self.rng.random()
            try:
                if roll < 0.55:
                    self.router.put(key, value_for(key, self.value_size))
                elif roll < 0.85:
                    self.router.get(key)
                elif roll < 0.95:
                    self.router.delete(key)
                else:
                    self.router.contains(key)
            except (DegradedWriteError, DegradedReadError, KeyNotFoundError):
                # Typed degradation is a legitimate outcome mid-partition;
                # the router's counters already recorded it.
                pass

    def _advance_storm(self) -> None:
        """Heal last scrape's partition; maybe start the next one."""
        if self._partitioned is not None:
            self.router.heal_partition(self._partitioned)
            self._partitioned = None
        self._scrapes += 1
        if self.storm_every and self._scrapes % self.storm_every == 0:
            victims = [
                nid
                for nid, cn in sorted(self.router.nodes.items())
                if cn.reachable
            ]
            if len(victims) > self.router.config.write_quorum:
                self._partitioned = victims[
                    self.rng.randrange(len(victims))
                ]
                self.router.partition_node(self._partitioned)

    def check_evidence(self) -> dict:
        """Merged-journal replay over every live (unsealed) journal."""
        report = check_cluster_journals(
            [journal.entries for journal in self.journals]
        )
        return {
            "journals": len(self.journals),
            "records": report.records,
            "checked": report.checked,
            "corroborated": report.corroborated,
            "violations": report.violation_count,
            "passed": report.passed,
        }

    def _labeled_series(
        self,
    ) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, float]]]:
        counters: Dict[str, Dict[str, int]] = {}
        gauges: Dict[str, Dict[str, float]] = {}
        for node_id, cn in sorted(self.router.nodes.items()):
            if cn.removed:
                continue
            label = f"node{node_id}"
            for name, value in cn.node.stats.snapshot().items():
                counters.setdefault(f"cluster.{name}", {})[label] = value
            rollup: Dict[str, List[float]] = {}
            for name, value in cn.node.health_snapshot()["gauges"].items():
                match = _DISK_GAUGE.match(name)
                if match:
                    rollup.setdefault(match.group(1), []).append(value)
            for suffix, values in rollup.items():
                agg = max(values) if suffix in _MAX_GAUGES else sum(values)
                gauges.setdefault(f"cluster.node.{suffix}", {})[label] = agg
            gauges.setdefault("cluster.node.reachable", {})[label] = float(
                cn.reachable
            )
            gauges.setdefault("cluster.node.hints_pending", {})[label] = (
                self.router.hints_pending(node_id)
            )
            for name, value in self.router.hint_stats.get(
                node_id, {}
            ).items():
                counters.setdefault(f"cluster.node.hints_{name}", {})[
                    label
                ] = value
        for node_id, root in self.router.antientropy.numeric_roots().items():
            gauges.setdefault("merkle.root", {})[f"node{node_id}"] = float(
                root
            )
        return counters, gauges

    def metrics_page(self) -> str:
        self._advance_storm()
        self.apply_traffic(self.ops_per_scrape)
        counters, gauges = self._labeled_series()
        evidence = self.check_evidence()
        quorum = self.router.quorum_health()
        extra_gauges: Dict[str, float] = {
            "cluster.nodes": quorum["nodes"],
            "cluster.reachable": quorum["reachable"],
            "cluster.replication": quorum["replication"],
            "cluster.quorum_ok": float(quorum["quorum_ok"]),
            "cluster.degraded": float(quorum["degraded"]),
            "journal.records": sum(
                journal.records_written for journal in self.journals
            ),
            "evidence.violations": evidence["violations"],
        }
        return render_prometheus(
            None,
            extra_counters={
                f"cluster.{name}": value
                for name, value in self.router.stats.items()
            },
            extra_gauges=extra_gauges,
            labeled_counters=counters,
            labeled_gauges=gauges,
        )

    def healthz(self) -> dict:
        snapshot = self.router.health_snapshot()
        cluster = snapshot["cluster"]
        # Degraded the moment any member is partitioned/crashed/demoted
        # or the reachable count can no longer hold ``replication`` full
        # copies -- the cluster still serves quorums, but with thinner
        # margins than the placement promises.  Replica divergence counts
        # too: unequal placement-group Merkle roots mean some replica is
        # provably lagging, even if every member answers.
        divergence = self.router.antientropy.converged_snapshot()
        degraded = (
            cluster["degraded"]
            or cluster["below_replication"]
            or not divergence["converged"]
        )
        anti_entropy = dict(snapshot["anti_entropy"])
        anti_entropy.update(
            converged=divergence["converged"],
            divergent_groups=divergence["divergent"],
            placement_groups=divergence["groups"],
        )
        return {
            "status": "degraded" if degraded else "ok",
            "cluster": cluster,
            "anti_entropy": anti_entropy,
            "nodes": snapshot["nodes"],
            "evidence": self.check_evidence(),
        }


#: Either demo flavor; both expose metrics_page()/healthz()/journal.
_Demo = Union[MetricsDemoNode, ClusterMetricsDemo]


class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        demo: _Demo = self.server.demo_node  # type: ignore[attr-defined]
        if self.path in ("/metrics", "/metrics/"):
            body = demo.metrics_page().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif self.path in ("/healthz", "/healthz/"):
            body = (json.dumps(demo.healthz()) + "\n").encode("utf-8")
            content_type = "application/json"
        else:
            self.send_error(404, "try /metrics or /healthz")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    demo: Optional[_Demo] = None,
    cluster_nodes: int = 0,
    **demo_kwargs,
) -> Tuple[HTTPServer, _Demo]:
    """Build (but do not start) the HTTP server; port 0 picks a free port.

    ``cluster_nodes > 0`` serves a :class:`ClusterMetricsDemo` over that
    many members instead of the single-node demo.
    """
    if demo is None:
        if cluster_nodes:
            demo_kwargs.pop("num_disks", None)
            demo_kwargs.pop("admission", None)
            demo = ClusterMetricsDemo(
                cluster_nodes=cluster_nodes, **demo_kwargs
            )
        else:
            demo = MetricsDemoNode(**demo_kwargs)
    server = HTTPServer((host, port), _MetricsHandler)
    server.demo_node = demo  # type: ignore[attr-defined]
    return server, demo


def serve(
    host: str = "127.0.0.1",
    port: int = 9464,
    *,
    log=print,
    **demo_kwargs,
) -> int:  # pragma: no cover - blocking CLI loop; tested via make_server
    server, demo = make_server(host, port, **demo_kwargs)
    server.verbose = True  # type: ignore[attr-defined]
    bound_host, bound_port = server.server_address[:2]
    mode = (
        f"cluster of {len(demo.router.members)} nodes"
        if isinstance(demo, ClusterMetricsDemo)
        else "single node"
    )
    log(
        f"serving Prometheus metrics ({mode}) on "
        f"http://{bound_host}:{bound_port}/metrics "
        "(healthz on /healthz); Ctrl-C to stop"
    )
    journals = getattr(demo, "journals", None) or [demo.journal]
    # SIGTERM from a supervisor (or Ctrl-C) unwinds through here, so the
    # evidence journal(s) are sealed -- chain-verifiable with
    # ``--require-seal`` -- even on an interrupted serve.
    with seal_on_signal(*journals):
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            log("shutting down (sealing journals)")
        finally:
            server.server_close()
    return 0
