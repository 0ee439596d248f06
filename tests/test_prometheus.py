"""Tests for Prometheus exposition and the ``repro metrics-serve`` node.

The scrape tests start the real stdlib HTTP server on an ephemeral port
and validate the page with a small text-format parser: every sample must
belong to a declared TYPE family, histogram buckets must be cumulative,
and the ``le="+Inf"`` bucket must agree with ``_count``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench import MetricsDemoNode, make_server
from repro.shardstore import render_prometheus
from repro.shardstore.observability import Metrics


def _parse(page):
    """-> (types, samples) where samples is [(name, labels, value)]."""
    types = {}
    samples = []
    assert page.endswith("\n")
    for line in page.rstrip("\n").split("\n"):
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
        elif line.startswith("#"):
            continue
        else:
            name_part, value = line.rsplit(" ", 1)
            if "{" in name_part:
                name, labels = name_part.split("{", 1)
                labels = labels.rstrip("}")
            else:
                name, labels = name_part, ""
            samples.append((name, labels, float(value)))
    return types, samples


def _family(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


class TestRenderPrometheus:
    def test_counters_gauges_histograms(self):
        metrics = Metrics()
        metrics.count("disk.writes", 3)
        metrics.gauge("scheduler.queue_depth", 2)
        metrics.gauge("scheduler.queue_depth", 1)
        for value in (1, 2, 3, 10):
            metrics.observe("disk.write_bytes", value)
        page = render_prometheus(metrics.snapshot())
        types, samples = _parse(page)
        by_name = {(name, labels): value for name, labels, value in samples}

        assert types["repro_disk_writes_total"] == "counter"
        assert by_name[("repro_disk_writes_total", "")] == 3
        assert types["repro_scheduler_queue_depth"] == "gauge"
        assert by_name[("repro_scheduler_queue_depth", "")] == 1
        assert by_name[("repro_scheduler_queue_depth_peak", "")] == 2
        assert types["repro_disk_write_bytes"] == "histogram"
        # Cumulative buckets over observations 1, 2, 3, 10.
        assert by_name[("repro_disk_write_bytes_bucket", 'le="1"')] == 1
        assert by_name[("repro_disk_write_bytes_bucket", 'le="2"')] == 2
        assert by_name[("repro_disk_write_bytes_bucket", 'le="4"')] == 3
        assert by_name[("repro_disk_write_bytes_bucket", 'le="16"')] == 4
        assert by_name[("repro_disk_write_bytes_bucket", 'le="+Inf"')] == 4
        assert by_name[("repro_disk_write_bytes_sum", "")] == 16
        assert by_name[("repro_disk_write_bytes_count", "")] == 4

    def test_every_sample_has_a_declared_type(self):
        metrics = Metrics()
        metrics.count("a", 1)
        metrics.gauge("b", 1)
        metrics.observe("c", 1)
        page = render_prometheus(
            metrics.snapshot(), extra_counters={"node.puts": 7}
        )
        types, samples = _parse(page)
        for name, _, _ in samples:
            assert _family(name) in types, f"{name} has no TYPE declaration"

    def test_name_sanitization_and_extra_counters(self):
        page = render_prometheus({}, extra_counters={"node.puts": 7})
        assert "repro_node_puts_total 7" in page

    def test_extra_gauges_render_as_flat_gauges(self):
        page = render_prometheus(
            {},
            extra_gauges={
                "node.disk0.breaker_state": 1,
                "node.disk0.error_rate": 0.25,
            },
        )
        types, samples = _parse(page)
        by_name = {(name, labels): value for name, labels, value in samples}
        assert types["repro_node_disk0_breaker_state"] == "gauge"
        assert by_name[("repro_node_disk0_breaker_state", "")] == 1
        assert by_name[("repro_node_disk0_error_rate", "")] == 0.25
        # Flat extras have no separate peak history: last == peak.
        assert by_name[("repro_node_disk0_error_rate_peak", "")] == 0.25

    def test_extra_gauges_merge_with_registry_gauges(self):
        metrics = Metrics()
        metrics.gauge("scheduler.queue_depth", 4)
        page = render_prometheus(
            metrics.snapshot(), extra_gauges={"node.disk1.in_service": 1.0}
        )
        assert "repro_scheduler_queue_depth 4" in page
        assert "repro_node_disk1_in_service 1" in page

    def test_health_snapshot_round_trips_through_exposition(self):
        """StorageNode.health_snapshot() -> render_prometheus: the breaker
        state, error rate and service flags of every disk appear as
        gauges, and the resilience counters as _total counters."""
        from repro.shardstore import StorageNode

        node = StorageNode(num_disks=2)
        node.put(b"k", b"v")
        health = node.health_snapshot()
        page = render_prometheus(
            {},
            extra_counters=node.stats.snapshot(),
            extra_gauges=health["gauges"],
        )
        types, samples = _parse(page)
        by_name = {(name, labels): value for name, labels, value in samples}
        for disk_id in range(2):
            prefix = f"repro_node_disk{disk_id}"
            assert types[f"{prefix}_breaker_state"] == "gauge"
            assert by_name[(f"{prefix}_breaker_state", "")] == 0  # CLOSED
            assert by_name[(f"{prefix}_error_rate", "")] == 0
            assert by_name[(f"{prefix}_in_service", "")] == 1
            assert by_name[(f"{prefix}_degraded", "")] == 0
        for counter in (
            "repro_node_retries_total",
            "repro_node_breaker_trips_total",
            "repro_node_readmissions_total",
            "repro_node_scrub_repaired_total",
            "repro_node_scrub_quarantined_total",
        ):
            assert types[counter] == "counter"
            assert by_name[(counter, "")] == 0

    def test_empty_inputs_render_empty_page(self):
        assert render_prometheus({}) == "\n"
        assert render_prometheus(None) == "\n"


def _bucket_values(samples, metric):
    rows = []
    for name, labels, value in samples:
        if name == f"{metric}_bucket":
            le = [
                part.split("=", 1)[1].strip('"')
                for part in labels.split(",")
                if part.startswith("le=")
            ][0]
            rows.append((float("inf") if le == "+Inf" else float(le), value))
    rows.sort()
    return rows


class TestMetricsServe:
    @pytest.fixture()
    def server(self):
        server, demo = make_server(
            port=0, seed=3, warmup_ops=150, ops_per_scrape=10
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", demo
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_scrape_metrics(self, server):
        base_url, _ = server
        with urllib.request.urlopen(f"{base_url}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            page = response.read().decode("utf-8")
        types, samples = _parse(page)
        names = {name for name, _, _ in samples}
        # NodeStats totals from the RPC layer are wired through.
        assert "repro_node_puts_total" in names
        assert "repro_disk_writes_total" in names
        # Breaker health gauges from health_snapshot() are wired through.
        for disk_id in range(3):
            assert f"repro_node_disk{disk_id}_breaker_state" in names
            assert f"repro_node_disk{disk_id}_error_rate" in names
            assert f"repro_node_disk{disk_id}_in_service" in names
        assert "repro_node_breaker_trips_total" in names
        assert "repro_node_retries_total" in names
        assert "repro_latency_seconds" not in types
        assert types["repro_disk_write_bytes"] == "histogram"
        # Histogram buckets are cumulative and +Inf matches _count.
        buckets = _bucket_values(samples, "repro_disk_write_bytes")
        assert buckets, "expected disk.write_bytes buckets"
        values = [value for _, value in buckets]
        assert values == sorted(values)
        counts = {
            name: value
            for name, _, value in samples
            if name == "repro_disk_write_bytes_count"
        }
        assert buckets[-1][1] == counts["repro_disk_write_bytes_count"]

    def test_scrapes_apply_fresh_traffic(self, server):
        base_url, _ = server

        def puts_total():
            with urllib.request.urlopen(f"{base_url}/metrics") as response:
                page = response.read().decode("utf-8")
            _, samples = _parse(page)
            return {name: value for name, _, value in samples}[
                "repro_node_puts_total"
            ]

        first = puts_total()
        second = puts_total()
        assert second > first

    def test_healthz(self, server):
        base_url, demo = server
        with urllib.request.urlopen(f"{base_url}/healthz") as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            payload = json.load(response)
        assert payload["status"] == "ok"
        assert set(payload["disks"]) == {"0", "1", "2"}
        assert all(
            state == "in-service" for state in payload["disks"].values()
        )
        assert payload["shards"] >= 0

    def test_unknown_path_is_404(self, server):
        base_url, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/nope")
        assert excinfo.value.code == 404


class TestMetricsDemoNode:
    def test_traffic_epochs_roll_over(self):
        demo = MetricsDemoNode(seed=1, warmup_ops=10, ops_per_scrape=5)
        demo.apply_traffic(5000)  # crosses the 4096-op epoch boundary
        assert demo._epoch >= 1
        page = demo.metrics_page()
        assert "repro_node_puts_total" in page

class TestQueueGaugeRoundTrip:
    """Admission-plane gauges: StorageNode -> health_snapshot -> exposition."""

    def _admitted_node(self):
        from repro.shardstore import StorageNode
        from repro.shardstore.resilience import AdmissionConfig

        node = StorageNode(num_disks=2, admission=AdmissionConfig())
        node.put(b"k", b"v")
        return node

    def test_queue_gauges_round_trip(self):
        node = self._admitted_node()
        page = render_prometheus(
            {},
            extra_counters=node.stats.snapshot(),
            extra_gauges=node.health_snapshot()["gauges"],
        )
        types, samples = _parse(page)
        by_name = {(name, labels): value for name, labels, value in samples}
        for disk_id in range(2):
            prefix = f"repro_node_disk{disk_id}"
            for gauge in (
                "queue_backlog_units",
                "queue_depth",
                "latency_ewma",
                "inflight",
            ):
                assert types[f"{prefix}_{gauge}"] == "gauge"
                assert (f"{prefix}_{gauge}", "") in by_name
            assert by_name[(f"{prefix}_inflight", "")] == 0
        assert types["repro_node_retry_budget_tokens"] == "gauge"
        assert (
            by_name[("repro_node_retry_budget_tokens", "")]
            == node.admission.retry_budget
        )

    def test_shed_counters_round_trip(self):
        node = self._admitted_node()
        page = render_prometheus(
            {}, extra_counters=node.stats.snapshot()
        )
        types, samples = _parse(page)
        by_name = {(name, labels): value for name, labels, value in samples}
        for counter in (
            "repro_node_shed_overload_total",
            "repro_node_shed_deadline_total",
            "repro_node_slow_trips_total",
            "repro_node_deadline_violations_total",
            "repro_node_retry_budget_exhausted_total",
        ):
            assert types[counter] == "counter"
            assert by_name[(counter, "")] == 0
        # The node keeps one copy per shard: no replica series.
        for gone in (
            "repro_node_hedges_total",
            "repro_node_replica_writes_total",
            "repro_node_replica_failures_total",
        ):
            assert gone not in types

    def test_backlog_gauge_tracks_the_virtual_queue(self):
        node = self._admitted_node()
        primary = node.route_of(b"k")
        node.lanes[primary].queue.busy_until = node.ctx.clock + 500
        gauges = node.health_snapshot()["gauges"]
        assert gauges[f"node.disk{primary}.queue_backlog_units"] >= 500


class TestServeAdmission:
    """The metrics-serve demo node runs the admission plane end to end."""

    @pytest.fixture()
    def server(self):
        server, demo = make_server(
            port=0, seed=3, warmup_ops=150, ops_per_scrape=10
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", demo
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_metrics_expose_queue_gauges(self, server):
        base_url, _ = server
        with urllib.request.urlopen(f"{base_url}/metrics") as response:
            page = response.read().decode("utf-8")
        _, samples = _parse(page)
        names = {name for name, _, _ in samples}
        for disk_id in range(3):
            prefix = f"repro_node_disk{disk_id}"
            assert f"{prefix}_queue_backlog_units" in names
            assert f"{prefix}_queue_depth" in names
            assert f"{prefix}_latency_ewma" in names
            assert f"{prefix}_inflight" in names
        assert "repro_node_retry_budget_tokens" in names
        assert "repro_node_shed_overload_total" in names
        assert "repro_node_hedges_total" not in names

    def test_healthz_reports_queue_state(self, server):
        base_url, demo = server
        with urllib.request.urlopen(f"{base_url}/healthz") as response:
            payload = json.load(response)
        assert set(payload["queues"]) == {"0", "1", "2"}
        for queue in payload["queues"].values():
            assert queue["state"] in ("ok", "degraded")
            assert queue["backlog_units"] >= 0
            assert queue["depth"] >= 0
        # Healthy demo traffic never builds a storm-scale backlog.
        assert payload["queue_state"] == "ok"

    def test_healthz_degrades_on_saturated_queue(self, server):
        base_url, demo = server
        queue = demo.node.lanes[0].queue
        before = queue.busy_until
        queue.busy_until = (
            demo.node.ctx.clock + demo.admission.max_backlog_units
        )
        try:
            with urllib.request.urlopen(f"{base_url}/healthz") as response:
                payload = json.load(response)
        finally:
            queue.busy_until = before
        assert payload["queues"]["0"]["state"] == "degraded"
        assert payload["queue_state"] == "degraded"
