"""Tests for coverage metrics and the Fig. 5/Fig. 6 report rendering."""

import os

import pytest

from repro.core import (
    DetectionOutcome,
    count_lines,
    detection_matrix,
    loc_table,
    measure,
)
from repro.core.coverage import CoverageReport
from repro.core.report import BEYOND_PAPER_CATEGORIES, FIG6_CATEGORIES
from repro.shardstore import Fault, StoreConfig, StoreSystem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED_PATHS = [
    path
    for categories in (FIG6_CATEGORIES, BEYOND_PAPER_CATEGORIES)
    for paths in categories.values()
    for path in paths
]


class TestLineCoverage:
    def test_measure_records_implementation_lines(self):
        def body():
            system = StoreSystem(StoreConfig(seed=0))
            system.store.put(b"k", b"v" * 100)
            system.store.get(b"k")

        report = measure(body)
        assert report.count() > 50
        files = report.by_file()
        assert "store.py" in files
        assert "lsm.py" in files

    def test_harness_code_not_counted(self):
        def body():
            pass

        report = measure(body)
        assert report.count() == 0

    def test_set_operations(self):
        a = CoverageReport(lines={("f.py", 1), ("f.py", 2)})
        b = CoverageReport(lines={("f.py", 2), ("f.py", 3)})
        assert a.minus(b).lines == {("f.py", 1)}
        assert a.union(b).count() == 3

    def test_deeper_workload_covers_more(self):
        def shallow():
            StoreSystem(StoreConfig(seed=0))

        def deep():
            system = StoreSystem(StoreConfig(seed=0))
            for i in range(10):
                system.store.put(b"k%d" % i, bytes([i]) * 150)
            system.store.flush_index()
            system.store.compact()
            system.clean_reboot()

        assert measure(deep).count() > measure(shallow).count()


class TestDetectionMatrix:
    def test_renders_all_rows(self):
        outcomes = [
            DetectionOutcome(fault=fault, detected=True, detector="x")
            for fault in Fault
        ]
        table = detection_matrix(outcomes)
        for fault in Fault:
            assert f"#{fault.value}" in table
        assert "detected: 16/16" in table

    def test_misses_are_visible(self):
        outcomes = [
            DetectionOutcome(
                fault=fault, detected=fault.value != 3, detector="x"
            )
            for fault in Fault
        ]
        table = detection_matrix(outcomes)
        assert "NO" in table
        assert "detected: 15/16" in table

    def test_grouped_by_paper_property(self):
        table = detection_matrix([])
        assert table.index("Functional Correctness") < table.index(
            "Crash Consistency"
        ) < table.index("Concurrency")


class TestLocTable:
    def test_count_lines_file_and_tree(self):
        this_file = os.path.abspath(__file__)
        assert count_lines(this_file) > 10
        assert count_lines(os.path.dirname(this_file)) > count_lines(this_file)
        with pytest.raises(FileNotFoundError):
            count_lines("/nonexistent/path")

    def test_every_listed_path_exists(self):
        for path in LISTED_PATHS:
            assert os.path.exists(os.path.join(REPO_ROOT, path)), path

    def test_rows_partition_the_package(self):
        """Every .py under src/repro is counted by exactly one row, so a
        PR that moves or deletes code shows up in ``repro loc``."""
        package = os.path.join(REPO_ROOT, "src", "repro")
        for root, _, files in os.walk(package):
            for name in files:
                if not name.endswith(".py"):
                    continue
                relative = os.path.relpath(
                    os.path.join(root, name), REPO_ROOT
                ).replace(os.sep, "/")
                owners = [
                    path
                    for path in LISTED_PATHS
                    if relative == path or relative.startswith(path + "/")
                ]
                assert len(owners) == 1, (relative, owners)

    def test_loc_table_renders(self):
        table = loc_table(REPO_ROOT)
        assert "Implementation" in table
        assert "Reference models" in table
        assert "Total" in table
        assert "%" in table
