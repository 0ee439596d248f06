"""Tests for the ``python -m repro`` validation CLI."""

import pytest

from repro.cli import main


class TestConformanceCommand:
    def test_clean_run_exits_zero(self, capsys):
        status = main(["conformance", "--sequences", "5", "--ops", "30"])
        assert status == 0
        assert "PASS" in capsys.readouterr().out

    def test_fault_detection_exits_one(self, capsys):
        status = main(
            [
                "conformance",
                "--alphabet",
                "crash",
                "--fault",
                "CACHE_WRITE_MISSING_SOFT_PTR_DEP",
                "--sequences",
                "10",
            ]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "failing seed" in out

    def test_minimize_flag_prints_reproducer(self, capsys):
        status = main(
            [
                "conformance",
                "--alphabet",
                "crash",
                "--fault",
                "CACHE_WRITE_MISSING_SOFT_PTR_DEP",
                "--sequences",
                "10",
                "--minimize",
            ]
        )
        assert status == 1
        assert "minimized" in capsys.readouterr().out

    def test_node_alphabet(self, capsys):
        status = main(
            ["conformance", "--alphabet", "node", "--sequences", "5", "--ops", "30"]
        )
        assert status == 0

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            main(["conformance", "--fault", "NOT_A_FAULT"])


class TestMcCommand:
    def test_clean_harness_passes(self, capsys):
        status = main(
            ["mc", "--harness", "list-remove", "--iterations", "30", "--seed", "3"]
        )
        assert status == 0

    def test_injected_race_detected(self, capsys):
        status = main(
            [
                "mc",
                "--harness",
                "list-remove",
                "--fault",
                "LIST_REMOVE_RACE",
                "--iterations",
                "120",
                "--seed",
                "3",
            ]
        )
        assert status == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.slow
    def test_dfs_strategy(self, capsys):
        status = main(
            [
                "mc",
                "--harness",
                "buffer-pool",
                "--strategy",
                "dfs",
                "--iterations",
                "25000",
            ]
        )
        assert status == 0
        assert "exhausted=True" in capsys.readouterr().out


class TestOtherCommands:
    def test_fuzz(self, capsys):
        status = main(["fuzz", "--iterations", "500", "--exhaustive-len", "1"])
        assert status == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5

    def test_verify_models(self, capsys):
        status = main(["verify-models", "--depth", "3"])
        assert status == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_loc(self, capsys):
        status = main(["loc"])
        assert status == 0
        assert "Implementation" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignSuiteFlag:
    """``--suite`` is generated from SUITE_REGISTRY, not hand-listed."""

    def _campaign_parser(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return subparsers.choices["campaign"]

    def _suite_action(self):
        return next(
            action
            for action in self._campaign_parser()._actions
            if action.dest == "suite"
        )

    def test_suite_choices_mirror_the_registry(self):
        from repro.campaign import SUITE_REGISTRY

        assert tuple(self._suite_action().choices) == tuple(SUITE_REGISTRY)
        assert "brownout" in SUITE_REGISTRY

    def test_suite_help_enumerates_every_registered_suite(self):
        from repro.campaign import SUITE_REGISTRY

        help_text = self._suite_action().help
        for name, row in SUITE_REGISTRY.items():
            assert f"'{name}'" in help_text
            assert row.blurb in help_text

    def test_unknown_suite_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--smoke", "--suite", "thunderstorm"])
        assert excinfo.value.code == 2

    def test_brownout_smoke_passes(self, capsys, tmp_path):
        import json

        artifact_path = tmp_path / "brownout.json"
        status = main(
            [
                "campaign",
                "--smoke",
                "--suite",
                "brownout",
                "--seed",
                "0",
                "--output",
                str(artifact_path),
            ]
        )
        assert status == 0
        artifact = json.loads(artifact_path.read_text())
        assert artifact["passed"]
        totals = artifact["brownout"]["totals"]
        assert totals["shed_overload"] + totals["shed_deadline"] > 0
        assert totals["deadline_violations"] == 0

    def test_brownout_no_shedding_fails(self, capsys):
        status = main(
            [
                "campaign",
                "--smoke",
                "--suite",
                "brownout",
                "--seed",
                "0",
                "--no-shedding",
            ]
        )
        assert status == 1

    @pytest.mark.parametrize(
        "flag,suite,applies_to",
        [
            ("--no-breaker", "cluster", "full, injection"),
            ("--no-breaker", "brownout", "full, injection"),
            ("--no-shedding", "injection", "brownout"),
            ("--no-shedding", "full", "brownout"),
            ("--no-read-repair", "anti-entropy", "cluster"),
            ("--no-anti-entropy", "cluster", "anti-entropy"),
            ("--journal", "cluster", "full, injection, brownout"),
        ],
    )
    def test_control_outside_its_suite_is_a_usage_error(
        self, capsys, flag, suite, applies_to
    ):
        """A control with no shards to act on must not print PASS: that
        reads as "the control did not matter"."""
        status = main(["campaign", "--smoke", "--suite", suite, flag])
        out = capsys.readouterr().out
        assert status == 2
        assert f"{flag} has no effect on --suite {suite}" in out
        assert f"applies to --suite {applies_to}" in out
        assert "PASS" not in out

    def test_every_control_is_accepted_by_the_suites_it_names(self):
        from repro.campaign.spec import SUITE_TABLE, control_suites

        flags = {
            row.control.flag: control_suites(row)
            for row in SUITE_TABLE.values()
            if row.control
        }
        assert flags == {
            "--no-breaker": ("full", "injection"),
            "--no-shedding": ("brownout",),
            "--journal": ("full", "injection", "brownout"),
            "--no-read-repair": ("cluster",),
            "--no-anti-entropy": ("anti-entropy",),
        }
