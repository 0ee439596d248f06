"""Golden campaign artifacts and bench journals: pinned seeds, same bytes.

The campaign plane's contract is that everything outside ``timing`` is a
pure function of (suite, seed, flags) -- for any worker count.  This pins
that function: the smoke artifact of every storm suite, of each suite's
must-fail negative control, and of the full campaign, as SHA-256 digests
computed at commit fbb561c (before the suite table / shared storm harness /
single roll-up refactor).  A refactor of ``repro.campaign`` is accepted
when these do not move.

Canonical form: the artifact minus ``timing`` (wall clock), ``coverage``
(``sys.settrace`` line events differ across Python versions) and
``campaign.workers`` (so one digest covers every worker count), rendered
with ``json.dumps(..., sort_keys=True)``.

The evidence plane's contract is the same for ``run_bench`` journals: the
bytes are a pure function of (workload, ops, seed, mutant), whatever the
path.  Three journals are pinned as computed at commit eba9a4f (before the
baseline gate was deleted from ``repro.bench``): the healthy ``mixed`` run
CI journals, its ``drop-delete`` negative control, and a ``crash-recover``
run.

A change that is *meant* to alter an artifact re-pins the digest and says
why (the rule of ``test_golden_images.py``); anything else that moves one
is a bug.
"""

import hashlib
import json

import pytest

from repro.bench import run_bench
from repro.cli import main

#: (suite, seed, extra flags) -> (digest, campaign exit code).  The four
#: ``--no-*`` rows are the negative controls: each must FAIL (exit 1,
#: ``passed: false``) -- and fail the same way, byte for byte.
GOLDEN_STORM_ARTIFACTS = {
    # Re-pinned at ISSUE 21: a planned read fault now reaches recovery's own
    # reads, and the store/corruption shard's reboot that used to be
    # journaled as errored recovers on the retry (evidence: 1 skipped -> 0,
    # 278 checked -> 279; was b0f70f72...2009629).
    ("injection", 0, "--journal"): (
        "9b63897a7e27b36122dd744ce7c8d901b173822c699d9b128b6cfecfb9412239",
        0,
    ),
    ("brownout", 0, None): (
        "1ec06ac314b448e100d8fb170765f836c64d8063fba4853b0ee45cebe0d5f324",
        0,
    ),
    ("cluster", 0, None): (
        "e9ec803921f8386e6e45831061267850c117b2c9f6fdbe7e8fa05b21716b8667",
        0,
    ),
    ("anti-entropy", 0, None): (
        "221fd2386c57c3f8fa22c00796bbc2f9972def34525ee4500fc336af66644105",
        0,
    ),
    ("injection", 0, "--no-breaker"): (
        "97e927e97d3a4b564744ea79448fab7d314e2ecf5c2cf16371513b4c7aedef0d",
        1,
    ),
    ("brownout", 0, "--no-shedding"): (
        "a955dc1c8af427e5ad69d03e9e3da9077adfded8cff4eaaba8168bca63edc3f6",
        1,
    ),
    ("cluster", 0, "--no-read-repair"): (
        "bff87e1f810f2c94d4c5e3cd7dd22ea68fa7b5c638150138d62daf471314c82a",
        1,
    ),
    ("anti-entropy", 0, "--no-anti-entropy"): (
        "806c55c6cb1bfec4fb1e9efec8d5bcfd20a61e2042bb3e0928361ec9b63f9fc4",
        1,
    ),
}

GOLDEN_FULL_SHA256 = (
    "528dd81c6453fbfbf454e2ab6aa89b10fcef99a8d6c7a0067f82bb78bb8d1e08"
)

#: (workload, ops, mutant) at seed 7 -> (file sha256, chain head, records).
GOLDEN_BENCH_JOURNALS = {
    ("mixed", 1500, None): (
        "5d5a5a739181a06f93c32b294f970f867c3340560756f5b98046f66b0730deff",
        "9c5c32166d760d1d",
        1527,
    ),
    ("mixed", 1500, "drop-delete"): (
        "338944a3ae91841c8e51374f44b45ab760d2336dee4e78095ebf07f00ec39928",
        "a13f84cdba3e6e54",
        1527,
    ),
    ("crash-recover", 800, None): (
        "9be629e8563418122e985e4b39e5b5c3145eb2c22f52a1d004f0dcf2502554b5",
        "c442c8f62c43f17c",
        823,
    ),
}


def canonical_digest(artifact) -> str:
    doc = {
        key: value
        for key, value in artifact.items()
        if key not in ("timing", "coverage")
    }
    doc["campaign"] = {
        key: value
        for key, value in doc["campaign"].items()
        if key != "workers"
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_smoke(tmp_path, suite, seed, flag, workers):
    out = tmp_path / "artifact.json"
    argv = [
        "campaign",
        "--smoke",
        "--suite",
        suite,
        "--seed",
        str(seed),
        "--workers",
        str(workers),
        "--output",
        str(out),
    ]
    if flag is not None:
        argv.append(flag)
    status = main(argv)
    return status, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "suite,seed,flag",
    list(GOLDEN_STORM_ARTIFACTS),
    ids=[f"{s}{f or ''}@{seed}" for s, seed, f in GOLDEN_STORM_ARTIFACTS],
)
def test_storm_artifact_is_pinned(tmp_path, capsys, suite, seed, flag, workers):
    digest, exit_code = GOLDEN_STORM_ARTIFACTS[(suite, seed, flag)]
    status, artifact = run_smoke(tmp_path, suite, seed, flag, workers)
    capsys.readouterr()
    assert status == exit_code
    assert artifact["passed"] is (exit_code == 0)
    assert artifact["schema_version"] == 7
    assert canonical_digest(artifact) == digest


@pytest.mark.slow
def test_full_artifact_is_pinned(tmp_path, capsys):
    status, artifact = run_smoke(tmp_path, "full", 7, None, 2)
    capsys.readouterr()
    assert status == 0
    assert artifact["passed"] is True
    assert artifact["totals"]["faults_detected"] == 16
    assert canonical_digest(artifact) == GOLDEN_FULL_SHA256


@pytest.mark.parametrize(
    "workload,ops,mutant",
    list(GOLDEN_BENCH_JOURNALS),
    ids=[f"{w}{'+' + m if m else ''}@7" for w, _, m in GOLDEN_BENCH_JOURNALS],
)
def test_bench_journal_is_pinned(tmp_path, workload, ops, mutant):
    sha256, head, records = GOLDEN_BENCH_JOURNALS[(workload, ops, mutant)]
    path = tmp_path / "journal.jsonl"
    artifact = run_bench(
        workload, ops=ops, seed=7, journal_path=str(path), mutant=mutant
    )
    assert artifact["journal"]["head"] == head
    assert artifact["journal"]["records"] == records
    # The driver times no op: only the run-level ``wall_seconds`` pair.
    assert [key for key in artifact if key.endswith("_ns")] == []
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
