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
#:
#: Every digest below (and the full one) was re-pinned when the storage node
#: lost its in-node replica copies: schema 7 -> 8 drops the ``hedges`` and
#: ``replica_writes`` keys.  With those keys stripped and ``schema_version``
#: ignored, every artifact is unchanged except ``brownout@0``, whose storms
#: now shed 43 requests instead of 88 (deadline_violations still 0).  The
#: previous digests, in row order: 9b63897a...9412239, 1ec06ac3...0d5f324,
#: e9ec8039...16b8667, 221fd238...6644105, 97e927e9...aedef0d,
#: a955dc1c...3edc3f6, bff87e1f...14c82a, 806c55c6...63f9fc4; full
#: 528dd81c...b8d1e08.
GOLDEN_STORM_ARTIFACTS = {
    # Re-pinned at ISSUE 21: a planned read fault now reaches recovery's own
    # reads, and the store/corruption shard's reboot that used to be
    # journaled as errored recovers on the retry (evidence: 1 skipped -> 0,
    # 278 checked -> 279; was b0f70f72...2009629).
    # Re-pinned when the conformance sweep stopped reading back every key
    # after every op: after a Get, Put or Delete that did no background
    # work it reads back only that op's key, so the store shards journal
    # fewer ``get``s.  Only ``evidence`` moved:
    # shard records 343 / 294 -> 242 / 234, checked 328 / 279 -> 227 / 219,
    # and the ``heads_digest`` fields; every verdict, counter and detail is
    # unchanged (was ff0f333e...631a52404).
    ("injection", 0, "--journal"): (
        "39cbbefcd78290ac1ba6d51a88a69d066853ce53a7c944fdf489a77f51bc623e",
        0,
    ),
    ("brownout", 0, None): (
        "2e16210e0fb20b11349b4ef47e3e4ea1fdc3ac53675f2a8d5fc42cf42df19872",
        0,
    ),
    # The four cluster-plane rows were re-pinned when a replica apply
    # stopped reading the replica before writing it: its current version
    # now comes from the anti-entropy mirror, so each conditional apply
    # journals one fewer node ``get``.  Only ``evidence.records`` and the
    # ``heads_digest`` fields moved (cluster@0 shard records 1620 / 1600 /
    # 1576 -> 1345 / 1336 / 1300); every counter, verdict and failure
    # detail is unchanged.  Previous digests, in row order:
    # de3c2377...f9bd0ca, 10db3129...7b66398, 5b020dca...7030c6a,
    # 7e2b2907...f5b117a2.
    ("cluster", 0, None): (
        "d3ba889ff95503a69bdcb534187f652f23003159d63c7aa4fff6ed6e17c9ef69",
        0,
    ),
    # The two anti-entropy rows were re-pinned again when each replica's
    # Merkle mirror became one tree per placement group with XOR-summed
    # item hashes: a round compares only the groups both replicas belong
    # to, and every Merkle digest has a new definition.  Totals here:
    # buckets descended 649 -> 27, root matches 0 -> 47, rounds 90 -> 60,
    # settle_rounds 60 -> 30, pre_settle_divergent 10 -> 8 (background
    # rounds now repair during the storm), keys repaired 27 -> 27,
    # all_converged still true.  Previous digests: 9aff9340...c0061e,
    # 7a3da05e...c2d6722c.
    ("anti-entropy", 0, None): (
        "060f65c5982654d322a69eb87e2614b334d968ec999d37430ca7191173c5655e",
        0,
    ),
    ("injection", 0, "--no-breaker"): (
        "df1a4bcd3df4ce091b11070c975496c82ad476c1037e2f6fccac94efa1174681",
        1,
    ),
    ("brownout", 0, "--no-shedding"): (
        "44c1e791ab007fe355289d417e84e3e871460ee573bec60d3b192d5cfdc7739b",
        1,
    ),
    ("cluster", 0, "--no-read-repair"): (
        "3d74a94b6231a2c505cab00ec3b6431252d74a9b54b315b67640417180e0160f",
        1,
    ),
    # Re-pinned with ``anti-entropy@0`` above: no round runs here, so only
    # the ``heads_digest`` fields moved (the ``merkle_roots`` record carries
    # roots under the new digest definition).
    ("anti-entropy", 0, "--no-anti-entropy"): (
        "9635995c6320613a597c1bc13dc21e4e85621ce72f4096e8dddf39de7e7c7b97",
        1,
    ),
}

GOLDEN_FULL_SHA256 = (
    "33e033e9a219c0030057a74b03058761e977ced080b6e2a2b3abf022f52a837e"
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
    assert artifact["schema_version"] == 8
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
