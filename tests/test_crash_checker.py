"""Tests for block-level crash-state exploration (section 5's variant)."""

import random

import pytest

from repro.core import (
    BiasConfig,
    StoreHarness,
    coarse_crash_states,
    crash_alphabet,
    explore_block_level,
    run_conformance,
    store_alphabet,
)
from repro.core.alphabet import Operation
from repro.shardstore import Fault, FaultSet


def _advanced_harness(faults, seed=0, ops=20):
    harness = StoreHarness(faults, seed)
    alphabet = store_alphabet()
    rng = random.Random(seed)
    sequence = [
        op
        for op in alphabet.generate_sequence(rng, ops, BiasConfig())
        if op.name not in ("Reboot", "PumpIo")
    ]
    failure = harness.run(sequence)
    assert failure is None, failure
    return harness


class TestBlockLevel:
    def test_clean_implementation_has_no_violations(self):
        harness = _advanced_harness(FaultSet.none())
        result = explore_block_level(harness, max_states=200)
        assert result.passed
        assert result.states_explored > 1

    def test_finds_missing_dependency_bug(self):
        harness = _advanced_harness(
            FaultSet.only(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP)
        )
        result = explore_block_level(harness, max_states=300)
        assert result.violation is not None
        assert "persistence" in result.violation

    def test_exploration_restores_harness_state(self):
        harness = _advanced_harness(FaultSet.none())
        pending_before = harness.store.pending_io_count
        keys_before = harness.store.keys()
        explore_block_level(harness, max_states=60)
        assert harness.store.pending_io_count == pending_before
        assert harness.store.keys() == keys_before

    def test_state_budget_truncates(self):
        harness = _advanced_harness(FaultSet.none(), ops=30)
        result = explore_block_level(harness, max_states=5)
        assert result.states_explored <= 5

    def test_states_deduplicated_by_durable_set(self):
        harness = _advanced_harness(FaultSet.none(), ops=25)
        result = explore_block_level(harness, max_states=300)
        # Different pump orders reach identical durable sets.
        assert result.states_deduplicated > 0


class TestCoarse:
    def test_coarse_sampler_runs(self):
        harness = _advanced_harness(FaultSet.none())
        result = coarse_crash_states(harness, samples=16)
        assert result.passed
        # 16 budgets over 17 pending pages reach 11 distinct durable sets;
        # the 5 that repeat one are counted, not crashed again.
        assert (result.states_explored, result.states_deduplicated) == (11, 5)

    def test_coarse_also_finds_the_bug(self):
        harness = _advanced_harness(
            FaultSet.only(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP), seed=4
        )
        result = coarse_crash_states(harness, samples=16, seed=1)
        assert result.violation is not None

    def test_coarse_restores_state(self):
        harness = _advanced_harness(FaultSet.none())
        snapshot = harness.system.disk.snapshot()
        coarse_crash_states(harness, samples=4)
        assert harness.system.disk.snapshot() == snapshot


#: Block-level ``(states_explored, states_deduplicated, truncated, passed)``
#: and coarse ``(states_explored, states_deduplicated, passed)`` per prefix
#: seed, with no fault or any fault that leaves these prefixes alone.
_BLOCK_VERDICTS = {
    0: (60, 34, True, True),
    1: (60, 10, True, True),
    2: (60, 23, True, True),
}
_COARSE_VERDICTS = {0: (13, 3, True), 1: (14, 2, True), 2: (13, 3, True)}
#: The one fault these 25-op prefixes reach: a cache write that forgets
#: its soft-pointer dependency loses a key both explorers can see.
_FAULT_VERDICTS = {
    (Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP, 1): (
        (51, 0, False, False),
        (12, 1, False),
    ),
}


class TestExplorerVerdicts:
    """What both explorers decide, for no fault and each fault x seeds 0-2.

    A change to how a crash state is reached, recovered, checked or
    rewound moves one of these counts or verdicts.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "fault", [None, *Fault], ids=lambda f: f.name if f else "none"
    )
    def test_verdicts_are_pinned(self, fault, seed):
        faults = FaultSet.only(fault) if fault else FaultSet.none()
        block = explore_block_level(
            _advanced_harness(faults, seed, ops=25), max_states=60
        )
        coarse = coarse_crash_states(
            _advanced_harness(faults, seed, ops=25), samples=16, seed=seed
        )
        expected = _FAULT_VERDICTS.get(
            (fault, seed), (_BLOCK_VERDICTS[seed], _COARSE_VERDICTS[seed])
        )
        assert (
            (
                block.states_explored,
                block.states_deduplicated,
                block.truncated,
                block.passed,
            ),
            (coarse.states_explored, coarse.states_deduplicated, coarse.passed),
        ) == expected


class TestFaultFreeCrashAlphabet:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 1: with no fault switched on the crash alphabet "
            "diverges at base seed 70278 -- \"op[50] DirtyReboot(True, "
            "False, 16): key sets diverge: missing [], extra [b'k13']\" "
            "(re-verified at fbb561c).  The PR that root-causes it removes "
            "this marker."
        ),
    )
    def test_seed_70278_conforms(self):
        report = run_conformance(
            lambda seed: StoreHarness(FaultSet.none(), seed),
            crash_alphabet(),
            sequences=1,
            ops_per_sequence=60,
            base_seed=70278,
        )
        assert report.passed, report.failure

    @pytest.mark.parametrize(
        "seed,text",
        [
            (
                50058,
                "op[51] DirtyReboot(True, True, 16): key sets diverge: "
                "missing [], extra [b'k5']",
            ),
            (
                70278,
                "op[50] DirtyReboot(True, False, 16): key sets diverge: "
                "missing [], extra [b'k13']",
            ),
            (
                70380,
                "op[49] DirtyReboot(True, False, 4): persistence violated for "
                "key b'k13': observed <absent>, allowed values "
                "{<246 bytes>, <384 bytes>}",
            ),
            (
                110477,
                "op[39] DirtyReboot(True, False, 16): key sets diverge: "
                "missing [], extra [b'k15']",
            ),
        ],
    )
    def test_known_divergence_text_is_pinned(self, seed, text):
        """The ROADMAP item 1 failures, verbatim (computed at 935676e).

        A generator or recovery change that silently "fixes" or moves one
        of them fails here first; the PR that root-causes them replaces
        these pins with passing regressions.
        """
        report = run_conformance(
            lambda s: StoreHarness(FaultSet.none(), s),
            crash_alphabet(),
            sequences=1,
            ops_per_sequence=60,
            base_seed=seed,
        )
        assert str(report.failure) == text


#: The store-alphabet prefixes (40 ops, fault-free, unfiltered) on which an
#: explorer reports a persistence violation, with its text (computed at
#: 09bf18d).  Each read that "observed <absent>" raised ``CorruptionError``
#: on a stale locator -- ROADMAP item 1's missing run -> data edge.
_FAULT_FREE_EXPLORER_FAILURES = [
    (
        "block",
        25,
        "persistence violated for key b'k7': observed <absent>, allowed "
        "values {<386 bytes>, <293 bytes>}",
    ),
    (
        "block",
        46,
        "persistence violated for key b'k1': observed <absent>, allowed "
        "values {<29 bytes>, <95 bytes>, <382 bytes>, <377 bytes>}",
    ),
    (
        "block",
        72,
        "persistence violated for key b'k7': observed <absent>, allowed "
        "values {<485 bytes>, <579 bytes>}",
    ),
    (
        "coarse",
        47,
        "persistence violated for key b'k6': observed <absent>, allowed "
        "values {<423 bytes>, <69 bytes>}",
    ),
    (
        "coarse",
        51,
        "persistence violated for key b'k4': observed <absent>, allowed "
        "values {<496 bytes>, <315 bytes>, <258 bytes>}",
    ),
    (
        "coarse",
        72,
        "persistence violated for key b'k7': observed <absent>, allowed "
        "values {<485 bytes>, <579 bytes>}",
    ),
]


@pytest.mark.parametrize(
    "explorer,seed,text",
    _FAULT_FREE_EXPLORER_FAILURES,
    ids=[f"{explorer}-{seed}" for explorer, seed, _ in _FAULT_FREE_EXPLORER_FAILURES],
)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 1: with no fault switched on, a post-crash read of a "
        "run's stale locator raises CorruptionError (read beyond soft write "
        "pointer), which the persistence check counts as absent.  The "
        "change that adds the run -> data edge removes this marker."
    ),
)
def test_fault_free_explorer_passes(explorer, seed, text):
    """The explorers' own evidence for ROADMAP item 1, verbatim.

    A case that fails with *another* text is not an expected failure: the
    divergence moved, and whoever moved it should look before re-pinning.
    """
    harness = StoreHarness(FaultSet.none(), seed)
    ops = store_alphabet().generate_sequence(random.Random(seed), 40, BiasConfig())
    assert harness.run(ops) is None
    if explorer == "block":
        result = explore_block_level(harness, max_states=200)
    else:
        result = coarse_crash_states(harness, samples=16, seed=seed)
    if result.violation is not None and result.violation != text:
        pytest.fail(f"the {explorer} violation changed: {result.violation}")
    assert result.passed, text


def _ops(*ops):
    return [Operation(name, args) for name, *args in ops]


#: The four ROADMAP item 1 sequences after the section 4.3 shrinker
#: (``repro conformance --alphabet crash --minimize --sequences 1 --ops 60
#: --seed N``, at 05f3990): harness seed, the minimised ops, and what the
#: checker says about them.  60 ops each before; 18, 19, 14 and 13 after.
_MINIMISED = {
    50058: (
        _ops(
            ("Put", b"\x00", bytes(447)),
            ("Put", b"\x00", b""),
            ("Put", b"\x00", bytes(383)),
            ("DirtyReboot", False, False, None),
            ("DirtyReboot", False, False, 0),
            ("Put", b"\x00", bytes(544)),
            ("Put", b"\x00", b""),
            ("Put", b"\x00", bytes(258)),
            ("PumpIo", 8),
            ("DirtyReboot", False, False, 0),
            ("Put", b"\x00", bytes(130)),
            ("Put", b"\x00", bytes(397)),
            ("FlushIndex",),
            ("Put", b"\x00", bytes(238)),
            ("DirtyReboot", True, False, None),
            ("Put", b"\x00\x00\x00", bytes(258)),
            ("Put", b"\x00\x00", bytes(499)),
            ("DirtyReboot", True, False, 16),
        ),
        "op[17] DirtyReboot(True, False, 16): key sets diverge: "
        "missing [], extra [b'\\x00\\x00']",
    ),
    70278: (
        _ops(
            ("Put", b"\x00", bytes(62)),
            ("Put", b"\x00", bytes(254)),
            ("PumpIo", 4),
            ("DirtyReboot", False, True, 4),
            ("Put", b"\x00", b""),
            ("DirtyReboot", False, True, 4),
            ("Put", b"\x00", b""),
            ("Put", b"\x00", bytes(206)),
            ("FlushIndex",),
            ("Put", b"\x00", bytes(306)),
            ("DirtyReboot", False, True, 16),
            ("Put", b"\x00", bytes(163)),
            ("Put", b"\x00", bytes(129)),
            ("Put", b"\x00\x00", bytes(168)),
            ("Put", b"k6", bytes(194)),
            ("Reboot",),
            ("Put", b"\x00", bytes(590)),
            ("Put", b"\x00\x00\x00", bytes(383)),
            ("DirtyReboot", True, False, 16),
        ),
        "op[18] DirtyReboot(True, False, 16): key sets diverge: "
        "missing [], extra [b'\\x00\\x00\\x00']",
    ),
    70380: (
        _ops(
            ("Put", b"\x00", bytes(461)),
            ("FlushIndex",),
            ("DirtyReboot", False, True, None),
            ("DirtyReboot", False, False, 0),
            ("Put", b"\x00", bytes(355)),
            ("Put", b"\x00", bytes(557)),
            ("Put", b"\x00\x00\x00", bytes(257)),
            ("Put", b"k", bytes(384)),
            ("Put", b"k15", bytes(382)),
            ("Put", b"\x00\x00", bytes(359)),
            ("FlushIndex",),
            ("Put", b"\x00", bytes(578)),
            ("PumpIo", 17),
            ("DirtyReboot", False, False, 2),
        ),
        "op[13] DirtyReboot(False, False, 2): persistence violated for key "
        "b'\\x00': observed <absent>, allowed values "
        "{<355 bytes>, <461 bytes>, <557 bytes>, <578 bytes>}",
    ),
    110477: (
        _ops(
            ("Put", b"\x00", bytes(166)),
            ("Put", b"\x00", bytes(493)),
            ("Put", b"\x00", bytes(459)),
            ("Put", b"\x00", bytes(318)),
            ("Put", b"\x00", bytes(383)),
            ("Put", b"\x00", bytes(305)),
            ("Put", b"\x00\x00", bytes(126)),
            ("Reboot",),
            ("Put", b"\x00", bytes(256)),
            ("Put", b"\x00", bytes(25)),
            ("Put", b"\x00\x00", bytes(127)),
            ("Put", b"\x00\x00\x00", bytes(254)),
            ("DirtyReboot", True, False, 16),
        ),
        "op[12] DirtyReboot(True, False, 16): key sets diverge: "
        "missing [], extra [b'\\x00\\x00\\x00']",
    ),
}


@pytest.mark.parametrize("seed", sorted(_MINIMISED))
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 1: the fault-free crash-alphabet divergences, "
        "minimised.  The PR that root-causes them removes this marker and "
        "keeps the sequences as regressions."
    ),
)
def test_minimised_fault_free_sequence_conforms(seed):
    """Where ROADMAP item 1 starts: a handful of ops instead of a seed.

    A sequence that fails with *another* text is not an expected failure
    (``pytest.fail`` is not an ``AssertionError``): the divergence moved,
    and whoever moved it should look before re-pinning.
    """
    ops, text = _MINIMISED[seed]
    failure = StoreHarness(FaultSet.none(), seed).run(list(ops))
    if failure is not None and str(failure) != text:
        pytest.fail(f"the minimised divergence changed: {failure}")
    assert failure is None, text
