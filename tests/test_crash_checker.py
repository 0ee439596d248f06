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
    @pytest.mark.parametrize("seed", [50058, 70278, 70380, 110477, 5070])
    def test_seed_conforms(self, seed):
        """Base seeds on which the fault-free crash alphabet once failed.

        Each crashed with a durable run chunk whose entries named data
        chunks that were not yet durable, so recovery listed a key it
        could not read (DESIGN.md war story 6).  The run chunk now
        depends on its entries' data.
        """
        report = run_conformance(
            lambda s: StoreHarness(FaultSet.none(), s),
            crash_alphabet(),
            sequences=1,
            ops_per_sequence=60,
            base_seed=seed,
        )
        assert report.passed, report.failure


#: The store-alphabet prefixes (40 ops, fault-free, unfiltered) on which an
#: explorer once reported a persistence violation: a post-crash read of a
#: run's locator raised ``CorruptionError`` because the run chunk was
#: durable before the data chunk it names.
_FAULT_FREE_EXPLORER_PREFIXES = [
    ("block", 25),
    ("block", 46),
    ("block", 72),
    ("coarse", 47),
    ("coarse", 51),
    ("coarse", 72),
]


@pytest.mark.parametrize(
    "explorer,seed",
    _FAULT_FREE_EXPLORER_PREFIXES,
    ids=[f"{explorer}-{seed}" for explorer, seed in _FAULT_FREE_EXPLORER_PREFIXES],
)
def test_fault_free_explorer_passes(explorer, seed):
    harness = StoreHarness(FaultSet.none(), seed)
    ops = store_alphabet().generate_sequence(random.Random(seed), 40, BiasConfig())
    assert harness.run(ops) is None
    if explorer == "block":
        result = explore_block_level(harness, max_states=200)
    else:
        result = coarse_crash_states(harness, samples=16, seed=seed)
    assert result.passed, result.violation


def _ops(*ops):
    return [Operation(name, args) for name, *args in ops]


#: The four fault-free crash-alphabet failures of
#: ``TestFaultFreeCrashAlphabet`` after the section 4.3 shrinker
#: (``repro conformance --alphabet crash --minimize --sequences 1 --ops 60
#: --seed N``): harness seed -> the minimised ops.  60 ops each before; 18,
#: 19, 14 and 13 after.  Each failed at its last ``DirtyReboot`` with
#: "listed but unreadable after recovery".
_MINIMISED = {
    50058: _ops(
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
    70278: _ops(
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
    70380: _ops(
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
    110477: _ops(
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
}


@pytest.mark.parametrize("seed", sorted(_MINIMISED))
def test_minimised_fault_free_sequence_conforms(seed):
    """The same failures as a handful of ops instead of a seed."""
    failure = StoreHarness(FaultSet.none(), seed).run(list(_MINIMISED[seed]))
    assert failure is None, failure


class TestRunWrittenAfterItsData:
    """Every run-chunk writer orders the chunk after the data it names.

    Each sequence ends with a metadata record on the other metadata
    extent, so record order on one extent no longer protects it; the
    crash then keeps every write except those on the extents that held
    ``k``'s data.  A run that names ``k`` and became durable anyway makes
    recovery list ``k`` with nothing to read.
    """

    @staticmethod
    def _fill_metadata_extent():
        ops = []
        for i in range(9):
            ops += [("Put", b"a%d" % i, bytes(10)), ("FlushIndex",), ("PumpIo", 50)]
        return ops

    @staticmethod
    def _data_extents(harness, key):
        return {loc.extent for loc in harness.store.index.get(key)}

    @staticmethod
    def _crash_sparing(harness, spared):
        scheduler = harness.store.scheduler
        while any(
            scheduler.pump_one(extent)
            for extent in scheduler.eligible_extents()
            if extent not in spared
        ):
            pass
        return harness.run(_ops(("DirtyReboot", False, False, 0)))

    def test_compaction_writes_the_merged_run_after_its_sources(self):
        harness = StoreHarness(FaultSet.none(), 0)
        ops = self._fill_metadata_extent() + [
            ("Put", b"k", bytes(2000)),
            ("FlushIndex",),
            ("Delete", b"a0"),
            ("FlushIndex",),  # rotates to the other metadata extent
            ("Compact",),
            ("FlushSuperblock",),
        ]
        assert harness.run(_ops(*ops)) is None
        index = harness.store.index
        assert index.meta_switched
        spared = self._data_extents(harness, b"k")
        assert index.run_locators()[-1].extent not in spared
        assert self._crash_sparing(harness, spared) is None

    def test_reclamation_writes_a_run_copy_after_the_original(self):
        harness = StoreHarness(FaultSet.none(), 0)
        ops = self._fill_metadata_extent() + [
            ("Put", b"k", bytes(2600)),
            ("FlushIndex",),
            ("Put", b"j", bytes(10)),
            ("Put", b"big", bytes(3500)),
        ]
        assert harness.run(_ops(*ops)) is None
        run = harness.store.index.run_locators()[-1]
        spared = self._data_extents(harness, b"k")
        # Evacuate k's run and stop before j's chunk behind it: no reset,
        # so nothing is pumped, and the relocation's metadata record
        # rotates to the other metadata extent.
        assert harness.run(_ops(("PartialReclaim", run.extent, 8))) is None
        assert harness.store.index.meta_switched
        assert harness.store.index.run_locators()[-1] != run
        assert harness.store.index.run_locators()[-1].extent not in spared
        assert self._crash_sparing(harness, spared) is None
