"""Tests for bounded-exhaustive reference-model verification (section 3.2)."""

import copy

import pytest

from repro.core.alphabet import Operation
from repro.core.model_verify import (
    _apply_kv,
    kv_universe,
    removed_iff_deleted,
    verify_chunkstore_model,
    verify_kv_model,
    verify_model,
)
from repro.models import CandidateModel, ReferenceCluster, ReferenceKvStore
from repro.shardstore import Fault, FaultSet


class TestKvModelVerification:
    def test_kv_model_verified_to_depth_4(self):
        result = verify_kv_model(depth=4)
        assert result.verified, result.message
        # |universe| = 2 keys x (2 puts + 1 delete) + 2 background = 8 ops
        # -> 1 + 8 + 64 + 512 + 4096 prefixes.
        assert result.sequences_checked == sum(8**d for d in range(5))

    def test_universe_contents(self):
        names = {op.name for op in kv_universe()}
        assert names == {"Put", "Delete", "Compact", "CleanReboot"}

    def test_property_catches_broken_model(self):
        from repro.models import ReferenceKvStore

        class LossyModel(ReferenceKvStore):
            """A deliberately wrong spec: delete also drops another key."""

            def delete(self, key: bytes) -> None:
                super().delete(key)
                self._mapping.clear()  # the bug

        result = verify_model(
            LossyModel,
            kv_universe(),
            [("removed-iff-deleted", removed_iff_deleted)],
            depth=3,
            apply_fn=_apply_kv,
        )
        assert not result.verified
        assert result.counterexample is not None
        # Minimal counterexample shape: put one key, delete the other.
        names = [op.name for op in result.counterexample]
        assert "Delete" in names and "Put" in names


class TestChunkStoreModelVerification:
    def test_correct_model_verified(self):
        result = verify_chunkstore_model(depth=4)
        assert result.verified, result.message

    def test_fault15_has_counterexample_within_small_scope(self):
        """The verification that would have caught the paper's issue #15."""
        result = verify_chunkstore_model(
            depth=4, faults=FaultSet.only(Fault.MODEL_REUSES_LOCATORS)
        )
        assert not result.verified
        assert "locator" in result.message
        # Small-scope hypothesis: a handful of ops suffices (DFS preorder
        # finds put,put,delete,put before the minimal put,delete,put).
        assert len(result.counterexample) <= 4


class TestVerifierMechanics:
    def test_budget_guard(self):
        with pytest.raises(RuntimeError):
            verify_model(
                dict,
                [Operation("Keys", ())] * 4,
                [("noop", lambda model, history: None)],
                depth=8,
                apply_fn=lambda model, op: None,
                max_sequences=100,
            )

    def test_counterexample_is_shortest_prefix_found(self):
        # Property fails as soon as two ops were applied.
        result = verify_model(
            list,
            [Operation("X", ())],
            [
                (
                    "short-history",
                    lambda model, history: "too long" if len(history) >= 2 else None,
                )
            ],
            depth=5,
            apply_fn=lambda model, op: None,
        )
        assert not result.verified
        assert len(result.counterexample) == 2


# ----------------------------------------------------------------------
# the candidate-set models (what a key may hold after an unknown outcome)


class _Beside:
    """A candidate model driven beside the flat model it wraps."""

    def __init__(self, model):
        self.model = model
        self.flat = ReferenceKvStore()


def _apply_beside(pair, op):
    if op.name == "Put":
        pair.model.apply(*op.args)
    elif op.name == "Delete":
        pair.model.apply(op.args[0], None)
    elif op.name == "CleanReboot":
        pair.model.barrier()
    _apply_kv(pair.flat, op)


def _same_as_flat(pair, history):
    model, flat = pair.model, pair.flat
    if model.kv.mapping() != flat.mapping() or model.uncertain_keys():
        return f"mapping {model.kv.mapping()!r} != {flat.mapping()!r}"
    for key in (b"a", b"b"):
        held = flat.mapping().get(key)
        if model.candidates(key) != (held,):
            return f"{key!r} may hold {model.candidates(key)!r}, flat has {held!r}"
        for seen in (None, b"1", b"2"):
            if copy.deepcopy(model).observe(key, seen).permitted != (seen == held):
                return f"observing {seen!r} for {key!r} (flat: {held!r}) misjudged"
    return None


#: ``kv_universe`` trimmed to three values of ``a`` and two of ``b``, plus
#: every widening event of the single-copy model.
WIDENING_UNIVERSE = [
    Operation("Put", (b"a", b"1")),
    Operation("Put", (b"a", b"2")),
    Operation("Delete", (b"a",)),
    Operation("Attempt", (b"a", b"1")),
    Operation("Attempt", (b"a", b"2")),
    Operation("Attempt", (b"a", None)),
    Operation("Put", (b"b", b"1")),
    Operation("Delete", (b"b",)),
    Operation("Attempt", (b"b", b"2")),
    Operation("Barrier", ()),
    Operation("Crash", ()),
]
_DOMAIN = {b"a": (None, b"1", b"2"), b"b": (None, b"1", b"2")}


def _apply_widening(model, op):
    if op.name == "Put":
        model.apply(*op.args)
    elif op.name == "Delete":
        model.apply(op.args[0], None)
    else:
        getattr(model, op.name.lower())(*op.args)


def _attempt_permits_both_branches(model, history):
    for key, values in _DOMAIN.items():
        before = model.candidates(key)
        for value in values:
            after = copy.deepcopy(model)
            after.attempt(key, value)
            if set(after.candidates(key)) != set(before) | {value}:
                return f"attempt({key!r}, {value!r}): {after.candidates(key)!r}"
            for branch in (*before, value):
                if not copy.deepcopy(after).observe(key, branch).permitted:
                    return f"branch {branch!r} of {key!r} refused after attempt"
    return None


def _permitted_observation_collapses_and_is_adopted(model, history):
    for key, values in _DOMAIN.items():
        allowed = model.candidates(key)
        for seen in values:
            after = copy.deepcopy(model)
            verdict = after.observe(key, seen)
            if verdict.permitted != (seen in allowed) or verdict.allowed != allowed:
                return f"observe({key!r}, {seen!r}) said {verdict!r}"
            if not verdict.permitted:
                if after.candidates(key) != allowed:
                    return f"a refused observation changed {key!r}"
            elif (
                after.candidates(key) != (seen,)
                or key in after.uncertain_keys()
                or after.kv.peek(key) != seen
            ):
                return f"observing {seen!r} did not settle {key!r}"
    return None


def _crash_widens_exactly_what_was_mutated_since_barrier(model, history):
    cut = max(
        (i + 1 for i, op in enumerate(history) if op.name in ("Barrier", "Crash")),
        default=0,
    )
    at_barrier = CandidateModel()
    for op in history[:cut]:
        _apply_widening(at_barrier, op)
    held = {key: set(at_barrier.candidates(key)) for key in _DOMAIN}
    mutated = set()
    for op in history[cut:]:
        key, *value = op.args
        held[key].add(value[0] if value else None)
        mutated.add(key)
    after = copy.deepcopy(model)
    after.crash()
    for key in _DOMAIN:
        expected = (
            set(model.candidates(key)) | held[key]
            if key in mutated
            else set(model.candidates(key))
        )
        if set(after.candidates(key)) != expected:
            return f"{key!r}: {after.candidates(key)!r}, expected {expected!r}"
    return None


class TestCandidateModelVerification:
    @pytest.mark.parametrize(
        "factory", [CandidateModel, lambda: ReferenceCluster(5)], ids=["single", "cluster"]
    )
    def test_without_a_widening_event_it_is_the_flat_model(self, factory):
        result = verify_model(
            lambda: _Beside(factory()),
            kv_universe(),
            [("same-as-flat", _same_as_flat)],
            depth=4,
            apply_fn=_apply_beside,
        )
        assert result.verified, (result.message, result.counterexample)
        assert result.sequences_checked == sum(8**d for d in range(5))

    def test_single_copy_rules_hold_in_every_state_to_depth_3(self):
        result = verify_model(
            CandidateModel,
            WIDENING_UNIVERSE,
            [
                ("attempt-permits-both", _attempt_permits_both_branches),
                ("observe-collapses", _permitted_observation_collapses_and_is_adopted),
                ("crash-widens", _crash_widens_exactly_what_was_mutated_since_barrier),
            ],
            depth=3,
            apply_fn=_apply_widening,
        )
        assert result.verified, (result.message, result.counterexample)
        assert result.sequences_checked == sum(11**d for d in range(4))

    def test_a_broken_collapse_rule_has_a_counterexample(self):
        class Forgetful(CandidateModel):
            """Pops the uncertainty without adopting what was seen (what
            ``StoreHarness._op_get`` did before it sat on the model)."""

            def _keep(self, key, candidates):
                if len(candidates) == 1:
                    self._open.pop(key, None)
                else:
                    super()._keep(key, candidates)

        result = verify_model(
            Forgetful,
            WIDENING_UNIVERSE,
            [("observe-collapses", _permitted_observation_collapses_and_is_adopted)],
            depth=2,
            apply_fn=_apply_widening,
        )
        assert not result.verified


class TestReferenceClusterRules:
    def test_zero_ack_failure_leaves_the_key_certain(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"old")
        model.attempt(b"k", b"new", acks=0)
        assert model.candidates(b"k") == (b"old",)
        assert not model.uncertain_keys()
        assert not model.observe(b"k", b"new").permitted

    def test_only_the_newest_branch_collapses(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"old")
        model.attempt(b"k", b"new", acks=1)
        assert model.candidates(b"k") == (b"old", b"new")
        # The older branch is a legal read and proves nothing: the partial
        # write may still surface through handoff or read-repair.
        assert model.observe(b"k", b"old").permitted
        assert model.candidates(b"k") == (b"old", b"new")
        assert model.observe(b"k", b"new").permitted
        assert model.candidates(b"k") == (b"new",)
        assert not model.observe(b"k", b"old").permitted

    def test_an_observed_absent_newest_branch_collapses(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"v")
        model.attempt(b"k", None, acks=1)
        assert model.observe_presence(b"k", True).permitted  # the older branch
        assert model.candidates(b"k") == (b"v", None)
        assert model.observe(b"k", None).permitted
        assert model.candidates(b"k") == (None,)

    def test_journal_versions_order_the_branches_not_arrival(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"v9", version=9)
        model.attempt(b"k", b"v3", acks=1, version=3)  # invalid where v9 landed
        assert model.observe(b"k", b"v3").permitted
        assert model.candidates(b"k") == (b"v9", b"v3")
        assert model.observe(b"k", b"v9").permitted
        assert model.candidates(b"k") == (b"v9",)

    def test_minority_crash_loses_nothing(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"v", acks=[0, 1])
        model.crash(0)
        model.crash(1)
        verdict = model.observe(b"k", None)
        assert verdict.constrained and not verdict.permitted

    def test_majority_crash_over_the_ack_set_unconstrains_until_observed(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"v", acks=[0, 1])
        model.apply(b"safe", b"s", acks=[3, 4])
        for node in (0, 1, 2):
            model.crash(node)
        assert model.observe(b"safe", None).permitted is False
        lost = model.observe(b"k", None)
        assert lost.permitted and not lost.constrained
        # ... and that observation is the new certain state.
        again = model.observe(b"k", b"v")
        assert again.constrained and not again.permitted
        assert model.candidates(b"k") == (None,)

    def test_restart_shrinks_the_dead_set(self):
        model = ReferenceCluster(5)
        model.apply(b"k", b"v", acks=[0, 1])
        model.crash(0)
        model.crash(1)
        model.restart(1)
        model.crash(2)  # two down again: still a minority
        assert model.observe(b"k", None).constrained
