"""Reference model of "what may this key hold now" (sections 4.4 and 5).

The flat :class:`~repro.models.kvstore.ReferenceKvStore` is the
specification while every outcome is known.  Once a write fails mid-way, is
not acknowledged, or is crashed over, a key holds *one of several* values,
and the specification has to say which -- and which observation settles
it.  That is stated here, once: every checker that tolerates unknown
outcomes translates its own events (exceptions in the harnesses, journal
records in the trace checkers) into this model and renders its own failure
text from the :class:`Verdict`.

Values are opaque and hashable (bytes in the harnesses, digests in the
replayers); ``None`` is "absent".  Certain keys live in ``CandidateModel.kv``,
so with no widening event the model *is* the flat specification.
:class:`~repro.models.crash.CrashAwareModel` answers the same question from
polled ``Dependency`` handles, and returns the same :class:`Candidates` type.
"""

from __future__ import annotations

from typing import Dict, Hashable, KeysView, NamedTuple, Optional, Sequence

from .kvstore import ReferenceKvStore

Key = Hashable
Value = Optional[Hashable]  # None: the key is absent


class Candidates(tuple):
    """The values one key may hold; ``None`` among them means "or absent"."""

    __slots__ = ()

    def permits(self, observed: Value) -> bool:
        return observed in self


class Verdict(NamedTuple):
    """The model's answer to one observation."""

    permitted: bool
    #: What the key could hold *before* the observation.
    allowed: Candidates
    #: False when there was nothing to judge against: the model only learned.
    constrained: bool = True


class CandidateModel:
    """Per-key candidate sets for a single copy of the data."""

    def __init__(self) -> None:
        #: The certain state: exactly the keys with one candidate.
        self.kv = ReferenceKvStore()
        # uncertain key -> its two or more candidates, in arrival order
        self._open: Dict[Key, list] = {}
        # key mutated since the last barrier -> every value it held since
        self._held: Dict[Key, Dict[Value, None]] = {}

    def candidates(self, key: Key) -> Candidates:
        return Candidates(self._open.get(key) or (self.kv.peek(key),))

    def uncertain_keys(self) -> KeysView:
        """A live view of the keys holding more than one candidate."""
        return self._open.keys()

    # -- writes ----------------------------------------------------------

    def apply(self, key: Key, value: Value) -> None:
        """A write (``None``: a delete) that provably took effect."""
        self._hold(key, value)
        self._keep(key, (value,))

    def attempt(self, key: Key, value: Value) -> None:
        """A write of unknown outcome: the key may hold what it could hold
        before, or ``value``."""
        self._hold(key, value)
        before = self.candidates(key)
        if value not in before:
            self._keep(key, (*before, value))

    def smear(self) -> None:
        """Silent corruption: any key may have become unreadable, which a
        reader sees as absent."""
        for key in [*self.kv.keys(), *self._open]:
            self.attempt(key, None)

    # -- observations: a permitted one settles the key and is adopted ----

    def observe(self, key: Key, value: Value) -> Verdict:
        """A read of ``key`` returned ``value`` (``None``: not found)."""
        allowed = self.candidates(key)
        if value not in allowed:
            return Verdict(False, allowed)
        if len(allowed) > 1:
            self._narrow(key, (value,))
        return Verdict(True, allowed)

    def observe_presence(self, key: Key, present: bool) -> Verdict:
        """An existence check answered ``present`` without giving a value."""
        allowed = self.candidates(key)
        kept = [value for value in allowed if (value is not None) == present]
        if kept and len(kept) < len(allowed):
            self._narrow(key, kept)
        return Verdict(bool(kept), allowed)

    def _narrow(self, key: Key, kept: Sequence[Value]) -> None:
        """An observation ruled out every candidate not in ``kept``."""
        self._keep(key, kept)

    def _keep(self, key: Key, candidates: Sequence[Value]) -> None:
        if len(candidates) == 1:
            self._open.pop(key, None)
            self.kv.assign(key, candidates[0])
        else:
            self.kv.assign(key, None)
            self._open[key] = list(candidates)

    # -- durability ------------------------------------------------------

    def _hold(self, key: Key, value: Value) -> None:
        if key not in self._held:
            self._held[key] = dict.fromkeys(self.candidates(key))
        self._held[key][value] = None

    def barrier(self) -> None:
        """Everything written so far is durable: a crash loses none of it."""
        self._held.clear()

    def crash(self) -> None:
        """A dirty restart: a key mutated since the last barrier may hold
        anything it held since then."""
        for key, held in self._held.items():
            self._keep(key, list(dict.fromkeys((*self.candidates(key), *held))))
        self._held.clear()
