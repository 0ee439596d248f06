"""Reference model of a key replicated behind a quorum router.

:class:`~repro.models.candidates.CandidateModel` plus exactly the rules that
differ once the data has N copies.  The per-replica rule underneath is a
validity predicate: a write is *valid* at a replica iff its version exceeds
the one stored there, so a replica converges on the highest version it is
offered and a quorum read returns the highest version it reaches.  Hence:

* a failed write **no** replica acknowledged is provably a no-op; one that
  some replica acknowledged is an ``attempt`` (handoff, read-repair or
  anti-entropy may still spread it);
* reading an *older* candidate proves nothing -- the newer one may still
  surface -- so only an observation of the **newest** settles a key;
* an acknowledged write survives any minority of crashes: only when the
  dead set has passed a minority *and* covers a key's whole ack set is the
  key unconstrained, until it is observed again.

Versions are the router's where the caller knows them (journals do), else
arrival order: the same order, since the router issues them sequentially.
N is the only quorum number a rule reads; W and R reach the model as the
outcome a consumer reports (acknowledged, partly acknowledged, not).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set

from .candidates import CandidateModel, Key, Value, Verdict


class ReferenceCluster(CandidateModel):
    """Candidate sets for a cluster of ``nodes`` members."""

    def __init__(self, nodes: int) -> None:
        super().__init__()
        self.nodes = nodes
        # key -> candidate -> version, for every key written or adopted
        self._versions: Dict[Key, Dict[Value, int]] = {}
        # key -> the members that took its last acknowledged write
        self._acks: Dict[Key, FrozenSet[int]] = {}
        self._dead: Set[int] = set()
        self._unconstrained: Set[Key] = set()

    def tracked(self, key: Key) -> bool:
        """Whether ``key`` was ever written or adopted: a consumer that did
        not see the cluster start knows nothing about the other keys."""
        return key in self._versions

    def _stamp(self, key: Key, value: Value, version: Optional[int]) -> None:
        known = self._versions.setdefault(key, {self.kv.peek(key): -1})
        known[value] = 1 + max(known.values()) if version is None else version

    def apply(
        self,
        key: Key,
        value: Value,
        version: Optional[int] = None,
        acks: Iterable[int] = (),
    ) -> None:
        """A quorum-acknowledged write, and the members that took it."""
        self._stamp(key, value, version)
        self._acks[key] = frozenset(acks)
        super().apply(key, value)

    def attempt(
        self, key: Key, value: Value, acks: int, version: Optional[int] = None
    ) -> None:
        """A write that missed its quorum with ``acks`` acknowledgements."""
        if acks:
            self._stamp(key, value, version)
            super().attempt(key, value)

    def observe(self, key: Key, value: Value) -> Verdict:
        if key in self._unconstrained:
            allowed = self.candidates(key)
            self._stamp(key, value, None)
            self._keep(key, (value,))
            return Verdict(True, allowed, constrained=False)
        return super().observe(key, value)

    def observe_presence(self, key: Key, present: bool) -> Verdict:
        if key in self._unconstrained:
            return Verdict(True, self.candidates(key), constrained=False)
        return super().observe_presence(key, present)

    def _narrow(self, key: Key, kept: Sequence[Value]) -> None:
        versions = self._versions[key]
        if len(kept) == 1 and versions[kept[0]] == max(versions.values()):
            self._keep(key, kept)

    def _keep(self, key: Key, candidates: Sequence[Value]) -> None:
        versions = self._versions[key]
        self._versions[key] = {value: versions[value] for value in candidates}
        if len(candidates) == 1:
            self._unconstrained.discard(key)
        super()._keep(key, candidates)

    def crash(self, node: int) -> None:  # type: ignore[override]
        """Member ``node`` went down with whatever it had not persisted."""
        self._dead.add(node)
        if len(self._dead) > (self.nodes - 1) // 2:
            self._unconstrained.update(
                key for key, acks in self._acks.items() if acks and acks <= self._dead
            )

    def restart(self, node: int) -> None:
        self._dead.discard(node)
