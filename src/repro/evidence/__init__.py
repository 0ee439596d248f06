"""The evidence plane's offline tooling: journal checking and mining.

The :mod:`repro.shardstore.observability.journal` module produces a
chained JSONL log of every client-visible operation; this package turns
such a log into *proof*:

* :mod:`repro.evidence.checker` -- ``repro check-trace``: replay a journal
  against the flat :class:`~repro.models.kvstore.ReferenceKvStore`
  specification, offline.  Puts/gets/deletes must agree with the model,
  typed sheds must provably not have mutated state, and crash semantics
  (dirty reboots) are handled with sound per-key candidate sets.
* :mod:`repro.evidence.cluster` -- ``repro check-trace`` with several
  journals: merge one router journal plus N per-node journals from a
  cluster run, check every journal's envelope, replay the router's op
  stream under cross-node candidate-set semantics (unacknowledged quorum
  writes widen, acknowledged ones must survive any minority of node
  crashes) and corroborate every claimed replica ack against the acking
  node's own journal by cluster op id.
* :mod:`repro.evidence.invariants` -- ``repro invariants``: mine
  Daikon-style candidate properties from journals (monotone op ids,
  get-after-put agreement, shed-implies-no-state-change, breaker
  state-machine legality, counter relations) and report each as confirmed
  (with instance counts) or falsified (with a witness tick).

The curated *promoted* invariant set (:data:`~repro.evidence.invariants.
PROMOTED`) is enforced by the checker on every run.
"""

from .checker import CheckReport, TraceChecker, check_file, check_journal
from .cluster import (
    ClusterCheckReport,
    check_cluster_files,
    check_cluster_journals,
)
from .invariants import (
    PROMOTED,
    InvariantResult,
    mine_file,
    mine_journal,
    mine_journals,
)

__all__ = [
    "CheckReport",
    "ClusterCheckReport",
    "InvariantResult",
    "PROMOTED",
    "TraceChecker",
    "check_cluster_files",
    "check_cluster_journals",
    "check_file",
    "check_journal",
    "mine_file",
    "mine_journal",
    "mine_journals",
]
