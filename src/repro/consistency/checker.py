"""TCC invariant checking over oracle-recorded histories.

Five invariants are verified (Section II-B semantics):

* **Causal snapshot** — if a transactional read returns version X, and X
  (transitively) depends on some version D of key y, then the read's returned
  version of y (if y was read) is at least D in the per-key version order.
* **Atomic visibility** — if a read returns a version written by transaction
  T and also reads another key T wrote, it must return T's version of that
  key or a newer one (never an older one).
* **Read-your-writes** — a client's reads return its own prior committed
  version of a key or something newer.
* **Monotonic reads** — per client and key, returned versions never go
  backwards across transactions.
* **Dependency timestamps** — every version's update time exceeds those of
  its dependencies (Proposition 1).

The checker is sound, not complete: dependency tracking keeps the newest
observed version per key of a session, so a violation report is always a real
violation, while some exotic violation shapes could in principle escape.  The
suite also runs the checker against a deliberately broken protocol to show it
catches real anomalies.

:class:`ConsistencyChecker` is the unbounded-window case of
:class:`~repro.consistency.streaming.StreamingChecker`: it replays the
oracle's history as an event stream and filters the one verdict list by
invariant.
"""

from __future__ import annotations

from typing import Dict, List

from .oracle import ConsistencyOracle
from .streaming import StreamingChecker, Violation, oracle_events

__all__ = ["ConsistencyChecker", "Violation"]

#: Violation kinds in the order :meth:`ConsistencyChecker.check_all` groups them.
KINDS = (
    "causal-snapshot",
    "atomic-visibility",
    "read-your-writes",
    "monotonic-reads",
    "dependency-timestamps",
)


class ConsistencyChecker:
    """Replays an oracle history and reports invariant violations."""

    def __init__(self, oracle: ConsistencyOracle) -> None:
        self.oracle = oracle
        self._verdicts: Dict[str, List[Violation]] = {}

    def check_all(self) -> List[Violation]:
        """Run every invariant check; returns all violations found."""
        return self.check_level("tcc")

    def check_level(self, level: str) -> List[Violation]:
        """Verify the invariants a consistency level claims.

        ``"tcc"`` runs the full TCC suite (:meth:`check_all`).  ``"session"``
        verifies only the session guarantees plus timestamp sanity —
        read-your-writes, monotonic reads, dependency timestamps — which is
        what an eventually consistent protocol actually promises: checking a
        protocol against guarantees it never claimed says nothing, while a
        session-level pass is a real statement about its cache and
        per-replica installation order.  Protocols declare their level in
        :class:`repro.protocols.registry.ProtocolSpec`.
        """
        verdicts = self._verdicts.get(level)
        if verdicts is None:
            checker = StreamingChecker(window=None, level=level)
            checker.run(oracle_events(self.oracle))
            verdicts = sorted(checker.violations, key=lambda v: KINDS.index(v.kind))
            self._verdicts[level] = verdicts
        return list(verdicts)

    def check_dependency_timestamps(self) -> List[Violation]:
        """Proposition 1: if u1 -> u2 then u1.ut < u2.ut."""
        return self._of_kind("dependency-timestamps")

    def check_causal_snapshots(self) -> List[Violation]:
        """Reads must not observe a version while missing its dependencies."""
        return self._of_kind("causal-snapshot")

    def check_atomic_visibility(self) -> List[Violation]:
        """No fractured reads of one transaction's write set."""
        return self._of_kind("atomic-visibility")

    def check_read_your_writes(self) -> List[Violation]:
        """Reads reflect the client's own earlier commits."""
        return self._of_kind("read-your-writes")

    def check_monotonic_reads(self) -> List[Violation]:
        """Per client and key, returned versions never regress."""
        return self._of_kind("monotonic-reads")

    def _of_kind(self, kind: str) -> List[Violation]:
        return [violation for violation in self.check_level("tcc") if violation.kind == kind]
