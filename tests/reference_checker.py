"""A brute-force reference for the consistency checker.

Written straight from the five invariant definitions in
:mod:`repro.consistency.checker`, with none of the production checker's
machinery: no memoized closures, no covered-dependency skipping, no
retirement or tip digests.  Each version's reachable set is found by a
plain walk over direct dependencies and reduced to the newest version per
key.  It is slow on purpose and only meant for small histories, where the
production :class:`~repro.consistency.streaming.StreamingChecker` at
``window=None`` must report exactly the same violations.

Like the streaming checker it consumes events in recording order, so a
read is judged against the commits recorded before it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.consistency.events import CommitEvent, TraceEvent
from repro.consistency.oracle import VersionId

#: One verdict: (kind, client, detail), as the production checker reports it.
Verdict = Tuple[str, str, str]


def _order(vid: VersionId):
    """The per-key version order: (ut, tid, sr)."""
    return (vid[1], vid[2], vid[3])


def reachable(vid: VersionId, deps: Dict[VersionId, Tuple[VersionId, ...]]) -> Set[VersionId]:
    """Every version ``vid`` transitively depends on (``vid`` excluded)."""
    found: Set[VersionId] = set()
    pending = list(deps.get(vid, ()))
    while pending:
        dep = pending.pop()
        if dep in found:
            continue
        found.add(dep)
        pending.extend(deps.get(dep, ()))
    return found


def newest_per_key(versions: Iterable[VersionId]) -> Dict[str, VersionId]:
    """The newest version of each key among ``versions``."""
    newest: Dict[str, VersionId] = {}
    for vid in versions:
        if vid[0] not in newest or _order(vid) > _order(newest[vid[0]]):
            newest[vid[0]] = vid
    return newest


def reference_check(events: Iterable[TraceEvent], level: str = "tcc") -> List[Verdict]:
    """All violations of ``level``'s invariants in an event stream."""
    deps: Dict[VersionId, Tuple[VersionId, ...]] = {}
    tx_writes: Dict[Tuple[int, int], Tuple[VersionId, ...]] = {}
    own: Dict[str, Dict[str, VersionId]] = {}
    seen: Dict[str, Dict[str, VersionId]] = {}
    verdicts: List[Verdict] = []
    for event in events:
        if isinstance(event, CommitEvent):
            for vid in event.written:
                # Dependency timestamps: every dependency has a smaller ut.
                for dep in event.deps:
                    if dep[1] >= vid[1]:
                        verdicts.append((
                            "dependency-timestamps",
                            "(commit order)",
                            f"version {vid} has ut {vid[1]} <= its dependency "
                            f"{dep} with ut {dep[1]}",
                        ))
                deps[vid] = event.deps
                mine = own.setdefault(event.client, {})
                mine[vid[0]] = max(mine.get(vid[0], vid), vid, key=_order)
            if event.written:
                tx_writes[event.tid] = event.written
            continue
        returned = {key: vid for key, (vid, _source) in event.returned.items() if vid is not None}
        for key, (vid, source) in event.returned.items():
            if vid is None:
                continue
            if level == "tcc" and vid in deps:
                # Causal snapshot: nothing read is older than what vid needs.
                required = newest_per_key(reachable(vid, deps))
                for other, other_vid in returned.items():
                    need = required.get(other)
                    if other != key and need is not None and _order(other_vid) < _order(need):
                        verdicts.append((
                            "causal-snapshot",
                            event.client,
                            f"tx {event.tid} read {vid} of {key!r} but an older "
                            f"{other_vid} of {other!r} (requires >= {need})",
                        ))
            if level == "tcc":
                # Atomic visibility: no older version of a sibling write.
                for sibling in tx_writes.get(vid[2], ()):
                    got = returned.get(sibling[0])
                    if sibling[0] != key and got is not None and _order(got) < _order(sibling):
                        verdicts.append((
                            "atomic-visibility",
                            event.client,
                            f"tx {event.tid} saw {vid} of {key!r} from tx {vid[2]} but "
                            f"older {got} of {sibling[0]!r} (fractured read)",
                        ))
            # Read-your-writes (write-set reads are served from the write set).
            expected = own.get(event.client, {}).get(key)
            if source != "ws" and expected is not None and _order(vid) < _order(expected):
                verdicts.append((
                    "read-your-writes",
                    event.client,
                    f"read of {key!r} returned {vid}, older than the "
                    f"client's own committed {expected}",
                ))
            # Monotonic reads.
            client_seen = seen.setdefault(event.client, {})
            previous = client_seen.get(key)
            if previous is not None and _order(vid) < _order(previous):
                verdicts.append((
                    "monotonic-reads",
                    event.client,
                    f"read of {key!r} returned {vid} after having observed {previous}",
                ))
            if previous is None or _order(vid) > _order(previous):
                client_seen[key] = vid
    return verdicts
