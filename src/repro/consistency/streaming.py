"""Streaming consistency checking: the one implementation of the invariants.

:class:`StreamingChecker` checks the five invariants listed in
:mod:`repro.consistency.checker` over a one-pass *event stream*
(:mod:`repro.consistency.events`) in recording (sequence) order.  The
in-memory :class:`~repro.consistency.checker.ConsistencyChecker` is its
``window=None`` case, fed the history of a :class:`ConsistencyOracle`
through :func:`oracle_events`; the ``--big`` run tier feeds it from a
:class:`StreamingOracle` or a persisted trace instead:

* :class:`StreamingOracle` replaces the in-memory oracle for big runs: it
  keeps only per-session frontiers, computes each commit's direct
  dependencies exactly like the in-memory oracle, and spills the resulting
  events to a :class:`repro.sim.trace.TraceWriter` (and/or feeds an
  attached :class:`StreamingChecker` inline) instead of retaining them.
* With a finite window (seconds of commit time) the checker retires
  dependency and transaction state older than ``watermark - window`` and
  keeps, per key, a *retired tip digest* — the newest retired version's
  exact dependency frontier and transaction siblings — so the classic
  violation shapes (stale reads, causal fractures, lost read-modify-writes)
  are still caught even when the violating version has crossed the
  retirement boundary.

Memory profile with a finite window: dependency/closure/transaction maps
are O(versions committed inside the window); per-client monotonic-read and
own-write frontiers are O(clients x keys) — both independent of run
length (regression-tested with ``tracemalloc`` in
``tests/test_checker_memory.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..clocks.hlc import micros_to_timestamp
from ..sim.trace import TraceError, TraceWriter, read_jsonl_numbered
from ..storage.version import TransactionId, Version
from .events import (
    CommitEvent,
    ReadEvent,
    TraceEvent,
    decode_event,
    encode_commit,
    encode_read,
)
from .oracle import ConsistencyOracle, VersionId, is_preload, version_id

#: How many commits between retirement sweeps (amortises the heap pops).
RETIRE_EVERY = 256


@dataclass(frozen=True)
class Violation:
    """One detected consistency violation."""

    kind: str
    client: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.kind}] client={self.client}: {self.detail}"


#: A version id's update time; versions of one key compare as ``vid[1:]``.
_ut = itemgetter(1)


@dataclass(frozen=True, slots=True)
class RetiredTip:
    """Per-key digest of the newest version retired from the window.

    ``frontier`` is the version's per-key dependency frontier as known at
    retirement time (its memoized closure, in which dependencies retired
    before it are leaves), and ``siblings`` the full write set of its
    transaction.  Reads returning exactly this version are still checked
    for causal snapshots and atomic visibility; reads returning versions
    retired even earlier are skipped, the same sound-but-incomplete stance
    the in-memory checker documents.
    """

    vid: VersionId
    frontier: Mapping[str, VersionId]
    siblings: Tuple[VersionId, ...]


class StreamingChecker:
    """One-pass invariant checker over a consistency event stream.

    ``window`` is in seconds of commit (HLC physical) time; ``None`` keeps
    all state (the in-memory checker's mode).  ``level`` is the one
    :meth:`ConsistencyChecker.check_level` takes: ``"tcc"`` runs all five
    invariants, ``"session"`` only read-your-writes, monotonic reads, and
    dependency timestamps.
    """

    def __init__(self, window: Optional[float] = None, level: str = "tcc") -> None:
        if window is not None and window <= 0.0:
            raise ValueError("window must be positive (or None for unbounded)")
        if level not in ("tcc", "session"):
            raise ValueError(f"unknown consistency level {level!r}")
        self.window = window
        self.level = level
        self.violations: List[Violation] = []
        self.reads_checked = 0
        self.commits_checked = 0
        self.versions_retired = 0
        self._window_ts = (
            None if window is None else micros_to_timestamp(int(window * 1_000_000))
        )
        self._watermark = 0
        #: Cutoff of the last retirement sweep: every in-window version at
        #: or above it is still tracked.
        self._retired_below = 0
        #: Deps a closure met before their commit; ``_late`` holds those
        #: whose commit then arrived, which the covered rule never skips.
        self._unresolved: Set[VersionId] = set()
        self._late: Set[VersionId] = set()
        #: Direct dependencies of each in-window version (event payloads).
        self._deps: Dict[VersionId, Tuple[VersionId, ...]] = {}
        #: Memoized per-key dependency frontier of each version's closure.
        self._closures: Dict[VersionId, Dict[str, VersionId]] = {}
        self._tx_writes: Dict[TransactionId, Tuple[VersionId, ...]] = {}
        #: Retirement queues: versions by ut, transactions by max write ut.
        self._version_queue: List[Tuple[int, VersionId]] = []
        self._tx_queue: List[Tuple[int, TransactionId]] = []
        self._tips: Dict[str, RetiredTip] = {}
        #: Per-client frontiers (never retired: one vid per client x key).
        self._seen: Dict[str, Dict[str, VersionId]] = {}
        self._own: Dict[str, Dict[str, VersionId]] = {}
        self._commits_since_retire = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Consume one event, accumulating any violations it exposes."""
        if isinstance(event, CommitEvent):
            self._on_commit(event)
        elif isinstance(event, ReadEvent):
            self._on_read(event)
        else:
            raise TypeError(f"not a trace event: {event!r}")

    def run(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """Feed a whole stream; returns (and retains) all violations."""
        for event in events:
            self.feed(event)
        return self.violations

    @property
    def state_size(self) -> int:
        """In-window tracked versions (the O(window) part of the state)."""
        return len(self._deps)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def _on_commit(self, event: CommitEvent) -> None:
        self.commits_checked += 1
        deps = event.deps
        own = self._own.setdefault(event.client, {})
        for vid in event.written:
            for dep in deps:
                if dep[1] >= vid[1]:
                    self.violations.append(
                        Violation(
                            kind="dependency-timestamps",
                            client="(commit order)",
                            detail=(
                                f"version {vid} has ut {vid[1]} <= its dependency "
                                f"{dep} with ut {dep[1]}"
                            ),
                        )
                    )
            self._deps[vid] = deps
            heappush(self._version_queue, (vid[1], vid))
            if vid in self._unresolved or vid[1] < self._retired_below:
                self._unresolved.discard(vid)
                self._late.add(vid)
            key = vid[0]
            current = own.get(key)
            if current is None or vid[1:] > current[1:]:
                own[key] = vid
        if event.written:
            self._tx_writes[event.tid] = event.written
            heappush(
                self._tx_queue,
                (max(vid[1] for vid in event.written), event.tid),
            )
        if event.commit_ts > self._watermark:
            self._watermark = event.commit_ts
        if self._window_ts is not None:
            self._commits_since_retire += 1
            if self._commits_since_retire >= RETIRE_EVERY:
                self._commits_since_retire = 0
                self._retire()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _on_read(self, event: ReadEvent) -> None:
        self.reads_checked += 1
        client = event.client
        check_tcc = self.level == "tcc"
        own = self._own.get(client)
        seen = self._seen.setdefault(client, {})
        for key, (vid, source) in event.returned.items():
            if vid is not None and check_tcc:
                self._check_causal(event, key, vid)
                self._check_atomic(event, key, vid)
            # Read-your-writes (WS reads are served from the write set).
            if vid is not None and source != "ws" and own is not None:
                expected = own.get(key)
                if expected is not None and vid[1:] < expected[1:]:
                    self.violations.append(
                        Violation(
                            kind="read-your-writes",
                            client=client,
                            detail=(
                                f"read of {key!r} returned {vid}, older than the "
                                f"client's own committed {expected}"
                            ),
                        )
                    )
            # Monotonic reads.
            if vid is not None:
                previous = seen.get(key)
                if previous is not None and vid[1:] < previous[1:]:
                    self.violations.append(
                        Violation(
                            kind="monotonic-reads",
                            client=client,
                            detail=(
                                f"read of {key!r} returned {vid} after having "
                                f"observed {previous}"
                            ),
                        )
                    )
                if previous is None or vid[1:] > previous[1:]:
                    seen[key] = vid

    def _check_causal(self, event: ReadEvent, key: str, vid: VersionId) -> None:
        """Causal snapshot: no version observed while missing a dependency."""
        frontier = self._closures.get(vid)
        if frontier is None:
            if vid in self._deps:
                frontier = self._closure(vid)
            else:
                tip = self._tips.get(key)
                if tip is None or tip.vid != vid:
                    return  # preload, or retired beyond the per-key tip digest
                frontier = tip.frontier
        for dep_key, (returned, _source) in event.returned.items():
            if returned is None or dep_key == key:
                continue
            dep_vid = frontier.get(dep_key)
            if dep_vid is not None and returned[1:] < dep_vid[1:]:
                self.violations.append(
                    Violation(
                        kind="causal-snapshot",
                        client=event.client,
                        detail=(
                            f"tx {event.tid} read {vid} of {key!r} but an older "
                            f"{returned} of {dep_key!r} (requires >= {dep_vid})"
                        ),
                    )
                )

    def _check_atomic(self, event: ReadEvent, key: str, vid: VersionId) -> None:
        """Atomic visibility: no fractured reads of one write set."""
        tid = vid[2]
        siblings = self._tx_writes.get(tid)
        if siblings is None:
            tip = self._tips.get(key)
            if tip is None or tip.vid != vid:
                return
            siblings = tip.siblings
        if not siblings:
            return
        for sibling in siblings:
            sibling_key = sibling[0]
            if sibling_key == key:
                continue
            returned = event.returned.get(sibling_key)
            if returned is None or returned[0] is None:
                continue
            if returned[0][1:] < sibling[1:]:
                self.violations.append(
                    Violation(
                        kind="atomic-visibility",
                        client=event.client,
                        detail=(
                            f"tx {event.tid} saw {vid} of {key!r} from tx {tid} but "
                            f"older {returned[0]} of {sibling_key!r} (fractured read)"
                        ),
                    )
                )

    # ------------------------------------------------------------------
    # Closures and retirement
    # ------------------------------------------------------------------
    def _closure(self, vid: VersionId) -> Dict[str, VersionId]:
        """Transitive per-key dependency frontier of ``vid`` (memoized).

        An iterative post-order walk over the windowed dependency map
        (retired dependencies act as leaves: their own frontier
        contributions were retired first); each frontier is built by
        :meth:`_build_frontier`.
        """
        closures = self._closures
        cached = closures.get(vid)
        if cached is not None:
            return cached
        deps_of = self._deps
        stack: List[Tuple[VersionId, bool]] = [(vid, False)]
        while stack:
            current, expanded = stack.pop()
            if current in closures:
                continue
            deps = deps_of.get(current, ())
            if not expanded:
                stack.append((current, True))
                for dep in deps:
                    if dep not in closures and dep in deps_of:
                        stack.append((dep, False))
                continue
            closures[current] = self._build_frontier(deps)
        return closures[vid]

    def _build_frontier(self, deps: Tuple[VersionId, ...]) -> Dict[str, VersionId]:
        """Per-key max over each dep and its memoized closure.

        Deps are merged newest-first, and a dep that is a direct dep of an
        already merged one is skipped (the *covered* rule, as COPS/Eiger's
        nearest dependencies): a direct dep ``d`` of ``d1``, together with
        whatever closure ``d`` has now, already lies inside ``d1``'s stored
        closure, so merging it cannot change any per-key max.  That holds
        because a stored closure never changes, a dep retired since is a
        leaf contributing only itself, and a dep whose commit arrived after
        a closure that named it was built is in ``_late`` and never skipped.
        """
        closures = self._closures
        deps_of = self._deps
        late = self._late
        frontier: Dict[str, VersionId] = {}
        covered: Set[VersionId] = set()
        for dep in sorted(deps, key=_ut, reverse=True):
            if dep in covered and dep not in late:
                continue
            inner = closures.get(dep)
            if inner is not None:
                if frontier:
                    for key, inner_vid in inner.items():
                        # Mostly the very same version, or an older one:
                        # decide those without building (ut, tid, sr) slices.
                        held = frontier.get(key)
                        if held is None or (
                            held is not inner_vid
                            and inner_vid[1] >= held[1]
                            and inner_vid[1:] > held[1:]
                        ):
                            frontier[key] = inner_vid
                else:
                    frontier.update(inner)
                covered.update(deps_of[dep])
            elif dep[1] >= self._retired_below:
                self._unresolved.add(dep)  # not committed (yet)
            key = dep[0]
            held = frontier.get(key)
            if held is None or dep[1:] > held[1:]:
                frontier[key] = dep
        return frontier

    def _retire(self) -> None:
        """Drop dependency/transaction state older than the window.

        Versions leave in commit-timestamp order; the newest retiree of
        each key becomes that key's :class:`RetiredTip`.
        """
        cutoff = self._watermark - self._window_ts
        queue = self._version_queue
        while queue and queue[0][0] < cutoff:
            _, vid = heappop(queue)
            key = vid[0]
            tip = self._tips.get(key)
            if tip is None or vid[1:] > tip.vid[1:]:
                self._tips[key] = RetiredTip(
                    vid=vid,
                    frontier=self._closure(vid),
                    siblings=self._tx_writes.get(vid[2], ()),
                )
            self._deps.pop(vid, None)
            self._closures.pop(vid, None)
            self._late.discard(vid)
            self.versions_retired += 1
        if cutoff > self._retired_below:
            self._retired_below = cutoff
            self._unresolved = {vid for vid in self._unresolved if vid[1] >= cutoff}
        tx_queue = self._tx_queue
        while tx_queue and tx_queue[0][0] < cutoff:
            _, tid = heappop(tx_queue)
            self._tx_writes.pop(tid, None)


class StreamingOracle:
    """Drop-in oracle for big runs: spills events instead of retaining them.

    Implements the same ``record_read`` / ``record_commit`` interface (and
    dependency semantics) as :class:`ConsistencyOracle`, but holds only
    per-session frontiers.  Each recorded event goes to ``sink`` (a
    :class:`~repro.sim.trace.TraceWriter`) as one JSON line, to ``checker``
    (a :class:`StreamingChecker`) directly, or both.
    """

    def __init__(
        self,
        sink: Optional[TraceWriter] = None,
        checker: Optional[StreamingChecker] = None,
    ) -> None:
        if sink is None and checker is None:
            raise ValueError("a StreamingOracle needs a sink, a checker, or both")
        self.sink = sink
        self.checker = checker
        self.reads_recorded = 0
        self.commits_recorded = 0
        self._seq = itertools.count()
        self._frontiers: Dict[str, Dict[str, VersionId]] = {}

    def record_read(
        self,
        client: str,
        tid: TransactionId,
        snapshot: int,
        results: Mapping[str, object],
        at: float,
    ) -> None:
        """Record one read phase; updates the client's observed frontier."""
        frontier = self._frontiers.setdefault(client, {})
        returned: Dict[str, Tuple[Optional[VersionId], str]] = {}
        for key, result in results.items():
            version = result.version
            if version is None:
                returned[key] = (None, result.source)
                continue
            vid = version_id(version)
            returned[key] = (vid, result.source)
            if not is_preload(version):
                self._observe(frontier, key, vid)
        event = ReadEvent(
            seq=next(self._seq),
            client=client,
            tid=tid,
            snapshot=snapshot,
            returned=returned,
            at=at,
        )
        self.reads_recorded += 1
        if self.sink is not None:
            self.sink.write(encode_read(event))
        if self.checker is not None:
            self.checker.feed(event)

    def record_commit(
        self,
        client: str,
        tid: TransactionId,
        commit_ts: int,
        written: Mapping[str, Version],
        read_versions: List[Version],
        at: float,
    ) -> None:
        """Record a commit; the written versions depend on the session frontier."""
        frontier = self._frontiers.setdefault(client, {})
        for version in read_versions:
            if not is_preload(version):
                self._observe(frontier, version.key, version_id(version))
        deps = tuple(sorted(frontier.values()))
        written_ids = tuple(version_id(version) for version in written.values())
        for vid in written_ids:
            self._observe(frontier, vid[0], vid)
        event = CommitEvent(
            seq=next(self._seq),
            client=client,
            tid=tid,
            commit_ts=commit_ts,
            written=written_ids,
            deps=deps,
            at=at,
        )
        self.commits_recorded += 1
        if self.sink is not None:
            self.sink.write(encode_commit(event))
        if self.checker is not None:
            self.checker.feed(event)

    @staticmethod
    def _observe(frontier: Dict[str, VersionId], key: str, vid: VersionId) -> None:
        current = frontier.get(key)
        if current is None or vid[1:] > current[1:]:
            frontier[key] = vid


def oracle_events(oracle: ConsistencyOracle) -> Iterator[TraceEvent]:
    """The event stream of an in-memory oracle, in recording order.

    Lets any oracle-backed run be persisted (``repro check --trace-out``)
    or replayed through the streaming checker; equivalence tests use it to
    feed both checkers the same history.
    """
    merged: List[Union[ReadEvent, CommitEvent]] = [
        ReadEvent(
            seq=record.seq,
            client=record.client,
            tid=record.tid,
            snapshot=record.snapshot,
            returned=record.returned,
            at=record.at,
        )
        for record in oracle.reads
    ]
    for record in oracle.commits:
        merged.append(
            CommitEvent(
                seq=record.seq,
                client=record.client,
                tid=record.tid,
                commit_ts=record.commit_ts,
                written=record.written,
                deps=tuple(sorted(oracle.dependencies.get(record.written[0], ())))
                if record.written
                else (),
                at=record.at,
            )
        )
    merged.sort(key=lambda event: event.seq)
    return iter(merged)


def dump_trace(oracle: ConsistencyOracle, path) -> int:
    """Persist an in-memory oracle's history as a JSONL trace file.

    Returns the number of events written.  The file is deterministic for a
    deterministic run and re-checkable with ``repro check --trace-in``.
    """
    with TraceWriter(path) as sink:
        for event in oracle_events(oracle):
            if isinstance(event, ReadEvent):
                sink.write(encode_read(event))
            else:
                sink.write(encode_commit(event))
        return sink.count


def check_trace(
    path, window: Optional[float] = None, level: str = "tcc"
) -> StreamingChecker:
    """Re-check a persisted JSONL trace; returns the finished checker.

    A truncated or corrupt line, or a record that is not a consistency
    event, raises :class:`~repro.sim.trace.TraceError` naming the file and
    line.
    """
    checker = StreamingChecker(window=window, level=level)
    for lineno, obj in read_jsonl_numbered(path):
        try:
            event = decode_event(obj)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise TraceError(
                f"malformed consistency event in {path}, line {lineno}: {problem}"
            ) from exc
        checker.feed(event)
    return checker


def _read_merge_events(path, index: int) -> Iterator[Tuple[Tuple[float, int, int], dict]]:
    """Stream one shard trace decorated with its merge key.

    The key is ``(at, input_index, position)``: recording-time order first,
    then input order for cross-shard ties, then file position (which
    preserves each shard's own recording order, already nondecreasing in
    ``at``).  Truncated or corrupt lines raise
    :class:`~repro.sim.trace.TraceError` naming the file and line — a short
    shard file must never merge silently.
    """
    for position, (lineno, obj) in enumerate(read_jsonl_numbered(path)):
        if "at" not in obj or "seq" not in obj:
            raise TraceError(
                f"not a consistency event in {path}, line {lineno}: "
                f"missing 'at'/'seq' fields"
            )
        yield (obj["at"], index, position), obj


def merge_traces(inputs: List, output) -> int:
    """K-way merge shard traces into one canonical stream; returns its length.

    Events are merged in commit/record-time (``at``) order with ties broken
    deterministically by input position, ``seq`` is renumbered to the final
    stream position, and lines are re-serialised through
    :class:`~repro.sim.trace.TraceWriter` — so merging the per-shard traces
    of a sharded run reproduces, byte for byte, the single trace a
    single-kernel run of the same configuration writes.  The merged file is
    directly consumable by ``repro check --trace-in`` and the run
    repository.
    """
    from heapq import merge as heap_merge

    if not inputs:
        raise TraceError("no input traces to merge")
    streams = [_read_merge_events(path, index) for index, path in enumerate(inputs)]
    with TraceWriter(output) as sink:
        for seq, (_, obj) in enumerate(heap_merge(*streams, key=lambda pair: pair[0])):
            obj["seq"] = seq
            sink.write(obj)
        return sink.count
