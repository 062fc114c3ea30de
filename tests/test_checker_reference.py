"""Differential test: the production checker against the brute-force reference.

Hypothesis generates tiny histories over a few keys and sessions.  Clean
histories read consistent snapshots; mutated ones add stale reads, causal
fractures (one stale key, or every key read as of a different time),
atomic fractures, lost read-modify-writes and ut inversions.
On every history the unbounded :class:`StreamingChecker` must report the
same violations as ``tests/reference_checker.py`` (compared as multisets
of ``(kind, client, detail)``), and a finite window, retiring versions
after every commit, may only drop verdicts, never add them.  A retired
dependency is a leaf, so a windowed causal-snapshot verdict may cite an
older required version than the unbounded one for the same fractured read.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import streaming
from repro.consistency.events import CommitEvent, ReadEvent
from repro.consistency.streaming import StreamingChecker
from repro.storage.version import PRELOAD_TID
from tests.reference_checker import reference_check

KEYS = ("a", "b", "c", "d")
CLIENTS = ("s0", "s1", "s2")
#: One commit's step in HLC units: one microsecond of physical time.
TICK = 1 << 16

CLEAN_OPS = ("commit", "read")
MUTATIONS = ("stale", "fracture", "skew", "atomic", "rmw", "invert")


def step_strategy(ops: Sequence[str]):
    """One step: (operation, session, two small operands read modulo the state)."""
    return st.tuples(
        st.sampled_from(ops),
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, 7),
        st.integers(0, 7),
    )


steps = step_strategy(CLEAN_OPS + MUTATIONS)
clean_steps = step_strategy(CLEAN_OPS)


def preload(key: str) -> tuple:
    """The version id of a key's preloaded base version."""
    return (key, 0, PRELOAD_TID, 0)


class History:
    """A growing event stream plus the world state that shapes it."""

    def __init__(self) -> None:
        self.events: List[object] = []
        self.versions: Dict[str, List[tuple]] = {key: [] for key in KEYS}
        self.frontier: Dict[str, Dict[str, tuple]] = {}
        self.now = 0
        self.tx = 0

    def commit(self, client: str, keys: Sequence[str], ut: Optional[int] = None) -> List[tuple]:
        """A commit by ``client``; deps are its observed frontier."""
        self.tx += 1
        if ut is None:
            self.now += TICK
            ut = self.now
        tid = (self.tx, 1)
        frontier = self.frontier.setdefault(client, {})
        written = tuple((key, ut, tid, 0) for key in dict.fromkeys(keys))
        self.events.append(
            CommitEvent(
                seq=len(self.events),
                client=client,
                tid=tid,
                commit_ts=ut,
                written=written,
                deps=tuple(sorted(frontier.values())),
                at=float(len(self.events)),
            )
        )
        for vid in written:
            self.versions[vid[0]].append(vid)
            self._observe(frontier, vid)
        return list(written)

    def read(self, client: str, returned: Dict[str, tuple]) -> None:
        """A read phase by ``client`` returning the given version ids."""
        self.events.append(
            ReadEvent(
                seq=len(self.events),
                client=client,
                tid=(len(self.events), 99),
                snapshot=self.now,
                returned={key: (vid, "store") for key, vid in returned.items()},
                at=float(len(self.events)),
            )
        )
        frontier = self.frontier.setdefault(client, {})
        for vid in returned.values():
            if vid[2] != PRELOAD_TID:
                self._observe(frontier, vid)

    def snapshot(self, client: str, lag: int) -> Dict[str, tuple]:
        """Every key at a past time no older than the client's frontier.

        Update times grow with each commit and every dependency is older
        than its dependent, so the newest versions at any time form a
        causally consistent, atomic snapshot.
        """
        floor = max((vid[1] for vid in self.frontier.get(client, {}).values()), default=0)
        at = max(floor, self.now - lag * TICK)
        snapshot = {}
        for key, versions in self.versions.items():
            visible = [vid for vid in versions if vid[1] <= at]
            snapshot[key] = max(visible, key=lambda vid: vid[1:]) if visible else preload(key)
        return snapshot

    def oldest(self, key: str, skip: int = 0) -> tuple:
        """The ``skip``-th oldest committed version of ``key`` (modulo the
        number of versions; the key's preload if it has none)."""
        versions = sorted(self.versions[key], key=lambda vid: vid[1:])
        return versions[skip % len(versions)] if versions else preload(key)

    @staticmethod
    def _observe(frontier: Dict[str, tuple], vid: tuple) -> None:
        current = frontier.get(vid[0])
        if current is None or vid[1:] > current[1:]:
            frontier[vid[0]] = vid


def build(ops: Sequence[Tuple[str, int, int, int]]) -> List[object]:
    """Interpret generated steps as an event stream."""
    history = History()
    for op, session, x, y in ops:
        client = CLIENTS[session]
        key = KEYS[x % len(KEYS)]
        other = KEYS[y % len(KEYS)]
        if op == "commit":
            history.commit(client, [key, other] if x > 3 else [key])
        elif op == "read":
            snapshot = history.snapshot(client, lag=y)
            keys = KEYS[: 1 + x % len(KEYS)]
            history.read(client, {k: snapshot[k] for k in keys})
        elif op == "stale":
            # A session re-reads a key at its oldest version.
            returned = history.snapshot(client, lag=0)
            returned[key] = history.oldest(key)
            history.read(client, returned)
        elif op == "fracture":
            # A fresh reader sees everything new except one older key.
            returned = history.snapshot("reader", lag=0)
            returned[key] = history.oldest(key, skip=y)
            history.read("reader", returned)
        elif op == "skew":
            # A fresh reader sees each key as of a different time.
            returned = {
                k: history.snapshot("reader", lag=(x * (i + 1) + y) % 8)[k]
                for i, k in enumerate(KEYS)
            }
            history.read("reader", returned)
        elif op == "atomic":
            if key == other:
                other = KEYS[(x + 1) % len(KEYS)]
            before = history.oldest(other)
            written = history.commit(client, [key, other])
            history.read("reader", {key: written[0], other: before})
        elif op == "rmw":
            before = history.oldest(key)
            history.commit(client, [key])
            history.read(client, {key: before})
        elif op == "invert":
            # A commit whose ut does not exceed its newest dependency's.
            deps = history.frontier.get(client, {})
            ut = max((vid[1] for vid in deps.values()), default=history.now)
            history.commit(client, [key], ut=ut)
    return history.events


def verdicts(checker: StreamingChecker) -> Counter:
    """The multiset of a checker's ``(kind, client, detail)`` verdicts."""
    return Counter((v.kind, v.client, v.detail) for v in checker.violations)


def identities(checker: StreamingChecker) -> Counter:
    """Verdicts with a causal snapshot's cited requirement left out."""
    return Counter(
        (v.kind, v.client, v.detail.partition(" (requires >= ")[0])
        for v in checker.violations
    )


def requirements(checker: StreamingChecker) -> Dict[tuple, tuple]:
    """The required version each causal-snapshot verdict cites."""
    cited = {}
    for v in checker.violations:
        if v.kind == "causal-snapshot":
            head, _, required = v.detail.partition(" (requires >= ")
            cited[(v.client, head)] = ast.literal_eval(required[:-1])
    return cited


def run(events, window=None, level="tcc") -> StreamingChecker:
    """Feed ``events`` to a fresh checker."""
    checker = StreamingChecker(window=window, level=level)
    checker.run(iter(events))
    return checker


class TestReferenceDifferential:
    @given(st.lists(clean_steps, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_clean_histories_are_clean(self, ops):
        events = build(ops)
        assert reference_check(events) == []
        assert run(events).violations == []

    @given(st.lists(steps, min_size=20, max_size=80), st.sampled_from(["tcc", "session"]))
    @settings(max_examples=300, deadline=None)
    def test_unbounded_checker_equals_reference(self, ops, level):
        events = build(ops)
        assert verdicts(run(events, level=level)) == Counter(reference_check(events, level))

    @given(st.lists(steps, min_size=20, max_size=80), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_windowed_verdicts_are_a_subset(self, ops, ticks):
        """Retiring after every commit only ever drops verdicts, and a
        verdict it keeps cites a requirement no newer than the unbounded
        checker's."""
        events = build(ops)
        unbounded = run(events)
        with mock.patch.object(streaming, "RETIRE_EVERY", 1):
            windowed = run(events, window=ticks * 1e-6)
        assert identities(windowed) <= identities(unbounded)
        full = requirements(unbounded)
        for read, required in requirements(windowed).items():
            assert required[1:] <= full[read][1:]

    def test_mutations_are_detected(self):
        """Each mutation shape alone yields its violation kind in both checkers."""
        prefix = [("commit", 0, 0, 0), ("commit", 0, 1, 0), ("commit", 1, 0, 0),
                  ("read", 0, 3, 0), ("commit", 0, 4, 1)]
        expected = {
            "stale": "monotonic-reads",
            "fracture": "causal-snapshot",
            "atomic": "atomic-visibility",
            "rmw": "read-your-writes",
            "invert": "dependency-timestamps",
        }
        for mutation, kind in expected.items():
            events = build(prefix + [(mutation, 0, 0, 0)])
            found = verdicts(run(events))
            assert found == Counter(reference_check(events)), mutation
            assert kind in {verdict[0] for verdict in found}, mutation
