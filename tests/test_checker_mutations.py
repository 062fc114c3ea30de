"""Mutation testing of the consistency checker.

The strongest evidence a checker works is that it flags *corrupted* versions
of histories it accepts.  These property tests generate a valid causal
history (sequential sessions over shared keys), verify it is clean, then
apply a random corruption — and assert the checker notices.

The streaming-path mutations at the bottom repeat the exercise against the
windowed :class:`~repro.consistency.streaming.StreamingChecker`, with the
violating version deliberately pushed *across the retirement boundary*: the
classic breakage shapes (stale read, lost read-modify-write, causal
fracture, fractured atomic write) must still be caught after the checker
has dropped the version's in-window state (docs/scaling.md).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import ConsistencyChecker
from repro.consistency.events import CommitEvent, ReadEvent
from repro.consistency.oracle import ConsistencyOracle
from repro.consistency.streaming import RETIRE_EVERY, StreamingChecker
from repro.core.client import ReadResult
from repro.storage.version import Version

KEYS = ["a", "b", "c"]


def build_valid_history(seed: int, n_steps: int):
    """A well-formed history: clients alternately read-all then write one key.

    Reads always return the globally newest committed version of each key
    (single sequential world — trivially causal), so the checker must accept
    it.  Returns (oracle, log) where the log allows targeted corruption.
    """
    rng = random.Random(seed)
    oracle = ConsistencyOracle()
    latest: Dict[str, Version] = {}
    history: List[Version] = []
    seq = 0
    for step in range(n_steps):
        client = f"client-{rng.randrange(3)}"
        # Read phase: everything currently committed.
        results = {
            key: ReadResult(key=key, value=v.value, source="store", version=v)
            for key, v in latest.items()
        }
        if results:
            oracle.record_read(
                client=client, tid=(step, 99), snapshot=10**9,
                results=results, at=float(step),
            )
        # Write phase: one key, strictly increasing timestamps.
        seq += 1
        key = rng.choice(KEYS)
        version = Version(key=key, value=f"v{seq}", ut=seq * 10, tid=(seq, 1), sr=0)
        oracle.record_commit(
            client=client, tid=version.tid, commit_ts=version.ut,
            written={key: version},
            read_versions=[r.version for r in results.values()],
            at=float(step) + 0.5,
        )
        latest[key] = version
        history.append(version)
    return oracle, history, latest


class TestMutations:
    @given(st.integers(0, 10_000), st.integers(5, 25))
    @settings(max_examples=40, deadline=None)
    def test_valid_history_accepted(self, seed, n_steps):
        oracle, _, _ = build_valid_history(seed, n_steps)
        assert ConsistencyChecker(oracle).check_all() == []

    @given(st.integers(0, 10_000), st.integers(8, 25))
    @settings(max_examples=40, deadline=None)
    def test_stale_read_mutation_is_caught(self, seed, n_steps):
        """Corrupt the final read: return the OLDEST version of a key that
        has at least two versions, after the session has seen the newest."""
        oracle, history, latest = build_valid_history(seed, n_steps)
        by_key: Dict[str, List[Version]] = {}
        for version in history:
            by_key.setdefault(version.key, []).append(version)
        multi = [key for key, versions in by_key.items() if len(versions) >= 2]
        if not multi:
            return  # degenerate draw: nothing to corrupt
        key = multi[0]
        stale = by_key[key][0]
        client = "client-0"
        # The client first observes the fresh state...
        fresh_results = {
            k: ReadResult(key=k, value=v.value, source="store", version=v)
            for k, v in latest.items()
        }
        oracle.record_read(
            client=client, tid=(9_000, 99), snapshot=10**9,
            results=fresh_results, at=1_000.0,
        )
        # ...then a corrupted read returns the stale version.
        oracle.record_read(
            client=client, tid=(9_001, 99), snapshot=10**9,
            results={
                key: ReadResult(key=key, value=stale.value, source="store", version=stale)
            },
            at=1_001.0,
        )
        violations = ConsistencyChecker(oracle).check_all()
        assert violations, "mutation not detected"
        kinds = {violation.kind for violation in violations}
        assert "monotonic-reads" in kinds

    @given(st.integers(0, 10_000), st.integers(8, 25))
    @settings(max_examples=40, deadline=None)
    def test_fractured_atomic_write_is_caught(self, seed, n_steps):
        """Append an atomic two-key transaction, then a read returning one of
        its writes next to a pre-transaction version of the other key."""
        oracle, history, latest = build_valid_history(seed, n_steps)
        old_b = latest.get("b")
        if old_b is None:
            return
        pair = {
            "a": Version(key="a", value="pairA", ut=10**6, tid=(777, 7), sr=0),
            "b": Version(key="b", value="pairB", ut=10**6, tid=(777, 7), sr=0),
        }
        oracle.record_commit(
            client="writer", tid=(777, 7), commit_ts=10**6,
            written=pair, read_versions=[], at=2_000.0,
        )
        oracle.record_read(
            client="fresh-reader", tid=(9_100, 99), snapshot=10**9,
            results={
                "a": ReadResult(key="a", value="pairA", source="store", version=pair["a"]),
                "b": ReadResult(key="b", value=old_b.value, source="store", version=old_b),
            },
            at=2_001.0,
        )
        violations = ConsistencyChecker(oracle).check_all()
        kinds = {violation.kind for violation in violations}
        assert "atomic-visibility" in kinds

    @given(st.integers(0, 10_000), st.integers(8, 20))
    @settings(max_examples=30, deadline=None)
    def test_timestamp_inversion_is_caught(self, seed, n_steps):
        """Append a commit whose ct does not exceed a dependency's ct."""
        oracle, history, latest = build_valid_history(seed, n_steps)
        dep = history[-1]
        bad = Version(key="c", value="bad", ut=dep.ut, tid=(888, 8), sr=0)
        oracle.record_commit(
            client="confused", tid=bad.tid, commit_ts=bad.ut,
            written={"c": bad}, read_versions=[dep], at=3_000.0,
        )
        violations = ConsistencyChecker(oracle).check_dependency_timestamps()
        assert violations
        assert all(v.kind == "dependency-timestamps" for v in violations)


# ----------------------------------------------------------------------
# Streaming path: mutations that cross the retirement window boundary
# ----------------------------------------------------------------------
def hlc(seconds: float) -> int:
    """An HLC-packed timestamp at ``seconds`` of simulated physical time."""
    return int(seconds * 1_000_000) << 16


def vid(key: str, seconds: float, tid: Tuple[int, int], sr: int = 0):
    """A version id committed at ``seconds``."""
    return (key, hlc(seconds), tid, sr)


class _StreamBuilder:
    """Builds a well-formed event stream for the streaming checker."""

    def __init__(self) -> None:
        self.events: List[object] = []
        self._seq = 0

    def commit(
        self,
        client: str,
        written: Sequence[Tuple[str, float]],
        tid: Tuple[int, int],
        deps: Sequence[tuple] = (),
    ) -> List[tuple]:
        """One committed transaction; returns the written version ids."""
        vids = [vid(key, seconds, tid) for key, seconds in written]
        self.events.append(
            CommitEvent(
                seq=self._seq,
                client=client,
                tid=tid,
                commit_ts=max(v[1] for v in vids),
                written=tuple(vids),
                deps=tuple(deps),
                at=float(self._seq),
            )
        )
        self._seq += 1
        return vids

    def read(
        self,
        client: str,
        returned: Dict[str, Optional[tuple]],
        source: str = "store",
    ) -> None:
        """One read phase returning the given version ids."""
        self.events.append(
            ReadEvent(
                seq=self._seq,
                client=client,
                tid=(self._seq, 99),
                snapshot=hlc(10_000.0),
                returned={key: (v, source) for key, v in returned.items()},
                at=float(self._seq),
            )
        )
        self._seq += 1

    def retire_past(self, start: float) -> None:
        """Enough filler commits after ``start`` to sweep retirement.

        Retirement is amortised every RETIRE_EVERY commits, so the filler
        burst both advances the watermark past ``start`` + window and
        guarantees at least one sweep runs afterwards.
        """
        for i in range(RETIRE_EVERY + 50):
            self.commit(
                "filler",
                [(f"filler:{i}", start + 1.0 + i * 0.01)],
                tid=(100_000 + i, 5),
            )

    def check(self, window: float = 0.5, level: str = "tcc") -> StreamingChecker:
        """Run the built stream through a windowed checker."""
        checker = StreamingChecker(window=window, level=level)
        checker.run(iter(self.events))
        return checker


class TestStreamingMutationsAcrossRetirement:
    def _two_versions_retired(self) -> Tuple[_StreamBuilder, tuple, tuple]:
        """v1 then v2 of key 'a', both pushed beyond the retirement window."""
        builder = _StreamBuilder()
        (v1,) = builder.commit("writer", [("a", 1.0)], tid=(1, 1))
        (v2,) = builder.commit("writer", [("a", 2.0)], tid=(2, 1), deps=(v1,))
        builder.retire_past(2.0)
        return builder, v1, v2

    def test_filler_history_is_clean(self):
        """The retirement scaffolding itself must not trip the checker."""
        builder, _, v2 = self._two_versions_retired()
        builder.read("reader", {"a": v2})
        checker = builder.check()
        assert checker.violations == []
        assert checker.versions_retired > 0

    def test_stale_read_caught_after_retirement(self):
        """Monotonic reads: v1 returned after v2 was observed, both retired."""
        builder, v1, v2 = self._two_versions_retired()
        builder.read("reader", {"a": v2})
        builder.read("reader", {"a": v1})
        checker = builder.check()
        kinds = {v.kind for v in checker.violations}
        assert "monotonic-reads" in kinds

    def test_lost_rmw_caught_after_retirement(self):
        """Read-your-writes: the writer reads back below its own retired write."""
        builder, v1, v2 = self._two_versions_retired()
        builder.read("writer", {"a": v1})
        checker = builder.check()
        kinds = {v.kind for v in checker.violations}
        assert "read-your-writes" in kinds

    def test_causal_fracture_caught_at_the_retired_tip(self):
        """Causal snapshot: y depends on x2; a read pairs y with retired x1.

        y is the newest retired version of its key, so the per-key tip
        digest still carries its dependency frontier.
        """
        builder = _StreamBuilder()
        (x1,) = builder.commit("wx", [("x", 1.0)], tid=(1, 1))
        (x2,) = builder.commit("wx", [("x", 2.0)], tid=(2, 1), deps=(x1,))
        (y1,) = builder.commit("wy", [("y", 3.0)], tid=(3, 2), deps=(x2,))
        builder.retire_past(3.0)
        builder.read("frac", {"y": y1, "x": x1})
        checker = builder.check()
        kinds = {v.kind for v in checker.violations}
        assert "causal-snapshot" in kinds

    def test_atomic_fracture_caught_at_the_retired_tip(self):
        """Atomic visibility: one half of a retired atomic pair read stale."""
        builder = _StreamBuilder()
        (b1,) = builder.commit("w", [("b", 1.0)], tid=(1, 1))
        pair = builder.commit("w", [("a", 2.0), ("b", 2.0)], tid=(2, 1), deps=(b1,))
        a2 = next(v for v in pair if v[0] == "a")
        builder.retire_past(2.0)
        builder.read("frac", {"a": a2, "b": b1})
        checker = builder.check()
        kinds = {v.kind for v in checker.violations}
        assert "atomic-visibility" in kinds

    def test_retirement_actually_crossed(self):
        """Meta-assertion: the scaffolding really does retire the victims."""
        builder, v1, v2 = self._two_versions_retired()
        checker = builder.check()
        assert checker.versions_retired >= 2
        # The retired versions are out of the dependency window but the
        # newest one survives as the key's tip digest.
        assert checker.state_size < checker.commits_checked


# ----------------------------------------------------------------------
# The covered-dependency rule of the closure build must not over-prune
# ----------------------------------------------------------------------
class TestCoveredDependencyRule:
    def test_newer_version_of_a_deps_key_does_not_cover_the_dep(self):
        """v depends on p and q; p's closure holds a newer q-key version but
        does not reach q, and only q's closure holds z5.

        Skipping q because the frontier already holds a q-key version at
        least as new would lose z5; only direct deps of a merged dep are
        skipped, so the read of v next to z3 is still a causal fracture.
        """
        builder = _StreamBuilder()
        (z3,) = builder.commit("wz", [("z", 3.0)], tid=(1, 1))
        (z5,) = builder.commit("wz", [("z", 5.0)], tid=(2, 1), deps=(z3,))
        (q,) = builder.commit("wq", [("q", 6.0)], tid=(3, 2), deps=(z5,))
        (q_newer,) = builder.commit("wn", [("q", 7.0)], tid=(4, 3))
        (p,) = builder.commit("wp", [("p", 8.0)], tid=(5, 4), deps=(q_newer,))
        (v,) = builder.commit("wv", [("v", 9.0)], tid=(6, 5), deps=(p, q))
        builder.read("reader", {"v": v, "z": z3})
        checker = builder.check(window=None)
        assert checker._closure(v) == {"p": p, "q": q_newer, "z": z5}
        details = [x.detail for x in checker.violations if x.kind == "causal-snapshot"]
        assert len(details) == 1
        assert f"requires >= {z5}" in details[0]

    def test_dep_reached_only_through_a_skipped_dep_counts(self):
        """v depends on a and b, and a on b: b is skipped when v's closure
        is built, yet z2, reached only through b, stays in it."""
        builder = _StreamBuilder()
        (z1,) = builder.commit("wz", [("z", 1.0)], tid=(1, 1))
        (z2,) = builder.commit("wz", [("z", 2.0)], tid=(2, 1), deps=(z1,))
        (b,) = builder.commit("wb", [("b", 3.0)], tid=(3, 2), deps=(z2,))
        (a,) = builder.commit("wa", [("a", 4.0)], tid=(4, 3), deps=(b,))
        (v,) = builder.commit("wv", [("v", 5.0)], tid=(5, 4), deps=(a, b))
        builder.read("reader", {"v": v, "z": z1})
        checker = builder.check(window=None)
        assert checker._closure(v) == {"a": a, "b": b, "z": z2}
        kinds = [x.kind for x in checker.violations]
        assert kinds == ["causal-snapshot"]

    def test_dep_committed_after_a_covering_closure_counts(self):
        """p names q before q's commit arrives, and p's closure is built
        then, with q as a leaf.  Once q arrives (depending on z5), v with
        deps p and q must still merge q's closure rather than skip q as a
        direct dep of p."""
        builder = _StreamBuilder()
        (z3,) = builder.commit("wz", [("z", 3.0)], tid=(1, 1))
        (z5,) = builder.commit("wz", [("z", 5.0)], tid=(2, 1), deps=(z3,))
        q = vid("q", 6.0, (3, 2))
        (p,) = builder.commit("wp", [("p", 7.0)], tid=(4, 3), deps=(q,))
        builder.read("early", {"p": p})
        builder.commit("wq", [("q", 6.0)], tid=(3, 2), deps=(z5,))
        (v,) = builder.commit("wv", [("v", 8.0)], tid=(5, 4), deps=(p, q))
        builder.read("reader", {"v": v, "z": z3})
        checker = builder.check(window=None)
        assert checker._closure(p) == {"q": q}
        assert checker._closure(v) == {"p": p, "q": q, "z": z5}
        kinds = [x.kind for x in checker.violations]
        assert kinds == ["causal-snapshot"]
