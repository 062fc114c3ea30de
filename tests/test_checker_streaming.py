"""Streaming checker equivalence: one-pass verdicts match the reference.

With an unbounded window the streaming checker (and so the in-memory
:class:`~repro.consistency.checker.ConsistencyChecker`, its ``window=None``
case) must report exactly what the brute-force reference checker
(``tests/reference_checker.py``) derives from the invariant definitions:
same violations, same counts, same detail strings.  These tests prove that
run-for-run over every registered protocol x three workload profiles x
seeds — about fifty seeded live runs — and additionally that the JSONL
trace round-trip (encode -> file -> decode) changes nothing.
"""

from __future__ import annotations

import pytest

from repro import build_cluster, small_test_config
from repro.bench.harness import deploy_sessions
from repro.consistency.oracle import ConsistencyOracle
from repro.consistency.streaming import (
    StreamingChecker,
    check_trace,
    dump_trace,
    oracle_events,
)
from repro.protocols import get_protocol, protocol_names
from repro.workload.runner import SessionStats
from tests.reference_checker import reference_check

#: Three workload shapes: the paper's default zipfian read-heavy mix, the
#: write-heavy YCSB-A mix, and YCSB-D's latest-biased distribution.
PROFILES = ("default", "ycsb_a", "ycsb_d")
SEEDS = (7, 23)


def run_with_oracle(protocol: str, profile: str, seed: int) -> ConsistencyOracle:
    """One tiny live run recording through the in-memory oracle."""
    config = small_test_config(
        n_dcs=3,
        machines_per_dc=2,
        keys_per_partition=10,
        threads_per_client=1,
        seed=seed,
        profile=profile,
    ).with_(warmup=0.3, duration=0.4)
    oracle = ConsistencyOracle()
    cluster = build_cluster(config, protocol=protocol, oracle=oracle)
    stats = SessionStats()
    for driver in deploy_sessions(cluster, stats):
        driver.start()
    cluster.sim.run(until=config.warmup + config.duration)
    return oracle


def violation_triples(violations):
    """The order-insensitive fingerprint of a violation list."""
    return sorted((v.kind, v.client, v.detail) for v in violations)


def reference_triples(oracle, level):
    """The reference checker's verdicts on an oracle history, sorted."""
    return sorted(reference_check(oracle_events(oracle), level))


class TestStreamingEquivalence:
    """Unbounded-window streaming == reference, over the whole registry."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("protocol", sorted(protocol_names()))
    def test_verdicts_identical(self, protocol, profile, seed):
        level = get_protocol(protocol).consistency
        oracle = run_with_oracle(protocol, profile, seed)
        assert len(oracle.commits) > 10, "run too small to be meaningful"
        expected = reference_triples(oracle, level)
        checker = StreamingChecker(window=None, level=level)
        actual = checker.run(oracle_events(oracle))
        assert len(actual) == len(expected)
        assert violation_triples(actual) == expected
        assert checker.commits_checked == len(oracle.commits)
        assert checker.reads_checked == len(oracle.reads)

    def test_trace_file_round_trip_identical(self, tmp_path):
        """encode -> JSONL file -> decode -> check == reference check.

        The eventual protocol is checked at the *tcc* level it does not
        claim, precisely because that yields a violation-rich history: the
        round trip must preserve every one of them byte-for-byte.
        """
        oracle = run_with_oracle("eventual", "default", 7)
        expected = reference_triples(oracle, "tcc")
        assert expected, "expected the eventual protocol to violate causality"
        path = tmp_path / "trace.jsonl"
        count = dump_trace(oracle, path)
        assert count == len(oracle.commits) + len(oracle.reads)
        checker = check_trace(path, window=None, level="tcc")
        assert violation_triples(checker.violations) == expected

    def test_tcc_trace_round_trip_clean(self, tmp_path):
        """A clean paris run stays clean through the file round trip."""
        oracle = run_with_oracle("paris", "default", 7)
        assert reference_triples(oracle, "tcc") == []
        path = tmp_path / "trace.jsonl"
        dump_trace(oracle, path)
        assert check_trace(path, window=None, level="tcc").violations == []


class TestWindowedStreaming:
    """Finite windows: still clean on clean runs, still catch real breakage."""

    @pytest.mark.parametrize("protocol", ["paris", "bpr", "cure", "occult"])
    def test_clean_protocols_stay_clean_windowed(self, protocol):
        """Retirement must never invent violations on a valid history."""
        oracle = run_with_oracle(protocol, "default", 7)
        checker = StreamingChecker(window=0.2, level="tcc")
        checker.run(oracle_events(oracle))
        assert checker.violations == []

    def test_windowed_violations_subset_of_unbounded(self):
        """A finite window may skip retired state but never adds verdicts.

        Checked on the eventual protocol at the tcc level it does not claim
        (a violation-rich history).  At the session level the verdicts are
        in fact *identical*, not merely a subset: per-client frontiers are
        never retired.
        """
        oracle = run_with_oracle("eventual", "default", 7)
        events = list(oracle_events(oracle))
        unbounded = StreamingChecker(window=None, level="tcc")
        unbounded.run(iter(events))
        assert unbounded.violations, "expected tcc violations from eventual"
        windowed = StreamingChecker(window=0.2, level="tcc")
        windowed.run(iter(events))
        full = set(violation_triples(unbounded.violations))
        assert set(violation_triples(windowed.violations)) <= full
        reference = StreamingChecker(window=None, level="session")
        reference.run(iter(events))
        bounded = StreamingChecker(window=0.2, level="session")
        bounded.run(iter(events))
        assert violation_triples(bounded.violations) == violation_triples(
            reference.violations
        )

    def test_retirement_bounds_state(self):
        """The windowed checker actually retires: state stays below total."""
        oracle = run_with_oracle("paris", "default", 7)
        checker = StreamingChecker(window=0.1, level="tcc")
        checker.run(oracle_events(oracle))
        assert checker.versions_retired > 0
        assert checker.state_size < checker.commits_checked
