"""The sharded runner: byte-identical to the single-kernel harness.

`repro.sim.sharded` partitions the DCs across worker processes advancing
in conservative latency windows.  These tests pin the headline guarantee —
summary AND trace bytes identical to `run_experiment` for every registered
protocol — plus the window/schedule math, the trace merge pass, the shared
worker-process plumbing, and the CLI surface (`repro run --shards/--profile`,
`repro trace merge`).
"""

from __future__ import annotations

import json

import pytest

from repro import cli, small_test_config
from repro.bench.harness import run_experiment
from repro.consistency.streaming import StreamingOracle, merge_traces
from repro.faults import FaultEvent, FaultPlan
from repro.protocols import protocol_names
from repro.sim.latency import LatencyModel
from repro.sim.sharded import (
    ShardingError,
    barrier_schedule,
    lookahead_window,
    run_sharded_experiment,
    shard_dcs,
)
from repro.sim.trace import TraceError, TraceWriter, read_jsonl
from repro.workers import WorkerCallableError, pool_map, require_module_level


def _config(**overrides):
    config = small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=20)
    return config.with_(warmup=0.2, duration=0.3, **overrides)


def _sequential(config, protocol, trace_path):
    """Single-kernel reference run, spilling its trace like --big does."""
    sink = TraceWriter(str(trace_path))
    try:
        result = run_experiment(
            config, protocol=protocol, oracle=StreamingOracle(sink=sink)
        )
    finally:
        sink.close()
    return result


def _square(x):
    return x * x


class TestShardAssignment:
    def test_contiguous_and_balanced(self):
        assert shard_dcs(3, 2) == [[0, 1], [2]]
        assert shard_dcs(5, 2) == [[0, 1, 2], [3, 4]]
        assert shard_dcs(4, 4) == [[0], [1], [2], [3]]

    def test_one_shard_is_everything(self):
        assert shard_dcs(3, 1) == [[0, 1, 2]]

    def test_more_shards_than_dcs_rejected(self):
        with pytest.raises(ShardingError, match="cannot split 3 DC"):
            shard_dcs(3, 4)

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ShardingError, match=">= 1"):
            shard_dcs(3, 0)


class TestLookaheadWindow:
    def test_paper_topology_floor(self):
        latency = LatencyModel.for_paper_deployment(3)
        # Cut {0,1}|{2}: min cross-cut RTT is 75ms -> 37.5ms one-way.
        assert lookahead_window(latency, [[0, 1], [2]]) == pytest.approx(0.0375)
        # All singletons: the global floor, 70ms RTT -> 35ms one-way.
        assert lookahead_window(latency, [[0], [1], [2]]) == pytest.approx(0.035)

    def test_cut_ignores_intra_shard_pairs(self):
        latency = LatencyModel.for_paper_deployment(3)
        both = lookahead_window(latency, [[0], [1], [2]])
        split = lookahead_window(latency, [[0, 1], [2]])
        assert both <= split

    def test_single_shard_has_no_cut(self):
        latency = LatencyModel.for_paper_deployment(3)
        with pytest.raises(ShardingError, match="cross-shard"):
            lookahead_window(latency, [[0, 1, 2]])

    def test_degenerate_zero_latency_cut_named(self):
        # Zero one-way latency across the cut: no conservative window
        # exists, and the error names the offending DC pairs.
        class _ZeroLatency:
            def base_one_way(self, dc_a, dc_b):
                return 0.0

        with pytest.raises(ShardingError, match="degenerate topology"):
            lookahead_window(_ZeroLatency(), [[0], [1]])


class TestBarrierSchedule:
    def test_anchors_present_and_last(self):
        schedule = barrier_schedule(0.2, 0.5, 0.035)
        assert (0.2, "open") in schedule
        assert schedule[-1] == (0.5, "close")
        assert schedule == sorted(schedule)

    def test_steps_never_exceed_window(self):
        schedule = barrier_schedule(0.2, 0.5, 0.035)
        times = [0.0] + [t for t, _ in schedule]
        for before, after in zip(times, times[1:]):
            assert after - before <= 0.035 + 1e-12

    def test_huge_window_degenerates_to_anchors(self):
        assert barrier_schedule(0.2, 0.5, 10.0) == [(0.2, "open"), (0.5, "close")]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ShardingError):
            barrier_schedule(0.2, 0.5, 0.0)
        with pytest.raises(ShardingError):
            barrier_schedule(0.6, 0.5, 0.035)


class TestByteIdentity:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_summary_and_trace_identical_at_two_shards(self, protocol, tmp_path):
        config = _config()
        seq = _sequential(config, protocol, tmp_path / "seq.jsonl")
        sharded = run_sharded_experiment(
            config, 2, protocol=protocol, trace_path=str(tmp_path / "sh.jsonl")
        )
        assert sharded.to_dict() == seq.to_dict()
        assert (tmp_path / "sh.jsonl").read_bytes() == (
            tmp_path / "seq.jsonl"
        ).read_bytes()

    def test_three_shards_identical(self, tmp_path):
        config = _config()
        seq = _sequential(config, "paris", tmp_path / "seq.jsonl")
        sharded = run_sharded_experiment(
            config, 3, protocol="paris", trace_path=str(tmp_path / "sh.jsonl")
        )
        assert sharded.to_dict() == seq.to_dict()
        assert (tmp_path / "sh.jsonl").read_bytes() == (
            tmp_path / "seq.jsonl"
        ).read_bytes()

    def test_faulted_run_identical(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent(at=0.15, action="crash", dc=2, partition=1),
                FaultEvent(at=0.25, action="partition", dcs=(0, 2)),
                FaultEvent(at=0.35, action="heal", dcs=(0, 2)),
                FaultEvent(at=0.4, action="recover", dc=2, partition=1),
            )
        )
        config = _config(faults=plan)
        seq = _sequential(config, "paris", tmp_path / "seq.jsonl")
        sharded = run_sharded_experiment(
            config, 3, protocol="paris", trace_path=str(tmp_path / "sh.jsonl")
        )
        assert sharded.to_dict() == seq.to_dict()
        assert (tmp_path / "sh.jsonl").read_bytes() == (
            tmp_path / "seq.jsonl"
        ).read_bytes()

    def test_shard_files_left_beside_merged_trace(self, tmp_path):
        run_sharded_experiment(
            _config(), 2, protocol="paris", trace_path=str(tmp_path / "t.jsonl")
        )
        assert (tmp_path / "t.jsonl.shard0").exists()
        assert (tmp_path / "t.jsonl.shard1").exists()


class TestRejections:
    def test_membership_plan_rejected_up_front(self):
        # DC 2 does not host partition 0 in this deployment, so the plan
        # itself is valid; only sharding must refuse it.
        plan = FaultPlan(
            events=(FaultEvent(at=0.3, action="add_replica", dc=2, partition=0),)
        )
        with pytest.raises(ShardingError, match="membership actions"):
            run_sharded_experiment(_config(faults=plan), 2, protocol="paris")

    def test_more_shards_than_dcs_rejected(self):
        with pytest.raises(ShardingError, match="cannot split"):
            run_sharded_experiment(_config(), 4, protocol="paris")

    def test_single_shard_redirected_to_run_experiment(self):
        with pytest.raises(ShardingError, match="at least 2 shards"):
            run_sharded_experiment(_config(), 1, protocol="paris")


class TestTraceMerge:
    @staticmethod
    def _write(path, events):
        writer = TraceWriter(str(path))
        for event in events:
            writer.write(event)
        writer.close()

    def test_merge_orders_by_commit_time(self, tmp_path):
        self._write(
            tmp_path / "a.jsonl",
            [{"at": 1.0, "seq": 0, "x": "a0"}, {"at": 3.0, "seq": 1, "x": "a1"}],
        )
        self._write(tmp_path / "b.jsonl", [{"at": 2.0, "seq": 0, "x": "b0"}])
        count = merge_traces(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
            str(tmp_path / "out.jsonl"),
        )
        merged = list(read_jsonl(str(tmp_path / "out.jsonl")))
        assert count == 3
        assert [e["x"] for e in merged] == ["a0", "b0", "a1"]
        assert [e["seq"] for e in merged] == [0, 1, 2]

    def test_equal_timestamps_break_ties_by_input_order(self, tmp_path):
        self._write(tmp_path / "a.jsonl", [{"at": 1.0, "seq": 0, "x": "a"}])
        self._write(tmp_path / "b.jsonl", [{"at": 1.0, "seq": 0, "x": "b"}])
        merge_traces(
            [str(tmp_path / "b.jsonl"), str(tmp_path / "a.jsonl")],
            str(tmp_path / "out.jsonl"),
        )
        merged = list(read_jsonl(str(tmp_path / "out.jsonl")))
        assert [e["x"] for e in merged] == ["b", "a"]

    def test_truncated_shard_file_is_a_named_error(self, tmp_path):
        self._write(tmp_path / "a.jsonl", [{"at": 1.0, "seq": 0}])
        (tmp_path / "b.jsonl").write_text('{"at": 1.0, "seq": 0}\n{"at": 2.0, "se')
        with pytest.raises(TraceError, match="b.jsonl"):
            merge_traces(
                [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
                str(tmp_path / "out.jsonl"),
            )

    def test_event_missing_commit_time_is_a_named_error(self, tmp_path):
        (tmp_path / "a.jsonl").write_text('{"seq": 0}\n')
        with pytest.raises(TraceError, match="at"):
            merge_traces([str(tmp_path / "a.jsonl")], str(tmp_path / "out.jsonl"))

    def test_no_inputs_is_a_named_error(self, tmp_path):
        with pytest.raises(TraceError, match="no input"):
            merge_traces([], str(tmp_path / "out.jsonl"))


class TestWorkerPlumbing:
    def test_module_level_function_accepted(self):
        require_module_level(_square, "test")

    def test_lambda_named_error(self):
        with pytest.raises(WorkerCallableError, match="lambda"):
            require_module_level(lambda x: x, "test")

    def test_local_function_named_error(self):
        def local(x):
            return x

        with pytest.raises(WorkerCallableError, match="inside another function"):
            require_module_level(local, "test")

    def test_bound_method_named_error(self):
        with pytest.raises(WorkerCallableError, match="bound method"):
            require_module_level(self.test_bound_method_named_error, "test")

    def test_pool_map_inline_allows_anything(self):
        assert pool_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]

    def test_pool_map_parallel_preserves_order(self):
        assert pool_map(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_parallel_map_rejects_closures_loudly(self):
        from repro.bench.sweep import parallel_map

        with pytest.raises(WorkerCallableError, match="module-level"):
            parallel_map(lambda x: x, [1, 2], workers=2)


FAST = ["--dcs", "3", "--machines", "2", "--threads", "1",
        "--keys", "20", "--warmup", "0.2", "--duration", "0.3", "--seed", "7"]


class TestCli:
    def test_run_shards_json_matches_sequential(self, capsys):
        assert cli.main(["run", *FAST, "--json"]) == 0
        seq = capsys.readouterr().out
        assert cli.main(["run", *FAST, "--json", "--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert json.loads(sharded) == json.loads(seq)
        assert sharded == seq

    def test_run_big_shards_trace_matches_sequential(self, capsys, tmp_path):
        seq_trace = tmp_path / "seq.jsonl"
        sh_trace = tmp_path / "sh.jsonl"
        assert cli.main(["run", *FAST, "--big", "--trace-out", str(seq_trace)]) == 0
        seq_out = capsys.readouterr().out
        assert (
            cli.main(
                ["run", *FAST, "--big", "--shards", "2", "--trace-out", str(sh_trace)]
            )
            == 0
        )
        sharded_out = capsys.readouterr().out
        assert sh_trace.read_bytes() == seq_trace.read_bytes()
        # Same streaming-check verdict line (counts included).
        seq_check = [l for l in seq_out.splitlines() if l.startswith("streaming")]
        sh_check = [l for l in sharded_out.splitlines() if l.startswith("streaming")]
        assert seq_check == sh_check

    def test_run_too_many_shards_exits_two(self, capsys):
        assert cli.main(["run", *FAST, "--shards", "9"]) == 2
        assert "cannot split" in capsys.readouterr().err

    def test_run_profile_writes_stats(self, tmp_path, capsys):
        import pstats

        stats_path = tmp_path / "prof.out"
        assert cli.main(["run", *FAST, "--profile", str(stats_path)]) == 0
        assert "profile:" in capsys.readouterr().out
        assert pstats.Stats(str(stats_path)).total_calls > 0

    def test_run_profile_per_shard(self, tmp_path, capsys):
        stats_path = tmp_path / "prof.out"
        assert (
            cli.main(["run", *FAST, "--shards", "2", "--profile", str(stats_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert f"{stats_path}.shard0" in out
        assert (tmp_path / "prof.out.shard0").exists()
        assert (tmp_path / "prof.out.shard1").exists()

    def test_trace_merge_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert (
            cli.main(
                ["run", *FAST, "--big", "--shards", "2", "--trace-out", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert (
            cli.main(
                [
                    "trace",
                    "merge",
                    f"{trace}.shard0",
                    f"{trace}.shard1",
                    "-o",
                    str(merged),
                ]
            )
            == 0
        )
        assert "merged 2 trace(s)" in capsys.readouterr().out
        assert merged.read_bytes() == trace.read_bytes()
        assert cli.main(["check", *FAST, "--trace-in", str(merged)]) == 0

    def test_trace_merge_truncated_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"at": 1.0, "seq": 0}\n{"at": 2.0, "se')
        assert cli.main(["trace", "merge", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "trace merge failed" in capsys.readouterr().err
