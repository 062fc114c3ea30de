"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
from repro.bench import experiments as exp
from repro.bench import report
from repro.consistency.streaming import check_trace
from repro.sim.trace import TraceError

FAST = ["--dcs", "3", "--machines", "2", "--threads", "1",
        "--keys", "20", "--warmup", "0.4", "--duration", "0.4"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = cli.build_parser().parse_args(["run"])
        assert args.protocol == "paris"
        assert args.mix == "95:5"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure", "fig99"])

    def test_figure_names_are_the_catalogue(self):
        """`repro figure` offers exactly the catalogue plus design_space."""
        assert cli.FIGURES == (*report.SECTIONS, "design_space")

    def test_config_from_args(self):
        args = cli.build_parser().parse_args(["run", *FAST, "--mix", "50:50"])
        config = cli.config_from_args(args)
        assert config.cluster.n_dcs == 3
        assert config.workload.writes_per_tx == 10
        assert config.workload.threads_per_client == 1
        # partitions_per_tx is capped by the machines/DC pool.
        assert config.workload.partitions_per_tx == 2


class TestProfilesCommand:
    def test_profiles_table(self, capsys):
        assert cli.main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("ycsb_a", "ycsb_f", "hotspot_shift", "bursty"):
            assert name in out
        assert "read-modify-write" in out

    def test_profiles_names_are_scriptable(self, capsys):
        from repro.workload.profiles import profile_names

        assert cli.main(["profiles", "--names"]) == 0
        out = capsys.readouterr().out
        assert tuple(out.split()) == profile_names()

    def test_workload_flag_builds_profile_config(self):
        args = cli.build_parser().parse_args(["run", *FAST, "--workload", "ycsb_f"])
        config = cli.config_from_args(args)
        assert config.workload.profile == "ycsb_f"
        assert config.workload.reads_per_tx == 5
        assert config.workload.writes_per_tx == 5

    def test_workload_flag_overrides_mix(self):
        args = cli.build_parser().parse_args(
            ["run", *FAST, "--mix", "50:50", "--workload", "ycsb_c"]
        )
        config = cli.config_from_args(args)
        assert config.workload.writes_per_tx == 0

    def test_check_with_profile_exits_zero(self, capsys):
        assert cli.main(["check", *FAST, "--workload", "ycsb_f"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_unknown_profile_fails_loudly(self):
        from repro.bench.sweep import SweepSpecError

        args = cli.build_parser().parse_args(["run", *FAST, "--workload", "nope"])
        with pytest.raises(SweepSpecError, match="unknown workload profile"):
            cli.config_from_args(args)


class TestProtocolsCommand:
    def test_protocols_table(self, capsys):
        assert cli.main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("paris", "bpr", "eventual", "gst_local"):
            assert name in out
        assert "session" in out  # eventual's consistency claim column

    def test_protocols_names_are_scriptable(self, capsys):
        from repro.protocols import protocol_names

        assert cli.main(["protocols", "--names"]) == 0
        out = capsys.readouterr().out
        # Sorted for a stable listing; registration order is an import detail.
        assert tuple(out.split()) == tuple(sorted(protocol_names()))

    def test_unknown_protocol_lists_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", *FAST, "--protocol", "espresso"])
        err = capsys.readouterr().err
        assert "unknown protocol 'espresso'" in err
        assert "paris" in err and "gst_local" in err

    def test_check_picks_claimed_level(self, capsys):
        assert cli.main(["check", *FAST, "--protocol", "eventual"]) == 0
        out = capsys.readouterr().out
        assert "at level 'session'" in out
        assert "0 violations" in out

    def test_compare_accepts_protocol_list(self, capsys):
        assert cli.main(["compare", *FAST, "--protocol", "paris", "eventual"]) == 0
        out = capsys.readouterr().out
        assert "eventual" in out
        assert "PaRiS vs BPR" not in out  # ratio line needs both present


class TestCommands:
    def test_run_prints_summary(self, capsys):
        assert cli.main(["run", *FAST]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "UST staleness" in out
        assert "read blocking" not in out  # PaRiS never blocks

    def test_run_bpr_reports_blocking(self, capsys):
        assert cli.main(["run", *FAST, "--protocol", "bpr"]) == 0
        out = capsys.readouterr().out
        assert "read blocking" in out

    def test_compare(self, capsys):
        assert cli.main(["compare", *FAST]) == 0
        out = capsys.readouterr().out
        assert "paris" in out and "bpr" in out
        assert "PaRiS vs BPR" in out

    def test_check_clean_protocol_exits_zero(self, capsys):
        assert cli.main(["check", *FAST]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_topology(self, capsys):
        assert cli.main(["topology", "--dcs", "5", "--machines", "18", "--rf", "2"]) == 0
        out = capsys.readouterr().out
        assert "45 partitions" in out
        assert "2.50x capacity" in out

    def test_figure_table1(self, capsys):
        assert cli.main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "PaRiS (this work)" in out

    def test_figure_prints_the_catalogue_section(self, capsys):
        """`repro figure NAME` prints the catalogue entry run_all.py writes."""
        assert cli.main(["figure", "capacity"]) == 0
        out = capsys.readouterr().out
        assert report.SECTIONS["capacity"](exp.SCALES["small"]) in out
        assert "**Paper claim" in out

    def test_format_result_fields(self):
        from repro import run_experiment, small_test_config

        result = run_experiment(
            small_test_config().with_(warmup=0.4, duration=0.4), protocol="paris"
        )
        text = cli.format_result(result)
        assert "tx/s" in text and "ms" in text


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        assert cli.main(["run", *FAST, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "paris"
        assert data["throughput"] > 0
        assert isinstance(data["visibility_cdf"], list)

    def test_result_round_trips_through_json(self):
        import json

        from repro import run_experiment, small_test_config

        result = run_experiment(
            small_test_config().with_(warmup=0.4, duration=0.4, visibility_sample_rate=1.0),
            protocol="paris",
        )
        data = json.loads(result.to_json())
        assert data["transactions_measured"] == result.transactions_measured
        assert data["visibility_cdf"][0]["fraction"] == 0.0


class TestSweepCommand:
    SPEC = {
        "name": "cli-sweep",
        "seed": 42,
        "repeats": 1,
        "base": {
            "dcs": 3,
            "machines": 2,
            "threads": 1,
            "keys": 20,
            "warmup": 0.2,
            "duration": 0.3,
        },
        "axes": {"locality": [1.0, 0.5]},
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_list_expands_without_executing(self, spec_path, tmp_path, capsys):
        results_dir = tmp_path / "sweeps"
        assert (
            cli.main(["sweep", spec_path, "--list", "--results-dir", str(results_dir)])
            == 0
        )
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "locality=0.5" in out
        assert not results_dir.exists()

    def test_execute_then_resume_all_cached(self, spec_path, tmp_path, capsys):
        import json

        results_dir = str(tmp_path / "sweeps")
        assert cli.main(["sweep", spec_path, "--results-dir", results_dir]) == 0
        first = capsys.readouterr().out
        assert "2 executed" in first
        summary_path = tmp_path / "sweeps" / "cli-sweep" / "summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["name"] == "cli-sweep"
        assert len(summary["groups"]) == 2
        # Second invocation: every run is a cache hit, summary unchanged.
        before = summary_path.read_bytes()
        assert cli.main(["sweep", spec_path, "--results-dir", results_dir]) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 executed" in second
        assert summary_path.read_bytes() == before

    def test_out_flag_redirects_summary(self, spec_path, tmp_path, capsys):
        out_path = tmp_path / "elsewhere.json"
        assert (
            cli.main(
                [
                    "sweep",
                    spec_path,
                    "--results-dir",
                    str(tmp_path / "sweeps"),
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert out_path.exists()

    def test_bad_spec_raises_clean_error(self, tmp_path):
        from repro.bench.sweep import SweepSpecError

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "axes": {"volume": [11]}}')
        with pytest.raises(SweepSpecError, match="unknown axis"):
            cli.main(["sweep", str(bad)])


class TestRunRepositoryCommands:
    """run --save, runs, and the sweep --save ingest path, CLI-level."""

    def test_run_save_then_runs_lists_it(self, tmp_path, capsys):
        repo = str(tmp_path / "results")
        assert cli.main(["run", *FAST, "--save", "--repo", repo]) == 0
        out = capsys.readouterr().out
        assert "saved record" in out and "repro replay" in out
        assert cli.main(["runs", "--repo", repo]) == 0
        listing = capsys.readouterr().out
        assert "paris" in listing
        assert "1 shown of 1 persisted" in listing

    def test_runs_empty_repository_message(self, tmp_path, capsys):
        assert cli.main(["runs", "--repo", str(tmp_path / "results")]) == 0
        assert "no persisted runs" in capsys.readouterr().out

    def test_runs_filter_mismatch_message(self, tmp_path, capsys):
        repo = str(tmp_path / "results")
        assert cli.main(["run", *FAST, "--save", "--repo", repo]) == 0
        capsys.readouterr()
        assert cli.main(["runs", "--repo", repo, "--protocol", "bpr"]) == 0
        assert "loosen the filters" in capsys.readouterr().out

    def test_sweep_save_ingests_into_repository(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestSweepCommand.SPEC))
        repo = str(tmp_path / "results")
        assert cli.main([
            "sweep", str(spec), "--results-dir", str(tmp_path / "sweeps"),
            "--save", "--repo", repo,
        ]) == 0
        out = capsys.readouterr().out
        assert "run repository: 2 runs" in out
        assert cli.main(["runs", "--repo", repo, "--source", "sweep:cli-sweep"]) == 0
        assert "2 shown of 2 persisted" in capsys.readouterr().out

    def test_faults_inlined_in_saved_params(self, tmp_path, capsys):
        """A --faults run saves a self-contained record (plan inlined)."""
        from repro.serve.repository import RunRepository

        repo = str(tmp_path / "results")
        assert cli.main([
            "run", *FAST, "--faults", "examples/plans/partition_stall.json",
            "--save", "--repo", repo,
        ]) == 0
        capsys.readouterr()
        (entry,) = RunRepository(repo).list()
        record = RunRepository(repo).get(entry["run_id"])
        assert isinstance(record["params"]["faults"], dict)


class TestBigRunTier:
    """The streaming big-run tier: run --big, check --trace-in/--trace-out."""

    def test_run_big_streams_and_spills(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", *FAST, "--big", "--window", "0.3",
            "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "streaming check" in out
        assert "0 violations" in out
        assert trace.exists() and trace.stat().st_size > 0

    def test_run_big_without_trace_out(self, capsys):
        assert cli.main(["run", *FAST, "--big"]) == 0
        out = capsys.readouterr().out
        assert "streaming check" in out
        assert "trace:" not in out

    def test_check_trace_out_then_trace_in(self, capsys, tmp_path):
        """Persist via check --trace-out, re-check via check --trace-in."""
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["check", *FAST, "--trace-out", str(trace)]) == 0
        first = capsys.readouterr().out
        assert "0 violations" in first
        assert str(trace) in first
        assert cli.main(["check", "--trace-in", str(trace)]) == 0
        second = capsys.readouterr().out
        assert "re-checked" in second
        assert "0 violations" in second

    def test_check_trace_in_windowed(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["check", *FAST, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert cli.main([
            "check", "--trace-in", str(trace), "--window", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "0.2s window" in out

    def test_check_trace_in_catches_violations(self, capsys, tmp_path):
        """A session-level protocol's trace re-checked at tcc exits 1."""
        trace = tmp_path / "trace.jsonl"
        cli.main(["check", *FAST, "--protocol", "eventual",
                  "--trace-out", str(trace)])
        capsys.readouterr()
        # Re-check the eventual trace as if it claimed full tcc: the
        # streaming checker must surface the causal violations.
        status = cli.main(["check", "--trace-in", str(trace),
                           "--protocol", "paris"])
        out = capsys.readouterr().out
        assert status == 1
        assert "violations" in out and "0 violations" not in out


class TestBadTrace:
    """A bad trace is a named error on one line and exit 2, never a traceback."""

    GOOD = (
        '{"at":0.5,"client":"c1","ct":655360,"deps":[],"seq":0,"t":"commit",'
        '"tid":[1,1],"written":[["x",655360,1,1,0]]}\n'
        '{"at":0.6,"client":"c2","returned":[["x","store",655360,1,1,0]],'
        '"seq":1,"snapshot":655360,"t":"read","tid":[2,2]}\n'
    )

    @pytest.mark.parametrize(
        "tail, message",
        [
            ('{"at":0.7,"client":"c2","retur', "line 3"),
            ("not json at all\n", "line 3"),
            ('{"at":0.7,"seq":2,"t":"read","tid":[3,3],"snapshot":1,"returned":[]}\n',
             "missing field 'client'"),
            ('{"at":0.7,"seq":2,"t":"abort"}\n', "unknown trace event type 'abort'"),
        ],
        ids=["truncated-last-line", "non-json-line", "missing-field", "unknown-type"],
    )
    def test_check_trace_in_bad_trace_exits_2(self, capsys, tmp_path, tail, message):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(self.GOOD + tail)
        with pytest.raises(TraceError, match=message):
            check_trace(trace)
        assert cli.main(["check", "--trace-in", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "bad.jsonl" in line and "line 3" in line

    def test_good_prefix_is_clean(self, tmp_path):
        trace = tmp_path / "good.jsonl"
        trace.write_text(self.GOOD)
        checker = check_trace(trace)
        assert (checker.commits_checked, checker.reads_checked) == (1, 1)
        assert checker.violations == []
