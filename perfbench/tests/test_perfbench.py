"""Tests of the benchmark's own code: span arithmetic, tracing, output checks.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Repetitions here use a tiny checked workload so the whole file runs in
seconds; the benchmark's real workloads are exercised by ``run.py`` itself.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import repetition, run  # noqa: E402
from perfbench.calibration import REFERENCE_PROBE_S as REFERENCE  # noqa: E402
from perfbench.spans import Instrumentation, span_self_times  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402
from repro.bench import harness, results, sweep  # noqa: E402
from repro.consistency.checker import Violation  # noqa: E402
from repro.consistency.streaming import StreamingChecker  # noqa: E402

TINY = Workload(
    name="tcc_checked",
    params={
        "protocol": "paris", "dcs": 3, "machines": 2, "rf": 2, "locality": 0.95,
        "workload": "read_heavy", "threads": 1, "keys": 50, "warmup": 0.1, "duration": 0.1,
    },
    window=0.5,
    why="tiny checked run for tests",
)


def test_self_times_of_a_nested_span_tree():
    """Self time is duration minus the children's durations, at every depth."""
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  second root [11, 12]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert span_self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times of a forest sum to the roots' total duration.
    assert sum(span_self_times(parents, starts, ends)) == 11.0


def test_traced_run_restores_entry_points_and_keeps_the_digest(tmp_path):
    """Tracing changes no result and leaves every original entry point in place."""
    sites = Instrumentation("paris").sites
    before = [getattr(site.owner, site.name) for site in sites]

    untraced = repetition.run_repetition(TINY, 3, tmp_path)
    traced = repetition.run_repetition(TINY, 3, tmp_path, traced=True)
    after = repetition.run_repetition(TINY, 3, tmp_path)

    assert untraced["failures"] == traced["failures"] == after["failures"] == []
    assert untraced["digest"] == traced["digest"] == after["digest"]
    assert all(getattr(site.owner, site.name) is original
               for site, original in zip(sites, before))
    layers = traced["spans"]["layers"]
    for layer in ("kernel", "network", "coordinator", "reads", "replication",
                  "stabilization", "store", "client", "workload", "oracle",
                  "checker", "trace", "events"):
        assert layers[layer]["calls"] > 0, layer
    assert traced["spans"]["skipped"] == []
    assert abs(traced["unattributed_s"]) <= repetition.SELF_TIME_TOLERANCE * traced["wall_s"]


def test_sliced_run_reproduces_run_experiment(tmp_path):
    """Running the simulation in timed slices gives run_experiment's result."""
    record = repetition.run_repetition(TINY, 5, tmp_path)
    config, protocol = sweep.config_from_params(TINY.run_params(5))
    expected = results.result_digest(harness.run_experiment(config, protocol).to_dict())
    assert record["digest"] == expected


def _fake_rep(digest: str, stages=(0.5, 1.0, 0.25), probe=REFERENCE) -> dict:
    return {
        "traced": False, "digest": digest, "failures": [],
        "stages": [[seconds, probe] for seconds in stages],
        "ranges": {"setups": [0, 1], "measured": [0, 3], "window": [1, 2], "sim": [1, 2]},
        "wall_s": sum(stages), "tx_measured": 10,
        "peak_rss_mb": 30.0, "sim_tput_tps": 100.0, "sim_lat_p99_ms": 5.0,
    }


def test_doctored_digest_fails_the_run(monkeypatch, capsys):
    """A repetition whose digest differs is named, counted, and exits 1."""
    reps = [_fake_rep("a" * 64), _fake_rep("a" * 64), _fake_rep("b" * 64)]
    monkeypatch.setattr(run, "collect", lambda *args: reps)
    assert run.main(["--workload", "sim_read_heavy", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("FAIL repetition 2") and "digest" in line for line in lines)
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def test_injected_violation_fails_the_run(monkeypatch, capsys):
    """A checker violation fails the repetition, the run, and the exit code."""
    original = StreamingChecker.feed

    def feed_and_violate(self, event):
        original(self, event)
        self.violations.append(Violation(kind="injected", client="test", detail="x"))

    monkeypatch.setattr(StreamingChecker, "feed", feed_and_violate)
    monkeypatch.setitem(run.WORKLOADS, "tcc_checked", TINY)
    monkeypatch.setattr(
        run, "run_child",
        lambda workload, seed, traced, work_dir, timeout: repetition.run_repetition(
            workload, seed, work_dir, traced),
    )
    assert run.main(["--workload", "tcc_checked", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("violations" in line for line in lines if line.startswith("FAIL"))
    assert json.loads(lines[-1])["correct"] is False


def test_end_to_end_metrics_are_calibrated_per_stage_medians():
    """Each stage is rescaled by its probe, then the median over repetitions."""
    reps = [
        _fake_rep("a" * 64),
        _fake_rep("a" * 64, stages=(0.25, 3.0, 0.75)),
        # A machine twice as slow: every stage and its probe take twice as long.
        _fake_rep("a" * 64, stages=(1.0, 2.0, 0.5), probe=2 * REFERENCE),
    ]
    metrics = run.end_to_end_metrics(reps)
    assert metrics["wall_s"] == pytest.approx(0.5 + 1.0 + 0.25)
    assert metrics["tx_per_host_s"] == pytest.approx(10 / 1.0)
    assert metrics["setup_s"] == pytest.approx(0.5)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_checkout_without_the_program_exits_nonzero(tmp_path, trace):
    """With only the benchmark's files present there is no result, exit 2."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_read_heavy",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_code():
    """BENCHMARK.json names the workloads and metrics run.py produces."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
