#!/usr/bin/env python3
"""The repository's benchmark: host-time cost of the simulator and checker.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim_read_heavy --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload (:mod:`perfbench.workloads`), each in its
own child process (:mod:`perfbench.repetition`), until ``--seconds`` are
used, and checks every repetition's outputs.  ``--trace 0`` reports the
end-to-end metrics: host times are per-stage medians over the repetitions,
rescaled by the calibration probes (:mod:`perfbench.calibration`);
``--trace 1`` runs one untraced repetition and then traced ones, and
reports per-layer counts and self times.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"wall_s": {"value": 3.71, "unit": "s"}, ...}}

Any failed check is named on stdout and the exit code is 1; a checkout
without the program's source exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibration  # noqa: E402
from perfbench.spans import LAYERS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Untraced repetitions per run, at least (per-stage medians need several).
MIN_REPS = 3
#: Traced repetitions per ``--trace 1`` run, at least (after one untraced).
MIN_TRACED_REPS = 2
#: No repetition starts after this many seconds of a run, and a running one
#: is killed at it, so one invocation ends well within three minutes.
DEADLINE_S = 165.0

#: End-to-end metrics: name -> unit (all host time except ``sim_*``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "tx_per_host_s": "tx/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim_tput_tps": "tx/s",
    "sim_lat_p99_ms": "ms",
}

#: Per-layer metrics: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "harness.build_s": "s",
    "harness.deploy_s": "s",
    "harness.summary_s": "s",
    "kernel.events": "count",
    "kernel.self_s": "s",
    "kernel.events_per_s": "1/s",
    "network.sends": "count",
    "network.inter_dc_sends": "count",
    "network.send_s": "s",
    "network.meta_bytes_per_tx": "B",
    "coordinator.calls": "count",
    "coordinator.self_s": "s",
    "reads.slices": "count",
    "reads.parked": "count",
    "reads.self_s": "s",
    "replication.calls": "count",
    "replication.batches": "count",
    "replication.applied_remote": "count",
    "replication.self_s": "s",
    "stabilization.calls": "count",
    "stabilization.ust_advances": "count",
    "stabilization.self_s": "s",
    "stabilization.ust_staleness_ms": "ms",
    "store.applies": "count",
    "store.reads": "count",
    "store.versions_live": "count",
    "store.collected": "count",
    "store.self_s": "s",
    "client.calls": "count",
    "client.self_s": "s",
    "workload.tx_generated": "count",
    "workload.gen_s": "s",
    "oracle.events": "count",
    "oracle.self_s": "s",
    "checker.events": "count",
    "checker.self_s": "s",
    "checker.feed_p50_us": "us",
    "checker.feed_p99_us": "us",
    "checker.feed_samples": "count",
    "checker.window_versions_max": "count",
    "checker.versions_retired": "count",
    "checker.recheck_events_per_s": "1/s",
    "trace.writes": "count",
    "trace.bytes": "B",
    "trace.write_s": "s",
    "events.decoded": "count",
    "events.parse_s": "s",
    "tracing.overhead": "ratio",
    "tracing.unattributed_frac": "ratio",
}

#: Per-layer self-time metric -> the span layer it reads.
SELF_TIME_METRICS: Dict[str, str] = {
    "harness.build_s": "harness.build",
    "harness.deploy_s": "harness.deploy",
    "harness.summary_s": "harness.summary",
    "kernel.self_s": "kernel",
    "network.send_s": "network",
    "coordinator.self_s": "coordinator",
    "reads.self_s": "reads",
    "replication.self_s": "replication",
    "stabilization.self_s": "stabilization",
    "store.self_s": "store",
    "client.self_s": "client",
    "workload.gen_s": "workload",
    "oracle.self_s": "oracle",
    "checker.self_s": "checker",
    "trace.write_s": "trace",
    "events.parse_s": "events",
}

#: Per-layer call-count metric -> the span layer it counts.
CALL_METRICS: Dict[str, str] = {
    "coordinator.calls": "coordinator",
    "replication.calls": "replication",
    "stabilization.calls": "stabilization",
    "client.calls": "client",
}


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: pathlib.Path) -> Optional[str]:
    """The checked-out commit, when the checkout is a git work tree."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the program's source files (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: pathlib.Path) -> Dict[str, Any]:
    """The machine and code a result was measured on."""
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": source_digest(root),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_child(
    workload: Workload, seed: int, traced: bool, work_dir: pathlib.Path, timeout: float
) -> Dict[str, Any]:
    """One repetition in a child process; a crash becomes a failed record."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "repetition.py"),
        workload.name, str(seed), "1" if traced else "0", str(work_dir),
    ]
    label = "traced" if traced else "untraced"
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"{label} repetition killed after {timeout:.0f}s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "traced": traced,
            "failures": [f"{label} repetition exited {done.returncode}: {tail[0]}"],
        }
    return json.loads(lines[-1])


def collect(
    workload: Workload, seed: int, seconds: float, trace: bool, work_dir: pathlib.Path
) -> List[Dict[str, Any]]:
    """Repetitions until ``seconds`` are used (at least the minimum count).

    With ``trace`` the first repetition is untraced (the reference digest
    and wall time) and the rest are traced.  A failed repetition stops the
    run.
    """
    minimum = 1 + MIN_TRACED_REPS if trace else MIN_REPS
    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    while True:
        rep_started = time.monotonic()
        remaining = DEADLINE_S - (rep_started - started)
        reps.append(run_child(workload, seed, trace and bool(reps), work_dir, remaining))
        if reps[-1]["failures"]:
            return reps
        now = time.monotonic()
        last = now - rep_started
        elapsed = now - started
        if elapsed + last > DEADLINE_S:
            return reps
        if len(reps) >= minimum and elapsed + last > seconds:
            return reps


def _stage_count(rep: Dict[str, Any]) -> Optional[int]:
    """How many stages a repetition's measured part has (None if it crashed)."""
    if "ranges" not in rep:
        return None
    first, last = rep["ranges"]["measured"]
    return last - first


def verify(reps: Sequence[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """(failed repetitions, named failures) over a run's repetitions.

    A repetition fails on any of its own checks, or when its result digest
    or its number of timed stages differs from the first repetition's:
    every repetition runs the same seed, traced or not, so both must be
    equal.
    """
    messages: List[str] = []
    failed = 0
    reference = reps[0].get("digest") if reps else None
    stages = _stage_count(reps[0]) if reps else None
    for index, rep in enumerate(reps):
        problems = list(rep.get("failures", []))
        digest = rep.get("digest")
        if digest is not None and digest != reference:
            problems.append(f"result digest {digest[:16]} differs from repetition 0's "
                            f"{str(reference)[:16]}")
        count = _stage_count(rep)
        if count is not None and count != stages:
            problems.append(f"{count} timed stages, repetition 0 had {stages}")
        if problems:
            failed += 1
            label = "traced" if rep.get("traced") else "untraced"
            messages.extend(f"repetition {index} ({label}): {problem}" for problem in problems)
    return failed, messages


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def calibrated(rep: Dict[str, Any]) -> List[float]:
    """A repetition's stage times rescaled by their smoothed probes."""
    seconds = [stage[0] for stage in rep["stages"]]
    probes = calibration.smoothed([stage[1] for stage in rep["stages"]])
    return [calibration.normalize(s, p) for s, p in zip(seconds, probes)]


def normalized_stages(reps: Sequence[Dict[str, Any]]) -> List[float]:
    """Each stage's median calibrated host time over the repetitions.

    Stage ``i`` is the same work in every repetition of a seed; each stage
    time is rescaled by the calibration probes taken around it
    (:mod:`perfbench.calibration`), so a drift in the shared machine's
    speed during or between runs leaves the result in place.
    """
    return [statistics.median(stage) for stage in zip(*(calibrated(rep) for rep in reps))]


def stage_seconds(rep: Dict[str, Any], part: str = "measured", calibrate: bool = False) -> float:
    """Host seconds of one part of a repetition's stages (probes excluded)."""
    first, last = rep["ranges"][part]
    if calibrate:
        return sum(calibrated(rep)[first:last])
    return sum(seconds for seconds, _ in rep["stages"][first:last])


def end_to_end_metrics(reps: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics of the untraced repetitions (calibrated host time)."""
    stages = normalized_stages(reps)
    ranges = reps[0]["ranges"]
    first, last = ranges["measured"]
    window_first, window_last = ranges["window"]
    setups = [seconds for rep in reps for seconds in calibrated(rep)[slice(*ranges["setups"])]]
    return {
        "setup_s": statistics.median(setups),
        "tx_per_host_s": reps[0]["tx_measured"] / sum(stages[window_first:window_last]),
        "wall_s": sum(stages[first:last]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_tput_tps": reps[0]["sim_tput_tps"],
        "sim_lat_p99_ms": reps[0]["sim_lat_p99_ms"],
    }


def per_layer_metrics(
    untraced: Dict[str, Any], traced: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics: counts from the program, self times from spans.

    Self times are medians over the traced repetitions; counts repeat
    exactly (same seed), so the first traced repetition's stand for all.
    Rates divide a count by the untraced repetition's calibrated host time.
    """
    first = traced[0]
    spans = first["spans"]
    counters = dict(first["counters"])
    counters.update(first.get("checked", {}))
    metrics: Dict[str, float] = {name: counters.get(name, 0.0) for name in PER_LAYER}
    for name, layer in SELF_TIME_METRICS.items():
        metrics[name] = statistics.median(rep["spans"]["layers"][layer]["self_s"] for rep in traced)
    for name, layer in CALL_METRICS.items():
        metrics[name] = spans["layers"][layer]["calls"]
    metrics["store.reads"] = spans["site_calls"].get("MultiVersionStore.read", 0)
    metrics["workload.tx_generated"] = spans["site_calls"].get(
        "WorkloadGenerator.next_transaction", 0
    )
    feed = spans["checker_feed_us"]
    metrics["checker.feed_p50_us"] = feed["p50"]
    metrics["checker.feed_p99_us"] = feed["p99"]
    metrics["checker.feed_samples"] = feed["n"]
    metrics["checker.window_versions_max"] = spans["window_versions_max"]
    metrics["kernel.events_per_s"] = counters["kernel.events"] / stage_seconds(
        untraced, "sim", calibrate=True
    )
    if "recheck" in untraced["ranges"]:
        metrics["checker.recheck_events_per_s"] = counters["events.decoded"] / stage_seconds(
            untraced, "recheck", calibrate=True
        )
    metrics["tracing.overhead"] = statistics.median(
        rep["wall_s"] / stage_seconds(untraced) for rep in traced
    )
    metrics["tracing.unattributed_frac"] = statistics.median(
        rep["unattributed_s"] / rep["wall_s"] for rep in traced
    )
    return metrics


def layer_table(untraced: Dict[str, Any], traced: Sequence[Dict[str, Any]]) -> List[str]:
    """The traced run's layer table: calls, median self time, share of wall."""
    wall = statistics.median(rep["wall_s"] for rep in traced)
    lines = [
        f"# traced wall {wall:.3f}s (untraced {stage_seconds(untraced):.3f}s), "
        f"{len(traced)} traced repetitions",
        f"# {'layer':<16} {'calls':>9} {'self_s':>9} {'share':>7}",
    ]
    total = 0.0
    for layer in LAYERS:
        self_s = statistics.median(rep["spans"]["layers"][layer]["self_s"] for rep in traced)
        calls = traced[0]["spans"]["layers"][layer]["calls"]
        total += self_s
        lines.append(f"# {layer:<16} {calls:>9} {self_s:>9.4f} {self_s / wall:>7.1%}")
    lines.append(f"# {'sum':<16} {'':>9} {total:>9.4f} {total / wall:>7.1%}")
    skipped = traced[0]["spans"]["skipped"]
    if skipped:
        lines.append(f"# entry points not found (not traced): {', '.join(skipped)}")
    return lines


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]
) -> str:
    """The final JSON line of a run."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload; print its metrics; 0 = correct, 1 = a check failed."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# fingerprint {json.dumps(fingerprint(ROOT), sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} window {workload.window} "
          f"params {json.dumps(workload.run_params(args.seed), sort_keys=True)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        reps = collect(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    for index, rep in enumerate(reps):
        if "wall_s" in rep:
            probes = [probe_s for _, probe_s in rep["stages"] if probe_s]
            probe = f" probe_ms={statistics.median(probes) * 1e3:.3f}" if probes else ""
            print(f"# repetition {index} traced={rep['traced']} wall_s={rep['wall_s']:.4f}"
                  f"{probe} tx={rep['tx_measured']} digest={rep['digest'][:16]}")
    failed, messages = verify(reps)
    for message in messages:
        print(f"FAIL {message}")
    units = PER_LAYER if args.trace else END_TO_END
    if failed:
        metrics = {name: 0.0 for name in units}
    elif args.trace:
        metrics = per_layer_metrics(reps[0], reps[1:])
        for line in layer_table(reps[0], reps[1:]):
            print(line)
    else:
        metrics = end_to_end_metrics(reps)
    print(result_line(not failed, len(reps), failed, metrics, units))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
