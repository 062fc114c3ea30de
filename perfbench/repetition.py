"""One repetition of a workload, untraced or traced.

``run.py`` starts every repetition as its own child process, so each one's
peak RSS is its own and no wrapper outlives it::

    python3 perfbench/repetition.py WORKLOAD SEED TRACED WORK_DIR

prints one JSON record as its last stdout line (see
:func:`run_repetition`).  The repetition drives the program only through
its public API — ``sweep.config_from_params``, the ``bench.harness`` steps,
``StreamingOracle``/``StreamingChecker``/``TraceWriter`` and
``check_trace``'s read/decode/feed loop — in the order ``harness.run_experiment`` and ``repro run
--big`` use them, and times each stage around those calls.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import pathlib
import resource
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import calibration  # noqa: E402
from perfbench.spans import Instrumentation  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402
from repro.bench import harness, results, sweep  # noqa: E402
from repro.consistency import events, streaming  # noqa: E402
from repro.sim import trace  # noqa: E402
from repro.workload.runner import SessionStats  # noqa: E402

#: Untraced repetitions build and deploy this many times (all but the last
#: cluster are discarded), so ``setup_s`` is a median over several set-ups.
SETUPS_PER_REP = 3

#: Simulated seconds per timed slice of the run (see :func:`_run_slices`).
SLICE_S = 0.05

#: Trace events per timed chunk of the re-check.
RECHECK_CHUNK = 100

#: A traced repetition fails when its layers' self times miss its wall time
#: by more than this share (time spent outside every span).
SELF_TIME_TOLERANCE = 0.02


class StageClock:
    """Times a repetition's stages in order, each next to a calibration probe.

    A stage is one step of the repetition — a set-up, a slice of simulated
    time, the summary, the trace close, a chunk of the re-check.  The work
    is deterministic, so stage ``i`` is the same work in every repetition
    of one seed and ``run.py`` can line stages up across repetitions.
    Traced repetitions skip the probe (their stages are not reported).
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        #: ``(host seconds, probe seconds)`` per stage.
        self.stages: List[Tuple[float, float]] = []

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` as the next stage; returns its result."""
        probe_s = calibration.probe() if self.calibrate else 0.0
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.stages.append((time.perf_counter() - started, probe_s))
        return result


def _setup(config: Any, protocol: str, oracle: Any) -> Tuple[Any, SessionStats, List[Any]]:
    """``build_cluster`` then ``deploy_sessions``: the set-up ``setup_s`` times."""
    cluster = harness.build_cluster(config, protocol=protocol, oracle=oracle)
    stats = SessionStats()
    return cluster, stats, harness.deploy_sessions(cluster, stats)


def _run_slices(clock: StageClock, sim: Any, start: float, end: float) -> None:
    """``sim.run`` from ``start`` to ``end``, one stage per ``SLICE_S``.

    Consecutive ``run(until=...)`` calls fire exactly the events one call to
    ``end`` would, so slicing changes no result (the digest shows it).
    """
    steps = max(1, math.ceil(round((end - start) / SLICE_S, 9)))
    for step in range(1, steps + 1):
        clock.time(sim.run, until=min(start + step * SLICE_S, end))


def _feed_chunk(checker: Any, objects: Iterator[Dict[str, Any]]) -> int:
    """Decode and feed up to ``RECHECK_CHUNK`` trace objects; returns how many."""
    fed = 0
    for obj in itertools.islice(objects, RECHECK_CHUNK):
        checker.feed(events.decode_event(obj))
        fed += 1
    return fed


def _recheck(clock: StageClock, trace_path: pathlib.Path, window: float) -> Any:
    """``check_trace``'s read/decode/feed loop, one stage per chunk of events."""
    checker = streaming.StreamingChecker(window=window, level="tcc")
    objects = trace.read_jsonl(trace_path)
    while clock.time(_feed_chunk, checker, objects) == RECHECK_CHUNK:
        pass
    return checker


def _peak_rss_mb() -> float:
    """This process's peak RSS in MB (``ru_maxrss`` is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(cluster: Any, result: Any) -> Dict[str, float]:
    """Per-layer work counts the program keeps itself (no tracing needed)."""
    servers = cluster.all_servers()
    network = cluster.network.metrics
    tx_run = sum(driver.transactions_run for driver in cluster.drivers)

    def metric(name: str) -> int:
        return sum(getattr(server.metrics, name) for server in servers)

    return {
        "kernel.events": cluster.sim.events_executed,
        "network.sends": network.messages_total,
        "network.inter_dc_sends": network.messages_inter_dc,
        "network.meta_bytes_per_tx": network.metadata_bytes_total / tx_run if tx_run else 0.0,
        "reads.slices": metric("read_slices_served"),
        "reads.parked": metric("reads_parked") + sum(server.parked_reads for server in servers),
        "replication.batches": metric("replicate_batches_sent"),
        "replication.applied_remote": metric("updates_applied_remote"),
        "stabilization.ust_advances": metric("ust_advances"),
        "stabilization.ust_staleness_ms": result.ust_staleness * 1000.0,
        "store.applies": sum(server.store.writes_applied for server in servers),
        "store.versions_live": sum(server.store.version_count for server in servers),
        "store.collected": sum(server.store.versions_collected for server in servers),
    }


def run_repetition(
    workload: Workload, seed: int, work_dir: pathlib.Path, traced: bool = False
) -> Dict[str, Any]:
    """Run ``workload`` once at ``seed``; return its measurements and checks.

    ``failures`` names every output check that did not hold; an empty list
    means the repetition is correct.  With ``traced`` the layer entry
    points are wrapped for the duration of the repetition only.
    """
    config, protocol = sweep.config_from_params(workload.run_params(seed))
    clock = StageClock(calibrate=not traced)
    instrumentation = Instrumentation(protocol) if traced else None
    if instrumentation is None:
        for _ in range(SETUPS_PER_REP - 1):
            clock.time(_setup, config, protocol, None)
        gc.collect()
    else:
        instrumentation.install()
    try:
        record = _measure(workload, config, protocol, work_dir, clock)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    record.update(workload=workload.name, seed=seed, traced=traced)
    if instrumentation is not None:
        spans = instrumentation.summary()
        record["spans"] = spans
        for label in instrumentation.unrestored():
            record["failures"].append(f"entry point {label} not restored after tracing")
        attributed = sum(layer["self_s"] for layer in spans["layers"].values())
        unattributed = record["wall_s"] - attributed
        record["unattributed_s"] = unattributed
        if abs(unattributed) > SELF_TIME_TOLERANCE * record["wall_s"]:
            record["failures"].append(
                f"layer self times sum to {attributed:.4f}s, wall is "
                f"{record['wall_s']:.4f}s (tolerance {SELF_TIME_TOLERANCE:.0%})"
            )
    return record


def _measure(
    workload: Workload,
    config: Any,
    protocol: str,
    work_dir: pathlib.Path,
    clock: StageClock,
) -> Dict[str, Any]:
    """The repetition proper: setup, run, summary, and for checked runs the
    trace close and the re-check, each a stage of ``clock``."""
    failures: List[str] = []
    trace_path = work_dir / "trace.jsonl"
    sink: Optional[trace.TraceWriter] = None
    checker: Optional[streaming.StreamingChecker] = None
    oracle: Optional[streaming.StreamingOracle] = None

    first = len(clock.stages)
    wall_started = time.perf_counter()
    if workload.checked:
        sink = trace.TraceWriter(trace_path)
        checker = streaming.StreamingChecker(window=workload.window, level="tcc")
        oracle = streaming.StreamingOracle(sink=sink, checker=checker)
    cluster, stats, drivers = clock.time(_setup, config, protocol, oracle)
    for driver in drivers:
        driver.start()
    sim = cluster.sim
    _run_slices(clock, sim, 0.0, config.warmup)
    stats.open_window(sim.now)
    window = [len(clock.stages)]
    _run_slices(clock, sim, config.warmup, config.warmup + config.duration)
    window.append(len(clock.stages))
    stats.close_window(sim.now)
    result = clock.time(harness.summarize, cluster, stats)
    digest = clock.time(lambda: results.result_digest(result.to_dict()))

    record: Dict[str, Any] = {}
    #: Stage index ranges [first, last) of the parts of the repetition.
    ranges = {
        "setups": [0, first + 1],
        "sim": [first + 1, window[1]],
        "window": window,
    }
    if workload.checked:
        clock.time(sink.close)
        recheck_from = len(clock.stages)
        rechecker = _recheck(clock, trace_path, workload.window)
        ranges["recheck"] = [recheck_from, len(clock.stages)]
        recorded = oracle.reads_recorded + oracle.commits_recorded
        rechecked = rechecker.reads_checked + rechecker.commits_checked
        if checker.violations:
            failures.append(f"inline checker found {len(checker.violations)} violations: "
                            f"{checker.violations[0]}")
        if rechecker.violations:
            failures.append(f"re-check found {len(rechecker.violations)} violations: "
                            f"{rechecker.violations[0]}")
        if not recorded == sink.count == rechecked:
            failures.append(f"re-checked {rechecked} events, recorded {recorded}, "
                            f"spilled {sink.count}")
        record["checked"] = {
            "oracle.events": recorded,
            "checker.events": checker.reads_checked + checker.commits_checked + rechecked,
            "checker.versions_retired": checker.versions_retired + rechecker.versions_retired,
            "trace.writes": sink.count,
            "trace.bytes": trace_path.stat().st_size,
            "events.decoded": rechecked,
        }
        trace_path.unlink()
    wall_s = time.perf_counter() - wall_started

    counters = _counters(cluster, result)
    if counters["reads.parked"]:
        failures.append(f"{counters['reads.parked']} read slices parked (paris never blocks)")
    if result.transactions_measured <= 0:
        failures.append("no transaction completed in the measurement window")
    record.update(
        digest=digest,
        stages=clock.stages,
        ranges={**ranges, "measured": [first, len(clock.stages)]},
        wall_s=wall_s,
        tx_measured=result.transactions_measured,
        sim_tput_tps=result.throughput,
        sim_lat_p99_ms=result.latency_p99 * 1000.0,
        peak_rss_mb=_peak_rss_mb(),
        counters=counters,
        failures=failures,
    )
    return record


def main(argv: List[str]) -> int:
    """Child-process entry: run one repetition, print its JSON record."""
    name, seed, traced, work_dir = argv
    record = run_repetition(
        WORKLOADS[name], int(seed), pathlib.Path(work_dir), traced=traced == "1"
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
