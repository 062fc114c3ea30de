"""One entry point per table/figure of the paper's evaluation (Section V).

Each function runs the simulated counterpart of one experiment and returns
structured rows; :mod:`repro.bench.report` renders them in the paper's
format, and its ``SECTIONS`` catalogue pairs each with the paper's claim
(``repro figure NAME``, ``benchmarks/run_all.py``).  Experiments accept a
:class:`BenchScale` so the same code drives quick CI-sized runs and the full
paper-shaped deployment (5 DCs x 18 machines); the *shape* of every result
is scale-invariant, which is what the ``benchmarks/bench_*.py`` assertions
check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec
from ..config import SimulationConfig, WorkloadConfig
from ..consistency.checker import ConsistencyChecker
from ..consistency.oracle import ConsistencyOracle
from ..faults.plan import FaultEvent, FaultPlan
from .harness import ExperimentResult, run_experiment


@dataclass(frozen=True)
class BenchScale:
    """How large a rendition of the paper's deployment to simulate."""

    name: str
    n_dcs: int
    machines_per_dc: int
    replication_factor: int
    #: Thread ladder used for throughput/latency curves.
    thread_ladder: Tuple[int, ...]
    #: A thread count that saturates the cluster (scaling experiments).
    saturating_threads: int
    warmup: float
    duration: float
    keys_per_partition: int
    #: Machines/DC values for Figure 2a (paper: 6, 12, 18).
    fig2a_machines: Tuple[int, ...]
    #: DC counts for Figure 2a/2b (paper: 3, 5 and 3, 5, 10).
    fig2a_dcs: Tuple[int, ...]
    fig2b_dcs: Tuple[int, ...]
    fig2b_machines: Tuple[int, ...]


SCALES: Dict[str, BenchScale] = {
    # CI-sized: minutes for the whole suite, shapes preserved.
    "small": BenchScale(
        name="small",
        n_dcs=3,
        machines_per_dc=2,
        replication_factor=2,
        thread_ladder=(1, 2, 4, 8, 16, 32, 64),
        saturating_threads=32,
        warmup=0.8,
        duration=1.0,
        keys_per_partition=100,
        fig2a_machines=(2, 4, 6),
        fig2a_dcs=(3,),
        fig2b_dcs=(3, 5, 10),
        fig2b_machines=(2,),
    ),
    # Mid-sized: tens of minutes.
    "medium": BenchScale(
        name="medium",
        n_dcs=5,
        machines_per_dc=6,
        replication_factor=2,
        thread_ladder=(1, 4, 8, 16, 32, 64, 128),
        saturating_threads=64,
        warmup=1.5,
        duration=2.0,
        keys_per_partition=200,
        fig2a_machines=(2, 4, 6),
        fig2a_dcs=(3, 5),
        fig2b_dcs=(3, 5, 10),
        fig2b_machines=(2, 4),
    ),
    # The paper's deployment (45 partitions, RF 2, 18 machines/DC): hours.
    "paper": BenchScale(
        name="paper",
        n_dcs=5,
        machines_per_dc=18,
        replication_factor=2,
        thread_ladder=(1, 4, 16, 32, 64, 128, 256),
        saturating_threads=128,
        warmup=2.0,
        duration=3.0,
        keys_per_partition=500,
        fig2a_machines=(6, 12, 18),
        fig2a_dcs=(3, 5),
        fig2b_dcs=(3, 5, 10),
        fig2b_machines=(6, 12),
    ),
}


def current_scale() -> BenchScale:
    """The scale selected by ``REPRO_BENCH_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return SCALES[name]
    except KeyError as exc:
        raise KeyError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}") from exc


# ----------------------------------------------------------------------
# Configuration builders
# ----------------------------------------------------------------------
def base_config(
    scale: BenchScale,
    *,
    n_dcs: Optional[int] = None,
    machines_per_dc: Optional[int] = None,
    workload: Optional[WorkloadConfig] = None,
    threads: int = 1,
    seed: int = 42,
    visibility_sample_rate: float = 0.0,
) -> SimulationConfig:
    """The default-workload configuration at the given scale."""
    cluster = ClusterSpec.from_machines(
        n_dcs=n_dcs if n_dcs is not None else scale.n_dcs,
        machines_per_dc=machines_per_dc if machines_per_dc is not None else scale.machines_per_dc,
        replication_factor=scale.replication_factor,
    )
    if workload is None:
        workload = WorkloadConfig.read_heavy()
    workload = replace(
        workload,
        keys_per_partition=scale.keys_per_partition,
        threads_per_client=threads,
    )
    return SimulationConfig(
        cluster=cluster,
        workload=workload,
        seed=seed,
        warmup=scale.warmup,
        duration=scale.duration,
        visibility_sample_rate=visibility_sample_rate,
    )


def mix_workload(mix: str) -> WorkloadConfig:
    """The paper's named read:write mixes."""
    if mix == "95:5":
        return WorkloadConfig.read_heavy()
    if mix == "50:50":
        return WorkloadConfig.write_heavy()
    raise ValueError(f"unknown mix {mix!r}; use '95:5' or '50:50'")


# ----------------------------------------------------------------------
# Figure 1: throughput vs latency, PaRiS vs BPR
# ----------------------------------------------------------------------
@dataclass
class CurvePoint:
    """One load point of a throughput/latency curve."""

    protocol: str
    threads: int
    result: ExperimentResult


def figure_1(
    mix: str = "95:5",
    scale: Optional[BenchScale] = None,
    thread_ladder: Optional[Sequence[int]] = None,
    protocols: Sequence[str] = ("paris", "bpr"),
) -> List[CurvePoint]:
    """Throughput vs average latency curves (Figures 1a / 1b)."""
    scale = scale or current_scale()
    ladder = tuple(thread_ladder) if thread_ladder is not None else scale.thread_ladder
    workload = mix_workload(mix)
    points: List[CurvePoint] = []
    for protocol in protocols:
        # "BPR needs a higher number of concurrent client threads to fully
        # utilize the processing power left idle by blocked reads" (Section
        # V-B): extend its ladder so its curve, like the paper's, reaches
        # saturation rather than stopping latency-bound.
        protocol_ladder = ladder
        if protocol == "bpr":
            top = ladder[-1]
            protocol_ladder = ladder + (top * 2, top * 4)
        for threads in protocol_ladder:
            config = base_config(scale, workload=workload, threads=threads)
            result = run_experiment(config, protocol=protocol)
            points.append(CurvePoint(protocol=protocol, threads=threads, result=result))
            if result.mean_cpu_utilization >= 0.97:
                break  # saturated: further rungs only add queueing latency
    return points


def peak_throughput(points: List[CurvePoint], protocol: str) -> CurvePoint:
    """The highest-throughput point of one protocol's curve."""
    candidates = [p for p in points if p.protocol == protocol]
    if not candidates:
        raise ValueError(f"no points for protocol {protocol!r}")
    return max(candidates, key=lambda p: p.result.throughput)


@dataclass
class Figure1Summary:
    """The headline comparisons the paper quotes for Figure 1."""

    mix: str
    paris_peak: CurvePoint
    bpr_peak: CurvePoint
    throughput_gain: float
    #: Mean-latency ratio BPR/PaRiS at matched load (each protocol's peak).
    latency_ratio: float
    bpr_blocking_at_peak: float


def summarize_figure_1(mix: str, points: List[CurvePoint]) -> Figure1Summary:
    """Compute the paper's headline ratios from a Figure 1 sweep."""
    paris_peak = peak_throughput(points, "paris")
    bpr_peak = peak_throughput(points, "bpr")
    throughput_gain = (
        paris_peak.result.throughput / bpr_peak.result.throughput
        if bpr_peak.result.throughput
        else float("inf")
    )
    # Latency comparison at comparable load: the paper quotes the latency
    # advantage along the curve; we use each protocol's own peak point.
    latency_ratio = (
        bpr_peak.result.latency_mean / paris_peak.result.latency_mean
        if paris_peak.result.latency_mean
        else float("inf")
    )
    return Figure1Summary(
        mix=mix,
        paris_peak=paris_peak,
        bpr_peak=bpr_peak,
        throughput_gain=throughput_gain,
        latency_ratio=latency_ratio,
        bpr_blocking_at_peak=bpr_peak.result.blocking_mean,
    )


# ----------------------------------------------------------------------
# Figure 2: scalability
# ----------------------------------------------------------------------
@dataclass
class ScalePoint:
    """One bar of the scalability bar charts."""

    n_dcs: int
    machines_per_dc: int
    threads_at_peak: int
    result: ExperimentResult


def saturated_run(
    scale: BenchScale,
    *,
    n_dcs: int,
    machines_per_dc: int,
    workload: Optional[WorkloadConfig] = None,
    thread_ladder: Optional[Sequence[int]] = None,
    protocol: str = "paris",
) -> Tuple[int, ExperimentResult]:
    """Climb a thread ladder until throughput stops improving (saturation).

    Mirrors the paper's methodology: each configuration is loaded with as
    many closed-loop threads as it takes to saturate it, and the saturated
    throughput is reported.  The ladder doubles per rung and stops early once
    an extra rung gains less than 5 %.
    """
    if thread_ladder is None:
        top = scale.saturating_threads
        thread_ladder = tuple(top * (2 ** i) for i in range(5))
    best: Optional[Tuple[int, ExperimentResult]] = None
    for threads in thread_ladder:
        config = base_config(
            scale,
            n_dcs=n_dcs,
            machines_per_dc=machines_per_dc,
            workload=workload,
            threads=threads,
        )
        result = run_experiment(config, protocol=protocol)
        if best is not None and result.throughput < best[1].throughput * 1.05:
            if result.throughput > best[1].throughput:
                best = (threads, result)
            break
        best = (threads, result)
        if result.mean_cpu_utilization >= 0.97:
            break  # CPU-bound: more threads cannot raise throughput
    assert best is not None
    return best


def _scaling_workload(smallest_machines: int) -> WorkloadConfig:
    """Default workload with the transaction footprint pinned to fit the
    smallest configuration of a scaling sweep.

    If ``partitions_per_tx`` exceeded the smallest DC's partition pool, small
    configurations would silently run cheaper transactions than large ones
    and the sweep would not be comparing like with like.
    """
    workload = WorkloadConfig.read_heavy()
    return replace(
        workload, partitions_per_tx=min(workload.partitions_per_tx, smallest_machines)
    )


def figure_2a(scale: Optional[BenchScale] = None) -> List[ScalePoint]:
    """PaRiS saturated throughput vs machines per DC (Figure 2a)."""
    scale = scale or current_scale()
    workload = _scaling_workload(min(scale.fig2a_machines))
    points = []
    for n_dcs in scale.fig2a_dcs:
        for machines in scale.fig2a_machines:
            threads, result = saturated_run(
                scale, n_dcs=n_dcs, machines_per_dc=machines, workload=workload
            )
            points.append(
                ScalePoint(
                    n_dcs=n_dcs,
                    machines_per_dc=machines,
                    threads_at_peak=threads,
                    result=result,
                )
            )
    return points


def figure_2b(scale: Optional[BenchScale] = None) -> List[ScalePoint]:
    """PaRiS saturated throughput vs number of DCs (Figure 2b)."""
    scale = scale or current_scale()
    workload = _scaling_workload(min(scale.fig2b_machines))
    points = []
    for machines in scale.fig2b_machines:
        for n_dcs in scale.fig2b_dcs:
            threads, result = saturated_run(
                scale, n_dcs=n_dcs, machines_per_dc=machines, workload=workload
            )
            points.append(
                ScalePoint(
                    n_dcs=n_dcs,
                    machines_per_dc=machines,
                    threads_at_peak=threads,
                    result=result,
                )
            )
    return points


def scaling_factor(points: List[ScalePoint], *, by: str) -> Dict[int, float]:
    """Throughput ratio largest/smallest configuration, per group.

    ``by='dcs'`` groups Figure 2a curves (scaling in machines/DC);
    ``by='machines'`` groups Figure 2b curves (scaling in DCs).
    """
    groups: Dict[int, List[ScalePoint]] = {}
    for point in points:
        key = point.n_dcs if by == "dcs" else point.machines_per_dc
        groups.setdefault(key, []).append(point)
    factors = {}
    for key, group in groups.items():
        group = sorted(
            group, key=lambda p: p.machines_per_dc if by == "dcs" else p.n_dcs
        )
        first, last = group[0].result.throughput, group[-1].result.throughput
        factors[key] = last / first if first else float("inf")
    return factors


# ----------------------------------------------------------------------
# Figure 3: locality sweep
# ----------------------------------------------------------------------
@dataclass
class LocalityPoint:
    """Saturation throughput and latency at one locality ratio."""

    locality: float
    threads_at_peak: int
    result: ExperimentResult


def figure_3(
    scale: Optional[BenchScale] = None,
    localities: Sequence[float] = (1.0, 0.95, 0.90, 0.50),
    thread_ladder: Optional[Sequence[int]] = None,
) -> List[LocalityPoint]:
    """Throughput and latency when varying locality (Figures 3a / 3b).

    As in the paper, lower locality needs more client threads to saturate the
    system, so each locality searches its own ladder for peak throughput.
    """
    scale = scale or current_scale()
    if thread_ladder is None:
        top = scale.saturating_threads
        thread_ladder = (max(1, top // 4), top, top * 4)
    points = []
    for locality in localities:
        workload = replace(WorkloadConfig.read_heavy(), locality=locality)
        threads, result = saturated_run(
            scale,
            n_dcs=scale.n_dcs,
            machines_per_dc=scale.machines_per_dc,
            workload=workload,
            thread_ladder=thread_ladder,
        )
        points.append(
            LocalityPoint(locality=locality, threads_at_peak=threads, result=result)
        )
    return points


# ----------------------------------------------------------------------
# Figure 4: update visibility latency CDF
# ----------------------------------------------------------------------
@dataclass
class VisibilityResult:
    """Per-protocol visibility CDF (mean of per-partition CDFs)."""

    protocol: str
    result: ExperimentResult


def figure_4(
    scale: Optional[BenchScale] = None,
    threads: Optional[int] = None,
    sample_rate: float = 0.25,
) -> List[VisibilityResult]:
    """Update visibility latency of PaRiS vs BPR (Figure 4)."""
    scale = scale or current_scale()
    if threads is None:
        threads = max(1, scale.saturating_threads // 4)
    results = []
    for protocol in ("paris", "bpr"):
        config = base_config(
            scale, threads=threads, visibility_sample_rate=sample_rate
        )
        results.append(
            VisibilityResult(protocol=protocol, result=run_experiment(config, protocol=protocol))
        )
    return results


# ----------------------------------------------------------------------
# Section V-B text: BPR blocking time at peak throughput
# ----------------------------------------------------------------------
@dataclass
class BlockingResult:
    """Average read blocking time of BPR for one mix."""

    mix: str
    threads: int
    blocking_mean: float
    blocked_fraction: float
    throughput: float


def blocking_time(
    scale: Optional[BenchScale] = None, mixes: Sequence[str] = ("95:5", "50:50")
) -> List[BlockingResult]:
    """BPR's average blocking time at high load (quoted in Section V-B)."""
    scale = scale or current_scale()
    rows = []
    for mix in mixes:
        config = base_config(
            scale, workload=mix_workload(mix), threads=scale.saturating_threads
        )
        result = run_experiment(config, protocol="bpr")
        rows.append(
            BlockingResult(
                mix=mix,
                threads=scale.saturating_threads,
                blocking_mean=result.blocking_mean,
                blocked_fraction=result.blocked_fraction,
                throughput=result.throughput,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fault scenario (Section III-C): availability under an inter-DC partition
# ----------------------------------------------------------------------
@dataclass
class PartitionStallResult:
    """One protocol's behaviour across a partition / heal episode."""

    protocol: str
    plan_name: str
    #: Transactions completed before / during / after the partition window.
    committed_before: int
    committed_during: int
    committed_after: int
    #: Read slices still parked the moment the partition healed (BPR only).
    parked_at_heal: int
    #: Read slices that ever blocked, and the longest observed block.
    blocked_slices: int
    blocking_max: float
    #: UST staleness the moment the partition healed.
    ust_staleness_at_heal: float
    violations: int


def partition_stall_plan(n_dcs: int, start: float, end: float) -> FaultPlan:
    """Isolate the last DC of a deployment during ``[start, end]``."""
    return FaultPlan(
        events=(
            FaultEvent(at=start, action="partition", dc=n_dcs - 1),
            FaultEvent(at=end, action="heal"),
        ),
        name="partition-stall",
    )


def partition_stall(
    scale: Optional[BenchScale] = None,
    protocols: Sequence[str] = ("paris", "bpr"),
    plan: Optional[FaultPlan] = None,
    seed: int = 42,
) -> List[PartitionStallResult]:
    """The paper's availability claim (Section III-C), measured.

    One DC is partitioned away mid-run.  PaRiS keeps serving reads from the
    frozen-but-stable UST snapshot — no read ever blocks — while BPR's
    freshness-first snapshots outrun the frozen version vectors, so its reads
    park and its sessions grind to a halt until the partition heals.  The
    workload is fully local (``locality=1.0``): the contrast is *not* about
    WAN round trips, it is about what each protocol's reads wait for.

    Consistency is checked under the fault for every protocol; the returned
    rows carry the violation counts (expected: zero everywhere).
    """
    from ..workload.runner import SessionStats
    from .harness import build_cluster, deploy_sessions

    scale = scale or current_scale()
    window_start = scale.warmup + 0.25 * scale.duration
    window_end = scale.warmup + 0.75 * scale.duration
    drain_until = scale.warmup + scale.duration + max(1.0, 0.5 * scale.duration)
    if plan is None:
        plan = partition_stall_plan(scale.n_dcs, window_start, window_end)
    else:
        heals = [event.at for event in plan.events if event.action == "heal"]
        partitions = [event.at for event in plan.events if event.action == "partition"]
        if partitions:
            window_start = min(partitions)
        if heals:
            window_end = max(heals)
        drain_until = max(drain_until, window_end + 1.0)
    # One closed-loop thread per client: the scenario is qualitative
    # (availability, not saturation), and the consistency checker's cost
    # per event still rises with load, so keep the history small.  At the
    # small scale (paris, 2-core Xeon, Python 3.11) it checks 16k events
    # in 3.0 s at one thread per client (0.19 ms/event, against 5.4 s of
    # simulation) but 109k events in 68 s at eight (0.62 ms/event, against
    # 46 s of simulation).
    workload = replace(
        WorkloadConfig.read_heavy(),
        locality=1.0,
        partitions_per_tx=min(4, scale.machines_per_dc),
        keys_per_partition=scale.keys_per_partition,
        threads_per_client=1,
    )
    rows: List[PartitionStallResult] = []
    for protocol in protocols:
        oracle = ConsistencyOracle()
        config = SimulationConfig(
            cluster=ClusterSpec.from_machines(
                n_dcs=scale.n_dcs,
                machines_per_dc=scale.machines_per_dc,
                replication_factor=scale.replication_factor,
            ),
            workload=workload,
            seed=seed,
            warmup=scale.warmup,
            duration=scale.duration,
            faults=plan,
        )
        cluster = build_cluster(config, protocol=protocol, oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        sim = cluster.sim
        sim.run(until=window_start)
        committed_before = stats.meter.completed_total
        sim.run(until=window_end)
        committed_during = stats.meter.completed_total - committed_before
        parked_at_heal = sum(
            getattr(server, "parked_reads", 0) for server in cluster.all_servers()
        )
        staleness_at_heal = cluster.ust_staleness()
        sim.run(until=drain_until)
        committed_after = (
            stats.meter.completed_total - committed_before - committed_during
        )
        blocking_samples = [
            sample
            for server in cluster.all_servers()
            for sample in server.metrics.blocking.samples
        ]
        violations = ConsistencyChecker(oracle).check_all()
        rows.append(
            PartitionStallResult(
                protocol=protocol,
                plan_name=plan.name or "partition-stall",
                committed_before=committed_before,
                committed_during=committed_during,
                committed_after=committed_after,
                parked_at_heal=parked_at_heal,
                blocked_slices=len(blocking_samples),
                blocking_max=max(blocking_samples) if blocking_samples else 0.0,
                ust_staleness_at_heal=staleness_at_heal,
                violations=len(violations),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Elastic reconfiguration soak: membership churn under a shifting hotspot
# ----------------------------------------------------------------------
@dataclass
class ReconfigSoakResult:
    """One protocol's behaviour across a membership-churn soak."""

    protocol: str
    plan_name: str
    #: Join / leave events the plan carries (``add_dc`` counts one join per
    #: partition it rejoins; ``remove_dc`` likewise).
    joins: int
    leaves: int
    committed_total: int
    #: Transactions completed while the churn window was open.
    committed_during_churn: int
    #: Membership epoch at the end of the run (0 = never reconfigured).
    final_epoch: int
    violations: int


def reconfig_soak_plan(spec: ClusterSpec, start: float, end: float) -> FaultPlan:
    """Deterministic membership churn across ``[start, end]``.

    Three overlapping episodes: an incumbent replica of DC 0 leaves and
    rejoins, a *guest* replica joins DC 1 for a partition its spec placement
    does not host and retires again, and (with three or more DCs) the last
    DC is removed wholesale and re-added.  Every change is undone by ``end``
    so the run finishes on a serving (if reordered) membership.
    """
    span = end - start
    leaver_dc = 0
    leaver_partition = spec.dc_partitions(leaver_dc)[0]
    guest_dc = 1 % spec.n_dcs
    guest_hosted = set(spec.dc_partitions(guest_dc))
    guest_partition = next(
        (p for p in range(spec.n_partitions) if p not in guest_hosted), None
    )
    events = [
        FaultEvent(
            at=start, action="remove_replica", dc=leaver_dc, partition=leaver_partition
        ),
    ]
    if guest_partition is not None:
        events.append(
            FaultEvent(
                at=start + 0.2 * span,
                action="add_replica",
                dc=guest_dc,
                partition=guest_partition,
            )
        )
    events.append(
        FaultEvent(
            at=start + 0.4 * span,
            action="add_replica",
            dc=leaver_dc,
            partition=leaver_partition,
        )
    )
    if guest_partition is not None:
        events.append(
            FaultEvent(
                at=start + 0.6 * span,
                action="remove_replica",
                dc=guest_dc,
                partition=guest_partition,
            )
        )
    if spec.n_dcs >= 3:
        last_dc = spec.n_dcs - 1
        events.append(FaultEvent(at=start + 0.65 * span, action="remove_dc", dc=last_dc))
        events.append(FaultEvent(at=start + 0.95 * span, action="add_dc", dc=last_dc))
    return FaultPlan(events=tuple(events), name="reconfig-soak")


def reconfig_soak(
    scale: Optional[BenchScale] = None,
    protocols: Sequence[str] = ("paris", "bpr"),
    seed: int = 42,
) -> List[ReconfigSoakResult]:
    """Membership churn layered over the ``hotspot_shift`` workload.

    The elastic-reconfiguration stress scenario: while the hot key set
    rotates through the keyspace, replicas leave and rejoin, a guest replica
    joins and retires, and a whole DC is removed and re-added.  Consistency
    is checked through the churn at the level each protocol claims
    (expected: zero violations everywhere).

    The drain delay is shortened relative to the scale's duration so every
    drain window closes inside the run; like ``partition_stall`` the load is
    one closed-loop thread per client to keep the checked history small.
    """
    from ..protocols import get_protocol
    from ..workload.profiles import get_profile
    from ..workload.runner import SessionStats
    from .harness import build_cluster, deploy_sessions

    scale = scale or current_scale()
    churn_start = scale.warmup + 0.05 * scale.duration
    churn_end = scale.warmup + 0.95 * scale.duration
    drain_until = scale.warmup + scale.duration + max(1.0, 0.5 * scale.duration)
    spec = ClusterSpec.from_machines(
        n_dcs=scale.n_dcs,
        machines_per_dc=scale.machines_per_dc,
        replication_factor=scale.replication_factor,
    )
    plan = reconfig_soak_plan(spec, churn_start, churn_end)
    workload = replace(
        get_profile("hotspot_shift").apply(WorkloadConfig.read_heavy()),
        partitions_per_tx=min(4, scale.machines_per_dc),
        keys_per_partition=scale.keys_per_partition,
        threads_per_client=1,
    )
    joins = sum(1 for e in plan if e.action in ("add_replica", "add_dc"))
    leaves = sum(1 for e in plan if e.action in ("remove_replica", "remove_dc"))
    rows: List[ReconfigSoakResult] = []
    for protocol in protocols:
        from ..config import ReconfigConfig

        level = get_protocol(protocol).consistency
        oracle = ConsistencyOracle()
        config = SimulationConfig(
            cluster=spec,
            workload=workload,
            seed=seed,
            warmup=scale.warmup,
            duration=scale.duration,
            faults=plan,
            reconfig=ReconfigConfig(drain_delay=min(0.25, 0.1 * scale.duration)),
        )
        cluster = build_cluster(config, protocol=protocol, oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        sim = cluster.sim
        sim.run(until=churn_start)
        committed_before = stats.meter.completed_total
        sim.run(until=churn_end)
        committed_during = stats.meter.completed_total - committed_before
        sim.run(until=drain_until)
        violations = ConsistencyChecker(oracle).check_level(level)
        rows.append(
            ReconfigSoakResult(
                protocol=protocol,
                plan_name=plan.name or "reconfig-soak",
                joins=joins,
                leaves=leaves,
                committed_total=stats.meter.completed_total,
                committed_during_churn=committed_during,
                final_epoch=cluster.membership.epoch,
                violations=len(violations),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Capacity claim (Section I / VI): partial vs full replication
# ----------------------------------------------------------------------
@dataclass
class CapacityRow:
    """Storage footprint of one replication strategy."""

    label: str
    replication_factor: int
    storage_fraction_per_dc: float
    capacity_multiplier: float
    #: Versions actually held per DC in a short measured run.
    measured_versions_per_dc: float


def capacity_comparison(scale: Optional[BenchScale] = None) -> List[CapacityRow]:
    """Partial replication's storage advantage, modelled and measured."""
    scale = scale or current_scale()
    rows = []
    for rf, label in ((scale.replication_factor, "partial (paper)"), (scale.n_dcs, "full")):
        cluster_spec = ClusterSpec.from_machines(
            n_dcs=scale.n_dcs,
            machines_per_dc=scale.machines_per_dc * rf // scale.replication_factor,
            replication_factor=rf,
        )
        workload = replace(
            WorkloadConfig.read_heavy(),
            keys_per_partition=scale.keys_per_partition,
            threads_per_client=1,
        )
        config = SimulationConfig(
            cluster=cluster_spec,
            workload=workload,
            seed=42,
            warmup=0.5,
            duration=0.5,
        )
        from .harness import build_cluster  # local import to avoid cycle

        cluster = build_cluster(config, protocol="paris")
        versions_by_dc: Dict[int, int] = {}
        for (dc_id, _), server in cluster.servers.items():
            versions_by_dc[dc_id] = versions_by_dc.get(dc_id, 0) + server.store.version_count
        mean_versions = sum(versions_by_dc.values()) / len(versions_by_dc)
        rows.append(
            CapacityRow(
                label=label,
                replication_factor=rf,
                storage_fraction_per_dc=cluster_spec.storage_fraction_per_dc(),
                capacity_multiplier=cluster_spec.capacity_vs_full_replication(),
                measured_versions_per_dc=mean_versions,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Ablations (ours; design choices docs/architecture.md calls out)
# ----------------------------------------------------------------------
@dataclass
class StabilizationPoint:
    """Staleness/visibility at one stabilization period."""

    interval: float
    ust_staleness: float
    visibility_mean: float
    throughput: float
    stabilization_messages: int


def ablation_stabilization(
    scale: Optional[BenchScale] = None,
    intervals: Sequence[float] = (0.001, 0.005, 0.020, 0.050),
) -> List[StabilizationPoint]:
    """Sensitivity of data staleness to the stabilization period.

    The paper runs its stabilization every 5 ms; this sweep quantifies the
    freshness/overhead trade-off of that choice.
    """
    scale = scale or current_scale()
    rows = []
    for interval in intervals:
        config = base_config(
            scale,
            threads=max(1, scale.saturating_threads // 8),
            visibility_sample_rate=0.25,
        )
        config = config.with_(
            protocol=replace(
                config.protocol, gst_interval=interval, ust_interval=interval
            )
        )
        result = run_experiment(config, protocol="paris")
        rows.append(
            StabilizationPoint(
                interval=interval,
                ust_staleness=result.ust_staleness,
                visibility_mean=result.visibility_mean,
                throughput=result.throughput,
                stabilization_messages=result.messages_total,
            )
        )
    return rows


@dataclass
class PropagationRow:
    """Update-propagation cost of one replication factor."""

    replication_factor: int
    inter_dc_replication_messages: int
    transactions_committed: int
    #: Inter-DC replication traffic normalised per committed transaction.
    messages_per_commit: float


def propagation_cost(
    scale: Optional[BenchScale] = None,
    replication_factors: Optional[Sequence[int]] = None,
) -> List[PropagationRow]:
    """Section I: "updates performed in one DC are propagated to fewer
    replicas" under partial replication.

    Runs the same workload at increasing replication factors (up to full
    replication, RF = M) and counts inter-DC replication traffic.  Each
    update crosses the WAN to RF-1 peer replicas, so the per-commit cost
    grows linearly with RF — the propagation saving partial replication buys.
    """
    from ..core.messages import ReplicateMsg  # local import to avoid cycle

    scale = scale or current_scale()
    if replication_factors is None:
        replication_factors = sorted({scale.replication_factor, scale.n_dcs})
    rows = []
    for rf in replication_factors:
        cluster_spec = ClusterSpec(
            n_dcs=scale.n_dcs,
            # Keep the *partition count* fixed so the workload is identical;
            # only the number of replicas per partition changes.
            n_partitions=scale.n_dcs * scale.machines_per_dc
            // scale.replication_factor,
            replication_factor=rf,
        )
        workload = replace(
            WorkloadConfig.read_heavy(),
            keys_per_partition=scale.keys_per_partition,
            threads_per_client=max(1, scale.saturating_threads // 8),
            partitions_per_tx=min(4, len(cluster_spec.dc_partitions(0))),
        )
        config = SimulationConfig(
            cluster=cluster_spec,
            workload=workload,
            seed=42,
            warmup=scale.warmup,
            duration=scale.duration,
        )
        from .harness import build_cluster, deploy_sessions
        from ..workload.runner import SessionStats

        cluster = build_cluster(config, protocol="paris")
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        cluster.sim.run(until=config.warmup)
        inter_dc_before = _inter_dc_replication(cluster)
        commits_before = stats.meter.completed_total
        cluster.sim.run(until=config.warmup + config.duration)
        messages = _inter_dc_replication(cluster) - inter_dc_before
        commits = stats.meter.completed_total - commits_before
        rows.append(
            PropagationRow(
                replication_factor=rf,
                inter_dc_replication_messages=messages,
                transactions_committed=commits,
                messages_per_commit=messages / commits if commits else 0.0,
            )
        )
    return rows


def _inter_dc_replication(cluster) -> int:
    """Inter-DC ReplicateMsg count (replication batches that crossed the WAN).

    Replicate messages only flow between replicas of one partition, which are
    always in different DCs, so the global type counter is exactly the
    inter-DC replication traffic.
    """
    return cluster.network.metrics.by_type.get("ReplicateMsg", 0)


@dataclass
class ClockAblationPoint:
    """Visibility/throughput of one clock mode."""

    mode: str
    visibility_mean: float
    visibility_p99: float
    throughput: float


def ablation_clocks(
    scale: Optional[BenchScale] = None, modes: Sequence[str] = ("hlc", "logical")
) -> List[ClockAblationPoint]:
    """HLC vs pure logical clocks (Section III-B's freshness argument).

    Logical clocks advance only on events, so quiet partitions hold the UST
    back and updates take far longer to become visible.  HLCs advance with
    wall-clock time and keep the stable snapshot fresh.
    """
    from ..config import ClockConfig

    scale = scale or current_scale()
    rows = []
    for mode in modes:
        config = base_config(
            scale,
            threads=max(1, scale.saturating_threads // 8),
            visibility_sample_rate=0.25,
        )
        config = config.with_(
            clocks=ClockConfig(
                max_offset=config.clocks.max_offset,
                max_drift=config.clocks.max_drift,
                mode=mode,
            )
        )
        result = run_experiment(config, protocol="paris")
        rows.append(
            ClockAblationPoint(
                mode=mode,
                visibility_mean=result.visibility_mean,
                visibility_p99=result.visibility_p99,
                throughput=result.throughput,
            )
        )
    return rows


@dataclass
class CacheAblationResult:
    """Outcome of disabling the client-side write cache."""

    protocol_variant: str
    commits: int
    violations: int
    violation_kinds: Tuple[str, ...]


def ablation_client_cache(scale: Optional[BenchScale] = None) -> List[CacheAblationResult]:
    """UST alone cannot enforce causality (Section III-B): drop the cache.

    Without WC_c, a client's own committed writes are invisible until the UST
    catches up, breaking read-your-writes — the checker must catch it.
    """
    from ..core.client import PaRiSClient
    from ..protocols import get_protocol, register, unregister

    class NoCacheClient(PaRiSClient):
        """PaRiS client with the write cache disabled (broken on purpose)."""

        def _on_committed(self, resp):
            commit_ts = super()._on_committed(resp)
            # Immediately forget everything the cache just learned.
            self.cache.prune(commit_ts)
            return commit_ts

    scale = scale or current_scale()
    rows = []
    for label, client_cls in (("paris", None), ("paris-no-cache", NoCacheClient)):
        oracle = ConsistencyOracle()
        config = base_config(scale, threads=1, seed=11)
        # Hot keys + few keys maximise re-reads of own writes.
        config = config.with_(
            workload=replace(config.workload, keys_per_partition=10, zipf_theta=0.9)
        )
        protocol = "paris"
        if client_cls is not None:
            # The registry seam: same server components, broken client.
            protocol = "paris_no_cache_ablation"
            register(
                replace(
                    get_protocol("paris"),
                    name=protocol,
                    description="paris with the write cache ablated (broken)",
                    client_cls=client_cls,
                )
            )
        try:
            run_experiment(config, protocol=protocol, oracle=oracle)
        finally:
            if client_cls is not None:
                unregister(protocol)
        violations = ConsistencyChecker(oracle).check_all()
        rows.append(
            CacheAblationResult(
                protocol_variant=label,
                commits=len(oracle.commits),
                violations=len(violations),
                violation_kinds=tuple(sorted({v.kind for v in violations})),
            )
        )
    return rows
