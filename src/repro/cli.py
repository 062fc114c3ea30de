"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       Run one simulated experiment and print its summary
              (``--faults plan.json`` applies a fault schedule; ``--big``
              switches to the streaming big-run tier: O(window) windowed
              consistency checking plus an optional ``--trace-out`` spill;
              ``--shards N`` partitions the DCs across N worker processes
              with byte-identical results; ``--profile STATS`` dumps a
              cProfile of the hot loop — see docs/scaling.md).
``compare``   Run PaRiS and BPR on the same configuration, side by side.
``check``     Run a workload under the consistency oracle and report
              violations (exit status 1 if any are found); also accepts
              ``--faults``.  ``--trace-out`` persists the checked history
              as a JSONL trace; ``--trace-in`` skips the simulation and
              re-checks a persisted trace instead.
``chaos``     Generate (or load) a fault schedule, run a workload under it,
              and verify consistency survived.
``sweep``     Execute a declarative experiment grid (JSON spec) across worker
              processes, with resumable content-addressed caching
              (``--save`` also ingests every run into the run repository).
``runs``      Query the run repository: persisted runs by protocol,
              workload, preset, source, or time range (docs/serving.md).
``replay``    Re-execute a persisted run from its stored config/seed and
              assert digest equality against the stored summary (and trace,
              when one was stored); exits non-zero on divergence.
``serve``     Long-running HTTP front door: launch/inspect/list/replay runs
              and submit sweeps over HTTP, executed on a bounded worker
              pool and persisted to the run repository (docs/serving.md).
``trace``     Trace-file utilities; ``trace merge`` k-way-merges per-shard
              JSONL traces (from ``run --big --shards N --trace-out``) into
              one commit-time-ordered trace, byte-identical to the trace a
              single-shard run writes (docs/scaling.md).
``profiles``  List the registered workload profiles (``--workload`` values
              and the ``workload`` sweep axis; see docs/workloads.md).
``protocols`` List the registered protocols (``--protocol`` values and the
              ``protocol`` sweep axis; see docs/protocol.md).
``topology``  Describe a deployment's placement and capacity.
``figure``    Regenerate one of the paper's figures/tables.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Optional, Sequence

from .bench import experiments as exp
from .bench import report, results, sweep
from .bench.harness import ExperimentResult, run_experiment
from .cluster.topology import ClusterSpec
from .config import SimulationConfig
from .consistency.checker import ConsistencyChecker
from .consistency.oracle import ConsistencyOracle
from .faults import FaultPlan, random_plan
from .protocols import is_registered, protocol_names

#: Names accepted by ``repro figure``: the paper-artifact catalogue plus the
#: sweep-backed design-space study.
FIGURES = (*report.SECTIONS, "design_space")

#: The committed sweep spec behind ``repro figure design_space``.
DESIGN_SPACE_SPEC = pathlib.Path("examples/sweeps/design_space.json")

#: Default run-repository root (``repro run --save``, ``runs``, ``replay``,
#: ``serve``; layout in docs/serving.md).
DEFAULT_REPO_DIR = "results"


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaRiS reproduction: simulated TCC with partial replication",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run one experiment")
    _add_cluster_args(run_cmd)
    _add_protocol_arg(run_cmd)
    run_cmd.add_argument(
        "--json", action="store_true", help="emit the result as JSON instead of text"
    )
    _add_faults_arg(run_cmd)
    run_cmd.add_argument(
        "--big",
        action="store_true",
        help="big-run tier: stream consistency events through the windowed "
        "checker (O(window) memory) instead of the in-memory oracle; "
        "exits 1 on violations (docs/scaling.md)",
    )
    run_cmd.add_argument(
        "--window",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="visibility window of the streaming checker in simulated "
        "seconds of commit time (default: 1.0; only with --big)",
    )
    run_cmd.add_argument(
        "--trace-out",
        metavar="TRACE_JSONL",
        default=None,
        help="also spill the consistency event stream to this JSONL file "
        "(re-checkable with 'repro check --trace-in'; only with --big)",
    )
    run_cmd.add_argument(
        "--save",
        action="store_true",
        help="persist the completed run into the run repository so it can "
        "be queried ('repro runs') and replayed ('repro replay'); with "
        "--big --trace-out the trace is stored too (docs/serving.md)",
    )
    run_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition the DCs across N worker processes advancing in "
        "lockstep latency windows; summaries and traces are byte-identical "
        "to --shards 1 (requires N <= --dcs; docs/scaling.md)",
    )
    run_cmd.add_argument(
        "--profile",
        metavar="STATS",
        default=None,
        help="dump a cProfile of the simulation hot loop to this file "
        "(pstats format; one file per shard, STATS.shard<i>, with --shards)",
    )
    _add_repo_arg(run_cmd)

    compare_cmd = commands.add_parser(
        "compare", help="run several protocols on one config, side by side"
    )
    _add_cluster_args(compare_cmd)
    compare_cmd.add_argument(
        "--protocol",
        metavar="NAME",
        type=_protocol_name,
        nargs="+",
        default=["paris", "bpr"],
        help="registered protocols to compare (default: paris bpr)",
    )

    check_cmd = commands.add_parser("check", help="verify TCC invariants under load")
    _add_cluster_args(check_cmd)
    _add_protocol_arg(check_cmd)
    _add_faults_arg(check_cmd)
    check_cmd.add_argument(
        "--trace-in",
        metavar="TRACE_JSONL",
        default=None,
        help="skip the simulation and re-check this persisted trace "
        "(produced by 'repro run --big --trace-out' or --trace-out here)",
    )
    check_cmd.add_argument(
        "--trace-out",
        metavar="TRACE_JSONL",
        default=None,
        help="persist the run's consistency events to this JSONL file "
        "after checking",
    )
    check_cmd.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="visibility window for --trace-in re-checks (default: "
        "unbounded, exactly equivalent to the in-memory checker)",
    )

    chaos_cmd = commands.add_parser(
        "chaos", help="seeded random faults + consistency check"
    )
    _add_cluster_args(chaos_cmd)
    _add_protocol_arg(chaos_cmd)
    chaos_cmd.add_argument(
        "--episodes", type=int, default=6, help="fault episodes to generate"
    )
    chaos_cmd.add_argument(
        "--plan", metavar="PLAN_JSON", help="apply this plan instead of generating one"
    )
    chaos_cmd.add_argument(
        "--plan-out", metavar="OUT_JSON", help="write the applied plan to this file"
    )
    chaos_cmd.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed for plan generation (default: --seed)",
    )

    sweep_cmd = commands.add_parser(
        "sweep", help="run a declarative experiment grid (resumable, parallel)"
    )
    sweep_cmd.add_argument("spec", help="sweep spec JSON (see docs/experiments.md)")
    sweep_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results are identical at any worker count)",
    )
    sweep_cmd.add_argument(
        "--results-dir", default="sweep_results",
        help="cache/summary root (default: sweep_results/)",
    )
    sweep_cmd.add_argument(
        "--out", default=None,
        help="summary path (default: <results-dir>/<name>/summary.json)",
    )
    sweep_cmd.add_argument(
        "--force", action="store_true", help="re-execute runs even when cached"
    )
    sweep_cmd.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="print the expanded run list and exit without executing",
    )
    sweep_cmd.add_argument(
        "--save",
        action="store_true",
        help="also ingest every completed run into the run repository "
        "(same content address as the cache entry; docs/serving.md)",
    )
    _add_repo_arg(sweep_cmd)

    runs_cmd = commands.add_parser(
        "runs", help="query the run repository (persisted runs)"
    )
    _add_repo_arg(runs_cmd)
    runs_cmd.add_argument(
        "--protocol", metavar="NAME", default=None,
        help="only runs of this protocol",
    )
    runs_cmd.add_argument(
        "--workload", metavar="PROFILE", default=None,
        help="only runs of this workload profile",
    )
    runs_cmd.add_argument(
        "--preset", metavar="NAME", default=None,
        help="only runs pinned to this topology preset",
    )
    runs_cmd.add_argument(
        "--source", metavar="SRC", default=None,
        help="only runs from this source (cli, serve, sweep:<name>)",
    )
    runs_cmd.add_argument(
        "--limit", type=int, default=20,
        help="newest N entries (default: 20; 0 = all)",
    )

    replay_cmd = commands.add_parser(
        "replay",
        help="re-execute a persisted run and assert digest equality",
    )
    replay_cmd.add_argument(
        "run_id",
        metavar="RUN_ID",
        help="full run id or a unique prefix (>= 8 hex chars; see 'repro runs')",
    )
    _add_repo_arg(replay_cmd)
    replay_cmd.add_argument(
        "--trace-out",
        metavar="TRACE_JSONL",
        default=None,
        help="keep the replayed trace at this path (for diffing a divergence)",
    )

    serve_cmd = commands.add_parser(
        "serve", help="HTTP API: launch/inspect/list/replay runs and sweeps"
    )
    _add_repo_arg(serve_cmd)
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8008,
        help="TCP port (default: 8008; 0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2,
        help="max concurrently executing jobs (default: 2); extra "
        "submissions queue FIFO so clients can't oversubscribe the machine",
    )
    serve_cmd.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    trace_cmd = commands.add_parser(
        "trace", help="trace-file utilities (merge per-shard traces)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    merge_cmd = trace_sub.add_parser(
        "merge",
        help="k-way merge shard traces into one commit-time-ordered trace",
    )
    merge_cmd.add_argument(
        "inputs",
        nargs="+",
        metavar="TRACE_JSONL",
        help="per-shard input traces, each sorted by commit time (the "
        "<path>.shard<i> files a sharded run leaves beside its merged trace)",
    )
    merge_cmd.add_argument(
        "--out",
        "-o",
        required=True,
        metavar="OUT_JSONL",
        help="merged output trace (re-checkable with 'repro check --trace-in')",
    )

    profiles_cmd = commands.add_parser(
        "profiles", help="list registered workload profiles"
    )
    profiles_cmd.add_argument(
        "--names",
        action="store_true",
        help="print bare profile names, one per line (for scripting/CI)",
    )

    protocols_cmd = commands.add_parser(
        "protocols", help="list registered protocols"
    )
    protocols_cmd.add_argument(
        "--names",
        action="store_true",
        help="print bare protocol names, one per line (for scripting/CI)",
    )
    protocols_cmd.add_argument(
        "--consistency",
        metavar="LEVEL",
        default=None,
        help="only list protocols claiming this consistency level "
        "(e.g. 'tcc'; drives CI's reconfig matrix)",
    )

    topology_cmd = commands.add_parser("topology", help="describe a deployment")
    topology_cmd.add_argument("--dcs", type=int, default=5)
    topology_cmd.add_argument("--machines", type=int, default=18)
    topology_cmd.add_argument("--rf", type=int, default=2)

    figure_cmd = commands.add_parser("figure", help="regenerate a paper artifact")
    figure_cmd.add_argument("name", choices=FIGURES)
    figure_cmd.add_argument(
        "--scale", choices=sorted(exp.SCALES), default="small",
        help="deployment scale (default: small)",
    )
    return parser


def _protocol_name(name: str) -> str:
    """Argparse type for ``--protocol``: unknown names list the registry."""
    if not is_registered(name):
        raise argparse.ArgumentTypeError(
            f"unknown protocol {name!r}; registered: {', '.join(protocol_names())} "
            "(see 'repro protocols')"
        )
    return name


def _add_protocol_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol",
        metavar="NAME",
        type=_protocol_name,
        default="paris",
        help="registered protocol to run (see 'repro protocols')",
    )


def _add_repo_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repo",
        metavar="DIR",
        default=DEFAULT_REPO_DIR,
        help=f"run repository root (default: {DEFAULT_REPO_DIR}/; "
        "layout in docs/serving.md)",
    )


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        metavar="PLAN_JSON",
        help="fault plan (JSON, see docs/faults.md) applied during the run",
    )


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dcs", type=int, default=3, help="number of DCs")
    parser.add_argument(
        "--preset",
        metavar="NAME",
        default=None,
        help="geo-real topology preset naming one cloud region per DC "
        "(see docs/topologies.md); must match --dcs",
    )
    parser.add_argument("--machines", type=int, default=2, help="machines per DC")
    parser.add_argument("--rf", type=int, default=2, help="replication factor")
    parser.add_argument("--threads", type=int, default=4, help="threads per client")
    parser.add_argument("--mix", choices=("95:5", "50:50"), default="95:5")
    parser.add_argument(
        "--workload",
        metavar="PROFILE",
        default=None,
        help="named workload profile overriding --mix (see 'repro profiles')",
    )
    parser.add_argument("--locality", type=float, default=0.95)
    parser.add_argument("--keys", type=int, default=100, help="keys per partition")
    parser.add_argument("--warmup", type=float, default=1.0, help="simulated seconds")
    parser.add_argument("--duration", type=float, default=1.5, help="simulated seconds")
    parser.add_argument("--seed", type=int, default=1)


def params_from_args(
    args: argparse.Namespace, *, inline_faults: bool = False
) -> dict:
    """The flat run-parameter mapping equivalent to the CLI flags.

    With ``inline_faults`` a ``--faults`` plan file is loaded and inlined as
    a mapping, making the parameters self-contained — the form the run
    repository persists, so a saved record replays identically wherever the
    original plan file ends up.
    """
    protocol = getattr(args, "protocol", "paris")
    if not isinstance(protocol, str):
        # `compare` takes a protocol *list*; the shared config is
        # protocol-agnostic and each run names its protocol explicitly.
        protocol = "paris"
    params = {
        "protocol": protocol,
        "dcs": args.dcs,
        "machines": args.machines,
        "rf": args.rf,
        "threads": args.threads,
        "mix": args.mix,
        "workload": getattr(args, "workload", None),
        "locality": args.locality,
        "keys": args.keys,
        "warmup": args.warmup,
        "duration": args.duration,
        "seed": args.seed,
        "faults": getattr(args, "faults", None) or None,
        "preset": getattr(args, "preset", None),
    }
    if inline_faults and params["faults"] is not None:
        params["faults"] = FaultPlan.load(params["faults"]).to_dict()
    return params


def config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """Translate CLI arguments into a simulation configuration.

    Delegates to :func:`repro.bench.sweep.config_from_params` so the CLI and
    sweep specs share one flat-parameter-to-config translation.
    """
    config, _ = sweep.config_from_params(params_from_args(args))
    return config


def format_result(result: ExperimentResult) -> str:
    """One experiment's summary block."""
    lines = [
        f"protocol            {result.protocol}",
        f"sessions            {result.sessions} ({result.threads_per_client} threads/client)",
        f"throughput          {result.throughput:,.0f} tx/s",
        f"latency mean/p95    {result.latency_mean_ms:.2f} / {result.latency_p95 * 1000:.2f} ms",
        f"latency p99         {result.latency_p99 * 1000:.2f} ms",
        f"multi-DC fraction   {result.multi_dc_fraction:.3f}",
        f"cpu utilization     {result.mean_cpu_utilization:.2f}",
        f"UST staleness       {result.ust_staleness * 1000:.1f} ms",
        f"messages (inter-DC) {result.messages_total:,} ({result.messages_inter_dc:,})",
        f"metadata bytes      {result.metadata_bytes_total:,}",
    ]
    if result.read_retries_total > 0:
        lines.append(f"stale-read retries  {result.read_retries_total:,}")
    if result.blocking_mean > 0:
        lines.append(
            f"read blocking       {result.blocking_mean * 1000:.1f} ms mean, "
            f"{result.blocked_fraction:.2f} of slices"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment, text or JSON summary.

    With ``--big`` the run records its consistency events through the
    streaming oracle: a windowed :class:`StreamingChecker` consumes them
    inline with O(window) memory, and ``--trace-out`` optionally spills
    them to a JSONL file for later re-checking.  Violations exit 1.

    With ``--shards N`` the DCs are partitioned across N worker processes
    advancing in conservative latency windows (:mod:`repro.sim.sharded`);
    summaries and traces are byte-identical to the single-kernel run, so
    sharding composes with ``--big``, ``--save``, and ``repro replay``
    (which re-executes sequentially and still matches).  Unshardable
    inputs — more shards than DCs, membership fault plans — exit 2 with a
    named error.
    """
    from .sim.sharded import ShardingError

    try:
        if args.shards < 1:
            raise ShardingError(f"--shards must be >= 1: {args.shards}")
        return _cmd_run_inner(args)
    except ShardingError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


def _cmd_run_inner(args: argparse.Namespace) -> int:
    """The body of ``repro run`` (ShardingError handled by the wrapper)."""
    config = config_from_args(args)
    if not args.big:
        if args.shards > 1:
            from .sim.sharded import run_sharded_experiment

            result = run_sharded_experiment(
                config, args.shards, protocol=args.protocol,
                profile_path=args.profile,
            )
        elif args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = run_experiment(config, protocol=args.protocol)
            finally:
                profiler.disable()
            profiler.dump_stats(args.profile)
        else:
            result = run_experiment(config, protocol=args.protocol)
        if args.json:
            print(result.to_json())
        else:
            print(format_result(result))
        _report_profile(args)
        if args.save:
            _save_to_repository(args, result)
        return 0

    from .consistency.streaming import StreamingChecker, StreamingOracle, check_trace
    from .protocols import get_protocol
    from .sim.trace import TraceWriter

    level = get_protocol(args.protocol).consistency
    trace_path: Optional[str] = None
    if args.shards > 1:
        import os
        import tempfile

        from .sim.sharded import run_sharded_experiment

        # Sharded big runs stream each shard's events to its own spill
        # file; the merged, commit-time-ordered trace then feeds the
        # windowed checker exactly as a live single-kernel stream would
        # (same bytes, so same counters and verdict).  The checker needs
        # that merged file even when the caller didn't ask to keep one.
        scratch: Optional[tempfile.TemporaryDirectory] = None
        if args.trace_out:
            trace_path = args.trace_out
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-big-")
            trace_path = os.path.join(scratch.name, "trace.jsonl")
        try:
            result = run_sharded_experiment(
                config,
                args.shards,
                protocol=args.protocol,
                trace_path=trace_path,
                profile_path=args.profile,
            )
            checker = check_trace(trace_path, window=args.window, level=level)
            with open(trace_path, "rb") as handle:
                trace_events = sum(1 for _ in handle)
        finally:
            if scratch is not None:
                scratch.cleanup()
                trace_path = None
    else:
        checker = StreamingChecker(window=args.window, level=level)
        sink = TraceWriter(args.trace_out) if args.trace_out else None
        try:
            oracle = StreamingOracle(sink=sink, checker=checker)
            result = run_experiment(config, protocol=args.protocol, oracle=oracle)
        finally:
            if sink is not None:
                sink.close()
        trace_path = args.trace_out if sink is not None else None
        trace_events = sink.count if sink is not None else 0
    violations = checker.violations
    if args.json:
        print(result.to_json())
    else:
        print(format_result(result))
    print(
        f"streaming check ({args.window:g}s window, level '{level}'): "
        f"{checker.commits_checked} commits / {checker.reads_checked} reads, "
        f"{checker.versions_retired} versions retired, "
        f"{checker.state_size} in window, {len(violations)} violations"
    )
    if trace_path is not None:
        print(f"trace: {trace_events} events -> {trace_path}")
    _report_profile(args)
    for violation in violations[:20]:
        print(f"  {violation}")
    if args.save:
        # The run completed either way; a violating run is still worth
        # persisting (and replaying while debugging it).
        _save_to_repository(args, result, trace_path=trace_path)
    return 1 if violations else 0


def _report_profile(args: argparse.Namespace) -> None:
    """Name the cProfile dump(s) that ``repro run --profile`` left behind."""
    if not getattr(args, "profile", None):
        return
    if args.shards > 1:
        paths = ", ".join(f"{args.profile}.shard{i}" for i in range(args.shards))
    else:
        paths = args.profile
    print(f"profile: {paths}")


def _save_to_repository(
    args: argparse.Namespace,
    result: ExperimentResult,
    *,
    trace_path: Optional[str] = None,
) -> None:
    """Persist a just-completed ``repro run`` into the run repository."""
    from .serve.repository import RunRepository

    repository = RunRepository(args.repo)
    record = repository.save_run(
        params_from_args(args, inline_faults=True),
        result.to_dict(),
        source="cli",
        trace_path=trace_path,
    )
    run_id = record["run_id"]
    stored = "record + trace" if record["trace_digest"] else "record"
    print(
        f"saved {stored} {run_id[:12]} -> {repository.root} "
        f"(replay: 'repro replay {run_id[:12]}')"
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: several protocols on one configuration."""
    config = config_from_args(args)
    protocols = list(dict.fromkeys(args.protocol))
    results = {p: run_experiment(config, protocol=p) for p in protocols}
    rows = [
        (
            p,
            f"{r.throughput:,.0f}",
            f"{r.latency_mean_ms:.2f}",
            f"{r.latency_p99 * 1000:.2f}",
            f"{r.blocking_mean * 1000:.1f}",
        )
        for p, r in results.items()
    ]
    print(
        report.format_table(
            ["protocol", "tx/s", "avg lat (ms)", "p99 (ms)", "block (ms)"], rows
        )
    )
    if "paris" in results and "bpr" in results:
        paris, bpr = results["paris"], results["bpr"]
        if bpr.throughput > 0 and paris.latency_mean > 0:
            print(
                f"\nPaRiS vs BPR: {paris.throughput / bpr.throughput:.2f}x throughput, "
                f"{bpr.latency_mean / paris.latency_mean:.2f}x lower latency"
            )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: consistency invariants under load; exit 1 on violations.

    Each protocol is checked against the consistency level it *claims* in
    the registry: full TCC for ``paris``/``bpr``/``gst_local``/``cure``/
    ``occult``, session guarantees for ``eventual`` and ``cops`` (which
    renounce causal snapshots by design; see docs/protocol.md and
    docs/design_space.md).

    ``--trace-in TRACE`` skips the simulation entirely and re-checks a
    persisted JSONL trace through the streaming checker (``--window``
    bounds its memory; unbounded re-checks are exactly the in-memory
    checker).  A truncated, corrupt, or malformed trace exits 2, naming
    the file and line.  ``--trace-out TRACE`` persists the just-checked
    history for later re-checking.
    """
    from .protocols import get_protocol

    level = get_protocol(args.protocol).consistency
    if args.trace_in is not None:
        from .consistency.streaming import check_trace
        from .sim.trace import TraceError

        try:
            checker = check_trace(args.trace_in, window=args.window, level=level)
        except (TraceError, OSError) as exc:
            print(f"trace check failed: {exc}", file=sys.stderr)
            return 2
        violations = checker.violations
        window_text = "unbounded" if args.window is None else f"{args.window:g}s"
        print(
            f"re-checked {args.trace_in}: {checker.commits_checked} commits / "
            f"{checker.reads_checked} reads ({window_text} window, level "
            f"'{level}'): {len(violations)} violations"
        )
        for violation in violations[:20]:
            print(f"  {violation}")
        return 1 if violations else 0

    oracle = ConsistencyOracle()
    result = run_experiment(config_from_args(args), protocol=args.protocol, oracle=oracle)
    violations = ConsistencyChecker(oracle).check_level(level)
    print(
        f"checked {len(oracle.commits)} commits / {len(oracle.reads)} reads "
        f"({result.throughput:,.0f} tx/s) at level '{level}': "
        f"{len(violations)} violations"
    )
    for violation in violations[:20]:
        print(f"  {violation}")
    if args.trace_out is not None:
        from .consistency.streaming import dump_trace

        count = dump_trace(oracle, args.trace_out)
        print(f"trace: {count} events -> {args.trace_out}")
    return 1 if violations else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: run under a (generated) fault plan, then check.

    Like ``repro check``, violations are judged against the protocol's
    registered consistency level.
    """
    from .protocols import get_protocol

    level = get_protocol(args.protocol).consistency
    config = config_from_args(args)
    if args.plan is not None:
        plan = FaultPlan.load(args.plan)
    else:
        plan = random_plan(
            config.cluster,
            seed=args.chaos_seed if args.chaos_seed is not None else args.seed,
            horizon=config.warmup + config.duration,
            episodes=args.episodes,
        )
    config = config.with_(faults=plan)
    print(f"fault plan '{plan.name or 'unnamed'}' ({len(plan)} events):")
    for event in plan:
        target = event.to_dict()
        target.pop("at")
        target.pop("action")
        detail = " ".join(f"{k}={v}" for k, v in target.items())
        print(f"  t={event.at:7.3f}s  {event.action:<9} {detail}")
    if args.plan_out:
        plan.dump(args.plan_out)
        print(f"plan written to {args.plan_out}")
    oracle = ConsistencyOracle()
    result = run_experiment(config, protocol=args.protocol, oracle=oracle)
    violations = ConsistencyChecker(oracle).check_level(level)
    applied = len(plan)
    print(
        f"\n{args.protocol} survived {applied} fault events: "
        f"{result.throughput:,.0f} tx/s in the window, "
        f"{len(oracle.commits)} commits / {len(oracle.reads)} reads checked "
        f"at level '{level}', {len(violations)} violations"
    )
    for violation in violations[:20]:
        print(f"  {violation}")
    return 1 if violations else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: execute a declarative experiment grid, then aggregate.

    Completed runs are cached content-addressed under ``--results-dir`` and
    reused on re-invocation, so an interrupted sweep resumes where it
    stopped; the aggregated summary is byte-identical at any worker count.
    """
    spec = sweep.SweepSpec.load(args.spec)
    runs = sweep.expand(spec)
    print(
        f"sweep '{spec.name}': {len(runs)} runs over "
        + " x ".join(sweep.iter_axes_summary(spec))
    )
    if args.list_runs:
        for run in runs:
            print(f"  [{run.index + 1:3d}/{len(runs)}] {run.key[:12]}  {run.label()}")
        return 0

    total = len(runs)
    started = time.monotonic()

    def progress(status: str, run: sweep.RunSpec) -> None:
        """Print one run's cache/execution status as it is known."""
        print(f"  {status:<8} {run.key[:12]}  {run.label()}", flush=True)

    repository = None
    if args.save:
        from .serve.repository import RunRepository

        repository = RunRepository(args.repo)

    report_ = sweep.execute_sweep(
        spec,
        args.results_dir,
        workers=args.workers,
        force=args.force,
        progress=progress,
        repository=repository,
    )
    summary = results.aggregate(report_.records, spec=spec)
    out = (
        pathlib.Path(args.out)
        if args.out
        else sweep.sweep_dir(args.results_dir, spec) / "summary.json"
    )
    results.dump_summary(summary, out)
    elapsed = time.monotonic() - started
    print(
        f"{total} runs: {len(report_.cached)} cached, "
        f"{len(report_.executed)} executed "
        f"({args.workers} worker{'s' if args.workers != 1 else ''}, {elapsed:.1f}s)"
    )
    print(f"summary ({len(summary['groups'])} groups): {out}")
    if repository is not None:
        print(
            f"run repository: {len(repository)} runs in {repository.root} "
            "(query with 'repro runs', replay with 'repro replay')"
        )
    print()
    print(results.render_summary_table(summary))
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs``: list/query the run repository (docs/serving.md)."""
    from .serve.repository import RunRepository

    repository = RunRepository(args.repo)
    entries = repository.list(
        protocol=args.protocol,
        workload=args.workload,
        preset=args.preset,
        source=args.source,
        limit=args.limit if args.limit > 0 else None,
    )
    if not entries:
        if len(repository) == 0:
            print(
                f"no persisted runs in {repository.root} "
                "(save one with 'repro run --save' or 'repro sweep --save')"
            )
        else:
            print(
                f"no runs in {repository.root} match "
                f"(repository holds {len(repository)}; loosen the filters)"
            )
        return 0
    rows = [
        (
            entry["run_id"][:12],
            entry["protocol"],
            entry["workload"] or "-",
            entry["preset"] or "-",
            str(entry["seed"]),
            f"{entry['throughput']:,.0f}" if entry["throughput"] is not None else "-",
            "yes" if entry["has_trace"] else "-",
            entry["source"],
            entry["created_at"],
        )
        for entry in entries
    ]
    print(
        report.format_table(
            [
                "run",
                "protocol",
                "workload",
                "preset",
                "seed",
                "tx/s",
                "trace",
                "source",
                "created (UTC)",
            ],
            rows,
        )
    )
    print(
        f"\n{len(entries)} shown of {len(repository)} persisted "
        f"({repository.root}); 'repro replay RUN' re-executes one and "
        "asserts digest equality"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: re-execute a persisted run, assert digest equality.

    Exit status: 0 when every stored digest reproduced, 1 when the
    re-execution diverged (the output names both digests), 2 when the
    record could not even be loaded intact (unknown id, corrupt entry,
    missing trace file).
    """
    from .serve.replay import replay_run
    from .serve.repository import RepositoryError, RunRepository

    repository = RunRepository(args.repo)
    try:
        replay_report = replay_run(
            repository,
            args.run_id,
            trace_out=pathlib.Path(args.trace_out) if args.trace_out else None,
        )
    except RepositoryError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    for line in replay_report.lines():
        print(line)
    return 0 if replay_report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP front door (runs until interrupted)."""
    from .config import ServeConfig
    from .serve.app import serve_forever
    from .serve.service import ServeService

    service = ServeService(
        ServeConfig(
            results_dir=args.repo,
            host=args.host,
            port=args.port,
            workers=args.workers,
        )
    )
    serve_forever(service, quiet=args.quiet)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: trace-file utilities (currently: ``merge``).

    ``merge`` k-way-merges per-shard JSONL traces (each sorted by commit
    time, as written by a sharded ``repro run --big --trace-out``) into one
    commit-time-ordered trace whose bytes match what a single-shard run
    would have written.  A truncated or corrupt shard file is a named
    error (exit 2), never a silently shorter merge.
    """
    from .consistency.streaming import merge_traces
    from .sim.trace import TraceError

    if args.trace_command == "merge":
        try:
            count = merge_traces(args.inputs, args.out)
        except (TraceError, OSError) as exc:
            print(f"trace merge failed: {exc}", file=sys.stderr)
            return 2
        print(
            f"merged {len(args.inputs)} trace(s), {count} events -> {args.out} "
            "(re-check with 'repro check --trace-in')"
        )
        return 0
    raise ValueError(args.trace_command)  # pragma: no cover - argparse enforces


def cmd_profiles(args: argparse.Namespace) -> int:
    """``repro profiles``: the registered workload-profile catalogue."""
    from .workload.profiles import all_profiles

    profiles = all_profiles()
    if args.names:
        for profile in profiles:
            print(profile.name)
        return 0
    rows = [
        (
            profile.name,
            profile.mix,
            profile.key_dist + ("+rmw" if profile.rmw else ""),
            profile.arrival.kind,
            profile.description,
        )
        for profile in profiles
    ]
    print(
        report.format_table(
            ["profile", "mix", "keys", "arrival", "description"], rows
        )
    )
    print(
        f"\n{len(profiles)} profiles; use 'repro run --workload NAME' or a "
        'sweep axis "workload": [...] (docs/workloads.md)'
    )
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    """``repro protocols``: the registered protocol catalogue."""
    from .protocols import all_protocols

    # Sorted by name: registration order is an implementation detail of the
    # import sequence, and scripted consumers (CI's protocol matrix) want a
    # stable listing.
    protocols = sorted(all_protocols(), key=lambda spec: spec.name)
    if args.consistency is not None:
        protocols = [
            spec for spec in protocols if spec.consistency == args.consistency
        ]
    if args.names:
        for spec in protocols:
            print(spec.name)
        return 0
    rows = [
        (
            spec.name,
            spec.snapshot,
            spec.visibility,
            "blocking" if spec.blocking_reads else "non-blocking",
            spec.consistency,
            spec.description,
        )
        for spec in protocols
    ]
    print(
        report.format_table(
            ["protocol", "snapshot", "visibility", "reads", "claims", "description"],
            rows,
        )
    )
    print(
        f"\n{len(protocols)} protocols; use 'repro run --protocol NAME' or a "
        'sweep axis "protocol": [...] (docs/protocol.md)'
    )
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    """``repro topology``: placement and storage footprint of a deployment."""
    spec = ClusterSpec.from_machines(
        n_dcs=args.dcs, machines_per_dc=args.machines, replication_factor=args.rf
    )
    print(
        f"{spec.n_dcs} DCs, {spec.n_partitions} partitions, RF {spec.replication_factor} "
        f"-> {spec.machines_per_dc:.0f} machines/DC, {spec.total_servers} servers total"
    )
    print(
        f"storage per DC: {spec.storage_fraction_per_dc():.2f} of dataset "
        f"({spec.capacity_vs_full_replication():.2f}x capacity vs full replication)"
    )
    rows = [
        (dc, len(spec.dc_partitions(dc)), " ".join(map(str, spec.dc_partitions(dc)[:12])))
        for dc in range(spec.n_dcs)
    ]
    print(report.format_table(["DC", "partitions", "hosted (first 12)"], rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """``repro figure``: regenerate one paper artifact."""
    if args.name == "design_space":
        print(report.render_design_space(design_space_summary()))
    else:
        print(report.SECTIONS[args.name](exp.SCALES[args.scale]))
    return 0


def design_space_summary(
    spec_path: pathlib.Path = DESIGN_SPACE_SPEC,
    results_dir: str = "sweep_results",
    workers: int = 1,
) -> dict:
    """Execute (or resume) the committed design-space sweep and aggregate it.

    The sweep engine's content-addressed cache makes re-rendering the figure
    free once the runs exist; ``spec_path`` resolves relative to the current
    directory, so run this from the repository root (as CI does).
    """
    if not spec_path.exists():
        raise SystemExit(
            f"design-space spec not found: {spec_path} "
            "(run from the repository root)"
        )
    spec = sweep.SweepSpec.load(spec_path)
    report_ = sweep.execute_sweep(spec, results_dir, workers=workers)
    return results.aggregate(report_.records, spec=spec)


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "check": cmd_check,
    "chaos": cmd_chaos,
    "sweep": cmd_sweep,
    "runs": cmd_runs,
    "replay": cmd_replay,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "profiles": cmd_profiles,
    "protocols": cmd_protocols,
    "topology": cmd_topology,
    "figure": cmd_figure,
}

#: Width the committed ``repro --help`` text is rendered at (README's
#: command reference); pinned so the text is identical on any terminal.
HELP_WIDTH = 80


def render_help() -> str:
    """``repro --help`` rendered at :data:`HELP_WIDTH` columns.

    The README embeds this text between drift markers and a tier-1 test
    regenerates and diffs it, so the committed command reference can never
    silently fall behind the parser.
    """
    import os

    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(HELP_WIDTH)
    try:
        return build_parser().format_help()
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
