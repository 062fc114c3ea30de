#!/usr/bin/env python3
"""Run every paper experiment and regenerate EXPERIMENTS.md.

Usage:
    python benchmarks/run_all.py [--scale small|medium|paper] [--out PATH]
                                 [--workers N]

Every section comes from the paper-artifact catalogue
:data:`repro.bench.report.SECTIONS` (the same builders ``repro figure NAME``
prints): each runs its experiment, renders the table, and states the
paper's claim next to the measured shape.  Sections are independent, so
``--workers N`` fans them out across processes via the sweep engine's
:func:`repro.bench.sweep.parallel_map`; the assembled document is identical
at any worker count.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench import experiments as exp  # noqa: E402
from repro.bench import report, runner, sweep  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _build_section(task: Tuple[str, exp.BenchScale]) -> str:
    """Pool entry point: build the named catalogue section at the given scale."""
    name, scale = task
    return report.SECTIONS[name](scale)


def main() -> int:
    """Drive every section (possibly in parallel) and write EXPERIMENTS.md."""
    parser = runner.script_parser(
        __doc__,
        scales=sorted(exp.SCALES),
        out_default=str(DEFAULT_OUT),
        out_help="where to write the assembled document",
    )
    runner.add_workers_arg(parser)
    args = parser.parse_args()
    scale = exp.SCALES[args.scale]
    started = time.time()
    log = runner.elapsed_logger()

    log(
        f"assembling {len(report.SECTIONS)} sections at scale '{args.scale}' "
        f"with {args.workers} worker(s)"
    )
    tasks = [(name, scale) for name in report.SECTIONS]
    sections = sweep.parallel_map(
        _build_section,
        tasks,
        workers=args.workers,
        progress=lambda i, task: log(f"done: {task[0]}"),
    )

    header = (
        "# EXPERIMENTS — paper vs measured\n\n"
        f"Generated by `python benchmarks/run_all.py --scale {args.scale}` "
        f"(deployment: {scale.n_dcs} DCs x {scale.machines_per_dc} machines/DC, "
        f"RF {scale.replication_factor}; measurement window {scale.duration}s "
        f"after {scale.warmup}s warmup; simulated WAN of the paper's AWS "
        f"regions).\n\n"
        "Absolute numbers come from the simulated substrate and are not "
        "comparable to the paper's C++/EC2 testbed; every section therefore "
        "states the paper's claim next to the measured **shape** — direction, "
        "ratios, and crossovers.  See docs/architecture.md for the "
        "substitution rationale and the per-experiment module index.\n\n"
        "Total generation time: (see last line).\n"
    )
    body = header + "\n" + "\n".join(sections)
    body += f"\n---\nGenerated in {time.time() - started:.0f} s wall time.\n"
    runner.write_text(args.out, body)
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
