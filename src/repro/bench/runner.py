"""Shared plumbing for benchmark and sweep entry points.

Every standalone script under ``benchmarks/`` used to carry its own copy of
the same boilerplate: an ``argparse`` parser with ``--scale``/``--out``, a
results directory it mkdir'd itself, ad-hoc file writing, and an elapsed-time
logger.  This module centralises those pieces so the scripts (and the sweep
engine, :mod:`repro.bench.sweep`) share one implementation:

* :func:`script_parser` — the common CLI surface of a bench script;
* :func:`add_workers_arg` — the ``--workers`` flag of parallel drivers;
* :func:`write_text` / :func:`write_json` — atomic file writes (a killed
  run never leaves a truncated artifact behind);
* :func:`elapsed_logger` — ``[  12.3s] message`` progress lines.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from typing import Any, Callable, Optional, Sequence, Union

PathLike = Union[str, os.PathLike]


def script_parser(
    description: Optional[str],
    *,
    scales: Optional[Sequence[str]] = None,
    default_scale: str = "small",
    out_default: Optional[str] = None,
    out_help: str = "output path for the generated artifact",
) -> argparse.ArgumentParser:
    """The argument parser shared by the standalone benchmark scripts.

    ``scales`` adds a ``--scale`` choice (omitted when ``None``);
    ``out_default`` adds ``--out`` (omitted when ``None`` *and* ``out_help``
    is left at its default).
    """
    parser = argparse.ArgumentParser(
        description=description, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    if scales is not None:
        parser.add_argument(
            "--scale",
            choices=sorted(scales),
            default=default_scale,
            help=f"deployment scale (default: {default_scale})",
        )
    if out_default is not None:
        parser.add_argument("--out", default=out_default, help=out_help)
    return parser


def add_workers_arg(parser: argparse.ArgumentParser, default: int = 1) -> None:
    """Add the ``--workers`` flag used by process-parallel drivers."""
    parser.add_argument(
        "--workers",
        type=int,
        default=default,
        help=f"worker processes (default: {default}; results are identical "
        "at any worker count)",
    )


def write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically write ``text`` to ``path``, creating parent directories.

    The write goes to a same-directory temporary file first and is moved into
    place with :func:`os.replace`, so readers (and resumed runs) never observe
    a partially written file.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    # Pin the encoding: readers (cache loads, spec loads) always use UTF-8,
    # so writes must too or a non-UTF-8 locale would poison the cache.
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target


def write_json(path: PathLike, data: Any, *, indent: int = 2) -> pathlib.Path:
    """Atomically write ``data`` as deterministic (sorted-key) JSON."""
    return write_text(path, json.dumps(data, indent=indent, sort_keys=True) + "\n")


def elapsed_logger(clock: Callable[[], float] = time.monotonic) -> Callable[[str], None]:
    """A ``log(message)`` callable prefixing messages with elapsed seconds."""
    started = clock()

    def log(message: str) -> None:
        """Print ``message`` with a ``[  12.3s]`` elapsed-time prefix."""
        print(f"[{clock() - started:7.1f}s] {message}", flush=True)

    return log
