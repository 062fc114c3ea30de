"""Per-layer tracing from outside the program: spans around layer entry points.

:class:`Instrumentation` replaces each layer's entry points — component
dispatch-table handlers and timer ticks, ``Network.send``, the store, the
client, the generator, the streaming oracle and checker, the trace writer,
the trace decoder, and the harness steps — with wrappers that record one
span per call, and puts every original object back on :meth:`uninstall`.
Nothing inside ``src/`` changes, so an untraced run executes exactly the
program's own code.

Spans stay in memory as parallel arrays (site, parent, start, end) and are
reduced when the repetition ends.  A span's self time is its duration minus
the durations of its child spans; the code is single-threaded, so children
nest inside their parent and never overlap each other.  ``kernel`` wraps
``Simulator.run``: its self time is the event loop's time that no wrapped
layer claims.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Marks an attribute the owner did not define itself (it was inherited).
_MISSING = object()


def span_self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Self time of every span: its duration minus its children's durations.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root;
    a parent always precedes its children.
    """
    self_times = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            self_times[parent] -= ends[index] - starts[index]
    return self_times


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class Site:
    """One wrapped entry point: ``owner.name`` belongs to ``layer``.

    ``kind`` is ``"call"`` (one span per call) or ``"iter"`` (the callable
    returns an iterator; one span per item drawn from it).
    """

    layer: str
    owner: Any
    name: str
    kind: str = "call"

    @property
    def label(self) -> str:
        """``Owner.name`` for reports."""
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.name}"


def _handlers(cls: type) -> Tuple[str, ...]:
    """The ``handle_<Message>`` dispatch-table handlers a component defines."""
    return tuple(sorted(name for name in dir(cls) if name.startswith("handle_")))


def entry_points(protocol: str) -> List[Site]:
    """Every entry point the traced run wraps, for ``protocol``'s classes."""
    from repro.bench import harness, results
    from repro.consistency import events, streaming
    from repro.protocols import get_protocol
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.sim import trace
    from repro.storage.mvstore import MultiVersionStore
    from repro.workload.generator import WorkloadGenerator

    spec = get_protocol(protocol)
    kit = spec.server_cls.components
    table: List[Tuple[str, Any, Iterable[str]]] = [
        ("harness.build", harness, ("build_cluster",)),
        ("harness.deploy", harness, ("deploy_sessions",)),
        ("harness.summary", harness, ("summarize",)),
        ("harness.summary", results, ("result_digest",)),
        ("kernel", Simulator, ("run",)),
        ("network", Network, ("send",)),
        ("coordinator", kit.coordinator, _handlers(kit.coordinator) + ("expire_contexts",)),
        ("reads", kit.reads, _handlers(kit.reads)),
        ("replication", kit.replication, _handlers(kit.replication) + ("tick",)),
        ("store", MultiVersionStore, ("apply", "read", "read_visible", "collect")),
        ("client", spec.client_cls, (
            "start_tx", "read", "read_only", "write", "commit", "finish",
            "_on_started", "_on_read", "_on_one_shot", "_on_committed",
        )),
        ("workload", WorkloadGenerator, ("next_transaction",)),
        ("oracle", streaming.StreamingOracle, ("record_read", "record_commit")),
        ("checker", streaming.StreamingChecker, ("feed",)),
        ("trace", trace.TraceWriter, ("write", "flush", "close")),
        ("events", events, ("decode_event",)),
    ]
    if kit.stabilization is not None:
        table.append((
            "stabilization", kit.stabilization,
            _handlers(kit.stabilization) + ("tick", "ust_tick"),
        ))
    sites = [Site(layer, owner, name) for layer, owner, names in table for name in names]
    sites.append(Site("events", trace, "read_jsonl", kind="iter"))
    return sites


#: Layers in report order; ``harness.*`` and ``kernel`` first, then the
#: layers the event loop calls into, then the checked tier's layers.
LAYERS = (
    "harness.build", "harness.deploy", "kernel", "network", "coordinator", "reads",
    "replication", "stabilization", "store", "client", "workload", "oracle",
    "checker", "trace", "events", "harness.summary",
)


class Instrumentation:
    """Installs span wrappers on a protocol's entry points and removes them.

    Install before the cluster is built: components capture bound methods
    (dispatch tables, timer callbacks) at construction, so wrappers on the
    classes are what those captures see.
    """

    def __init__(self, protocol: str) -> None:
        self.sites = entry_points(protocol)
        self.installed: List[Tuple[Site, Any]] = []
        #: Sites whose attribute does not exist (reported, not wrapped).
        self.skipped: List[str] = []
        self.site_of_span = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Largest in-window version population seen after any checker feed.
        self.window_versions_max = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _wrap_call(self, site_id: int, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        sites, parents, starts, ends = self.site_of_span, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(sites)
            sites.append(site_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args[0])
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def _wrap_iter(self, site_id: int, fn: Callable) -> Callable:
        step = self._wrap_call(site_id, next)

        @functools.wraps(fn)
        def iterate(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return iterate

    def _observe_checker(self, checker: Any) -> None:
        size = checker.state_size
        if size > self.window_versions_max:
            self.window_versions_max = size

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; ones that do not exist go to ``skipped``."""
        if self.installed:
            raise RuntimeError("instrumentation is already installed")
        for site_id, site in enumerate(self.sites):
            current = getattr(site.owner, site.name, _MISSING)
            is_class = inspect.isclass(site.owner)
            if current is _MISSING or (is_class and not inspect.isfunction(current)):
                self.skipped.append(site.label)
                continue
            if site.kind == "iter":
                wrapper = self._wrap_iter(site_id, current)
            else:
                observe = self._observe_checker if site.layer == "checker" else None
                wrapper = self._wrap_call(site_id, current, observe)
            original = vars(site.owner).get(site.name, _MISSING)
            self.installed.append((site, original))
            setattr(site.owner, site.name, wrapper)

    def uninstall(self) -> None:
        """Put every original object back (inherited ones by deleting ours)."""
        for site, original in reversed(self.installed):
            if original is _MISSING:
                delattr(site.owner, site.name)
            else:
                setattr(site.owner, site.name, original)

    def unrestored(self) -> List[str]:
        """Entry points whose current object is not the original (``is``)."""
        return [
            site.label
            for site, original in self.installed
            if vars(site.owner).get(site.name, _MISSING) is not original
        ]

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def layer_report(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count and self seconds."""
        report = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        self_times = span_self_times(self.parents, self.starts, self.ends)
        layers = [site.layer for site in self.sites]
        for index, site_id in enumerate(self.site_of_span):
            entry = report[layers[site_id]]
            entry["calls"] += 1
            entry["self_s"] += self_times[index]
        return report

    def site_calls(self) -> Dict[str, int]:
        """Span count per wrapped entry point (``Owner.name``)."""
        counts = [0] * len(self.sites)
        for site_id in self.site_of_span:
            counts[site_id] += 1
        return {site.label: counts[i] for i, site in enumerate(self.sites) if counts[i]}

    def durations(self, layer: str) -> List[float]:
        """Inclusive durations of every span of ``layer``."""
        wanted = {i for i, site in enumerate(self.sites) if site.layer == layer}
        return [
            self.ends[i] - self.starts[i]
            for i, site_id in enumerate(self.site_of_span)
            if site_id in wanted
        ]

    def summary(self) -> Dict[str, Any]:
        """Everything the repetition record carries about its spans."""
        feeds_us = [seconds * 1e6 for seconds in self.durations("checker")]
        return {
            "layers": self.layer_report(),
            "site_calls": self.site_calls(),
            "skipped": list(self.skipped),
            "spans": len(self.site_of_span),
            "checker_feed_us": {
                "p50": statistics.median(feeds_us) if feeds_us else 0.0,
                "p99": percentile(feeds_us, 0.99),
                "n": len(feeds_us),
            },
            "window_versions_max": self.window_versions_max,
        }
