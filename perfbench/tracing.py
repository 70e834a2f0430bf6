"""The traced run's instrumentation, wrapped around the program from outside.

:class:`Tracer` replaces public functions and methods at the layer
boundaries with wrappers that time each call.  Self time is a call's
duration minus the time of the traced calls nested inside it, so the self
times of all boundaries partition the traced wall time.  Boundaries crossed
a few hundred times per run are also kept as spans ``(id, name, start, end,
parent id, round)`` in memory; the hot ones (per message, per event) are
aggregated into call counts and times only, and some are counted without
timing.  No medium tap is attached: a tap would move the batched bus onto
its per-receiver path.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import contextlib
import gc
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def event_layer(name: str) -> str:
    """The layer that owns a scheduled event, from the event's name."""
    if name.startswith("deliver"):
        return "network.delivery"
    if name == "coverage-recheck":
        return "world.recheck"
    if name.endswith(":fail"):
        return "faults.failure"
    return "core.event"


class Tracer:
    """Spans, per-boundary aggregates and counters for one traced run."""

    def __init__(self) -> None:
        #: boundary name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: counted-only boundary name -> calls
        self.counts: Dict[str, int] = {}
        self.spans: List[Optional[tuple]] = []
        #: benchmark round the spans belong to
        self.round = 0
        # Frames are [child_s, span id of the nearest recorded ancestor].
        self._stack: List[list] = [[0.0, None]]
        self._undo: List[tuple] = []
        self._gc_start: List[float] = []

    # ---------------------------------------------------------- wrappers
    def timed(self, name: str, fn: Callable, *, record: bool = False) -> Callable:
        """``fn`` wrapped so each call adds to ``name``'s count and times."""
        stack, spans, tracer = self._stack, self.spans, self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        if record:

            def wrapper(*args, **kwargs):
                parent = stack[-1]
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, span_id]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    elapsed = end - start
                    parent[0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]
                    spans[span_id] = (span_id, name, start, end, parent[1], tracer.round)

        else:

            def wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    parent[0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call adds one to counter ``name``."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- patching
    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by ``make(it)``."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def patch_all(self, base: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Patch ``attr`` on ``base`` and on every subclass that defines its own."""
        for cls in _subclasses(base):
            if attr in vars(cls):
                self.patch(cls, attr, make)

    @contextlib.contextmanager
    def paused(self):
        """Keep the benchmark's own work between rounds out of ``python.gc``."""
        gc.callbacks.remove(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------- boundaries
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        from repro.core import estimation, pas, sas
        from repro.core.controller import NodeController
        from repro.core.neighbors import NeighborTable
        from repro.core.scheduler_base import SleepScheduler
        from repro.exec.specs import RunSpec
        from repro.experiments import figures
        from repro.network.channel import ChannelModel
        from repro.network.medium import BroadcastMedium
        from repro.network.messages import Request, Response
        from repro.network.topology import Topology
        from repro.node.sensor import SensorNode
        from repro.sim.engine import Simulator
        from repro.sim.events import EventQueue
        from repro.stimulus.base import StimulusModel
        from repro.world import builder
        from repro.world.simulation import MonitoringSimulation

        def span(name):
            return lambda fn: self.timed(name, fn, record=True)

        def aggregate(name):
            return lambda fn: self.timed(name, fn)

        # experiments, exec, world set-up, geometry, stimulus, metrics
        self.patch(figures, "run_sweep", span("experiments.sweep"))
        self.patch(RunSpec, "execute", span("exec.execute"))
        self.patch(builder, "build_simulation", span("world.build"))
        self.patch(builder, "make_deployment", span("geometry.deploy"))
        self.patch(Topology, "__init__", span("network.topology"))
        self.patch_all(StimulusModel, "arrival_times", span("stimulus.arrival_precompute"))
        self.patch_all(SleepScheduler, "create_controller", aggregate("core.controllers"))
        self.patch(MonitoringSimulation, "run", span("world.run"))
        self.patch(MonitoringSimulation, "finalize", span("metrics.finalize"))
        self.patch(MonitoringSimulation, "sense", lambda fn: self.counted("stimulus.sense_calls", fn))

        # sim: the loop, queue pops, and every scheduled event by owning layer
        self.patch(Simulator, "run", span("sim.run"))
        try:
            from repro.engine.calendar import CalendarQueue
        except ImportError:  # the calendar queue may be deleted later
            CalendarQueue = None
        for queue in (EventQueue, CalendarQueue):
            if queue is not None:
                self.patch(queue, "pop", aggregate("sim.pop"))
        self.patch(Simulator, "schedule_at", self._wrap_schedule_at)

        # network: fan-out and the channel's draws
        self.patch_all(BroadcastMedium, "broadcast", lambda fn: self._wrap_broadcast(fn, Request, Response))
        for method in ("delivered", "extra_latency", "transmit_many"):
            self.patch_all(ChannelModel, method, aggregate("network.channel"))

        # core: message handlers, estimators, neighbour knowledge
        for method in ("on_message", "handle_batch", "handle_batch_columnar"):
            self.patch_all(NodeController, method, aggregate("core.handler"))
        for module, names in (
            (pas, ("expected_arrival_time", "expected_velocity", "actual_velocity", "outward_velocity")),
            (sas, ("sas_arrival_time", "scalar_speed_estimate")),
        ):
            for name in names:
                if name in vars(module):
                    self.patch(module, name, aggregate("core.estimator"))
        for name, member in vars(estimation.EstimationColumns).items():
            if name.endswith("_many") and callable(member):
                self.patch(estimation.EstimationColumns, name, aggregate("core.estimator"))
        for method in ("update", "store_newest"):
            if method in vars(NeighborTable):
                self.patch(NeighborTable, method, lambda fn: self.counted("core.neighbor_updates", fn))

        # node: power-state transitions
        self.patch(SensorNode, "set_power_state", aggregate("node.power"))

        # Python runtime: garbage-collector pauses
        gc.callbacks.append(self._on_gc)

    def _wrap_schedule_at(self, schedule_at: Callable) -> Callable:
        """Count scheduled events and time each under its owning layer."""
        counts = self.counts
        counts.setdefault("sim.scheduled", 0)

        def wrapped(sim, time, callback, **kwargs):
            counts["sim.scheduled"] += 1
            layer = event_layer(kwargs.get("name", ""))
            return schedule_at(sim, time, self.timed(layer, callback), **kwargs)

        return wrapped

    def _wrap_broadcast(self, broadcast: Callable, request_cls, response_cls) -> Callable:
        """Time fan-out and count transmitting calls by message kind."""
        timed = self.timed("network.broadcast", broadcast)
        counts = self.counts
        for key in ("network.transmitting_broadcasts", "core.requests_sent", "core.responses_sent"):
            counts.setdefault(key, 0)

        def wrapped(medium, sender_id, message):
            stats = medium.nodes[sender_id].radio.stats
            before = stats.tx_messages
            result = timed(medium, sender_id, message)
            if stats.tx_messages != before:
                counts["network.transmitting_broadcasts"] += 1
                if isinstance(message, request_cls):
                    counts["core.requests_sent"] += 1
                elif isinstance(message, response_cls):
                    counts["core.responses_sent"] += 1
            return result

        return wrapped

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._stack.append([0.0, self._stack[-1][1]])
            self._gc_start.append(perf_counter())
            return
        if not self._gc_start:  # a collection already running at install
            return
        elapsed = perf_counter() - self._gc_start.pop()
        self._stack.pop()
        self._stack[-1][0] += elapsed
        stat = self.stats.setdefault("python.gc", [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed

    # ------------------------------------------------------------ output
    def self_time(self) -> float:
        """Self seconds summed over every boundary: the traced share of wall."""
        return sum(stat[2] for stat in self.stats.values())

    def dump(self) -> dict:
        return {
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "round"), span))
                for span in self.spans
                if span is not None
            ],
            "boundaries": {
                name: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
