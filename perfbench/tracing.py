"""Per-layer span tracing, applied to the program from outside.

:class:`Tracer` wraps each layer's entry points at run time and records
one span per call -- name, start, end, parent -- in flat in-memory
arrays.  From the spans it derives each layer's self time (a span's
duration minus the part its child spans cover) and call counts.

Entry points are patched where callers look them up: a method on its
class, a function in its defining module *and* in every loaded
``repro`` module that imported it by name (``from repro.packets.parse
import parse_packet`` binds a second reference the defining module
cannot redirect).  Leaving the tracer's ``with`` block restores every
original, and
:func:`assert_unwrapped` lets an untraced run prove it carries no
wrapper.

Forked shard workers inherit the wrappers, but their spans stay in the
worker processes: a sharded run reports coordinator-side layers only.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable

#: Layer -> entry points (``module:qualname``).  Layers are the
#: program's packages; ``core`` is split by module because its modules
#: are separate layers of the monitor (see README.md).
LAYERS: dict[str, tuple[str, ...]] = {
    "sat": (
        "repro.sat.incremental:IncrementalSolver.solve",
        "repro.sat.solver:SatSolver.solve",
    ),
    "core.probegen": (
        "repro.core.probegen:ProbeGenContext.probe_for",
        "repro.core.probegen:ProbeGenContext.add_rule",
        "repro.core.probegen:ProbeGenContext.remove_rule",
        "repro.core.probegen:ProbeGenContext.apply_flowmod",
        "repro.core.probegen:ProbeGenerator.generate",
    ),
    "openflow": (
        "repro.openflow.table:FlowTable.overlapping",
        "repro.openflow.table:FlowTable.lookup",
        "repro.openflow.table:FlowTable.process",
        "repro.openflow.table:FlowTable.install",
        "repro.openflow.table:FlowTable.remove",
        "repro.openflow.tuplespace:TupleSpaceIndex.query",
    ),
    "packets": (
        "repro.packets.craft:craft_packet",
        "repro.packets.parse:parse_packet",
    ),
    "sim": ("repro.sim.kernel:Simulator.run",),
    "network": (
        "repro.network.channel:ControlChannel.send_down",
        "repro.network.channel:ControlChannel.send_up",
        "repro.network.link:Link.send_from_a",
        "repro.network.link:Link.send_from_b",
    ),
    "switches": (
        "repro.switches.switch:SimulatedSwitch.receive_message",
        "repro.switches.switch:SimulatedSwitch.inject",
        "repro.switches.switch:SimulatedSwitch.deliver_to_controller_port",
        "repro.switches.switch:SimulatedSwitch.install_directly",
    ),
    "controller": (
        "repro.controller.controller:SdnController.handle_message",
        "repro.controller.controller:SdnController.send_flowmod",
    ),
    "core.monitor": (
        "repro.core.monitor:Monitor.from_controller",
        "repro.core.monitor:Monitor.from_switch",
        "repro.core.monitor:Monitor.launch_probe",
        "repro.core.monitor:Monitor.handle_caught_probe",
        "repro.core.monitor:Monitor.preinstall",
        "repro.core.monitor:Monitor.start_steady_state",
        "repro.core.monitor:Monitor._steady_tick",
        "repro.core.monitor:Monitor._probe_timeout",
        "repro.core.multiplexer:Multiplexer.inject",
        "repro.core.multiplexer:Multiplexer.route_packet_in",
    ),
    "core.schedule": (
        "repro.core.schedule:ProbeScheduler.next_rule",
        "repro.core.schedule:ProbeScheduler.next_rules",
        "repro.core.schedule:ProbeScheduler.rebuild",
        "repro.core.schedule:ProbeScheduler.add",
        "repro.core.schedule:ProbeScheduler.discard",
        "repro.core.schedule:ProbeScheduler.observe_flowmod",
    ),
    "core.dynamic": (
        "repro.core.dynamic:DynamicMonitor.from_controller",
        "repro.core.dynamic:DynamicMonitor._drain_queue",
    ),
    "core.shared": (
        "repro.core.shared:SharedContextRegistry.acquire",
        "repro.core.shared:SharedContextRegistry.rededupe",
        "repro.core.shared:SharedProbeGenContext.add_rule",
        "repro.core.shared:SharedProbeGenContext.remove_rule",
        "repro.core.shared:SharedProbeGenContext.apply_flowmod",
        "repro.core.shared:SharedProbeGenContext.probe_for",
    ),
    "core.catching": (
        "repro.core.catching:plan_catching_rules",
        "repro.core.catching:CatchingPlan.catching_rules",
        "repro.coloring.exact:exact_coloring",
        "repro.coloring.greedy:greedy_coloring",
    ),
    "fleet": (
        "repro.fleet.runner:run_scenario",
        "repro.fleet.deployment:FleetDeployment.__init__",
        "repro.fleet.deployment:FleetDeployment.start_monitoring",
        "repro.fleet.workloads:SteadyRules.setup",
        "repro.fleet.workloads:RuleChurn.setup",
        "repro.fleet.failures:schedule_failures",
        "repro.fleet.metrics:collect_fleet_metrics",
        "repro.fleet.metrics:merge_fleet_metrics",
    ),
    "fleet.coordinator": (
        "repro.fleet.coordinator:run_sharded_scenario",
        "repro.fleet.coordinator:_ShardDriver.await_ready",
        "repro.fleet.coordinator:_ShardDriver.broadcast",
    ),
}

#: Span counts reported as work counters: metric -> entry points.
CALL_COUNTS = {
    "core.probegen.requests": (
        "repro.core.probegen:ProbeGenContext.probe_for",
        "repro.core.probegen:ProbeGenerator.generate",
    ),
    "openflow.overlap_queries": (
        "repro.openflow.table:FlowTable.overlapping",
        "repro.openflow.tuplespace:TupleSpaceIndex.query",
    ),
    "openflow.lookups": (
        "repro.openflow.table:FlowTable.lookup",
        "repro.openflow.table:FlowTable.process",
    ),
    "packets.crafted": ("repro.packets.craft:craft_packet",),
    "packets.parsed": ("repro.packets.parse:parse_packet",),
    "network.messages": (
        "repro.network.channel:ControlChannel.send_down",
        "repro.network.channel:ControlChannel.send_up",
    ),
    "core.schedule.selections": (
        "repro.core.schedule:ProbeScheduler.next_rule",
        "repro.core.schedule:ProbeScheduler.next_rules",
    ),
}

_MARK = "__perfbench_wrapped__"


def _resolve(spec: str) -> tuple[object, str, Callable]:
    """``module:qualname`` -> (owner object, attribute, original)."""
    module_name, qualname = spec.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _bindings(spec: str) -> list[tuple[object, str, Callable]]:
    """Every place callers look the entry point up."""
    owner, attr, original = _resolve(spec)
    found = [(owner, attr, original)]
    if isinstance(owner, type(sys)):
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ):
                found.append((module, attr, original))
    return found


def assert_unwrapped() -> None:
    """Raise unless every entry point is the program's own function."""
    modules = [m for n, m in sys.modules.items() if n.startswith("repro")]
    for specs in LAYERS.values():
        for spec in specs:
            owner, attr, _fn = _resolve(spec)
            holders = modules if isinstance(owner, type(sys)) else [owner]
            for holder in holders:
                if getattr(getattr(holder, attr, None), _MARK, False):
                    raise AssertionError(
                        f"entry point {spec} is still wrapped in {holder!r}"
                    )


class Tracer:
    """Span recorder over every entry point in :data:`LAYERS`.

    Use as a context manager: wrappers go in on entry and come out on
    exit, whatever happens in between.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []
        #: sat counters summed over layer-root solves (nested solves
        #: report work their caller already returns).
        self.sat = Counter()
        self.sim_events = 0
        self.wall = 0.0
        self._opened = 0.0

    # ----- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        # Load every module that may bind an entry point by name first.
        for module in (
            "repro.fleet.runner",
            "repro.fleet.coordinator",
            "repro.fleet.shardworker",
            "repro.core.multiplexer",
        ):
            importlib.import_module(module)
        try:
            for layer, specs in LAYERS.items():
                for spec in specs:
                    name_id = len(self.names)
                    self.names.append(spec)
                    self.layer_of.append(layer)
                    for owner, attr, original in _bindings(spec):
                        wrapper = self._wrap(original, name_id, layer)
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        self._opened = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall = time.perf_counter() - self._opened
        self._restore()

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name_id: int, layer: str) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        layer_of = self.layer_of
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(names)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            root = parent < 0 or layer_of[names[parent]] != layer
            if layer == "sim" and root:
                before = args[0].events_dispatched
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                starts[index] = start
                stack.pop()
            if root:
                if layer == "sat":
                    tracer.sat["solves"] += 1
                    tracer.sat["propagations"] += result.propagations
                    tracer.sat["conflicts"] += result.conflicts
                elif layer == "sim":
                    tracer.sim_events += args[0].events_dispatched - before
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ----- derived numbers ------------------------------------------------

    def layer_stats(self) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds per layer, calls per entry point, root seconds).

        Self time of a span is its duration minus its children's
        durations; summed over a layer it is the time spent in that
        layer's own code.  The root seconds are the summed durations of
        spans without a parent: the traced wall minus them is the time
        no layer accounts for.
        """
        n = len(self.span_name)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child = array("d", bytes(8 * n))
        roots = 0.0
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
            else:
                roots += ends[i] - starts[i]
        self_s = {layer: 0.0 for layer in LAYERS}
        per_name = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i in range(n):
            name = names[i]
            per_name[name] += ends[i] - starts[i] - child[i]
            counts[name] += 1
        calls: dict[str, int] = {}
        for name, spec in enumerate(self.names):
            self_s[self.layer_of[name]] += per_name[name]
            calls[spec] = counts[name]
        return self_s, calls, roots

    @property
    def spans(self) -> int:
        return len(self.span_name)
