"""The four benchmark workloads, driven through the program's public APIs.

Each workload is a function ``(seed, seconds, smoke) -> Outcome``.  It
builds its inputs from the seed alone, times only the program's own
calls, and returns raw results; :func:`check` runs the correctness
checks afterwards, so a traced run never attributes checking work to a
program layer.

Work is sized from ``seconds`` by fixed per-unit constants measured on
a 2-core x86 container, never by a wall-clock loop: the same seed and
``seconds`` always do the same work, which is what lets every counter
and sim-time metric repeat exactly across runs.  README.md says why
each workload exists and which layers it loads.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.controller import ConfirmMode, SdnController
from repro.core.monitor import MonitorConfig
from repro.core.multiplexer import MonocleSystem
from repro.core.probegen import (
    ProbeGenContext,
    ProbeGenerator,
    UnmonitorableReason,
    verify_probe,
)
from repro.datasets import campus_table, stanford_table
from repro.fleet.failures import RuleCorruption, RuleDrop
from repro.fleet.runner import ScenarioSpec, run_scenario
from repro.fleet.workloads import RuleChurn
from repro.network import Network
from repro.openflow.actions import output
from repro.openflow.match import Match
from repro.openflow.rule import Rule
from repro.openflow.table import FlowTable, pack_header
from repro.sim.kernel import Simulator
from repro.topology.generators import star

from hostclock import CLOCK
from hostclock import now as perf


@dataclass
class Outcome:
    """What one workload run produced, before and after checking."""

    #: End-to-end metric values by name (see BENCHMARK.json).
    metrics: dict[str, float]
    #: Operations attempted / failed (README.md defines them per
    #: workload).
    attempted: int = 0
    failed: int = 0
    #: Deterministic work counters and digests: identical for every
    #: run of one seed.
    counters: dict[str, object] = field(default_factory=dict)
    #: Input sizes and sample counts, for the run manifest.
    sizes: dict[str, object] = field(default_factory=dict)
    #: Things that are neither metrics nor failures but must be seen:
    #: harness errors, restarts, shard status.
    notes: dict[str, object] = field(default_factory=dict)
    #: The program's own counters behind the per-layer metrics.
    layer_counters: dict[str, int] = field(default_factory=dict)
    #: Correctness violations found by :func:`check`.
    problems: list[str] = field(default_factory=list)
    #: Raw material for :func:`check`; dropped before reporting.
    raw: dict[str, object] = field(default_factory=dict)


def digest(items) -> str:
    """A short stable digest of ``repr`` lines (never of cookies/xids)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def units(seconds: float, per_second: float, smoke: bool) -> int:
    """Work units for a run of ``seconds`` (1 in smoke mode)."""
    if smoke:
        return 1
    return max(1, round(seconds * per_second))


# ---------------------------------------------------------------------------
# A monitored star hub (hub-steady, and the live phase of acl-probegen)
# ---------------------------------------------------------------------------

PROBE_RATE = 250.0
PROBE_TIMEOUT = 0.150


class HubRig:
    """One monitored ``star(4)`` hub under dynamic Monocle.

    Production rules are preinstalled; building the rig runs the first
    full probe cycle (every probe a cold solve).  Faults are silent
    data-plane drops; repairs go back through the controller, and
    Monocle's acknowledgement confirms each one (section 4).
    """

    def __init__(
        self,
        seed: int,
        make_rules: Callable[[Callable[[int], int]], list[Rule]],
        window: int,
    ) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim, star(4), seed=seed)
        controller: list[SdnController] = []
        self.system = MonocleSystem(
            self.net,
            config=MonitorConfig(
                probe_rate=PROBE_RATE,
                probe_timeout=PROBE_TIMEOUT,
                probe_window=window,
                update_deadline=1.0,
            ),
            dynamic=True,
            probe_policy="round_robin",
            controller_handler=lambda n, m: controller[0].handle_message(
                n, m
            ),
        )
        self.controller = SdnController(
            self.sim, send=self.system.send_to_switch
        )
        controller.append(self.controller)
        self.switch = self.net.switch("hub")
        self.monitor = self.system.monitor("hub")
        rules = make_rules(self.port)
        self.production = {rule.key() for rule in rules}
        for rule in rules:
            self.system.preinstall_production_rule("hub", rule)
        self.cycle = len(rules) / (window * PROBE_RATE)
        self.monitor.start_steady_state()
        self.sim.run_for(self.cycle + 2 * PROBE_TIMEOUT)
        self.victim_keys: set = set()
        self.detections: list[float] = []
        self.missed = 0
        self.confirmations: list[float] = []
        self.unconfirmed = 0

    def port(self, leaf: int) -> int:
        """The hub's port toward leaf ``leaf % 4``."""
        return self.net.port_toward["hub"][f"leaf{leaf % 4}"]

    def monitorable(self) -> list[Rule]:
        """Rules whose first-cycle probe exists, in priority order."""
        return sorted(
            (
                result.rule
                for _prio, _match, result in (
                    self.monitor.probe_context.export_cache()
                )
                if result.ok and result.rule.key() in self.production
            ),
            key=lambda r: (-r.priority, repr(r.match)),
        )

    def solve_times(self) -> dict[tuple, float]:
        """Wall seconds of every solved probe still cached, by rule."""
        return {
            (prio, match): result.generation_time
            for prio, match, result in (
                self.monitor.probe_context.export_cache()
            )
            if result.generation_time > 0
        }

    def fault_round(self, victims: list[Rule]) -> None:
        """Drop ``victims`` silently, await their alarms, repair them."""
        start = self.sim.now
        seen = len(self.monitor.alarms)
        pending = {v.key() for v in victims}
        self.victim_keys |= pending
        for victim in victims:
            if not self.switch.fail_rule_in_dataplane(victim):
                raise RuntimeError(f"victim not installed: {victim!r}")
        deadline = start + 2 * self.cycle + 10 * PROBE_TIMEOUT
        while pending and self.sim.now < deadline:
            self.sim.run_for(0.01)
            for alarm in self.monitor.alarms[seen:]:
                key = alarm.rule.key()
                if key in pending:
                    pending.discard(key)
                    self.detections.append(alarm.time - start)
            seen = len(self.monitor.alarms)
        self.missed += len(pending)

        waiting = [0]

        def confirmed(sent: float) -> None:
            waiting[0] -= 1
            self.confirmations.append(self.sim.now - sent)

        for victim in victims:
            waiting[0] += 1
            self.controller.install_rule(
                "hub",
                victim.match,
                victim.priority,
                victim.actions,
                confirm=ConfirmMode.MONOCLE_ACK,
                on_confirmed=lambda sent=self.sim.now: confirmed(sent),
            )
        deadline = self.sim.now + 2.0
        while waiting[0] and self.sim.now < deadline:
            self.sim.run_for(0.01)
        self.unconfirmed += waiting[0]
        # Drain probes launched before the repair landed.
        self.sim.run_for(2 * PROBE_TIMEOUT)

    def false_alarms(self) -> int:
        return sum(
            1
            for a in self.monitor.alarms
            if a.rule.key() not in self.victim_keys
        )

    def timeline(self) -> list[tuple]:
        return [
            (round(a.time, 9), a.kind, repr(a.rule.match))
            for a in self.monitor.alarms
        ]


def hub_layer_counters(rig: HubRig) -> Counter:
    switches = [rig.net.switch(node) for node in rig.net.switches]
    dynamic = rig.system.dynamic("hub")
    return Counter(
        {
            "switches.packetouts": sum(
                s.stats.packetouts_processed for s in switches
            ),
            "switches.packetins": sum(
                s.stats.packetins_sent for s in switches
            ),
            "switches.flowmods": sum(
                s.stats.flowmods_processed for s in switches
            ),
            "core.monitor.probes_sent": rig.monitor.probes_sent,
            "core.monitor.probe_timeouts": rig.monitor.probes_timed_out,
            "core.dynamic.updates_confirmed": dynamic.updates_confirmed,
            "core.dynamic.updates_given_up": dynamic.updates_given_up,
        }
    )


def hub_counters(rig: HubRig) -> dict[str, object]:
    ctx = rig.monitor.probe_context
    return {
        "sat.solves": ctx.stats.probes_generated,
        "sat.propagations": ctx.solver.stats.propagations,
        "sat.conflicts": ctx.stats.solver_conflicts,
        "sim.events": rig.sim.events_dispatched,
        "probes_sent": rig.monitor.probes_sent,
        "alarm_timeline": digest(rig.timeline()),
    }


# ---------------------------------------------------------------------------
# acl-probegen
# ---------------------------------------------------------------------------

ACL_CATCH = Match.build(dl_vlan=0xF03)
#: (name, table builder, stride).  The timed sample is every stride-th
#: rule of the table plus its catch-all default rule, probed in
#: priority order -- the order of a Monitor's first cycle.  It is the
#: same for every seed: a shuffled order swings solver work by 40%
#: between seeds (a broad rule probed early in a context leaves a
#: large clause group every later solve pays for), and the default
#: rule, which overlaps the whole table, costs more than the rest of
#: the Campus sample together (3 s, 200 MB), so every sample has it.
ACL_TABLES = (("stanford", stanford_table, 3), ("campus", campus_table, 48))
ACL_SMOKE_STRIDE = 64
#: Rules per cold ProbeGenContext: one Monitor's worth of first probes.
ACL_BATCH = 128
ACL_SETUPS = 3
#: Identical passes per measured second (one pass is ~6 s).
ACL_PASSES_PER_S = 0.17
#: Live phase: seeded contiguous priority blocks of the Stanford table on
#: a monitored hub, W=4, one silent drop per fault round.  Four blocks
#: of 16, not one of 64: the hub's speed follows the overlaps inside
#: its rules, and one block from one place in the table made it swing
#: by 10% between seeds.
ACL_LIVE_RULES = 64
ACL_LIVE_RUN = 16
ACL_LIVE_BLOCKS = 24
ACL_LIVE_FAULTS_PER_BLOCK = 4


def _acl_live_rules(
    table: FlowTable, seed: int, port: Callable[[int], int]
) -> list[Rule]:
    ordered = sorted(table.rules(), key=lambda r: -r.priority)
    runs = random.Random(seed).sample(
        range(len(ordered) // ACL_LIVE_RUN), ACL_LIVE_RULES // ACL_LIVE_RUN
    )
    rules = []
    for run in sorted(runs):
        for rule in ordered[run * ACL_LIVE_RUN : (run + 1) * ACL_LIVE_RUN]:
            ports = sorted(rule.actions.forwarding_set())
            actions = output(port(ports[0])) if ports else rule.actions
            rules.append(
                Rule(priority=rule.priority, match=rule.match,
                     actions=actions)
            )
    return rules


def acl_probegen(seed: int, seconds: float, smoke: bool) -> Outcome:
    setup_times = []
    for _ in range(ACL_SETUPS):
        started = perf()
        tables = [(name, build()) for name, build, _ in ACL_TABLES]
        setup_times.append(perf() - started)

    samples = []
    for (name, table), (_, _, stride) in zip(tables, ACL_TABLES):
        rules = table.rules()
        sample = rules[:: ACL_SMOKE_STRIDE if smoke else stride]
        if sample[-1] is not rules[-1]:
            sample.append(rules[-1])
        samples.append((name, table, sample))

    # Every pass repeats the same cold work; a rule's time is its
    # median pass.  On a shared host the fastest of a few repeats
    # tracks the host's best moments, which come and go; the median
    # tracks its typical speed, which holds steadier.
    generator = ProbeGenerator(catch_match=ACL_CATCH)
    passes = max(2, units(seconds, ACL_PASSES_PER_S, smoke))
    took_by_rule: dict[tuple, list[float]] = {}
    rates: list[float] = []
    pass_counters = []
    results = {}
    for _ in range(passes):
        solves = props = conflicts = 0
        headers = []
        started = perf()
        for name, table, rules in samples:
            for b in range(0, len(rules), ACL_BATCH):
                ctx = ProbeGenContext(generator, table=table)
                for rule in rules[b : b + ACL_BATCH]:
                    t = perf()
                    result = ctx.probe_for(rule)
                    took = perf() - t
                    key = (name, rule.key())
                    took_by_rule.setdefault(key, []).append(took)
                    results[key] = result
                    headers.append((name, repr(rule.match), result.header))
                solves += ctx.stats.probes_generated
                props += ctx.solver.stats.propagations
                conflicts += ctx.stats.solver_conflicts
        rates.append(len(headers) / (perf() - started))
        pass_counters.append(
            {
                "sat.solves": solves,
                "sat.propagations": props,
                "sat.conflicts": conflicts,
                "probe_headers": digest(headers),
            }
        )

    # Live phase: the ACL rules' probes go live on a monitored switch.
    rig_started = perf()
    rig = HubRig(
        seed,
        lambda port: _acl_live_rules(tables[0][1], seed, port),
        window=4,
    )
    live_setup = perf() - rig_started
    candidates = rig.monitorable()
    rng = random.Random(seed)
    blocks = 2 if smoke else ACL_LIVE_BLOCKS
    speeds, live_sim, live_wall = [], 0.0, 0.0
    for _ in range(blocks):
        sim_start, wall_start = rig.sim.now, perf()
        for _ in range(ACL_LIVE_FAULTS_PER_BLOCK):
            rig.fault_round([rng.choice(candidates)])
        sim_s, wall_s = rig.sim.now - sim_start, perf() - wall_start
        live_sim += sim_s
        live_wall += wall_s
        speeds.append(sim_s / wall_s)
    faults = blocks * ACL_LIVE_FAULTS_PER_BLOCK

    times = [statistics.median(t) for t in took_by_rule.values()]
    calls = sum(len(t) for t in took_by_rule.values())
    probe_s = sum(sum(t) for t in took_by_rule.values())
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setup_times) + live_setup,
            "probes_per_s": calls / probe_s,
            "probe_ms_p50": 1e3 * statistics.median(times),
            "probe_ms_p99": 1e3 * quantile(times, 99),
            "sim_speed": live_sim / live_wall,
            "detect_sim_p50_s": statistics.median(rig.detections),
            "confirm_sim_p50_s": statistics.median(rig.confirmations),
            "confirm_sim_p95_s": quantile(rig.confirmations, 95),
        },
        attempted=len(times) + 2 * faults,
        failed=rig.missed + rig.unconfirmed + rig.false_alarms(),
        counters={**pass_counters[0], "live": hub_counters(rig)},
        layer_counters=dict(hub_layer_counters(rig)),
        sizes={
            "tables": {name: len(t) for name, t in tables},
            "rules_probed": {n: len(r) for n, _, r in samples},
            "batch": ACL_BATCH,
            "passes": passes,
            "probe_time_samples": len(times),
            "live_rules": len(rig.production),
            "live_faults": faults,
            "confirm_samples": len(rig.confirmations),
        },
        notes={"pass_rates": rates, "live_sim_speeds": speeds},
    )
    outcome.raw = {
        "samples": samples,
        "results": results,
        "pass_counters": pass_counters,
    }
    return outcome


def _check_acl(outcome: Outcome) -> None:
    raw = outcome.raw
    problems = outcome.problems
    first, *rest = raw["pass_counters"]
    for counters in rest:
        if counters != first:
            problems.append(
                f"non-deterministic pass: {counters} != {first}"
            )
    failed = found = 0
    for name, table, rules in raw["samples"]:
        packed = [(*r.match.packed(), r) for r in table.rules()]
        for rule in rules:
            result = raw["results"][(name, rule.key())]
            if result.ok:
                # Only rules matching the probe decide its fate, so
                # verifying against them alone equals verifying against
                # the whole table, without copying it per probe.
                value = pack_header(result.header)
                matching = FlowTable(
                    (r for v, m, r in packed if value & m == v),
                    check_overlap=False,
                )
                valid, why = verify_probe(
                    matching, rule, result.header, ACL_CATCH
                )
                if valid:
                    found += 1
                    continue
                problems.append(f"{name} {rule!r}: bad probe: {why}")
            elif result.reason is not UnmonitorableReason.BUDGET_EXCEEDED:
                # Proven unmonitorable (shadowed or indistinguishable,
                # the paper's "probes found" gap): a correct answer.
                continue
            failed += 1
    outcome.failed += failed
    outcome.sizes["probes_found"] = found


# ---------------------------------------------------------------------------
# hub-steady
# ---------------------------------------------------------------------------

HUB_RULES = 512
HUB_SMOKE_RULES = 32
HUB_WINDOW = 4
#: Simultaneous silent drops per fault round.
HUB_DROPS = 16
HUB_RIGS = 6
#: Fault rounds per measured second, summed over the rigs.
HUB_ROUNDS_PER_S = 2.0


def _hub_rules(count: int, port: Callable[[int], int]) -> list[Rule]:
    return [
        Rule(
            priority=100,
            match=Match.build(nw_dst=0x0A000000 + i),
            actions=output(port(i)),
        )
        for i in range(count)
    ]


def hub_steady(seed: int, seconds: float, smoke: bool) -> Outcome:
    num_rules = HUB_SMOKE_RULES if smoke else HUB_RULES
    drops = 2 if smoke else HUB_DROPS
    rounds = max(1, units(seconds, HUB_ROUNDS_PER_S, smoke) // HUB_RIGS)
    setup_times, sim_speeds = [], []
    sim_total = wall_total = 0.0
    solve_times_by_rule: dict[tuple, list[float]] = {}
    detections, confirmations = [], []
    setup_counters, run_counters = [], []
    missed = unconfirmed = false_alarms = 0
    peak_window = 0
    layer_counters: Counter = Counter()
    for rig_index in range(HUB_RIGS):
        rig_seed = seed * 1009 + rig_index
        started, wall = perf(), time.perf_counter()
        rig = HubRig(
            rig_seed, lambda port: _hub_rules(num_rules, port), HUB_WINDOW
        )
        setup_times.append(perf() - started)
        speed = setup_times[-1] / (time.perf_counter() - wall)
        # The rigs' first cycles solve the same rules in the same order
        # (only switch timing differs); a rule's solve time is its
        # median over the rigs.  The program times its solves on the
        # wall clock; they take the set-up's speed.
        for key, took in rig.solve_times().items():
            solve_times_by_rule.setdefault(key, []).append(took * speed)
        setup_counters.append(
            {k: v for k, v in hub_counters(rig).items() if "sat" in k}
        )

        rules = sorted(rig.monitorable(), key=lambda r: repr(r.match))
        rng = random.Random(rig_seed)
        for _ in range(rounds):
            sim_start, wall_start = rig.sim.now, perf()
            rig.fault_round(rng.sample(rules, drops))
            sim_s, wall_s = rig.sim.now - sim_start, perf() - wall_start
            sim_total += sim_s
            wall_total += wall_s
            sim_speeds.append(sim_s / wall_s)
        detections.extend(rig.detections)
        confirmations.extend(rig.confirmations)
        missed += rig.missed
        unconfirmed += rig.unconfirmed
        false_alarms += rig.false_alarms()
        peak_window = max(peak_window, rig.monitor.window_peak)
        run_counters.append(hub_counters(rig))
        layer_counters.update(hub_layer_counters(rig))
        del rig
        gc.collect()

    solve_times = [statistics.median(t) for t in solve_times_by_rule.values()]
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setup_times),
            "probes_per_s": len(solve_times) / sum(solve_times),
            "probe_ms_p50": 1e3 * statistics.median(solve_times),
            "probe_ms_p99": 1e3 * quantile(solve_times, 99),
            "sim_speed": sim_total / wall_total,
            "detect_sim_p50_s": statistics.median(detections),
            "confirm_sim_p50_s": statistics.median(confirmations),
            "confirm_sim_p95_s": quantile(confirmations, 95),
        },
        attempted=2 * HUB_RIGS * rounds * drops,
        failed=missed + unconfirmed + false_alarms,
        counters={"setup": setup_counters[0], "rigs": run_counters},
        layer_counters=dict(layer_counters),
        sizes={
            "rules": num_rules,
            "probe_window": HUB_WINDOW,
            "rigs": HUB_RIGS,
            "fault_rounds_per_rig": rounds,
            "drops_per_round": drops,
            "detect_samples": len(detections),
            "confirm_samples": len(confirmations),
            "probe_time_samples": len(solve_times),
        },
        notes={
            "window_peak": peak_window,
            "false_alarms": false_alarms,
            "sim_speeds": sim_speeds,
        },
    )
    outcome.raw = {"setup_counters": setup_counters}
    return outcome


def _check_hub(outcome: Outcome) -> None:
    first, *rest = outcome.raw["setup_counters"]
    for counters in rest:
        if counters != first:
            outcome.problems.append(
                f"non-deterministic first cycle: {counters} != {first}"
            )
    if outcome.notes["window_peak"] < 2:
        outcome.problems.append("the W>1 steady-state branch never ran")


# ---------------------------------------------------------------------------
# fleet-churn / fleet-sharded
# ---------------------------------------------------------------------------

#: Sim seconds per round.  Rounds of 1 sim-s confirm ~180 updates, and
#: about 7% of confirmations wait out a probe timeout, so a round's
#: p95 flips between the round trip (8 ms) and the timeout (150 ms)
#: from one round to the next; longer rounds hold it still.
FLEET_DURATION = 1.5
FLEET_SMOKE_DURATION = 0.4
FLEET_FAULTS = 6  # drops, and as many corruptions
#: Scenario rounds per measured second, by worker count: one round
#: takes 3-4 s in one process and half that over two workers.
FLEET_ROUNDS_PER_S = {1: 0.33, 2: 0.66}


def fleet_spec(
    seed: int, workers: int, smoke: bool, round_index: int = 0
) -> ScenarioSpec:
    """Zoo-64 under churn, faults spread the way ``repro-fleet`` does.

    Each round of a run is its own scenario seed, so the sim-time
    metrics pool more faults and updates than one short scenario has.
    """
    duration = FLEET_SMOKE_DURATION if smoke else FLEET_DURATION
    spec = ScenarioSpec(
        topology="zoo",
        size=16 if smoke else 64,
        duration=duration,
        seed=seed * 1000 + round_index,
        rules_per_switch=6,
        probe_rate=100.0,
        workers=workers,
        workloads=(RuleChurn(rate=200.0),),
    )
    nodes = sorted(spec.build_topology().nodes, key=repr)
    step = duration / 2 / (2 * FLEET_FAULTS)
    failures = []
    for i in range(2 * FLEET_FAULTS):
        kind = RuleDrop if i < FLEET_FAULTS else RuleCorruption
        failures.append(
            kind(at=duration / 4 + i * step, node=nodes[i % len(nodes)],
                 rule_index=i)
        )
    return replace(spec, failures=tuple(failures))


@dataclass
class FleetRound:
    """One scenario's results, reduced to what the benchmark reports."""

    setup_s: float
    run_s: float
    sim_s: float
    served: int
    #: (seconds of probe generation, solves) by switch.
    solves: dict[str, tuple[float, int]]
    detections: list[float]
    undetected: int
    harness_errors: list[str]
    false_alarms: int
    confirm_p50: float
    confirm_p95: float
    confirm_count: int
    confirmed: int
    given_up: int
    restarts: int
    degraded: bool
    shard_status: list[str]
    counters: dict[str, object]
    layer_counters: dict[str, int]


def fleet_round(spec: ScenarioSpec) -> FleetRound:
    started, wall_started = perf(), time.perf_counter()
    result = run_scenario(spec)
    wall = perf() - started
    # The program times its run and its solves on the wall clock; they
    # take the round's speed (hostclock.py).
    speed = wall / (time.perf_counter() - wall_started)
    run_s = result.timings["run_seconds"] * speed
    m = result.metrics
    applied = [
        d for d in m.detections
        if not d.injection.chaos and d.injection.error is None
    ]
    detections = [d.latency for d in applied if d.latency is not None]
    confirm = m.confirmation_latency
    return FleetRound(
        setup_s=wall - run_s,
        run_s=run_s,
        sim_s=spec.duration,
        served=m.probes_generated + m.probe_cache_hits
        + m.probe_revalidations,
        solves={
            repr(s.node): (s.probegen_seconds * speed, s.probes_generated)
            for s in m.per_switch
            if s.probes_generated
        },
        detections=detections,
        undetected=len(applied) - len(detections),
        harness_errors=[
            d.injection.error for d in m.detections if d.injection.error
        ],
        false_alarms=len(m.false_alarms),
        confirm_p50=confirm.median,
        confirm_p95=confirm.p95,
        confirm_count=confirm.count,
        confirmed=m.updates_confirmed,
        given_up=m.updates_given_up,
        restarts=result.restarts,
        degraded=result.degraded,
        shard_status=list(m.shard_status),
        counters={
            "sat.solves": m.probes_generated,
            "probes_sent": m.probes_sent,
            "updates_confirmed": m.updates_confirmed,
            "alarm_timeline": digest(m.alarm_timeline),
            "detections": digest(
                (d.injection.kind, d.detected_at) for d in m.detections
            ),
        },
        layer_counters={
            "switches.packetouts": m.packetout_total,
            "switches.packetins": m.packetin_total,
            "switches.flowmods": sum(
                s.flowmods_processed for s in m.per_switch
            ),
            "core.monitor.probes_sent": m.probes_sent,
            "core.monitor.probe_timeouts": sum(
                s.probes_timed_out for s in m.per_switch
            ),
            "core.dynamic.updates_confirmed": m.updates_confirmed,
            "core.dynamic.updates_given_up": m.updates_given_up,
            "core.shared.contexts_deduped": m.contexts_deduped,
            "core.shared.contexts_forked": m.contexts_forked,
            "fleet.coordinator.barriers": m.barriers,
            "fleet.coordinator.restarts": result.restarts,
        },
    )


def collect_garbage(seed: int) -> None:
    """Free the last round's deployment before the next is timed, at a
    seeded phase of the collector's cycle.

    Left to the collector, the last round's garbage is collected inside
    the next round's timed set-up or not, as it happens.  But a full
    collection resets the collector's counters, so every round would
    then meet its first full collection at the same allocation: inside
    the same switch's first-cycle solve, round after round, which makes
    that switch the slowest in every round.  Running the younger
    generations a seeded number of times afterwards moves that point,
    as the history of a long-running process would.
    """
    gc.collect()
    rng = random.Random(seed)
    for generation, threshold in ((1, 10), (0, 10)):
        for _ in range(rng.randrange(threshold)):
            gc.collect(generation)


def _fleet(seed: int, seconds: float, smoke: bool, workers: int) -> Outcome:
    # A switch's mean solve time is the program's own reading, taken
    # over a handful of solves; a host-clock sample inside one of them
    # would lengthen it (hostclock.py).  Hub-steady's per-rule medians
    # over six hubs shrug such samples off, and it needs the samples
    # its first cycle, nearly all solves, would otherwise lose.
    CLOCK.avoid(ProbeGenContext._generate, ProbeGenerator.generate)
    count = max(2, units(seconds, FLEET_ROUNDS_PER_S[workers], smoke))
    rounds = []
    for index in range(count):
        # A fresh spec per round: its RuleChurn keeps the deployment.
        spec = fleet_spec(seed, workers, smoke, index)
        collect_garbage(spec.seed)
        rounds.append(fleet_round(spec))
    # Determinism self-check: the first scenario once more, untimed.
    replay = fleet_round(fleet_spec(seed, workers, smoke, 0))
    spec = fleet_spec(seed, workers, smoke)

    detections = [x for r in rounds for x in r.detections]
    # The per-solve times stay inside the shard workers, so the switch
    # is the unit: its time is the median over rounds of its mean
    # solve time in a round.  (Pooled over rounds, one round's few slow
    # solves decide which switch is slowest, and p99 swings with it.)
    by_switch: dict[str, list[float]] = {}
    for r in rounds:
        for node, (took, solved) in r.solves.items():
            by_switch.setdefault(node, []).append(1e3 * took / solved)
    solve_ms = [statistics.median(ms) for ms in by_switch.values()]
    run_s = sum(r.run_s for r in rounds)
    layer_counters: Counter = Counter()
    for r in rounds:
        layer_counters.update(r.layer_counters)
    failed = sum(
        r.undetected + r.false_alarms + r.given_up + r.restarts
        + int(r.degraded)
        for r in rounds
    )
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "probes_per_s": sum(r.served for r in rounds) / run_s,
            "probe_ms_p50": statistics.median(solve_ms),
            "probe_ms_p99": quantile(solve_ms, 99),
            "sim_speed": sum(r.sim_s for r in rounds) / run_s,
            "detect_sim_p50_s": statistics.median(detections),
            "confirm_sim_p50_s": statistics.median(
                r.confirm_p50 for r in rounds
            ),
            "confirm_sim_p95_s": statistics.median(
                r.confirm_p95 for r in rounds
            ),
        },
        attempted=sum(
            len(r.detections) + r.undetected + r.confirmed + r.given_up
            for r in rounds
        ),
        failed=failed,
        counters={"rounds": [r.counters for r in rounds]},
        layer_counters=dict(layer_counters),
        sizes={
            "topology": f"zoo-{spec.size}",
            "workers": workers,
            "duration_sim_s": spec.duration,
            "rounds": count,
            "faults_applied": len(detections) + sum(
                r.undetected for r in rounds
            ),
            "detect_samples": len(detections),
            "confirm_samples": sum(r.confirm_count for r in rounds),
            "probe_time_samples": len(solve_ms),
        },
        notes={
            "harness_errors": [e for r in rounds for e in r.harness_errors],
            "false_alarms": sum(r.false_alarms for r in rounds),
            "updates_given_up": sum(r.given_up for r in rounds),
            "restarts": sum(r.restarts for r in rounds),
            "degraded": any(r.degraded for r in rounds),
            "shard_status": [r.shard_status for r in rounds],
            "barriers": layer_counters["fleet.coordinator.barriers"],
            "sim_speeds": [r.sim_s / r.run_s for r in rounds],
        },
    )
    outcome.raw = {"first": rounds[0].counters, "replay": replay.counters}
    return outcome


def fleet_churn(seed: int, seconds: float, smoke: bool) -> Outcome:
    return _fleet(seed, seconds, smoke, workers=1)


def fleet_sharded(seed: int, seconds: float, smoke: bool) -> Outcome:
    return _fleet(seed, seconds, smoke, workers=2)


def _check_fleet(outcome: Outcome) -> None:
    first, replay = outcome.raw["first"], outcome.raw["replay"]
    if replay != first:
        outcome.problems.append(
            f"non-deterministic scenario: replay {replay} != {first}"
        )


WORKLOADS = {
    "acl-probegen": (acl_probegen, _check_acl),
    "hub-steady": (hub_steady, _check_hub),
    "fleet-churn": (fleet_churn, _check_fleet),
    "fleet-sharded": (fleet_sharded, _check_fleet),
}


def check(name: str, outcome: Outcome) -> Outcome:
    """Run the workload's correctness checks; drop the raw results."""
    WORKLOADS[name][1](outcome)
    outcome.raw = {}
    return outcome
