"""Monocle reproduction benchmark: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hub-steady --seed 2015 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --smoke      # every workload, tiny, checked

``--trace 0`` measures the end-to-end metrics with no wrapper in the
program.  ``--trace 1`` runs the workload untraced, then again under
:class:`tracing.Tracer`, and reports the per-layer metrics plus the
tracing overhead between the two executions.  The last line of
standard output is the result object; the lines before it are a
human-readable table and the run manifest.  The exit code is 0
whenever the result line is printed; ``correct`` in it says whether
every correctness check passed, and ``failed`` counts the operations
that failed (README.md defines both per workload).  README.md describes the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "probes_per_s": "1/s",
    "probe_ms_p50": "ms",
    "probe_ms_p99": "ms",
    "sim_speed": "sim_s/s",
    "detect_sim_p50_s": "sim_s",
    "confirm_sim_p50_s": "sim_s",
    "confirm_sim_p95_s": "sim_s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sat.solves": "count",
    "sat.propagations": "count",
    "sat.conflicts": "count",
    "sat.self_s": "s",
    "core.probegen.requests": "count",
    "core.probegen.solve_share": "ratio",
    "core.probegen.self_s": "s",
    "openflow.overlap_queries": "count",
    "openflow.lookups": "count",
    "openflow.self_s": "s",
    "packets.crafted": "count",
    "packets.parsed": "count",
    "packets.self_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "network.messages": "count",
    "network.self_s": "s",
    "switches.packetouts": "count",
    "switches.packetins": "count",
    "switches.flowmods": "count",
    "switches.self_s": "s",
    "controller.self_s": "s",
    "core.monitor.probes_sent": "count",
    "core.monitor.probe_timeouts": "count",
    "core.monitor.self_s": "s",
    "core.schedule.selections": "count",
    "core.schedule.self_s": "s",
    "core.dynamic.updates_confirmed": "count",
    "core.dynamic.updates_given_up": "count",
    "core.dynamic.self_s": "s",
    "core.shared.contexts_deduped": "count",
    "core.shared.contexts_forked": "count",
    "core.shared.self_s": "s",
    "core.catching.self_s": "s",
    "fleet.self_s": "s",
    "fleet.coordinator.wait_s": "s",
    "fleet.coordinator.barriers": "count",
    "fleet.coordinator.restarts": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def git_state() -> dict[str, object]:
    """Revision and dirty flag, or None outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev, "dirty": bool(dirty)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped
    (the shard workers of fleet-sharded), in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_untraced(name, seed, seconds, smoke):
    from tracing import assert_unwrapped
    from workloads import WORKLOADS

    assert_unwrapped()
    started = time.perf_counter()
    outcome = WORKLOADS[name][0](seed, seconds, smoke)
    return outcome, time.perf_counter() - started


def traced_metrics(name, seed, seconds, smoke, untraced, wall):
    """Run once more under the tracer; derive the per-layer metrics."""
    from tracing import CALL_COUNTS, Tracer, assert_unwrapped
    from workloads import WORKLOADS, check

    with Tracer() as tracer:
        outcome = WORKLOADS[name][0](seed, seconds, smoke)
    assert_unwrapped()
    check(name, outcome)
    if outcome.counters != untraced.counters:
        outcome.problems.append(
            "traced and untraced executions disagree: "
            f"{outcome.counters} != {untraced.counters}"
        )
    self_s, calls, roots = tracer.layer_stats()
    unattributed = tracer.wall - roots
    total = sum(self_s.values()) + unattributed
    if abs(total - tracer.wall) > 1e-6 * max(1.0, tracer.wall):
        outcome.problems.append(
            f"layer self times sum to {total} s, traced wall is "
            f"{tracer.wall} s"
        )
    values: dict[str, float] = {
        "sat.solves": tracer.sat["solves"],
        "sat.propagations": tracer.sat["propagations"],
        "sat.conflicts": tracer.sat["conflicts"],
        "sim.events": tracer.sim_events,
        "trace.overhead": tracer.wall / wall,
        "trace.unattributed_s": unattributed,
    }
    for metric, specs in CALL_COUNTS.items():
        values[metric] = sum(calls.get(spec, 0) for spec in specs)
    requests = values["core.probegen.requests"]
    values["core.probegen.solve_share"] = (
        values["sat.solves"] / requests if requests else 0.0
    )
    for layer, seconds_in in self_s.items():
        values[f"{layer}.self_s"] = seconds_in
    values["fleet.coordinator.wait_s"] = values.pop(
        "fleet.coordinator.self_s"
    )
    for metric in PER_LAYER:
        values.setdefault(metric, outcome.layer_counters.get(metric, 0))
    extra = {"spans": tracer.spans, "traced_wall_s": tracer.wall,
             "untraced_wall_s": wall}
    return outcome, {m: values[m] for m in PER_LAYER}, extra


def run(args) -> int:
    from workloads import check

    manifest: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **git_state(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": os.getloadavg(),
    }
    from hostclock import CLOCK

    if not args.trace:
        CLOCK.start()
    try:
        outcome, wall = run_untraced(
            args.workload, args.seed, args.seconds, args.smoke
        )
    finally:
        CLOCK.stop()
    manifest["host_clock"] = CLOCK.summary()
    check(args.workload, outcome)
    if args.trace:
        # The untraced execution's counters are the reference the
        # traced one must reproduce; its problems are reported too.
        problems = outcome.problems
        outcome, metrics, extra = traced_metrics(
            args.workload, args.seed, args.seconds, args.smoke, outcome,
            wall,
        )
        outcome.problems[:0] = problems
        units = PER_LAYER
        manifest["tracing"] = extra
    else:
        metrics = {**outcome.metrics, "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    manifest.update(
        loadavg_after=os.getloadavg(),
        wall_s=wall,
        sizes=outcome.sizes,
        counters=outcome.counters,
        notes=outcome.notes,
        problems=outcome.problems,
    )
    # Failed operations (a missed fault, a false alarm, an update given
    # up) are the program's to count; `correct` is whether the checks
    # on its outputs held.
    correct = not outcome.problems
    for metric, unit in units.items():
        print(f"{metric:34s} {metrics[metric]:>16.6g} {unit}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"correct {correct}")
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    print("manifest " + json.dumps(manifest, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m: {"value": float(metrics[m]), "unit": u}
            for m, u in units.items()
        },
    }))
    return 0


def smoke() -> int:
    """Every workload at tiny scale, each in its own process, both
    trace modes; checks the result lines against BENCHMARK.json and
    that every correctness check passed."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )
    failures = int(declared != (END_TO_END, PER_LAYER, list(WORKLOADS)))
    if failures:
        print("FAIL BENCHMARK.json does not declare these metrics/workloads")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--smoke"],
                capture_output=True, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                expected = PER_LAYER if trace else END_TO_END
                ok = (
                    proc.returncode == 0
                    and set(result) == {"correct", "attempted", "failed",
                                        "metrics"}
                    and result["correct"] is True
                    and result["attempted"] >= 1
                    and set(result["metrics"]) == set(expected)
                )
            except (IndexError, ValueError):
                ok = False
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace}")
            if not ok:
                failures += 1
                print(proc.stdout[-2000:], proc.stderr[-2000:])
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, run every "
                             "workload and check the result shape")
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required (or --smoke alone)")
    return run(args)


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
