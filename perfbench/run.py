"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload plume_storm --seed 1 --seconds 30 --trace 0

The run repeats whole rounds of the workload (see ``workloads.py``) with the
same inputs until ``--seconds`` would be overrun, checks the outputs of its
first round, and requires every round to produce the same summary digest.

``--trace 0`` reports the end-to-end metrics.  Only two boundaries are timed:
the first ``build_simulation`` call (for ``setup_s``) and every
``MonitoringSimulation.run`` call (for ``node_seconds_per_s``).

``--trace 1`` spends the first half of ``--seconds`` on untraced rounds and
the second half on rounds traced by ``tracing.Tracer``; it reports the
per-layer metrics, per traced round, plus the traced share of wall time and
the tracing overhead against the untraced median.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Results are appended to ``perfbench/results/<workload>.jsonl`` and a traced
run's spans are written to ``perfbench/results/trace-<workload>-<seed>.json``.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")


class Boundaries:
    """The untraced timing: first world build, and time inside ``run``.

    Seconds spent in ``host``'s calibration passes are taken out of both.
    """

    def __init__(self, host=None) -> None:
        self.host = host
        self.first_build_end = None
        #: calibration seconds spent before the first build ended
        self.first_build_spent = 0.0
        self.run_s = 0.0
        self.node_seconds = 0.0
        self.summaries = []
        #: while set, each finished simulation is observed for the checks
        self.observe = False
        self.observations = []
        #: benchmark time spent observing, taken out of the round's wall
        self.excluded_s = 0.0
        self._undo = []

    def install(self) -> None:
        from repro.world import builder
        from repro.world.simulation import MonitoringSimulation

        build_simulation = builder.build_simulation
        run = MonitoringSimulation.run

        def timed_build(*args, **kwargs):
            simulation = build_simulation(*args, **kwargs)
            if self.first_build_end is None:
                self.first_build_end = perf_counter()
                self.first_build_spent = self.spent()
            return simulation

        def timed_run(simulation):
            spent = self.spent()
            start = perf_counter()
            summary = run(simulation)
            end = perf_counter()
            self.run_s += end - start - (self.spent() - spent)
            self.node_seconds += len(simulation.nodes) * summary.duration_s
            self.summaries.append(summary)
            if self.observe:
                self.observations.append(checks.observe(simulation, summary))
                self.excluded_s += perf_counter() - end
            return summary

        builder.build_simulation = timed_build
        MonitoringSimulation.run = timed_run
        self._undo = [(builder, "build_simulation", build_simulation), (MonitoringSimulation, "run", run)]

    def uninstall(self) -> None:
        for owner, attr, raw in self._undo:
            setattr(owner, attr, raw)

    def spent(self) -> float:
        return self.host.spent if self.host is not None else 0.0


def digest(summaries) -> str:
    """SHA-256 over the summaries' JSON, one per line, in execution order."""
    h = hashlib.sha256()
    for summary in summaries:
        h.update(summary.to_json().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def run_rounds(workload, seed, bounds, until, *, observe_first, tracer=None):
    """Repeat whole rounds until the next one would end after ``until``."""
    rounds = []
    between_rounds = tracer.paused if tracer is not None else contextlib.nullcontext
    while True:
        with between_rounds():
            gc.collect()
        bounds.summaries, bounds.run_s, bounds.node_seconds, bounds.excluded_s = [], 0.0, 0.0, 0.0
        bounds.observe = observe_first and not rounds
        if tracer is not None:
            tracer.round = len(rounds)
        error = None
        spent = bounds.spent()
        start = perf_counter()
        try:
            output = workload.run_round(seed)
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            output, error = None, traceback.format_exc()
        end = perf_counter()
        wall = end - start - bounds.excluded_s - (bounds.spent() - spent)
        bounds.observe = False
        with between_rounds():
            # Only the first round's outputs are kept (for the checks), so
            # the benchmark's own memory does not grow with the round count.
            first = not rounds
            rounds.append(
                {
                    "start": start,
                    "end": end,
                    "wall_s": wall,
                    "run_s": bounds.run_s,
                    "node_seconds": bounds.node_seconds,
                    "summaries": bounds.summaries if first else None,
                    "digest": digest(bounds.summaries),
                    "output": output if first else None,
                    "error": error,
                }
            )
            bounds.summaries = output = None
        if error is not None:
            print(f"round {len(rounds)} failed:\n{error}", file=sys.stderr)
        if perf_counter() + wall > until:
            return rounds


def summary_counts(summaries):
    messages = [s.messages for s in summaries]
    return {
        "broadcasts": sum(m["broadcasts"] for m in messages),
        "tx_frames": sum(m["tx_messages"] for m in messages),
        "deliveries": sum(m["deliveries"] for m in messages),
        "events": sum(s.extra["events_processed"] for s in summaries),
    }


def layer_metrics(tracer, traced, untraced, addressed):
    """Per-layer metrics, per traced round."""
    n = len(traced)
    stats = {name: [calls / n, total / n, self_s / n] for name, (calls, total, self_s) in tracer.stats.items()}
    counts = {name: value / n for name, value in tracer.counts.items()}

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    totals = summary_counts(traced[0]["summaries"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    pops = calls("sim.pop")
    values = {
        "exec.runs": (calls("exec.execute"), "count"),
        "exec.execute_s": (total("exec.execute"), "s"),
        "experiments.overhead_s": (self_s("experiments.sweep"), "s"),
        "world.build_s": (self_s("world.build"), "s"),
        "world.recheck_calls": (calls("world.recheck"), "count"),
        "world.recheck_s": (self_s("world.recheck"), "s"),
        "geometry.deploy_s": (total("geometry.deploy"), "s"),
        "network.topology_s": (total("network.topology"), "s"),
        "network.broadcasts": (counts.get("network.transmitting_broadcasts", 0), "count"),
        "network.broadcast_s": (self_s("network.broadcast"), "s"),
        "network.deliveries": (totals["deliveries"], "count"),
        "network.delivery_s": (self_s("network.delivery"), "s"),
        "network.delivered_ratio": (totals["deliveries"] / addressed if addressed else 0.0, "ratio"),
        "network.channel_s": (total("network.channel"), "s"),
        "sim.events": (totals["events"], "count"),
        "sim.queue_pops": (pops, "count"),
        "sim.events_per_pop": (totals["events"] / pops if pops else 0.0, "ratio"),
        "sim.pop_s": (total("sim.pop"), "s"),
        "sim.scheduled": (counts.get("sim.scheduled", 0), "count"),
        "sim.loop_s": (self_s("sim.run"), "s"),
        "core.controllers_s": (total("core.controllers"), "s"),
        "core.handler_calls": (calls("core.handler"), "count"),
        "core.handler_s": (self_s("core.handler"), "s"),
        "core.estimator_calls": (calls("core.estimator"), "count"),
        "core.estimator_s": (self_s("core.estimator"), "s"),
        "core.event_s": (self_s("core.event"), "s"),
        "core.neighbor_updates": (counts.get("core.neighbor_updates", 0), "count"),
        "core.requests_sent": (counts.get("core.requests_sent", 0), "count"),
        "core.responses_sent": (counts.get("core.responses_sent", 0), "count"),
        "node.power_transitions": (calls("node.power"), "count"),
        "node.power_s": (self_s("node.power"), "s"),
        "stimulus.arrival_precompute_s": (total("stimulus.arrival_precompute"), "s"),
        "stimulus.sense_calls": (counts.get("stimulus.sense_calls", 0), "count"),
        "faults.failures": (calls("faults.failure"), "count"),
        "metrics.finalize_s": (total("metrics.finalize"), "s"),
        "python.gc_s": (total("python.gc"), "s"),
        "python.gc_collections": (calls("python.gc"), "count"),
        "trace.span_coverage": (sum(s[2] for s in stats.values()) / traced_wall, "ratio"),
        "trace.overhead": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    host = None
    if not args.trace:
        host = hostspeed.HostSpeed()
        host.start()
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"benchmark: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bounds = Boundaries(host)
    bounds.install()
    start = perf_counter()
    if args.trace:
        untraced = run_rounds(workload, args.seed, bounds, start + args.seconds / 2, observe_first=True)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, args.seed, bounds, start + args.seconds, observe_first=False, tracer=tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, args.seed, bounds, start + args.seconds, observe_first=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bounds.uninstall()
    if host is not None:
        host.stop()

    # ------------------------------------------------ checks (not timed)
    ok = [r for r in rounds if r["error"] is None]
    failed = sum(workload.runs_per_round for r in rounds if r["error"] is not None)
    errors = []
    if not ok:
        errors.append("no round completed")
    elif rounds[0]["error"] is not None:
        errors.append("the observed first round failed")
    else:
        errors += workload.check(bounds.observations, rounds[0]["output"])
        digests = {r["digest"] for r in ok}
        if len(digests) != 1:
            errors.append(f"rounds disagree: {len(digests)} different summary digests")
        counts = summary_counts(rounds[0]["summaries"])
        if counts["tx_frames"] != counts["broadcasts"]:
            errors.append(f"summed TX frames {counts['tx_frames']} != broadcasts {counts['broadcasts']}")
    if args.trace:
        if traced[0]["error"] is not None or untraced[0]["error"] is not None:
            errors.append("the first traced or untraced round failed")
        else:
            per_round = tracer.counts["network.transmitting_broadcasts"] / len(traced)
            traced_counts = summary_counts(traced[0]["summaries"])
            if per_round != traced_counts["broadcasts"] or per_round != traced_counts["tx_frames"]:
                errors.append(
                    f"traced broadcast calls {per_round} != summary broadcasts "
                    f"{traced_counts['broadcasts']} / TX frames {traced_counts['tx_frames']}"
                )

    digest_hex = ok[0]["digest"] if ok else None
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, walls {[round(w, 3) for w in walls]}")
    print(f"summary digest sha256 {digest_hex}")
    print(f"checks: {'passed' if not errors else f'{len(errors)} failed'}")

    if args.trace:
        addressed = sum(checks.frames_addressed(obs, workload.range_m) for obs in bounds.observations)
        metrics = layer_metrics(tracer, traced, untraced, addressed) if traced[0]["error"] is None else {}
        if metrics:
            print(
                f"trace: spans cover {metrics['trace.span_coverage']['value']:.1%} of traced wall; "
                f"overhead {metrics['trace.overhead']['value']:+.1%} against the untraced median"
            )
    else:
        usable = ok or rounds
        setup_end = bounds.first_build_end if bounds.first_build_end is not None else start
        setup_raw = setup_end - _PROCESS_START - bounds.first_build_spent
        slowdowns = [host.slowdown(r["start"], r["end"]) for r in usable]
        print(f"host slowdown per round {[round(x, 3) for x in slowdowns]}; raw setup {setup_raw:.4f} s")
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] / x for r, x in zip(usable, slowdowns)), "unit": "s"},
            # Set-up lasts a fraction of a second, too few kernel passes to
            # gauge its own interval: the whole run's slowdown stands in.
            "setup_s": {"value": setup_raw / host.slowdown(), "unit": "s"},
            "node_seconds_per_s": {
                "value": statistics.median(
                    r["node_seconds"] * x / r["run_s"] for r, x in zip(usable, slowdowns) if r["run_s"] > 0
                )
                if any(r["run_s"] > 0 for r in usable)
                else 0.0,
                "unit": "node-s/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {
        "correct": not errors,
        "attempted": workload.runs_per_round * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, walls=walls, digest=digest_hex)
    with open(os.path.join(RESULTS, f"{args.workload}.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if args.trace:
        with open(os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
