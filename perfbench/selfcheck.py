"""Show that the benchmark's output checks can fail.

Runs three small worlds through the program (a paper-style circular front
under PAS and NS, a drifting plume, and a lossy, failing grid), confirms
every check passes on the real outputs, then feeds each check a copy of a
run with one deliberate fault and confirms the check reports it.

    python3 perfbench/selfcheck.py

Exits 0 when every real run passes and every broken run is caught.  Takes a
few seconds; the benchmark itself never runs this file.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as w  # noqa: E402
from repro.core.config import PASConfig, SchedulerConfig  # noqa: E402
from repro.exec.specs import SchedulerSpec  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.world import builder  # noqa: E402
from repro.experiments.runner import default_scenario  # noqa: E402
from repro.world.scenario import ScenarioConfig, StimulusConfig  # noqa: E402


def run(scenario: ScenarioConfig, spec: SchedulerSpec) -> dict:
    simulation = builder.build_simulation(scenario, spec.build())
    return checks.observe(simulation, simulation.run())


def shrunk(scenario: ScenarioConfig, nodes: int, side: float, **overrides) -> ScenarioConfig:
    """``scenario`` on a smaller jittered grid with the source at its centre."""
    return scenario.with_overrides(
        deployment=dataclasses.replace(scenario.deployment, num_nodes=nodes, width=side, height=side),
        stimulus=dataclasses.replace(scenario.stimulus, source=(side / 2.0, side / 2.0)),
        **overrides,
    )


def paper_scenario() -> ScenarioConfig:
    """One 30-node run of the figures' set-up: 20 s quiet, then a 1 m/s front."""
    return default_scenario(num_nodes=30, transmission_range=10.0, seed=3).with_overrides(
        stimulus=StimulusConfig(kind="circular", speed=1.0, start_time=20.0)
    )


def arrival(obs: dict, front: dict) -> np.ndarray:
    pos = obs["positions"]
    return front["start"] + np.hypot(pos[:, 0] - front["source"][0], pos[:, 1] - front["source"][1]) / front["speed"]


def detected_row(obs: dict, front: dict, *, early_enough: bool = False) -> int:
    """A live, detected node; with ``early_enough``, reached a max sleep before the end."""
    ok = ~np.isnan(obs["detect_t"]) & ~obs["failed"]
    if early_enough:
        ok &= arrival(obs, front) <= obs["duration"] - obs["max_sleep"]
    return int(np.flatnonzero(ok)[0])


# Faults: each edits one observation in place.
def drop_rx_frame(o):
    i = int(np.flatnonzero(o["rx_frames"])[0])
    o["rx_j"][i] -= checks.RX_W * (o["rx_bytes"][i] / o["rx_frames"][i]) * 8 / checks.RATE_BPS


def shorten_sleep(o):
    i = int(np.flatnonzero((o["sleep_j"] > checks.SLEEP_W) & ~o["failed"])[0])
    o["sleep_j"][i] -= checks.SLEEP_W * 0.5


def failed_node_lives_on(o):
    i = int(np.flatnonzero(o["failed"])[0])
    o["sleep_j"][i] += checks.SLEEP_W * o["duration"]


def deliver_twice(o):
    o["messages"]["deliveries"] += 1


def transmit_unseen(o):
    o["messages"]["broadcasts"] -= 1


def extra_outcomes(o):
    o["messages"]["skipped_sleeping"] += checks.frames_addressed(o, w.PAPER_RANGE_M) + 1


def early_detection(front):
    def fault(o):
        i = detected_row(o, front)
        o["detect_t"][i] = arrival(o, front)[i] - 0.5

    return fault


def late_detection(front):
    def fault(o):
        i = detected_row(o, front)
        o["detect_t"][i] = arrival(o, front)[i] + o["max_sleep"] + 0.5

    return fault


def lost_detection(front):
    def fault(o):
        o["detect_t"][detected_row(o, front, early_enough=True)] = np.nan

    return fault


def miscount_reached(o):
    o["num_reached"] += 1


def ns_delay(o):
    o["detect_t"][int(np.flatnonzero(~np.isnan(o["detect_t"]))[0])] += 0.01


def detect_at_release(puff):
    def fault(o):
        # At release the puff is a 1 m blob: nodes 10 m away see nothing.
        far = np.hypot(o["positions"][:, 0] - puff.source[0], o["positions"][:, 1] - puff.source[1]) > 10
        o["detect_t"][int(np.flatnonzero(~np.isnan(o["detect_t"]) & far)[0])] = puff.start

    return fault


def double_losses(o):
    o["messages"]["losses"] *= 2


def all_fail(o):
    o["failed"][:] = True


def main() -> int:
    pas = SchedulerSpec("PAS", PASConfig(max_sleep_interval=10.0))
    front = dict(w.PAPER_FRONT)
    paper = run(paper_scenario(), pas)
    ns = run(paper_scenario(), SchedulerSpec("NS", SchedulerConfig()))

    plume_side = w.PLUME_SIDE_M * (150 / w.PLUME_NODES) ** 0.5  # 150 nodes, same density
    plume = run(shrunk(w.plume_scenario(2), 150, plume_side, duration=12.0), pas)
    puff = checks.GaussianPuff(
        source=(plume_side / 2.0, plume_side / 2.0),
        wind=(w.PLUME_WIND_MPS, 0.0),
        diffusivity=w.PLUME_DIFFUSIVITY,
        emission=w.PLUME_EMISSION,
        threshold=w.PLUME_THRESHOLD,
        sigma0=w.PLUME_SIGMA0_M,
        start=0.0,
    )

    side = w.FLEET_SIDE_M * 0.4  # 1,600 nodes at the fleet's density
    fleet = run(shrunk(w.fleet_scenario(2), 1600, side), pas)
    fleet_front = dict(source=(side / 2.0, side / 2.0), speed=w.FLEET_SPEED_MPS, start=0.0)
    fleet_faults = dict(loss=w.FLEET_LOSS, failures_per_node_hour=w.FLEET_FAILURES_PER_NODE_HOUR)

    fig6 = figures.figure6((2.0, 10.0), num_nodes=30, transmission_range=10.0, repetitions=1).rows()

    status = 0
    real = [
        ("paper PAS", checks.check_runs([paper], w.PAPER_RANGE_M) + checks.check_circular_front(paper, **front)),
        ("paper NS", checks.check_runs([ns], w.PAPER_RANGE_M) + checks.check_circular_front(ns, **front)),
        ("plume", checks.check_runs([plume], w.PLUME_RANGE_M) + checks.check_plume_detections(plume, puff)),
        (
            "lossy grid",
            checks.check_runs([fleet], w.FLEET_RANGE_M)
            + checks.check_circular_front(fleet, **fleet_front)
            + checks.check_channel_and_failures(fleet, **fleet_faults),
        ),
        ("fig6 rows", checks.check_fig6_ordering(fig6)),
    ]
    for label, errors in real:
        print(f"{'pass' if not errors else 'FAIL'}  real run: {label}")
        for error in errors:
            print(f"      {error}")
        status |= bool(errors)

    def circular(spec):
        return lambda o: checks.check_circular_front(o, **spec)

    def channel(o):
        return checks.check_channel_and_failures(o, **fleet_faults)

    # (check, its input, the fault, what the fault is)
    cases = [
        (checks.check_radio_energy, paper, drop_rx_frame, "one frame's RX energy removed"),
        (checks.check_time_conservation, paper, shorten_sleep, "a node's sleep cut by 0.5 s"),
        (checks.check_time_conservation, fleet, failed_node_lives_on, "a failed node keeps sleeping"),
        (checks.check_counters, paper, deliver_twice, "a delivery counted twice"),
        (checks.check_counters, paper, transmit_unseen, "a broadcast left uncounted"),
        (lambda o: checks.check_frame_accounting([o], w.PAPER_RANGE_M), paper, extra_outcomes, "more outcomes than frames"),
        (circular(front), paper, early_detection(front), "a detection moved before its arrival"),
        (circular(fleet_front), fleet, early_detection(fleet_front), "a fleet detection moved before its arrival"),
        (circular(front), paper, late_detection(front), "a delay beyond the max sleep interval"),
        (circular(front), paper, lost_detection(front), "an early-reached live node left undetected"),
        (circular(front), paper, miscount_reached, "one extra reached node reported"),
        (circular(front), ns, ns_delay, "a 10 ms NS delay"),
        (lambda o: checks.check_plume_detections(o, puff), plume, detect_at_release(puff), "a far detection at release"),
        (channel, fleet, double_losses, "losses doubled"),
        (channel, fleet, all_fail, "every node failed"),
    ]
    for check, obs, fault, what in cases:
        broken = copy.deepcopy(obs)
        fault(broken)
        errors = check(broken)
        print(f"{'caught' if errors else 'MISSED'}  {what}")
        if errors:
            print(f"      {errors[0]}")
        status |= not errors

    broken_rows = copy.deepcopy(fig6)
    broken_rows[0]["NS"] = broken_rows[0]["PAS"] * 0.5
    errors = checks.check_fig6_ordering(broken_rows)
    print(f"{'caught' if errors else 'MISSED'}  Fig. 6 NS energy halved below PAS")
    if errors:
        print(f"      {errors[0]}")
    status |= not errors
    return status


if __name__ == "__main__":
    sys.exit(main())
