"""The benchmark's workloads, spelled out in full.

Every scenario below is written out here rather than read from
``repro.world.presets``, so editing a preset does not move the benchmark.
Each workload runs through the program's public entry points on their
default execution path: no ``engine`` or ``estimation`` argument is passed,
so the benchmark measures whatever path users get.

A workload is a batch job.  One *round* is one complete job; a benchmark run
repeats whole rounds, with identical inputs, until its time is up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.core.config import PASConfig
from repro.exec.specs import SchedulerSpec
from repro.experiments import figures
from repro.geometry.deployment import DeploymentConfig
from repro.world import builder
from repro.world.scenario import FaultConfig, ScenarioConfig, StimulusConfig

import checks

# ----------------------------------------------------------------- paper_figures
#: Repetitions per sweep cell: Figs. 4 and 6 have 3 schedulers x 5 points and
#: Figs. 5 and 7 have 6 points, so one round is 42 x 6 = 252 runs.
PAPER_REPETITIONS = 6
PAPER_MAX_SLEEP_VALUES = (2.0, 5.0, 10.0, 15.0, 20.0)
PAPER_ALERT_THRESHOLDS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
PAPER_NODES = 30
PAPER_RANGE_M = 10.0
PAPER_ALERT_THRESHOLD_S = 20.0
PAPER_MAX_SLEEP_S = 10.0
#: The figures' circular front, as Section 4 sets it up: released at the
#: centre of the 50 m x 50 m region after a 20 s quiet period, 1 m/s.
PAPER_FRONT = {"source": (25.0, 25.0), "speed": 1.0, "start": 20.0}

# ------------------------------------------------------------------ plume_storm
#: 5,000 nodes on a 646 m square, rescaled at constant density to 500 nodes.
PLUME_NODES = 500
PLUME_SIDE_M = 646.0 * math.sqrt(PLUME_NODES / 5000)
PLUME_RANGE_M = 20.0
#: A regular grid.  ``large_plume``'s 0.3-spacing jitter makes the RESPONSE
#: echo's size, and so the run's cost, swing by about +/-13% between seeds
#: (+/-5% at 0.15, +/-20% at 0.05): more than the benchmark's bound.  On the
#: regular grid the storm is the same for every seed.
PLUME_JITTER = 0.0
PLUME_DURATION_S = 30.0
PLUME_WIND_MPS = 4.0
PLUME_DIFFUSIVITY = 30.0
PLUME_EMISSION = 60_000.0
PLUME_THRESHOLD = 0.05
PLUME_SIGMA0_M = 1.0

# ------------------------------------------------------------------ lossy_fleet
FLEET_NODES = 10_000
FLEET_SIDE_M = 913.0
FLEET_RANGE_M = 20.0
#: A slow front that reaches a handful of nodes.  At ``large_grid``'s
#: 10 m/s it reaches ~90 nodes in 5 s, and the RESPONSE storm around it
#: swings the run's work by about +/-40% between seeds (64k to 146k
#: deliveries); at 2 m/s the work repeats within 1%.
FLEET_SPEED_MPS = 2.0
FLEET_DURATION_S = 5.0
FLEET_LOSS = 0.1
FLEET_JITTER_S = 0.002
FLEET_FAILURES_PER_NODE_HOUR = 20.0

#: The PAS settings of the single-run workloads (the paper's defaults).
PAS_CONFIG = PASConfig(
    base_sleep_interval=1.0,
    sleep_increment=1.0,
    max_sleep_interval=10.0,
    alert_threshold=20.0,
)


def plume_scenario(seed: int) -> ScenarioConfig:
    """A drifting Gaussian puff over a 500-node grid, perfect channel."""
    return ScenarioConfig(
        deployment=DeploymentConfig(
            kind="jittered_grid",
            num_nodes=PLUME_NODES,
            width=PLUME_SIDE_M,
            height=PLUME_SIDE_M,
            jitter=PLUME_JITTER,
        ),
        transmission_range=PLUME_RANGE_M,
        stimulus=StimulusConfig(
            kind="plume",
            source=(PLUME_SIDE_M / 2.0, PLUME_SIDE_M / 2.0),
            speed=PLUME_WIND_MPS,
            extra={
                "wind": (PLUME_WIND_MPS, 0.0),
                "diffusivity": PLUME_DIFFUSIVITY,
                "emission": PLUME_EMISSION,
                "threshold": PLUME_THRESHOLD,
                "sigma0": PLUME_SIGMA0_M,
            },
        ),
        duration=PLUME_DURATION_S,
        seed=seed,
        label="bench plume_storm",
    )


def fleet_scenario(seed: int) -> ScenarioConfig:
    """10,000 jittered-grid nodes, a slow circular front and every fault on."""
    return ScenarioConfig(
        deployment=DeploymentConfig(
            kind="jittered_grid",
            num_nodes=FLEET_NODES,
            width=FLEET_SIDE_M,
            height=FLEET_SIDE_M,
            jitter=0.3,
        ),
        transmission_range=FLEET_RANGE_M,
        stimulus=StimulusConfig(
            kind="circular",
            source=(FLEET_SIDE_M / 2.0, FLEET_SIDE_M / 2.0),
            speed=FLEET_SPEED_MPS,
        ),
        duration=FLEET_DURATION_S,
        seed=seed,
        faults=FaultConfig(
            node_failure_rate=FLEET_FAILURES_PER_NODE_HOUR,
            message_loss_probability=FLEET_LOSS,
            channel_jitter_s=FLEET_JITTER_S,
        ),
        label="bench lossy_fleet",
    )


# ------------------------------------------------------------------- rounds
def paper_figures_round(seed: int) -> Dict[str, Any]:
    """Regenerate Figs. 4-7 on the default serial backend.

    Each figure gets its own block of repetition seeds, so a round spans 24
    deployments rather than 6: the round's work then varies less between
    seeds (with one shared block, 218k to 251k events over six seeds).
    """
    common = dict(
        num_nodes=PAPER_NODES,
        transmission_range=PAPER_RANGE_M,
        repetitions=PAPER_REPETITIONS,
    )
    base = seed * 4 * PAPER_REPETITIONS
    sleep_sweep = dict(alert_threshold=PAPER_ALERT_THRESHOLD_S, **common)
    alert_sweep = dict(max_sleep_interval=PAPER_MAX_SLEEP_S, **common)
    return {
        "figure4": figures.figure4(PAPER_MAX_SLEEP_VALUES, base_seed=base, **sleep_sweep),
        "figure5": figures.figure5(PAPER_ALERT_THRESHOLDS, base_seed=base + 6, **alert_sweep),
        "figure6": figures.figure6(PAPER_MAX_SLEEP_VALUES, base_seed=base + 12, **sleep_sweep),
        "figure7": figures.figure7(PAPER_ALERT_THRESHOLDS, base_seed=base + 18, **alert_sweep),
    }


def plume_storm_round(seed: int) -> Dict[str, Any]:
    return {"summary": builder.run_scenario(plume_scenario(seed), _pas())}


def lossy_fleet_round(seed: int) -> Dict[str, Any]:
    return {"summary": builder.run_scenario(fleet_scenario(seed), _pas())}


def _pas():
    return SchedulerSpec("PAS", PAS_CONFIG).build()


# ------------------------------------------------------------------- checks
def paper_figures_checks(observations: List[dict], output: Dict[str, Any]) -> List[str]:
    errors = checks.check_runs(observations, PAPER_RANGE_M)
    for obs in observations:
        errors += checks.check_circular_front(obs, **PAPER_FRONT)
    errors += checks.check_fig6_ordering(output["figure6"].rows())
    return errors


def plume_storm_checks(observations: List[dict], output: Dict[str, Any]) -> List[str]:
    puff = checks.GaussianPuff(
        source=(PLUME_SIDE_M / 2.0, PLUME_SIDE_M / 2.0),
        wind=(PLUME_WIND_MPS, 0.0),
        diffusivity=PLUME_DIFFUSIVITY,
        emission=PLUME_EMISSION,
        threshold=PLUME_THRESHOLD,
        sigma0=PLUME_SIGMA0_M,
        start=0.0,
    )
    errors = checks.check_runs(observations, PLUME_RANGE_M)
    for obs in observations:
        errors += checks.check_plume_detections(obs, puff)
    return errors


def lossy_fleet_checks(observations: List[dict], output: Dict[str, Any]) -> List[str]:
    errors = checks.check_runs(observations, FLEET_RANGE_M)
    for obs in observations:
        errors += checks.check_circular_front(
            obs,
            source=(FLEET_SIDE_M / 2.0, FLEET_SIDE_M / 2.0),
            speed=FLEET_SPEED_MPS,
            start=0.0,
        )
        errors += checks.check_channel_and_failures(
            obs, loss=FLEET_LOSS, failures_per_node_hour=FLEET_FAILURES_PER_NODE_HOUR
        )
    return errors


@dataclass(frozen=True)
class Workload:
    #: simulation runs in one round (one operation = one run)
    runs_per_round: int
    run_round: Callable[[int], Dict[str, Any]]
    check: Callable[[List[dict], Dict[str, Any]], List[str]]
    #: transmission range, for the benchmark's own neighbour counts
    range_m: float


#: Why each workload was chosen is in ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Dict[str, Workload] = {
    "paper_figures": Workload(42 * PAPER_REPETITIONS, paper_figures_round, paper_figures_checks, PAPER_RANGE_M),
    "plume_storm": Workload(1, plume_storm_round, plume_storm_checks, PLUME_RANGE_M),
    "lossy_fleet": Workload(1, lossy_fleet_round, lossy_fleet_checks, FLEET_RANGE_M),
}
