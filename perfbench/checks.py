"""Output checks, computed apart from the program.

:func:`observe` copies what the checks need out of a finished simulation
into plain NumPy arrays.  Every check after that uses only those arrays, the
workload's own inputs and the constants below (Table 1 of the paper); none
calls back into the program.  Each check returns a list of failure messages,
empty when the run passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Table 1 (Telos): total active power, sleep power, RX and TX power, data rate.
ACTIVE_W = 41e-3
SLEEP_W = 15e-6
RX_W = 38e-3
TX_W = 35e-3
RATE_BPS = 250_000.0

#: Rows per block in the pairwise neighbour count (bounds its memory).
_BLOCK = 128


def observe(simulation, summary) -> dict:
    """Copy one finished run's per-node ledgers and detections into arrays."""
    ids = sorted(simulation.nodes)
    nodes = [simulation.nodes[i] for i in ids]
    row = {node_id: r for r, node_id in enumerate(ids)}
    detect_t = np.full(len(ids), np.nan)
    for node_id, t in simulation.metrics.delay.detection_times.items():
        detect_t[row[node_id]] = t
    energy = [n.energy.breakdown for n in nodes]
    radio = [n.radio.stats for n in nodes]
    return {
        "scheduler": summary.scheduler,
        "duration": float(summary.duration_s),
        "max_sleep": float(simulation.scheduler.config.max_sleep_interval),
        "positions": np.array([(n.position.x, n.position.y) for n in nodes], float),
        "active_j": np.array([e.active_j for e in energy]),
        "sleep_j": np.array([e.sleep_j for e in energy]),
        "rx_j": np.array([e.rx_j for e in energy]),
        "tx_j": np.array([e.tx_j for e in energy]),
        "rx_bytes": np.array([s.rx_bytes for s in radio], np.int64),
        "tx_bytes": np.array([s.tx_bytes for s in radio], np.int64),
        "rx_frames": np.array([s.rx_messages for s in radio], np.int64),
        "tx_frames": np.array([s.tx_messages for s in radio], np.int64),
        "failed": np.array([n.is_failed for n in nodes], bool),
        "detect_t": detect_t,
        "num_reached": int(summary.delay.num_reached),
        "messages": dict(summary.messages),
    }


# ------------------------------------------------------------- every run
def check_time_conservation(obs: dict) -> List[str]:
    """Active time plus sleep time is the run length; less for failed nodes."""
    duration = obs["duration"]
    total = obs["active_j"] / ACTIVE_W + obs["sleep_j"] / SLEEP_W
    alive = ~obs["failed"]
    errors = []
    off = np.abs(total[alive] - duration) > 1e-7 * max(1.0, duration)
    if off.any():
        errors.append(
            f"time conservation: {int(off.sum())} live nodes account for "
            f"{total[alive][off][:3]} s, not {duration} s"
        )
    long_dead = total[obs["failed"]] >= duration
    if long_dead.any():
        errors.append(
            f"time conservation: {int(long_dead.sum())} failed nodes account "
            f"for the whole {duration} s"
        )
    return errors


def check_radio_energy(obs: dict) -> List[str]:
    """RX and TX energy are bytes x 8 / rate x power, node by node."""
    errors = []
    for side, watts in (("rx", RX_W), ("tx", TX_W)):
        expected = obs[f"{side}_bytes"] * 8.0 / RATE_BPS * watts
        off = ~np.isclose(obs[f"{side}_j"], expected, rtol=1e-9, atol=1e-15)
        if off.any():
            errors.append(
                f"radio energy: {int(off.sum())} nodes' {side.upper()} energy "
                f"is not their {side.upper()} bytes at Table 1 power"
            )
    return errors


def check_counters(obs: dict) -> List[str]:
    """Radio frame counters agree with the medium's counters."""
    messages = obs["messages"]
    errors = []
    if int(obs["tx_frames"].sum()) != messages["broadcasts"]:
        errors.append(
            f"counters: {int(obs['tx_frames'].sum())} TX frames but "
            f"{messages['broadcasts']} broadcasts"
        )
    if int(obs["rx_frames"].sum()) != messages["deliveries"]:
        errors.append(
            f"counters: {int(obs['rx_frames'].sum())} RX frames but "
            f"{messages['deliveries']} deliveries"
        )
    return errors


def neighbour_counts(positions: np.ndarray, radius: float) -> np.ndarray:
    """Nodes within ``radius`` of each node (itself excluded), blockwise."""
    counts = np.empty(len(positions), np.int64)
    r2 = radius * radius
    for lo in range(0, len(positions), _BLOCK):
        block = positions[lo : lo + _BLOCK]
        dx = block[:, None, 0] - positions[None, :, 0]
        dy = block[:, None, 1] - positions[None, :, 1]
        counts[lo : lo + _BLOCK] = ((dx * dx + dy * dy) <= r2).sum(axis=1) - 1
    return counts


def frames_addressed(obs: dict, radius: float) -> int:
    """Frames sent times each sender's neighbour count, summed over nodes."""
    if "degree" not in obs:
        obs["degree"] = neighbour_counts(obs["positions"], radius)
    return int((obs["tx_frames"] * obs["degree"]).sum())


def frame_outcomes(obs: dict) -> int:
    m = obs["messages"]
    return m["deliveries"] + m["losses"] + m["skipped_sleeping"] + m["skipped_failed"]


def check_frame_accounting(observations: List[dict], radius: float) -> List[str]:
    """Every addressed frame has one outcome, except the few still in flight."""
    errors = []
    addressed_total = 0
    gap_total = 0
    for i, obs in enumerate(observations):
        addressed = frames_addressed(obs, radius)
        gap = addressed - frame_outcomes(obs)
        if gap < 0:
            errors.append(
                f"frame accounting: run {i} counts {-gap} more outcomes than "
                f"the {addressed} frames addressed"
            )
        addressed_total += addressed
        gap_total += gap
    if gap_total > 0.01 * addressed_total:
        errors.append(
            f"frame accounting: {gap_total} of {addressed_total} addressed "
            "frames have no outcome"
        )
    return errors


def check_runs(observations: List[dict], radius: float) -> List[str]:
    """The checks every workload's runs must pass."""
    errors = check_frame_accounting(observations, radius)
    for obs in observations:
        errors += check_time_conservation(obs)
        errors += check_radio_energy(obs)
        errors += check_counters(obs)
    return errors


# --------------------------------------------------------- circular fronts
def check_circular_front(
    obs: dict, *, source: Sequence[float], speed: float, start: float
) -> List[str]:
    """Detections against the benchmark's own arrival times of the front."""
    pos = obs["positions"]
    duration = obs["duration"]
    max_sleep = obs["max_sleep"]
    arrival = start + np.hypot(pos[:, 0] - source[0], pos[:, 1] - source[1]) / speed
    reached = arrival <= duration
    detected = ~np.isnan(obs["detect_t"])
    errors = []
    if int(reached.sum()) != obs["num_reached"]:
        errors.append(
            f"front: the program reports {obs['num_reached']} reached nodes, "
            f"the front reaches {int(reached.sum())}"
        )
    delay = obs["detect_t"][detected] - arrival[detected]
    early = delay < -1e-9 * np.maximum(1.0, arrival[detected])
    if early.any():
        errors.append(
            f"front: {int(early.sum())} detections before the front arrived "
            f"(by up to {-delay.min():.3g} s)"
        )
    late = delay > max_sleep + 1e-9
    if late.any():
        errors.append(
            f"front: {int(late.sum())} detection delays exceed the "
            f"{max_sleep} s maximum sleep interval (up to {delay.max():.3g} s)"
        )
    missed = reached & ~detected & ~obs["failed"] & (arrival <= duration - max_sleep)
    if missed.any():
        errors.append(
            f"front: {int(missed.sum())} live nodes reached more than one "
            "maximum sleep interval before the end were never detected"
        )
    if obs["scheduler"] == "NS" and detected.any() and np.abs(delay).max() > 1e-9:
        errors.append(f"front: NS delay reaches {np.abs(delay).max():.3g} s, not 0")
    return errors


# ------------------------------------------------------------------- plume
@dataclass(frozen=True)
class GaussianPuff:
    """The closed-form drifting 2-D Gaussian puff."""

    source: Tuple[float, float]
    wind: Tuple[float, float]
    diffusivity: float
    emission: float
    threshold: float
    sigma0: float
    start: float

    def concentration(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        dt = np.maximum(times - self.start, 0.0)
        var = self.sigma0**2 + 2.0 * self.diffusivity * dt
        cx = self.source[0] + self.wind[0] * dt
        cy = self.source[1] + self.wind[1] * dt
        d2 = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2
        conc = self.emission / (2.0 * math.pi * var) * np.exp(-d2 / (2.0 * var))
        return np.where(times >= self.start, conc, 0.0)


def check_plume_detections(obs: dict, puff: GaussianPuff) -> List[str]:
    """Every detection happens where the puff is at or above its threshold."""
    detected = ~np.isnan(obs["detect_t"])
    if not detected.any():
        return ["plume: no node detected the plume"]
    conc = puff.concentration(obs["positions"][detected], obs["detect_t"][detected])
    below = conc < puff.threshold * (1.0 - 1e-9)
    if below.any():
        return [
            f"plume: {int(below.sum())} detections where the puff is below "
            f"threshold (lowest {conc.min():.3g} < {puff.threshold})"
        ]
    return []


# ------------------------------------------------------ channel and failures
def check_channel_and_failures(
    obs: dict, *, loss: float, failures_per_node_hour: float
) -> List[str]:
    """Loss share within binomial bounds, failures within Poisson bounds."""
    m = obs["messages"]
    errors = []
    draws = m["deliveries"] + m["losses"]
    if draws == 0:
        errors.append("channel: no frame reached the channel")
    else:
        share = m["losses"] / draws
        bound = 5.0 * math.sqrt(loss * (1.0 - loss) / draws)
        if abs(share - loss) > bound:
            errors.append(
                f"channel: loss share {share:.4f} is outside {loss} +/- {bound:.4f}"
            )
    expected = failures_per_node_hour / 3600.0 * len(obs["failed"]) * obs["duration"]
    failed = int(obs["failed"].sum())
    if abs(failed - expected) > 5.0 * math.sqrt(expected) + 1.0:
        errors.append(
            f"failures: {failed} nodes failed, Poisson mean is {expected:.1f}"
        )
    return errors


# --------------------------------------------------------------- figures
def check_fig6_ordering(rows: List[Dict[str, float]]) -> List[str]:
    """NS spends the most energy at every max-sleep point of Fig. 6."""
    errors = []
    for row in rows:
        for other in ("PAS", "SAS"):
            if not row["NS"] > row[other]:
                errors.append(
                    f"fig6: at max_sleep_s={row['max_sleep_s']} NS energy "
                    f"{row['NS']:.4g} J is not above {other}'s {row[other]:.4g} J"
                )
    return errors
