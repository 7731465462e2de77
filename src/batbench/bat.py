"""Echolocation-inspired swarm search.

Each bat carries a position, velocity, frequency, loudness and pulse rate.
Per iteration every bat proposes one candidate: a frequency-scaled global
move, replaced (with probability 1 - pulse rate) by a random walk around
the swarm best scaled by the average loudness.  Improving candidates are
accepted with probability bounded by the bat's loudness; acceptance decays
the loudness geometrically and raises the pulse rate toward its initial
ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    Vector,
    clamp_to_bounds,
    counted_evaluate,
    uniform_sample,
)
from .results import Recorder, Sweeps, TrialResult, drive_trial

__all__ = [
    "BatParams",
    "Bat",
    "BatState",
    "init_bats",
    "frequency_and_global_move",
    "local_walk",
    "average_loudness",
    "accept_and_update",
    "bat_step",
    "run_bat",
]


@dataclass(frozen=True)
class BatParams:
    """Tuning knobs; defaults follow the reference configuration
    (n=40, f in [0,100], alpha=gamma=0.9, loudness in [1,2], pulse ceiling in [0,1]).

    ``velocity_toward_best`` flips the sign of the velocity increment so
    bats are pulled toward the swarm best instead of pushed past it; the
    default keeps the push-away form v += (x - x_best) * f.
    """

    n: int = 40
    f_min: float = 0.0
    f_max: float = 100.0
    alpha: float = 0.9
    gamma: float = 0.9
    loudness_range: tuple[float, float] = (1.0, 2.0)
    pulse_range: tuple[float, float] = (0.0, 1.0)
    max_iterations: int = 10_000
    velocity_toward_best: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("population size must be >= 1")
        # Equal ends are allowed: f_min = f_max = 0 disables the global move.
        if not (0.0 <= self.f_min <= self.f_max):
            raise ValueError("need 0 <= f_min <= f_max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        a_lo, a_hi = self.loudness_range
        if not (0.0 < a_lo <= a_hi):
            raise ValueError("loudness_range must have a positive lower end")
        r_lo, r_hi = self.pulse_range
        if not (0.0 <= r_lo <= r_hi <= 1.0):
            raise ValueError("pulse_range must lie within [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Bat:
    position: Vector
    velocity: Vector
    frequency: float
    loudness: float
    initial_loudness: float
    pulse_rate: float
    initial_pulse_rate: float
    value: float = math.inf  # objective at position, cached for ranking
    acceptance_log: list[int] = field(default_factory=list)


@dataclass
class BatState:
    """Full swarm state, confined to a single trial."""

    bats: list[Bat]
    best_position: Vector
    best_value: float
    iteration: int
    rng: RandomStream
    budget: EvalBudget
    budget_terminated: bool = False


def init_bats(
    params: BatParams, obj: Objective, rng: RandomStream, budget: EvalBudget
) -> BatState:
    """Draw and evaluate the initial population (n evaluations)."""
    if budget.remaining < params.n:
        raise BudgetExceededError(
            f"budget remaining {budget.remaining} cannot initialize {params.n} bats"
        )
    f_span = params.f_max - params.f_min
    a_lo, a_hi = params.loudness_range
    r_lo, r_hi = params.pulse_range
    bats = []
    for _ in range(params.n):
        position = uniform_sample(obj.bounds, rng)
        frequency = params.f_min + f_span * rng.uniform()
        loudness = a_lo + (a_hi - a_lo) * rng.uniform()
        pulse = r_lo + (r_hi - r_lo) * rng.uniform()
        bats.append(
            Bat(
                position=position,
                velocity=np.zeros(obj.dim),
                frequency=frequency,
                loudness=loudness,
                initial_loudness=loudness,
                pulse_rate=pulse,
                initial_pulse_rate=pulse,
            )
        )
    for bat in bats:
        bat.value = counted_evaluate(obj, bat.position, budget)
    best = min(bats, key=lambda b: b.value)
    return BatState(
        bats=bats,
        best_position=best.position,
        best_value=best.value,
        iteration=0,
        rng=rng,
        budget=budget,
    )


def frequency_and_global_move(
    bat: Bat, best: Vector, params: BatParams, bounds: Bounds, rng: RandomStream
) -> tuple[Vector, Vector, float]:
    """Frequency draw plus velocity/position update; one uniform draw."""
    beta = rng.uniform()
    frequency = params.f_min + (params.f_max - params.f_min) * beta
    delta = best - bat.position if params.velocity_toward_best else bat.position - best
    velocity = bat.velocity + delta * frequency
    position = clamp_to_bounds(bat.position + velocity, bounds)
    return velocity, position, frequency


def local_walk(
    base: Vector, avg_loudness: float, bounds: Bounds, rng: RandomStream
) -> Vector:
    """Uniform [-1,1] per-coordinate step around `base`, scaled by avg loudness."""
    if avg_loudness < 0.0:
        raise ValueError("avg_loudness must be non-negative")
    return clamp_to_bounds(base + rng.symmetric_vector(base.size) * avg_loudness, bounds)


def average_loudness(state: BatState) -> float:
    return sum(b.loudness for b in state.bats) / len(state.bats)


def accept_and_update(
    bat: Bat,
    candidate: Vector,
    candidate_value: float,
    state: BatState,
    params: BatParams,
    rng: RandomStream,
) -> bool:
    """Gated greedy acceptance; exactly one uniform draw in all cases.

    On acceptance the bat moves, its loudness decays to
    alpha^k * initial (k = accepted updates so far) and its pulse rate is
    reset to r0 * (1 - exp(-gamma * t)) at the current iteration t; the
    swarm best is updated.  Rejection leaves the bat where it was.
    """
    draw = rng.uniform()
    if draw < bat.loudness and candidate_value < state.best_value:
        bat.position = candidate
        bat.value = candidate_value
        bat.acceptance_log.append(state.iteration)
        bat.loudness = bat.initial_loudness * params.alpha ** len(bat.acceptance_log)
        bat.pulse_rate = bat.initial_pulse_rate * (
            1.0 - math.exp(-params.gamma * state.iteration)
        )
        state.best_position = candidate
        state.best_value = candidate_value
        return True
    return False


def bat_step(state: BatState, params: BatParams, obj: Objective) -> BatState:
    """One iteration: each bat proposes and is tested on one candidate.

    Consumes exactly n evaluations unless the budget runs out mid-sweep,
    in which case the state is flagged terminated and the iteration
    counter is left unchanged (the sweep did not complete).
    """
    avg = average_loudness(state)
    for bat in state.bats:
        velocity, moved, frequency = frequency_and_global_move(
            bat, state.best_position, params, obj.bounds, state.rng
        )
        bat.velocity = velocity
        bat.frequency = frequency
        candidate = moved
        if state.rng.uniform() > bat.pulse_rate:
            candidate = local_walk(state.best_position, avg, obj.bounds, state.rng)
        try:
            value = counted_evaluate(obj, candidate, state.budget)
        except BudgetExceededError:
            state.budget_terminated = True
            return state
        accept_and_update(bat, candidate, value, state, params, state.rng)
    state.iteration += 1
    return state


def _sweeps(params: BatParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    state = init_bats(params, obj, rng, budget)
    while True:
        positions = None if state.budget_terminated else np.array([b.position for b in state.bats])
        yield state.best_value, state.best_position, positions
        bat_step(state, params, obj)


def run_bat(
    params: BatParams,
    obj: Objective,
    seed: int,
    budget: EvalBudget,
    stop_at: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """Full trial: init, iterate to tolerance/budget/iteration limit.

    When a recorder is supplied it receives one TrajectoryRecord per
    completed iteration (all n positions plus the running best value).
    """
    return drive_trial(
        "bat", lambda rng: _sweeps(params, obj, budget, rng), params.n, params.max_iterations,
        obj, seed, budget, stop_at, recorder,
    )
