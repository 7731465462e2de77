"""Echolocation-inspired swarm search.

Each bat carries a position, velocity, loudness and pulse rate, and draws
a new frequency before every move.  Per iteration every bat proposes one
candidate: a frequency-scaled global move, replaced (with probability
1 - pulse rate) by a random walk around the swarm best scaled by the
average loudness.  Improving candidates are accepted with probability
bounded by the bat's loudness; acceptance decays the loudness
geometrically and raises the pulse rate toward its initial ceiling.

The swarm is stored as a struct of arrays, and a sweep computes every
bat's move at once and scores the candidates as rows; only the acceptance
tests run bat by bat, because an acceptance moves the best that later
moves aim at.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    Sweeps,
    Vector,
    clamp_to_bounds,
    counted_evaluate_rows,
    counted_values,
)

__all__ = [
    "BatParams",
    "BatState",
    "init_bats",
    "global_move",
    "local_walk",
    "average_loudness",
    "accept",
    "bat_step",
    "bat_sweeps",
]


@dataclass(frozen=True)
class BatParams:
    """Tuning knobs; defaults follow the reference configuration
    (n=40, f in [0,100], alpha=gamma=0.9).
    """

    n: int = 40
    f_min: float = 0.0
    f_max: float = 100.0
    alpha: float = 0.9
    gamma: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))  # TypeError for a float, never truncated
        if self.n < 1:
            raise ValueError("population size must be >= 1")
        # Equal ends are allowed: f_min = f_max = 0 disables the global move.
        # Each check is written so that a NaN fails it.
        if not 0.0 <= self.f_min <= self.f_max < math.inf:
            raise ValueError("need 0 <= f_min <= f_max < inf")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")


@dataclass
class BatState:
    """The state of one trial's swarm, as a struct of arrays: row i of every
    array is bat i.

    ``acceptances[i]`` counts the moves bat i has accepted.
    """

    positions: np.ndarray  # (n, d)
    velocities: np.ndarray  # (n, d)
    loudness: np.ndarray  # (n,), and so on below
    initial_loudness: np.ndarray
    pulse_rates: np.ndarray
    initial_pulse_rates: np.ndarray
    acceptances: np.ndarray
    best_position: Vector
    best_value: float
    rng: RandomStream
    budget: EvalBudget
    iteration: int = 0


def init_bats(
    params: BatParams, obj: Objective, rng: RandomStream, budget: EvalBudget
) -> BatState:
    """Draw and evaluate the initial population (n evaluations).

    Bat by bat: d position draws, then one draw u each for the frequency
    (unused: each move draws its own), the loudness A0 = 1 + u and the
    pulse ceiling r0 = u.
    """
    if budget.remaining < params.n:
        raise BudgetExceededError(
            f"budget remaining {budget.remaining} cannot initialize {params.n} bats"
        )
    n, d, bounds = params.n, obj.dim, obj.bounds
    draws = rng.uniform_vector(n * (d + 3)).reshape(n, d + 3)
    positions = bounds.lower + draws[:, :d] * bounds.width
    loudness = 1.0 + draws[:, d + 1]
    pulse_rates = draws[:, d + 2]
    values = counted_evaluate_rows(obj, positions, budget)
    best = int(np.argmin(values))
    return BatState(
        positions,
        np.zeros((n, d)),
        loudness,
        loudness.copy(),
        pulse_rates,
        pulse_rates.copy(),
        np.zeros(n, dtype=int),
        positions[best].copy(),
        float(values[best]),
        rng,
        budget,
    )


# The printed rules.  Each is written once and works on one bat or on rows
# of bats; bat_step applies all of them.


def global_move(
    positions: np.ndarray, velocities: np.ndarray, best: Vector, beta, params: BatParams, bounds: Bounds
) -> tuple[np.ndarray, np.ndarray]:
    """f = f_min + (f_max - f_min) beta, v += (x - x*) f, x + v clamped.

    Returns (velocities, moved positions).
    """
    frequencies = params.f_min + (params.f_max - params.f_min) * beta
    velocities = velocities + (positions - best) * np.expand_dims(frequencies, -1)
    return velocities, clamp_to_bounds(positions + velocities, bounds)


def local_walk(base: Vector, draws: np.ndarray, avg_loudness: float, bounds: Bounds) -> np.ndarray:
    """x* + eps * mean loudness, clamped, with eps = 2u - 1 from uniform draws u."""
    if avg_loudness < 0.0:
        raise ValueError("avg_loudness must be non-negative")
    return clamp_to_bounds(base + (2.0 * draws - 1.0) * avg_loudness, bounds)


def average_loudness(state: BatState) -> float:
    """Mean loudness, summed left to right as the reference does."""
    loudness = state.loudness.tolist()
    return sum(loudness) / len(loudness)


def accept(state: BatState, i: int, candidate: Vector, value: float, params: BatParams) -> None:
    """Bat i moves to its candidate, which becomes the swarm best.

    After its k-th acceptance a bat's loudness is A0 alpha^k and its pulse
    rate r0 (1 - exp(-gamma t)) at iteration t.  The gate that decides an
    acceptance is bat_step's.
    """
    state.positions[i] = candidate
    state.acceptances[i] += 1
    state.loudness[i] = state.initial_loudness[i] * params.alpha ** int(state.acceptances[i])
    state.pulse_rates[i] = state.initial_pulse_rates[i] * (1.0 - math.exp(-params.gamma * state.iteration))
    state.best_position = candidate.copy()
    state.best_value = value


def _draw_layout(block: Vector, pulse_rates: list[float], d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each bat's draws start in a sweep's block, which bats walk, and
    how many draws the sweep uses.

    Bat by bat: a frequency draw, a walk-gate draw, d walk draws when the
    gate exceeds the bat's pulse rate, then an acceptance draw.
    """
    starts, walks, at = [], [], 0
    for pulse in pulse_rates:
        walk = block[at + 1] > pulse
        starts.append(at)
        walks.append(walk)
        at += 3 + d if walk else 3
    return np.array(starts), np.array(walks), at


def bat_step(state: BatState, params: BatParams, obj: Objective) -> BatState:
    """One iteration: each bat proposes and is tested on one candidate.

    Every bat's move is computed at once against the current best; the
    candidates are scored as rows and tested in order, and an acceptance,
    which moves the best, recomputes and rescores the bats after it.  Only
    the values tested are charged.  The sweep draws its worst case of
    n(3 + d) uniforms and gives back what it did not use, so the stream
    ends where bat-by-bat draws would leave it.

    Charges the first min(n, budget.remaining) candidates.
    """
    rng, bounds = state.rng, obj.bounds
    n, d = state.positions.shape
    avg = average_loudness(state)
    block = rng.uniform_vector(n * (3 + d))
    starts, walks, used = _draw_layout(block, state.pulse_rates.tolist(), d)
    betas = block[starts]
    walkers = np.flatnonzero(walks)
    walk_draws = block[starts[walkers, None] + 2 + np.arange(d)]
    accept_draws = block[starts + 2 + d * walks].tolist()
    # A bat's loudness changes only at its own acceptance, after its test.
    loudness = state.loudness.tolist()

    def moves(first: int) -> tuple[np.ndarray, np.ndarray]:
        """Velocities and candidates of bats first..n-1."""
        velocities, candidates = global_move(
            state.positions[first:], state.velocities[first:], state.best_position,
            betas[first:], params, bounds,
        )
        later = walkers >= first
        candidates[walkers[later] - first] = local_walk(
            state.best_position, walk_draws[later], avg, bounds
        )
        return velocities, candidates

    velocities, candidates = moves(0)
    evaluated = min(n, state.budget.remaining)
    values = counted_values(obj, candidates, state.budget)
    for i in range(evaluated):
        value = next(values)
        if accept_draws[i] < loudness[i] and value < state.best_value:
            accept(state, i, candidates[i], value, params)
            velocities[i + 1 :], candidates[i + 1 :] = moves(i + 1)
            values = counted_values(obj, candidates[i + 1 :], state.budget)
    state.velocities[:] = velocities
    rng.rewind(block.size - used)
    state.iteration += 1
    return state


def bat_sweeps(params: BatParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    """The bat algorithm: init_bats, then one bat_step per sweep."""
    state = init_bats(params, obj, rng, budget)
    while True:
        yield state.best_value, state.best_position, state.positions
        bat_step(state, params, obj)
