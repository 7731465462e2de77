"""PSO and real-coded GA baselines sharing the trial contracts.

Both count every objective call against the shared budget (initialization
included) and report their best after each sweep; harness.run_trial, not
the optimizer, stops the trial at the tolerance or when the budget is
spent, and feeds the same trajectory-sink contract as the bat optimizer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Bounds,
    EvalBudget,
    Objective,
    RandomStream,
    Sweeps,
    clamp_to_bounds,
    counted_evaluate_rows,
)

__all__ = [
    "PsoParams",
    "GaParams",
    "pso_sweeps",
    "ga_sweeps",
    "GenerationDraws",
    "draw_generation",
]

# Without a velocity cap the inertia-1 update diverges; cap each velocity
# component at half the coordinate range.
VELOCITY_CLAMP_FRACTION = 0.5

# Gaussian mutation step as a fraction of the coordinate range.
MUTATION_SIGMA_FRACTION = 0.1


@dataclass(frozen=True)
class PsoParams:
    """Standard global-best PSO configuration (defaults c1=c2=2, inertia 1)."""

    n: int = 40
    c1: float = 2.0
    c2: float = 2.0
    inertia: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))  # TypeError for a float, never truncated
        if self.n < 2:
            raise ValueError("population size must be >= 2")
        # Written so that a NaN fails it.
        if not (0.0 <= self.c1 < math.inf and 0.0 <= self.c2 < math.inf):
            raise ValueError("learning parameters must be non-negative and finite")
        if not math.isfinite(self.inertia):
            raise ValueError("inertia must be finite")


@dataclass(frozen=True)
class GaParams:
    """Generational real-coded GA without elitism (defaults pm=0.05, pc=0.95)."""

    n: int = 40
    p_mutation: float = 0.05
    p_crossover: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))  # TypeError for a float, never truncated
        if self.n < 2:
            raise ValueError("population size must be >= 2")
        if not 0.0 <= self.p_mutation <= 1.0:
            raise ValueError("p_mutation must lie in [0, 1]")
        if not 0.0 <= self.p_crossover <= 1.0:
            raise ValueError("p_crossover must lie in [0, 1]")


def _initial_population(bounds: Bounds, n: int, rng: RandomStream) -> np.ndarray:
    """n points uniform over the box, from one block of n*d draws (the same
    draws as n points of d)."""
    return bounds.lower + rng.uniform_vector(n * bounds.dim).reshape(n, bounds.dim) * bounds.width


def pso_sweeps(params: PsoParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    """Global-best PSO: v <- I v + c1 u1 (pbest - x) + c2 u2 (gbest - x)."""
    n, d = params.n, obj.dim
    bounds = obj.bounds
    x = _initial_population(bounds, n, rng)
    v = np.zeros((n, d))
    values = counted_evaluate_rows(obj, x, budget)
    pbest = x.copy()
    pbest_val = values.copy()
    g = int(np.argmin(values))
    gbest = x[g].copy()
    gbest_val = float(values[g])
    vmax = VELOCITY_CLAMP_FRACTION * bounds.width
    while True:
        yield gbest_val, gbest, x
        u1, u2 = rng.uniform_vector(2 * n * d).reshape(2, n, d)
        v = params.inertia * v + params.c1 * u1 * (pbest - x) + params.c2 * u2 * (gbest - x)
        np.clip(v, -vmax, vmax, out=v)
        x = clamp_to_bounds(x + v, bounds)
        # A sweep the budget cuts short keeps the values it got.  Strict
        # improvement and argmin's first minimum give the particle-by-particle
        # updates' result.
        values = counted_evaluate_rows(obj, x, budget)
        k = values.size
        improved = np.flatnonzero(values < pbest_val[:k])
        pbest[improved] = x[improved]
        pbest_val[improved] = values[improved]
        g = int(np.argmin(values))
        if values[g] < gbest_val:
            gbest_val = float(values[g])
            gbest = x[g].copy()


class GenerationDraws(NamedTuple):
    """The draws of one GA generation, taken before any of its arithmetic."""

    picks: np.ndarray  # (n,) roulette draws: a and b of each pair, then the extra
    crossed: np.ndarray  # (n // 2,) whether each pair's crossover fired
    take_a: np.ndarray  # (n // 2, d) child one takes parent a's gene; all True unless crossed
    mutate: np.ndarray  # (n, d) genes that mutate
    steps: np.ndarray  # (n, d) standard normal mutation steps


def draw_generation(
    rng: RandomStream, n: int, d: int, p_crossover: float, p_mutation: float
) -> GenerationDraws:
    """Draw a generation's selection, crossover and mutation variates.

    The layout depends on no objective value.  Per pair: two roulette draws
    and the crossover gate (fires below p_crossover); when it fires, d mask
    draws (child one takes a's gene below 0.5); then child one's d mutation
    draws (mutates below p_mutation) and d normal steps, then child two's.
    An odd n ends with one roulette draw, d mutation draws and d steps for
    the extra child.  A pair's draws up to child one's steps come as one
    block of 3 + 2d uniforms, and a pair whose gate does not fire gives the
    last d back, so that its mutation draws are the d after the gate.
    Normal draws stay separate calls, as a ziggurat draw takes a variable
    number of raw outputs.
    """
    pairs = n // 2
    heads = np.empty((pairs, 3 + 2 * d))
    mutate_u = np.empty((n, d))
    steps = np.empty((n, d))
    for head, steps_a, mutate_b, steps_b in zip(heads, steps[::2], mutate_u[1::2], steps[1::2]):
        rng.uniform_vector(out=head)
        if head[2] >= p_crossover:
            rng.rewind(d)
        rng.normal_vector(out=steps_a)
        rng.uniform_vector(out=mutate_b)
        rng.normal_vector(out=steps_b)
    crossed = heads[:, 2] < p_crossover
    masks = heads[:, 3 : 3 + d]
    mutate_u[0 : 2 * pairs : 2] = np.where(crossed[:, None], heads[:, 3 + d :], masks)
    picks = np.empty(n)
    picks[: 2 * pairs] = heads[:, :2].ravel()
    if n % 2:
        tail = rng.uniform_vector(1 + d)
        picks[-1] = tail[0]
        mutate_u[-1] = tail[1:]
        rng.normal_vector(out=steps[-1])
    return GenerationDraws(picks, crossed, ~crossed[:, None] | (masks < 0.5), mutate_u < p_mutation, steps)


def ga_sweeps(params: GaParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    """Generational GA: rank-weighted roulette selection, uniform crossover,
    per-gene Gaussian mutation (sigma = 10% of range), full replacement.

    No elitism: the best-ever individual is tracked for reporting only and
    is never reinserted.
    """
    n, d = params.n, obj.dim
    paired = 2 * (n // 2)
    bounds = obj.bounds
    sigma = MUTATION_SIGMA_FRACTION * bounds.width
    pop = _initial_population(bounds, n, rng)
    values = counted_evaluate_rows(obj, pop, budget)
    b = int(np.argmin(values))
    best_val = float(values[b])
    best_pos = pop[b].copy()
    while True:
        yield best_val, best_pos, pop
        draws = draw_generation(rng, n, d, params.p_crossover, params.p_mutation)
        # Rank transform: best individual gets weight n, worst gets 1.
        weights = np.empty(n)
        weights[np.argsort(values, kind="stable")] = np.arange(n, 0, -1)
        cumulative = np.cumsum(weights)
        parents = pop[np.searchsorted(cumulative, draws.picks * cumulative[-1], side="right")]
        # Uniform crossover within each pair; an odd n's extra child copies its parent.
        offspring = parents.copy()
        a, b = parents[0:paired:2], parents[1:paired:2]
        offspring[0:paired:2] = np.where(draws.take_a, a, b)
        offspring[1:paired:2] = np.where(draws.take_a, b, a)
        # Gaussian mutation of the masked genes only: adding a zero step
        # elsewhere would turn -0.0 into 0.0.
        mutated = np.where(draws.mutate, offspring + draws.steps * sigma, offspring)
        offspring = clamp_to_bounds(mutated, bounds)

        new_values = counted_evaluate_rows(obj, offspring, budget)
        # A partial generation still counts its observations.
        j = int(np.argmin(new_values))
        if new_values[j] < best_val:
            best_val = float(new_values[j])
            best_pos = offspring[j].copy()
        pop = offspring
        values = new_values

