"""PSO and real-coded GA baselines sharing the trial contracts.

Both count every objective call against the shared budget (initialization
included), stop at tolerance / budget / iteration limits, and feed the
same trajectory-sink contract as the bat optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    Vector,
    counted_evaluate,
    uniform_sample,
)
from .results import Recorder, Sweeps, TrialResult, drive_trial

__all__ = [
    "PsoParams",
    "GaParams",
    "run_pso",
    "run_ga",
    "crossover_pair",
    "mutate_genes",
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
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("population size must be >= 2")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("learning parameters must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class GaParams:
    """Generational real-coded GA without elitism (defaults pm=0.05, pc=0.95)."""

    n: int = 40
    p_mutation: float = 0.05
    p_crossover: float = 0.95
    max_generations: int = 10_000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("population size must be >= 2")
        if not 0.0 <= self.p_mutation <= 1.0:
            raise ValueError("p_mutation must lie in [0, 1]")
        if not 0.0 <= self.p_crossover <= 1.0:
            raise ValueError("p_crossover must lie in [0, 1]")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


def _pso_sweeps(params: PsoParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    n, d = params.n, obj.dim
    bounds = obj.bounds
    x = np.stack([uniform_sample(bounds, rng) for _ in range(n)])
    v = np.zeros((n, d))
    values = np.array([counted_evaluate(obj, xi, budget) for xi in x])
    pbest = x.copy()
    pbest_val = values.copy()
    g = int(np.argmin(values))
    gbest = x[g].copy()
    gbest_val = float(values[g])
    vmax = VELOCITY_CLAMP_FRACTION * bounds.width
    while True:
        yield gbest_val, gbest, x
        u1 = rng.uniform_vector(n * d).reshape(n, d)
        u2 = rng.uniform_vector(n * d).reshape(n, d)
        v = params.inertia * v + params.c1 * u1 * (pbest - x) + params.c2 * u2 * (gbest - x)
        np.clip(v, -vmax, vmax, out=v)
        x = np.clip(x + v, bounds.lower, bounds.upper)
        for i in range(n):
            try:
                fi = counted_evaluate(obj, x[i], budget)
            except BudgetExceededError:
                yield gbest_val, gbest, None
                return
            if fi < pbest_val[i]:
                pbest_val[i] = fi
                pbest[i] = x[i]
            if fi < gbest_val:
                gbest_val = fi
                gbest = x[i].copy()


def run_pso(
    params: PsoParams,
    obj: Objective,
    seed: int,
    budget: EvalBudget,
    stop_at: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """Global-best PSO: v <- I v + c1 u1 (pbest - x) + c2 u2 (gbest - x)."""
    return drive_trial(
        "pso", lambda rng: _pso_sweeps(params, obj, budget, rng), params.n, params.max_iterations,
        obj, seed, budget, stop_at, recorder,
    )


def _roulette(rng: RandomStream, cumulative: np.ndarray) -> int:
    u = rng.uniform() * cumulative[-1]
    return int(np.searchsorted(cumulative, u, side="right"))


def crossover_pair(
    rng: RandomStream, a: Vector, b: Vector, p_crossover: float
) -> tuple[Vector, Vector, bool]:
    """Uniform crossover applied with probability p_crossover.

    Returns both children and whether the operator fired; one uniform draw
    for the gate plus d mask draws when it does.
    """
    if rng.uniform() < p_crossover:
        mask = rng.uniform_vector(a.size) < 0.5
        return np.where(mask, a, b), np.where(mask, b, a), True
    return a.copy(), b.copy(), False


def mutate_genes(
    rng: RandomStream, child: Vector, p_mutation: float, sigma: Vector, bounds: Bounds
) -> np.ndarray:
    """Per-gene Gaussian mutation in place; returns the mutated-gene mask.

    Consumes d mask draws and d normal draws regardless of the mask, so
    the stream layout does not depend on outcomes.
    """
    mask = rng.uniform_vector(child.size) < p_mutation
    steps = rng.normal_vector(child.size)
    child[mask] += steps[mask] * sigma[mask]
    np.clip(child, bounds.lower, bounds.upper, out=child)
    return mask


def _ga_sweeps(params: GaParams, obj: Objective, budget: EvalBudget, rng: RandomStream) -> Sweeps:
    n = params.n
    bounds = obj.bounds
    sigma = MUTATION_SIGMA_FRACTION * bounds.width
    pop = np.stack([uniform_sample(bounds, rng) for _ in range(n)])
    values = np.array([counted_evaluate(obj, p, budget) for p in pop])
    b = int(np.argmin(values))
    best_val = float(values[b])
    best_pos = pop[b].copy()
    while True:
        yield best_val, best_pos, pop
        # Rank transform: best individual gets weight n, worst gets 1.
        order = np.argsort(values, kind="stable")
        weights = np.empty(n)
        weights[order] = np.arange(n, 0, -1)
        cumulative = np.cumsum(weights)

        offspring = np.empty_like(pop)
        for pair in range(n // 2):
            pa = pop[_roulette(rng, cumulative)]
            pb = pop[_roulette(rng, cumulative)]
            c1, c2, _ = crossover_pair(rng, pa, pb, params.p_crossover)
            mutate_genes(rng, c1, params.p_mutation, sigma, bounds)
            mutate_genes(rng, c2, params.p_mutation, sigma, bounds)
            offspring[2 * pair] = c1
            offspring[2 * pair + 1] = c2
        if n % 2:
            extra = pop[_roulette(rng, cumulative)].copy()
            mutate_genes(rng, extra, params.p_mutation, sigma, bounds)
            offspring[-1] = extra

        new_values = np.empty(n)
        for i in range(n):
            try:
                new_values[i] = counted_evaluate(obj, offspring[i], budget)
            except BudgetExceededError:
                # Partial generation still counts its observations.
                for j in range(i):
                    if new_values[j] < best_val:
                        best_val = float(new_values[j])
                        best_pos = offspring[j].copy()
                yield best_val, best_pos, None
                return
        pop = offspring
        values = new_values
        b = int(np.argmin(values))
        if values[b] < best_val:
            best_val = float(values[b])
            best_pos = pop[b].copy()


def run_ga(
    params: GaParams,
    obj: Objective,
    seed: int,
    budget: EvalBudget,
    stop_at: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """Generational GA: rank-weighted roulette selection, uniform crossover,
    per-gene Gaussian mutation (sigma = 10% of range), full replacement.

    No elitism: the best-ever individual is tracked for reporting only and
    is never reinserted.
    """
    return drive_trial(
        "ga", lambda rng: _ga_sweeps(params, obj, budget, rng), params.n, params.max_generations,
        obj, seed, budget, stop_at, recorder,
    )
