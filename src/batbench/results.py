"""Per-trial and per-experiment result records, and the trial loop that
all algorithms share."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .core import EvalBudget, Objective, RandomStream, TrajectoryRecord, Vector

__all__ = ["TrialResult", "ExperimentSummary", "Recorder", "Sweeps", "check_stop_at", "drive_trial"]

Recorder = Callable[[TrajectoryRecord], None]

# (best value, best position, positions) after initialisation and after each
# sweep.  A sweep only reports: drive_trial starts one only while budget is
# left, and decides whether it counts.
Sweeps = Iterator[tuple[float, Vector, np.ndarray]]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded run of one algorithm on one objective.

    ``wall_time`` is excluded from equality so that two runs with the same
    seed compare equal field-for-field, as the determinism contract
    requires.
    """

    algorithm: str
    function: str
    dim: int
    seed: int
    evaluations_used: int
    success: bool
    best_value: float
    iterations: int
    best_position: Optional[tuple[float, ...]] = None
    wall_time: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate over one algorithm's trials.

    mean/std are computed over *successful* trials only (failed trials
    have no evaluations-to-success count); they are None when no trial
    (mean) or fewer than two trials (std) succeeded.  success_rate is
    over all trials.
    """

    mean_evals: Optional[float]
    std_evals: Optional[float]
    success_rate: float
    trial_count: int


def check_stop_at(stop_at: Optional[float], obj: Objective) -> None:
    """ValueError for a tolerance that is not finite, one below zero, or one
    on an objective without a known minimum to measure it from."""
    if stop_at is not None and not math.isfinite(stop_at):
        raise ValueError("tolerance must be finite")
    if stop_at is not None and stop_at < 0:
        raise ValueError("tolerance must be >= 0")
    if stop_at is not None and obj.known_min is None:
        raise ValueError(f"{obj.name} has no known minimum; tolerance-based success is undefined")


def drive_trial(
    algorithm: str,
    sweeps: Callable[..., Sweeps],
    params,
    obj: Objective,
    seed: int,
    budget: EvalBudget,
    stop_at: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """One trial: initialise params.n agents, then sweep until a stop.  This
    is the one function that decides every stop.

    ``sweeps(params, obj, budget, rng)`` starts the algorithm on the
    trial's stream.  A budget below n skips the trial (no evaluation, no
    best position).  Otherwise the loop stops once the best is within
    ``stop_at`` of the known minimum, when the budget is spent, or after a
    sweep that charged fewer than n evaluations; such a sweep's
    evaluations still count towards the best but not as an iteration.
    There is no iteration cap: a budget of n*(t+1) runs exactly t sweeps.
    The recorder receives one TrajectoryRecord per complete sweep, with a
    copy of its positions.  A ``stop_at`` that check_stop_at refuses
    raises ValueError.
    """
    check_stop_at(stop_at, obj)
    start = time.perf_counter()

    def tolerance_met(value: float) -> bool:
        return stop_at is not None and value - obj.known_min <= stop_at

    n = params.n
    best_value, best_position, iterations = math.inf, None, 0
    if budget.remaining >= n:
        trial = sweeps(params, obj, budget, RandomStream(seed))
        best_value, best_position, _ = next(trial)
        while not tolerance_met(best_value) and budget.remaining:
            used = budget.used
            best_value, best_position, positions = next(trial)
            if budget.used - used < n:
                break
            iterations += 1
            if recorder is not None:
                recorder(TrajectoryRecord(iterations, positions.copy(), best_value))
    return TrialResult(
        algorithm=algorithm,
        function=obj.name,
        dim=obj.dim,
        seed=seed,
        evaluations_used=budget.used,
        success=tolerance_met(best_value),
        best_value=best_value,
        iterations=iterations,
        best_position=None if best_position is None else tuple(float(v) for v in best_position),
        wall_time=time.perf_counter() - start,
    )
