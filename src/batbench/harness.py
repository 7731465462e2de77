"""Seeded experiment protocol: the algorithm registry, the trial loop all
algorithms share, multi-trial campaigns and their statistics.

Success means reaching the tolerance band around the known minimum before
the evaluation budget runs out; the comparison metric is the evaluation
count at first success.  Evaluation statistics are computed over
successful trials only (failed trials have no such count); the success
rate is reported separately over all trials.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

from .baselines import GaParams, PsoParams, ga_sweeps, pso_sweeps
from .bat import BatParams, bat_sweeps
from .core import EvalBudget, Objective, RandomStream, Sweeps, TrajectoryRecord, derive_seed

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "UnknownAlgorithmError",
    "TrialResult",
    "ExperimentSummary",
    "TrajectoryRecord",
    "Recorder",
    "check_stop_at",
    "default_params",
    "trial_params",
    "run_trial",
    "check_campaign",
    "experiment_trials",
    "summarize",
]

AlgorithmParams = BatParams | PsoParams | GaParams
Recorder = Callable[[TrajectoryRecord], None]


class Algorithm(NamedTuple):
    """An optimizer: its params class, whose field defaults are the
    algorithm's defaults; its sweep generator, which run_trial runs; and
    the params field each CLI flag sets."""

    params: type
    sweeps: Callable[..., Sweeps]
    flags: dict[str, str]


ALGORITHMS = {
    "bat": Algorithm(
        BatParams,
        bat_sweeps,
        {"alpha": "alpha", "gamma": "gamma", "fmin": "f_min", "fmax": "f_max"},
    ),
    "pso": Algorithm(
        PsoParams,
        pso_sweeps,
        {"c1": "c1", "c2": "c2", "inertia": "inertia"},
    ),
    "ga": Algorithm(
        GaParams,
        ga_sweeps,
        {"pm": "p_mutation", "pc": "p_crossover"},
    ),
}


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded run of one algorithm on one objective."""

    algorithm: str
    function: str
    dim: int
    seed: int
    evaluations_used: int
    success: bool
    best_value: float
    iterations: int
    best_position: Optional[tuple[float, ...]] = None


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


class UnknownAlgorithmError(KeyError):
    """Any algorithm name not in ALGORITHMS."""


def default_params(name: str) -> AlgorithmParams:
    return trial_params(name, None)


def check_stop_at(stop_at: Optional[float], obj: Objective) -> None:
    """ValueError for a tolerance that is not finite, one below zero, or one
    on an objective without a known minimum to measure it from."""
    if stop_at is not None and not math.isfinite(stop_at):
        raise ValueError("tolerance must be finite")
    if stop_at is not None and stop_at < 0:
        raise ValueError("tolerance must be >= 0")
    if stop_at is not None and obj.known_min is None:
        raise ValueError(f"{obj.name} has no known minimum; tolerance-based success is undefined")


def trial_params(algorithm: str, params: Optional[AlgorithmParams]) -> AlgorithmParams:
    """`params`, or the algorithm's defaults for None; UnknownAlgorithmError
    for an unknown algorithm, ValueError for another algorithm's params."""
    try:
        entry = ALGORITHMS[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(algorithm) from None
    if params is None:
        return entry.params()
    if not isinstance(params, entry.params):
        raise ValueError(f"{algorithm} takes {entry.params.__name__}, not {type(params).__name__}")
    return params


def run_trial(
    algorithm: str,
    objective: Objective,
    tolerance: Optional[float],
    max_evals: int,
    seed: int,
    params: Optional[AlgorithmParams] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """One seeded run of one algorithm against one objective: initialise
    params.n agents, then sweep until a stop.  This is the one function
    that decides every stop.

    It starts ``ALGORITHMS[algorithm].sweeps(params, objective, budget,
    RandomStream(seed))``.  A budget below n skips the trial (no
    evaluation, no best position).  Otherwise the loop stops once the best
    is within ``tolerance`` of the known minimum, when the budget is spent,
    or after a sweep that charged fewer than n evaluations; such a sweep's
    evaluations still count towards the best but not as an iteration.
    There is no iteration cap: a budget of n*(t+1) runs exactly t sweeps.
    The recorder receives one TrajectoryRecord per complete sweep, with a
    copy of its positions.  Before any evaluation, in this order, an
    unknown algorithm, params that trial_params refuses, a budget that is
    not an integer (TypeError) or is below one evaluation, a tolerance that
    check_stop_at refuses and a seed that RandomStream refuses raise.
    """
    params = trial_params(algorithm, params)
    budget = EvalBudget(max_evals)
    check_stop_at(tolerance, objective)
    rng = RandomStream(seed)

    def tolerance_met(value: float) -> bool:
        return tolerance is not None and value - objective.known_min <= tolerance

    n = params.n
    best_value, best_position, iterations = math.inf, None, 0
    if budget.remaining >= n:
        trial = ALGORITHMS[algorithm].sweeps(params, objective, budget, rng)
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
        function=objective.name,
        dim=objective.dim,
        seed=seed,
        evaluations_used=budget.used,
        success=tolerance_met(best_value),
        best_value=best_value,
        iterations=iterations,
        best_position=None if best_position is None else tuple(float(v) for v in best_position),
    )


def check_campaign(
    algorithms: Sequence[str],
    objectives: Sequence[Objective],
    tolerance: Optional[float],
    max_evals: int,
    trials: int,
    workers: int,
) -> None:
    """Refuse a campaign that cannot run, before any trial starts, in this
    order: an unknown algorithm (UnknownAlgorithmError); then, as
    ValueError, an algorithm or objective name given twice (a registry alias
    names its function), fewer than one trial or worker, a budget below one
    evaluation, or a tolerance that check_stop_at refuses on an objective.
    A trial count, worker count or budget that is not an integer is a
    TypeError where its ValueError would be."""
    for algorithm in algorithms:
        trial_params(algorithm, None)
    if len(set(algorithms)) < len(algorithms) or len({o.name for o in objectives}) < len(objectives):
        raise ValueError("each algorithm and function may be named once")
    if operator.index(trials) < 1:
        raise ValueError("trials must be >= 1")
    if operator.index(workers) < 1:
        raise ValueError("workers must be >= 1")
    EvalBudget(max_evals)
    for objective in objectives:
        check_stop_at(tolerance, objective)


def experiment_trials(
    algorithms: Sequence[str],
    objective: Objective,
    tolerance: Optional[float],
    max_evals: int,
    trials: int,
    master_seed: int,
    params_by_algorithm: Optional[dict[str, AlgorithmParams]] = None,
    workers: int = 1,
) -> dict[str, list[TrialResult]]:
    """All trial results, keyed by algorithm, ordered by trial index.

    Trial k of each algorithm runs with the seed derived from
    (master_seed, algorithm, k), so results do not depend on `workers`.
    The campaign is checked by check_campaign first, so an algorithm
    named twice is a ValueError, and then each algorithm's params by
    trial_params.  Each trial is a call of the module's run_trial, looked
    up when the campaign starts.
    """
    check_campaign(algorithms, [objective], tolerance, max_evals, trials, workers)
    chosen = {a: trial_params(a, (params_by_algorithm or {}).get(a)) for a in algorithms}

    # One column per run_trial argument, one row per trial, algorithm-major.
    names = [algorithm for algorithm in algorithms for _ in range(trials)]
    seeds = [derive_seed(master_seed, algorithm, k) for algorithm in algorithms for k in range(trials)]
    params = [chosen[algorithm] for algorithm in names]
    columns = (names, repeat(objective), repeat(tolerance), repeat(max_evals), seeds, params)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded on use: it adds to a CLI child's peak RSS

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, *columns))
    else:
        outcomes = list(map(run_trial, *columns))
    return {algorithm: outcomes[i * trials : (i + 1) * trials] for i, algorithm in enumerate(algorithms)}


def summarize(results: Sequence[TrialResult]) -> ExperimentSummary:
    """Mean / sample-std of evaluations over successes, rate over all trials."""
    import statistics  # loaded on use: it adds to a CLI child's peak RSS

    if not results:
        raise ValueError("summarize requires at least one trial")
    successes = [r.evaluations_used for r in results if r.success]
    mean = statistics.fmean(successes) if successes else None
    std = statistics.stdev(successes) if len(successes) >= 2 else None
    return ExperimentSummary(
        mean_evals=mean,
        std_evals=std,
        success_rate=len(successes) / len(results),
        trial_count=len(results),
    )
