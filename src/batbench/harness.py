"""Seeded experiment protocol: multi-trial campaigns and their statistics.

Success means reaching the tolerance band around the known minimum before
the evaluation budget runs out; the comparison metric is the evaluation
count at first success.  Evaluation statistics are computed over
successful trials only (failed trials have no such count); the success
rate is reported separately over all trials.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

from .baselines import GaParams, PsoParams, run_ga, run_pso
from .bat import BatParams, run_bat
from .benchmarks import BenchmarkSpec
from .core import EvalBudget, TrajectoryRecord, derive_seed
from .results import ExperimentSummary, Recorder, TrialResult, check_stop_at

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "UnknownAlgorithmError",
    "TrialResult",
    "ExperimentSummary",
    "TrajectoryRecord",
    "lookup_algorithm",
    "default_params",
    "run_trial",
    "check_campaign",
    "experiment_trials",
    "summarize",
]

AlgorithmParams = BatParams | PsoParams | GaParams


class Algorithm(NamedTuple):
    """An optimizer: its params class, whose field defaults are the
    algorithm's defaults; its runner; and the params field each CLI flag sets."""

    params: type
    run: Callable[..., TrialResult]
    flags: dict[str, str]


ALGORITHMS = {
    "bat": Algorithm(
        BatParams,
        run_bat,
        {"alpha": "alpha", "gamma": "gamma", "fmin": "f_min", "fmax": "f_max"},
    ),
    "pso": Algorithm(
        PsoParams,
        run_pso,
        {"c1": "c1", "c2": "c2", "inertia": "inertia"},
    ),
    "ga": Algorithm(
        GaParams,
        run_ga,
        {"pm": "p_mutation", "pc": "p_crossover"},
    ),
}


class UnknownAlgorithmError(KeyError):
    """Algorithm identifier outside {bat, pso, ga}."""


def lookup_algorithm(name: str) -> Algorithm:
    """The ALGORITHMS entry of `name`; UnknownAlgorithmError if there is none."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise UnknownAlgorithmError(name) from None


def default_params(name: str) -> AlgorithmParams:
    return lookup_algorithm(name).params()


def run_trial(
    algorithm: str,
    spec: BenchmarkSpec,
    tolerance: Optional[float],
    max_evals: int,
    seed: int,
    params: Optional[AlgorithmParams] = None,
    recorder: Optional[Recorder] = None,
) -> TrialResult:
    """One seeded run of one algorithm against one benchmark."""
    entry = lookup_algorithm(algorithm)
    if params is None:
        params = entry.params()
    return entry.run(
        params, spec.objective, seed, EvalBudget(max_evals), stop_at=tolerance, recorder=recorder
    )


def check_campaign(
    spec: BenchmarkSpec, tolerance: Optional[float], max_evals: int, trials: int, workers: int
) -> None:
    """ValueError for a campaign that cannot run, raised before any trial
    starts: fewer than one trial or worker, a budget below one evaluation,
    or a tolerance that check_stop_at refuses."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    EvalBudget(max_evals)
    check_stop_at(tolerance, spec.objective)


def experiment_trials(
    algorithms: Sequence[str],
    spec: BenchmarkSpec,
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
    The settings are checked by check_campaign first; an algorithm named
    twice is a ValueError.  Each trial is a call of the module's run_trial,
    looked up when the campaign starts.
    """
    check_campaign(spec, tolerance, max_evals, trials, workers)
    for algorithm in algorithms:
        lookup_algorithm(algorithm)
    if len(set(algorithms)) < len(algorithms):
        raise ValueError("each algorithm may be named once")

    # One column per run_trial argument, one row per trial, algorithm-major.
    names = [algorithm for algorithm in algorithms for _ in range(trials)]
    seeds = [derive_seed(master_seed, algorithm, k) for algorithm in algorithms for k in range(trials)]
    params = [(params_by_algorithm or {}).get(algorithm) for algorithm in names]
    columns = (names, repeat(spec), repeat(tolerance), repeat(max_evals), seeds, params)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, *columns))
    else:
        outcomes = list(map(run_trial, *columns))
    return {algorithm: outcomes[i * trials : (i + 1) * trials] for i, algorithm in enumerate(algorithms)}


def summarize(results: Sequence[TrialResult]) -> ExperimentSummary:
    """Mean / sample-std of evaluations over successes, rate over all trials."""
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
