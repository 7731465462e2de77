"""batbench: echolocation-inspired swarm optimizer, baselines, and harness."""

__version__ = "0.1.0"

from .baselines import GaParams, PsoParams
from .bat import BatParams, BatState
from .benchmarks import BenchmarkSpec, benchmark_spec, registry_names
from .core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    TrajectoryRecord,
    clamp_to_bounds,
    counted_evaluate,
    derive_seed,
)
from .harness import (
    ALGORITHMS,
    ExperimentSummary,
    TrialResult,
    experiment_trials,
    run_trial,
    summarize,
)

__all__ = [
    "__version__",
    "ALGORITHMS",
    "BatParams",
    "BatState",
    "BenchmarkSpec",
    "Bounds",
    "BudgetExceededError",
    "EvalBudget",
    "ExperimentSummary",
    "GaParams",
    "Objective",
    "PsoParams",
    "RandomStream",
    "TrajectoryRecord",
    "TrialResult",
    "benchmark_spec",
    "clamp_to_bounds",
    "counted_evaluate",
    "derive_seed",
    "experiment_trials",
    "registry_names",
    "run_trial",
    "summarize",
]
