"""batbench: echolocation-inspired swarm optimizer, baselines, and harness.

Each public name loads from its module on first use (PEP 562), so importing
the package loads no numpy and the program can set its defaults first."""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "baselines": "GaParams PsoParams",
    "bat": "BatParams BatState",
    "benchmarks": "BenchmarkSpec benchmark_spec registry_names",
    "core": "Bounds BudgetExceededError EvalBudget Objective RandomStream TrajectoryRecord clamp_to_bounds "
            "counted_evaluate derive_seed",
    "harness": "ALGORITHMS ExperimentSummary TrialResult experiment_trials run_trial summarize",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def _main() -> None:
    """The installed ``batbench`` script: ``python -m batbench.cli``."""
    import runpy

    runpy.run_module(f"{__name__}.cli", run_name="__main__")
