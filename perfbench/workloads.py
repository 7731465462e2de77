"""The benchmark's workloads: the batbench CLI invocations each one runs.

Every workload spends a fixed number of objective evaluations whatever the
seed (no trial reaches its tolerance), so its wall time depends on the code
and not on the inputs.  Sizes grow with the run length so that one round
takes about a twentieth of it on a 2-CPU machine at the parent commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DIM = 16
POP = 40
MAX_EVALS = 10_000
TOLERANCE = "1e-5"

# Registry names as the CLI writes them in its rows.
CANONICAL = {"dejong": "dejong_sphere", "rastrigin": "rastrigin"}


@dataclass(frozen=True)
class Invocation:
    """One `batbench run` or `batbench trace` command line."""

    command: str  # "run" | "trace"
    algorithm: str
    function: str
    seed: int
    trials: int = 0  # run only
    iters: int = 0  # trace only
    workers: int = 1  # run only

    @property
    def label(self) -> str:
        return f"{self.command}-{self.algorithm}-{self.function}"

    def argv(self, output: Path) -> list[str]:
        common = [
            "--algorithm", self.algorithm, "--function", self.function,
            "--dim", str(DIM), "--seed", str(self.seed), "--output", str(output),
        ]
        if self.command == "run":
            return [
                "run", *common, "--tolerance", TOLERANCE,
                "--max-evals", str(MAX_EVALS), "--trials", str(self.trials),
                "--workers", str(self.workers),
            ]
        return ["trace", *common, "--pop", str(POP), "--iters", str(self.iters)]


def _bat_sphere16(seed: int, seconds: int) -> list[Invocation]:
    # Criterion 4's campaign: ~0.22 s per 10,000-evaluation trial.
    return [Invocation("run", "bat", "dejong", seed, trials=max(1, seconds // 5))]


def _baselines_rastrigin16(seed: int, seconds: int) -> list[Invocation]:
    # ~0.12 s per PSO trial and ~0.37 s per GA trial.
    trials = max(1, seconds // 10)
    return [
        Invocation("run", "pso", "rastrigin", seed, trials=trials),
        Invocation("run", "ga", "rastrigin", seed, trials=trials),
    ]


def _trace_sphere16(seed: int, seconds: int) -> list[Invocation]:
    # ~1.9 ms per traced iteration of 40 bats, 12.9 KB written per line.
    return [Invocation("trace", "bat", "dejong", seed, iters=20 * seconds)]


WORKLOADS = {
    "bat-sphere16": _bat_sphere16,
    "baselines-rastrigin16": _baselines_rastrigin16,
    "trace-sphere16": _trace_sphere16,
}
