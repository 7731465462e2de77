"""The traced pass: per-layer numbers from one in-process run of a workload.

Each invocation goes through ``batbench.cli.run_cli`` in this process, one
call after another: untraced, traced, and for ``run`` untraced again with
``--workers 2``.  Tracing wraps, from outside the package,

- the objective of every spec the CLI resolves (``dataclasses.replace`` on
  the public ``Objective``), counted and timed into the enclosing span;
- ``experiment_trials`` and ``run_trial`` as ``cli`` and ``harness`` call them;
- ``run_cli`` itself.

Spans ``[name, start_ns, end_ns, parent, objective_calls, objective_ns]``
stay in memory and are written out at the end.  A span's self time is its
duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from batbench import cli, core, harness
from checks import Checker
from workloads import DIM, POP, Invocation

NAME, START, END, PARENT, CALLS, BUSY = range(6)
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "objective_calls", "objective_ns")
RUN_TRIAL = "harness.run_trial."
# Fields per `run` row; a trace line holds its positions, `iter` and `best`.
RUN_FIELDS = 9

# Metrics of every workload, then those of layers a workload may not run
# (None there), each with its unit.
PER_LAYER = {
    "benchmarks.calls": "count",
    "benchmarks.busy_s": "s",
    "benchmarks.us_per_call": "us",
    "core.uniform_us": "us",
    "core.uniform_vector_us": "us",
    "core.clamp_us": "us",
    "core.counted_evaluate_us": "us",
    "optimizer.self_s": "s",
    "optimizer.us_per_eval": "us",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.format_us_per_value": "us",
    "tracing.overhead_s": "s",
}
BY_WORKLOAD = {
    **{f"{a}.{m}": u for a in harness.ALGORITHMS for m, u in (("self_s", "s"), ("us_per_eval", "us"))},
    "harness.dispatch_s": "s",
    "harness.speedup_2w": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name_of, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name_of(args), time.perf_counter_ns(), 0, parent, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def objective(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def timed(x):
            start = clock()
            value = fn(x)
            elapsed = clock() - start
            span = spans[stack[-1]]
            span[CALLS] += 1
            span[BUSY] += elapsed
            return value

        return timed


@contextmanager
def _patched(tracer: Tracer):
    originals = [
        (cli, "benchmark_spec", cli.benchmark_spec),
        (cli, "experiment_trials", cli.experiment_trials),
        (cli, "run_trial", cli.run_trial),
        (harness, "run_trial", harness.run_trial),
    ]
    resolve = cli.benchmark_spec

    def traced_spec(*args, **kwargs):
        spec = resolve(*args, **kwargs)
        objective = dataclasses.replace(spec.objective, fn=tracer.objective(spec.objective.fn))
        return dataclasses.replace(spec, objective=objective)

    def trial_name(args):
        return RUN_TRIAL + args[0]

    cli.benchmark_spec = traced_spec
    cli.experiment_trials = tracer.span(lambda args: "harness.experiment_trials", cli.experiment_trials)
    cli.run_trial = tracer.span(trial_name, cli.run_trial)
    harness.run_trial = tracer.span(trial_name, harness.run_trial)
    try:
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


def _mean_call_us(fn, args, calls: int = 20_000) -> float:
    start = time.perf_counter()
    for _ in repeat(None, calls):
        fn(*args)
    return (time.perf_counter() - start) / calls * 1e6


def _per_call_us(fn, *args, repeats: int = 7) -> float:
    """Median over `repeats` of a mean call time, in µs."""
    return statistics.median(_mean_call_us(fn, args) for _ in range(repeats))


def _overhead_us(fn, args, base, base_args, repeats: int = 7) -> float:
    """Median of paired differences fn - base, timed back to back, in µs."""
    return statistics.median(
        _mean_call_us(fn, args) - _mean_call_us(base, base_args) for _ in range(repeats)
    )


def _core_metrics() -> dict[str, float]:
    """The `core` layer's public functions, timed at d=16."""
    stream = core.RandomStream(1)
    bounds = core.Bounds.cube(-10.0, 10.0, DIM)
    x = np.linspace(-20.0, 20.0, DIM)

    # A constant objective, so that the overhead is not lost in the noise of a real one.
    def zero(v):
        return 0.0

    objective = core.Objective("zero", DIM, bounds, zero, 0.0)
    budget = core.EvalBudget(10**12)
    return {
        "core.uniform_us": _per_call_us(stream.uniform),
        "core.uniform_vector_us": _per_call_us(stream.uniform_vector, DIM),
        "core.clamp_us": _per_call_us(core.clamp_to_bounds, x, bounds),
        "core.counted_evaluate_us": _overhead_us(
            core.counted_evaluate, (objective, x, budget), zero, (x,)
        ),
    }


def _values_written(inv: Invocation) -> int:
    if inv.command == "run":
        return RUN_FIELDS * inv.trials
    return inv.iters * (POP * DIM + 2)


def _call_cli(tracer: Tracer, traced: bool, argv: list[str]) -> tuple[int, float]:
    """(exit code, wall seconds) of one in-process CLI call."""
    start = time.perf_counter()
    if traced:
        with _patched(tracer):
            code = tracer.span(lambda args: "cli.run_cli", cli.run_cli)(argv)
    else:
        code = cli.run_cli(argv)
    return code, time.perf_counter() - start


def run(invocations: list[Invocation], checker: Checker, ops,
        out_dir: Path, spans_path: Path) -> tuple[dict, dict]:
    """(per-layer metrics, metrics of layers the workload may not run)."""
    tracer = Tracer()
    walls: dict[str, float] = defaultdict(float)
    values = output_bytes = 0
    for inv in invocations:
        modes = [("untraced", inv), ("traced", inv)]
        if inv.command == "run":
            modes.append(("workers2", dataclasses.replace(inv, workers=2)))
        for mode, variant in modes:
            output = out_dir / f"{variant.label}.{mode}.out"
            label = f"{variant.label} {mode}"
            code, wall = _call_cli(tracer, mode == "traced", variant.argv(output))
            ops.record([] if code == 0 else [f"{label}: exit {code}"])
            if code == 0 and output.is_file():
                ops.record(checker.check(variant, output.read_bytes())[0])
            else:
                ops.record([f"{label}: no output to check"])
            walls[mode] += wall
            if inv.command == "run" and mode != "traced":
                walls[f"run.{mode}"] += wall
            if mode == "traced":
                values += _values_written(inv)
                output_bytes += output.stat().st_size if output.is_file() else 0
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
    return _layer_metrics(tracer.spans, walls, values, output_bytes)


def _layer_metrics(spans: list[list], walls: dict, values: int, output_bytes: int):
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]

    def self_s(name: str):
        selves = [s[END] - s[START] - children[i] for i, s in enumerate(spans) if s[NAME] == name]
        return sum(selves) / 1e9 if selves else None

    trials: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # algorithm -> [self ns, calls]
    for span in spans:
        if span[NAME].startswith(RUN_TRIAL):
            entry = trials[span[NAME][len(RUN_TRIAL):]]
            entry[0] += span[END] - span[START] - span[BUSY]
            entry[1] += span[CALLS]
    calls = sum(s[CALLS] for s in spans)
    per_call = 1 / calls / 1e3 if calls else 0.0  # ns -> µs per call; 0 when every call failed
    busy_ns = sum(s[BUSY] for s in spans)
    optimizer_ns = sum(entry[0] for entry in trials.values())
    cli_self = self_s("cli.run_cli")
    per_layer = {
        "benchmarks.calls": calls,
        "benchmarks.busy_s": busy_ns / 1e9,
        "benchmarks.us_per_call": busy_ns * per_call,
        **_core_metrics(),
        "optimizer.self_s": optimizer_ns / 1e9,
        "optimizer.us_per_eval": optimizer_ns * per_call,
        "cli.self_s": cli_self,
        "cli.output_bytes": output_bytes,
        "cli.format_us_per_value": cli_self / values * 1e6,
        "tracing.overhead_s": walls["traced"] - walls["untraced"],
    }
    by_workload = {}
    for algorithm in harness.ALGORITHMS:
        own_ns, own_calls = trials.get(algorithm, (0, 0))
        by_workload[f"{algorithm}.self_s"] = own_ns / 1e9 if own_calls else None
        by_workload[f"{algorithm}.us_per_eval"] = own_ns / own_calls / 1e3 if own_calls else None
    by_workload["harness.dispatch_s"] = self_s("harness.experiment_trials")
    w2 = walls.get("run.workers2")
    by_workload["harness.speedup_2w"] = walls["run.untraced"] / w2 if w2 else None
    return per_layer, by_workload
