import ast
import dataclasses
import importlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batbench import harness
from batbench.benchmarks import benchmark_spec
from batbench.core import Bounds, EvalBudget, Objective, counted_evaluate_rows, derive_seed, scores_rows
from batbench.harness import (
    ALGORITHMS,
    UnknownAlgorithmError,
    ExperimentSummary,
    TrialResult,
    drive_trial,
    experiment_trials,
    run_trial,
    summarize,
)
from oracles import welford

SPHERE2 = benchmark_spec("dejong_sphere", 2).objective


def _trial(evals, success):
    return TrialResult(
        algorithm="bat",
        function="dejong_sphere",
        dim=2,
        seed=0,
        evaluations_used=evals,
        success=success,
        best_value=0.0,
        iterations=evals // 40,
    )


def test_summarize_hand_example():
    s = summarize([_trial(100, True), _trial(200, True), _trial(300, True)])
    assert s.mean_evals == 200.0
    assert s.std_evals == pytest.approx(100.0)
    assert s.success_rate == 1.0
    assert s.trial_count == 3


def test_summarize_single_success():
    s = summarize([_trial(500, True), _trial(900, False), _trial(900, False), _trial(900, False)])
    assert s.mean_evals == 500.0
    assert s.std_evals is None
    assert s.success_rate == 0.25


def test_summarize_identical_values():
    s = summarize([_trial(50, True)] * 3)
    assert s.std_evals == 0.0


def test_summarize_no_successes_and_empty():
    s = summarize([_trial(10, False), _trial(10, False)])
    assert s.mean_evals is None and s.std_evals is None and s.success_rate == 0.0
    with pytest.raises(ValueError):
        summarize([])


@given(st.lists(st.integers(min_value=1, max_value=100_000), min_size=2, max_size=60))
def test_summarize_matches_streaming_oracle(evals):
    trials = [_trial(e, True) for e in evals]
    s = summarize(trials)
    mean, std, count = welford(evals)
    assert s.mean_evals == pytest.approx(mean, rel=1e-9)
    assert s.std_evals == pytest.approx(std, rel=1e-9)
    assert s.trial_count == count


def test_run_trial_unknown_algorithm_and_missing_min():
    with pytest.raises(UnknownAlgorithmError):
        run_trial("annealer", SPHERE2, 1e-5, 1_000, 0)
    no_min = benchmark_spec("michalewicz", 16).objective
    with pytest.raises(ValueError):
        run_trial("bat", no_min, 1e-5, 1_000, 0)
    # without a tolerance the same objective runs fine
    r = run_trial("bat", no_min, None, 400, 0)
    assert r.evaluations_used == 400


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_params_field_is_set_from_the_cli(algorithm):
    # n is --pop; every other knob has its flag, so the config line records it.
    entry = ALGORITHMS[algorithm]
    fields = {field.name for field in dataclasses.fields(entry.params)}
    assert fields == {"n"} | set(entry.flags.values())


def test_drive_trial_counts_a_sweep_only_when_it_charged_n():
    # The sweeps never signal a cut: with n = 4 and a budget of 10 the
    # second sweep charges 2, ends the trial and is not an iteration.
    budget = EvalBudget(10)
    rows = np.zeros((4, 2))

    def sweeps(params, obj, budget, rng):
        while True:
            counted_evaluate_rows(obj, rows, budget)
            yield 0.0, rows[0], rows

    records = []
    result = drive_trial(
        "toy", sweeps, SimpleNamespace(n=4), SPHERE2, 0, budget, recorder=records.append
    )
    assert result.iterations == 1
    assert [r.iteration for r in records] == [1]
    assert result.evaluations_used == budget.used == 10


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
def test_runners_reject_an_undefined_tolerance(algorithm):
    # Without a known minimum, or with a NaN or negative tolerance, success
    # cannot be decided; each algorithm's trial raises before it evaluates
    # anything.
    entry = ALGORITHMS[algorithm]
    params = entry.params(n=4)
    no_min = Objective("nomin", 2, Bounds.cube(-1.0, 1.0, 2), lambda x: float(x @ x))
    for obj, stop_at in ((no_min, 1.0), (SPHERE2, math.nan), (SPHERE2, -1.0)):
        budget = EvalBudget(40)
        with pytest.raises(ValueError):
            drive_trial(algorithm, entry.sweeps, params, obj, 0, budget, stop_at=stop_at)
        assert budget.used == 0


def test_run_trial_budget_below_init():
    r = run_trial("bat", SPHERE2, 1e-5, 10, seed=5)
    assert not r.success
    assert r.evaluations_used <= 10


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
def test_run_trial_budget_below_population_evaluates_nothing(algorithm):
    r = run_trial(algorithm, benchmark_spec("dejong_sphere", 2).objective, None, 10, seed=3)
    assert r.best_value == math.inf
    assert r.best_position is None
    assert r.evaluations_used == 0
    assert r.iterations == 0


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
def test_nan_values_rank_worst(algorithm):
    # NaN on half the box: a NaN best would stop every later comparison.
    def half_nan(x):
        return math.nan if x[0] > 0 else float(np.sum(x * x))

    objective = dataclasses.replace(benchmark_spec("dejong_sphere", 4).objective, fn=half_nan)
    r = run_trial(algorithm, objective, None, 2_000, seed=1)
    assert math.isfinite(r.best_value)
    assert r.best_value == half_nan(np.array(r.best_position))
    assert r.evaluations_used == 2_000


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["bat", "pso", "ga"]),
    slabs=st.lists(st.sampled_from([None, math.nan, math.inf, -math.inf]), min_size=8, max_size=8),
    rows=st.booleans(),
)
def test_non_finite_values_rank_worst(algorithm, slabs, rows):
    # Sphere d=4 cut into 8 slabs along x[0], each slab scoring the sphere
    # (None) or one non-finite value.  A -inf taken as a value would be a
    # best that meets any tolerance.  Marked, the function takes PSO's and
    # GA's row path; unmarked, they call it point by point.
    finite = np.array([v is None for v in slabs])
    special = np.array([0.0 if v is None else v for v in slabs])

    def masked(x):
        slab = np.minimum(((x[..., 0] + 10.0) / 2.5).astype(int), 7)
        return np.where(finite[slab], np.add.reduce(x * x, axis=-1), special[slab])

    fn = scores_rows(masked) if rows else masked
    objective = dataclasses.replace(benchmark_spec("dejong_sphere", 4).objective, fn=fn)
    r = run_trial(algorithm, objective, 1e-5, 400, seed=1)
    assert not math.isnan(r.best_value) and r.best_value > -math.inf
    if math.isfinite(r.best_value):
        assert r.best_value == masked(np.array(r.best_position))
    assert r.success == (r.best_value <= 1e-5)
    assert r.evaluations_used == 400 or r.success


def test_run_trial_deterministic():
    a = run_trial("bat", SPHERE2, 1e-5, 2_000, seed=123)
    b = run_trial("bat", SPHERE2, 1e-5, 2_000, seed=123)
    assert a == b  # wall_time excluded from equality


def test_experiment_counts_and_seed_derivation():
    by_algo = experiment_trials(["bat", "pso"], SPHERE2, None, 200, trials=7, master_seed=42)
    assert {k: len(v) for k, v in by_algo.items()} == {"bat": 7, "pso": 7}
    assert by_algo["bat"][3].seed == derive_seed(42, "bat", 3)
    assert by_algo["pso"][3].seed == derive_seed(42, "pso", 3)
    assert len({r.seed for rs in by_algo.values() for r in rs}) == 14


def test_experiment_concurrency_invariance():
    seq = experiment_trials(["bat", "ga"], SPHERE2, 1e-2, 1_500, trials=6, master_seed=7, workers=1)
    par = experiment_trials(["bat", "ga"], SPHERE2, 1e-2, 1_500, trials=6, master_seed=7, workers=4)
    assert seq == par
    s1 = experiment_trials(["bat"], SPHERE2, 1e-2, 1_500, trials=6, master_seed=7, workers=1)
    s2 = experiment_trials(["bat"], SPHERE2, 1e-2, 1_500, trials=6, master_seed=7, workers=3)
    assert s1 == s2


@pytest.mark.parametrize("workers", [1, 3])
def test_experiment_trials_calls_the_module_run_trial_once_per_trial(monkeypatch, workers):
    # perfbench's traced pass replaces harness.run_trial; every trial must
    # go through the name as it stands when the campaign runs.
    calls = []

    def counting(algorithm, objective, tolerance, max_evals, seed, params=None, recorder=None):
        calls.append((algorithm, seed))
        return run_trial(algorithm, objective, tolerance, max_evals, seed, params, recorder)

    monkeypatch.setattr(harness, "run_trial", counting)
    with pytest.raises(ValueError):
        experiment_trials(["pso", "bat", "pso"], SPHERE2, None, 80, trials=2, master_seed=9)
    assert calls == []
    by_algo = experiment_trials(["pso", "bat"], SPHERE2, None, 80, trials=4, master_seed=9, workers=workers)
    expected = [(algorithm, derive_seed(9, algorithm, k)) for algorithm in ("pso", "bat") for k in range(4)]
    assert [(r.algorithm, r.seed) for rs in by_algo.values() for r in rs] == expected
    if workers == 1:
        assert calls == expected
    else:  # the jobs go in in this order, but threads may enter their calls out of it
        assert sorted(calls) == sorted(expected)


def test_experiment_all_failures_reports_absent_markers():
    # budget below init cost: every trial fails
    s = summarize(experiment_trials(["bat"], SPHERE2, 1e-5, 20, trials=4, master_seed=1)["bat"])
    assert s == ExperimentSummary(mean_evals=None, std_evals=None, success_rate=0.0, trial_count=4)


def test_evaluations_used_is_count_at_first_success():
    r = run_trial("bat", SPHERE2, 5.0, 100_000, seed=2)
    assert r.success
    assert r.evaluations_used == 40 + 40 * r.iterations
    assert r.evaluations_used < 100_000


def test_trial_result_success_invariant():
    for algo in ("bat", "pso", "ga"):
        r = run_trial(algo, SPHERE2, 1e-2, 4_000, seed=11)
        if r.success:
            assert r.best_value - SPHERE2.known_min <= 1e-2
        assert r.evaluations_used <= 4_000


def _imports(path):
    """(level, module) of every import in a source file; level 0 is absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
        elif isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
    return found


def test_modules_import_in_layers_and_the_references_share_no_code():
    # core imports nothing from the package, and the algorithms and the
    # benchmark registry import only core.  The algorithm registry in
    # harness takes any Objective, so only cli joins it to the benchmark
    # registry.  The references share no code with the package, so
    # agreeing with them checks the package's rules.
    sources = Path(harness.__file__).parent.glob("*.py")
    relative = {path.stem: {module for level, module in _imports(path) if level} for path in sources}
    assert relative["core"] == set()
    for name in ("bat", "baselines", "benchmarks"):
        assert relative[name] == {"core"}, name
    assert relative["harness"] == {"core", "bat", "baselines"}
    for name in relative:
        module = importlib.import_module("batbench" if name == "__init__" else f"batbench.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    oracles = Path(__file__).with_name("oracles.py")
    assert [m for _, m in _imports(oracles) if m.split(".")[0] == "batbench"] == []


def test_readme_library_block_runs_and_prints_criterion_5s_sphere_row():
    # The block runs as written, and its summaries are the sphere row that
    # README's criterion 5 prints, as Table 1's mean (successes/trials).
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    [block] = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(block, namespace)
    row = ", ".join(
        f"{name} {round(s.mean_evals, 1)} ({round(s.success_rate * s.trial_count)}/{s.trial_count})"
        for name, s in namespace["summaries"].items()
    )
    assert row == "bat 142.7 (30/30), pso 4620.0 (30/30), ga 349.3 (30/30)"
    assert f"sphere {row};" in " ".join(text.split())
