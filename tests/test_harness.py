import ast
import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batbench import harness
from batbench.benchmarks import benchmark_spec, dim_constraint
from batbench.baselines import GaParams, PsoParams
from batbench.bat import BatParams
from batbench.core import Bounds, EvalBudget, Objective, counted_evaluate_rows, derive_seed, scores_rows
from batbench.harness import (
    ALGORITHMS,
    Algorithm,
    UnknownAlgorithmError,
    ExperimentSummary,
    TrialResult,
    experiment_trials,
    run_trial,
    summarize,
)
from oracles import FROZEN_FORMULAS, REFERENCE_RUNNERS, CallCounter, welford

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


@dataclasses.dataclass(frozen=True)
class _ToyParams:
    n: int = 4


def test_a_registered_sweep_generator_counts_a_sweep_only_when_it_charged_n(monkeypatch):
    # The sweeps never signal a cut: with n = 4 and a budget of 10 the
    # second sweep charges 2, ends the trial and is not an iteration.
    counter = CallCounter(SPHERE2.fn)
    obj = dataclasses.replace(SPHERE2, fn=counter)
    rows = np.zeros((4, 2))

    def sweeps(params, obj, budget, rng):
        while True:
            counted_evaluate_rows(obj, rows, budget)
            yield 0.0, rows[0], rows

    monkeypatch.setitem(ALGORITHMS, "toy", Algorithm(_ToyParams, sweeps, {}))
    records = []
    result = run_trial("toy", obj, None, 10, 0, recorder=records.append)
    assert result.algorithm == "toy"
    assert result.iterations == 1
    assert [r.iteration for r in records] == [1]
    assert result.evaluations_used == counter.calls == 10


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
def test_runners_reject_an_undefined_tolerance(algorithm):
    # Without a known minimum, or with a NaN or negative tolerance, success
    # cannot be decided; each algorithm's trial raises before it evaluates
    # anything.
    params = ALGORITHMS[algorithm].params(n=4)
    no_min = Objective("nomin", 2, Bounds.cube(-1.0, 1.0, 2), lambda x: float(x @ x))
    for obj, stop_at in ((no_min, 1.0), (SPHERE2, math.nan), (SPHERE2, -1.0)):
        counter = CallCounter(obj.fn)
        with pytest.raises(ValueError):
            run_trial(algorithm, dataclasses.replace(obj, fn=counter), stop_at, 40, 0, params)
        assert counter.calls == 0


@pytest.mark.parametrize(
    "algorithm, wrong",
    [("bat", PsoParams()), ("pso", GaParams()), ("ga", PsoParams()), ("ga", BatParams())],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_params_of_another_algorithm_are_refused_before_any_evaluation(algorithm, wrong):
    counter = CallCounter(SPHERE2.fn)
    obj = dataclasses.replace(SPHERE2, fn=counter)
    with pytest.raises(ValueError, match=type(wrong).__name__):
        run_trial(algorithm, obj, None, 400, 0, params=wrong)
    with pytest.raises(ValueError, match=type(wrong).__name__):
        experiment_trials(["bat", "pso", "ga"], obj, None, 400, 2, 0, params_by_algorithm={algorithm: wrong})
    assert counter.calls == 0
    # The error order: an unknown algorithm, then params, then the budget and the tolerance.
    with pytest.raises(UnknownAlgorithmError):
        run_trial("annealer", obj, None, 0, 0, params=wrong)
    with pytest.raises(ValueError, match=type(wrong).__name__):
        run_trial(algorithm, obj, math.nan, 0, 0, params=wrong)


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
def test_run_trial_budget_below_population_evaluates_nothing(algorithm):
    r = run_trial(algorithm, SPHERE2, 1e-5, 10, seed=3)
    assert not r.success
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


_BAD_RETURNS = {
    "short": lambda values: values[:-1],
    "long": lambda values: np.append(values, 0.0),
    "scalar": lambda values: float(values[0]),
    "2-D": lambda values: values[:, None],
}


@pytest.mark.parametrize("algorithm", ["bat", "pso", "ga"])
@pytest.mark.parametrize("bad", list(_BAD_RETURNS))
def test_a_marked_function_of_the_wrong_shape_is_refused_before_any_charge(algorithm, bad):
    # Each algorithm scores its 40 start-up rows first, so a marked function
    # that returns anything but their 40 values is refused there, by name
    # and shapes, before any of them is charged.
    sphere = benchmark_spec("dejong_sphere", 4).objective
    objective = dataclasses.replace(sphere, fn=scores_rows(lambda xs: _BAD_RETURNS[bad](sphere.fn(xs))))
    block = np.zeros((40, 4))
    message = re.escape(
        f"dejong_sphere's scores_rows function returned shape {np.shape(objective.fn(block))} "
        "for a block of shape (40, 4)"
    )
    with pytest.raises(ValueError, match=message):
        run_trial(algorithm, objective, None, 200, seed=1)
    budget = EvalBudget(200)
    with pytest.raises(ValueError, match=message):
        counted_evaluate_rows(objective, block, budget)
    assert budget.used == 0


_NOT_INTEGERS = [
    ("max_evals", 410.5), ("max_evals", 400.0), ("trials", 2.5), ("trials", 2.0), ("workers", 1.5), ("workers", 2.0)
]


@pytest.mark.parametrize("argument, value", _NOT_INTEGERS)
def test_a_budget_or_count_that_is_not_an_integer_is_refused_before_any_evaluation(argument, value):
    # A float is never truncated onto an integer: a budget of 410.5 would
    # spend 400 evaluations first, and 1.5 workers would start a pool.
    counter = CallCounter(SPHERE2.fn)
    obj = dataclasses.replace(SPHERE2, fn=counter)
    campaign = {"max_evals": 400, "trials": 2, "workers": 1, argument: value}
    with pytest.raises(TypeError):
        experiment_trials(["bat", "pso", "ga"], obj, None, master_seed=0, **campaign)
    if argument == "max_evals":
        for algorithm in ("bat", "pso", "ga"):
            with pytest.raises(TypeError):
                run_trial(algorithm, obj, None, value, 0)
    assert counter.calls == 0


def _probability():
    return st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


_KNOBS = {
    "bat": st.fixed_dictionaries({
        "f_min": st.sampled_from([0.0, 0.5]) | st.floats(0.0, 10.0),
        "f_max": st.sampled_from([0.0]) | st.floats(0.0, 100.0),  # added to f_min
        "alpha": st.sampled_from([0.5, 1.0 - 1e-12]) | st.floats(0.01, 0.999),
        "gamma": st.sampled_from([1e-3, 0.9]) | st.floats(0.01, 5.0),
    }),
    "pso": st.fixed_dictionaries({
        "inertia": st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 1.2),
        "c1": st.sampled_from([0.0, 2.0]) | st.floats(0.0, 4.0),
        "c2": st.sampled_from([0.0, 2.0]) | st.floats(0.0, 4.0),
    }),
    "ga": st.fixed_dictionaries({"p_mutation": _probability(), "p_crossover": _probability()}),
}


@st.composite
def _configurations(draw):
    """A trial anywhere in the configuration space the references cover, and
    whether it runs on the point path."""
    algorithm = draw(st.sampled_from(sorted(REFERENCE_RUNNERS)))
    function = draw(st.sampled_from(sorted(FROZEN_FORMULAS)))
    tolerance = draw(st.sampled_from([None, 0.0, 1e-5, 1.0, 10.0, 100.0]))
    kind, least = dim_constraint(function).split("=")
    if kind == "d":
        dim = int(least)
    elif function == "michalewicz" and tolerance is not None:
        dim = draw(st.sampled_from([2, 5]))  # its only stored minima
    else:
        dim = draw(st.integers(int(least), 6) | st.just(16))
    sizes = ([1] if algorithm == "bat" else []) + [2, 3, 40]
    n = draw(st.sampled_from(sizes) | st.integers(2, 12).map(lambda k: 2 * k + 1))
    max_evals = n + draw(st.integers(0, 12)) * n + draw(st.integers(0, n - 1))
    knobs = draw(st.none() | _KNOBS[algorithm]) or {}
    if "f_max" in knobs:
        knobs["f_max"] += knobs["f_min"]
    seed = draw(st.integers(0, 2**64 - 1))
    points = draw(st.booleans())
    return algorithm, function, dim, tolerance, n, max_evals, knobs, seed, points


# Fixed cases: n = 40 sums the mean loudness over more than 8 bats, where
# numpy's pairwise sum would differ; n = 1 runs whole sweeps only; an odd n
# gives the GA its extra child; and constants other than the defaults catch
# a regrouping that scaling by a default would leave exact.  A cut budget
# ends inside the 13th sweep.
_CUT = 40 + 12 * 40 + 39
_BAT_KNOBS = {"f_min": 0.5, "f_max": 2.0, "alpha": 0.95, "gamma": 0.3}
_PSO_KNOBS = {"inertia": 0.729, "c1": 1.49445, "c2": 1.7}
_GA_KNOBS = {"p_mutation": 0.2, "p_crossover": 0.6}


@settings(max_examples=400, deadline=None)
@given(_configurations())
@example(("bat", "ackley", 16, None, 40, _CUT, _BAT_KNOBS, 0, False))
@example(("bat", "griewank", 16, None, 40, _CUT, _BAT_KNOBS, 1, True))
@example(("bat", "dejong_sphere", 1, None, 1, 1, {}, 2, False))
@example(("bat", "rastrigin", 1, None, 1, 2, _BAT_KNOBS, 3, True))
@example(("bat", "eggcrate", 2, None, 1, 26, {}, 4, False))
@example(("pso", "rastrigin", 3, None, 40, _CUT, _PSO_KNOBS, 5, False))
@example(("pso", "dejong_sphere", 2, None, 40, _CUT, _PSO_KNOBS, 6, True))
@example(("ga", "rastrigin", 3, None, 40, _CUT, _GA_KNOBS, 7, False))
@example(("ga", "dejong_sphere", 2, None, 40, _CUT, _GA_KNOBS, 8, True))
@example(("ga", "rastrigin", 3, None, 25, 25 + 12 * 25 + 24, {}, 9, False))
def test_run_trial_equals_the_references_across_the_configuration_space(configuration):
    # Every TrialResult field equals the reference's, and a trial that ended
    # on a whole sweep recorded the reference's final population, bit for
    # bit.  On the point path a call counter unmarks the registry function,
    # which is then called once per charged evaluation.
    algorithm, function, dim, tolerance, n, max_evals, knobs, seed, points = configuration
    objective = benchmark_spec(function, dim).objective
    counter = CallCounter(objective.fn)
    trial_objective = dataclasses.replace(objective, fn=counter) if points else objective
    params = ALGORITHMS[algorithm].params(n=n, **knobs)
    records = []
    result = run_trial(algorithm, trial_objective, tolerance, max_evals, seed, params, records.append)
    ref = REFERENCE_RUNNERS[algorithm](objective, seed, max_evals, tolerance, n=n, **knobs)
    assert (result.algorithm, result.function, result.dim, result.seed) == (algorithm, function, dim, seed)
    assert result.best_value == ref.best_value
    assert result.best_position == ref.best_position
    assert result.evaluations_used == ref.evaluations_used
    assert result.iterations == ref.iterations
    assert result.success == ref.success
    if points:
        assert counter.calls == result.evaluations_used
    if records and result.evaluations_used == n * (result.iterations + 1):
        assert records[-1].positions.tobytes() == ref.positions.tobytes()


def test_experiment_counts_and_seed_derivation():
    by_algo = experiment_trials(["bat", "pso"], SPHERE2, None, 200, trials=7, master_seed=42)
    assert {k: len(v) for k, v in by_algo.items()} == {"bat": 7, "pso": 7}
    assert by_algo["bat"][3].seed == derive_seed(42, "bat", 3)
    assert by_algo["pso"][3].seed == derive_seed(42, "pso", 3)
    assert len({r.seed for rs in by_algo.values() for r in rs}) == 14
    # A float or string master seed is refused, not truncated onto an integer's campaign.
    for master_seed in (1.9, "1"):
        with pytest.raises(TypeError):
            experiment_trials(["bat"], SPHERE2, None, 200, trials=1, master_seed=master_seed)


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
