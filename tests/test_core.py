import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batbench.baselines import _initial_population
from batbench.core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    clamp_to_bounds,
    counted_evaluate,
    counted_evaluate_rows,
    counted_values,
    derive_seed,
    scores_rows,
)
from batbench.benchmarks import benchmark_spec
from batbench.harness import run_trial
from oracles import CallCounter


class StubStream:
    """Duck-typed stand-in feeding predetermined blocks of draws."""

    def __init__(self, vectors=()):
        self._vectors = [np.asarray(v, dtype=float) for v in vectors]
        self.vector_calls = 0

    def uniform_vector(self, d):
        self.vector_calls += 1
        v = self._vectors.pop(0)
        assert v.size == d
        return v


BOX2 = Bounds.cube(-2.048, 2.048, 2)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError, match="must be 1-D"):
        Bounds(np.zeros((1, 2)), np.ones((1, 2)))
    # Finite bounds whose width overflows to inf are refused, without a
    # numpy overflow warning.
    with warnings.catch_warnings(), pytest.raises(ValueError, match="widths must be finite"):
        warnings.simplefilter("error")
        Bounds.cube(-1e308, 1e308, 2)
    sphere = lambda x: float(x @ x)
    for known_min in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="known_min must be finite"):
            Objective("o", 2, BOX2, sphere, known_min)
    with pytest.raises(ValueError, match="dim must be positive"):
        Objective("o", 0, BOX2, sphere)
    with pytest.raises(ValueError, match="bounds dimension"):
        Objective("o", 3, BOX2, sphere)
    assert BOX2.dim == 2
    assert BOX2.width == pytest.approx([4.096, 4.096])


def test_bounds_and_objective_freeze_copies_not_the_callers_arrays():
    lo, hi = np.zeros(2), np.ones(2)
    bounds = Bounds(lo, hi)
    obj = Objective("sphere", 2, bounds, lambda x: float(x @ x), 0.0)
    lo[0], hi[0] = -1.0, 2.0
    assert obj.bounds.lower.tolist() == [0.0, 0.0] and obj.bounds.upper.tolist() == [1.0, 1.0]
    assert not any(a.flags.writeable for a in (obj.bounds.lower, obj.bounds.upper))


def test_clamp_examples():
    out = clamp_to_bounds(np.array([3.0, -3.0]), BOX2)
    assert out.tolist() == [2.048, -2.048]
    assert clamp_to_bounds(np.array([0.5, 0.5]), BOX2).tolist() == [0.5, 0.5]
    assert clamp_to_bounds(np.array([2.048, 0.0]), BOX2).tolist() == [2.048, 0.0]


def test_clamp_dimension_mismatch():
    with pytest.raises(ValueError):
        clamp_to_bounds(np.array([1.0, 2.0, 3.0]), BOX2)


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12),
        min_size=2,
        max_size=2,
    )
)
def test_clamp_idempotent(coords):
    x = np.array(coords)
    once = clamp_to_bounds(x, BOX2)
    assert np.array_equal(clamp_to_bounds(once, BOX2), once)
    assert ((BOX2.lower <= once) & (once <= BOX2.upper)).all()


def test_initial_population_affine_map():
    b1 = Bounds.cube(0.0, 1.0, 1)
    assert _initial_population(b1, 1, StubStream(vectors=[[0.25]]))[0, 0] == 0.25
    b5 = Bounds.cube(-5.0, 5.0, 1)
    assert _initial_population(b5, 1, StubStream(vectors=[[0.5]]))[0, 0] == 0.0


def test_initial_population_draws_n_times_d_in_one_block():
    # The stub checks that the block holds exactly n*d draws.
    stub = StubStream(vectors=[[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
    pop = _initial_population(Bounds.cube(0.0, 1.0, 3), 2, stub)
    assert stub.vector_calls == 1 and not stub._vectors
    assert pop.tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]


def test_initial_population_mean_law_of_large_numbers():
    rng = RandomStream(2024)
    b = Bounds.cube(0.0, 1.0, 2)
    pts = _initial_population(b, 10_000, rng)
    for k in range(2):
        assert 0.47 <= pts[:, k].mean() <= 0.53


def test_random_stream_identical_seeds_identical_draws():
    a, b = RandomStream(99), RandomStream(99)
    assert np.array_equal(a.uniform_vector(1_000_000), b.uniform_vector(1_000_000))
    assert a.uniform() == b.uniform()


@pytest.mark.parametrize("used", [0, 1, 37, 100])
def test_random_stream_rewind_gives_back_unused_draws(used):
    scalar = RandomStream(31)
    expected = [scalar.uniform() for _ in range(200)]
    rng = RandomStream(31)
    assert rng.uniform_vector(100).tolist() == expected[:100]
    rng.rewind(100 - used)
    ahead = RandomStream(31)
    ahead.uniform_vector(used)
    assert rng._gen.bit_generator.state == ahead._gen.bit_generator.state
    assert rng.uniform_vector(100).tolist() == expected[used : used + 100]


def test_random_stream_ranges():
    rng = RandomStream(5)
    u = rng.uniform_vector(10_000)
    assert ((u >= 0.0) & (u < 1.0)).all()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.9])
def test_a_seed_outside_64_bits_is_refused_before_any_evaluation(seed):
    # Folded to 64 bits or truncated, these seeds would draw the streams of
    # 2**64 - 1, 0, 1 and 1.
    error = TypeError if isinstance(seed, float) else ValueError
    with pytest.raises(error):
        RandomStream(seed)
    counter = CallCounter(_sphere_objective().fn)
    with pytest.raises(error):
        run_trial("bat", dataclasses.replace(_sphere_objective(), fn=counter), None, 400, seed)
    assert counter.calls == 0
    edge = RandomStream(2**64 - 1).uniform_vector(4)
    assert edge.tolist() == np.random.Generator(np.random.PCG64(2**64 - 1)).random(4).tolist()


def test_derived_seeds_distinct_for_a_million_trials():
    seeds = set()
    total = 0
    for algorithm in ("bat", "pso", "ga"):
        for k in range(1_000_000 // 3):
            seeds.add(derive_seed(7, algorithm, k))
            total += 1
    assert len(seeds) == total


def _sphere_objective(dim=2):
    return Objective(
        name="sphere",
        dim=dim,
        bounds=Bounds.cube(-10.0, 10.0, dim),
        fn=lambda x: float(np.sum(np.asarray(x) ** 2)),
        known_min=0.0,
    )


def _part_spent(limit, used):
    budget = EvalBudget(limit)
    budget.used = used
    return budget


def test_counted_evaluate_counts():
    obj = _sphere_objective()
    budget = EvalBudget(5)
    assert counted_evaluate(obj, np.zeros(2), budget) == 0.0
    assert budget.used == 1
    counted_evaluate(obj, np.ones(2), budget)
    counted_evaluate(obj, np.ones(2), budget)
    assert budget.used == 3


def test_counted_evaluate_budget_exceeded_leaves_counter():
    obj = _sphere_objective()
    budget = _part_spent(2, 2)
    with pytest.raises(BudgetExceededError):
        counted_evaluate(obj, np.zeros(2), budget)
    assert budget.used == 2


def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(0)
    assert EvalBudget(5).used == 0
    assert _part_spent(5, 2).remaining == 3


def test_objective_known_min_consistency():
    obj = _sphere_objective()
    assert abs(obj(np.zeros(2)) - obj.known_min) <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_returned_as_inf_and_charged(bad):
    obj = Objective("bad", 2, BOX2, lambda x: bad)
    budget = EvalBudget(5)
    assert counted_evaluate(obj, np.zeros(2), budget) == math.inf
    rows = Objective("bad", 2, BOX2, scores_rows(lambda xs: np.array([1.0, bad, -0.0])[: len(xs)]))
    values = counted_evaluate_rows(rows, np.zeros((3, 2)), budget)
    assert values.tolist() == [1.0, math.inf, -0.0] and math.copysign(1.0, values[2]) == -1.0
    assert budget.used == 4


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_a_marked_function_of_another_dtype_gives_float64_values(dtype):
    # Each value is the float64 of the returned one, on both paths.
    returned = np.array([0.1, -2.5, 7.0]).astype(dtype)
    obj = Objective("typed", 2, BOX2, scores_rows(lambda xs: returned[: len(xs)]))
    expected = [float(v) for v in returned]
    values = counted_evaluate_rows(obj, np.zeros((3, 2)), EvalBudget(5))
    assert values.dtype == np.float64 and values.tolist() == expected
    assert list(counted_values(obj, np.zeros((3, 2)), EvalBudget(5))) == expected


@given(
    m=st.integers(1, 41),
    max_evaluations=st.integers(1, 100),
    used=st.integers(0, 100),
    path=st.sampled_from(["rows", "counted rows", "wrapped"]),
    seed=st.integers(0, 2**32 - 1),
    taken=st.integers(0, 41),
)
def test_counted_evaluate_rows_charges_min_of_rows_and_remaining(m, max_evaluations, used, path, seed, taken):
    used = min(used, max_evaluations)
    rastrigin = benchmark_spec("rastrigin", 3).objective
    counter = CallCounter(rastrigin.fn)
    if path == "rows":
        fn = rastrigin.fn
    elif path == "counted rows":
        fn = scores_rows(counter)
    else:
        fn = counter
    obj = dataclasses.replace(rastrigin, fn=fn)
    xs = rastrigin.bounds.lower + np.random.default_rng(seed).random((m, 3)) * rastrigin.bounds.width
    budget = _part_spent(max_evaluations, used)
    values = counted_evaluate_rows(obj, xs, budget)
    k = min(m, max_evaluations - used)
    assert budget.used == used + k
    assert values.tolist() == [rastrigin(x) for x in xs[:k]]
    if path == "wrapped":
        assert counter.calls == k
    elif path == "counted rows" and k:
        assert counter.calls == 1
    # Taking only the first j values charges j units.
    j = min(taken, k)
    budget = _part_spent(max_evaluations, used)
    counter.calls = 0
    prefix = list(itertools.islice(counted_values(obj, xs, budget), j))
    assert budget.used == used + j
    assert prefix == values.tolist()[:j]
    if path == "wrapped":
        assert counter.calls == j
    elif path == "counted rows":
        assert counter.calls == (j > 0)
