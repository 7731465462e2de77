import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batbench.core import (
    Bounds,
    BudgetExceededError,
    EvalBudget,
    Objective,
    RandomStream,
    clamp_to_bounds,
    counted_evaluate,
    derive_seed,
    uniform_sample,
)


class StubStream:
    """Duck-typed stand-in feeding predetermined draws."""

    def __init__(self, uniforms=(), vectors=()):
        self._uniforms = list(uniforms)
        self._vectors = [np.asarray(v, dtype=float) for v in vectors]
        self.uniform_calls = 0
        self.vector_calls = 0

    def uniform(self):
        self.uniform_calls += 1
        return self._uniforms.pop(0)

    def uniform_vector(self, d):
        self.vector_calls += 1
        v = self._vectors.pop(0)
        assert v.size == d
        return v

    def symmetric_vector(self, d):
        return 2.0 * self.uniform_vector(d) - 1.0


BOX2 = Bounds.cube(-2.048, 2.048, 2)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([np.nan]), np.array([1.0]))
    assert BOX2.dim == 2
    assert BOX2.width == pytest.approx([4.096, 4.096])


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
    assert BOX2.contains(once)


def test_uniform_sample_affine_map():
    b1 = Bounds.cube(0.0, 1.0, 1)
    assert uniform_sample(b1, StubStream(vectors=[[0.25]]))[0] == 0.25
    b5 = Bounds.cube(-5.0, 5.0, 1)
    assert uniform_sample(b5, StubStream(vectors=[[0.5]]))[0] == 0.0


def test_uniform_sample_consumes_exactly_d_draws():
    stub = StubStream(vectors=[[0.1, 0.2, 0.3]])
    uniform_sample(Bounds.cube(0.0, 1.0, 3), stub)
    assert stub.vector_calls == 1 and not stub._vectors


def test_uniform_sample_mean_law_of_large_numbers():
    rng = RandomStream(2024)
    b = Bounds.cube(0.0, 1.0, 2)
    pts = np.stack([uniform_sample(b, rng) for _ in range(10_000)])
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
    s = rng.symmetric_vector(10_000)
    assert ((s >= -1.0) & (s <= 1.0)).all()


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
        known_argmin=np.zeros(dim),
    )


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
    budget = EvalBudget(2, used=2)
    with pytest.raises(BudgetExceededError):
        counted_evaluate(obj, np.zeros(2), budget)
    assert budget.used == 2


def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(0)
    with pytest.raises(ValueError):
        EvalBudget(5, used=6)
    assert EvalBudget(5, used=2).remaining == 3


def test_objective_known_min_consistency():
    obj = _sphere_objective()
    assert abs(obj(obj.known_argmin) - obj.known_min) <= 1e-9
