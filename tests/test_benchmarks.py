import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batbench.benchmarks import (
    UnknownBenchmarkError,
    benchmark_spec,
    dim_constraint,
    michalewicz,
    multiple_peaks,
    registry_names,
    schwefel,
    shubert,
)
from oracles import FROZEN_FORMULAS, REGISTRY, REGISTRY_ALIASES, global_minima_2d, refine_1d, refine_2d

TWO_PI = 2.0 * np.pi


def test_paper_stated_optima():
    assert benchmark_spec("rosenbrock_paper", 2).objective([1.0, 1.0]) == 0.0
    # The printed squared-variable form also vanishes at x1 = -1.
    assert benchmark_spec("rosenbrock_paper", 2).objective([-1.0, 1.0]) == 0.0
    assert benchmark_spec("eggcrate", 2).objective([0.0, 0.0]) == 0.0
    assert benchmark_spec("dejong_sphere", 256).objective(np.zeros(256)) == 0.0
    assert abs(benchmark_spec("ackley", 128).objective(np.zeros(128))) <= 1e-12


def test_eggcrate_hand_substitution():
    value = benchmark_spec("eggcrate", 2).objective([np.pi / 2, 0.0])
    assert value == pytest.approx(np.pi**2 / 4 + 25.0, abs=1e-12)


def test_michalewicz_paper_values():
    spec2 = benchmark_spec("michalewicz", 2)
    assert spec2.objective.known_min == pytest.approx(-1.801, abs=2e-3)
    spec5 = benchmark_spec("michalewicz", 5)
    assert spec5.objective.known_min == pytest.approx(-4.6877, abs=2e-3)


def test_michalewicz_grid_refinement_oracle():
    # Separable sum: refine each coordinate term independently.
    def total(dim):
        out = 0.0
        for i in range(1, dim + 1):
            _, v = refine_1d(lambda t, i=i: -np.sin(t) * np.sin(i * t * t / np.pi) ** 20, 0.0, np.pi)
            out += v
        return out

    assert total(2) == pytest.approx(benchmark_spec("michalewicz", 2).objective.known_min, abs=1e-9)
    assert total(5) == pytest.approx(benchmark_spec("michalewicz", 5).objective.known_min, abs=1e-9)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entries_equal_the_frozen_table(name):
    # Under every name and at every d in 1-6 and 16: the box and the known
    # minimum, or a refusal of a d the function does not take.
    entry = REGISTRY[name]
    assert registry_names() == sorted(REGISTRY)
    for label in [name] + [alias for alias, canonical in REGISTRY_ALIASES.items() if canonical == name]:
        assert dim_constraint(label) == entry.dims
        for d in (1, 2, 3, 4, 5, 6, 16):
            if not entry.takes(d):
                with pytest.raises(ValueError):
                    benchmark_spec(label, d)
                continue
            o = benchmark_spec(label, d).objective
            known_min, _ = entry.minimum(d) or (None, None)
            assert (o.name, o.dim) == (name, d)
            assert (o.bounds.lower.tolist(), o.bounds.upper.tolist()) == ([entry.lo] * d, [entry.hi] * d)
            assert o.known_min == known_min


def test_benchmark_spec_errors():
    # A d the function does not take is refused in the frozen-table test.
    with pytest.raises(UnknownBenchmarkError):
        benchmark_spec("nosuch", 2)


def test_objective_call_takes_a_list():
    objective = benchmark_spec("rastrigin", 3).objective
    assert objective([0.5, -1.0, 2.0]) == objective(np.array([0.5, -1.0, 2.0]))


def test_registry_known_minima_consistent():
    # The package's formula at the frozen minimizer gives the known minimum.
    for name, entry in REGISTRY.items():
        for d in filter(entry.takes, (2, 5, 16)):
            obj = benchmark_spec(name, d).objective
            if obj.known_min is not None:
                _, argmin = entry.minimum(d)
                assert abs(obj(argmin) - obj.known_min) <= 1e-9, name


def test_all_functions_finite_inside_bounds():
    rng = np.random.Generator(np.random.PCG64(0))
    for name in registry_names():
        spec = benchmark_spec(name)
        b = spec.objective.bounds
        pts = b.lower + rng.random((10_000, b.dim)) * b.width
        values = np.array([spec.objective(p) for p in pts])
        assert np.isfinite(values).all(), name


@given(st.integers(min_value=2, max_value=8), st.booleans())
def test_rosenbrock_paper_zero_chain(dim, negative_first):
    x = np.ones(dim)
    if negative_first:
        x[0] = -1.0
    assert benchmark_spec("rosenbrock_paper", dim).objective(x) == 0.0


@given(
    st.floats(min_value=-TWO_PI, max_value=TWO_PI, allow_nan=False),
    st.floats(min_value=-TWO_PI, max_value=TWO_PI, allow_nan=False),
)
def test_eggcrate_symmetry(x, y):
    eggcrate = benchmark_spec("eggcrate", 2).objective
    g = eggcrate([x, y])
    assert g == pytest.approx(eggcrate([-x, -y]), rel=1e-12, abs=1e-12)
    assert g == pytest.approx(eggcrate([y, x]), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 16, 128, 256])
def test_ackley_origin_exact(dim):
    assert abs(benchmark_spec("ackley", dim).objective(np.zeros(dim))) <= 1e-12


def test_shubert_eighteen_global_minima():
    def fvec(x, y):
        j = np.arange(1, 6)
        cx = np.sum(j * np.cos((j + 1) * x[..., None] + j), axis=-1)
        cy = np.sum(j * np.cos((j + 1) * y[..., None] + j), axis=-1)
        return cx * cy

    minima = global_minima_2d(fvec, -10.0, 10.0, value_band=1e-3)
    assert len(minima) == 18
    best = min(m[2] for m in minima)
    spec = benchmark_spec("shubert", 2)
    assert spec.objective.known_min == pytest.approx(best, abs=1e-6)


def test_multiple_peaks_oracle():
    peaks = np.vectorize(lambda a, b: multiple_peaks(np.array([a, b])))
    x, y, fmin = refine_2d(peaks, 3.0, 3.0, h=1.0)
    assert fmin == pytest.approx(-2.0, abs=1e-9)
    assert (x, y) == pytest.approx((3.0, 3.0), abs=1e-6)
    # deepest well wins over the other three
    assert multiple_peaks(np.array([-3.0, -3.0])) == pytest.approx(-1.5, abs=1e-9)


def test_schwefel_oracle():
    xstar, neg_peak = refine_1d(lambda t: -(t * np.sin(np.sqrt(t))), 400.0, 440.0)
    spec = benchmark_spec("schwefel", 2)
    arg = np.array(REGISTRY["schwefel"].minimum(2)[1])
    assert arg[0] == pytest.approx(xstar, abs=1e-5)
    assert spec.objective.known_min == pytest.approx(2 * (418.9829 + neg_peak), abs=1e-7)
    assert schwefel(arg) == spec.objective.known_min


def test_easom_minimum():
    assert benchmark_spec("easom", 2).objective([np.pi, np.pi]) == -1.0


def test_michalewicz_dim16_in_table_shape():
    # Table-style dims evaluate fine even without known metadata.
    mid = np.full(16, np.pi / 2)
    assert np.isfinite(michalewicz(mid))


def _dims(name):
    constraint = dim_constraint(name)
    if constraint.startswith("d="):
        return st.just(int(constraint[2:]))
    return st.integers(int(constraint[3:]), 64)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(registry_names()), st.data())
def test_formulas_equal_their_frozen_point_forms_bit_for_bit(name, data):
    # In-box points at d = 1..64 in blocks of m = 1..41 rows, a share of
    # their coordinates set to a signed zero or a face of the box.  Every
    # registry formula is marked to score rows, so both forms are checked.
    d = data.draw(_dims(name), label="d")
    m = data.draw(st.integers(1, 41), label="m")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="share")
    objective = benchmark_spec(name, d).objective
    b = objective.bounds
    rng = np.random.default_rng(seed)
    xs = b.lower + rng.random((m, d)) * b.width
    special = rng.random((m, d)) < share
    xs[special] = rng.choice([-0.0, 0.0, b.lower[0], b.upper[0]], size=int(special.sum()))
    assert ((b.lower <= xs) & (xs <= b.upper)).all()
    frozen = np.array([FROZEN_FORMULAS[name](x) for x in xs])
    points = np.array([objective.fn(x) for x in xs])
    assert points.tobytes() == frozen.tobytes()
    assert getattr(objective.fn, "scores_rows", False) is True
    assert objective.fn(xs).tobytes() == frozen.tobytes()


@pytest.mark.parametrize("name", registry_names())
def test_formulas_equal_their_frozen_point_forms_on_fixed_points(name):
    # 20,000 seeded points at the fixed dim, else d=16: half uniform in the
    # box, half at scales 1 and 10 around the frozen minimizer (the box
    # centre where none is stored), clamped to the box.  Uniform points
    # alone miss a last-bit change in Easom, whose exp underflows away from
    # its well.
    constraint = dim_constraint(name)
    d = int(constraint[2:]) if constraint.startswith("d=") else 16
    objective = benchmark_spec(name, d).objective
    b = objective.bounds
    minimum = REGISTRY[name].minimum(d)
    centre = (b.lower + b.upper) / 2 if minimum is None else np.array(minimum[1])
    rng = np.random.default_rng(0)
    uniform = b.lower + rng.random((10_000, d)) * b.width
    scale = np.repeat([1.0, 10.0], 5_000)[:, None]
    near = np.clip(centre + scale * rng.standard_normal((10_000, d)), b.lower, b.upper)
    xs = np.concatenate([uniform, near])
    frozen = np.array([FROZEN_FORMULAS[name](x) for x in xs])
    assert getattr(objective.fn, "scores_rows", False) is True
    assert objective.fn(xs).tobytes() == frozen.tobytes()
    assert np.array([objective.fn(x) for x in xs]).tobytes() == frozen.tobytes()
