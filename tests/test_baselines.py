import numpy as np
import pytest

from batbench.baselines import (
    GaParams,
    PsoParams,
    _initial_population,
    draw_generation,
)
from batbench.benchmarks import benchmark_spec
from batbench.core import Bounds, Objective, RandomStream, derive_seed
from batbench.harness import run_trial
from oracles import CallCounter

SPHERE2 = benchmark_spec("dejong_sphere", 2).objective


def test_params_validation():
    with pytest.raises(ValueError):
        PsoParams(n=1)
    with pytest.raises(ValueError):
        PsoParams(c1=-0.1)
    with pytest.raises(ValueError):
        GaParams(n=1)
    with pytest.raises(ValueError):
        GaParams(p_mutation=1.5)
    with pytest.raises(ValueError):
        GaParams(p_crossover=-0.1)


def test_pso_gbest_particle_is_stationary():
    # On a constant objective nothing ever improves, so the particle that
    # starts as the global best has pbest = gbest = x and zero velocity:
    # every update term vanishes and it never moves.
    flat = Objective("flat", 2, Bounds.cube(-1.0, 1.0, 2), lambda x: 1.0, known_min=1.0)
    records = []
    params = PsoParams(n=5)
    run_trial("pso", flat, None, 5 * 11, 7, params, records.append)
    first = records[0].positions
    # recover the gbest index: with strict-improvement updates it is particle 0's
    # initial argmin; any stationary row works for the check
    stationary = [
        i for i in range(5)
        if all(np.array_equal(rec.positions[i], first[i]) for rec in records)
    ]
    assert stationary, "the initial global-best particle must never move"


def test_pso_monotone_best_and_accounting():
    params = PsoParams(n=8)
    counter = CallCounter(SPHERE2.fn)
    obj = Objective("sphere", 2, SPHERE2.bounds, counter, 0.0)
    records = []
    result = run_trial("pso", obj, None, 8 * 51, 3, params, records.append)
    assert result.evaluations_used == counter.calls == 8 + 8 * result.iterations
    best = [rec.best_value for rec in records]
    assert best == sorted(best, reverse=True)
    for rec in records:
        assert ((rec.positions >= -10.0) & (rec.positions <= 10.0)).all()


def test_pso_sphere_d2_reaches_tolerance():
    # 100 seeds, 1e-5 within 20,000 evaluations.
    params = PsoParams()
    successes = 0
    for k in range(100):
        seed = derive_seed(20, "pso", k)
        r = run_trial("pso", SPHERE2, 1e-5, 20_000, seed, params)
        successes += r.success
    assert successes >= 90


def test_ga_population_size_constant():
    params = GaParams(n=10)
    records = []
    run_trial("ga", SPHERE2, None, 10 * 9, 5, params, records.append)
    assert len(records) == 8
    for rec in records:
        assert rec.positions.shape == (10, 2)


def test_ga_degenerate_operators_copy_parents():
    params = GaParams(n=12, p_mutation=0.0, p_crossover=0.0)
    records = []
    rng = RandomStream(17)
    # regenerate the initial population exactly as ga_sweeps draws it
    init = _initial_population(SPHERE2.bounds, 12, rng)
    run_trial("ga", SPHERE2, None, 12 * 2, 17, params, records.append)
    offspring = records[0].positions
    for row in offspring:
        assert any(np.array_equal(row, parent) for parent in init)


def test_ga_progress_on_sphere():
    # median best after 10,000 evaluations beats median best after 1,000
    params = GaParams(n=40)
    at_1k, at_10k = [], []
    for k in range(100):
        records = []
        seed = derive_seed(30, "ga", k)
        run_trial("ga", SPHERE2, None, 10_000, seed, params, records.append)
        early = [rec.best_value for rec in records if 40 + 40 * rec.iteration <= 1_000]
        at_1k.append(early[-1])
        at_10k.append(records[-1].best_value)
    assert np.median(at_10k) < np.median(at_1k)


def test_ga_best_ever_monotone_without_elitism():
    params = GaParams(n=10)
    records = []
    run_trial("ga", SPHERE2, None, 10 * 61, 23, params, records.append)
    best = [rec.best_value for rec in records]
    assert best == sorted(best, reverse=True)
    population_minima = [min(SPHERE2(p) for p in rec.positions) for rec in records]
    # the population may regress above the best-ever value
    assert any(pm > b for pm, b in zip(population_minima, best))


def test_ga_accounting_with_counter_oracle():
    params = GaParams(n=10)
    counter = CallCounter(SPHERE2.fn)
    obj = Objective("sphere", 2, SPHERE2.bounds, counter, 0.0)
    result = run_trial("ga", obj, None, 10 * 26, 3, params)
    assert result.evaluations_used == counter.calls == 10 + 10 * result.iterations


def test_operator_rates_over_1e5_offspring():
    # 2,500 generations of 40 at d=10: 50,000 pairings, 100,000 offspring.
    rng = RandomStream(2718)
    applied = 0
    pairings = 0
    mutated_genes = 0
    offspring = 0
    for _ in range(2_500):
        draws = draw_generation(rng, 40, 10, 0.95, 0.05)
        applied += int(draws.crossed.sum())
        pairings += draws.crossed.size
        mutated_genes += int(draws.mutate.sum())
        offspring += draws.mutate.shape[0]
        # a pair whose crossover did not fire copies its parents
        assert draws.take_a[~draws.crossed].all()
    assert applied / pairings == pytest.approx(0.95, abs=0.01)
    assert mutated_genes / (offspring * 10) == pytest.approx(0.05, abs=0.005)


def _replayed_generation(rng, n, d, p_crossover, p_mutation):
    """README's per-pair layout, each uniform drawn by its own scalar call:
    U(3), the mask U(d) only when the gate fires, then U(d), N(d), U(d),
    N(d); an odd n ends with U(1 + d) and N(d)."""
    def uniforms(k):
        return np.array([rng.uniform() for _ in range(k)])

    picks, crossed, take_a, mutate, steps = [], [], [], [], []
    for _ in range(n // 2):
        a, b, gate = uniforms(3)
        picks += [a, b]
        crossed.append(gate < p_crossover)
        take_a.append(uniforms(d) < 0.5 if crossed[-1] else np.ones(d, dtype=bool))
        for _child in range(2):
            mutate.append(uniforms(d) < p_mutation)
            steps.append(rng.normal_vector(d))
    if n % 2:
        tail = uniforms(1 + d)
        picks.append(tail[0])
        mutate.append(tail[1:] < p_mutation)
        steps.append(rng.normal_vector(d))
    return (
        np.array(picks), np.array(crossed, dtype=bool), np.array(take_a).reshape(-1, d),
        np.array(mutate), np.array(steps),
    )


@pytest.mark.parametrize("p_crossover", [0.0, 0.5, 0.95, 1.0])
@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("n", [2, 3, 40, 41])
def test_draw_generation_equals_a_scalar_replay_of_the_layout(n, d, p_crossover):
    # Five generations bit for bit, and the draw after them: a pair whose
    # gate does not fire gives its unused mask draws back.
    drawn, replayed = RandomStream(99), RandomStream(99)
    for _ in range(5):
        draws = draw_generation(drawn, n, d, p_crossover, 0.5)
        expected = _replayed_generation(replayed, n, d, p_crossover, 0.5)
        for field, got, want in zip(draws._fields, draws, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
    assert drawn.uniform() == replayed.uniform()
