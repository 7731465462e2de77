import dataclasses
import math

import numpy as np
import pytest

from batbench.bat import (
    BatParams,
    BatState,
    accept,
    average_loudness,
    bat_step,
    global_move,
    init_bats,
    local_walk,
)
from batbench.benchmarks import benchmark_spec
from batbench.core import BudgetExceededError, Bounds, EvalBudget, Objective, RandomStream, scores_rows
from batbench.harness import run_trial
from oracles import CallCounter

WIDE = Bounds.cube(-1e6, 1e6, 1)
SPHERE2 = benchmark_spec("dejong_sphere", 2).objective


def _pcg_state(rng):
    return rng._gen.bit_generator.state


def _advanced(seed, draws):
    """A fresh stream `draws` scalar draws ahead."""
    rng = RandomStream(seed)
    for _ in range(draws):
        rng.uniform()
    return rng


def _state(positions, best_position, best_value, loudness, pulse=None, iteration=0, seed=0):
    """A BatState from per-bat lists: positions, loudness and pulse rates
    (0.5 each by default), at rest with no acceptances."""
    positions = np.array(positions, dtype=float)
    n = len(positions)
    loudness = np.array(loudness, dtype=float)
    pulse = np.full(n, 0.5) if pulse is None else np.array(pulse, dtype=float)
    return BatState(
        positions=positions,
        velocities=np.zeros_like(positions),
        loudness=loudness,
        initial_loudness=loudness.copy(),
        pulse_rates=pulse,
        initial_pulse_rates=pulse.copy(),
        acceptances=np.zeros(n, dtype=int),
        best_position=np.asarray(best_position, dtype=float),
        best_value=best_value,
        rng=RandomStream(seed),
        budget=EvalBudget(10_000),
        iteration=iteration,
    )


def test_params_validation():
    with pytest.raises(ValueError):
        BatParams(alpha=1.0)
    with pytest.raises(ValueError):
        BatParams(f_min=5.0, f_max=4.0)
    with pytest.raises(ValueError):
        BatParams(f_min=-1.0, f_max=4.0)
    BatParams(f_min=0.0, f_max=0.0)  # degenerate range is allowed
    with pytest.raises(ValueError):
        BatParams(gamma=0.0)


def test_init_bats_counting_and_best():
    params = BatParams(n=25)
    budget = EvalBudget(10_000)
    state = init_bats(params, SPHERE2, RandomStream(3), budget)
    assert state.positions.shape == (25, 2)
    assert budget.used == 25
    values = [SPHERE2(x) for x in state.positions]
    assert state.best_value == min(values)
    assert SPHERE2(state.best_position) == state.best_value
    assert all(np.array_equal(v, np.zeros(2)) for v in state.velocities)
    assert state.acceptances.tolist() == [0] * 25
    with pytest.raises(BudgetExceededError):
        init_bats(BatParams(n=40), SPHERE2, RandomStream(1), EvalBudget(10))


def test_init_bats_deterministic():
    params = BatParams(n=8)
    s1 = init_bats(params, SPHERE2, RandomStream(11), EvalBudget(100))
    s2 = init_bats(params, SPHERE2, RandomStream(11), EvalBudget(100))
    for i in range(params.n):
        assert np.array_equal(s1.positions[i], s2.positions[i])
        assert (s1.loudness[i], s1.pulse_rates[i]) == (s2.loudness[i], s2.pulse_rates[i])
    assert s1.best_value == s2.best_value


def test_global_move_at_best_keeps_velocity():
    v, x = global_move(np.array([1.5]), np.array([0.25]), np.array([1.5]), 0.37, BatParams(), WIDE)
    assert v[0] == 0.25
    assert x[0] == 1.75


def test_global_move_zero_beta():
    v, _ = global_move(np.array([2.0]), np.array([0.5]), np.array([0.0]), 0.0, BatParams(), WIDE)
    assert v[0] == 0.5


def test_global_move_full_beta_hits_f_max():
    # With x - x* = 1 and v = 0 the new velocity is the frequency, bit for bit.
    v, _ = global_move(np.array([1.0]), np.zeros(1), np.array([0.0]), 1.0, BatParams(), WIDE)
    assert v[0] == 100.0


def test_global_move_hand_example():
    # x=2, best=0, v=0, f=1  ->  v'=2, x'=4 (moves away from the best)
    params = BatParams(f_min=0.0, f_max=1.0)
    v, x = global_move(np.array([2.0]), np.zeros(1), np.array([0.0]), 1.0, params, WIDE)
    assert v[0] == 2.0
    assert x[0] == 4.0


def test_global_move_frequency_is_grouped_as_printed():
    # f = f_min + (f_max - f_min) beta, as the references group it.  A trial
    # sees the last bit of f only through an accepted global move, so the
    # reference comparisons rarely catch a regrouped form such as
    # f_min + f_max beta - f_min beta, which differs on 13% of these betas.
    # With x - x* = 1 and v = 0 the new velocity is f, bit for bit.
    betas = RandomStream(0).uniform_vector(1_000)
    v, _ = global_move(np.ones((1_000, 1)), np.zeros((1_000, 1)), np.zeros(1), betas,
                       BatParams(f_min=0.5, f_max=2.0), WIDE)
    assert v[:, 0].tolist() == [0.5 + (2.0 - 0.5) * beta for beta in betas.tolist()]


def test_local_walk_zero_loudness_and_zero_draws():
    base = np.array([0.3, -0.4])
    b = Bounds.cube(-10.0, 10.0, 2)
    assert np.array_equal(local_walk(base, np.array([0.9, 0.1]), 0.0, b), base)
    # epsilon = 0 comes from raw draws of 0.5
    assert np.array_equal(local_walk(base, np.array([0.5, 0.5]), 3.0, b), base)


def test_local_walk_hand_example():
    # base=1, eps=0.5, loudness=2 -> 2.0 ; raw draw 0.75 maps to eps 0.5
    out = local_walk(np.array([1.0]), np.array([0.75]), 2.0, WIDE)
    assert out[0] == 2.0


def test_local_walk_consumes_d_draws_and_clamps():
    b = Bounds.cube(-1.0, 1.0, 3)
    out = local_walk(np.array([0.9, 0.0, -0.9]), np.ones(3), 5.0, b)
    assert out.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        local_walk(np.array([0.0]), np.ones(1), -1.0, b)


def test_average_loudness():
    s = _state([[0.0], [0.0]], [0.0], 0.0, loudness=[1.0, 1.0])
    assert average_loudness(s) == 1.0
    s2 = _state([[0.0], [0.0]], [0.0], 0.0, loudness=[1.0, 2.0])
    assert average_loudness(s2) == 1.5


def test_average_loudness_after_universal_acceptance():
    params = BatParams()
    state = _state([[5.0]] * 4, [5.0], 25.0, loudness=[1.0] * 4)
    for i in range(4):
        value = 1.0 - i * 0.1
        assert 0.0 < state.loudness[i] and value < state.best_value  # the gate opens on a 0 draw
        accept(state, i, np.array([1.0 + i * 1e-3]), value, params)
        assert state.acceptances[i] == 1
        assert state.pulse_rates[i] == 0.0  # accepted at t=0
    assert average_loudness(state) == pytest.approx(0.9)


def test_accept_rejects_worse_candidate_regardless_of_draw():
    # Loudness 2 passes every draw, but no sphere value beats -1; every
    # value beats inf, but no draw is below loudness 0.
    positions = [[1.0, -2.0], [0.5, 0.5], [-3.0, 4.0], [2.0, 2.0]]
    for loudness, best_value in [(2.0, -1.0), (0.0, math.inf)]:
        state = _state(positions, [1.0, 1.0], best_value, loudness=[loudness] * 4, seed=6)
        bat_step(state, BatParams(n=4), SPHERE2)
        assert state.positions.tolist() == positions
        assert state.best_position.tolist() == [1.0, 1.0]
        assert state.best_value == best_value
        assert not state.acceptances.any()
        assert state.pulse_rates.tolist() == [0.5] * 4
        assert state.iteration == 1


def test_accept_decays_loudness_and_sets_pulse():
    params = BatParams()
    state = _state([[1.0]], [1.0], 1.0, loudness=[1.0], pulse=[1.0], iteration=0)
    accept(state, 0, np.array([0.5]), 0.25, params)
    assert state.acceptances[0] == 1
    assert state.loudness[0] == 0.9
    assert state.pulse_rates[0] == 0.0  # t=0 -> r0 * (1 - exp(0)) = 0
    assert state.best_value == 0.25

    state.iteration = 1
    accept(state, 0, np.array([0.25]), 0.0625, params)
    assert state.acceptances[0] == 2
    assert state.pulse_rates[0] == pytest.approx(1.0 - math.exp(-0.9), abs=1e-15)
    assert state.loudness[0] == pytest.approx(0.81)


def test_loudness_closed_form_and_pulse_monotonicity():
    params = BatParams()
    state = _state([[5.0]], [5.0], 100.0, loudness=[1.7], pulse=[0.8])
    pulses = []
    value = 50.0
    for t in range(0, 40, 3):
        state.iteration = t
        accept(state, 0, np.array([value]), value, params)
        assert state.pulse_rates[0] == 0.8 * (1.0 - math.exp(-0.9 * t))  # the last acceptance's t
        pulses.append(state.pulse_rates[0])
        k = t // 3 + 1
        assert state.acceptances[0] == k
        assert state.loudness[0] == 1.7 * 0.9**k  # exact closed form
        assert 0.0 <= state.pulse_rates[0] <= state.initial_pulse_rates[0]
        value /= 2.0
    assert pulses == sorted(pulses)


def test_bat_step_uses_exactly_n_evaluations():
    params = BatParams(n=25)
    budget = EvalBudget(10_000)
    state = init_bats(params, SPHERE2, RandomStream(4), budget)
    before_best = state.best_value
    bat_step(state, params, SPHERE2)
    assert budget.used == 50
    assert state.iteration == 1
    assert state.best_value <= before_best


def test_bat_step_pulse_one_never_walks_locally():
    # rand in [0,1) is never > 1, so candidates always come from the global
    # move: draws per bat are exactly beta + branch + acceptance.
    params = BatParams(n=6)
    budget = EvalBudget(1_000)
    state = init_bats(params, SPHERE2, RandomStream(8), budget)
    state.pulse_rates[:] = 1.0
    bat_step(state, params, SPHERE2)
    init_draws = params.n * (SPHERE2.dim + 3)
    assert _pcg_state(state.rng) == _pcg_state(_advanced(8, init_draws + 3 * params.n))


def test_bat_step_pulse_zero_walks_locally():
    params = BatParams(n=6)
    budget = EvalBudget(1_000)
    state = init_bats(params, SPHERE2, RandomStream(8), budget)
    state.pulse_rates[:] = 0.0
    bat_step(state, params, SPHERE2)
    # Some bats accept and some do not, so the stream check below holds for
    # both outcomes: the acceptance draw is taken either way.
    assert 0 < np.count_nonzero(state.acceptances) < params.n
    init_draws = params.n * (SPHERE2.dim + 3)
    # beta + branch + acceptance, plus one epsilon vector of d draws per bat
    walk_draws = SPHERE2.dim * params.n
    assert _pcg_state(state.rng) == _pcg_state(_advanced(8, init_draws + 3 * params.n + walk_draws))


def test_run_accounting_and_bounds_sweep():
    params = BatParams(n=10)
    counter = CallCounter(SPHERE2.fn)
    obj = Objective("sphere", 2, SPHERE2.bounds, counter, 0.0)
    records = []
    result = run_trial("bat", obj, None, 10 * 31, 21, params, records.append)
    assert result.evaluations_used == counter.calls
    assert result.evaluations_used == 10 + 10 * result.iterations
    assert result.iterations == 30
    assert len(records) == 30
    for rec in records:
        assert rec.positions.shape == (10, 2)
        assert ((rec.positions >= -10.0) & (rec.positions <= 10.0)).all()
    best_values = [rec.best_value for rec in records]
    assert best_values == sorted(best_values, reverse=True)


def test_marked_objective_scores_a_sweeps_candidates_as_rows():
    # A marked fn scores a sweep's candidates in one call, and an acceptance
    # rescores the rows after it.  The budget ends inside a sweep.
    rastrigin = benchmark_spec("rastrigin", 4).objective
    rows_per_call = []

    @scores_rows
    def marked(xs):
        rows_per_call.append(len(np.atleast_2d(xs)))
        return rastrigin.fn(xs)

    limit = 20 + 20 * 30 + 7
    rows = run_trial("bat", dataclasses.replace(rastrigin, fn=marked), None, limit, 5, BatParams(n=20))
    assert sum(rows_per_call) >= rows.evaluations_used == limit
    assert len(rows_per_call) < rows.evaluations_used / 2


def _final_swarm(params, seed, budget):
    """The swarm a bat trial ends with when no tolerance is set: sweeps until
    the budget is spent; a sweep the budget cuts short spends what is left."""
    state = init_bats(params, SPHERE2, RandomStream(seed), budget)
    while budget.remaining:
        bat_step(state, params, SPHERE2)
    return state


def test_run_bat_monotone_best_and_loudness_histories():
    params = BatParams(n=12)
    budget = EvalBudget(12 * 61)
    state = _final_swarm(params, 33, budget)
    bounds = SPHERE2.bounds
    assert state.acceptances.any()
    for i, k in enumerate(state.acceptances.tolist()):
        assert state.loudness[i] == state.initial_loudness[i] * 0.9**k
        assert 0.0 <= state.pulse_rates[i] <= state.initial_pulse_rates[i]
        assert k or state.pulse_rates[i] == state.initial_pulse_rates[i]  # r0 until a first acceptance
        assert ((bounds.lower <= state.positions[i]) & (state.positions[i] <= bounds.upper)).all()


def test_zero_frequency_zero_velocity_improves_only_via_local_walk():
    # f_min=f_max=0 with zero initial velocities makes the global move an
    # identity, so any improvement is the local walk's doing.
    params = BatParams(n=10, f_min=0.0, f_max=0.0)
    budget = EvalBudget(10 * 51)
    state = _final_swarm(params, 5, budget)
    for v in state.velocities:
        assert np.array_equal(v, np.zeros(2))
    records = []
    run_trial("bat", SPHERE2, None, 10 * 51, 5, params, records.append)
    assert records[-1].best_value < records[0].best_value


def test_bat_step_cut_sweep_charges_only_the_remaining_budget():
    # 3 evaluations are left for 7 bats: the sweep evaluates 3 candidates.
    rastrigin = benchmark_spec("rastrigin", 3).objective
    counter = CallCounter(rastrigin.fn)
    obj = Objective("rastrigin", 3, rastrigin.bounds, counter, 0.0)
    params = BatParams(n=7)
    budget = EvalBudget(7 + 3)
    state = init_bats(params, obj, RandomStream(4), budget)
    bat_step(state, params, obj)
    assert counter.calls == budget.used == 7 + 3
    assert budget.remaining == 0


@pytest.mark.parametrize("function", ["dejong_sphere", "rastrigin", "ackley"])
def test_bat_step_best_is_lowest_bat(function):
    # A bat moves only on acceptance, and acceptance sets the swarm best to
    # its new position's value, so the best is always the lowest bat.
    obj = benchmark_spec(function, 2).objective
    params = BatParams(n=10)
    for seed in range(5):
        state = init_bats(params, obj, RandomStream(seed), EvalBudget(10 * 101))
        for _ in range(100):
            bat_step(state, params, obj)
            assert state.best_value == min(obj(p) for p in state.positions)
