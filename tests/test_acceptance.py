"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 3, 4 and 5 run the campaigns behind the paper's figures and
Table 1 and check them, trial by trial, against reference campaigns of the
README's printed rules (``tests/oracles.py``): the package must equal the
reference on best value, best position, evaluations used, iterations and
success.  The paper's reported targets (eggcrate >= 90/100, sphere success
>= 0.90, bat < pso < ga) are results those printed rules do not produce;
they are printed on the CRITERION line beside the measured values as a
reproduction finding, not asserted.  See the repository README for the
measured behavior.
"""

import functools
import json
import math
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from batbench import (
    BatParams,
    EvalBudget,
    GaParams,
    Objective,
    PsoParams,
    benchmark_spec,
    derive_seed,
    run_trial,
)
from batbench.bat import BatState, accept
from batbench.cli import run_cli
from batbench.core import RandomStream
from batbench.harness import experiment_trials, summarize
from oracles import (
    REFERENCE_RUNNERS,
    CallCounter,
    reference_bat,
    reference_seed,
    refine_1d,
)


def _report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)")


_COMPARED = ("seed", "best_value", "best_position", "evaluations_used", "iterations", "success")


def _reference_mismatches(results, references) -> list[str]:
    """Trials where the package and the printed-rules reference differ."""
    assert len(results) == len(references)
    out = []
    for k, (r, ref) in enumerate(zip(results, references)):
        diff = [
            f"{name} {getattr(r, name)!r} != {getattr(ref, name)!r}"
            for name in _COMPARED
            if getattr(r, name) != getattr(ref, name)
        ]
        if diff:
            out.append(f"trial {k}: " + ", ".join(diff))
    return out


def _call(run, *args):
    return run(*args)


def _references(jobs) -> list:
    """[run(*args) for run, *args in jobs], in order, computed on a pool of
    two forked processes, which start with this process's imports: each
    reference trial is a plain Python loop, independent of the others."""
    with multiprocessing.get_context("fork").Pool(2) as pool:
        return pool.starmap(_call, jobs, chunksize=1)


def _reference_trial_jobs(algorithm, objective, tolerance, max_evals, trials, master_seed) -> list:
    """The calls reference_trials makes, one job per trial, for _references."""
    run = REFERENCE_RUNNERS[algorithm]
    return [
        (run, objective, reference_seed(master_seed, algorithm, k), max_evals, tolerance)
        for k in range(trials)
    ]


def _readme_battery_status() -> str:
    """README's "Acceptance battery status" section, its whitespace collapsed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Acceptance battery status\n", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


def test_criterion_1_benchmark_oracle_suite():
    start = time.perf_counter()
    checks = []
    checks.append(abs(benchmark_spec("rosenbrock_paper", 2).objective([1.0, 1.0])) <= 1e-9)
    checks.append(abs(benchmark_spec("eggcrate", 2).objective([0.0, 0.0])) <= 1e-9)
    checks.append(abs(benchmark_spec("dejong_sphere", 16).objective(np.zeros(16))) <= 1e-9)
    checks.append(abs(benchmark_spec("ackley", 16).objective(np.zeros(16))) <= 1e-9)

    # Michalewicz is a separable sum: brute-force refine each coordinate term.
    def oracle_min(dim):
        total = 0.0
        for i in range(1, dim + 1):
            _, v = refine_1d(
                lambda t, i=i: -np.sin(t) * np.sin(i * t * t / np.pi) ** 20, 0.0, np.pi
            )
            total += v
        return total

    m2, m5 = oracle_min(2), oracle_min(5)
    checks.append(abs(m2 - (-1.801)) <= 2e-3)
    checks.append(abs(m5 - (-4.6877)) <= 2e-3)
    checks.append(abs(benchmark_spec("michalewicz", 2).objective.known_min - m2) <= 2e-3)
    checks.append(abs(benchmark_spec("michalewicz", 5).objective.known_min - m5) <= 2e-3)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 10.0
    _report(1, ok, f"optima verified, michalewicz oracle d2={m2:.4f} d5={m5:.4f}", elapsed)
    assert all(checks)
    assert elapsed < 10.0


def test_criterion_2_schedule_closed_forms():
    start = time.perf_counter()
    params = BatParams()  # alpha = gamma = 0.9
    a0, r0 = 1.7, 0.8
    state = BatState(
        positions=np.array([[5.0]]),
        velocities=np.zeros((1, 1)),
        loudness=np.array([a0]),
        initial_loudness=np.array([a0]),
        pulse_rates=np.array([r0]),
        initial_pulse_rates=np.array([r0]),
        acceptances=np.zeros(1, dtype=int),
        best_position=np.array([5.0]),
        best_value=1e9,
        rng=RandomStream(0),
        budget=EvalBudget(1),
    )

    # Forced-acceptance synthetic run: the candidate always improves.
    value = 1e8
    for k in range(1, 120):
        state.iteration = k
        accept(state, 0, np.array([float(k)]), value, params)
        assert state.acceptances[0] == k
        value /= 2.0
        assert state.loudness[0] == a0 * 0.9**k  # exact closed form
        expected_pulse = r0 * (1.0 - math.exp(-0.9 * state.iteration))
        assert abs(state.pulse_rates[0] - expected_pulse) <= 1e-12

    # Loudness threshold: 0.9^k < 1e-4 first at k = 88.
    threshold_ok = (0.9**88 < 1e-4) and (0.9**87 >= 1e-4)
    assert a0 * 0.9**88 < 1e-4 * a0

    # Eq-limit check at t = 1e3: pulse has converged to its ceiling.
    state.iteration = 1_000
    accept(state, 0, np.array([0.0]), -1.0, params)
    limit_ok = abs(state.pulse_rates[0] - r0) <= 1e-12

    elapsed = time.perf_counter() - start
    ok = threshold_ok and limit_ok
    _report(2, ok, f"alpha^k exact, pulse within 1e-12, k>=88 gives A<1e-4*A0", elapsed)
    assert threshold_ok and limit_ok


def test_criterion_3_figure_reproduction(tmp_path):
    start = time.perf_counter()

    # Fig-1 style: 25 bats, 20 iterations on the printed Rosenbrock; the
    # final-iteration best must land within 0.5 of a minimizer ((1,1) or
    # (-1,1) for the squared-variable form).
    minimizers = [np.array([1.0, 1.0]), np.array([-1.0, 1.0])]
    rosenbrock = benchmark_spec("rosenbrock_paper", 2).objective
    rosen_hits = 0
    traces = []
    for k in range(100):
        out = tmp_path / f"trace_{k}.jsonl"
        code = run_cli([
            "trace", "--algorithm", "bat", "--function", "rosenbrock_paper",
            "--dim", "2", "--pop", "25", "--iters", "20",
            "--seed", str(derive_seed(0, "bat", k)), "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        last = json.loads(lines[-1])
        traces.append((len(lines), last))
        positions = np.array(last["positions"])
        values = [rosenbrock(p) for p in positions]
        best_pos = positions[int(np.argmin(values))]
        assert min(values) == pytest.approx(last["best"], rel=1e-12, abs=1e-12)
        if min(np.linalg.norm(best_pos - m) for m in minimizers) <= 0.5:
            rosen_hits += 1

    # Fig-2 style: 40 bats on the eggcrate, 10,000-evaluation budget; the
    # paper's figure has the final best within 0.05 of the origin.
    egg = benchmark_spec("eggcrate", 2).objective
    egg_results = [
        run_trial("bat", egg, None, 10_000, derive_seed(0, "bat-egg", k)) for k in range(100)
    ]
    egg_hits = sum(np.linalg.norm(np.array(r.best_position)) <= 0.05 for r in egg_results)
    elapsed = time.perf_counter() - start

    # The printed rules, outside the timed window: every trace must end in
    # the reference's final swarm and best, every eggcrate trial must equal
    # the reference trial.
    rosen = benchmark_spec("rosenbrock_paper", 2).objective
    rosen_bat = functools.partial(reference_bat, n=25, max_iterations=20)
    refs = _references(
        [(rosen_bat, rosen, reference_seed(0, "bat", k), 25 * 21) for k in range(100)]
        + [(reference_bat, egg, reference_seed(0, "bat-egg", k), 10_000) for k in range(100)]
    )
    rosen_refs, egg_refs = refs[:100], refs[100:]
    mismatches = []
    for k, ((iterations, last), ref) in enumerate(zip(traces, rosen_refs)):
        if not (
            iterations == ref.iterations
            and last["best"] == ref.best_value
            and np.array_equal(np.array(last["positions"]), ref.positions)
        ):
            mismatches.append(f"rosenbrock trace {k}")
    mismatches += [f"eggcrate {m}" for m in _reference_mismatches(egg_results, egg_refs)]

    ok = rosen_hits >= 80 and not mismatches and elapsed < 60.0
    _report(
        3, ok,
        f"rosenbrock within 0.5: {rosen_hits}/100 (need >=80); "
        f"eggcrate within 0.05: {egg_hits}/100 (paper's figure >=90, not asserted); "
        f"trials differing from the printed-rules reference: {len(mismatches)}/200",
        elapsed,
    )
    assert elapsed < 60.0
    assert rosen_hits >= 80, f"rosenbrock trace hits {rosen_hits}/100"
    assert not mismatches, "; ".join(mismatches[:5])
    status = _readme_battery_status()
    assert f"minimizer in {rosen_hits}/100 seeds" in status
    assert f"origin in only {egg_hits}/100" in status


def test_criterion_4_convergence_to_tolerance():
    start = time.perf_counter()
    sphere = benchmark_spec("dejong_sphere", 16).objective
    results = experiment_trials(["bat"], sphere, 1e-5, 10_000, trials=100, master_seed=0)["bat"]
    rate = summarize(results).success_rate
    elapsed = time.perf_counter() - start

    refs = _references(_reference_trial_jobs("bat", sphere, 1e-5, 10_000, trials=100, master_seed=0))
    mismatches = _reference_mismatches(results, refs)
    ok = not mismatches and elapsed < 120.0
    _report(
        4, ok,
        f"sphere d=16 @1e-5/10k: success rate {rate:.2f} (paper >=0.90, not asserted); "
        f"trials differing from the printed-rules reference: {len(mismatches)}/100",
        elapsed,
    )
    assert elapsed < 120.0
    assert not mismatches, "; ".join(mismatches[:5])
    assert f"success rate {sum(r.success for r in results)}/100" in _readme_battery_status()


def test_criterion_5_ordering_property():
    # The tolerance/budget instantiation is chosen so every algorithm has a
    # well-defined mean on the sphere: tol=100 (sphere) / 17 (ackley),
    # budget 40,000, 30 trials, fixed master seed.
    start = time.perf_counter()
    budget = 40_000
    campaigns = []
    for fn, tol in (("dejong_sphere", 100.0), ("ackley", 17.0)):
        objective = benchmark_spec(fn, 16).objective
        by_algorithm = experiment_trials(
            ["bat", "pso", "ga"], objective, tol, budget, trials=30, master_seed=0
        )
        campaigns.append((fn, tol, objective, by_algorithm))
    elapsed = time.perf_counter() - start

    references = iter(_references([
        job
        for _, tol, objective, _ in campaigns
        for a in ("bat", "pso", "ga")
        for job in _reference_trial_jobs(a, objective, tol, budget, trials=30, master_seed=0)
    ]))
    details = []
    rows = {}
    mismatches = []
    for fn, tol, objective, by_algorithm in campaigns:
        summaries = {a: summarize(by_algorithm[a]) for a in ("bat", "pso", "ga")}
        means = {a: s.mean_evals for a, s in summaries.items()}
        ordered = all(m is not None for m in means.values()) and (
            means["bat"] < means["pso"] < means["ga"]
        )
        rows[fn] = ", ".join(
            f"{a} {'-' if s.mean_evals is None else round(s.mean_evals, 1)} "
            f"({round(s.success_rate * s.trial_count)}/{s.trial_count})"
            for a, s in summaries.items()
        )
        details.append(f"{fn}: {rows[fn]}, bat<pso<ga {'holds' if ordered else 'does not hold'}")
        for a in ("bat", "pso", "ga"):
            refs = [next(references) for _ in range(30)]
            mismatches += [f"{fn} {a} {m}" for m in _reference_mismatches(by_algorithm[a], refs)]

    ok = not mismatches and elapsed < 300.0
    _report(
        5, ok,
        "mean evals over successes (successes/trials); paper's Table 1 has "
        "bat<pso<ga, not asserted; " + "; ".join(details)
        + f"; trials differing from the printed-rules reference: {len(mismatches)}/180",
        elapsed,
    )
    assert elapsed < 300.0
    assert not mismatches, "; ".join(mismatches[:5])
    assert f"Ackley {rows['ackley']}" in _readme_battery_status()


def test_criterion_6_determinism(tmp_path):
    start = time.perf_counter()
    args = [
        "compare", "--functions", "dejong,eggcrate", "--dim", "2",
        "--algorithms", "bat,pso,ga", "--trials", "5",
        "--max-evals", "1000", "--seed", "99",
    ]
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli(args + ["--output", str(f1)]) == 0
    assert run_cli(args + ["--output", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()

    sphere = benchmark_spec("dejong_sphere", 2).objective
    seq = experiment_trials(["bat", "pso", "ga"], sphere, 1e-2, 1_200, 8, 5, workers=1)
    par = experiment_trials(["bat", "pso", "ga"], sphere, 1e-2, 1_200, 8, 5, workers=4)
    concurrency_invariant = seq == par

    elapsed = time.perf_counter() - start
    ok = identical and concurrency_invariant
    _report(6, ok, f"byte-identical files: {identical}; workers 1 vs 4 equal: {concurrency_invariant}", elapsed)
    assert identical and concurrency_invariant


def test_criterion_7_evaluation_accounting():
    start = time.perf_counter()
    spec = benchmark_spec("dejong_sphere", 2)
    failures = []
    for algo, params in (("bat", BatParams(n=20)), ("pso", PsoParams(n=20)), ("ga", GaParams(n=20))):
        for stop_at, max_evals in ((None, 20 * 26), (1.0, 20 * 200)):
            counter = CallCounter(spec.objective.fn)
            obj = Objective("sphere", 2, spec.objective.bounds, counter, 0.0)
            result = run_trial(algo, obj, stop_at, max_evals, 17, params)
            expected = 20 + 20 * result.iterations
            if not (result.evaluations_used == expected == counter.calls):
                failures.append(
                    f"{algo} stop_at={stop_at}: used={result.evaluations_used} "
                    f"formula={expected} calls={counter.calls}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(7, ok, "evaluations_used == n + n*iterations == wrapped call count" if ok else "; ".join(failures), elapsed)
    assert not failures
