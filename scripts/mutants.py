#!/usr/bin/env python3
"""Mutation gate: each named mutant must be killed by its named fast tests.

A mutant is one exact text replacement, ``(file, old, new)``, in a file of
this checkout; ``old`` must occur exactly once, so a mutant whose code has
moved fails loudly instead of testing nothing.  For each mutant, one at a
time, the script copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` to a temporary directory, applies the replacement there
and runs the mutant's tests with ``pytest -x``.  A test run that fails (or
hangs past the timeout) kills the mutant.  The unmutated copy must pass the
same tests first, or no kill would mean anything.

Equivalent mutants, which no test can tell from the program, are listed
with the evidence for their equivalence and run like the others, but they
do not gate.  The kill table goes to stdout as JSON, and each mutant's
outcome to stderr as it runs.  The exit status is 1 when a killable mutant
survives, and 2 when a mutant's text does not match exactly once, the
unmutated tests fail, or pytest cannot run a mutant's tests as named.

Left out: acceptance tested against the bat's own value rather than the
swarm best.  ``BatState`` keeps no per-bat values, so that mutant would be
a new array threaded through ``init_bats``, ``accept`` and ``bat_step``: a
rewrite rather than one replacement.

Usage: python scripts/mutants.py > kills.json
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600

PROPERTY = "tests/test_harness.py::test_run_trial_equals_the_references_across_the_configuration_space"
CLI_CONTRACT = "tests/test_cli.py::test_cli_bytes_equal_the_readme_contract"
REFUSALS = "tests/test_cli.py::test_invalid_configuration_exits_2_before_any_trial"
FORMULAS = "tests/test_benchmarks.py::test_formulas_equal_their_frozen_point_forms_on_fixed_points"
SEED_RANGE = "tests/test_core.py::test_a_seed_outside_64_bits_is_refused_before_any_evaluation"
BLAS_DEFAULT = "tests/test_cli.py::test_only_the_program_sets_one_blas_thread_and_before_numpy_loads"
CHILD_BYTES = "tests/test_cli.py::test_a_cli_child_writes_the_bytes_and_exit_code_of_run_cli"
SHAPE_TABLE = "tests/test_harness.py::test_a_marked_function_of_the_wrong_shape_is_refused_before_any_charge"
SEED_DERIVATION = "tests/test_harness.py::test_experiment_counts_and_seed_derivation"
NOT_INTEGERS = "tests/test_harness.py::test_a_budget_or_count_that_is_not_an_integer_is_refused_before_any_evaluation"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None  # the evidence, for a mutant no test can kill


BAT, CORE, CLI = "src/batbench/bat.py", "src/batbench/core.py", "src/batbench/cli.py"
BASELINES, BENCHMARKS = "src/batbench/baselines.py", "src/batbench/benchmarks.py"

MUTANTS = [
    # The bat.
    Mutant(
        "bat-loudness-decayed-every-sweep", BAT,
        "    state.velocities[:] = velocities\n",
        "    state.velocities[:] = velocities\n    state.loudness *= params.alpha\n",
        ("tests/test_bat.py::test_run_bat_monotone_best_and_loudness_histories",),
    ),
    Mutant(
        "bat-frequency-regrouped", BAT,
        "frequencies = params.f_min + (params.f_max - params.f_min) * beta",
        "frequencies = params.f_min + params.f_max * beta - params.f_min * beta",
        ("tests/test_bat.py::test_global_move_frequency_is_grouped_as_printed",),
    ),
    Mutant(
        "bat-walk-scaled-by-own-loudness", BAT,
        "        candidates[walkers[later] - first] = local_walk(\n"
        "            state.best_position, walk_draws[later], avg, bounds\n"
        "        )\n",
        "        candidates[walkers[later] - first] = clamp_to_bounds(\n"
        "            state.best_position + (2.0 * walk_draws[later] - 1.0)\n"
        "            * state.loudness[walkers[later], None], bounds\n"
        "        )\n",
        (PROPERTY,),
    ),
    Mutant(
        "point-path-scores-eagerly", CORE,
        "        for x in xs[:k]:\n            yield counted_evaluate(obj, x, budget)\n",
        "        yield from [counted_evaluate(obj, x, budget) for x in xs[:k]]\n",
        ("tests/test_bat.py::test_run_accounting_and_bounds_sweep",),
    ),
    Mutant(
        "seed-folded-to-64-bits", CORE,
        "        if not 0 <= seed < 2**64:",
        "        seed &= 2**64 - 1\n        if not 0 <= seed < 2**64:",
        (SEED_RANGE,),
    ),
    Mutant("seed-truncated-to-an-integer", CORE, "operator.index(seed)", "int(seed)", (SEED_RANGE,)),
    Mutant(
        "master-seed-truncated-to-an-integer", CORE,
        "{operator.index(master_seed)}:{label}:{operator.index(index)}",
        "{int(master_seed)}:{label}:{int(index)}",
        (SEED_DERIVATION,),
    ),
    Mutant(
        "budget-limit-truncated", CORE,
        "self.max_evaluations = operator.index(self.max_evaluations)",
        "self.max_evaluations = int(self.max_evaluations)",
        (NOT_INTEGERS,),
    ),
    Mutant("row-function-shape-unchecked", CORE, "    if np.shape(values) != (k,):\n", "    if False:\n", (SHAPE_TABLE,)),
    Mutant(
        "bat-frequency-as-interpolation", BAT,
        "frequencies = params.f_min + (params.f_max - params.f_min) * beta",
        "frequencies = params.f_max * beta + params.f_min * (1 - beta)",
        ("tests/test_bat.py::test_global_move_frequency_is_grouped_as_printed", PROPERTY),
        equivalent="bit-equal to the printed grouping on 100,000 uniform betas at (f_min, f_max) = "
        "(0, 100) and (0.5, 2)",
    ),
    Mutant(
        "bat-walk-gate-at-equality", BAT,
        "        walk = block[at + 1] > pulse\n",
        "        walk = block[at + 1] >= pulse\n",
        ("tests/test_bat.py::test_bat_step_pulse_one_never_walks_locally", PROPERTY),
        equivalent="a gate draw equals a pulse rate only by chance, about 2**-53 per test; a pulse "
        "of 1 is never reached by a draw in [0, 1)",
    ),
    # PSO and the GA.
    Mutant(
        "pso-c1-term-regrouped", BASELINES,
        "params.c1 * u1 * (pbest - x)",
        "params.c1 * (u1 * (pbest - x))",
        (PROPERTY,),
    ),
    Mutant(
        "pso-c2-term-regrouped", BASELINES,
        "params.c2 * u2 * (gbest - x)",
        "params.c2 * (u2 * (gbest - x))",
        (PROPERTY,),
    ),
    Mutant(
        "pso-velocity-unclamped", BASELINES,
        "        np.clip(v, -vmax, vmax, out=v)\n",
        "",
        (PROPERTY,),
    ),
    Mutant(
        "ga-rank-weights-inverted", BASELINES,
        "np.arange(n, 0, -1)",
        "np.arange(1, n + 1)",
        (PROPERTY,),
    ),
    Mutant(
        "ga-mutation-mask-dropped", BASELINES,
        "mutated = np.where(draws.mutate, offspring + draws.steps * sigma, offspring)",
        "mutated = offspring + draws.steps * sigma",
        (PROPERTY,),
    ),
    Mutant(
        "ga-extra-child-crossed-with-neighbour", BASELINES,
        "        offspring[1:paired:2] = np.where(draws.take_a, b, a)\n",
        "        offspring[1:paired:2] = np.where(draws.take_a, b, a)\n"
        "        if n % 2:\n"
        "            offspring[-1] = np.where(draws.take_a[-1], parents[-1], parents[-2])\n",
        (PROPERTY,),
    ),
    Mutant(
        "ga-extra-pick-after-its-mutation-draws", BASELINES,
        "        picks[-1] = tail[0]\n        mutate_u[-1] = tail[1:]\n",
        "        picks[-1] = tail[d]\n        mutate_u[-1] = tail[:d]\n",
        (PROPERTY,),
    ),
    # The registry.
    Mutant(
        "eggcrate-squared-by-power-operator", BENCHMARKS,
        "np.float_power(np.sin(a), 2.0) + np.float_power(np.sin(b), 2.0)",
        "np.sin(a) ** 2 + np.sin(b) ** 2",
        (FORMULAS,),
    ),
    Mutant(
        "easom-squared-by-power-operator", BENCHMARKS,
        "np.float_power(a - np.pi, 2.0) + np.float_power(b - np.pi, 2.0)",
        "(a - np.pi) ** 2 + (b - np.pi) ** 2",
        (FORMULAS,),
    ),
    Mutant(
        "sphere-summed-left-to-right", BENCHMARKS,
        "def dejong_sphere(x: np.ndarray) -> Values:\n    return np.add.reduce(x * x, axis=-1)\n",
        "def dejong_sphere(x: np.ndarray) -> Values:\n    return np.cumsum(x * x, axis=-1)[..., -1]\n",
        (FORMULAS,),
    ),
    Mutant(
        "easom-box-at-50", BENCHMARKS,
        "easom, -100.0, 100.0,",
        "easom, -50.0, 50.0,",
        ("tests/test_benchmarks.py::test_registry_entries_equal_the_frozen_table[easom]",),
    ),
    # The CLI.
    Mutant("cli-16-digits", CLI, 'format(float(x), ".17g")', 'format(float(x), ".16g")', (CLI_CONTRACT,)),
    Mutant("cli-trace-16-digits", CLI, '["%.17g"] * d', '["%.16g"] * d', (CLI_CONTRACT,)),
    Mutant(
        "cli-iterations-column-dropped", CLI,
        '"best_value": r.best_value, "iterations": r.iterations,',
        '"best_value": r.best_value,',
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-std-evals-column-dropped", CLI,
        '"std_evals": summary.std_evals, ',
        "",
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-jsonl-writes-inf", CLI,
        'return _fmt(value) if math.isfinite(value) else "null"',
        "return _fmt(value)",
        (CLI_CONTRACT,),
    ),
    Mutant("cli-workers-config-key-dropped", CLI, '"workers": args.workers, ', "", (CLI_CONTRACT,)),
    Mutant(
        "cli-csv-writes-True", CLI,
        'return "true" if value else "false"',
        "return str(value)",
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-csv-writes-None", CLI,
        '    if value is None:\n        return ""\n',
        '    if value is None:\n        return "None"\n',
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-csv-sidecar", CLI,
        'if regular and args.format == "jsonl":',
        "if regular:",
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-compare-rows-by-algorithm-first", CLI,
        "    for by_algorithm in campaigns:\n        for algorithm in algorithms:\n",
        "    for algorithm in algorithms:\n        for by_algorithm in campaigns:\n",
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-trace-derives-its-seed", CLI,
        "args.max_evals, args.seed, params=params",
        'args.max_evals, __import__("batbench").core.derive_seed(args.seed, args.algorithm, 0), params=params',
        (CLI_CONTRACT,),
    ),
    Mutant(
        "cli-trace-budget-from-a-bad-pop", CLI,
        "args.max_evals = max(args.pop, 1) * (args.iters + 1)",
        "args.max_evals = args.pop * (args.iters + 1)",
        (REFUSALS,),
    ),
    Mutant(
        "cli-program-sets-no-blas-default", CLI,
        '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "    pass\n",
        (f"{BLAS_DEFAULT}[module-None]",),
    ),
    Mutant(
        "cli-stdout-left-unflushed-before-exit", CLI,
        "for stream in (sys.stdout, sys.stderr):",
        "for stream in (sys.stderr,):",
        (f"{CHILD_BYTES}[exit-0]",),
    ),
    Mutant(
        "cli-trace-seed-checked-inside-the-trial", CLI,
        "    RandomStream(args.seed)  # refuses a trial seed outside [0, 2**64) before the output opens\n",
        "",
        (REFUSALS,),
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[str, float]:
    """'passed', 'failed', 'timeout' or 'error' (pytest could not run the
    tests as named), and the run's wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return {0: "passed", 1: "failed"}.get(code, "error"), time.perf_counter() - start


def main() -> int:
    counts = {m.name: (ROOT / m.file).read_text().count(m.old) for m in MUTANTS}
    unmatched = [f"{name}: its text occurs {count} times" for name, count in counts.items() if count != 1]
    if unmatched:
        print("\n".join(unmatched), file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="batbench-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        outcome, seconds = _run_tests(clean, every_test)
        print(f"unmutated: {outcome} in {seconds:.1f} s", file=sys.stderr)
        if outcome != "passed":
            return 2

        table = []
        for mutant in MUTANTS:
            tree = Path(scratch) / mutant.name
            _copy_tree(tree)
            source = tree / mutant.file
            source.write_text(source.read_text().replace(mutant.old, mutant.new))
            outcome, seconds = _run_tests(tree, mutant.tests)
            shutil.rmtree(tree)
            table.append({
                "name": mutant.name, "file": mutant.file, "tests": list(mutant.tests),
                "killable": mutant.equivalent is None, "equivalent": mutant.equivalent,
                "outcome": outcome, "killed": outcome in ("failed", "timeout"), "seconds": round(seconds, 2),
            })
            print(f"{mutant.name}: {outcome} in {seconds:.1f} s", file=sys.stderr)

    print(json.dumps(table, indent=1))
    if any(row["outcome"] == "error" for row in table):
        return 2
    return 1 if any(row["killable"] and not row["killed"] for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
