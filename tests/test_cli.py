import contextlib
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batbench import __version__, cli
from batbench.cli import run_cli
from batbench.benchmarks import benchmark_spec
from batbench.core import TrajectoryRecord
from batbench.harness import ALGORITHMS, experiment_trials, run_trial, summarize
from oracles import REGISTRY, REGISTRY_ALIASES


def test_list_functions(capsys):
    assert run_cli(["list-functions"]) == 0
    assert capsys.readouterr().out == "".join(f"{name} {REGISTRY[name].dims}\n" for name in sorted(REGISTRY))


def _reference_trace_line(record):
    """A trace line with each value formatted on its own, as `trace` once wrote it."""
    rows = ",".join(
        "[" + ",".join(format(float(v), ".17g") for v in row) + "]" for row in record.positions
    )
    best = format(record.best_value, ".17g") if math.isfinite(record.best_value) else "null"
    return '{"iter": %d, "positions": [%s], "best": %s}' % (record.iteration, rows, best)


# README's output contract, rendered from the library's own trials: each
# algorithm's least --pop, a valid value of each override flag, and the
# canonical name of each name the registry takes.
_LEAST_POP = {"bat": 1, "pso": 2, "ga": 2}
_OVERRIDES = {"alpha": 0.5, "gamma": 0.3, "fmin": 0.5, "fmax": 2.0, "c1": 1.5, "c2": 3.0, "inertia": -0.5,
              "pm": 0.2, "pc": 0.6}
_CANONICAL = {**{name: name for name in REGISTRY}, **REGISTRY_ALIASES}
_COLUMNS = {
    "run": "function,dim,algorithm,trial,seed,evaluations_used,success,best_value,iterations",
    "compare": "function,dim,algorithm,trials,mean_evals,std_evals,success_rate,master_seed,tool_version",
}


def _cell(value, jsonl):
    """A real at 17 significant digits, a boolean in lower case, and an
    absent value, or in JSONL a non-finite real, as an empty CSV cell or
    JSONL null."""
    if value is None or (jsonl and isinstance(value, float) and not math.isfinite(value)):
        return "null" if jsonl else ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value) if jsonl else str(value)


def _rendering(subcommand, flags):
    """(stdout, {file name: text}) that the contract gives the command."""
    numbers = {"--dim": None, "--pop": 40, "--seed": 0, "--iters": None,
               "--trials": 100, "--max-evals": 10_000, "--workers": 1}  # README's defaults
    numbers.update((flag, int(value)) for flag, value in flags.items() if flag in numbers)
    dim, pop, seed, iters, trials, max_evals, workers = numbers.values()
    tolerance, fmt = float(flags.get("--tolerance", 1e-5)), flags.get("--format", "csv")
    if subcommand == "trace":  # which takes no flag for these
        trials, tolerance, max_evals, workers, fmt = 1, None, pop * (iters + 1), 1, "jsonl"
    compare = subcommand == "compare"
    algorithms = flags.get("--algorithms", "bat,pso,ga").split(",") if compare else [flags["--algorithm"]]
    functions = flags["--functions"].split(",") if compare else [flags["--function"]]
    overrides = {flag[2:]: float(value) for flag, value in flags.items() if flag[2:] in _OVERRIDES}
    params = {}
    for a in algorithms:
        fields = ALGORITHMS[a].flags
        params[a] = ALGORITHMS[a].params(n=pop, **{fields[f]: v for f, v in overrides.items() if f in fields})
    config = json.dumps({
        "subcommand": subcommand, "algorithms": algorithms, "functions": functions, "dim": dim,
        "trials": trials, "tolerance": tolerance, "max_evals": max_evals, "population": pop,
        "overrides": overrides, "master_seed": seed, "output_format": fmt, "iters": iters, "workers": workers,
        "rng": "numpy.random.PCG64", "tool_version": __version__,
        "statistics": "mean/std over successful trials only; success_rate over all trials",
    }, sort_keys=True)
    if subcommand == "trace":  # the seed is the trial's own, not a derived one
        records = []
        run_trial(algorithms[0], benchmark_spec(functions[0], dim).objective, None, max_evals, seed,
                  params[algorithms[0]], records.append)
        text = "".join(_reference_trace_line(r) + "\n" for r in records)
    else:
        rows = []  # by function, then by algorithm
        for function in functions:
            by_algorithm = experiment_trials(algorithms, benchmark_spec(function, dim).objective, tolerance,
                                             max_evals, trials, seed, params_by_algorithm=params)
            for a in algorithms:
                head = (_CANONICAL[function], dim or 2, a)
                if subcommand == "run":
                    rows += [(*head, k, r.seed, r.evaluations_used, r.success, r.best_value, r.iterations)
                             for k, r in enumerate(by_algorithm[a])]
                else:
                    s = summarize(by_algorithm[a])
                    rows.append((*head, trials, s.mean_evals, s.std_evals, s.success_rate, seed, __version__))
        keys = _COLUMNS[subcommand].split(",")
        if fmt == "jsonl":
            lines = ["{" + ", ".join(f'"{k}": {_cell(v, True)}' for k, v in zip(keys, row)) + "}"
                     for row in rows]
        else:
            lines = [f"# batbench {__version__}", f"# config {config}", ",".join(keys)]
            lines += [",".join(_cell(v, False) for v in row) for row in rows]
        text = "".join(line + "\n" for line in lines)
    if "--output" not in flags:
        return text, {}
    sidecar = {flags["--output"] + ".config.json": config + "\n"} if fmt == "jsonl" else {}
    return "", {flags["--output"]: text, **sidecar}


@st.composite
def _commands(draw):
    """A run, compare or trace command line that the CLI accepts."""
    subcommand = draw(st.sampled_from(["run", "compare", "trace"]))
    a_function, an_algorithm = st.sampled_from(sorted(_CANONICAL)), st.sampled_from(sorted(_LEAST_POP))
    if subcommand == "compare":
        algorithms = draw(st.none() | st.lists(an_algorithm, min_size=1, max_size=3, unique=True))
        functions = draw(st.lists(a_function, min_size=1, max_size=3, unique_by=_CANONICAL.get))
        flags = {"--algorithms": algorithms and ",".join(algorithms), "--functions": ",".join(functions)}
    else:
        algorithms, functions = [draw(an_algorithm)], [draw(a_function)]
        flags = {"--algorithm": algorithms[0], "--function": functions[0]}
    # run and compare always have a tolerance, so only a d with a known minimum.
    entries = [REGISTRY[_CANONICAL[f]] for f in functions]
    flags["--dim"] = draw(st.sampled_from([
        d for d in (None, 1, 2, 3, 4, 5, 6, 16)
        if all(e.takes(d or 2) and (subcommand == "trace" or e.minimum(d or 2) is not None) for e in entries)
    ]))
    least = max(_LEAST_POP[a] for a in algorithms or _LEAST_POP)
    flags["--pop"] = pop = draw(st.none() | st.integers(least, 12))
    if subcommand == "trace":
        flags["--iters"] = draw(st.integers(1, 6))
    else:
        flags["--trials"] = draw(st.integers(1, 3))
        # Below the population, at the end of a sweep or inside one.
        flags["--max-evals"] = draw(st.integers(1, 7 * (pop or 40)))
        flags["--tolerance"] = draw(st.none() | st.sampled_from([0.0, 1e-5, 0.5, 100.0]))
        flags["--workers"] = draw(st.sampled_from([None, 1, 2]))
        flags["--format"] = draw(st.sampled_from([None, "csv", "jsonl"]))
    for flag in draw(st.lists(st.sampled_from(sorted(_OVERRIDES)), unique=True)):
        flags[f"--{flag}"] = _OVERRIDES[flag]
    flags["--seed"] = draw(st.none() | st.integers(0, 2**64 - 1))
    flags["--output"] = draw(st.sampled_from([None, "out"]))
    return " ".join([subcommand, *(f"{flag} {value}" for flag, value in flags.items() if value is not None)])


_WORKLOAD_TRACE = "trace --function dejong --dim 16 --iters 50 --seed 3 --algorithm "


@settings(max_examples=60, deadline=None)
@given(_commands())
@example("trace --algorithm bat --function rosenbrock_paper --dim 2 --pop 25 --iters 20 --seed 1 "
         "--output paths.jsonl")
# The bat moves few rows per sweep; PSO and GA move nearly all of them, and
# the GA's odd population has its extra child.
@example(_WORKLOAD_TRACE + "bat --pop 40 --output bat.jsonl")
@example(_WORKLOAD_TRACE + "bat --pop 40")
@example(_WORKLOAD_TRACE + "pso --pop 41 --output pso.jsonl")
@example(_WORKLOAD_TRACE + "pso --pop 41")
@example(_WORKLOAD_TRACE + "ga --pop 41 --output ga.jsonl")
@example(_WORKLOAD_TRACE + "ga --pop 41")
# A budget below the population: the best value is inf.
@example("run --algorithm ga --function dejong --dim 2 --trials 1 --max-evals 10 --format jsonl")
@example("run --algorithm ga --function dejong --dim 2 --trials 1 --max-evals 10")
@example("compare --functions eggcrate,sphere,ackley --algorithms ga,bat,pso --dim 2 --trials 3 "
         "--tolerance 0.5 --max-evals 300 --seed 7 --output cmp.csv")
def test_cli_bytes_equal_the_readme_contract(command):
    # stdout, the --output file and its sidecar, on two identical calls,
    # equal README's output contract rendered from the library's trials.
    argv = command.split()
    expected = _rendering(argv[0], dict(zip(argv[1::2], argv[2::2])))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, a) if flag == "--output" else a for flag, a in zip([None, *argv], argv)]
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert run_cli(argv) == 0, err.getvalue()
            files = {path.name: path.read_bytes().decode() for path in Path(tmp).iterdir()}
            assert (err.getvalue(), out.getvalue(), files) == ("", *expected)


def _trace_args(iters, *extra):
    return ["trace", "--algorithm", "bat", "--function", "dejong", "--dim", "16",
            "--pop", "40", "--iters", str(iters), "--seed", "3", *extra]


def test_trace_writer_formats_moved_rows_by_their_bits():
    """Hand-made records through the row cache: a row that flips between
    0.0 and -0.0 (equal as floats, printed apart), a row that changes only
    in its last bit, lines where every row moves or none does, and a NaN
    best written as null."""
    base = np.array([[0.0, 1.5, -2.25], [0.1, 0.2, 0.3], [7.0, -8.0, 9.5]])
    last_bit = base.copy()
    last_bit[1, 2] = np.nextafter(0.3, 1.0)
    signed = last_bit.copy()
    signed[0, 0] = -0.0
    moved = base + 1.0
    records = [
        TrajectoryRecord(k, positions, best)
        for k, (positions, best) in enumerate([
            (base, 3.0),
            (signed, 2.0),       # two rows moved, after a line that moved every row
            (base, 1.0),         # the same two rows back
            (last_bit, 1.0),     # one row by its last bit
            (last_bit, math.nan),  # no row moved
            (moved, 0.5),        # every row moved
            (last_bit, -0.0),    # every row moved back
            (signed, math.inf),  # one row moved, after a line that moved every row
        ], 1)
    ]
    out = io.StringIO()
    write = cli._trace_writer(out, 3, 3)
    for record in records:
        write(record)
    lines = out.getvalue().splitlines()
    assert lines == [_reference_trace_line(r) for r in records]
    assert "[[-0,1.5,-2.25]" in lines[1] and "[[0,1.5,-2.25]" in lines[2]
    assert lines[4].endswith('"best": null}') and lines[7].endswith('"best": null}')


def _spec_raising_in_sweep(calls, sweep, error, probe=lambda: None):
    """benchmark_spec whose objective appends probe() to `calls` on every
    call and raises `error` on the 8th call of the given sweep of 40 bats,
    sweep 0 being the initialisation (one call per point: the wrapper scores
    no rows)."""
    def spec_of(name, dim):
        spec = benchmark_spec(name, dim)
        fn = spec.objective.fn

        def flaky(x):
            calls.append(probe())
            if len(calls) > 40 * sweep + 7:
                raise error
            return fn(x)

        return dataclasses.replace(spec, objective=dataclasses.replace(spec.objective, fn=flaky))

    return spec_of


def test_trace_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "trace.jsonl"
    calls = []
    failing = _spec_raising_in_sweep(calls, 4, RuntimeError("objective failed"), out.exists)
    monkeypatch.setattr(cli, "benchmark_spec", failing)
    assert run_cli(_trace_args(10, "--output", str(out))) == 1
    assert "objective failed" in capsys.readouterr().err
    assert calls[-1] is True  # the file was open when the trial failed
    assert list(tmp_path.iterdir()) == []  # and is gone, with no sidecar
    # On stdout the three completed sweeps' lines stay, each one whole.
    calls.clear()
    assert run_cli(_trace_args(10)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["iter"] for line in lines] == [1, 2, 3]


@pytest.mark.parametrize("subcommand", ["run", "trace"])
def test_value_error_inside_a_trial_exits_1(tmp_path, monkeypatch, capsys, subcommand):
    # A ValueError from the objective is a runtime failure, not a configuration error.
    calls = []
    monkeypatch.setattr(cli, "benchmark_spec", _spec_raising_in_sweep(calls, 3, ValueError("bad point")))
    out = tmp_path / "out.jsonl"
    if subcommand == "run":
        argv = ["run", "--algorithm", "bat", "--function", "dejong", "--dim", "16", "--trials", "2",
                "--max-evals", "1000", "--format", "jsonl", "--output", str(out)]
    else:
        argv = _trace_args(10, "--output", str(out))
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "batbench: error: bad point\n"
    assert len(calls) == 40 * 3 + 8
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.config.json").exists()


def _drain(fd):
    """Everything a finished writer left in the pipe read through `fd`."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def test_an_output_that_is_not_a_regular_file_is_never_deleted_and_gets_no_sidecar(
    tmp_path, monkeypatch, capsys
):
    # A FIFO stands for outputs such as /dev/null: whether the trace finishes
    # or fails, the FIFO stays and no <output>.config.json appears beside it.
    # At d=2 both traces write less than a pipe holds, so the writer never waits.
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    trace = ["trace", "--algorithm", "bat", "--function", "dejong", "--dim", "2", "--seed", "3"]

    def trace_into_fifo(iters):
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opening the write end needs a reader
        try:
            return run_cli(trace + ["--iters", str(iters), "--output", str(fifo)]), _drain(reader).decode()
        finally:
            os.close(reader)

    assert run_cli(trace + ["--iters", "2"]) == 0
    expected = capsys.readouterr().out
    assert trace_into_fifo(2) == (0, expected)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo"]

    calls = []
    monkeypatch.setattr(cli, "benchmark_spec", _spec_raising_in_sweep(calls, 3, ValueError("bad point")))
    code, written = trace_into_fifo(10)
    assert code == 1
    assert capsys.readouterr().err == "batbench: error: bad point\n"
    assert [json.loads(line)["iter"] for line in written.splitlines()] == [1, 2]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo"]


def _run_dejong(algorithm, *flags):
    return ["run", "--algorithm", algorithm, "--function", "dejong", *flags]


def _trace_dejong(*flags):
    return ["trace", "--algorithm", "bat", "--function", "dejong", "--iters", "2", *flags]


def test_invalid_configuration_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    # Each refused command: its exit code (2 for a bad setting, 3 for an
    # unknown name) and message, no objective call, and no output file or
    # sidecar.  argparse's own refusal prints its usage, so only its code
    # is checked.
    calls, refusal = [], {2: "invalid configuration", 3: "unknown name"}
    monkeypatch.setattr(cli, "benchmark_spec", _spec_raising_in_sweep(calls, 0, AssertionError))
    jsonl = ["--trials", "1", "--max-evals", "100", "--format", "jsonl"]
    for argv, code, message in [
        (_run_dejong("bat", "--max-evals", "0"), 2, "max_evaluations must be positive"),
        (_run_dejong("pso", "--tolerance", "inf"), 2, "tolerance must be finite"),
        (_run_dejong("pso", "--tolerance", "-1"), 2, "tolerance must be >= 0"),
        (["compare", "--functions", "dejong", "--algorithms", "pso,pso"], 2,
         "each algorithm and function may be named once"),
        (["compare", "--functions", "dejong,ackley,dejong", "--algorithms", "bat"], 2,
         "each algorithm and function may be named once"),
        (["compare", "--functions", "sphere,dejong_sphere", "--algorithms", "ga"], 2,
         "each algorithm and function may be named once"),
        (_run_dejong("ga", "--trials", "0"), 2, "trials must be >= 1"),
        (_run_dejong("bat", "--workers", "0"), 2, "workers must be >= 1"),
        (_run_dejong("bat", "--trials", "2", "--workers", "-3"), 2, "workers must be >= 1"),
        (_run_dejong("bat", "--pop", "0", "--trials", "1"), 2, "population size must be >= 1"),
        (_run_dejong("bat", "--alpha", "1.5"), 2, "alpha must lie in (0, 1)"),
        (["run", "--algorithm", "bat", "--function", "eggcrate", "--dim", "3"], 2,
         "eggcrate is only defined for d=2, got d=3"),
        (["compare", "--functions", ",", "--algorithms", "bat"], 2,
         "need at least one algorithm and one function"),
        (["trace", "--algorithm", "bat", "--function", "dejong", "--iters", "0"], 2, "--iters must be >= 1"),
        # trace's --seed is the trial seed itself: one outside [0, 2**64) is
        # refused, not folded onto a seed in range.
        (_trace_dejong("--seed", "-1"), 2, "seed must lie in [0, 2**64), got -1"),
        (_trace_dejong("--seed", str(2**64 + 1)), 2, f"seed must lie in [0, 2**64), got {2**64 + 1}"),
        # trace derives its budget from --pop, yet the population is what it reports.
        (_trace_dejong("--pop", "0"), 2, "population size must be >= 1"),
        (_trace_dejong("--pop", "-2"), 2, "population size must be >= 1"),
        # trace checks the function before the algorithm, as run does.
        (["trace", "--algorithm", "annealer", "--function", "eggcrate", "--dim", "3", "--iters", "2"], 2,
         "eggcrate is only defined for d=2, got d=3"),
        # The second function's tolerance is refused before the first one's trials run.
        (["compare", "--functions", "dejong,michalewicz", "--dim", "16", "--tolerance", "0.1"], 2,
         "michalewicz has no known minimum; tolerance-based success is undefined"),
        # Non-finite values: no campaign runs and no non-strict JSON is written.
        (_run_dejong("pso", *jsonl, "--c1", "nan"), 2, "learning parameters must be non-negative and finite"),
        (_run_dejong("pso", *jsonl, "--c1", "inf"), 2, "learning parameters must be non-negative and finite"),
        (_run_dejong("pso", *jsonl, "--inertia", "nan"), 2, "inertia must be finite"),
        (_run_dejong("bat", *jsonl, "--gamma", "nan"), 2, "gamma must be positive and finite"),
        (_run_dejong("bat", *jsonl, "--gamma", "inf"), 2, "gamma must be positive and finite"),
        (_run_dejong("bat", *jsonl, "--fmax", "inf"), 2, "need 0 <= f_min <= f_max < inf"),
        (_run_dejong("bat", *jsonl, "--tolerance", "nan"), 2, "tolerance must be finite"),
        (_run_dejong("ga", *jsonl, "--tolerance", "inf"), 2, "tolerance must be finite"),
        (["run", "--algorithm", "bat", "--function", "nosuch"], 3, "'nosuch'"),
        (_run_dejong("annealer"), 3, "'annealer'"),
        (["compare", "--functions", "dejong", "--algorithms", "bat,annealer"], 3, "'annealer'"),
        (["run", "--no-such-flag"], 2, None),
    ]:
        assert run_cli(argv + ["--output", str(tmp_path / "never.jsonl")]) == code, argv
        err = capsys.readouterr().err
        assert message is None or err == f"batbench: {refusal[code]}: {message}\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []


def test_trace_memory_does_not_grow_with_iters(tmp_path):
    def peak(iters):
        out = tmp_path / f"trace{iters}.jsonl"
        tracemalloc.start()
        try:
            assert run_cli(_trace_args(iters, "--output", str(out))) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(25)  # warm-up: first-call imports and caches
    assert peak(400) - peak(25) < 1_000_000


def test_a_serial_run_and_a_trace_load_neither_the_thread_pool_nor_statistics(tmp_path):
    # Only --workers above 1 needs the pool, and only summaries need
    # statistics; a fresh interpreter shows what a CLI child loads.
    script = (
        "import sys\n"
        "from batbench.cli import run_cli\n"
        "def loaded():\n"
        "    return sorted({'concurrent.futures', 'statistics'} & set(sys.modules))\n"
        "args = ['--algorithm', 'bat', '--function', 'dejong', '--dim', '4', '--pop', '5']\n"
        f"out = {str(tmp_path)!r}\n"
        "assert run_cli(['run', *args, '--trials', '2', '--max-evals', '50', '--workers', '1',\n"
        "                '--output', out + '/run.csv']) == 0\n"
        "assert run_cli(['trace', *args, '--iters', '3', '--output', out + '/trace.jsonl']) == 0\n"
        "print(loaded())\n"
        "assert run_cli(['compare', '--functions', 'dejong', '--algorithms', 'bat', '--dim', '4',\n"
        "                '--pop', '5', '--trials', '2', '--max-evals', '50', '--workers', '2',\n"
        "                '--output', out + '/compare.csv']) == 0\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "['concurrent.futures', 'statistics']"]


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "bat", "--function", "dejong", "--trials", "1", "--max-evals", "100",
     "--format", "jsonl"],
    ["compare", "--functions", "dejong", "--algorithms", "pso", "--trials", "1", "--max-evals", "100",
     "--format", "jsonl"],
    ["trace", "--algorithm", "bat", "--function", "dejong", "--pop", "5", "--iters", "2"],
])
def test_unopenable_output_exit_1_no_file(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.jsonl"
    assert run_cli(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("batbench: error:")
    assert not out.exists()
    assert not (tmp_path / "missing" / "x.jsonl.config.json").exists()
