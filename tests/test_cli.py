import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from batbench import __version__, cli
from batbench.cli import run_cli
from batbench.benchmarks import benchmark_spec, registry_names
from batbench.core import TrajectoryRecord
from batbench.harness import default_params, run_trial


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject(constant):
    """parse_constant hook: refuse the Infinity/NaN extensions json.loads accepts."""
    raise ValueError(f"not JSON: {constant}")


def test_list_functions(capsys):
    assert run_cli(["list-functions"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    names = [line.split()[0] for line in out]
    assert names == registry_names()
    constraints = {line.split()[0]: line.split()[1] for line in out}
    assert constraints["eggcrate"] == "d=2"
    assert constraints["dejong_sphere"] == "d>=1"


def test_compare_byte_identical_reruns(tmp_path):
    args = [
        "compare", "--functions", "dejong", "--dim", "2",
        "--algorithms", "bat,pso,ga", "--trials", "3",
        "--max-evals", "600", "--seed", "7",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(f1)]) == 0
    assert run_cli(args + ["--output", str(f2)]) == 0
    assert _sha(f1) == _sha(f2)


def test_compare_csv_shape_and_roundtrip(tmp_path):
    out = tmp_path / "cmp.csv"
    code = run_cli([
        "compare", "--functions", "dejong,ackley", "--dim", "2",
        "--algorithms", "bat,ga", "--trials", "4", "--tolerance", "0.5",
        "--max-evals", "2000", "--seed", "3", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("config" in c for c in comments)
    config = json.loads(comments[1].split("# config ", 1)[1])
    assert config["master_seed"] == 3
    assert config["tool_version"] == __version__
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "function,dim,algorithm,trials,mean_evals,std_evals,success_rate,master_seed,tool_version"
    assert len(data) == 1 + 2 * 2  # header + (2 functions x 2 algorithms)
    for row in data[1:]:
        fields = row.split(",")
        assert fields[0] in ("dejong_sphere", "ackley")
        assert fields[1] == "2"
        assert fields[3] == "4"
        # 17-significant-digit serialization round-trips exactly
        rate = float(fields[6])
        assert 0.0 <= rate <= 1.0
        assert format(rate, ".17g") == fields[6]


def test_trace_paper_shape(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = run_cli([
        "trace", "--algorithm", "bat", "--function", "rosenbrock_paper",
        "--dim", "2", "--pop", "25", "--iters", "20", "--seed", "1",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    iters = []
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"iter", "positions", "best"}
        assert len(rec["positions"]) == 25
        assert all(len(p) == 2 for p in rec["positions"])
        iters.append(rec["iter"])
    assert iters == list(range(1, 21))
    sidecar = tmp_path / "trace.jsonl.config.json"
    assert sidecar.exists()
    cfg = json.loads(sidecar.read_text())
    assert cfg["subcommand"] == "trace" and cfg["iters"] == 20


def test_trace_deterministic(tmp_path):
    args = ["trace", "--algorithm", "pso", "--function", "eggcrate",
            "--pop", "10", "--iters", "5", "--seed", "9"]
    f1, f2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert run_cli(args + ["--output", str(f1)]) == 0
    assert run_cli(args + ["--output", str(f2)]) == 0
    assert _sha(f1) == _sha(f2)


def _reference_trace_line(record):
    """A trace line with each value formatted on its own, as `trace` once wrote it."""
    rows = ",".join(
        "[" + ",".join(format(float(v), ".17g") for v in row) + "]" for row in record.positions
    )
    best = format(record.best_value, ".17g") if math.isfinite(record.best_value) else "null"
    return '{"iter": %d, "positions": [%s], "best": %s}' % (record.iteration, rows, best)


def _trace_args(iters, *extra, algorithm="bat", pop=40):
    return ["trace", "--algorithm", algorithm, "--function", "dejong", "--dim", "16",
            "--pop", str(pop), "--iters", str(iters), "--seed", "3", *extra]


def test_trace_bytes_at_workload_size(tmp_path, capsys):
    # The bat moves few rows per sweep; PSO and GA move nearly all of them,
    # and the GA's odd population has its extra child.
    for algorithm, pop in (("bat", 40), ("pso", 41), ("ga", 41)):
        records = []
        params = dataclasses.replace(default_params(algorithm), n=pop)
        run_trial(algorithm, benchmark_spec("dejong", 16).objective, None, pop * 51, 3,
                  params=params, recorder=records.append)
        expected = [_reference_trace_line(r) + "\n" for r in records]
        assert len(records) == 50

        def assert_lines(text):
            lines = text.splitlines(keepends=True)
            assert len(lines) == len(expected)
            differing = [k for k, (line, want) in enumerate(zip(lines, expected), 1) if line != want]
            assert not differing, f"{algorithm}: lines {differing[:5]} differ"

        out = tmp_path / f"{algorithm}.jsonl"
        assert run_cli(_trace_args(50, "--output", str(out), algorithm=algorithm, pop=pop)) == 0
        assert_lines(out.read_text())
        capsys.readouterr()
        assert run_cli(_trace_args(50, algorithm=algorithm, pop=pop)) == 0
        assert_lines(capsys.readouterr().out)


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


def test_trace_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "trace.jsonl"
    calls, existed = [], []

    def failing_spec(name, dim):
        spec = benchmark_spec(name, dim)
        fn = spec.objective.fn

        def flaky(x):
            calls.append(None)
            if len(calls) > 40 * 4 + 7:  # initialisation, three sweeps, 7 calls of the fourth
                existed.append(out.exists())
                raise RuntimeError("objective failed")
            return fn(x)

        return dataclasses.replace(spec, objective=dataclasses.replace(spec.objective, fn=flaky))

    monkeypatch.setattr(cli, "benchmark_spec", failing_spec)
    assert run_cli(_trace_args(10, "--output", str(out))) == 1
    assert "objective failed" in capsys.readouterr().err
    assert existed == [True]  # the file was open when the trial failed
    assert not out.exists()
    assert not (tmp_path / "trace.jsonl.config.json").exists()
    # On stdout the three completed sweeps' lines stay, each one whole.
    calls.clear()
    assert run_cli(_trace_args(10)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["iter"] for line in lines] == [1, 2, 3]


def _spec_raising_in_sweep(calls, sweep, error):
    """benchmark_spec whose objective raises `error` on the 8th call of the
    given sweep of 40 bats, sweep 0 being the initialisation (one call per
    point: the wrapper scores no rows)."""
    def spec_of(name, dim):
        spec = benchmark_spec(name, dim)
        fn = spec.objective.fn

        def flaky(x):
            calls.append(None)
            if len(calls) > 40 * sweep + 7:
                raise error
            return fn(x)

        return dataclasses.replace(spec, objective=dataclasses.replace(spec.objective, fn=flaky))

    return spec_of


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


def test_invalid_configuration_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "benchmark_spec", _spec_raising_in_sweep(calls, 0, AssertionError))
    out = tmp_path / "never.csv"
    for argv, message in [
        (["run", "--algorithm", "bat", "--function", "dejong", "--max-evals", "0"],
         "max_evaluations must be positive"),
        (["run", "--algorithm", "pso", "--function", "dejong", "--tolerance", "inf"],
         "tolerance must be finite"),
        (["run", "--algorithm", "pso", "--function", "dejong", "--tolerance", "-1"],
         "tolerance must be >= 0"),
        (["compare", "--functions", "dejong", "--algorithms", "pso,pso"],
         "each algorithm and function may be named once"),
        (["compare", "--functions", "dejong,ackley,dejong", "--algorithms", "bat"],
         "each algorithm and function may be named once"),
        (["compare", "--functions", "sphere,dejong_sphere", "--algorithms", "ga"],
         "each algorithm and function may be named once"),
        (["run", "--algorithm", "ga", "--function", "dejong", "--trials", "0"], "trials must be >= 1"),
        (["run", "--algorithm", "bat", "--function", "dejong", "--workers", "0"], "workers must be >= 1"),
        (["compare", "--functions", ",", "--algorithms", "bat"], "need at least one algorithm and one function"),
        (["trace", "--algorithm", "bat", "--function", "dejong", "--iters", "0"], "--iters must be >= 1"),
        # The second function's tolerance is refused before the first one's trials run.
        (["compare", "--functions", "dejong,michalewicz", "--dim", "16", "--tolerance", "0.1"],
         "michalewicz has no known minimum; tolerance-based success is undefined"),
    ]:
        assert run_cli(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err == f"batbench: invalid configuration: {message}\n"
        assert calls == []
        assert not out.exists()


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


def test_run_writes_per_trial_rows(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli([
        "run", "--algorithm", "bat", "--function", "eggcrate",
        "--trials", "5", "--max-evals", "400", "--tolerance", "0.5",
        "--seed", "11", "--output", str(out),
    ])
    assert code == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[0].startswith("function,dim,algorithm,trial,seed,")
    assert len(data) == 6
    assert all(row.split(",")[6] in ("true", "false") for row in data[1:])


def test_run_jsonl_with_sidecar(tmp_path):
    out = tmp_path / "run.jsonl"
    code = run_cli([
        "run", "--algorithm", "ga", "--function", "dejong", "--dim", "2",
        "--trials", "3", "--max-evals", "300", "--format", "jsonl",
        "--seed", "2", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["algorithm"] == "ga" and rec["function"] == "dejong_sphere"
    assert (tmp_path / "run.jsonl.config.json").exists()


def test_unknown_function_exit_3_no_file(tmp_path):
    out = tmp_path / "never.csv"
    code = run_cli(["run", "--algorithm", "bat", "--function", "nosuch",
                    "--output", str(out)])
    assert code == 3
    assert not out.exists()


def test_unknown_algorithm_exit_3(tmp_path):
    out = tmp_path / "never.csv"
    assert run_cli(["run", "--algorithm", "annealer", "--function", "dejong",
                    "--output", str(out)]) == 3
    assert run_cli(["compare", "--functions", "dejong", "--algorithms", "bat,annealer",
                    "--output", str(out)]) == 3
    assert not out.exists()


def test_invalid_flag_values_exit_2(tmp_path):
    out = tmp_path / "never.csv"
    # parameter invariant violation (alpha must be < 1)
    assert run_cli(["run", "--algorithm", "bat", "--function", "dejong",
                    "--alpha", "1.5", "--output", str(out)]) == 2
    # unsupported dimension
    assert run_cli(["run", "--algorithm", "bat", "--function", "eggcrate",
                    "--dim", "3", "--output", str(out)]) == 2
    # argparse-level garbage
    assert run_cli(["run", "--no-such-flag"]) == 2
    # no bat to divide the budget among
    assert run_cli(["run", "--algorithm", "bat", "--function", "dejong", "--pop", "0",
                    "--trials", "1", "--output", str(out)]) == 2
    # no worker to run the trials
    for workers in ("0", "-3"):
        assert run_cli(["run", "--algorithm", "bat", "--function", "dejong", "--trials", "2",
                        "--max-evals", "100", "--workers", workers, "--output", str(out)]) == 2
    assert not out.exists()
    # non-finite values: no campaign runs and no non-strict JSON is written
    jsonl = tmp_path / "never.jsonl"
    for algorithm, flag, value in [
        ("pso", "--c1", "nan"), ("pso", "--inertia", "nan"), ("bat", "--gamma", "nan"),
        ("bat", "--fmax", "inf"), ("bat", "--tolerance", "nan"),
        ("pso", "--c1", "inf"), ("bat", "--gamma", "inf"), ("ga", "--tolerance", "inf"),
    ]:
        assert run_cli(["run", "--algorithm", algorithm, "--function", "dejong", "--trials", "1",
                        "--max-evals", "100", flag, value, "--format", "jsonl",
                        "--output", str(jsonl)]) == 2
        assert not jsonl.exists()
        assert not (tmp_path / "never.jsonl.config.json").exists()


def test_stdout_when_no_output(capsys):
    assert run_cli(["compare", "--functions", "dejong", "--dim", "2",
                    "--algorithms", "bat", "--trials", "2", "--max-evals", "200"]) == 0
    out = capsys.readouterr().out
    assert "function,dim,algorithm" in out


def test_jsonl_writes_non_finite_as_null(capsys):
    # A budget below the population leaves best_value at inf.
    args = ["run", "--algorithm", "ga", "--function", "dejong", "--dim", "2",
            "--trials", "1", "--max-evals", "10"]
    assert run_cli(args + ["--format", "jsonl"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line, parse_constant=_reject)["best_value"] is None
    assert run_cli(args) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows[1].split(",")[7] == "inf"
