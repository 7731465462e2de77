import dataclasses
import hashlib
import json
import math
import tracemalloc

import pytest

from batbench import __version__, cli
from batbench.bat import BatParams
from batbench.cli import run_cli
from batbench.benchmarks import benchmark_spec, registry_names
from batbench.harness import run_trial


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


def _trace_args(iters, *extra):
    return ["trace", "--algorithm", "bat", "--function", "dejong", "--dim", "16",
            "--pop", "40", "--iters", str(iters), "--seed", "3", *extra]


def test_trace_bytes_at_workload_size(tmp_path, capsys):
    records = []
    run_trial("bat", benchmark_spec("dejong", 16), None, 40 * 51, 3,
              params=BatParams(n=40), recorder=records.append)
    expected = [_reference_trace_line(r) + "\n" for r in records]
    assert len(records) == 50

    def assert_lines(text):
        lines = text.splitlines(keepends=True)
        assert len(lines) == len(expected)
        differing = [k for k, (line, want) in enumerate(zip(lines, expected), 1) if line != want]
        assert not differing, f"lines {differing[:5]} differ"

    out = tmp_path / "trace.jsonl"
    assert run_cli(_trace_args(50, "--output", str(out))) == 0
    assert_lines(out.read_text())
    capsys.readouterr()
    assert run_cli(_trace_args(50)) == 0
    assert_lines(capsys.readouterr().out)


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
