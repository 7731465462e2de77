#!/usr/bin/env python3
"""Write a fixed set of batbench CLI outputs, one directory per case.

Every case runs ``python -m batbench.cli`` from this checkout's ``src/`` in
a fresh process whose working directory is the case directory, so an
``--output`` file and its ``.config.json`` sidecar land beside the
captured ``stdout``, ``stderr`` and ``exit_code``.  Two checkouts that
produce the same CLI bytes produce identical trees.  Copying the new
checkout's script into the old one runs the same case list against both:

    git archive OLD | tar -x -C /tmp/old
    cp scripts/golden_outputs.py /tmp/old/scripts/
    python /tmp/old/scripts/golden_outputs.py /tmp/before
    python scripts/golden_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

is a byte-identity check of the whole CLI surface: run, compare, trace,
list-functions and --help; CSV and JSONL; stdout and files; errors and
exit codes.  A case that needs a flag the old checkout lacks shows up as
a difference.

Usage: python scripts/golden_outputs.py OUTDIR
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# One override flag per algorithm, each a value other than its default.
OVERRIDES = {"bat": ["--alpha", "0.8"], "pso": ["--c1", "1.5"], "ga": ["--pm", "0.2"]}
SMALL = ["--dim", "2", "--trials", "3", "--max-evals", "400", "--seed", "5"]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {"list-functions": ["list-functions"]}
    for sub in ("run", "compare", "trace"):
        cases[f"help-{sub}"] = [sub, "--help"]
    for algo, override in OVERRIDES.items():
        for fmt in ("csv", "jsonl"):
            base = ["run", "--algorithm", algo, "--function", "dejong", *SMALL,
                    "--tolerance", "0.01", "--format", fmt]
            for tuned, extra in (("default", []), ("override", override)):
                cases[f"run-{algo}-{fmt}-{tuned}-stdout"] = base + extra
                cases[f"run-{algo}-{fmt}-{tuned}-file"] = base + extra + ["--output", f"out.{fmt}"]
            # A budget below the population: no trial evaluates anything.
            cases[f"run-{algo}-{fmt}-below-population"] = [
                "run", "--algorithm", algo, "--function", "dejong", "--dim", "2",
                "--trials", "2", "--max-evals", "10", "--format", fmt,
            ]
        cases[f"run-{algo}-eggcrate-no-tolerance-pop"] = [
            "run", "--algorithm", algo, "--function", "eggcrate", "--trials", "2",
            "--max-evals", "333", "--pop", "11", "--seed", "8",
        ]
        # d=16 with an odd population (the GA's extra child) and a budget
        # that ends inside a sweep: 1,000 = 7 + 141 * 7 + 6.
        for function in ("rastrigin", "ackley"):
            cases[f"run-{algo}-{function}16-odd-pop-cut"] = [
                "run", "--algorithm", algo, "--function", function, "--dim", "16",
                "--pop", "7", "--trials", "2", "--max-evals", "1000", "--seed", "4",
            ]
        for where, extra in (("stdout", []), ("file", ["--output", "trace.jsonl"])):
            cases[f"trace-{algo}-{where}"] = [
                "trace", "--algorithm", algo, "--function", "rosenbrock_paper", "--dim", "2",
                "--pop", "7", "--iters", "6", "--seed", "3", *extra,
            ]
        cases[f"trace-{algo}-override"] = [
            "trace", "--algorithm", algo, "--function", "eggcrate", "--pop", "5",
            "--iters", "4", *override,
        ]
    for fmt in ("csv", "jsonl"):
        for workers in ("1", "2"):
            base = ["compare", "--functions", "dejong,ackley", "--dim", "2",
                    "--algorithms", "bat,pso,ga", "--trials", "4", "--tolerance", "0.5",
                    "--max-evals", "900", "--seed", "3", "--workers", workers, "--format", fmt]
            cases[f"compare-{fmt}-w{workers}-stdout"] = base
            cases[f"compare-{fmt}-w{workers}-file"] = base + ["--output", f"cmp.{fmt}"]
        # The thread-pool trial mapping of both commands.
        cases[f"run-bat-{fmt}-w2"] = [
            "run", "--algorithm", "bat", "--function", "ackley", *SMALL, "--tolerance", "0.5",
            "--workers", "2", "--format", fmt,
        ]
        cases[f"compare-{fmt}-w3-trials5"] = [
            "compare", "--functions", "dejong,rastrigin", "--dim", "3", "--algorithms", "ga,bat,pso",
            "--trials", "5", "--tolerance", "0.5", "--max-evals", "600", "--seed", "2",
            "--workers", "3", "--format", fmt,
        ]
        cases[f"compare-{fmt}-all-overrides"] = [
            "compare", "--functions", "eggcrate", "--algorithms", "ga,bat,pso", "--trials", "2",
            "--max-evals", "500", "--fmin", "1", "--fmax", "50", "--gamma", "0.5",
            "--c2", "1.0", "--inertia", "0.7", "--pc", "0.5",
            *OVERRIDES["bat"], *OVERRIDES["pso"], *OVERRIDES["ga"], "--format", fmt,
        ]
    # perfbench's trace size; PSO and GA traces at d=16, where nearly every
    # row moves each sweep (the GA's with its odd extra child); and a compare
    # where eggcrate and Easom score rows and most trials stop on the tolerance.
    for name, args, out in (
        ("trace-bat-dejong16", ["trace", "--algorithm", "bat", "--function", "dejong", "--dim", "16",
                                "--pop", "40", "--iters", "400", "--seed", "0"], "trace.jsonl"),
        ("trace-pso-rastrigin16", ["trace", "--algorithm", "pso", "--function", "rastrigin", "--dim",
                                   "16", "--pop", "40", "--iters", "50", "--seed", "0"], "trace.jsonl"),
        ("trace-ga-rastrigin16-odd", ["trace", "--algorithm", "ga", "--function", "rastrigin", "--dim",
                                      "16", "--pop", "41", "--iters", "50", "--seed", "0"], "trace.jsonl"),
        ("compare-eggcrate-easom", ["compare", "--functions", "eggcrate,easom", "--algorithms",
                                    "bat,pso,ga", "--trials", "4", "--tolerance", "1e-3", "--seed",
                                    "0", "--format", "jsonl"], "compare.jsonl"),
    ):
        cases[f"{name}-stdout"] = args
        cases[f"{name}-file"] = args + ["--output", out]
    # The paper's evidence as README's Scripts section gives it: the figures'
    # bat paths on Rosenbrock and the eggcrate, and Table 1's bat, PSO and GA
    # comparison at d=16 on sphere and Ackley.
    cases["trace-bat-rosenbrock-figure"] = [
        "trace", "--algorithm", "bat", "--function", "rosenbrock_paper", "--dim", "2", "--pop", "25",
        "--iters", "20", "--seed", "1", "--output", "rosenbrock_paths.jsonl",
    ]
    cases["trace-bat-eggcrate-figure"] = [
        "trace", "--algorithm", "bat", "--function", "eggcrate", "--pop", "40", "--iters", "250",
        "--seed", "1", "--output", "eggcrate_paths.jsonl",
    ]
    for name, function, tolerance in (("sphere", "dejong", "100.0"), ("ackley", "ackley", "17.0")):
        cases[f"compare-{name}16-desk"] = [
            "compare", "--functions", function, "--dim", "16", "--algorithms", "bat,pso,ga", "--trials", "30",
            "--tolerance", tolerance, "--max-evals", "40000", "--seed", "0", "--output", f"{name}_d16.csv",
        ]
    errors = {
        # exit 1: an output file that cannot be opened
        "err1-run": ["run", "--algorithm", "bat", "--function", "dejong", "--trials", "1",
                     "--max-evals", "100", "--format", "jsonl", "--output", "missing/x.jsonl"],
        "err1-compare": ["compare", "--functions", "dejong", "--algorithms", "pso", "--trials", "1",
                         "--max-evals", "100", "--format", "jsonl", "--output", "missing/x.jsonl"],
        "err1-trace": ["trace", "--algorithm", "bat", "--function", "dejong", "--pop", "5",
                       "--iters", "2", "--output", "missing/x.jsonl"],
        # exit 2: invalid configuration or flags
        "err2-alpha": ["run", "--algorithm", "bat", "--function", "dejong", "--alpha", "1.5",
                       "--output", "never.csv"],
        "err2-eggcrate-dim": ["run", "--algorithm", "bat", "--function", "eggcrate", "--dim", "3"],
        "err2-flag": ["run", "--no-such-flag"],
        "err2-trials": ["run", "--algorithm", "pso", "--function", "dejong", "--trials", "0"],
        "err2-pso-pop": ["run", "--algorithm", "pso", "--function", "dejong", "--pop", "1"],
        "err2-ga-pm": ["run", "--algorithm", "ga", "--function", "dejong", "--pm", "2"],
        "err2-compare-empty": ["compare", "--functions", ",", "--algorithms", "bat"],
        "err2-trace-iters": ["trace", "--algorithm", "bat", "--function", "dejong", "--iters", "0"],
        "err2-format": ["run", "--algorithm", "bat", "--function", "dejong", "--format", "xml"],
        "err2-max-evals": ["run", "--algorithm", "bat", "--function", "dejong", "--max-evals", "0"],
        # exit 3: unknown function or algorithm
        "err3-function": ["run", "--algorithm", "bat", "--function", "nosuch", "--output", "never.csv"],
        "err3-algorithm": ["run", "--algorithm", "annealer", "--function", "dejong"],
        "err3-compare": ["compare", "--functions", "dejong", "--algorithms", "bat,annealer"],
        "err3-compare-function": ["compare", "--functions", "dejong,nosuch", "--format", "jsonl"],
        "err3-trace": ["trace", "--algorithm", "annealer", "--function", "dejong", "--iters", "2"],
    }
    cases.update(errors)
    return cases


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    for name, args in _cases().items():
        case = outdir / name
        case.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "batbench.cli", *args],
            cwd=case, env=env, capture_output=True,
        )
        (case / "stdout").write_bytes(proc.stdout)
        (case / "stderr").write_bytes(proc.stderr)
        (case / "exit_code").write_text(f"{proc.returncode}\n")
        (case / "argv").write_text(" ".join(args) + "\n")
    print(f"wrote {len(_cases())} cases to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
