"""Command-line front end: run campaigns, compare algorithms, emit traces.

Subcommands:
  run             per-trial results for one algorithm on one function
  compare         summary table rows per (function, algorithm), Table-1 style
  trace           line-delimited per-iteration population snapshots
  list-functions  registry names with dimension constraints

Outputs are deterministic for a fixed flag set: repeated invocations with
the same seed produce byte-identical files.  CSV files carry the resolved
configuration as '#' comment lines; JSONL files get a .config.json sidecar.
Exit codes: 0 ok, 1 runtime failure, 2 invalid flags, 3 unknown
function/algorithm.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # batbench makes no BLAS call, yet importing numpy starts OpenBLAS's thread
    # pool, which a CLI child pays for at start-up and exit.  So the program, and
    # never a library caller, runs one BLAS thread unless the user set a number.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional, TextIO

import numpy as np

from . import __version__
from .benchmarks import (
    UnknownBenchmarkError,
    benchmark_spec,
    dim_constraint,
    registry_names,
)
from .core import RandomStream, TrajectoryRecord
from .harness import (
    ALGORITHMS,
    UnknownAlgorithmError,
    check_campaign,
    experiment_trials,
    run_trial,
    summarize,
)

__all__ = ["run_cli", "main"]


def _fmt(x: float) -> str:
    """17 significant digits: lossless float64 round trip."""
    return format(float(x), ".17g")


_OVERRIDE_FLAGS = tuple(flag for entry in ALGORITHMS.values() for flag in entry.flags)


def _overrides_from(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _OVERRIDE_FLAGS if getattr(args, k, None) is not None}


def _config(args: argparse.Namespace, algorithms: tuple, functions: tuple) -> str:
    """The resolved invocation as sorted JSON, embedded in every output for
    reproducibility."""
    return json.dumps({
        "subcommand": args.subcommand, "algorithms": algorithms, "functions": functions,
        "dim": args.dim, "trials": args.trials, "tolerance": args.tolerance,
        "max_evals": args.max_evals, "population": args.pop, "overrides": _overrides_from(args),
        "master_seed": args.seed, "output_format": args.format, "iters": args.iters,
        "workers": args.workers, "rng": RandomStream.algorithm, "tool_version": __version__,
        "statistics": "mean/std over successful trials only; success_rate over all trials",
    }, sort_keys=True)


def _build_params(args: argparse.Namespace, algorithms: tuple) -> dict:
    """Each algorithm's params: its class defaults with the population and
    the override flags it maps; invariants validated here."""
    by_algorithm = {}
    for name in algorithms:
        params_cls, _, fields = ALGORITHMS[name]
        mapped = {fields[flag]: value for flag, value in _overrides_from(args).items() if flag in fields}
        by_algorithm[name] = params_cls(n=args.pop, **mapped)
    return by_algorithm


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def _json_value(value) -> str:
    """JSON text of a record value; a non-finite float, which JSON cannot
    hold, is written as null."""
    if isinstance(value, float):
        return _fmt(value) if math.isfinite(value) else "null"
    return json.dumps(value)


@contextlib.contextmanager
def _output(args: argparse.Namespace, config: str):
    """Yield stdout or the --output file.  If the body raises, a regular
    file is deleted and no sidecar is written (lines already on stdout
    stay); a finished JSONL regular file gets a <file>.config.json sidecar.
    Any other output, such as a FIFO or /dev/null, is never deleted and
    gets no sidecar."""
    if args.output is None:
        yield sys.stdout
        return
    out = open(args.output, "w")
    regular = Path(args.output).is_file()
    try:
        with out:
            yield out
    except BaseException:
        if regular:
            Path(args.output).unlink()
        raise
    if regular and args.format == "jsonl":
        Path(args.output + ".config.json").write_text(config + "\n")


@contextlib.contextmanager
def _trials_running():
    """Report any error raised inside as a runtime failure (exit 1), a
    ValueError included: the configuration was checked before the first
    trial started."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(exc) from exc


def _emit(args: argparse.Namespace, config: str, records: list[dict]) -> None:
    """Write (key, value) records as a commented CSV table or as JSONL with
    a config sidecar; floats keep 17 significant digits in both."""
    with _output(args, config) as out:
        if args.format == "csv":
            out.write(f"# batbench {__version__}\n# config {config}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(list(records[0]))
            writer.writerows([_csv_cell(v) for v in record.values()] for record in records)
        else:
            out.writelines(
                "{" + ", ".join(f'"{k}": {_json_value(v)}' for k, v in record.items()) + "}\n"
                for record in records
            )


def _cmd_list(_: argparse.Namespace) -> int:
    for name in registry_names():
        print(f"{name} {dim_constraint(name)}")
    return 0


def _checked(args: argparse.Namespace, algorithms: tuple, functions: tuple) -> tuple[str, list, dict]:
    """The resolved config, the objectives and each algorithm's params.

    Every function is looked up and sized, then check_campaign checks the
    whole campaign, then the params are built; every error is raised
    before any trial runs.  In a command with two errors the earlier step
    reports: an unknown function or a bad --dim before an unknown
    algorithm, and a bad setting before a bad params flag.
    """
    objectives = [benchmark_spec(name, args.dim).objective for name in functions]
    check_campaign(algorithms, objectives, args.tolerance, args.max_evals, args.trials, args.workers)
    return _config(args, algorithms, functions), objectives, _build_params(args, algorithms)


def _campaign(args: argparse.Namespace, algorithms: tuple, functions: tuple) -> tuple[str, list]:
    """The resolved config and, per function, every algorithm's trials.
    experiment_trials repeats _checked's check for library callers; a
    failure in a trial is a runtime one."""
    config, objectives, params_by_algorithm = _checked(args, algorithms, functions)
    with _trials_running():
        campaigns = [
            experiment_trials(
                algorithms,
                objective,
                args.tolerance,
                args.max_evals,
                args.trials,
                args.seed,
                params_by_algorithm=params_by_algorithm,
                workers=args.workers,
            )
            for objective in objectives
        ]
    return config, campaigns


def _cmd_run(args: argparse.Namespace) -> int:
    config, [by_algorithm] = _campaign(args, (args.algorithm,), (args.function,))
    _emit(args, config, [
        {
            "function": r.function, "dim": r.dim, "algorithm": r.algorithm, "trial": k,
            "seed": r.seed, "evaluations_used": r.evaluations_used, "success": r.success,
            "best_value": r.best_value, "iterations": r.iterations,
        }
        for k, r in enumerate(by_algorithm[args.algorithm])
    ])
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    algorithms = tuple(s.strip() for s in args.algorithms.split(",") if s.strip())
    functions = tuple(s.strip() for s in args.functions.split(",") if s.strip())
    if not algorithms or not functions:
        raise ValueError("need at least one algorithm and one function")
    config, campaigns = _campaign(args, algorithms, functions)

    records = []
    for by_algorithm in campaigns:
        for algorithm in algorithms:
            trials = by_algorithm[algorithm]
            summary = summarize(trials)
            records.append({
                "function": trials[0].function, "dim": trials[0].dim, "algorithm": algorithm,
                "trials": summary.trial_count, "mean_evals": summary.mean_evals,
                "std_evals": summary.std_evals, "success_rate": summary.success_rate,
                "master_seed": args.seed, "tool_version": __version__,
            })
    _emit(args, config, records)
    return 0


def _trace_writer(out: TextIO, n: int, d: int) -> Callable[[TrajectoryRecord], None]:
    """The recorder that writes one trace line per record to `out`.

    Each row keeps its text, and only the rows whose bits differ from the
    previous record's are formatted again (all of them on the first line):
    bits, since -0.0 == 0.0 yet they print as "-0" and "0".  A line's bytes
    are those of formatting each value with _fmt.
    """
    row = "[" + ",".join(["%.17g"] * d) + "]"  # the conversion _fmt makes
    line = '{"iter": %d, "positions": [%s], "best": %s}\n'
    kept = [""] * n  # each row's text on the previous line
    previous: Optional[np.ndarray] = None

    def write(r: TrajectoryRecord) -> None:
        nonlocal previous
        bits = r.positions.view(np.uint64)
        moved = range(n) if previous is None else np.flatnonzero((bits != previous).any(axis=1))
        previous = bits
        for i in moved:
            kept[i] = row % tuple(r.positions[i].tolist())
        out.write(line % (r.iteration, ",".join(kept), _json_value(r.best_value)))

    return write


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    # The budget of exactly --iters sweeps after initialisation; a --pop
    # below 1 is left for the params to refuse, as run's is.
    args.max_evals = max(args.pop, 1) * (args.iters + 1)
    config, [objective], by_algorithm = _checked(args, (args.algorithm,), (args.function,))
    params = by_algorithm[args.algorithm]
    RandomStream(args.seed)  # refuses a trial seed outside [0, 2**64) before the output opens

    with _output(args, config) as out, _trials_running():
        write = _trace_writer(out, params.n, objective.dim)
        run_trial(args.algorithm, objective, None, args.max_evals, args.seed, params=params, recorder=write)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batbench",
        description="Experiment runner for swarm optimizers: the bat algorithm vs PSO and GA baselines.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--tolerance", type=float, default=1e-5)
        p.add_argument("--max-evals", dest="max_evals", type=int, default=10_000)
        p.add_argument("--pop", type=int, default=40)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        for flag in _OVERRIDE_FLAGS:
            p.add_argument(f"--{flag}", type=float, default=None)
        p.set_defaults(iters=None)

    p_run = sub.add_parser("run", help="per-trial results for one algorithm/function")
    p_run.add_argument("--algorithm", required=True)
    p_run.add_argument("--function", required=True)
    p_run.add_argument("--dim", type=int, default=None)
    common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="summary rows per (function, algorithm)")
    p_cmp.add_argument("--functions", required=True, help="comma-separated names")
    p_cmp.add_argument("--algorithms", default="bat,pso,ga")
    p_cmp.add_argument("--dim", type=int, default=None)
    common(p_cmp)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_trc = sub.add_parser("trace", help="per-iteration population snapshots (jsonl)")
    p_trc.add_argument("--algorithm", required=True)
    p_trc.add_argument("--function", required=True)
    p_trc.add_argument("--dim", type=int, default=None)
    p_trc.add_argument("--pop", type=int, default=40)
    p_trc.add_argument("--iters", type=int, required=True)
    p_trc.add_argument("--seed", type=int, default=0)
    p_trc.add_argument("--output", default=None)
    for flag in _OVERRIDE_FLAGS:
        p_trc.add_argument(f"--{flag}", type=float, default=None)
    # trace takes no flags for these; its config records them as fixed.
    p_trc.set_defaults(handler=_cmd_trace, trials=1, tolerance=None, workers=1, format="jsonl")

    p_ls = sub.add_parser("list-functions", help="registry names with dim constraints")
    p_ls.set_defaults(handler=_cmd_list)

    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (UnknownBenchmarkError, UnknownAlgorithmError) as exc:
        print(f"batbench: unknown name: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"batbench: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"batbench: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """Run the CLI and exit with its code, skipping the interpreter's teardown
    once stdout and stderr are flushed; if a flush fails, sys.exit reports it."""
    code = run_cli()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its descriptor was closed at start-up
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
