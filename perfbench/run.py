#!/usr/bin/env python3
"""batbench's benchmark: seeded CLI campaigns timed end to end, or traced per layer.

Usage, from the root of a checkout (no install needed):

    python3 perfbench/run.py --workload bat-sphere16 [--seed 0] [--seconds 20] [--trace 0|1]

With ``--trace 0`` each round runs the workload's ``python -m batbench.cli``
invocations as child processes, and rounds repeat until their summed wall
time reaches ``--seconds`` (at least three rounds); the metrics are medians
over rounds.  Every output is checked after the last round.  With
``--trace 1`` the workload runs once in this process through ``run_cli``
with spans around each layer (see ``traced.py``).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench-out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

MIN_ROUNDS = 3
# Rounds stop, and a running child is killed (its operations fail), once a
# run has lasted this long, so that it ends within three minutes.
DEADLINE_S = 140.0

END_TO_END = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, stderr_path: Path, deadline: float) -> Child:
    """Run one child to its end or the deadline (``time.monotonic``); wall
    time from spawn to exit, and its own peak RSS."""
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))[0]
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Operations:
    """Operations attempted and failed: CLI invocations and checks of their outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        """One operation; it failed when it reports errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors[:3]


def untraced(invocations, ops: Operations, seconds: int) -> dict:
    """Timed rounds first, checks after.

    A child's ru_maxrss counts from its parent's resident size at spawn, so
    this process imports nothing beyond the stdlib until the last child has
    exited; each distinct output is kept aside to be checked then.
    """
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    argvs = [inv.argv(OUT / f"{inv.label}.out") for inv in invocations]
    setup = []
    rounds = []  # (wall seconds, peak KB, [(invocation, exit code, output digest)])
    kept = {}  # (invocation, digest) -> the kept output
    while time.monotonic() < deadline and (
        len(rounds) < MIN_ROUNDS or sum(r[0] for r in rounds) < seconds
    ):
        # One set-up probe per round, so that both sample the same stretch of time.
        probe = run_child([sys.executable, str(PROBE), json.dumps(argvs)], env, OUT / "setup.err", deadline)
        if probe.code != 0:
            raise SystemExit(f"set-up probe exited {probe.code}; see {OUT / 'setup.err'}")
        setup.append(probe.wall_s)
        wall = 0.0
        peak = 0
        results = []
        for inv, argv in zip(invocations, argvs):
            output = Path(argv[argv.index("--output") + 1])
            output.unlink(missing_ok=True)
            child = run_child(
                [sys.executable, "-m", "batbench.cli", *argv], env, OUT / f"{inv.label}.err", deadline
            )
            wall += child.wall_s
            peak = max(peak, child.maxrss_kb)
            digest = None
            if child.code == 0 and output.is_file():
                with output.open("rb") as fh:
                    digest = hashlib.file_digest(fh, "sha256").hexdigest()
                if (inv, digest) not in kept:
                    kept[inv, digest] = output.replace(output.with_suffix(f".{digest[:16]}.out"))
            results.append((inv, child.code, digest))
        rounds.append((wall, peak, results))
        print(f"round {len(rounds)}: {wall:.3f} s, peak RSS {peak / 1024:.1f} MB", flush=True)

    from checks import Checker

    checker = Checker()
    evaluations = []
    for _, _, results in rounds:
        count = 0
        for inv, code, digest in results:
            ops.record([] if code == 0 else [f"{inv.label}: exit {code}"])
            if digest is None:
                ops.record([f"{inv.label}: no output to check"])
                continue
            errors, done = checker.check(inv, kept[inv, digest].read_bytes())
            ops.record(errors)
            count += done
        evaluations.append(count)
    for path in kept.values():
        path.unlink()

    walls = [r[0] for r in rounds]
    wall_s = statistics.median(walls)
    print(f"{len(rounds)} rounds: median {wall_s:.3f} s, fastest {min(walls):.3f} s, "
          f"slowest {max(walls):.3f} s, {evaluations[0]} evaluations each")
    return {
        "wall_s": wall_s,
        "evals_per_s": evaluations[0] / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r[1] for r in rounds) / 1024,
    }


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # keep the benchmark's own directories clean
    if not (SRC / "batbench" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"perfbench: no batbench sources under {SRC} or no {TESTS / 'oracles.py'}; "
              "run from the root of a batbench checkout", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="master seed passed to the CLI")
    parser.add_argument("--seconds", type=int, default=20, help="measured time; sizes the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    OUT.mkdir(exist_ok=True)
    invocations = WORKLOADS[args.workload](args.seed, args.seconds)
    ops = Operations()
    if args.trace:
        import traced
        from checks import Checker

        per_layer, by_workload = traced.run(
            invocations, Checker(), ops, OUT, OUT / f"{args.workload}.spans.jsonl"
        )
        for name, value in by_workload.items():
            shown = "n/a (layer not run)" if value is None else f"{value:.6g} {traced.BY_WORKLOAD[name]}"
            print(f"{name}: {shown}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in traced.PER_LAYER.items()}
    else:
        values = untraced(invocations, ops, args.seconds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for error in ops.errors[:20]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
