"""Correctness checks of the CLI's outputs.

Two kinds, both outside the timed window:

- properties the method must have, computed here from the rows and
  positions the CLI wrote (seed derivation, exact evaluation accounting,
  the success rule, a trace's best against a sphere computed here);
- equality with the printed-rules reference campaigns of
  ``tests/oracles.py``, which share no code with the package.

The objectives are written out here as well, so that neither kind of check
goes through batbench's code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from oracles import reference_bat, reference_trials
from workloads import CANONICAL, DIM, MAX_EVALS, POP, TOLERANCE, Invocation

# Both workload objectives have their minimum 0 at the origin.
KNOWN_MIN = 0.0
# A best value may undershoot the known minimum by rounding only.
ROUNDING = 1e-9


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _objective(fn, lo: float, hi: float) -> SimpleNamespace:
    bounds = SimpleNamespace(lower=np.full(DIM, lo), upper=np.full(DIM, hi))
    return SimpleNamespace(fn=fn, bounds=bounds, known_min=KNOWN_MIN)


OBJECTIVES = {
    "dejong": _objective(sphere, -10.0, 10.0),
    "rastrigin": _objective(rastrigin, -5.12, 5.12),
}


def trial_seed(master_seed: int, algorithm: str, index: int) -> int:
    """sha256(f"{m}:{a}:{k}")[:8] read as a little-endian integer."""
    digest = hashlib.sha256(f"{master_seed}:{algorithm}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _run_rows(text: str) -> list[dict]:
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


class Checker:
    """Checks each output once per distinct content and each reference once.

    Every invocation of a run must write the same bytes as its first one;
    identical bytes share one verdict, so later rounds cost a hash.
    """

    def __init__(self) -> None:
        self._first: dict[Invocation, str] = {}
        self._verdicts: dict[tuple[Invocation, str], tuple[list[str], int]] = {}
        self._references: dict[Invocation, object] = {}

    def check(self, inv: Invocation, data: bytes) -> tuple[list[str], int]:
        """(errors, objective evaluations the output accounts for)."""
        digest = hashlib.sha256(data).hexdigest()
        first = self._first.setdefault(inv, digest)
        key = (inv, digest)
        if key not in self._verdicts:
            text = data.decode()
            self._verdicts[key] = (
                self._check_run(inv, text) if inv.command == "run" else self._check_trace(inv, text)
            )
        errors, evaluations = self._verdicts[key]
        if digest != first:
            errors = [f"{inv.label}: output differs from the run's first invocation"] + errors
        return errors, evaluations

    def _reference(self, inv: Invocation):
        key = replace(inv, workers=1)
        if key not in self._references:
            objective = OBJECTIVES[inv.function]
            if inv.command == "run":
                self._references[key] = reference_trials(
                    inv.algorithm, objective, float(TOLERANCE), MAX_EVALS, inv.trials, inv.seed
                )
            else:
                self._references[key] = reference_bat(
                    objective, inv.seed, POP * (inv.iters + 1), None, n=POP, max_iterations=inv.iters
                )
        return self._references[key]

    def _check_run(self, inv: Invocation, text: str) -> tuple[list[str], int]:
        rows = _run_rows(text)
        errors = []
        if len(rows) != inv.trials:
            errors.append(f"{inv.label}: {len(rows)} rows, expected {inv.trials}")
        tolerance = float(TOLERANCE)
        references = self._reference(inv)
        evaluations = 0
        for k, (row, ref) in enumerate(zip(rows, references)):
            where = f"{inv.label} trial {k}"
            try:
                seed = int(row["seed"])
                used = int(row["evaluations_used"])
                iterations = int(row["iterations"])
                best = float(row["best_value"])
                identity = (row["function"], int(row["dim"]), row["algorithm"], int(row["trial"]))
                success = row["success"]
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"{where}: unreadable row ({exc!r})")
                continue
            evaluations += used
            if identity != (CANONICAL[inv.function], DIM, inv.algorithm, k):
                errors.append(f"{where}: row is {identity}")
            if seed != trial_seed(inv.seed, inv.algorithm, k):
                errors.append(f"{where}: seed {seed} is not sha256-derived")
            if not used == POP + POP * iterations == MAX_EVALS:
                errors.append(f"{where}: evaluations_used {used} with {iterations} iterations")
            expected = "false" if best - KNOWN_MIN > tolerance else "true"
            if success != expected:
                errors.append(f"{where}: success {success} for best {best!r}")
            if not best >= KNOWN_MIN - ROUNDING:
                errors.append(f"{where}: best {best!r} below the known minimum")
            got = (seed, best, used, iterations, success == "true")
            want = (ref.seed, ref.best_value, ref.evaluations_used, ref.iterations, ref.success)
            if got != want:
                errors.append(f"{where}: (seed, best, evals, iterations, success) {got} != reference {want}")
        return errors, evaluations

    def _check_trace(self, inv: Invocation, text: str) -> tuple[list[str], int]:
        lines = text.splitlines()
        errors = []
        if len(lines) != inv.iters:
            errors.append(f"{inv.label}: {len(lines)} lines, expected {inv.iters}")
        previous = math.inf
        positions = None
        best = None
        for k, line in enumerate(lines):
            where = f"{inv.label} line {k + 1}"
            try:
                record = json.loads(line)
                positions = np.array(record["positions"], dtype=float)
                best = float(record["best"])
                iteration = record["iter"]
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"{where}: unreadable record ({exc!r})")
                positions = best = None
                continue
            if iteration != k + 1:
                errors.append(f"{where}: iter {iteration}")
            if positions.shape != (POP, DIM):
                errors.append(f"{where}: positions of shape {positions.shape}")
                continue
            if not ((positions >= -10.0).all() and (positions <= 10.0).all()):
                errors.append(f"{where}: a position lies outside [-10, 10]")
            if best > previous:
                errors.append(f"{where}: best rose from {previous!r} to {best!r}")
            lowest = min(sphere(row) for row in positions)
            if best != lowest:
                errors.append(f"{where}: best {best!r} is not the swarm's lowest sphere {lowest!r}")
            previous = best
        ref = self._reference(inv)
        if ref.iterations != inv.iters:
            errors.append(f"{inv.label}: the reference ran {ref.iterations} iterations")
        if positions is None or not np.array_equal(positions, ref.positions) or best != ref.best_value:
            errors.append(f"{inv.label}: last line differs from the reference bat run")
        return errors, POP * (inv.iters + 1)
