"""Shared domain types: box bounds, objectives, seeded draws, evaluation budgets."""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "Bounds",
    "Objective",
    "RandomStream",
    "EvalBudget",
    "BudgetExceededError",
    "TrajectoryRecord",
    "clamp_to_bounds",
    "counted_evaluate",
    "counted_evaluate_rows",
    "counted_values",
    "scores_rows",
    "derive_seed",
]

# A point/velocity is a plain 1-D float64 ndarray throughout the package.
Vector = np.ndarray

# What an algorithm's sweep generator yields: (best value, best position,
# positions) after initialisation and after each sweep.  A sweep only
# reports: harness.run_trial starts one only while budget is left, and
# decides whether it counts.
Sweeps = Iterator[tuple[float, Vector, np.ndarray]]


class BudgetExceededError(RuntimeError):
    """Raised when an evaluation is requested after the budget is spent.

    No trial raises it: run_trial never lets a trial evaluate past its
    budget.  It guards direct calls such as counted_evaluate and init_bats.
    """


def _as_vector(x, name: str) -> Vector:
    """A float64 copy of x, which the caller may then freeze without
    freezing the caller's array."""
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Bounds:
    """Box constraints: lower[k] < upper[k], both and their width finite, for every k."""

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        hi = _as_vector(self.upper, "upper")
        if lo.size != hi.size or lo.size < 1:
            raise ValueError(f"bound vectors must share a dimension >= 1, got {lo.size} and {hi.size}")
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo  # not finite when a bound is not, or when it overflows
        if not np.isfinite(width).all():
            raise ValueError("bounds and their widths must be finite")
        if not (lo < hi).all():
            raise ValueError("every lower bound must be strictly below its upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "Bounds":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> Vector:
        return self.upper - self.lower


@dataclass(frozen=True)
class Objective:
    """Named evaluatable function with its domain and, optionally, its
    known minimum (finite), from which a trial's tolerance is measured.

    Evaluation must be deterministic: the same point always yields the
    same value.
    """

    name: str
    dim: int
    bounds: Bounds
    fn: Callable[[Vector], float]
    known_min: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))  # TypeError for a float, never truncated
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.bounds.dim != self.dim:
            raise ValueError(f"bounds dimension {self.bounds.dim} != dim {self.dim}")
        if self.known_min is not None and not math.isfinite(self.known_min):
            raise ValueError("known_min must be finite")

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


class RandomStream:
    """Deterministic draw source: one seed, one sequence, any platform.

    Backed by numpy's PCG64 bit generator (pinned; recorded in output
    metadata).  Per-trial streams come from :func:`derive_seed`, which
    maps (master seed, label, index) to distinct 64-bit seeds.
    """

    algorithm = "numpy.random.PCG64"

    def __init__(self, seed: int):
        seed = operator.index(seed)  # TypeError for a float, never truncated
        if not 0 <= seed < 2**64:  # refused, never folded onto a seed in range
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self) -> float:
        """One draw from [0, 1)."""
        return float(self._gen.random())

    def uniform_vector(self, d: Optional[int] = None, out: Optional[Vector] = None) -> Vector:
        """d draws from [0, 1), or as many as out holds written into out, a
        contiguous float64 array; the draws are the same either way."""
        return self._gen.random(d, out=out)

    def rewind(self, k: int) -> None:
        """Take back the last k draws.

        PCG64 steps a 128-bit LCG, so advancing it 2**128 - k steps lands
        where it stood k draws earlier.  As a block of draws equals the same
        number of scalar draws, a caller can draw a worst-case block and
        give back what it did not use: bat.bat_step its skipped walk draws,
        baselines.draw_generation the masks of pairs that do not cross.
        """
        self._gen.bit_generator.advance(-int(k) % 2**128)

    def normal_vector(self, d: Optional[int] = None, out: Optional[Vector] = None) -> Vector:
        """d standard normal draws, or as many as out holds written into out."""
        return self._gen.standard_normal(d, out=out)


def derive_seed(master_seed: int, label: str, index: int) -> int:
    """Stable 64-bit seed for trial `index` of stream `label`.

    SHA-256 of the canonical "master:label:index" string; distinct inputs
    give distinct seeds for any practical trial count.  A float or a string
    seed or index is a TypeError, never truncated onto an integer's seed.
    """
    key = f"{operator.index(master_seed)}:{label}:{operator.index(index)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


@dataclass
class EvalBudget:
    """Monotone counter of objective evaluations, capped at max_evaluations;
    it starts unspent.  A limit that is not an integer is a TypeError, never
    truncated."""

    max_evaluations: int
    used: int = field(default=0, init=False)

    def __post_init__(self):
        self.max_evaluations = operator.index(self.max_evaluations)
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")

    @property
    def remaining(self) -> int:
        return self.max_evaluations - self.used


@dataclass(frozen=True)
class TrajectoryRecord:
    """One per-iteration population snapshot: positions plus best value."""

    iteration: int
    positions: np.ndarray  # shape (n, d)
    best_value: float


def clamp_to_bounds(x: np.ndarray, b: Bounds) -> np.ndarray:
    """Coordinate-wise projection onto the box of a point or of rows of
    points.  Idempotent."""
    if x.shape[-1:] != b.lower.shape:
        raise ValueError(f"point dimension {x.shape} != bounds dimension {b.lower.shape}")
    return np.minimum(np.maximum(x, b.lower), b.upper)


def counted_evaluate(obj: Objective, x: Vector, budget: EvalBudget) -> float:
    """Evaluate obj at x, charging one unit of budget.

    A non-finite value (NaN, inf or -inf) ranks worst: it is returned as
    ``inf`` (and still charged), so it can never become a best, and a NaN
    cannot stop later values from comparing below it.
    Raises BudgetExceededError (budget untouched) once the budget is spent.
    """
    if budget.used >= budget.max_evaluations:
        raise BudgetExceededError(
            f"evaluation budget exhausted ({budget.used}/{budget.max_evaluations})"
        )
    value = float(obj.fn(x))
    budget.used += 1
    return value if math.isfinite(value) else math.inf


def scores_rows(fn: Callable) -> Callable:
    """Mark fn as scoring an (m, d) block of points in one call.

    ``fn(xs)`` must return the m values that the calls ``fn(xs[i])`` return,
    bit for bit.  The mark sits on the function itself, so an objective
    whose ``fn`` wraps a marked function is evaluated point by point.  A
    return of any shape other than ``(m,)`` is refused with a ValueError
    before any of the m evaluations is charged.
    """
    fn.scores_rows = True
    return fn


def _scored(obj: Objective, xs: np.ndarray) -> np.ndarray:
    """A marked function's float64 values of the rows of xs, a non-finite one
    as ``inf``; a return of any shape but one value per row is a ValueError."""
    values = obj.fn(xs)
    if np.shape(values) != (len(xs),):
        raise ValueError(
            f"{obj.name}'s scores_rows function returned shape {np.shape(values)} "
            f"for a block of shape {xs.shape}"
        )
    return np.where(np.isfinite(values), values, math.inf).astype(float, copy=False)


def counted_values(obj: Objective, xs: np.ndarray, budget: EvalBudget) -> Iterator[float]:
    """Yield the values of the first k = min(m, budget.remaining) rows of xs
    in order, charging one unit as each value is taken.

    A function marked :func:`scores_rows` scores the k rows in one call at
    the first value taken, and rows whose values are never taken are not
    charged; any other is called once per taken value through
    :func:`counted_evaluate`.  Either way a non-finite value is yielded as
    ``inf``.
    """
    k = min(len(xs), budget.remaining)
    if not getattr(obj.fn, "scores_rows", False):
        for x in xs[:k]:
            yield counted_evaluate(obj, x, budget)
        return
    for value in _scored(obj, xs[:k]).tolist():
        budget.used += 1
        yield value


def counted_evaluate_rows(obj: Objective, xs: np.ndarray, budget: EvalBudget) -> np.ndarray:
    """The k values of :func:`counted_values`, all taken and charged."""
    if not getattr(obj.fn, "scores_rows", False):
        return np.fromiter(counted_values(obj, xs, budget), float)
    values = _scored(obj, xs[: budget.remaining])
    budget.used += values.size
    return values
