"""Benchmark function registry: continuous box-constrained test problems.

Each entry carries its standard domain and known-optimum metadata.

Every formula is marked ``scores_rows`` and written once over the last
axis: it scores one point of shape (d,) or an (m, d) block of rows, and
row i's value equals the one-point call on row i bit for bit.  Eggcrate
and Easom square through ``np.float_power(x, 2.0)``, which calls the C
library's pow per element as their frozen point forms do; ``x**2`` would
square by x*x and differ in the last bit for about one value in 2,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import Bounds, Objective, Vector, scores_rows

# One value for one point, an (m,) array for an (m, d) block of rows.
Values = Union[float, np.ndarray]

__all__ = [
    "BenchmarkSpec",
    "UnknownBenchmarkError",
    "benchmark_spec",
    "registry_names",
    "dim_constraint",
]


class UnknownBenchmarkError(KeyError):
    """Lookup of a name the registry does not contain."""


@scores_rows
def rosenbrock_paper(x: np.ndarray) -> Values:
    """Banana valley with the squared-variable first term: sum (1-x_i^2)^2 + 100 (x_{i+1}-x_i^2)^2.

    Note this variant vanishes at x_i = -1 as well as x_i = +1 (with the
    chain condition x_{i+1} = x_i^2), so the 2-D minimizers are (1,1) and
    (-1,1).
    """
    lead = x[..., :-1] ** 2
    return np.add.reduce((1.0 - lead) ** 2 + 100.0 * (x[..., 1:] - lead) ** 2, axis=-1)


@scores_rows
def rosenbrock_classic(x: np.ndarray) -> Values:
    """Classical Rosenbrock: sum (1-x_i)^2 + 100 (x_{i+1}-x_i^2)^2, unique minimum at (1,...,1)."""
    lead = x[..., :-1]
    return np.add.reduce((1.0 - lead) ** 2 + 100.0 * (x[..., 1:] - lead**2) ** 2, axis=-1)


@scores_rows
def eggcrate(x: np.ndarray) -> Values:
    """2-D eggcrate: x^2 + y^2 + 25 (sin^2 x + sin^2 y)."""
    a, b = x[..., 0], x[..., 1]
    return a * a + b * b + 25.0 * (np.float_power(np.sin(a), 2.0) + np.float_power(np.sin(b), 2.0))


@scores_rows
def dejong_sphere(x: np.ndarray) -> Values:
    return np.add.reduce(x * x, axis=-1)


@scores_rows
def ackley(x: np.ndarray) -> Values:
    d = x.shape[-1]
    return (
        20.0
        + np.e
        - 20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(x * x, axis=-1) / d))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / d)
    )


@scores_rows
def michalewicz(x: np.ndarray) -> Values:
    """Steep-valley separable function, d! local optima on [0, pi]^d; steepness m = 10 (sin^2m)."""
    i = np.arange(1, x.shape[-1] + 1)
    return -np.add.reduce(np.sin(x) * np.sin(i * x * x / np.pi) ** 20, axis=-1)


@scores_rows
def rastrigin(x: np.ndarray) -> Values:
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


@scores_rows
def griewank(x: np.ndarray) -> Values:
    i = np.arange(1, x.shape[-1] + 1)
    return (
        np.add.reduce(x * x, axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
        + 1.0
    )


@scores_rows
def easom(x: np.ndarray) -> Values:
    a, b = x[..., 0], x[..., 1]
    return -np.cos(a) * np.cos(b) * np.exp(-(np.float_power(a - np.pi, 2.0) + np.float_power(b - np.pi, 2.0)))


@scores_rows
def schwefel(x: np.ndarray) -> Values:
    return 418.9829 * x.shape[-1] - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


@scores_rows
def shubert(x: np.ndarray) -> Values:
    """2-D Shubert: product of two cosine combs; 18 global minima at -186.7309..."""
    j = np.arange(1, 6)
    combs = np.add.reduce(j * np.cos((j + 1) * x[..., None] + j), axis=-1)
    return combs[..., 0] * combs[..., 1]


# Four well-separated Gaussian wells of distinct depth; the deepest (2.0 at
# (3,3)) is the global minimum.  Cross-talk between wells is < 1e-11, so the
# stated minimum -2.0 holds to well below the metadata tolerance.
_PEAK_CENTERS = np.array([[3.0, 3.0], [-3.0, -3.0], [3.0, -3.0], [-3.0, 3.0]])
_PEAK_HEIGHTS = np.array([2.0, 1.5, 1.2, 1.0])
_PEAK_WIDTH = 0.8


@scores_rows
def multiple_peaks(x: np.ndarray) -> Values:
    d2 = np.add.reduce((_PEAK_CENTERS - x[..., None, :]) ** 2, axis=-1)
    return -np.add.reduce(_PEAK_HEIGHTS * np.exp(-d2 / (2.0 * _PEAK_WIDTH**2)), axis=-1)


# Frozen high-precision minimizers of the three functions whose minimum is
# their value there (grid refinement; see tests for the oracle that
# re-derives them).
_MICHALEWICZ_ARGMIN = {
    2: np.array([2.202905520481451, np.pi / 2]),
    5: np.array(
        [
            2.202905520481451,
            np.pi / 2,
            1.2849915707866182,
            1.9230584692013135,
            1.7204697721416045,
        ]
    ),
}
_SCHWEFEL_COORD_ARGMIN = 420.9687462275036
_SHUBERT_ARGMIN = np.array([-1.425128429776018, -0.8003211022876466])


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry: the objective, under its canonical name."""

    objective: Objective


@dataclass(frozen=True)
class _Definition:
    fn: Callable[[Vector], float]
    lo: float
    hi: float
    fixed_dim: Optional[int] = None  # None: any dim >= min_dim
    min_dim: int = 1
    # A minimum is stated, or derived as fn(argmin(dim)); argmin returns
    # None where no minimizer is stored for that dim.
    min_value: Optional[float] = None
    argmin: Callable[[int], Optional[Vector]] = lambda dim: None


_REGISTRY: dict[str, _Definition] = {
    "rosenbrock_paper": _Definition(rosenbrock_paper, -2.048, 2.048, min_dim=2, min_value=0.0),
    "rosenbrock_classic": _Definition(rosenbrock_classic, -2.048, 2.048, min_dim=2, min_value=0.0),
    "eggcrate": _Definition(eggcrate, -2.0 * np.pi, 2.0 * np.pi, fixed_dim=2, min_value=0.0),
    "dejong_sphere": _Definition(dejong_sphere, -10.0, 10.0, min_value=0.0),
    "ackley": _Definition(ackley, -30.0, 30.0, min_value=0.0),
    "michalewicz": _Definition(michalewicz, 0.0, np.pi, argmin=_MICHALEWICZ_ARGMIN.get),
    "rastrigin": _Definition(rastrigin, -5.12, 5.12, min_value=0.0),
    "griewank": _Definition(griewank, -600.0, 600.0, min_value=0.0),
    "easom": _Definition(easom, -100.0, 100.0, fixed_dim=2, min_value=-1.0),
    "schwefel": _Definition(schwefel, -500.0, 500.0, argmin=lambda dim: np.full(dim, _SCHWEFEL_COORD_ARGMIN)),
    "shubert": _Definition(shubert, -10.0, 10.0, fixed_dim=2, argmin=lambda dim: _SHUBERT_ARGMIN),
    "multiple_peaks": _Definition(multiple_peaks, -5.0, 5.0, fixed_dim=2, min_value=-2.0),
}

_ALIASES = {"sphere": "dejong_sphere", "dejong": "dejong_sphere"}


def _resolve(name: str) -> tuple[str, _Definition]:
    """The canonical name for `name` and its definition."""
    key = _ALIASES.get(name, name)
    try:
        return key, _REGISTRY[key]
    except KeyError:
        raise UnknownBenchmarkError(name) from None


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def dim_constraint(name: str) -> str:
    _, d = _resolve(name)
    if d.fixed_dim is not None:
        return f"d={d.fixed_dim}"
    return f"d>={d.min_dim}"


def benchmark_spec(name: str, dim: Optional[int] = None) -> BenchmarkSpec:
    """Build the registry entry for `name` at dimension `dim` (2 when None).

    Raises UnknownBenchmarkError for unregistered names and ValueError for
    dimensions the function does not support.
    """
    key, d = _resolve(name)
    if dim is None:
        dim = 2
    if d.fixed_dim is not None and dim != d.fixed_dim:
        raise ValueError(f"{name} is only defined for d={d.fixed_dim}, got d={dim}")
    if dim < d.min_dim:
        raise ValueError(f"{name} requires d>={d.min_dim}, got d={dim}")
    argmin = d.argmin(dim)
    known_min = d.min_value if argmin is None else float(d.fn(argmin))
    return BenchmarkSpec(Objective(key, dim, Bounds.cube(d.lo, d.hi, dim), d.fn, known_min))

