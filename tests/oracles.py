"""Independent oracles used to derive expected values before testing.

These deliberately avoid the library's own code paths: brute-force grid
refinement for optima, Welford streaming statistics, a wrapping call
counter for evaluation accounting, and reference campaigns that apply the
README's printed bat, PSO and GA rules with their own seeding and draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import ndimage


def refine_1d(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              pts: int = 4001, levels: int = 30) -> tuple[float, float]:
    """Grid refinement of a 1-D function; returns (argmin, min)."""
    for _ in range(levels):
        xs = np.linspace(lo, hi, pts)
        ys = f(xs)
        k = int(np.argmin(ys))
        span = (hi - lo) / (pts - 1)
        lo = max(lo, xs[k] - 2 * span)
        hi = min(hi, xs[k] + 2 * span)
        if hi - lo < 1e-14:
            break
    xs = np.linspace(lo, hi, pts)
    ys = f(xs)
    k = int(np.argmin(ys))
    return float(xs[k]), float(ys[k])


def refine_2d(f: Callable[[np.ndarray, np.ndarray], np.ndarray], x0: float, y0: float,
              h: float, pts: int = 81, levels: int = 25) -> tuple[float, float, float]:
    """Grid refinement around (x0, y0); returns (x, y, min).

    ``f`` takes broadcastable coordinate arrays, so each level's pts x pts
    grid is one call.
    """
    best = (x0, y0, float(f(np.asarray(x0), np.asarray(y0))))
    for _ in range(levels):
        gx = np.linspace(best[0] - h, best[0] + h, pts)
        gy = np.linspace(best[1] - h, best[1] + h, pts)
        vals = f(gx[:, None], gy[None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (float(gx[i]), float(gy[j]), float(vals[i, j]))
        h /= 5.0
        if h < 1e-13:
            break
    return best


def global_minima_2d(fvec: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     lo: float, hi: float, value_band: float,
                     grid: int = 2001, basin_band: float = 1.0) -> list[tuple[float, float, float]]:
    """All global minima of a 2-D function, found by coarse grid ->
    connected-component basins -> per-basin refinement.

    Returns the refined minima whose value lies within `value_band` of the
    best one.
    """
    g = np.linspace(lo, hi, grid)
    X, Y = np.meshgrid(g, g, indexing="ij")
    F = fvec(X, Y)
    labels, nlab = ndimage.label(F <= F.min() + basin_band)

    minima = []
    for lab in range(1, nlab + 1):
        idx = np.argwhere(labels == lab)
        vals = F[labels == lab]
        i, j = idx[int(np.argmin(vals))]
        minima.append(refine_2d(fvec, float(g[i]), float(g[j]), h=3.0 * (g[1] - g[0])))
    best = min(m[2] for m in minima)
    return [m for m in minima if m[2] <= best + value_band]


def welford(samples) -> tuple[float, float, int]:
    """Streaming mean and sample std (n-1 divisor)."""
    count = 0
    mean = 0.0
    m2 = 0.0
    for x in samples:
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    std = math.sqrt(m2 / (count - 1)) if count > 1 else float("nan")
    return mean, std, count


@dataclass
class CallCounter:
    """Wraps an objective callable and counts invocations."""

    fn: Callable[[np.ndarray], float]
    calls: int = field(default=0)

    def __call__(self, x: np.ndarray) -> float:
        self.calls += 1
        return self.fn(x)


# ---------------------------------------------------------------------------
# Reference campaigns of the printed rules.
#
# Written from README.md ("The optimizer in one paragraph", the baseline
# bullets and "Reproducibility") and the pseudo-code of Yang (2010,
# arXiv:1004.4170), drawing from numpy's PCG64 directly.  Nothing here
# comes from batbench.bat, batbench.baselines, batbench.harness or
# batbench's RandomStream.  An ``objective`` is anything with ``fn``,
# ``bounds.lower``, ``bounds.upper`` and ``known_min``.
#
# The README fixes the rules but not the order in which they consume
# draws; the references assume this order, and every draw below is taken
# whether or not its outcome is used:
#
# bat   start-up, bat by bat: d position draws (x = lower + u*width), then
#       one draw each for frequency (redrawn before every move), loudness
#       A0 = 1 + u and pulse ceiling r0 = u; then the n evaluations in bat
#       order, the first minimum being the swarm best.
#       sweep: mean loudness once, as a left-to-right sum over the swarm
#       divided by n; then per bat in order: one draw beta for the
#       frequency; one draw u, and when u > r (Yang's "rand > r_i") d draws
#       eps = 2u - 1 for the walk; the evaluation; one acceptance draw,
#       accepting when it is below A (Yang's "rand < A_i") and the value is
#       strictly below the swarm best.  Acceptance sets A = A0*alpha^k and
#       r = r0*(1 - exp(-gamma*t)), t being the number of sweeps completed
#       before this one (0 in the first sweep).
# pso   start-up: one n x d block of position draws, row by row; sweep: an
#       n x d block for u1, then one for u2.
# ga    start-up: as pso.  Generation: rank weights n..1 in ascending
#       value order, ties kept in index order; a roulette pick is one draw
#       u, taking the first index whose cumulative weight exceeds
#       u * total.  Per pair: two picks, one crossover-gate draw (fires
#       below pc), and when it fires d draws, child one taking parent a's
#       gene where the draw is below 0.5.  Then child one, then child two,
#       is mutated: d gate draws (below pm), then d standard normal steps.
#       After the pairs, an odd n's extra child: one pick, then its
#       mutation as above, with no crossover gate or mask.
#
# Every algorithm stops before a sweep once the best is within the
# tolerance of ``known_min``, the iteration cap is reached or the budget is
# spent; a sweep cut short by the budget is not counted as an iteration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceTrial:
    """Outcome of one reference run; field names follow batbench's TrialResult."""

    seed: int
    best_value: float
    best_position: tuple[float, ...]
    evaluations_used: int
    iterations: int
    success: bool
    positions: np.ndarray  # final population, shape (n, d)


def reference_seed(master_seed: int, label: str, index: int) -> int:
    """README: trial k of label a under master m uses sha256(f"{m}:{a}:{k}")[:8],
    read as a little-endian 64-bit integer."""
    digest = hashlib.sha256(f"{master_seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _solved(best: float, objective, tolerance: Optional[float]) -> bool:
    return tolerance is not None and best - objective.known_min <= tolerance


def _trial(seed, best_f, best_x, evals, iterations, objective, tolerance, population):
    return ReferenceTrial(
        seed=seed,
        best_value=float(best_f),
        best_position=tuple(float(v) for v in best_x),
        evaluations_used=evals,
        iterations=iterations,
        success=_solved(best_f, objective, tolerance),
        positions=np.array(population),
    )


def reference_bat(objective, seed: int, max_evals: int, tolerance: Optional[float] = None,
                  n: int = 40, max_iterations: int = 10_000, *, f_min: float = 0.0,
                  f_max: float = 100.0, alpha: float = 0.9, gamma: float = 0.9) -> ReferenceTrial:
    """The printed bat rules, by default with the README's parameters
    (f in [0,100], alpha = gamma = 0.9, A0 in [1,2], r0 in [0,1])."""
    fn, lower, upper = objective.fn, objective.bounds.lower, objective.bounds.upper
    d = lower.size
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, d + 3))
    x = [lower + u[i, :d] * (upper - lower) for i in range(n)]
    a0 = (1.0 + u[:, d + 1]).tolist()
    r0 = u[:, d + 2].tolist()
    loud, pulse, accepted = list(a0), list(r0), [0] * n
    v = [np.zeros(d) for _ in range(n)]
    fx = [float(fn(xi)) for xi in x]
    evals = n
    b = int(np.argmin(fx))
    best_x, best_f = x[b], fx[b]
    t = 0
    while not _solved(best_f, objective, tolerance) and t < max_iterations and evals < max_evals:
        mean_loudness = sum(loud) / n
        for i in range(n):
            f = f_min + (f_max - f_min) * rng.random()
            v[i] = v[i] + (x[i] - best_x) * f
            cand = np.minimum(np.maximum(x[i] + v[i], lower), upper)
            if rng.random() > pulse[i]:
                eps = 2.0 * rng.random(d) - 1.0
                cand = np.minimum(np.maximum(best_x + eps * mean_loudness, lower), upper)
            if evals == max_evals:
                break
            fc = float(fn(cand))
            evals += 1
            if rng.random() < loud[i] and fc < best_f:
                x[i] = cand
                accepted[i] += 1
                loud[i] = a0[i] * alpha ** accepted[i]
                pulse[i] = r0[i] * (1.0 - math.exp(-gamma * t))
                best_x, best_f = cand, fc
        else:
            t += 1
            continue
        break
    return _trial(seed, best_f, best_x, evals, t, objective, tolerance, x)


def reference_pso(objective, seed: int, max_evals: int, tolerance: Optional[float] = None,
                  max_iterations: int = 10_000, *, n: int = 40, inertia: float = 1.0,
                  c1: float = 2.0, c2: float = 2.0) -> ReferenceTrial:
    """Global-best PSO with n particles, v <- I*v + c1*u1*(pbest-x) +
    c2*u2*(gbest-x), by default with 40 particles, I = 1 and c1 = c2 = 2,
    and each velocity component clamped at half the coordinate range."""
    fn, lower, upper = objective.fn, objective.bounds.lower, objective.bounds.upper
    d = lower.size
    rng = np.random.Generator(np.random.PCG64(seed))
    x = lower + rng.random((n, d)) * (upper - lower)
    v = np.zeros((n, d))
    vmax = 0.5 * (upper - lower)
    fx = np.array([float(fn(xi)) for xi in x])
    evals = n
    pbest, pbest_f = x.copy(), fx.copy()
    g = int(np.argmin(fx))
    gbest, gbest_f = x[g].copy(), float(fx[g])
    t = 0
    while not _solved(gbest_f, objective, tolerance) and t < max_iterations and evals < max_evals:
        u1 = rng.random((n, d))
        u2 = rng.random((n, d))
        v = np.clip(inertia * v + c1 * u1 * (pbest - x) + c2 * u2 * (gbest - x), -vmax, vmax)
        x = np.clip(x + v, lower, upper)
        for i in range(n):
            if evals == max_evals:
                break
            fi = float(fn(x[i]))
            evals += 1
            if fi < pbest_f[i]:
                pbest[i], pbest_f[i] = x[i], fi
            if fi < gbest_f:
                gbest, gbest_f = x[i].copy(), fi
        else:
            t += 1
            continue
        break
    return _trial(seed, gbest_f, gbest, evals, t, objective, tolerance, x)


def reference_ga(objective, seed: int, max_evals: int, tolerance: Optional[float] = None,
                 max_iterations: int = 10_000, *, n: int = 40, p_mutation: float = 0.05,
                 p_crossover: float = 0.95) -> ReferenceTrial:
    """Generational real-coded GA without elitism, n individuals (40 by
    default): rank roulette, uniform crossover (pc = 0.95 by default),
    per-gene Gaussian mutation (pm = 0.05 by default, sigma = 10% of the
    range), full replacement; the best ever seen is reported.  An odd n's
    extra child is one roulette pick, mutated and never crossed over."""
    pm, pc = p_mutation, p_crossover
    fn, lower, upper = objective.fn, objective.bounds.lower, objective.bounds.upper
    d = lower.size
    sigma = 0.1 * (upper - lower)
    rng = np.random.Generator(np.random.PCG64(seed))

    def pick(cumulative):
        return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))

    def mutate(child):
        hit = rng.random(d) < pm
        step = rng.standard_normal(d)
        return np.clip(np.where(hit, child + step * sigma, child), lower, upper)

    pop = lower + rng.random((n, d)) * (upper - lower)
    fx = np.array([float(fn(p)) for p in pop])
    evals = n
    b = int(np.argmin(fx))
    best_x, best_f = pop[b].copy(), float(fx[b])
    t = 0
    while not _solved(best_f, objective, tolerance) and t < max_iterations and evals < max_evals:
        weights = np.empty(n)
        weights[np.argsort(fx, kind="stable")] = np.arange(n, 0, -1)
        cumulative = np.cumsum(weights)
        kids = []
        for _ in range(n // 2):
            pa, pb = pop[pick(cumulative)], pop[pick(cumulative)]
            if rng.random() < pc:
                take_a = rng.random(d) < 0.5
                pa, pb = np.where(take_a, pa, pb), np.where(take_a, pb, pa)
            kids += [mutate(pa), mutate(pb)]
        if n % 2:
            kids.append(mutate(pop[pick(cumulative)]))
        kid_f = []
        for kid in kids:
            if evals == max_evals:
                break
            kid_f.append(float(fn(kid)))
            evals += 1
        if kid_f:
            j = int(np.argmin(kid_f))
            if kid_f[j] < best_f:
                best_x, best_f = kids[j], kid_f[j]
        if len(kid_f) < n:
            break
        pop, fx = np.array(kids), np.array(kid_f)
        t += 1
    return _trial(seed, best_f, best_x, evals, t, objective, tolerance, pop)


REFERENCE_RUNNERS = {"bat": reference_bat, "pso": reference_pso, "ga": reference_ga}


def reference_trials(algorithm: str, objective, tolerance: Optional[float], max_evals: int,
                     trials: int, master_seed: int, **params) -> list[ReferenceTrial]:
    """Trials 0..trials-1 of one algorithm, seeded as the README prescribes."""
    run = REFERENCE_RUNNERS[algorithm]
    return [
        run(objective, reference_seed(master_seed, algorithm, k), max_evals, tolerance, **params)
        for k in range(trials)
    ]


# ---------------------------------------------------------------------------
# The registry's formulas, frozen as they were written point by point, with
# numpy's np.sum wrapper.  The registry now writes most of them once over
# the last axis; its values must equal these bit for bit.
# ---------------------------------------------------------------------------


def _rosenbrock_paper(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum((1.0 - x[:-1] ** 2) ** 2 + 100.0 * (x[1:] - x[:-1] ** 2) ** 2))


def _rosenbrock_classic(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum((1.0 - x[:-1]) ** 2 + 100.0 * (x[1:] - x[:-1] ** 2) ** 2))


def _eggcrate(x):
    a, b = float(x[0]), float(x[1])
    return a * a + b * b + 25.0 * (np.sin(a) ** 2 + np.sin(b) ** 2)


def _dejong_sphere(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(x * x))


def _ackley(x):
    x = np.asarray(x, dtype=float)
    d = x.size
    return float(
        20.0
        + np.e
        - 20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
    )


def _michalewicz(x, m=10):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1)
    return float(-np.sum(np.sin(x) * np.sin(i * x * x / np.pi) ** (2 * m)))


def _rastrigin(x):
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def _griewank(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1)
    return float(np.sum(x * x) / 4000.0 - np.prod(np.cos(x / np.sqrt(i))) + 1.0)


def _easom(x):
    a, b = float(x[0]), float(x[1])
    return float(-np.cos(a) * np.cos(b) * np.exp(-((a - np.pi) ** 2 + (b - np.pi) ** 2)))


def _schwefel(x):
    x = np.asarray(x, dtype=float)
    return float(418.9829 * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _shubert(x):
    j = np.arange(1, 6)

    def comb(t):
        return float(np.sum(j * np.cos((j + 1) * t + j)))

    return comb(float(x[0])) * comb(float(x[1]))


def _multiple_peaks(x):
    centers = np.array([[3.0, 3.0], [-3.0, -3.0], [3.0, -3.0], [-3.0, 3.0]])
    heights = np.array([2.0, 1.5, 1.2, 1.0])
    x = np.asarray(x, dtype=float)
    d2 = np.sum((centers - x) ** 2, axis=1)
    return float(-np.sum(heights * np.exp(-d2 / (2.0 * 0.8**2))))


FROZEN_FORMULAS = {
    "rosenbrock_paper": _rosenbrock_paper,
    "rosenbrock_classic": _rosenbrock_classic,
    "eggcrate": _eggcrate,
    "dejong_sphere": _dejong_sphere,
    "ackley": _ackley,
    "michalewicz": _michalewicz,
    "rastrigin": _rastrigin,
    "griewank": _griewank,
    "easom": _easom,
    "schwefel": _schwefel,
    "shubert": _shubert,
    "multiple_peaks": _multiple_peaks,
}


# ---------------------------------------------------------------------------
# The registry's entries, frozen from the literature definitions the README
# cites.  The references read the box and the minimum from the Objective
# they are given, so only this table can see a wrong one.
# ---------------------------------------------------------------------------


class RegistryEntry(NamedTuple):
    """A function's box [lo, hi] in every coordinate, the dimensions it takes
    as `list-functions` prints them, and its known minimum and minimizer at
    dimension d (None where none is stored)."""

    lo: float
    hi: float
    dims: str
    minimum: Callable[[int], Optional[tuple[float, list[float]]]]

    def takes(self, d: int) -> bool:
        kind, least = self.dims.split("=")
        return d == int(least) if kind == "d" else d >= int(least)


_MICHALEWICZ = {  # stored at d=2 and d=5 only
    2: (-1.8013034100985537, [2.202905520481451, math.pi / 2]),
    5: (-4.687658179088151,
        [2.202905520481451, math.pi / 2, 1.2849915707866182, 1.9230584692013135, 1.7204697721416045]),
}
_SCHWEFEL_X = 420.9687462275036

REGISTRY = {
    "rosenbrock_paper": RegistryEntry(-2.048, 2.048, "d>=2", lambda d: (0.0, [1.0] * d)),
    "rosenbrock_classic": RegistryEntry(-2.048, 2.048, "d>=2", lambda d: (0.0, [1.0] * d)),
    "eggcrate": RegistryEntry(-2 * math.pi, 2 * math.pi, "d=2", lambda d: (0.0, [0.0] * d)),
    "dejong_sphere": RegistryEntry(-10.0, 10.0, "d>=1", lambda d: (0.0, [0.0] * d)),
    "ackley": RegistryEntry(-30.0, 30.0, "d>=1", lambda d: (0.0, [0.0] * d)),
    "michalewicz": RegistryEntry(0.0, math.pi, "d>=1", _MICHALEWICZ.get),
    "rastrigin": RegistryEntry(-5.12, 5.12, "d>=1", lambda d: (0.0, [0.0] * d)),
    "griewank": RegistryEntry(-600.0, 600.0, "d>=1", lambda d: (0.0, [0.0] * d)),
    "easom": RegistryEntry(-100.0, 100.0, "d=2", lambda d: (-1.0, [math.pi, math.pi])),
    # The frozen formula at the minimizer, about 1.27e-5 per coordinate.
    "schwefel": RegistryEntry(
        -500.0, 500.0, "d>=1", lambda d: (_schwefel([_SCHWEFEL_X] * d), [_SCHWEFEL_X] * d)
    ),
    "shubert": RegistryEntry(
        -10.0, 10.0, "d=2", lambda d: (-186.7309088310239, [-1.425128429776018, -0.8003211022876466])
    ),
    "multiple_peaks": RegistryEntry(-5.0, 5.0, "d=2", lambda d: (-2.0, [3.0, 3.0])),
}
REGISTRY_ALIASES = {"sphere": "dejong_sphere", "dejong": "dejong_sphere"}
