"""Random utility workloads from Section VII of the paper.

Each thread's utility is built from two draws of a base distribution ``H``:
sample ``(a, b)`` i.i.d., set ``v = max(a, b)`` and ``w = min(a, b)``
(drawing conditioned on ``w ≤ v`` is exactly order statistics for i.i.d.
pairs), anchor ``f(0) = 0``, ``f(C/2) = v``, ``f(C) = v + w``, and smooth.
The default smoother is the concavity-guaranteed quadratic spline
(:class:`~repro.utility.batch.QuadSplineBatch`); ``interpolator="pchip"``
uses scipy's PCHIP for Matlab fidelity (see DESIGN.md §5).

Base distributions (supports chosen where the paper leaves them open):

* ``uniform`` — U(0, 1).
* ``normal`` — |N(mean, std)| with mean = std = 1 (folded at zero: anchors
  must be nonnegative).
* ``powerlaw`` — Pareto density ∝ x^(−α) on [1, ∞), the paper's heavy-tail
  stressor (α = 2 makes wildly different peak utilities likely).
* ``discrete`` — two-point {ℓ=1, h=θ} with P(ℓ) = γ.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.problem import AAProblem
from repro.utility.batch import GenericBatch, QuadSplineBatch, UtilityBatch
from repro.utility.quadspline import PchipUtility
from repro.utils.rng import SeedLike, TrialStreams, as_generator
from repro.utils.validation import check_integral, check_positive, check_probability


class Distribution(abc.ABC):
    """A nonnegative base distribution ``H`` for anchor draws."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. nonnegative samples."""

    def sample_lanes(
        self, streams: TrialStreams, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every lane's two :meth:`sample` calls, as two ``(lanes, size)`` arrays.

        Row ``t`` of the pair is what ``sample(gen_t, size)`` returns twice in
        a row on lane ``t``'s generator (the draws of :func:`draw_anchors`).
        This default asks each lane's generator in turn; families whose draws
        come from ``uniform`` override it with one call for the whole chunk.
        """
        lanes = len(streams)
        first, second = np.empty((lanes, size)), np.empty((lanes, size))
        for t in range(lanes):
            gen = streams.generator(t)
            first[t] = self.sample(gen, size)
            second[t] = self.sample(gen, size)
        return first, second

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Distribution", "").lower()


def _pairs(draws: np.ndarray, lanes: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Split each lane's ``2 * size`` consecutive draws into its two samples.

    A lane's two ``size``-long calls read its stream back to back, so they
    equal one ``2 * size``-long call cut in half.
    """
    pairs = draws.reshape(lanes, 2, size)
    return pairs[:, 0], pairs[:, 1]


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """U(low, high); the paper's 'uniform' with the conventional (0, 1)."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.low < self.high:
            raise ValueError(f"need 0 <= low < high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def sample_lanes(self, streams: TrialStreams, size: int):
        return _pairs(streams.uniform(self.low, self.high, 2 * size), len(streams), size)


@dataclass(frozen=True)
class FoldedNormalDistribution(Distribution):
    """|N(mean, std)| — the paper's 'normal' with mean = std = 1, folded to ≥ 0."""

    mean: float = 1.0
    std: float = 1.0

    def __post_init__(self):
        check_positive("std", self.std)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(rng.normal(self.mean, self.std, size=size))


@dataclass(frozen=True)
class PowerLawDistribution(Distribution):
    """Pareto with density ``∝ x^(−α)`` on ``[x_min, ∞)``; requires α > 1."""

    alpha: float = 2.0
    x_min: float = 1.0

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError(f"power law needs alpha > 1 to normalize, got {self.alpha}")
        check_positive("x_min", self.x_min)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._inverse_cdf(rng.uniform(0.0, 1.0, size=size))

    def sample_lanes(self, streams: TrialStreams, size: int):
        u = streams.uniform(0.0, 1.0, 2 * size)
        return _pairs(self._inverse_cdf(u), len(streams), size)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self.x_min * np.power(1.0 - u, -1.0 / (self.alpha - 1.0))


@dataclass(frozen=True)
class TwoPointDistribution(Distribution):
    """The paper's 'discrete': value ℓ with probability γ, else h = θ·ℓ."""

    gamma: float = 0.85
    theta: float = 5.0
    low: float = 1.0

    def __post_init__(self):
        check_probability("gamma", self.gamma)
        check_positive("theta", self.theta)
        check_positive("low", self.low)
        if self.theta < 1.0:
            raise ValueError(f"theta = h/l must be at least 1, got {self.theta}")

    @property
    def high(self) -> float:
        return self.theta * self.low

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._pick(rng.uniform(0.0, 1.0, size=size))

    def sample_lanes(self, streams: TrialStreams, size: int):
        u = streams.uniform(0.0, 1.0, 2 * size)
        return _pairs(self._pick(u), len(streams), size)

    def _pick(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.gamma, self.low, self.high)


#: Named registry matching the paper's four experiment families.
DISTRIBUTIONS = {
    "uniform": UniformDistribution,
    "normal": FoldedNormalDistribution,
    "powerlaw": PowerLawDistribution,
    "discrete": TwoPointDistribution,
}


def make_distribution(name: str, **params) -> Distribution:
    """Instantiate a registered base distribution by name."""
    try:
        cls = DISTRIBUTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown distribution {name!r}; choose from {sorted(DISTRIBUTIONS)}"
        ) from None
    return cls(**params)


def draw_anchors(
    dist: Distribution, n: int, seed: SeedLike = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` anchor pairs ``(v, w)`` with ``w <= v`` elementwise."""
    n = check_integral("n", n, minimum=0)
    rng = as_generator(seed)
    a = dist.sample(rng, n)
    b = dist.sample(rng, n)
    return np.maximum(a, b), np.minimum(a, b)


def _utility_family(
    v: np.ndarray, w: np.ndarray, capacity: float, interpolator: str
) -> UtilityBatch:
    """The smoothed utilities through anchors ``(C/2, v)`` and ``(C, v + w)``."""
    if interpolator == "quadspline":
        return QuadSplineBatch(v, w, capacity)
    if interpolator == "pchip":
        return GenericBatch(
            [PchipUtility.from_paper_anchors(vi, wi, capacity) for vi, wi in zip(v, w)]
        )
    raise ValueError(
        f"unknown interpolator {interpolator!r}; choose 'quadspline' or 'pchip'"
    )


def paper_utilities(
    dist: Distribution,
    n: int,
    capacity: float,
    seed: SeedLike = None,
    interpolator: str = "quadspline",
) -> UtilityBatch:
    """Generate ``n`` random concave utilities per the paper's Section VII."""
    v, w = draw_anchors(dist, n, seed)
    return _utility_family(v, w, capacity, interpolator)


def paper_utilities_batch(
    dist: Distribution,
    n: int,
    capacity: float,
    streams: TrialStreams,
    interpolator: str = "quadspline",
) -> UtilityBatch:
    """One flat utility batch for many trials (``len(streams) * n`` threads).

    Equivalent to concatenating ``paper_utilities(dist, n, capacity, gen_t)``
    over the lanes: each lane makes the draws :func:`draw_anchors` makes
    (:meth:`Distribution.sample_lanes`, one call for the whole chunk where
    the family allows), so the anchors are bit-identical to per-trial
    generation, and the utility family is constructed once over the
    stacked anchors instead of once per trial.
    """
    n = check_integral("n", n, minimum=0)
    a, b = dist.sample_lanes(streams, n)
    v, w = np.maximum(a, b).reshape(-1), np.minimum(a, b).reshape(-1)
    return _utility_family(v, w, capacity, interpolator)


def make_problem(
    dist: Distribution,
    n_servers: int,
    beta: float,
    capacity: float = 1000.0,
    seed: SeedLike = None,
    interpolator: str = "quadspline",
) -> AAProblem:
    """Build a random AA instance with ``n = round(beta * m)`` threads.

    ``beta`` is the paper's sweep parameter (average threads per server).
    """
    n_servers = check_integral("n_servers", n_servers, minimum=1)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = int(round(beta * n_servers))
    utilities = paper_utilities(dist, n, capacity, seed, interpolator)
    return AAProblem(utilities, n_servers=n_servers, capacity=capacity)
