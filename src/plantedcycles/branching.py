"""Survival bounds and simulation for (history-dependent) branching processes.

The survival probability of a supercritical process with offspring mean
mu > 1 and variance sigma^2 is at least (mu^2 - mu) / (mu^2 - mu + sigma^2);
with history-dependent offspring (conditional mean >= mu, conditional
variance <= sigma^2) the denominator picks up an extra 1/4.  The shift
construction realizes the coupling behind the history-dependent bound:
it lowers the mean of a finite law to any target while staying
stochastically dominated and raising the variance by at most 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TAIL_EPS = 1e-12
_POISSON_MAX = 708
_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_STEPS = 100000


@dataclass(frozen=True)
class OffspringSpec:
    """Finite discrete offspring law on {0, ..., s}."""

    probs: tuple[float, ...]     # probs[i] = P(offspring = i)

    def __post_init__(self):
        total = float(sum(self.probs))
        if not abs(total - 1.0) <= 1e-12:       # so a NaN total fails
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < -1e-15 for p in self.probs):
            raise ValueError("negative probability")

    @property
    def mean(self) -> float:
        return float(sum(i * p for i, p in enumerate(self.probs)))

    @property
    def variance(self) -> float:
        mu = self.mean
        return float(sum(p * (i - mu) ** 2 for i, p in enumerate(self.probs)))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @classmethod
    def from_probs(cls, probs) -> "OffspringSpec":
        probs = [float(p) for p in probs]
        total = sum(probs)
        if not (0 < total < np.inf and all(p >= 0 for p in probs)):   # so each is finite
            raise ValueError(f"weights need each >= 0 and a positive finite total ({total})")
        return cls(tuple(p / total for p in probs))

    @classmethod
    def point_mass(cls, k: int) -> "OffspringSpec":
        return cls(tuple([0.0] * k + [1.0]))

    @classmethod
    def poisson(cls, lam: float) -> "OffspringSpec":
        """Poisson truncated at tail mass < 1e-12 and renormalized.  lam
        lies in [0, 708], where exp(-lam) is still a normal float."""
        if not 0 <= lam <= _POISSON_MAX:
            raise ValueError(f"lam={lam} outside [0, {_POISSON_MAX}]")
        probs = [np.exp(-lam)]
        total = probs[0]
        k = 0
        while total < 1 - _TAIL_EPS:
            k += 1
            probs.append(probs[-1] * lam / k)
            total += probs[-1]
        return cls(tuple(p / total for p in probs))


def survival_bound(mu: float, sigma2: float, history_dependent: bool = False) -> float:
    """(mu^2-mu) / (mu^2-mu+sigma^2[+1/4]); 0 for subcritical mu <= 1."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if mu <= 1:
        return 0.0
    base = mu * mu - mu
    extra = 0.25 if history_dependent else 0.0
    return base / (base + sigma2 + extra)


def extinction_fixed_point(spec: OffspringSpec) -> float:
    """Smallest fixed point q = f(q) of the probability generating
    function, by monotone iteration from 0 until a step moves q by less
    than _FIXED_POINT_TOL, or _FIXED_POINT_STEPS steps.  Survival = 1 - q."""
    probs = np.asarray(spec.probs)
    powers = np.arange(len(probs))
    q = 0.0
    for _ in range(_FIXED_POINT_STEPS):
        q_next = float(np.sum(probs * q ** powers))
        if abs(q_next - q) < _FIXED_POINT_TOL:
            return q_next
        q = q_next
    return q


_POP_CAP = 1 << 40      # extinction from here on has probability ~ q^2^40 ~ 0
_RUN_BYTES = 1 << 31    # memory budget of one simulation, 2 GiB


def _generations(spec: OffspringSpec, depth: int, runs: int,
                 rng: np.random.Generator):
    """Populations of `runs` independent processes (Z_0 = 1), yielded
    after each of up to `depth` generations as one array updated in
    place.  It stops once every run has died out: every later generation
    is 0 and draws nothing.

    Vectorized over runs: a generation advances every live run at once
    with one multinomial split of its population over the support.
    Populations are clipped at 2^40 to keep int64 arithmetic exact; the
    clip changes the estimates by a vanishing amount.  A generation holds
    about 8*len(probs) + 40 B per run (the multinomial's counts, the
    population and its masks), so past 2 GiB nothing is allocated.
    """
    if runs * (8 * len(spec.probs) + 40) > _RUN_BYTES:
        raise ValueError(f"runs={runs} need more than the {_RUN_BYTES} B budget")
    probs = np.asarray(spec.probs)
    support = np.arange(len(probs))
    z = np.ones(runs, dtype=np.int64)
    for _ in range(depth):
        alive = z > 0
        if not alive.any():
            return
        counts = rng.multinomial(np.minimum(z[alive], _POP_CAP), probs)
        z[alive] = counts @ support
        yield z


def simulate_survival(spec: OffspringSpec, depth: int, runs: int,
                      rng: np.random.Generator) -> float:
    """Fraction of runs whose population is still alive at `depth`."""
    if depth < 1 or runs < 1:
        raise ValueError("depth and runs must be >= 1")
    *_, z = _generations(spec, depth, runs, rng)
    return float(np.mean(z > 0))


def population_mean_trajectory(spec: OffspringSpec, depth: int, runs: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Empirical E[Z_m] for m = 0..depth (Z_0 = 1)."""
    means = np.zeros(depth + 1)
    means[0] = 1.0
    for m, z in enumerate(_generations(spec, depth, runs, rng), 1):
        means[m] = np.mean(z)
    return means


def shift_distribution(spec: OffspringSpec, mu_prime: float) -> OffspringSpec:
    """Stochastically dominated law with mean exactly mu_prime.

    Iteratively moves mass from the largest support point down by one;
    the result Q satisfies Q <= P in stochastic order, mean(Q) = mu_prime,
    and var(Q) <= var(P) + 1/4.  mu_prime above the mean is an error;
    mu_prime equal to the mean returns the law unchanged.
    """
    mu = spec.mean
    if mu_prime > mu:
        raise ValueError(f"target mean {mu_prime} exceeds current mean {mu}")
    if mu_prime < 0:
        raise ValueError("target mean must be nonnegative")
    probs = list(spec.probs)
    deficit = mu - mu_prime
    cur = len(probs) - 1
    while deficit > 1e-15 and cur >= 1:
        move = min(probs[cur], deficit)
        probs[cur] -= move
        probs[cur - 1] += move
        deficit -= move
        if probs[cur] <= 1e-18:
            probs[cur] = 0.0
            cur -= 1
    return OffspringSpec(tuple(probs))
