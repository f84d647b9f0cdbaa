import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantedcycles import (OffspringSpec, extinction_fixed_point,
                           population_mean_trajectory, rng_for,
                           shift_distribution, simulate_survival,
                           survival_bound)


def test_survival_bound_values():
    assert survival_bound(3, 0) == 1.0
    assert survival_bound(2, 2) == 0.5
    assert survival_bound(2, 2, history_dependent=True) == pytest.approx(2 / 4.25)
    assert survival_bound(1.0, 5) == 0.0        # subcritical edge
    assert survival_bound(0.5, 1) == 0.0


def test_poisson_spec():
    spec = OffspringSpec.poisson(2.0)
    assert spec.mean == pytest.approx(2.0, abs=1e-9)
    assert spec.variance == pytest.approx(2.0, abs=1e-8)
    assert abs(sum(spec.probs) - 1) < 1e-12


def test_poisson_range():
    spec = OffspringSpec.poisson(708)
    assert spec.mean == pytest.approx(708.0, rel=1e-12)
    assert spec.variance == pytest.approx(708.0, rel=1e-9)
    for lam in (-0.5, 709, 740, float("nan"), float("inf")):   # none of these may hang
        with pytest.raises(ValueError):
            OffspringSpec.poisson(lam)
    with pytest.raises(ValueError):
        OffspringSpec((float("nan"), 1.0))


def test_fixed_point_oracle():
    # survival of Poisson(2): 1 - q with q = exp(2(q-1))
    spec = OffspringSpec.poisson(2.0)
    q = extinction_fixed_point(spec)
    assert q == pytest.approx(0.2031878, abs=1e-6)


def test_simulate_point_masses():
    assert simulate_survival(OffspringSpec.point_mass(0), 5, 200, rng_for(1)) == 0.0
    assert simulate_survival(OffspringSpec.point_mass(2), 20, 200, rng_for(2)) == 1.0


def test_simulate_poisson_matches_fixed_point():
    spec = OffspringSpec.poisson(2.0)
    rate = simulate_survival(spec, depth=30, runs=100000, rng=rng_for(3))
    truth = 1 - extinction_fixed_point(spec)
    assert rate == pytest.approx(truth, abs=0.01)
    assert rate >= survival_bound(2, 2)
    # doubling the depth moves the estimate by less than the standard error
    rate60 = simulate_survival(spec, depth=60, runs=100000, rng=rng_for(3))
    se = np.sqrt(rate * (1 - rate) / 100000)
    assert abs(rate60 - rate) < se


def test_runs_past_the_memory_budget_raise_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    spec = OffspringSpec.poisson(2.0)
    fits = 2 ** 31 // (8 * len(spec.probs) + 40)       # the most runs within 2 GiB
    monkeypatch.setattr(np, "ones", refuse)
    for simulate in (simulate_survival, population_mean_trajectory):
        with pytest.raises(ValueError, match="budget"):
            simulate(spec, 3, fits + 1, rng_for(1))
        with pytest.raises(AssertionError, match="allocated"):
            simulate(spec, 3, fits, rng_for(1))


def reference_mean_trajectory(spec, depth, runs, rng):
    """E[Z_m] for m = 0..depth by the plain loop that visits every
    generation, extinct or not."""
    probs = np.asarray(spec.probs)
    z = np.ones(runs, dtype=np.int64)
    means = [1.0]
    for _ in range(depth):
        alive = z > 0
        if alive.any():
            z[alive] = rng.multinomial(np.minimum(z[alive], 1 << 40), probs) @ np.arange(len(probs))
        means.append(float(np.mean(z)))
    return np.asarray(means)


@pytest.mark.parametrize("law,depth", [(0.5, 300), (1.0, 300), (2.0, 12), (0.0, 4)])
def test_trajectory_after_extinction_matches_the_full_loop(law, depth):
    spec = OffspringSpec.poisson(law)
    fast, slow = rng_for(12), rng_for(12)
    traj = population_mean_trajectory(spec, depth, 40, fast)
    assert len(traj) == depth + 1
    assert traj.tolist() == reference_mean_trajectory(spec, depth, 40, slow).tolist()
    assert fast.bit_generator.state == slow.bit_generator.state      # no draw skipped


def test_population_mean_matches_mu_power():
    spec = OffspringSpec.poisson(1.5)
    traj = population_mean_trajectory(spec, 10, 200000, rng_for(9))
    for m in range(1, 11):
        assert traj[m] == pytest.approx(1.5 ** m, rel=0.02)


def test_shift_examples():
    q = shift_distribution(OffspringSpec.point_mass(2), 1.5)
    assert q.probs == (0.0, 0.5, 0.5)
    assert q.variance == pytest.approx(0.25)
    q2 = shift_distribution(OffspringSpec.from_probs([1, 1, 1]), 0.5)
    assert q2.probs[0] == pytest.approx(0.5)
    assert q2.probs[1] == pytest.approx(0.5)
    assert q2.variance <= 2 / 3 + 0.25
    p = OffspringSpec.from_probs([1, 2, 3])
    assert shift_distribution(p, p.mean).probs == p.probs
    with pytest.raises(ValueError):
        shift_distribution(p, p.mean + 0.1)


@st.composite
def offspring_laws(draw):
    size = draw(st.integers(2, 7))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    return OffspringSpec.from_probs(weights)


@settings(max_examples=200, deadline=None)
@given(offspring_laws(), st.floats(0.0, 1.0))
def test_shift_postconditions(p, frac):
    mu_prime = p.mean * frac
    q = shift_distribution(p, mu_prime)
    assert q.mean == pytest.approx(mu_prime, abs=1e-9)
    assert q.variance <= p.variance + 0.25 + 1e-9
    # stochastic dominance: CDF of Q >= CDF of P pointwise
    cp, cq = p.cdf(), q.cdf()
    assert np.all(cq >= cp - 1e-12)


def test_random_supercritical_laws_respect_bound():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 25:
        size = int(rng.integers(3, 8))
        probs = rng.dirichlet(np.ones(size))
        spec = OffspringSpec.from_probs(probs)
        if spec.mean <= 1.05:
            continue
        checked += 1
        runs = 4000
        rate = simulate_survival(spec, depth=30, runs=runs,
                                 rng=np.random.default_rng(1000 + checked))
        bound = survival_bound(spec.mean, spec.variance)
        se = np.sqrt(max(rate * (1 - rate), 1e-9) / runs)
        assert rate >= bound - 3 * se
