import math
import sys

import numpy as np
import pytest

from plantedcycles import (coefficient, expected_diff_bound, find_m_star,
                           find_witness, g_value, ratio, threshold,
                           zero_red_trail_mean)
from plantedcycles.genfun import (MAX_ORDER, coefficient_table, report,
                                  threshold_quadratic_residual)

from conftest import reference_coefficient, reference_witness

# the comparison grid: delta over [0.01, 1], lambda over [1e-4, 1.5]
GRID_DELTAS = [float(d) for d in np.linspace(0.01, 1.0, 100)]
GRID_LAMBDAS = [float(lam) for lam in np.geomspace(1e-4, 1.5, 300)]


def assert_witness_contract(lam, delta, w):
    assert ratio(lam, delta, w.x, w.y) < 1
    assert w.x * w.y > 1
    assert 0 < w.epsilon < 0.5


def test_threshold_values():
    assert threshold(1.0) == pytest.approx(0.5, abs=1e-12)
    assert threshold(2 / 3) == pytest.approx(1 / 3, abs=1e-12)
    assert threshold(0.5) == pytest.approx(0.343146, abs=1e-6)
    with pytest.raises(ValueError):
        threshold(0.0)
    with pytest.raises(ValueError):
        threshold(1.5)


def test_threshold_is_quadratic_root():
    for delta in np.linspace(0.01, 0.99, 99):
        assert abs(threshold_quadratic_residual(float(delta))) < 1e-10


def test_coefficient_examples():
    assert coefficient(0.5, 0.5, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert coefficient(0.6, 1.0, 2, 2) == pytest.approx(1.44, abs=1e-12)
    lam, delta = 0.3, 0.5
    assert coefficient(lam, delta, 1, 3) == pytest.approx(
        (lam * (1 - delta)) ** 3 * 2 * delta / (1 - delta), rel=1e-12)
    for args in ((0.5, 0.5, 0, 1), (0.6, 1.0, MAX_ORDER + 1, 1), (0.6, 0.5, 1, MAX_ORDER + 1),
                 (-0.1, 0.5, 2, 2), (math.nan, 0.5, 2, 2), (math.inf, 0.5, 2, 2)):
        with pytest.raises(ValueError):
            coefficient(*args)


def test_coefficient_matches_the_exact_sum():
    orders = (1, 2, 3, 5, 8, 13, 21, 34, 55, 64)
    for delta in (0.01, 0.2, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0):
        for lam in (1e-4, 0.01, 0.3, 0.5, 1.2, 5.0):
            for a in orders:
                for b in orders:
                    exact = reference_coefficient(lam, delta, a, b)
                    c = coefficient(lam, delta, a, b)
                    if exact == 0:
                        assert c == 0.0
                    elif exact >= 1e-250:
                        assert c == pytest.approx(float(exact), rel=1e-13, abs=0)


def test_coefficient_range_ends():
    assert coefficient(0.0, 0.5, 3, 3) == 0.0
    assert coefficient(1e308, 1.0, 2, 2) == math.inf     # 2*delta*lam is past the float range
    assert coefficient(1e308, 1.0, 1, 2) == 0.0
    assert coefficient(1e-4, 0.5, MAX_ORDER, MAX_ORDER) == 0.0      # below the float range
    assert coefficient(10.0, 1.0, MAX_ORDER, MAX_ORDER) == math.inf  # above it
    # (lam*(1-delta))^239 = 20^239 is past the float range, 4e-99 * 20^239 is not
    exact = reference_coefficient(20.0, 1e-100, 1, 240)
    assert coefficient(20.0, 1e-100, 1, 240) == pytest.approx(float(exact), rel=1e-13)


def test_coefficient_delta_one_closed_form():
    for a in range(1, 11):
        assert coefficient(0.6, 1.0, a, a) == pytest.approx((1.2) ** a, abs=1e-12)
        assert coefficient(0.4, 1.0, a, a) == pytest.approx((0.8) ** a, abs=1e-12)
    assert coefficient(0.6, 1.0, 2, 5) == 0.0   # more blue than red is impossible


def test_coefficient_monotone_in_lambda():
    for delta in (0.3, 0.7, 1.0):
        for a, b in [(1, 1), (2, 3), (4, 2)]:
            vals = [coefficient(lam, delta, a, b) for lam in (0.1, 0.3, 0.5, 0.9)]
            # strictly increasing except the identically-zero delta=1, b>a case
            assert all(x < y or x == y == 0 for x, y in zip(vals, vals[1:]))


def test_zero_red_trail_mean():
    assert zero_red_trail_mean(0.7, 0.3, 1) == pytest.approx(0.7)
    assert zero_red_trail_mean(0.7, 1.0, 2) == 0.0
    assert zero_red_trail_mean(0.3, 0.5, 3) == pytest.approx(0.00675, abs=1e-15)
    assert zero_red_trail_mean(1.0, 1.0, 1) == 1.0                  # 0.0 ** 0 == 1.0
    assert zero_red_trail_mean(1e10, 0.5, 40) == math.inf == coefficient(1e10, 0.5, 1, 40)
    # lam^40 = 2^1200 is past the float range, the mean 2^30 * 2^-390 is not
    assert zero_red_trail_mean(2.0 ** 30, 1 - 2.0 ** -40, 40) == 2.0 ** -360
    for args in ((-1.0, 0.5, 2), (0.5, 1.5, 2), (0.5, 0.0, 2), (math.inf, 0.5, 2),
                 (math.nan, 0.5, 2), (0.5, 0.5, 0), (0.5, 0.5, MAX_ORDER + 1)):
        with pytest.raises(ValueError):
            zero_red_trail_mean(*args)


def test_g_value_examples():
    assert g_value(0.5, 0.5, 0.0, 1.0) == 0.0
    assert g_value(0.4, 1.0, 0.2, 1.0) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        g_value(0.4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        g_value(0.5, 0.5, 0.3, 1 / (0.5 * 0.5) + 1)
    assert g_value(0.6, 1.0, 0.9, 1.0) == math.inf


def test_g_matches_partial_coefficient_sums():
    for lam, delta, x, y in [(0.3, 1.0, 0.3, 1.2), (0.25, 0.5, 0.4, 1.5),
                             (0.2, 0.7, 0.5, 1.1)]:
        g = g_value(lam, delta, x, y)
        partial = sum(coefficient(lam, delta, a, b) * x ** a * y ** b
                      for a in range(1, 61) for b in range(1, 61))
        assert partial == pytest.approx(g, abs=1e-6)


def test_find_witness_below_threshold():
    w = find_witness(0.4, 1.0)
    assert w is not None
    assert w.x == pytest.approx(0.1, abs=1e-12)     # (1 - (3d-1) lam)/2
    assert 0 < w.x < 1 < w.y
    assert ratio(0.4, 1.0, w.x, w.y) < 1
    assert 0 < w.epsilon < 0.5
    assert w.x ** (1 + 2 * w.epsilon) * w.y ** (1 - 2 * w.epsilon) == \
        pytest.approx(1.0, abs=1e-9)


def test_find_witness_above_threshold():
    assert find_witness(0.6, 1.0) is None
    assert find_witness(0.35, 2 / 3) is None


def test_find_witness_range():
    # lambda = 0 has no witness (r is 0 everywhere); outside [0, inf) is an error
    assert find_witness(0.0, 0.5) is None and expected_diff_bound(0.0, 0.5) is None
    for lam in (math.nan, math.inf, -0.1):
        for f in (find_witness, expected_diff_bound):
            with pytest.raises(ValueError, match="finite and >= 0"):
                f(lam, 0.5)
    with pytest.raises(ValueError, match="outside"):
        find_witness(0.1, 0.0)


def test_find_witness_tiny_lambda():
    for delta in (0.2, 0.5, 0.9, 1.0):
        w = find_witness(1e-4, delta)
        assert w is not None and ratio(1e-4, delta, w.x, w.y) < 1


def test_witness_none_exactly_above_threshold():
    margin = 1e-6
    for delta in np.linspace(0.05, 1.0, 20):
        thr = threshold(float(delta))
        for lam in np.linspace(0.02, 0.98, 25):
            if abs(lam - thr) <= margin:
                continue
            w = find_witness(float(lam), float(delta))
            if lam < thr:
                assert w is not None
                assert ratio(float(lam), float(delta), w.x, w.y) < 1
                if delta < 1:
                    assert w.y < 1 / (lam * (1 - delta))
            else:
                assert w is None


def test_witness_matches_the_bisection_reference():
    for delta in GRID_DELTAS[::2]:
        for lam in GRID_LAMBDAS[::3]:
            ref, w = reference_witness(lam, delta), find_witness(lam, delta)
            if ref is None or ref.epsilon <= 0:
                continue
            assert w is not None and w.x == ref.x
            assert w.y == pytest.approx(ref.y, rel=1e-14, abs=0)
            assert w.epsilon == pytest.approx(ref.epsilon, rel=0, abs=1e-12)
            assert_witness_contract(lam, delta, w)


def test_witness_contract_just_below_the_threshold():
    for delta in (0.3, 0.5, 2 / 3, 1.0):
        for k in range(5, 14):
            lam = threshold(delta) * (1 - 10.0 ** -k)
            w = find_witness(lam, delta)
            assert w is not None, (delta, k)
            assert_witness_contract(lam, delta, w)
            assert expected_diff_bound(lam, delta) > 0


def test_witness_at_tiny_delta_is_valid_or_none():
    # the pole 1/(lam*(1-delta)) of r and y_{1-1e-6} meet in floats here
    for delta in (1e-300, 1e-17, 1e-14, 1e-11):
        for lam in (1e-4, 0.5, threshold(delta) * (1 - 1e-9)):
            w = find_witness(lam, delta)
            if w is not None:
                assert_witness_contract(lam, delta, w)


def test_m_star_matches_the_exact_coefficients():
    for delta in GRID_DELTAS[::11]:
        for lam in GRID_LAMBDAS[150::20]:
            exact = next((m for m in range(1, 65)
                          if reference_coefficient(lam, delta, m, m) > 1), None)
            assert find_m_star(lam, delta, 64) == exact, (lam, delta)


def test_find_m_star():
    assert find_m_star(0.6, 1.0, 10) == 1
    assert find_m_star(0.4, 1.0, 40) is None
    assert find_m_star(1.2, 0.5, 10) == 1
    # just above threshold at delta=0.5: some finite m* exists
    thr = threshold(0.5)
    m = find_m_star(thr * 1.3, 0.5, 64)
    assert m is not None and coefficient(thr * 1.3, 0.5, m, m) > 1
    for k in range(1, m):
        assert coefficient(thr * 1.3, 0.5, k, k) <= 1


def test_expected_diff_bound():
    c = expected_diff_bound(0.3, 1.0)
    assert c is not None and 0 < c < math.inf
    assert expected_diff_bound(0.6, 1.0) is None
    # at delta=1 the all-blue contribution vanishes exactly
    w = find_witness(0.3, 1.0)
    gamma0 = (0.5 + w.epsilon) * 0.0 / (1 - 0.0) ** 2
    assert gamma0 == 0.0


def test_report_bundle():
    rep = report(0.3, 1.0)
    assert rep.regime == "below" and rep.witness is not None
    assert rep.m_star is None and rep.expected_diff_bound > 0
    rep2 = report(0.8, 1.0)
    assert rep2.regime == "above" and rep2.witness is None
    assert rep2.m_star == 1 and rep2.expected_diff_bound is None
    assert rep.expected_diff_bound == expected_diff_bound(0.3, 1.0)
    assert rep.witness == find_witness(0.3, 1.0)


@pytest.mark.parametrize("delta", [1.0, 2 / 3, 1 / 3, 0.25, 0.1])
def test_coefficient_table_matches_coefficient(delta):
    lam_c = threshold(delta)
    infs = 0
    for lam in (1e-4, 0.5 * lam_c, 0.99 * lam_c, 1.01 * lam_c, 2 * lam_c, 1e3, 2.0 ** 40,
                1e308):
        table = coefficient_table(lam, delta, 64)
        assert len(table) == 64 and all(len(row) == 64 for row in table)
        for a, row in enumerate(table, 1):
            for b, got in enumerate(row, 1):
                want = coefficient(lam, delta, a, b)
                assert not (math.isnan(got) or math.isnan(want)), (lam, a, b)
                if math.isinf(want) or math.isinf(got):
                    assert got == want, (lam, a, b)
                    infs += 1
                elif want >= sys.float_info.min:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (lam, a, b)
    assert infs                                   # the overflow branch ran


def test_coefficient_table_rejects_what_coefficient_rejects():
    assert coefficient_table(0.3, 0.5, 1) == [[coefficient(0.3, 0.5, 1, 1)]]
    assert coefficient_table(0.0, 1.0, 2) == [[0.0, 0.0], [0.0, 0.0]]
    for lam, delta, size in ((0.3, 0.5, 0), (0.3, 0.5, MAX_ORDER + 1), (0.3, 0.0, 4),
                             (0.3, 1.5, 4), (-1.0, 0.5, 4), (math.inf, 0.5, 4),
                             (math.nan, 0.5, 4)):
        with pytest.raises(ValueError):
            coefficient_table(lam, delta, size)
