"""Closed-form analysis of the recovery phase transition.

The central objects: trail-count coefficients c_{a,b}, their generating
function g(x, y) = sum_k r(x, y)^k with

    r(x, y) = (2x / (1 - x)) * (delta * lambda * y / (1 - (1 - delta) * lambda * y)),

the recovery threshold 1 / (sqrt(2*delta) + sqrt(1-delta))^2, the
sub-threshold witness (x, y, epsilon), the smallest supercritical order
m* with c_{m*,m*} > 1, and the constant bounding the expected size of
the symmetric difference against any competing cycle cover.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal

_RATIO_MARGIN = 1e-6   # the witness's y sits where r = 1 - margin
MAX_ORDER = 512        # largest a, b: C(511, 255)^2 < 2^1022 converts to a float
_M_STAR_CAP = 64       # report's search depth for m*
# coefficient_table's context: no c_{a,b} leaves this exponent range
_WIDE = decimal.Context(prec=20, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def threshold(delta: float) -> float:
    """Critical background intensity 1 / (sqrt(2d) + sqrt(1-d))^2."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta={delta} outside (0, 1]")
    return 1.0 / (math.sqrt(2 * delta) + math.sqrt(1 - delta)) ** 2


def _check_point(lam: float, delta: float) -> None:
    if not 0 < delta <= 1:
        raise ValueError(f"delta={delta} outside (0, 1]")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda={lam} must be finite and >= 0")


def coefficient(lam: float, delta: float, a: int, b: int) -> float:
    """c_{a,b}: the n-free expected (a,b)-trail count per planted target,

        sum_{k=1}^{min(a,b)} (2*delta*lam)^k * (lam*(1-delta))^(b-k)
                             * C(a-1, k-1) * C(b-1, k-1)

    with exact integer binomials.  At delta = 1 only the k = b term
    survives (0.0 ** 0 == 1.0): (2*lam)^b * C(a-1, b-1), and 0 for b > a.
    a and b go up to MAX_ORDER.  The powers are scaled from frexp(lam), so a
    base or a term past the float range makes the result inf, never nan.
    """
    if not (1 <= a <= MAX_ORDER and 1 <= b <= MAX_ORDER):
        raise ValueError(f"a={a}, b={b} outside 1..{MAX_ORDER} "
                         "(use zero_red_trail_mean for a=0)")
    _check_point(lam, delta)
    m_lam, e_lam = math.frexp(lam)            # 2*delta*lam may exceed the float range
    m_red, e_red = math.frexp(2 * delta * m_lam)
    m_blue, e_blue = math.frexp((1 - delta) * m_lam)
    total, comb_a, comb_b = 0.0, 1, 1            # C(a-1, k-1) and C(b-1, k-1)
    for k in range(1, min(a, b) + 1):
        # mantissas lie in [1/2, 1) and k + (b-k) <= 512, so this product
        # stays a normal float and only the final ldexp can over/underflow
        scaled = m_red ** k * m_blue ** (b - k) * (comb_a * comb_b)
        try:
            total += math.ldexp(scaled, e_red * k + e_blue * (b - k) + e_lam * b)
        except OverflowError:
            return math.inf
        comb_a, comb_b = comb_a * (a - k) // k, comb_b * (b - k) // k
    return total


def coefficient_table(lam: float, delta: float, size: int) -> list[list[float]]:
    """Rows a = 1..size of c_{a,b}, b = 1..size: `coefficient` for every
    entry, in O(size^2) steps.  With x = 2*delta*lam and y = (1-delta)*lam,
    c_{a,1} = x, S_{1,b} = 0, and for a, b >= 2

        S_{a,b} = x * c_{a-1,b-1} + S_{a-1,b},   c_{a,b} = y * c_{a,b-1} + S_{a,b}.

    Every term is nonnegative, so nothing cancels.  The recurrence runs in
    `decimal` at 20 digits with an exponent range no entry can leave, and
    each entry is rounded to a float once: to inf above the float range and
    to 0 or a subnormal below it, never to nan.
    """
    if not 1 <= size <= MAX_ORDER:
        raise ValueError(f"table order {size} outside 1..{MAX_ORDER}")
    _check_point(lam, delta)
    with decimal.localcontext(_WIDE):
        x = Decimal(2 * delta) * Decimal(lam)                 # 2*delta is exact
        y = (1 - Decimal(delta)) * Decimal(lam)
        zero = Decimal(0)
        c_prev = s_prev = [zero] * size                      # row a - 1; row 0 is all zero
        rows = []
        for _a in range(size):
            c, s = [x], [zero]
            for b in range(1, size):
                s.append(x * c_prev[b - 1] + s_prev[b])
                c.append(y * c[b - 1] + s[b])
            rows.append(list(map(float, c)))
            c_prev, s_prev = c, s
    return rows


def zero_red_trail_mean(lam: float, delta: float, b: int) -> float:
    """(1-delta)^(b-1) * lam^b, the n-free mean count of all-blue trails,
    for b up to MAX_ORDER; inf past the float range, as in `coefficient`."""
    if not 1 <= b <= MAX_ORDER:
        raise ValueError(f"b={b} outside 1..{MAX_ORDER}")
    _check_point(lam, delta)
    m_lam, e_lam = math.frexp(lam)
    m_blue, e_blue = math.frexp((1 - delta) * m_lam)
    try:
        return math.ldexp(m_lam * m_blue ** (b - 1), e_lam * b + e_blue * (b - 1))
    except OverflowError:
        return math.inf


def ratio(lam: float, delta: float, x: float, y: float) -> float:
    """r(x, y), the geometric ratio of the generating function."""
    return (2 * x / (1 - x)) * (delta * lam * y / (1 - (1 - delta) * lam * y))


def g_value(lam: float, delta: float, x: float, y: float) -> float:
    """g(x, y) = r / (1 - r) when r < 1, else +inf (series diverges)."""
    if not 0 <= x < 1:
        raise ValueError(f"x={x} outside [0, 1)")
    if delta < 1 and not 0 <= y < 1 / (lam * (1 - delta)):
        raise ValueError(f"y={y} outside [0, 1/(lam*(1-delta)))")
    if y < 0:
        raise ValueError(f"y={y} negative")
    r = ratio(lam, delta, x, y)
    if r >= 1:
        return math.inf
    return r / (1 - r)


@dataclass(frozen=True)
class Witness:
    x: float
    y: float
    epsilon: float


@dataclass(frozen=True)
class GenFunReport:
    lam: float
    delta: float
    threshold: float
    regime: str                      # below | above | critical
    witness: Witness | None
    m_star: int | None
    expected_diff_bound: float | None


def find_witness(lam: float, delta: float) -> Witness | None:
    """Sub-threshold witness (x, y, epsilon) with r(x, y) < 1 and
    x^(1+2*eps) * y^(1-2*eps) = 1; None at lam = 0, where r is 0 for
    every y, and at or above the threshold.

    x is the minimizer (1 - (3*delta - 1)*lam) / 2 of r along x*y = 1.
    At fixed x, r is linear-fractional in y: r(x, y) = s solves to
    y_s = s / (lam * (t*delta + s*(1 - delta))) with t = 2x / (1 - x),
    and y = y_{1-1e-6}.  Squeezed against the threshold, where that y
    would not exceed 1/x, y = (1/x + y_1) / 2 keeps x*y > 1 with the room
    that remains.  epsilon solves the balance equation in closed form,
    eps = ln(x*y) / (2*ln(y/x)).  The witness is returned only if x*y > 1,
    lam*(1-delta)*y < 1 and r(x, y) < 1 hold in floating point, which give
    0 < eps < 1/2.  So the result is None although lam < threshold(delta)
    within a few ulps of the threshold, and at delta below about 1e-10,
    where the float denominator 1 - lam*(1-delta)*y of r keeps fewer digits
    than the 1e-6 margin.
    """
    _check_point(lam, delta)
    if lam == 0 or lam >= threshold(delta):
        return None
    x = (1 - (3 * delta - 1) * lam) / 2
    t = 2 * x / (1 - x)

    def y_at(s: float) -> float:
        return s / (lam * (t * delta + s * (1 - delta)))

    y = y_at(1 - _RATIO_MARGIN)
    if y <= 1 / x:
        y = (1 / x + y_at(1.0)) / 2
    if not (x * y > 1 and (1 - delta) * lam * y < 1 and ratio(lam, delta, x, y) < 1):
        return None
    return Witness(x=x, y=y, epsilon=math.log(x * y) / (2 * math.log(y / x)))


def find_m_star(lam: float, delta: float, m_cap: int) -> int | None:
    """Smallest m <= m_cap with c_{m,m} > 1, else None."""
    if m_cap < 1:
        raise ValueError("m_cap must be >= 1")
    for m in range(1, m_cap + 1):
        if coefficient(lam, delta, m, m) > 1:
            return m
    return None


def expected_diff_bound(lam: float, delta: float) -> float | None:
    """Constant C with E|H* XOR H| <= C for every competing cycle cover,
    assembled from the witness: (Gamma0 + Gamma1) / epsilon where
    Gamma0 = (1/2 + eps) * lam*(1-delta) / (1 - lam*(1-delta))^2 and
    Gamma1 = ((y/x) / (y/x - 1)) * 1 / (1 - r).  None without a witness.
    """
    w = find_witness(lam, delta)
    if w is None:
        return None
    q = lam * (1 - delta)
    gamma0 = (0.5 + w.epsilon) * q / (1 - q) ** 2
    t = w.y / w.x
    gamma1 = (t / (t - 1)) / (1 - ratio(lam, delta, w.x, w.y))
    return (gamma0 + gamma1) / w.epsilon


def report(lam: float, delta: float) -> GenFunReport:
    """Full analysis bundle for one (lambda, delta) point."""
    thr = threshold(delta)
    regime = "below" if lam < thr else "above" if lam > thr else "critical"
    return GenFunReport(
        lam=lam,
        delta=delta,
        threshold=thr,
        regime=regime,
        witness=find_witness(lam, delta),
        m_star=find_m_star(lam, delta, _M_STAR_CAP),
        expected_diff_bound=expected_diff_bound(lam, delta),
    )


def threshold_quadratic_residual(delta: float) -> float:
    """Residual of (3d-1)^2 L^2 - (2d+2) L + 1 at L = threshold(delta).

    The threshold is the smaller root of this quadratic except at
    delta = 1/3 where the quadratic degenerates to linear.
    """
    t = threshold(delta)
    return (3 * delta - 1) ** 2 * t * t - (2 * delta + 2) * t + 1
