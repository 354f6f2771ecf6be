"""Closed-form evaluation of the sample-complexity and concentration bounds.

All logarithms are natural: the formulas pair logs with e (as in
``(e*m/d)**d`` and ``exp(9/d - 1)``), which fixes the base.
"""

from __future__ import annotations

import math
import sys

from .combinatorics import sauer_bound
from .model import Record


def hoeffding_tail(m: int, eps: float) -> float:
    """Two-sided tail bound 2*exp(-m*eps^2/2) for an average of m independent
    [-1, 1]-valued, zero-mean terms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return 2.0 * math.exp(-m * eps * eps / 2.0)


def tail_to_expectation_bound(alpha: float, beta: float) -> float:
    """Expectation bound alpha*(3 + sqrt(log(beta))) for a non-negative
    variable with tails P(X > rho) <= 2*beta*exp(-rho^2/alpha^2).

    Requires beta >= 1: the square root is undefined below that.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return alpha * (3.0 + math.sqrt(math.log(beta)))


def epsilon0(m: int, delta: float, growth_at_2m: int) -> float:
    """Uniform-deviation level achieved with probability >= 1 - delta at
    sample size m, given a growth value at 2m:

        (6 + 2*sqrt(log(growth_at_2m))) / (delta * sqrt(2m))
    """
    if not 1 <= m <= sys.float_info.max / 2:
        raise ValueError("m must be >= 1 and at most half the largest double")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if growth_at_2m < 1:
        raise ValueError("growth value must be >= 1")
    return (6.0 + 2.0 * math.sqrt(math.log(growth_at_2m))) / (delta * math.sqrt(2 * m))


def m0_singleton(eps: float, delta: float) -> int:
    """Sample size ceil(2*log(2/delta)/eps^2) after which a single
    hypothesis's sample error is eps-close to its true error with
    probability >= 1 - delta; a ``ValueError`` when eps^2 underflows to 0
    or the size is not a finite double."""
    _check_eps_delta(eps, delta)
    e2 = eps * eps
    m = 2.0 * math.log(2.0 / delta) / e2 if e2 else math.inf
    return max(1, math.ceil(_finite("m0_singleton", m, eps, delta)))


class UcpSampleBound(Record):
    """Uniform-convergence sample bound with its three components.

    ``m0 = ceil(max(m_h, m0_1, m0_2, m0_3))`` for VC dimension d >= 1; for
    d = 0 the components are absent and ``m0 = max(m_h, m0_singleton)``.
    """

    d: int
    eps: float
    delta: float
    m_h: int
    m0_1: float | None
    m0_2: float | None
    m0_3: float | None
    m0: int


def m0_ucp(d: int, eps: float, delta: float, m_h: int = 1) -> UcpSampleBound:
    """Sample size guaranteeing uniform convergence at level eps with
    probability 1 - delta for families of VC dimension <= d.

    Components for d >= 1:

        m0_1 = (d + 1) / 2
        m0_2 = (d / 2) * exp(9/d - 1)
        m0_3 = 4 * (8d/(delta*eps)^2) * log(16d/(delta*eps)^2)
               + |16d * log(2e/d) / (delta*eps)^2|

    d = 0 means a single hypothesis and routes to :func:`m0_singleton`.
    A ``ValueError`` when d or m_h is past the largest double, (delta*eps)^2
    underflows to 0 or m0_3 is not a finite double.
    """
    _check_eps_delta(eps, delta)
    if d < 0:
        raise ValueError("d must be >= 0")
    if m_h < 1:
        raise ValueError("m_h must be >= 1")
    for name, value in (("d", d), ("m_h", m_h)):
        if value > sys.float_info.max:
            raise ValueError(f"{name} must be at most the largest double")
    if d == 0:
        return UcpSampleBound(d=d, eps=eps, delta=delta, m_h=m_h,
                              m0_1=None, m0_2=None, m0_3=None,
                              m0=max(m_h, m0_singleton(eps, delta)))
    de2 = (delta * eps) ** 2
    m0_1 = (d + 1) / 2.0
    m0_2 = (d / 2.0) * math.exp(9.0 / d - 1.0)
    m0_3 = _finite("m0_ucp", (
        4.0 * (8.0 * d / de2) * math.log(16.0 * d / de2)
        + abs(16.0 * d * math.log(2.0 * math.e / d) / de2)) if de2
        else math.inf, eps, delta, f", with d = {d:.6g}")
    m0 = math.ceil(max(m_h, m0_1, m0_2, m0_3))
    return UcpSampleBound(d=d, eps=eps, delta=delta, m_h=m_h,
                          m0_1=m0_1, m0_2=m0_2, m0_3=m0_3, m0=m0)


def m0_pac(eps: float, delta: float, d: int, m_h: int = 1,
           m0_nmse: int = 1) -> int:
    """Sample size after which a learner that nearly minimizes the sample
    error (slack schedule reaching eps/4 by m0_nmse) is (eps, delta)-PAC:

        max(m_h, m0_ucp(d, eps/4, delta, m_h), m0_nmse)

    ``m0_nmse = 1`` for exact sample-error minimizers.  A ``ValueError``,
    naming eps/4, when m0_ucp there is not a finite double.
    """
    _check_eps_delta(eps, delta)
    if m0_nmse < 1:
        raise ValueError("m0_nmse must be >= 1")
    return max(m_h, m0_ucp(d, eps / 4.0, delta, m_h).m0, m0_nmse)


class BoundsReport(Record):
    """Record of every evaluated sample-complexity quantity for one
    (d, eps, delta, m_h) input, echoing the inputs."""

    d: int
    eps: float
    delta: float
    m_h: int
    m0_nmse: int
    m0_singleton: int
    ucp: UcpSampleBound
    m0_pac: int
    m_eval: int
    growth_at_2m: int
    epsilon0: float

    def as_dict(self) -> dict:
        growth = self.growth_at_2m
        return {
            "d": self.d,
            "eps": self.eps,
            "delta": self.delta,
            "m_h": self.m_h,
            "m0_nmse": self.m0_nmse,
            "m0_singleton": self.m0_singleton,
            "m0_components": [self.ucp.m0_1, self.ucp.m0_2, self.ucp.m0_3],
            "m0_ucp": self.ucp.m0,
            "m0_pac": self.m0_pac,
            "m_eval": self.m_eval,
            # Huge integers are reported as floats to keep payloads small,
            # and exactly past the float range.
            "growth_at_2m": (float(growth) if 2 ** 53 <= growth
                             <= sys.float_info.max else growth),
            "epsilon0": self.epsilon0,
        }


def bounds_report(d: int, eps: float, delta: float, m_h: int = 1,
                  m0_nmse: int = 1) -> BoundsReport:
    """Evaluate all bounds at one input point.

    ``epsilon0`` is evaluated at ``m_eval``, the uniform-convergence bound
    itself, with the binomial-sum growth bound at 2*m_eval, so the reported
    pair witnesses epsilon0(m_eval) <= eps.  A growth bound of more
    digits than ``json.dumps`` converts is a ``ValueError``, before the sum
    when its lower bound (2m/d)^d <= C(2m, d) already has that many.
    """
    ucp = m0_ucp(d, eps, delta, m_h)
    m = ucp.m0  # >= m_h >= 1
    limit = sys.get_int_max_str_digits()
    too_many = limit and d >= 1 and d * (
        math.log10(2 * m) - math.log10(d)) >= limit + 1
    growth = sauer_bound(d, 2 * m) if d >= 1 and not too_many else 1
    if too_many or limit and growth >= 10 ** limit:
        raise ValueError(f"growth_at_2m at d = {d} has more than {limit} "
                         f"decimal digits, the limit of integer to string "
                         f"conversion, so it cannot be reported exactly")
    return BoundsReport(
        d=d, eps=eps, delta=delta, m_h=m_h, m0_nmse=m0_nmse,
        m0_singleton=m0_singleton(eps, delta),
        ucp=ucp,
        m0_pac=m0_pac(eps, delta, d, m_h, m0_nmse),
        m_eval=m,
        growth_at_2m=growth,
        epsilon0=epsilon0(m, delta, growth),
    )


def _finite(name: str, value: float, eps: float, delta: float,
            more: str = "") -> float:
    """The value of a sample bound, which must be a finite double."""
    if not math.isfinite(value):
        raise ValueError(f"{name} at eps = {eps!r} and delta = {delta!r} is "
                         f"past the largest double{more}")
    return value


def _check_eps_delta(eps: float, delta: float) -> None:
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
