import math

import pytest

from vclab import (
    bounds_report,
    epsilon0,
    hoeffding_tail,
    m0_pac,
    m0_singleton,
    m0_ucp,
    sauer_bound,
    tail_to_expectation_bound,
)

# Expected values below were frozen from a 30-digit evaluation of the
# closed-form expressions (natural logs throughout).


class TestHoeffdingTail:
    def test_m2_eps1(self):
        assert hoeffding_tail(2, 1.0) == pytest.approx(0.7357588823428847,
                                                       rel=1e-12)

    def test_vacuous_as_eps_vanishes(self):
        assert hoeffding_tail(5, 1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_m600_eps01(self):
        assert hoeffding_tail(600, 0.1) == pytest.approx(0.09957413673572789,
                                                         rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_tail(0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_tail(5, 0.0)


class TestTailToExpectation:
    def test_beta_one(self):
        assert tail_to_expectation_bound(1.0, 1.0) == pytest.approx(3.0)

    def test_alpha2_beta_e(self):
        assert tail_to_expectation_bound(2.0, math.e) == pytest.approx(8.0)

    def test_beta_e4(self):
        assert tail_to_expectation_bound(1.0, math.e ** 4) == pytest.approx(5.0)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError):
            tail_to_expectation_bound(1.0, 0.5)


class TestEpsilon0:
    def test_trivial_growth_m18(self):
        assert epsilon0(18, 0.5, 1) == pytest.approx(2.0)

    def test_trivial_growth_m2(self):
        assert epsilon0(2, 0.5, 1) == pytest.approx(6.0)

    def test_growth_sixteen(self):
        # (6 + 2*sqrt(ln 16)) / (0.5 * 4)
        assert epsilon0(8, 0.5, 16) == pytest.approx(4.665109222315395,
                                                     rel=1e-12)

    def test_antitone_in_m(self):
        values = [epsilon0(m, 0.5, 1) for m in range(1, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_2m_past_the_largest_double_is_refused(self):
        """sqrt(2m) needs 2m as a double: a ValueError, not an
        OverflowError, from m = 10^308 on."""
        assert epsilon0(10 ** 307, 0.5, 1) > 0
        with pytest.raises(ValueError, match="at most half the largest"):
            epsilon0(10 ** 308, 0.5, 1)


class TestM0Singleton:
    def test_point_one(self):
        assert m0_singleton(0.1, 0.1) == 600

    def test_loose_regime(self):
        assert m0_singleton(0.9999, 0.9999) == 2

    def test_halving_eps_roughly_quadruples(self):
        assert m0_singleton(0.05, 0.1) == 2397

    def test_validation(self):
        with pytest.raises(ValueError):
            m0_singleton(0.0, 0.1)
        with pytest.raises(ValueError):
            m0_singleton(0.1, 1.0)


class TestM0Ucp:
    def test_d1_half(self):
        b = m0_ucp(1, 0.5, 0.5)
        assert b.m0_1 == pytest.approx(1.0)
        assert b.m0_2 == pytest.approx(1490.4789935208642, rel=1e-12)
        assert b.m0_3 == pytest.approx(3272.576529796882, rel=1e-12)
        assert b.m0 == 3273

    def test_d9_middle_component(self):
        assert m0_ucp(9, 0.5, 0.5).m0_2 == pytest.approx(4.5)

    def test_d1_tight_main_component_dominates(self):
        b = m0_ucp(1, 0.1, 0.1)
        assert b.m0_3 == pytest.approx(4105440.8590386997, rel=1e-10)
        assert b.m0_3 > b.m0_1 and b.m0_3 > b.m0_2

    def test_ceiling_of_max(self):
        b = m0_ucp(2, 0.3, 0.2, m_h=7)
        assert b.m0 == math.ceil(max(7, b.m0_1, b.m0_2, b.m0_3))

    def test_d0_routes_to_singleton(self):
        b = m0_ucp(0, 0.1, 0.1, m_h=3)
        assert b.m0 == max(3, m0_singleton(0.1, 0.1))
        assert b.m0_1 is None


class TestM0Pac:
    def test_sem_d0(self):
        assert m0_pac(0.2, 0.1, 0, m_h=2) == max(2, m0_singleton(0.05, 0.1))

    def test_composition_at_quarter_eps(self):
        assert m0_pac(0.5, 0.5, 1) == m0_ucp(1, 0.125, 0.5).m0

    def test_large_nmse_bound_dominates(self):
        huge = 10 ** 9
        assert m0_pac(0.5, 0.5, 1, m0_nmse=huge) == huge

    def test_past_the_double_range_at_quarter_eps(self):
        """At eps = 1e-151 m0_ucp is a finite double but at eps/4 it is
        not, so m0_pac is refused, naming eps/4."""
        assert m0_ucp(2, 1e-151, 0.5).m0 > 10 ** 300
        with pytest.raises(ValueError, match="m0_ucp at eps = 2.5e-152 and "
                           "delta = 0.5 is past the largest double"):
            m0_pac(1e-151, 0.5, 2)

    def test_eps_is_checked_before_it_is_quartered(self):
        """eps = 2 is out of range even though eps/4 is not."""
        with pytest.raises(ValueError, match="eps must lie in"):
            m0_pac(2.0, 0.5, 1)


def test_bounds_are_antitone_in_eps_and_delta():
    grid = [0.1, 0.2, 0.4, 0.8]
    for d in (0, 1, 3):
        for i, eps in enumerate(grid):
            for j, delta in enumerate(grid):
                for eps2 in grid[:i + 1]:
                    for delta2 in grid[:j + 1]:
                        assert (m0_ucp(d, eps2, delta2).m0
                                >= m0_ucp(d, eps, delta).m0 - 1e-9)
                        assert (m0_pac(eps2, delta2, d)
                                >= m0_pac(eps, delta, d))
                        assert (m0_singleton(eps2, delta2)
                                >= m0_singleton(eps, delta))


def test_bound_chain_consistency():
    """At and beyond the uniform-convergence sample bound, the achievable
    deviation level is at most the requested eps (checked against the
    binomial-sum growth bound)."""
    for d in (1, 2, 3):
        for eps in (0.1, 0.25, 0.5):
            for delta in (0.1, 0.25, 0.5):
                m0 = m0_ucp(d, eps, delta).m0
                for m in (m0, 2 * m0):
                    assert epsilon0(m, delta, sauer_bound(d, 2 * m)) <= eps


def test_bounds_report_shape():
    report = bounds_report(2, 0.25, 0.1, m_h=3)
    assert report.ucp.m0 == m0_ucp(2, 0.25, 0.1, 3).m0
    assert report.m0_pac == m0_pac(0.25, 0.1, 2, 3)
    assert report.m_eval == report.ucp.m0
    assert report.growth_at_2m == sauer_bound(2, 2 * report.m_eval)
    assert report.epsilon0 <= 0.25
    payload = report.as_dict()
    assert payload["m0_ucp"] == report.ucp.m0
    assert isinstance(payload["growth_at_2m"], (int, float))
    big = bounds_report(3, 0.1, 0.1).as_dict()
    assert isinstance(big["growth_at_2m"], float)  # beyond 2^53, reported lossy
