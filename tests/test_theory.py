import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from fieldlab.theory import (
    DecayTooSlowError,
    MomentParams,
    SchemeParams,
    choose_delta,
    choose_scheme,
    lambda1,
    lambda2,
    moricz_a,
    psi,
    t0,
    tau0,
)

T0 = 2.141336115655364


class TestT0:
    def test_frozen_value(self):
        assert t0() == pytest.approx(T0, abs=1e-12)

    def test_is_the_bracketed_root(self):
        assert t0() == brentq(lambda t: t**3 + 2 * t**2 - 7 * t - 4, 2.0, 3.0, xtol=1e-14)

    def test_is_cubic_root(self):
        t = t0()
        assert abs(t**3 + 2 * t**2 - 7 * t - 4) < 1e-11


class TestPsi:
    def test_continuity_at_breakpoints(self):
        for x in (4.0, T0 * T0):
            assert abs(psi(x - 1e-10) - psi(x + 1e-10)) < 1e-9

    def test_pinned_values(self):
        assert psi(5.0) == pytest.approx(1.265986323710904, abs=1e-12)
        assert psi(4.0 + 1e-12) == pytest.approx(1.5, abs=1e-6)

    @given(st.floats(2.001, 100.0))
    def test_dominated_by_simple_bound(self, p):
        assert psi(p) <= (p - 1) / (p - 2) + 1e-12

    def test_simple_bound_formula(self):
        # on (2, 4] psi is the simple bound itself
        for p in (2.5, 3.0, 4.0):
            assert psi(p) == pytest.approx((p - 1) / (p - 2), rel=1e-15)

    @given(st.floats(2.01, 99.0), st.floats(0.001, 0.9))
    def test_nonincreasing(self, p, step):
        assert psi(p + step) <= psi(p) + 1e-12


class TestMomentParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentParams(d=1, p=2.0, lam=2.0)
        with pytest.raises(ValueError):
            MomentParams(d=0, p=5.0, lam=2.0)


class TestChooseDelta:
    def test_equalizes_past_t0_squared(self):
        for p in (5.0, 6.0, 10.0):
            delta = choose_delta(MomentParams(d=1, p=p, lam=2.0))
            l1, l2 = lambda1(1, delta, p), lambda2(1, delta, p)
            assert abs(l1 - l2) < 1e-9
            assert max(l1, l2) == pytest.approx(psi(p), abs=1e-9)

    def test_middle_branch_attains_psi(self):
        # on (4, t0^2] the optimal delta is p - sqrt(p) - 2 and the larger
        # exponent equals psi(p), while the two exponents stay apart
        for p in (4.2, 4.5):
            delta = choose_delta(MomentParams(d=1, p=p, lam=2.0))
            assert delta == pytest.approx(p - math.sqrt(p) - 2.0, abs=1e-9)
            l1, l2 = lambda1(1, delta, p), lambda2(1, delta, p)
            assert max(l1, l2) == pytest.approx(psi(p), abs=1e-9)
            assert l1 < l2

    def test_frozen_values(self):
        assert choose_delta(MomentParams(d=1, p=5.0, lam=2.0)) == pytest.approx(
            0.36700683814454804, abs=1e-10
        )
        assert choose_delta(MomentParams(d=1, p=10.0, lam=2.0)) == pytest.approx(
            0.1265002161, abs=1e-8
        )

    def test_low_branch_feasible(self):
        delta = choose_delta(MomentParams(d=1, p=3.5, lam=4.0))
        assert 0 < delta < 1.5

    def test_decay_too_slow(self):
        with pytest.raises(DecayTooSlowError):
            choose_delta(MomentParams(d=1, p=5.0, lam=1.2))


class TestTau0:
    def test_frozen_value(self):
        assert tau0(1.0) == pytest.approx(0.7367811436816927, abs=1e-12)

    @given(st.floats(0.05, 0.5), st.floats(0.01, 0.5))
    def test_decreasing_in_delta(self, delta, step):
        assert tau0(delta + step) <= tau0(delta) + 1e-12

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            tau0(0.0)
        with pytest.raises(ValueError):
            tau0(1.5)


class TestMoriczA:
    def test_frozen_value(self):
        assert moricz_a(1, 1.0) == pytest.approx(3850.174776970648, rel=1e-9)

    def test_grows_with_dimension(self):
        assert moricz_a(2, 1.0) > moricz_a(1, 1.0)


class TestSchemeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(alpha=2, beta=2)
        with pytest.raises(ValueError):
            SchemeParams(alpha=3, beta=1)
        assert SchemeParams(alpha=3, beta=2, tau=1.0).rho == pytest.approx(0.125)


class TestChooseScheme:
    def test_frozen_all_ones(self):
        s = choose_scheme(1, 1.0, mu=1.0, delta=1.0, gamma1=1.0)
        assert (s.alpha, s.beta) == (785, 736)
        assert s.gamma0 == pytest.approx(23.0)

    def test_constraints_hold(self):
        s = choose_scheme(2, 1.0, mu=1.0, delta=1.0, gamma1=1.0)
        rho = s.tau / 8.0
        q = 1.0 * 1.0 / (8.0 * 2.0)
        assert s.beta > 6.0 / rho
        assert s.alpha - s.beta > 6.0 / rho
        assert (s.alpha / s.beta) * (1.0 - q) < 1.0
        assert s.gamma0 > (1.0 + 1.0 / rho) * (1.0 - 1.0 / 2)
        assert s.beta > 2.0 * s.gamma0 / rho

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            choose_scheme(1, 1.0, mu=1e-9, delta=1e-9, gamma1=1.0)
