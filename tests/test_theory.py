import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import fieldlab
from fieldlab import theory
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


def one_scan(d, tau, mu, delta, gamma1):
    """(alpha, beta, gamma0) of choose_scheme as one scan over alpha = 3..10^6
    found it, or the message it raised."""
    rho = tau / 8.0
    q = mu * delta / (8.0 * (1.0 + delta))
    gamma_min = (1.0 + 1.0 / rho) * (1.0 - 1.0 / d)
    alpha_floor = max(2.0, 8.0 / (3.0 * tau) - 1.0, 2.0 / gamma1)
    alphas = np.arange(3, 10**6 + 1, dtype=np.float64)
    lo = np.maximum(6.0 / rho, np.maximum(1.0, alphas * (1.0 - q)))
    lo = np.maximum(lo, 2.0 * gamma_min / rho)
    hi = alphas - 6.0 / rho
    beta_cand = np.floor(lo) + 1.0
    ok = (alphas > alpha_floor) & (beta_cand > lo) & (beta_cand < hi) & (beta_cand > 1)
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return (
            "no feasible (alpha, beta) up to alpha = 10^6; binding constraint is the "
            f"width requirement alpha*{q:.3g} > {6.0 / rho + 1:.3g} "
            "(growth-ratio cap vs. separation gap)"
        )
    beta = int(beta_cand[idx[0]])
    return int(alphas[idx[0]]), beta, 0.5 * (max(gamma_min, 0.0) + rho * beta / 2.0)


def chunked_scan(d, tau, mu, delta, gamma1):
    try:
        s = choose_scheme(d, tau, mu=mu, delta=delta, gamma1=gamma1)
    except ValueError as e:
        return str(e)
    return s.alpha, s.beta, s.gamma0


# (d, tau, mu, delta, gamma1): feasible alpha = 3, the first candidate; 122,
# 337 and 401; 29203 (theory --p 5) and 283361, many default chunks in; none
SCAN_CASES = [
    (1, 1000.0, 100.0, 0.367, 1.0), (2, 1.0, 100.0, 0.367, 0.05), (2, 8.0, 0.5, 0.5, 0.2),
    (3, 2.0, 1.0, 1.0, 0.05), (1, 1.0, 0.05, 0.36700683814454804, 0.05),
    (1, 0.3, 0.05, 0.1, 0.05), (1, 1e-6, 0.05, 0.367, 0.05),
]


@pytest.mark.parametrize("case", SCAN_CASES)
def test_chunked_scan_equals_one_scan(monkeypatch, case):
    """The scan stops at the first chunk that holds a feasible alpha; it finds
    the alpha of one whole scan wherever a chunk edge falls, and raises its
    message when none is feasible."""
    expected = one_scan(*case)
    chunks = {theory._ALPHA_CHUNK, 1000}
    if isinstance(expected, tuple) and expected[0] < 10**3:
        # the feasible alpha first in the second chunk, last in the first
        chunks |= {1, expected[0] - 2} | ({expected[0] - 3} if expected[0] > 3 else set())
    for chunk in sorted(chunks):
        monkeypatch.setattr(theory, "_ALPHA_CHUNK", chunk)
        assert chunked_scan(*case) == expected, chunk


def test_scan_cases_cover_first_and_none():
    found = [one_scan(*case) for case in SCAN_CASES]
    assert min(f[0] for f in found if isinstance(f, tuple)) == 3
    assert max(f[0] for f in found if isinstance(f, tuple)) > 2 * theory._ALPHA_CHUNK
    assert any(isinstance(f, str) for f in found)


def test_theory_table_stays_small():
    """theory --p 5 scans alpha in chunks: its process grows by less than
    8 MiB past the CLI import (it grew by about 40 MiB on one whole scan)."""
    src = str(Path(fieldlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, resource, fieldlab.cli\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert fieldlab.cli.main(['theory', '--p', '5']) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - r0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert int(proc.stdout) < 8 * 1024  # ru_maxrss is in KiB on Linux
