import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fieldlab.coupling import (
    BlockVariance,
    EmpiricalCdf,
    approximation_error_study,
    block_coupling_samples,
    block_sums,
    build_scheme,
    build_wiener,
    cdf_table,
    coupling_error,
    coupling_error_decay_study,
    decomposition_terms,
    estimate_cdf,
    good_span,
    quantile_transform,
    run_coupling,
    scheme_variances,
    wiener_sum,
    xi,
)
from fieldlab.fields import iid_model, linear_ma_model, sample_block
from fieldlab.lattice import Block, cardinality
from fieldlab.rng import stream
from fieldlab.sums import block_var, make_grid, partial_sum
from fieldlab.theory import SchemeParams
from fieldlab.verify import dkw_bound, kolmogorov_distance

PARAMS = SchemeParams(alpha=3, beta=2, tau=1.0)


class TestScheme:
    def test_boundaries(self):
        s = build_scheme(PARAMS, K=4, d=1)
        assert s.boundaries == (0, 2, 14, 50, 130)
        assert s.domain == Block((0,), (130,))
        assert s.block((3,)) == Block((14,), (50,))
        assert s.head((3,)) == Block((14,), (14 + 27,))

    def test_d1_all_blocks_good(self):
        s = build_scheme(PARAMS, K=5, d=1)
        assert s.good == frozenset((k,) for k in range(1, 6))

    def test_d2_good_set_frozen(self):
        s = build_scheme(PARAMS, K=3, d=2)
        assert s.good == frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})

    def test_good_span_d2(self):
        s = build_scheme(PARAMS, K=3, d=2)
        span = good_span(s, (3, 3))
        assert span.start == (2, 2)
        assert span.region == Block((2, 2), (50, 50))
        assert set(span.indices) == {(2, 2), (2, 3), (3, 2), (3, 3)}
        assert good_span(s, (2, 2)).indices == ((2, 2),)

    def test_good_span_needs_good_block(self):
        s = build_scheme(PARAMS, K=3, d=2)
        with pytest.raises(ValueError):
            good_span(s, (1, 1))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_scheme(PARAMS, K=0, d=1)


class TestVariances:
    def test_d1_tail_variance_is_exact(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        var = scheme_variances(ma_model, s)
        for k in range(1, 4):
            B, H = s.block((k,)), s.head((k,))
            tail = Block((H.b[0],), B.b)
            assert var[(k,)].sigma2 == pytest.approx(block_var(ma_model, H), rel=1e-12)
            assert var[(k,)].tau2 == pytest.approx(block_var(ma_model, tail), rel=1e-12)

    def test_block_sums_identity(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        grid = make_grid(s.domain, sample_block(ma_model, s.domain, seed=1))
        u, v = block_sums(grid, s)
        for k in s.indices():
            assert u[k] + v[k] == pytest.approx(
                partial_sum(grid, s.block(k)), rel=1e-12, abs=1e-12
            )

    def test_block_sums_requires_coverage(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        small = Block((0,), (10,))
        grid = make_grid(small, sample_block(ma_model, small, seed=1))
        with pytest.raises(ValueError):
            block_sums(grid, s)


class TestTransforms:
    def test_xi_definition(self):
        assert xi(3.0, 1.0, 4.0, 12.0) == pytest.approx(1.0)

    def test_coupling_error_definition(self):
        assert coupling_error(1.5, 1.0, 4.0, 12.0) == pytest.approx(2.0)

    def test_empirical_cdf_midpoint_values(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        F = EmpiricalCdf(xs)
        assert F(1.0) == pytest.approx(1 / 8)
        assert F(4.0) == pytest.approx(7 / 8)
        assert F(2.5) == pytest.approx(0.5)
        # clamps keep the quantile transform finite beyond the sample range
        assert F(-100.0) == pytest.approx(1 / 8)
        assert F(100.0) == pytest.approx(7 / 8)

    def test_estimate_cdf_needs_mass(self):
        with pytest.raises(ValueError):
            estimate_cdf(np.zeros(99))

    def test_quantile_transform_normalizes(self):
        gen = stream(3, "qt", 0)
        sample = gen.standard_normal(10_000)
        F = estimate_cdf(sample)
        eta = quantile_transform(sample, F)
        assert kolmogorov_distance(eta) <= 2 * dkw_bound(10_000)

    def test_quantile_transform_identity_under_true_cdf(self):
        x = np.linspace(-2, 2, 41)
        assert np.allclose(quantile_transform(x, ndtr), x, atol=1e-9)


class TestCouplingRun:
    def test_exact_phi_gaussian(self, gauss_model):
        s = build_scheme(PARAMS, K=4, d=1)
        run = run_coupling(gauss_model, s, seed=5, exact_phi=True)
        assert run.low_variance == ()
        for k in run.coupled:
            assert run.e[k] == 0.0
            assert run.eta[k] == run.xi[k]
            B = s.block(k)
            assert wiener_sum(run, B) == pytest.approx(
                math.sqrt(cardinality(B)) * run.eta[k], rel=1e-12, abs=1e-12
            )

    def test_exact_phi_requires_normal(self, exp_model):
        s = build_scheme(PARAMS, K=3, d=1)
        with pytest.raises(ValueError):
            run_coupling(exp_model, s, seed=1, exact_phi=True)

    def test_deterministic(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        a = run_coupling(ma_model, s, seed=9, m_cdf=500)
        b = run_coupling(ma_model, s, seed=9, m_cdf=500)
        assert a.eta == b.eta and a.e == b.e
        c = run_coupling(ma_model, s, seed=9, replicate=1, m_cdf=500)
        assert a.eta != c.eta

    def test_cdf_table_covers_coupled_shapes(self, ma_model):
        s = build_scheme(PARAMS, K=3, d=1)
        var = scheme_variances(ma_model, s)
        cdfs = cdf_table(ma_model, s, var, m=500, seed=2)
        run = run_coupling(ma_model, s, seed=2, variances=var, cdfs=cdfs)
        shapes = {(s.head(k).lengths, s.block(k).lengths) for k in run.coupled}
        assert shapes <= set(cdfs)
        for F in cdfs.values():
            assert F.m == 500

    def test_decomposition_identity_and_terms(self, ma_model, exp_model):
        for model in (ma_model, exp_model):
            s = build_scheme(PARAMS, K=4, d=1)
            run = run_coupling(model, s, seed=13, m_cdf=800)
            for k in run.coupled:
                terms = decomposition_terms(run, k)  # raises if residual > 1e-9
                span = good_span(s, k)
                assert sum(terms) == pytest.approx(
                    partial_sum(run.field, span.region), rel=1e-9, abs=1e-9
                )

    def test_exact_phi_kills_t1(self, gauss_model):
        s = build_scheme(PARAMS, K=4, d=1)
        run = run_coupling(gauss_model, s, seed=3, exact_phi=True)
        t1 = decomposition_terms(run, (4,))[0]
        assert t1 == 0.0

    def test_wiener_untouched_outside_good_blocks(self):
        model = linear_ma_model(2, {(0, 0): 1.0, (0, 1): 0.5})
        s = build_scheme(PARAMS, K=3, d=2)
        run = run_coupling(model, s, seed=7, exact_phi=True)
        raw = stream(7, "wiener", 0).standard_normal(s.domain.lengths)
        Z = np.asarray(run.wiener.values)
        touched = np.zeros(s.domain.lengths, dtype=bool)
        for k in run.coupled:
            B = s.block(k)
            touched[tuple(slice(a, b) for a, b in zip(B.a, B.b))] = True
        assert np.array_equal(Z[~touched], raw[~touched])
        assert not np.array_equal(Z[touched], raw[touched])

    def test_build_wiener_rejects_missing_eta(self):
        s = build_scheme(PARAMS, K=3, d=1)
        with pytest.raises(ValueError):
            build_wiener(s, {}, seed=1, coupled=[(1,)])


class TestStudies:
    def test_block_coupling_samples_exact_phi(self, gauss_model):
        bs = block_coupling_samples(
            gauss_model, (8,), (27,), m_cdf=200, m_eval=300, seed=1, exact_phi=True
        )
        assert bs.card == 27
        assert bs.xi.shape == (300,)
        assert np.all(bs.e == 0.0)
        assert np.array_equal(bs.eta, bs.xi)

    def test_error_decay(self, exp_model):
        rows = coupling_error_decay_study(
            exp_model, depths=(3, 5), m_cdf=2000, m_eval=2000, seed=4
        )
        assert [r["depth"] for r in rows] == [3, 5]
        assert rows[0]["card"] < rows[1]["card"]
        assert rows[1]["mean_e2_per_cell"] < rows[0]["mean_e2_per_cell"]
        assert all(r["se_e2"] > 0 for r in rows)

    def test_approximation_error_structure(self, gauss_model):
        out = approximation_error_study(
            gauss_model, depths=(16,), replicates=50, seed=6,
            exact_phi=True, bootstrap=200,
        )
        (row,) = out
        assert row["depth"] == 16
        assert row["cards"][-1] > 10_000
        assert row["ci_low"] <= row["slope"] <= row["ci_high"]
        assert row["slope"] < 0.6
