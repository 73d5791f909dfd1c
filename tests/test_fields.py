import numpy as np
import pytest

from fieldlab.fields import (
    cox_grimmett,
    covariance,
    empirical_dependence_test,
    iid_model,
    innovations,
    linear_ma_model,
    sample_block,
    sample_block_batch,
    sigma2,
    support_radius,
    theta_sequence,
)
from fieldlab.lattice import Block
from fieldlab.rng import stream


class TestModels:
    def test_iid_kernel(self, gauss_model):
        assert gauss_model.kernel == {(0,): 1.0}
        assert sigma2(gauss_model) == 1.0
        assert support_radius(gauss_model) == 0

    def test_bad_innovation_rejected(self):
        with pytest.raises(ValueError):
            iid_model(1, "cauchy")

    def test_ma_covariances(self, ma_model):
        assert covariance(ma_model, (0,)) == pytest.approx(1.25)
        assert covariance(ma_model, (1,)) == pytest.approx(-0.5)
        assert covariance(ma_model, (-1,)) == pytest.approx(-0.5)
        assert covariance(ma_model, (2,)) == 0.0
        assert sigma2(ma_model) == pytest.approx(0.25)
        assert support_radius(ma_model) == 1

    def test_theta_values(self, ma_model):
        assert cox_grimmett(ma_model, 0) == pytest.approx(2.25)
        assert cox_grimmett(ma_model, 1) == pytest.approx(1.0)
        assert cox_grimmett(ma_model, 2) == 0.0
        seq = theta_sequence(ma_model, 3)
        assert seq[0] == pytest.approx(2.25)
        assert seq[10] == 0.0


class TestInnovations:
    @pytest.mark.parametrize("kind", ["normal", "exponential", "rademacher"])
    def test_standardized(self, kind):
        x = innovations(stream(1, "t", 0), 200_000, kind)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_rademacher_support(self):
        x = innovations(stream(1, "t", 0), 1000, "rademacher")
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            innovations(stream(1, "t", 0), 10, "uniform")


class TestSampling:
    def test_deterministic(self, ma_model):
        b = Block((0,), (50,))
        a = sample_block(ma_model, b, seed=7)
        assert np.array_equal(a, sample_block(ma_model, b, seed=7))
        assert not np.array_equal(a, sample_block(ma_model, b, seed=8))
        assert not np.array_equal(a, sample_block(ma_model, b, seed=7, replicate=1))

    def test_batch_rows_match_single_draws(self, ma_model):
        b = Block((0,), (20,))
        batch = sample_block_batch(ma_model, b, seed=3, replicates=range(2, 6))
        for row, rep in zip(batch, range(2, 6)):
            assert np.array_equal(row, sample_block(ma_model, b, seed=3, replicate=rep))

    def test_ma_is_kernel_convolution(self, ma_model):
        # reproduce one sample by hand from the innovation stream
        b = Block((0,), (10,))
        x = sample_block(ma_model, b, seed=5)
        z = innovations(stream(5, "field", 0), 11, "normal")
        manual = z[1:] - 0.5 * z[:-1]
        assert np.allclose(x, manual, rtol=0, atol=1e-15)

    def test_empirical_covariance_matches_analytic(self, ma_model):
        b = Block((0,), (3,))
        vals = sample_block_batch(ma_model, b, seed=11, replicates=range(100_000))
        for lag, want in ((0, 1.25), (1, -0.5), (2, 0.0)):
            est = np.mean(vals[:, 0] * vals[:, lag])
            se = np.std(vals[:, 0] * vals[:, lag]) / np.sqrt(len(vals))
            assert abs(est - want) <= 4 * se + 1e-12

    def test_d2_shape_and_determinism(self):
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 1): 0.5})
        b = Block((0, 0), (4, 6))
        x = sample_block(model, b, seed=1)
        assert x.shape == (4, 6)
        assert np.array_equal(x, sample_block(model, b, seed=1))


class TestDependenceBound:
    def test_blocks_and_point_lists_agree(self, ma_model):
        I, J = Block((0,), (2,)), Block((3,), (5,))
        r1 = empirical_dependence_test(ma_model, I, J, pairs=5, replicates=4000, seed=2)
        r2 = empirical_dependence_test(
            ma_model, [(1,), (2,)], [(4,), (5,)], pairs=5, replicates=4000, seed=2
        )
        assert r1.max_ratio == r2.max_ratio
        assert r1.r == r2.r == 2

    def test_bound_holds_at_distance_one(self, ma_model):
        rep = empirical_dependence_test(
            ma_model, Block((0,), (3,)), Block((3,), (5,)),
            pairs=20, replicates=20_000, seed=4,
        )
        assert rep.r == 1
        assert rep.theta_r == pytest.approx(1.0)
        assert rep.passed
        assert len(rep.pairs) == 20
        assert all(p.cov_se > 0 for p in rep.pairs)

    def test_zero_bound_beyond_support(self, ma_model):
        rep = empirical_dependence_test(
            ma_model, Block((0,), (2,)), Block((4,), (6,)),
            pairs=10, replicates=20_000, seed=6,
        )
        assert rep.theta_r == 0.0
        assert rep.passed  # true covariance is exactly zero there

    def test_noise_stability(self, ma_model):
        rep = empirical_dependence_test(
            ma_model, Block((0,), (3,)), Block((3,), (5,)),
            pairs=10, replicates=20_000, seed=8, noise="normal",
        )
        assert rep.passed
