import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldlab import fields
from fieldlab.fields import (
    cox_grimmett,
    covariance,
    iid_model,
    innovations,
    line_segments,
    linear_ma_model,
    sample_block,
    sample_block_batch,
    sigma2,
    support_radius,
)
from fieldlab.lattice import Block
from fieldlab.rng import stream
from fieldlab.verify import check_dependence, check_noise_stability


class TestModels:
    def test_iid_kernel(self, gauss_model):
        assert gauss_model.kernel == {(0,): 1.0}
        assert sigma2(gauss_model) == 1.0
        assert support_radius(gauss_model) == 0

    def test_bad_innovation_rejected(self):
        with pytest.raises(ValueError):
            iid_model(1, "cauchy")

    @pytest.mark.parametrize("coeffs", [{(0,): 0.0}, {(0,): 0.0, (1,): -0.0}])
    def test_zero_kernel_rejected(self, coeffs):
        # a zero field has no nonzero variance to standardize or couple by
        with pytest.raises(ValueError, match="all be zero"):
            linear_ma_model(1, coeffs)

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

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(["normal", "exponential", "rademacher"]),
        edge=st.integers(1, 9),
        per_batch=st.integers(1, 4),
        start=st.integers(0, 1000),
        extra=st.integers(1, 9),
    )
    def test_batch_rows_match_sample_block_across_batches(
        self, d, kind, edge, per_batch, start, extra
    ):
        if d == 1:
            model = linear_ma_model(1, {(0,): 1.0, (1,): -0.5, (-2,): 0.25}, kind)
            block = Block((3,), (3 + 4 * edge,))
        else:
            model = linear_ma_model(2, {(0, 0): 1.0, (1, 0): -0.3, (0, -1): 0.2}, kind)
            block = Block((0, -2), (edge, edge + 1))
        # a cap of per_batch replicates, and a range that crosses its boundary
        reps = range(start, start + per_batch + extra)
        cells = math.prod(block.lengths)
        with mock.patch.object(fields, "_BATCH_CELLS", per_batch * cells):
            batch = sample_block_batch(model, block, 5, reps, tag="eq")
        for row, rep in zip(batch, reps, strict=True):
            assert np.array_equal(row, sample_block(model, block, 5, rep, tag="eq"))

    def test_batch_rows_match_sample_block_at_the_default_cap(self, assoc_model):
        # 2^14 cells: four replicates per batch, so range(2, 9) spans two batches
        block = Block((0,), (2**14,))
        batch = sample_block_batch(assoc_model, block, seed=1, replicates=range(2, 9))
        for row, rep in zip(batch, range(2, 9)):
            assert np.array_equal(row, sample_block(assoc_model, block, seed=1, replicate=rep))

    @given(
        kind=st.sampled_from(["normal", "exponential", "rademacher"]),
        start=st.integers(-50, 50),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        replicate=st.integers(0, 1000),
    )
    def test_line_segments_are_slices_of_sample_block(self, kind, start, lengths,
                                                       replicate):
        # lags on both sides of 0, so each segment carries an overlap of 4
        # innovations; one-cell segments are shorter than the overlap
        model = linear_ma_model(1, {(-1,): 0.4, (0,): 1.0, (3,): -0.5}, kind)
        cuts = [start + sum(lengths[:i]) for i in range(len(lengths) + 1)]
        segments = list(line_segments(model, 9, replicate, cuts))
        assert [len(x) for x in segments] == lengths
        whole = sample_block(model, Block((cuts[0],), (cuts[-1],)), 9, replicate)
        assert np.concatenate(segments).tobytes() == whole.tobytes()

    def test_d2_shape_and_determinism(self):
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 1): 0.5})
        b = Block((0, 0), (4, 6))
        x = sample_block(model, b, seed=1)
        assert x.shape == (4, 6)
        assert np.array_equal(x, sample_block(model, b, seed=1))


class TestDependenceBound:
    def test_blocks_and_point_lists_agree(self, ma_model):
        I, J = Block((0,), (2,)), Block((3,), (5,))
        (r1,) = check_dependence(ma_model, [(I, J)], pairs=5, replicates=4000, seed=2).rows
        (r2,) = check_dependence(
            ma_model, [([(1,), (2,)], [(4,), (5,)])], pairs=5, replicates=4000, seed=2
        ).rows
        assert r1["max_ratio"] == r2["max_ratio"]
        assert r1["r"] == r2["r"] == 2

    def test_bound_holds_at_distance_one(self, ma_model):
        rep = check_dependence(
            ma_model, [(Block((0,), (3,)), Block((3,), (5,)))],
            pairs=20, replicates=20_000, seed=4,
        )
        assert rep.rows[0]["r"] == 1
        assert rep.rows[0]["theta_r"] == pytest.approx(1.0)
        assert rep.passed

    def test_zero_bound_beyond_support(self, ma_model):
        rep = check_dependence(
            ma_model, [(Block((0,), (2,)), Block((4,), (6,)))],
            pairs=10, replicates=20_000, seed=6,
        )
        assert rep.rows[0]["theta_r"] == 0.0
        assert rep.passed  # true covariance is exactly zero there

    def test_noise_stability(self, ma_model):
        rep = check_noise_stability(
            ma_model, [(Block((0,), (3,)), Block((3,), (5,)))],
            pairs=10, replicates=20_000, seed=8, noise="normal",
        )
        assert rep.passed
