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
        x = innovations(stream(1, "t", 0), kind, np.empty(200_000))
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_rademacher_support(self):
        x = innovations(stream(1, "t", 0), "rademacher", np.empty(1000))
        assert set(np.unique(x)) == {-1.0, 1.0}

    @pytest.mark.parametrize("kind", ["normal", "exponential", "rademacher"])
    def test_rows_of_a_stack_equal_their_own_draws(self, kind):
        # one generator per row, the map to mean 0 applied once to the stack
        gens = [stream(3, "rows", r) for r in range(4)]
        stack = innovations(iter(gens), kind, np.empty((4, 5, 3)))
        for r, row in enumerate(stack):
            own = innovations(stream(3, "rows", r), kind, np.empty((5, 3)))
            assert row.tobytes() == own.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            innovations(stream(1, "t", 0), "uniform", np.empty(10))


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

    def test_block_in_another_dimension(self, ma_model):
        plane = Block((0, 0), (3, 3))
        with pytest.raises(ValueError, match="block dimension"):
            sample_block(ma_model, plane, seed=1)
        with pytest.raises(ValueError, match="block dimension"):
            sample_block_batch(ma_model, plane, seed=1, replicates=range(2))

    def test_ma_is_kernel_convolution(self, ma_model):
        # reproduce one sample by hand from the innovation stream
        b = Block((0,), (10,))
        x = sample_block(ma_model, b, seed=5)
        z = innovations(stream(5, "field", 0), "normal", np.empty(11))
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
            batch = sample_block_batch(model, block, 5, reps)
        for row, rep in zip(batch, reps, strict=True):
            assert np.array_equal(row, sample_block(model, block, 5, rep))

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
        tag=st.sampled_from(["field", "lil"]),
        d=st.sampled_from([1, 2, 3]),
        width=st.integers(1, 5),
    )
    def test_line_segments_are_slices_of_sample_block(self, kind, start, lengths,
                                                       replicate, tag, d, width):
        # lags on both sides of 0 on every axis, so each slab carries an
        # overlap of 4 rows of innovations; one-row slabs are shorter than it
        lags = {(-1,) + (1,) * (d - 1): 0.4, (0,) * d: 1.0, (3,) + (-1,) * (d - 1): -0.5}
        model = linear_ma_model(d, lags, kind)
        cuts = [start + sum(lengths[:i]) for i in range(len(lengths) + 1)]
        block = Block((cuts[0],) + (2,) * (d - 1), (cuts[-1],) + (2 + width,) * (d - 1))
        # a segment is valid until the next one is yielded
        segments = [x.copy() for x in line_segments(model, block, 9, replicate, cuts, tag=tag)]
        assert [len(x) for x in segments] == lengths
        row = sample_block_batch(model, block, 9, range(replicate, replicate + 2), tag=tag)[0]
        assert np.concatenate(segments).tobytes() == row.tobytes()
        if tag == "field":
            assert sample_block(model, block, 9, replicate).tobytes() == row.tobytes()

    def test_batches_share_no_memory(self, ma_model):
        # callers keep and add results (the noise field of dependence_bound),
        # so each stack is a new array, not the thread's workspace
        block = Block((0,), (64,))
        a = sample_block_batch(ma_model, block, 1, range(3))
        b = sample_block_batch(ma_model, block, 1, range(3), tag="noise")
        assert not np.shares_memory(a, b)

    def test_d2_shape_and_determinism(self):
        model = linear_ma_model(2, {(0, 0): 1.0, (1, 1): 0.5})
        b = Block((0, 0), (4, 6))
        x = sample_block(model, b, seed=1)
        assert x.shape == (4, 6)
        assert np.array_equal(x, sample_block(model, b, seed=1))


# zeros of both signs are the cases where the order of a sum shows
_CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3e-300])
_LAGS = {1: [(-1,), (0,), (2,)], 2: [(0, 0), (1, 0), (0, -1)]}


def _zeros_plus_lags(model, z, lengths):
    """The moving average as zeros + sum_u a_u z, one temporary per lag."""
    _, hi = fields._dilation(model)
    lead = (slice(None),) * (z.ndim - model.d)
    out = np.zeros(z.shape[: z.ndim - model.d] + tuple(lengths))
    for u, a in model.kernel.items():
        out += a * z[lead + tuple(slice(hi[s] - u[s], hi[s] - u[s] + lengths[s])
                                  for s in range(model.d))]
    return out


class TestFieldEvaluation:
    @given(d=st.sampled_from([1, 2]), data=st.data())
    def test_bits_of_zeros_plus_lags(self, d, data):
        lags = data.draw(st.lists(st.sampled_from(_LAGS[d]), min_size=1, unique=True))
        coeffs = data.draw(st.lists(st.sampled_from([1.0, -0.5, 2.0, 0.0, -0.0]),
                                    min_size=len(lags), max_size=len(lags)))
        if not any(coeffs):
            coeffs[0] = -1.0
        model = linear_ma_model(d, dict(zip(lags, coeffs)))
        lengths = tuple(data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
        n = data.draw(st.integers(1, 3))
        shape = (n,) + fields._innovation_shape(model, lengths)
        z = np.array(data.draw(st.lists(_CELLS, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        out = np.empty((n,) + lengths)
        got = fields._field_from_innovations(model, z, lengths, out=out)
        assert got is out
        assert got.tobytes() == _zeros_plus_lags(model, z, lengths).tobytes()


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
