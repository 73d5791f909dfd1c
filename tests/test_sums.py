import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldlab.lattice import Block, cardinality
from fieldlab.sums import (
    anchored_abs_max,
    block_cov,
    block_var,
    make_grid,
    max_sub_block,
    max_sub_block_naive,
    partial_sum,
    union_var,
    variance_defect,
    variance_ratio,
)
from fieldlab.verify import check_maximal_inequality

grids_1d = st.lists(
    st.floats(-5, 5, allow_nan=False, width=32), min_size=1, max_size=24
).map(lambda v: make_grid(Block((-3,), (-3 + len(v),)), np.array(v)))

grids_2d = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.floats(-5, 5, allow_nan=False, width=32),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(
        lambda v: make_grid(
            Block((0, -2), (shape[0], shape[1] - 2)),
            np.array(v).reshape(shape),
        )
    )
)


def random_sub_block(gen, block):
    a, b = [], []
    for lo, hi in zip(block.a, block.b):
        x = sorted(gen.integers(lo, hi + 1, size=2).tolist())
        while x[0] == x[1]:
            x = sorted(gen.integers(lo, hi + 1, size=2).tolist())
        a.append(x[0])
        b.append(x[1])
    return Block(tuple(a), tuple(b))


def direct_sum(grid, W):
    idx = tuple(
        slice(a - ga, b - ga) for a, b, ga in zip(W.a, W.b, grid.block.a)
    )
    return math.fsum(np.asarray(grid.values, dtype=np.float64)[idx].ravel())


class TestPartialSum:
    def test_d2_example(self):
        g = make_grid(Block((0, 0), (2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert partial_sum(g, g.block) == pytest.approx(10.0)
        assert partial_sum(g, Block((0, 0), (1, 2))) == pytest.approx(3.0)
        assert partial_sum(g, Block((1, 1), (2, 2))) == pytest.approx(4.0)

    def test_d1_example(self):
        g = make_grid(Block((0,), (3,)), np.array([1.0, -2.0, 3.0]))
        assert partial_sum(g, g.block) == pytest.approx(2.0)
        assert max_sub_block(g) == pytest.approx(3.0)
        assert anchored_abs_max(g) == pytest.approx(2.0)

    def test_requires_containment(self):
        g = make_grid(Block((0,), (3,)), np.arange(3.0))
        with pytest.raises(ValueError):
            partial_sum(g, Block((0,), (4,)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_grid(Block((0, 0), (2, 2)), np.zeros((2, 3)))

    @given(grids_2d, st.integers(0, 10**6))
    def test_matches_direct_summation(self, grid, s):
        gen = np.random.default_rng(s)
        W = random_sub_block(gen, grid.block)
        assert partial_sum(grid, W) == pytest.approx(
            direct_sum(grid, W), rel=1e-9, abs=1e-9
        )

    @given(grids_2d.filter(lambda g: cardinality(g.block) > 1))
    def test_additive_under_bisection(self, grid):
        B = grid.block
        axis = int(np.argmax(B.lengths))
        cut = B.a[axis] + B.lengths[axis] // 2
        lo = Block(B.a, tuple(cut if s == axis else x for s, x in enumerate(B.b)))
        hi = Block(tuple(cut if s == axis else x for s, x in enumerate(B.a)), B.b)
        total = partial_sum(grid, lo) + partial_sum(grid, hi)
        assert total == pytest.approx(partial_sum(grid, grid.block), rel=1e-12, abs=1e-12)


class TestMaxSubBlock:
    @given(grids_1d)
    def test_equals_naive_d1(self, grid):
        assert max_sub_block(grid) == pytest.approx(
            max_sub_block_naive(grid), rel=1e-9, abs=1e-9
        )

    @given(grids_2d)
    def test_equals_naive_d2(self, grid):
        assert max_sub_block(grid) == pytest.approx(
            max_sub_block_naive(grid), rel=1e-9, abs=1e-9
        )

    def test_d3_case(self):
        gen = np.random.default_rng(5)
        g = make_grid(Block((0, 0, 0), (3, 4, 2)), gen.standard_normal((3, 4, 2)))
        assert max_sub_block(g) == pytest.approx(max_sub_block_naive(g), rel=1e-9)

    def test_restricted_to_sub_block(self):
        g = make_grid(Block((0,), (4,)), np.array([100.0, 1.0, -2.0, 3.0]))
        assert max_sub_block(g, Block((1,), (4,))) == pytest.approx(3.0)

    def test_dominates_anchored(self):
        gen = np.random.default_rng(9)
        g = make_grid(Block((0,), (64,)), gen.standard_normal(64))
        assert max_sub_block(g) >= anchored_abs_max(g) - 1e-12


class TestExactVariance:
    def test_ma_variance_formula(self, ma_model):
        for n in (1, 2, 10, 100, 641):
            assert block_var(ma_model, Block((0,), (n,))) == pytest.approx(
                0.25 * n + 1.0, rel=1e-12
            )

    def test_ten_cell_variance(self, ma_model):
        assert block_var(ma_model, Block((0,), (10,))) == pytest.approx(3.5)

    def test_cov_bilinearity(self, ma_model):
        P, Q = Block((0,), (6,)), Block((6,), (12,))
        U = Block((0,), (12,))
        lhs = block_var(ma_model, U)
        rhs = (
            block_var(ma_model, P)
            + block_var(ma_model, Q)
            + 2.0 * block_cov(ma_model, P, Q)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_union_var_requires_disjoint(self, ma_model):
        with pytest.raises(ValueError):
            union_var(ma_model, [Block((0,), (4,)), Block((3,), (6,))])

    def test_union_var_adjacent_blocks(self, ma_model):
        got = union_var(ma_model, [Block((0,), (4,)), Block((4,), (8,))])
        assert got == pytest.approx(block_var(ma_model, Block((0,), (8,))), rel=1e-12)

    def test_defect_is_signed_and_exact(self, ma_model):
        assert variance_defect(ma_model, [Block((0,), (100,))]) == pytest.approx(
            -0.01, rel=1e-12
        )
        assert variance_defect(ma_model, [Block((0,), (10,))]) == pytest.approx(
            -0.1, rel=1e-12
        )


class TestMonteCarlo:
    def test_variance_ratio_near_exact(self, ma_model):
        est, se = variance_ratio(ma_model, Block((0,), (200,)), replicates=2000, seed=3)
        assert 0 < se < 0.05
        assert abs(est - 0.255) <= 3 * se

    def test_moment_estimate_iid_second_moment(self, gauss_model):
        # iid unit cells: var(S(V)) / |V| = 1 exactly
        est, se = variance_ratio(gauss_model, Block((0,), (100,)), replicates=4000, seed=5)
        assert abs(est - 1.0) <= 4 * se

    def test_max_moment_dominates_and_is_bounded(self, gauss_model):
        rep = check_maximal_inequality(
            gauss_model, 0.367, ladder=(64, 256), replicates=3000, seed=7
        )
        assert rep.statistics["pathwise_dominated"] is True
        assert all(row["max_to_s_ratio"] >= 1.0 for row in rep.rows)
        assert rep.statistics["worst_max_to_s_ratio"] <= rep.oracle["maximal_constant"]
