import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldlab.lattice import (
    Block,
    block_in_balanced_cone,
    cardinality,
    dist,
    in_balanced_cone,
    inv_norm_sum,
    inv_norm_sum_bound,
)

small_blocks = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.tuples(*[st.integers(-5, 5)] * d),
        st.tuples(*[st.integers(1, 6)] * d),
    ).map(lambda ab: Block(ab[0], tuple(a + n for a, n in zip(ab[0], ab[1]))))
)


class TestBlock:
    def test_half_open_validation(self):
        with pytest.raises(ValueError):
            Block((0,), (0,))
        with pytest.raises(ValueError):
            Block((0, 0), (2, -1))
        with pytest.raises(ValueError):
            Block((0, 0), (2,))

    def test_geometry(self):
        b = Block((1, -2), (3, 1))
        assert b.d == 2
        assert b.lengths == (2, 3)
        assert cardinality(b) == 6
        assert b.contains_point((2, 0))
        assert not b.contains_point((1, 0))  # lower face excluded
        assert b.contains_point((3, 1))  # upper corner included
        assert b.contains_block(Block((1, -2), (2, 0)))
        assert not b.contains_block(Block((0, -2), (2, 0)))

    def test_corners_and_points(self):
        b = Block((0, 0), (2, 2))
        assert len(b.corners()) == 4
        pts = b.points()
        assert pts.shape == (4, 2)
        assert {tuple(p) for p in pts} == {(1, 1), (1, 2), (2, 1), (2, 2)}

    @given(small_blocks)
    def test_points_match_cardinality(self, b):
        assert len(b.points()) == cardinality(b)
        assert all(b.contains_point(p) for p in b.points())


class TestDist:
    def test_examples(self):
        assert dist([(1,)], [(2,)]) == 1
        assert dist(Block((0,), (4,)), Block((5,), (9,))) == 2
        assert dist(Block((0, 0), (2, 2)), Block((3, 5), (4, 6))) == 4

    def test_touching_sets(self):
        assert dist([(0, 0)], [(0, 0)]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist([(1,)], [(1, 2)])


class TestBalancedCone:
    def test_d1_membership(self):
        assert in_balanced_cone((1,), 1.0)
        assert in_balanced_cone((7,), 5.0)
        assert not in_balanced_cone((0,), 1.0)

    def test_d2_membership(self):
        assert in_balanced_cone((2, 2), 1.0)
        assert not in_balanced_cone((1, 2), 1.0)
        assert in_balanced_cone((1, 2), 0.0)

    @given(
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
        st.floats(0.1, 2.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_tau(self, j, tau, shrink):
        if in_balanced_cone(j, tau):
            assert in_balanced_cone(j, tau * shrink)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            in_balanced_cone((1,), -0.5)

    @given(small_blocks.filter(lambda b: all(a >= 0 for a in b.a)), st.floats(0.1, 1.5))
    def test_block_test_equals_pointwise(self, b, tau):
        expected = all(in_balanced_cone(p, tau) for p in b.points())
        assert block_in_balanced_cone(b, tau) == expected


class TestInvNormSum:
    def test_exact_small_case(self):
        # distances from 2 inside (0,4]: to 1,3 are 1, to 4 is 2
        assert inv_norm_sum(Block((0,), (4,)), (2,), 1.0) == pytest.approx(2.5, rel=1e-12)

    def test_outside_point_counts_all(self):
        U = Block((0,), (2,))
        assert inv_norm_sum(U, (4,), 2.0) == pytest.approx(1 / 9 + 1 / 4, rel=1e-12)

    def test_bound_branches(self):
        assert inv_norm_sum_bound(100.0, 2, 1.0) == pytest.approx(
            (1 + math.log(100)) * 100 ** 0.5
        )
        assert inv_norm_sum_bound(100.0, 2, 0.5) == pytest.approx(100 ** 0.75)
        assert inv_norm_sum_bound(100.0, 2, 3.0) == 1.0

    def test_constant_transfers_to_larger_blocks(self):
        # the shape bound's exponent is right: the small-block constant keeps
        # working (with slack) on blocks an order of magnitude bigger
        for d, nu in ((1, 0.5), (2, 1.0), (2, 3.0)):
            def ratio(side):
                U = Block((0,) * d, (side,) * d)
                s = inv_norm_sum(U, (1,) * d, nu)
                return s / inv_norm_sum_bound(cardinality(U), d, nu)

            small = max(ratio(s) for s in (3, 6, 10, 20, 31) if s ** d <= 1000)
            assert ratio(int(round(10000 ** (1 / d)))) <= 1.25 * small

    @given(small_blocks, st.floats(0.3, 3.0))
    def test_matches_brute_force(self, b, nu):
        i = b.points()[0]
        brute = sum(
            max(abs(x - y) for x, y in zip(i, j)) ** -nu
            for j in b.points()
            if tuple(j) != tuple(i)
        )
        assert inv_norm_sum(b, i, nu) == pytest.approx(brute, rel=1e-12, abs=1e-12)
