import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldlab import sums
from fieldlab.lattice import Block, cardinality
from fieldlab.sums import (
    anchored_abs_max,
    block_cov,
    block_var,
    make_grid,
    max_sub_block,
    partial_sum,
    sum_and_max,
    variance_defect,
)
from fieldlab.verify import check_maximal_inequality, check_variance_ratio

from reference import max_sub_block_naive

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


# a stack of 1 to 4 replicates on a d = 1, 2 or 3 block, with edges small
# enough for the naive oracle
stacks = st.sampled_from([(1, 12), (2, 5), (3, 3)]).flatmap(
    lambda d_edge: st.tuples(
        st.integers(1, 4),
        st.lists(st.integers(1, d_edge[1]), min_size=d_edge[0], max_size=d_edge[0]),
    )
).flatmap(
    lambda n_lens: st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, width=32),
        min_size=n_lens[0] * math.prod(n_lens[1]),
        max_size=n_lens[0] * math.prod(n_lens[1]),
    ).map(lambda v: np.array(v).reshape([n_lens[0]] + n_lens[1]))
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

    @given(stacks)
    def test_stacked_rows_equal_one_replicate(self, values):
        V = Block((0,) * (values.ndim - 1), values.shape[1:])
        S, M = sum_and_max(values)
        for row, s, m in zip(values, S, M):
            grid = make_grid(V, row)
            assert m == max_sub_block(grid)
            assert m == pytest.approx(max_sub_block_naive(grid), rel=1e-9, abs=1e-9)
            if V.d == 1:  # the rounded longdouble prefix corner
                assert s == partial_sum(grid, V)
            else:  # the float64 sum of the cells
                assert s == row.sum()

    @given(st.tuples(st.integers(1, 4), st.integers(1, 40)).flatmap(
        lambda shape: st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-1e3, 1e3, allow_nan=False, width=32)),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
        ).map(lambda v: np.array(v).reshape(shape))
    ))
    def test_d1_bits_of_the_zero_padded_prefix(self, values):
        # the reference: max - min over the prefix array with its zero slab
        P = sums._prefix_array(values, lead=1)
        S, M = sum_and_max(values)
        assert S.tobytes() == P[:, -1].tobytes()
        assert M.tobytes() == (P.max(axis=1) - P.min(axis=1)).tobytes()

    def test_longdouble_rule_counts_one_replicate(self):
        # every prefix is stored rounded to float64; the stacks hold more cells
        # than the 10^6 per replicate above which a prefix once stayed longdouble
        limit = 10**6
        gen = np.random.default_rng(3)
        for shape in ((3, 400_000), (3, 4, 100_000)):
            values = gen.standard_normal(shape) * 1e3
            assert values.size > limit > values[0].size
            V = Block((0,) * (values.ndim - 1), values.shape[1:])
            P = sums._prefix_array(values, lead=1)
            assert P.dtype == np.float64
            S, M = sum_and_max(values)
            for row, p, s, m in zip(values, P, S, M):
                grid = make_grid(V, row)
                np.testing.assert_array_equal(p, grid.prefix)
                assert m == max_sub_block(grid)
                assert s == (partial_sum(grid, V) if V.d == 1 else row.sum())
        big = gen.standard_normal((2, limit + 1))
        assert sums._prefix_array(big, lead=1).dtype == np.float64

    @pytest.mark.parametrize("n", [2**14 - 1, 2**14, 2**14 + 1, 40_000])
    def test_long_lines_equal_the_stack(self, n):
        # max_sub_block reads the grid's prefix, rounded through the chunks of
        # _running_sums; sum_and_max sums a line of up to 2^14 cells in one
        # casting cumsum, and a longer one through those chunks
        values = np.random.default_rng(n).standard_normal((3, n)) * 1e3
        M = sum_and_max(values)[1]
        for row, m in zip(values, M):
            grid = make_grid(Block((0,), (n,)), row)
            assert np.float64(max_sub_block(grid)).tobytes() == m.tobytes()

    def test_dominates_anchored(self):
        gen = np.random.default_rng(9)
        g = make_grid(Block((0,), (64,)), gen.standard_normal(64))
        assert max_sub_block(g) >= anchored_abs_max(g) - 1e-12


class TestPrefixAt:
    """prefix_at over slabs against the rounded prefix of the whole block."""

    N = 40
    CUTS = {
        "one_cell": list(range(N + 1)),
        "uneven": [0, 1, 7, 8, 25, N],
        "single": [0, N],
    }

    @pytest.mark.parametrize("name", sorted(CUTS))
    def test_bits_of_the_whole_line(self, name):
        cuts = self.CUTS[name]
        gen = np.random.default_rng(5)
        line = gen.standard_normal(self.N) * 10.0 ** gen.integers(-3, 4, self.N)
        # a float64 carry between segments would drop the low bits of 2^53
        line[0] = 2.0**53
        whole = np.concatenate([[0.0], _reference_prefix(line, 0).astype(np.float64)])
        positions = [0, *cuts, self.N, 3, 0, 26, self.N]
        segments = (line[a:b] for a, b in zip(cuts, cuts[1:]))
        got = sums.prefix_at(segments, cuts, positions)
        assert got.dtype == np.float64
        assert got.tobytes() == whole[positions].tobytes()

    @pytest.mark.parametrize("shape", [(9, 5), (7, 3, 4)], ids=["d2", "d3"])
    @pytest.mark.parametrize("name", ["one_row", "uneven", "single"])
    def test_bits_of_the_prefix_array(self, name, shape):
        # every entry, those with an index 0 on some axis included, and some
        # read twice, against the whole block's rounded longdouble prefix
        cuts = {"one_row": list(range(shape[0] + 1)), "uneven": [0, 1, 4, shape[0]],
                "single": [0, shape[0]]}[name]
        gen = np.random.default_rng(7)
        values = gen.standard_normal(shape) * 10.0 ** gen.integers(-3, 4, shape)
        values[0, ...] = 2.0**53
        if len(shape) == 3:  # summed along axis 2 before axis 1, the first 1 is lost
            values[0, :2, :2] = [[2.0**64, 1.0], [-(2.0**64), 1.0]]
        whole = sums._prefix_array(values)
        positions = [*np.ndindex(whole.shape), shape, (0,) * len(shape)]
        slabs = (values[a:b] for a, b in zip(cuts, cuts[1:]))
        got = sums.prefix_at(slabs, cuts, positions)
        assert got.tobytes() == np.array([whole[i] for i in positions]).tobytes()

    # the chunks hold 2^14 cells: cuts and reads just before, at and after
    # a chunk's edge, at chunk edges inside a slab, and rows of a chunk
    # that a slab's end cuts short
    C = 2**14

    @pytest.mark.parametrize("cuts", [
        [0, C - 1, C, C + 1, 3 * C + 5],
        [0, C + 1, 2 * C + 1, 3 * C + 5],
        [0, 3 * C + 5],
    ], ids=["about_an_edge", "past_an_edge", "single"])
    def test_bits_about_the_chunk_edges(self, cuts):
        C = self.C
        gen = np.random.default_rng(len(cuts))
        line = _spread(gen, cuts[-1])
        line[0] = 2.0**53
        whole = np.concatenate([[0.0], _reference_prefix(line, 0).astype(np.float64)])
        positions = [C - 1, C, C + 1, 0, 2 * C, 2 * C + 1, 3 * C, 3 * C + 1, 3 * C + 5, C]
        segments = (line[a:b] for a, b in zip(cuts, cuts[1:]))
        got = sums.prefix_at(segments, cuts, positions)
        assert got.tobytes() == whole[positions].tobytes()

    # d = 2 rows of 100 cells (163 rows a chunk, so chunks end at rows 163,
    # 326 and, after the cut at 164, 327) and of 2^14 + 1 (one row, longer
    # than a chunk)
    @pytest.mark.parametrize("shape, cuts", [
        ((400, 100), [0, 162, 163, 164, 400]),
        ((400, 100), [0, 400]),
        ((4, C + 1), [0, 1, 3, 4]),
    ], ids=["rows_about_an_edge", "rows_single", "long_rows"])
    def test_bits_of_chunked_column_sums(self, shape, cuts):
        C = self.C
        gen = np.random.default_rng(shape[1])
        values = _spread(gen, shape)
        values[0] = 2.0**53
        whole = sums._prefix_array(values)
        rows = [0, 1, 162, 163, 164, 326, 327, 328, 400] if shape[0] == 400 else range(5)
        positions = [(r, c) for r in rows for c in (0, 1, C - 1, C, C + 1, shape[1] // 2)
                     if c <= shape[1]]
        slabs = (values[a:b] for a, b in zip(cuts, cuts[1:]))
        got = sums.prefix_at(slabs, cuts, positions)
        assert got.tobytes() == np.array([whole[i] for i in positions]).tobytes()


def _reference_prefix(x: np.ndarray, lead: int) -> np.ndarray:
    """The longdouble prefix of x over its axes from lead on: a whole
    out-of-place np.cumsum per axis, in order, no chunks and no carries."""
    acc = x.astype(np.longdouble)
    for ax in range(lead, x.ndim):
        acc = np.cumsum(acc, axis=ax)
    return acc


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Longdouble arrays equal bit for bit in value (their padding bytes
    are not compared): equal numbers with equal signs."""
    return a.shape == b.shape and bool(
        np.all(a == b) and np.array_equal(np.signbit(a), np.signbit(b)))


def _spread(gen, shape):
    """Normal values over 16 decades, so that every rounding shows."""
    return gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 8, shape)


class TestPrefixReference:
    """The chunked running sums and _prefix_array against _reference_prefix,
    bit for bit: lines about the _CHUNK_CELLS (2^14) chunk, and stacks."""

    @pytest.mark.parametrize("n", [2**14 - 1, 2**14, 2**14 + 1, 40_000])
    def test_line_prefix(self, n):
        # the longdouble chunks of one line and of a line in two slabs, and
        # the rounded prefix of a stack of long lines and of short ones,
        # as sum_and_max reads it
        gen = np.random.default_rng(n)
        line, stack, short = _spread(gen, n), _spread(gen, (3, n)), _spread(gen, (300, 100))
        for slabs in ([line], [line[:n // 3], line[n // 3:]]):
            chunks = np.concatenate([p.copy() for p in sums._running_sums(slabs)])
            assert _same(chunks, _reference_prefix(line, 0))
        for x in (stack, short):
            R = _reference_prefix(x, 1).astype(np.float64)
            S, M = sum_and_max(x)
            assert S.tobytes() == R[:, -1].tobytes()
            hi, lo = np.maximum(R.max(axis=1), 0.0), np.minimum(R.min(axis=1), 0.0)
            assert M.tobytes() == (hi - lo).tobytes()

    @pytest.mark.parametrize("shape,lead", [
        ((2**14 - 1,), 0), ((2**14,), 0), ((2**14 + 1,), 0), ((40_000,), 0),
        ((30, 700), 0), ((3, 10, 700), 1), ((6, 5, 7, 100), 0), ((6, 5, 7, 100), 1)])
    def test_prefix_array(self, shape, lead):
        x = _spread(np.random.default_rng(len(shape) + lead), shape)
        P = sums._prefix_array(x, lead=lead)
        inner = (...,) + (slice(1, None),) * (x.ndim - lead)
        assert P[inner].tobytes() == _reference_prefix(x, lead).astype(np.float64).tobytes()
        assert np.count_nonzero(P) == x.size  # the zero slabs read 0


class TestPrefixPaths:
    """The d = 1 longdouble accumulations, which the S - sigma W corners
    and the ladder's lines run, take numpy paths that release the GIL:
    numpy (2.4) holds it through a non-casting np.cumsum written in place
    on one line, so each call must be out of place, and cast or run along
    one line.  On two or more axes numpy releases the GIL over more than
    500 lines, in place or not: the column sums of prefix_at in d >= 2 run
    over the columns of its chunks, and the prefix arrays of d >= 2 grids
    and stacks in place."""

    def test_no_cumsum_writes_what_it_reads(self, monkeypatch):
        calls = []

        class Numpy:  # numpy as sums sees it, with cumsum recorded
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def cumsum(a, axis=None, dtype=None, out=None):
                calls.append((a, dtype, out))
                return np.cumsum(a, axis=axis, dtype=dtype, out=out)

        monkeypatch.setattr(sums, "np", Numpy())
        gen = np.random.default_rng(4)
        line = gen.standard_normal(40_000)
        runs = {  # sum_and_max: long lines in chunks, and short ones a chunk at a time
            "sum_and_max": lambda: [sum_and_max(line.reshape(2, 20_000)),
                                    sum_and_max(line.reshape(8, 5000)),
                                    sum_and_max(line.reshape(400, 100))],
            "prefix_at": lambda: sums.prefix_at(
                (line[a:b] for a, b in ((0, 25_000), (25_000, 40_000))),
                [0, 25_000, 40_000], [1, 25_000, 39_999, 40_000]),
            "_prefix_array": lambda: sums._prefix_array(line),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert calls, name
            for a, dtype, out in calls:
                assert out is not None and not np.shares_memory(a, out), name
                casts = np.dtype(dtype or a.dtype) != a.dtype or out.dtype != a.dtype
                assert casts or a.ndim == 1, name


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

    def test_defect_is_signed_and_exact(self, ma_model):
        assert variance_defect(ma_model, Block((0,), (100,))) == pytest.approx(
            -0.01, rel=1e-12
        )
        assert variance_defect(ma_model, Block((0,), (10,))) == pytest.approx(
            -0.1, rel=1e-12
        )


class TestMonteCarlo:
    def test_variance_ratio_near_exact(self, ma_model):
        stats = check_variance_ratio(ma_model, N=200, replicates=2000, seed=3).statistics
        est, se = stats["mc_ratio"], stats["se"]
        assert 0 < se < 0.05
        assert abs(est - 0.255) <= 3 * se

    def test_moment_estimate_iid_second_moment(self, gauss_model):
        # iid unit cells: var(S(V)) / |V| = 1 exactly
        stats = check_variance_ratio(gauss_model, N=100, replicates=4000, seed=5).statistics
        est, se = stats["mc_ratio"], stats["se"]
        assert abs(est - 1.0) <= 4 * se

    def test_max_moment_dominates_and_is_bounded(self, gauss_model):
        rep = check_maximal_inequality(
            gauss_model, 0.367, ladder=(64, 256), replicates=3000, seed=7
        )
        assert rep.statistics["pathwise_dominated"] is True
        assert all(row["max_to_s_ratio"] >= 1.0 for row in rep.rows)
        assert rep.statistics["worst_max_to_s_ratio"] <= rep.oracle["maximal_constant"]
