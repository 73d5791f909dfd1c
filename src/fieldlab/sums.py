"""Partial sums over blocks: prefix grids, sub-block maxima, variances.

S(V) is the sum of the field over a block V.  A SampleGrid carries one
replicate on a base block together with its (d+1)-corner prefix array, so
any sub-block sum is an inclusion-exclusion of 2^d prefix entries.  M(V) is
the maximum of |S(W)| over ALL sub-blocks W of V, reduced axis by axis: for
every choice of boundary pairs on the leading axes, the trailing axis
contributes max - min of a difference profile.  The corner-anchored variant
max_{n <= N} |S_n| is a separate, cheaper statistic.

Variance utilities are exact: var(S(V)) for finite-support models is a
finite sum of covariances weighted by rectangle-overlap counts, which also
gives cross-covariances of block sums and the finite-size variance defect
sigma^2 - var(S(V))/|V|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldModel, sample_block_batch, sigma2, _cov_lags
from .lattice import Block, cardinality

__all__ = [
    "SampleGrid",
    "make_grid",
    "partial_sum",
    "max_sub_block",
    "max_sub_block_naive",
    "anchored_abs_max",
    "block_cov",
    "block_var",
    "union_var",
    "variance_defect",
    "variance_ratio",
]

# Above this many cells the prefix array keeps extended precision instead of
# rounding back to float64 (accumulation itself is always extended).
_LONGDOUBLE_CELLS = 10**6


@dataclass(frozen=True)
class SampleGrid:
    """One field replicate on a base block plus its prefix-sum array."""

    block: Block
    values: np.ndarray
    prefix: np.ndarray

    def __post_init__(self):
        if tuple(self.values.shape) != self.block.lengths:
            raise ValueError("values shape does not match the block")


def _prefix_array(values: np.ndarray) -> np.ndarray:
    acc = values.astype(np.longdouble)
    for ax in range(values.ndim):
        acc = np.cumsum(acc, axis=ax)
    out = np.zeros(tuple(n + 1 for n in values.shape), dtype=np.longdouble)
    out[tuple(slice(1, None) for _ in range(values.ndim))] = acc
    if values.size <= _LONGDOUBLE_CELLS:
        return out.astype(np.float64)
    return out


def make_grid(block: Block, values: np.ndarray) -> SampleGrid:
    values = np.asarray(values, dtype=np.float64)
    return SampleGrid(block=block, values=values, prefix=_prefix_array(values))


def partial_sum(grid: SampleGrid, W: Block) -> float:
    """S(W) for a sub-block W of the grid's base block."""
    if not grid.block.contains_block(W):
        raise ValueError("query block is not inside the sampled block")
    base = grid.block.a
    total = 0.0
    d = grid.block.d
    for mask in range(1 << d):
        idx = []
        sign = 1
        for s in range(d):
            if mask >> s & 1:
                idx.append(W.a[s] - base[s])
                sign = -sign
            else:
                idx.append(W.b[s] - base[s])
        total += sign * float(grid.prefix[tuple(idx)])
    return total


def _max_abs_over_subrects(P: np.ndarray) -> float:
    """Max |difference| over all index-pair rectangles of a prefix array.

    P has one leading entry per axis (the zero slab).  The last axis is
    collapsed with max - min; leading axes are scanned over boundary pairs,
    vectorizing the upper member of each pair.
    """
    if P.ndim == 1:
        return float(P.max() - P.min())
    best = 0.0
    n0 = P.shape[0]
    if P.ndim == 2:
        for i in range(n0 - 1):
            D = P[i + 1 :] - P[i]
            best = max(best, float((D.max(axis=1) - D.min(axis=1)).max()))
        return best
    for i in range(n0 - 1):
        D = P[i + 1 :] - P[i]
        for j in range(D.shape[0]):
            best = max(best, _max_abs_over_subrects(D[j]))
    return best


def max_sub_block(grid: SampleGrid, V: Block | None = None) -> float:
    """M(V): max |S(W)| over every sub-block W of V (default: the base block)."""
    V = V if V is not None else grid.block
    if not grid.block.contains_block(V):
        raise ValueError("query block is not inside the sampled block")
    base = grid.block.a
    sl = tuple(
        slice(V.a[s] - base[s], V.b[s] - base[s] + 1) for s in range(grid.block.d)
    )
    P = np.asarray(grid.prefix[sl], dtype=np.float64)
    return _max_abs_over_subrects(P)


def max_sub_block_naive(grid: SampleGrid, V: Block | None = None) -> float:
    """Independent oracle: enumerate every sub-block and sum cells directly."""
    V = V if V is not None else grid.block
    base = grid.block.a
    d = V.d
    best = 0.0
    counters = [(lo, hi) for lo, hi in zip(V.a, V.b)]

    def rec(axis, a_off, b_off):
        nonlocal best
        if axis == d:
            sl = tuple(slice(a, b) for a, b in zip(a_off, b_off))
            s = math.fsum(grid.values[sl].ravel().tolist())
            best = max(best, abs(s))
            return
        lo, hi = counters[axis]
        for a in range(lo, hi):
            for b in range(a + 1, hi + 1):
                rec(axis + 1, a_off + [a - base[axis]], b_off + [b - base[axis]])

    rec(0, [], [])
    return best


def anchored_abs_max(grid: SampleGrid, N: Sequence[int] | None = None) -> float:
    """max |S((a, n])| over corner-anchored n with n <= N componentwise."""
    lens = grid.block.lengths
    N = tuple(lens) if N is None else tuple(int(x) for x in N)
    if any(n < 1 or n > l for n, l in zip(N, lens)):
        raise ValueError("anchored range must satisfy 1 <= N_s <= edge length")
    sl = tuple(slice(1, n + 1) for n in N)
    return float(np.abs(np.asarray(grid.prefix[sl], dtype=np.float64)).max())


# --------------------------------------------------------------------------
# exact variance oracles


def _overlap_count(P: Block, Q: Block, shift: Sequence[int]) -> int:
    """|P intersect (Q + shift)| for half-open blocks."""
    n = 1
    for s in range(P.d):
        lo = max(P.a[s], Q.a[s] + shift[s])
        hi = min(P.b[s], Q.b[s] + shift[s])
        n *= max(0, hi - lo)
        if n == 0:
            return 0
    return n


def block_cov(model: FieldModel, P: Block, Q: Block) -> float:
    """Exact cov(S(P), S(Q)) = sum over lags c(u) |P intersect (Q + u)|."""
    return float(
        math.fsum(c * _overlap_count(P, Q, u) for u, c in _cov_lags(model).items())
    )


def block_var(model: FieldModel, V: Block) -> float:
    return block_cov(model, V, V)


def union_var(model: FieldModel, blocks: Sequence[Block]) -> float:
    """Exact var(S(V)) for V a finite union of pairwise disjoint blocks."""
    zero = (0,) * blocks[0].d
    for i, P in enumerate(blocks):
        for Q in blocks[i + 1 :]:
            if _overlap_count(P, Q, zero) > 0:
                raise ValueError("blocks must be pairwise disjoint")
    return float(
        math.fsum(block_cov(model, P, Q) for P in blocks for Q in blocks)
    )


def variance_defect(model: FieldModel, blocks: Sequence[Block] | Block) -> float:
    """Signed finite-size defect sigma^2 - var(S(V)) / |V| (exact)."""
    if isinstance(blocks, Block):
        blocks = [blocks]
    total = sum(cardinality(B) for B in blocks)
    return sigma2(model) - union_var(model, list(blocks)) / total


def _jackknife_var_se(x: np.ndarray) -> float:
    """Jackknife standard error of the unbiased sample variance of x."""
    m = x.size
    if m < 3:
        return float("nan")
    s1 = x.sum()
    s2 = (x * x).sum()
    mean_i = (s1 - x) / (m - 1)
    var_i = (s2 - x * x - (m - 1) * mean_i * mean_i) / (m - 2)
    vbar = var_i.mean()
    return float(math.sqrt((m - 1) / m * np.sum((var_i - vbar) ** 2)))


def variance_ratio(
    model: FieldModel, V: Block, replicates: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo (var(S(V)) / |V|, jackknife SE of that estimate)."""
    vals = sample_block_batch(model, V, seed, range(replicates), tag="var-ratio")
    sums = vals.reshape(replicates, -1).sum(axis=1)
    card = cardinality(V)
    est = float(np.var(sums, ddof=1) / card)
    return est, _jackknife_var_se(sums) / card
