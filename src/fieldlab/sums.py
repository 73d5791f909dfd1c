"""Partial sums over blocks: prefix grids, sub-block maxima, variances.

S(V) is the sum of the field over a block V.  A SampleGrid carries one
replicate on a base block together with its (d+1)-corner prefix array, so
any sub-block sum is corner_sum, an inclusion-exclusion of 2^d prefix
entries.  M(V) is the maximum of |S(W)| over ALL sub-blocks W of V, reduced
axis by axis: for every choice of boundary pairs on the leading axes, the
trailing axis contributes max - min of a difference profile.  sum_and_max
reduces a whole stack of replicates at once.  This module draws nothing: it
reduces what its callers sampled, and it owns every prefix accumulation: it
always accumulates in longdouble, and a stored prefix array is always
rounded to float64.  The d = 1 prefixes and the column sums of prefix_at
run through two fixed buffers of 2^14 cells in the thread's workspace, a
chunk at a time, carried from chunk to chunk and read as they pass:
sum_and_max rounds the d = 1 prefix of a stack to float64 this way, and
prefix_at reads, at given positions, the prefix of a block arriving in
axis-0 slabs in any d (the LIL net, the S - sigma W corners).  Only the
d >= 2 prefix arrays of whole grids and stacks accumulate whole, in place.
The corner-anchored variant max_{n <= N} |S_n| is a separate, cheaper
statistic.

Variance utilities are exact: var(S(V)) for finite-support models is a
finite sum of covariances weighted by rectangle-overlap counts, which also
gives cross-covariances of block sums and the finite-size variance defect
sigma^2 - var(S(V))/|V|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldModel, sigma2, _cov_lags, _workspace
from .lattice import Block, cardinality

__all__ = [
    "SampleGrid",
    "make_grid",
    "partial_sum",
    "corner_sum",
    "prefix_at",
    "sum_and_max",
    "max_sub_block",
    "anchored_abs_max",
    "block_cov",
    "block_var",
    "variance_defect",
]


@dataclass(frozen=True)
class SampleGrid:
    """One field replicate on a base block plus its prefix-sum array."""

    block: Block
    values: np.ndarray
    prefix: np.ndarray

    def __post_init__(self):
        if tuple(self.values.shape) != self.block.lengths:
            raise ValueError("values shape does not match the block")


def _prefix_array(values: np.ndarray, lead: int = 0) -> np.ndarray:
    """Corner prefix sums over the block axes, with a zero slab on each.

    The first `lead` axes of values index replicates and are not summed.
    The sums accumulate in longdouble, axis by axis in order, and are
    stored rounded to float64: a line through the chunks of _running_sums,
    anything else in place.
    """
    lens = values.shape[lead:]
    out = np.zeros(values.shape[:lead] + tuple(n + 1 for n in lens))
    inner = out[(...,) + (slice(1, None),) * len(lens)]
    if values.ndim == 1 and not lead:
        _round_line(values, inner)
    else:
        acc = np.empty(values.shape, dtype=np.longdouble)
        acc[...] = values
        for ax in range(lead, values.ndim):
            np.cumsum(acc, axis=ax, out=acc)
        inner[...] = acc
    return out


def make_grid(block: Block, values: np.ndarray) -> SampleGrid:
    values = np.asarray(values, dtype=np.float64)
    return SampleGrid(block=block, values=values, prefix=_prefix_array(values))


def partial_sum(grid: SampleGrid, W: Block) -> float:
    """S(W) for a sub-block W of the grid's base block."""
    if not grid.block.contains_block(W):
        raise ValueError("query block is not inside the sampled block")
    a, b = ([x - o for x, o in zip(c, grid.block.a)] for c in (W.a, W.b))
    return corner_sum(grid.prefix, a, b)


def corner_sum(prefix, a: Sequence[int], b: Sequence[int]) -> float:
    """S((a, b]) from the float64 entries of a corner prefix, an array or a
    mapping indexed by tuples relative to its base: the inclusion-exclusion
    of its 2^d corners, added in one fixed order, so every sum has one value."""
    total = 0.0
    for mask in range(1 << len(a)):
        corner = tuple(lo if mask >> s & 1 else hi for s, (lo, hi) in enumerate(zip(a, b)))
        total += (-1) ** bin(mask).count("1") * float(prefix[corner])
    return total


def _max_abs_over_subrects(P: np.ndarray) -> np.ndarray:
    """Max |difference| over all index-pair rectangles, per replicate.

    P stacks one prefix array per replicate along its first axis, each with
    one leading entry per block axis (the zero slab).  The last axis is
    collapsed with max - min; the leading block axis is scanned over
    boundary pairs, vectorizing the upper member of each pair, and the
    differences of a pass are reduced as a stack of their own.
    """
    if P.ndim == 2:
        return P.max(axis=1) - P.min(axis=1)
    n = P.shape[0]
    best = np.zeros(n)
    for i in range(P.shape[1] - 1):
        D = P[:, i + 1 :] - P[:, i, None]
        inner = _max_abs_over_subrects(D.reshape((-1,) + D.shape[2:]))
        np.maximum(best, inner.reshape(n, -1).max(axis=1), out=best)
    return best


# The longdouble running sums below take numpy paths that release the GIL,
# so that worker threads sum at once.  numpy (2.4) holds it through a
# non-casting np.cumsum written in place on one line, and through a
# non-casting one on two or more axes over 500 lines or fewer.  So a chunk
# of rows is cast into one fixed buffer and summed out of place into a
# second: along one line in d = 1, and in d >= 2 over its columns, which
# number more than 500 in the d = 2 S - sigma W study from K = 6 on.  A
# stack of short lines is summed by an accumulation that casts.  A chunk
# holds at most _CHUNK_CELLS cells (or one row), and these two buffers are
# all the longdouble a thread keeps.
_CHUNK_CELLS = 1 << 14


def _chunk_rows(rest) -> int:
    """The rows of a chunk whose rows have the shape rest."""
    return max(1, _CHUNK_CELLS // math.prod(rest))


def _running_sums(slabs):
    """The longdouble running sums along axis 0 of the rows that slabs
    deliver in order, yielded a chunk of at most _chunk_rows rows of one
    slab at a time, in the thread's reused buffer: valid until the next
    chunk.  Each chunk is cast into a first buffer, the carry (the sums of
    the rows before it, -0.0 at first: x + -0.0 is x) added to its first
    row, and summed out of place into a second: the bits of one cumsum of
    all rows in longdouble."""
    carry = -0.0
    for X in slabs:
        rows = _chunk_rows(X.shape[1:])
        A = _workspace("chunk", (rows,) + X.shape[1:], np.longdouble)
        P = _workspace("sums", (rows,) + X.shape[1:], np.longdouble)
        for s in range(0, len(X), rows):
            a, p = A[: len(X) - s], P[: len(X) - s]
            a[...] = X[s : s + rows]
            a[0] += carry  # a view of P in d >= 2, read before P is written
            carry = np.cumsum(a, axis=0, out=p)[-1]
            yield p


def _round_line(x: np.ndarray, out: np.ndarray) -> None:
    """out = the longdouble prefix sums of the line x, rounded to float64."""
    s = 0
    for p in _running_sums([x]):
        out[s : s + len(p)] = p
        s += len(p)


@functools.lru_cache(maxsize=8)
def _reads(cuts: tuple, positions: tuple, rows: int) -> tuple:
    """Where prefix_at reads, one entry per chunk of _running_sums (the rows
    of each slab (cuts[j], cuts[j+1]], at most rows at a time): the offsets
    in the chunk of the rows it reads, each distinct row once, and the
    positions they serve (their places in the output, and their indices
    into the prefix array of those rows).  Cached: a study reads the same
    places replicate after replicate."""
    pos = np.asarray(positions, dtype=np.int64).reshape(len(positions), -1)
    read, row = np.unique(pos[:, 0], return_inverse=True)
    edges = [c for a, b in zip(cuts, cuts[1:]) for c in range(a, b, rows)] + [cuts[-1]]
    out = []
    for a, b in zip(edges, edges[1:]):
        lo, hi = np.searchsorted(read, [a, b], side="right")
        at = np.flatnonzero((row >= lo) & (row < hi))
        out.append((read[lo:hi] - a - 1, at, (row[at] - lo, *pos[at, 1:].T)))
    return tuple(out)


def prefix_at(slabs, cuts: Sequence[int], positions: Sequence) -> np.ndarray:
    """The entries of _prefix_array at positions of a block that arrives in
    axis-0 slabs, slab j holding its rows (cuts[j], cuts[j+1]]: a position
    is an index tuple (an int in d = 1), its row in the coordinates of the
    cuts, and it reads 0 at the row cuts[0] or an index 0 on another axis.
    The longdouble column sums run through the fixed chunks of
    _running_sums, carried from chunk to chunk and slab to slab; at a row
    read, they are summed along the trailing axes by _prefix_array and
    rounded, once per distinct row."""
    out, plan = np.zeros(len(positions)), None
    for P in _running_sums(slabs):
        if plan is None:  # the chunk rows follow from the slabs' row shape
            plan = iter(_reads(tuple(cuts), tuple(positions), _chunk_rows(P.shape[1:])))
        rel, at, index = next(plan)
        if len(at):
            out[at] = _prefix_array(P[rel], lead=1)[index]
    return out


def sum_and_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S(V), M(V)) for each replicate of a stack of shape (n,) + V.lengths.

    In d = 1, S is the longdouble prefix corner rounded to float64, and M
    is max - min of the rounded prefix with the zero slab entering as the
    bound 0: the numbers of the zero-padded prefix array.  The prefix is
    summed a chunk at a time: a line longer than a chunk in chunks of
    _running_sums, shorter lines as many whole lines as fill a chunk.  In
    d >= 2, S is the float64 sum of the replicate's cells.  Callers hand it
    one task of replicates or one replicate, which bounds its buffers.
    """
    if values.ndim == 2:
        R = _workspace("rounded", values.shape)
        if values.shape[1] > _CHUNK_CELLS:
            for x, r in zip(values, R):
                _round_line(x, r)
        else:
            rows = _chunk_rows(values.shape[1:])
            P = _workspace("sums", (rows,) + values.shape[1:], np.longdouble)
            for i in range(0, len(values), rows):
                x = values[i : i + rows]
                R[i : i + rows] = np.cumsum(x, axis=1, dtype=np.longdouble, out=P[: len(x)])
        hi = np.maximum(R.max(axis=1), 0.0)
        return R[:, -1].copy(), hi - np.minimum(R.min(axis=1), 0.0)
    P = _prefix_array(values, lead=1)
    return values.reshape(len(values), -1).sum(axis=1), _max_abs_over_subrects(P)


def max_sub_block(grid: SampleGrid) -> float:
    """M(V): max |S(W)| over every sub-block W of the grid's base block, read
    from the grid's stored prefix: the bits of sum_and_max on its values."""
    return float(_max_abs_over_subrects(grid.prefix[None])[0])


def anchored_abs_max(grid: SampleGrid) -> float:
    """max |S((a, n])| over corner-anchored n in the grid's base block."""
    return float(np.abs(grid.prefix[(slice(1, None),) * grid.block.d]).max())


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


def variance_defect(model: FieldModel, V: Block) -> float:
    """Signed finite-size defect sigma^2 - var(S(V)) / |V| (exact)."""
    return sigma2(model) - block_var(model, V) / cardinality(V)
