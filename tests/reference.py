"""The whole-domain reference pipeline that the tests compare the package against.

coupling.corner_errors couples a replicate in two passes over axis-0 slabs
and never holds its domain.  run_coupling here holds all of it: the field
and the Wiener grid as SampleGrids, with every block's head and tail sums,
companion, xi, eta and coupling error.  corner_errors must read from it,
bit for bit, S(0, N] - sigma W(0, N], and decomposition_terms checks on it
the five-term split of S over a good span (T1 coupling errors, T2 variance
mismatch, T3 Gaussian block sums, T4 companions, T5 tails) to 1e-9
relative.  Both run on the package's own primitives: the sampler, the
block coupling and the one Wiener builder, coupling._wiener_slabs, read as
a single slab.  max_sub_block_naive is the brute-force oracle of
sums.max_sub_block.  No package code calls any of these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from fieldlab.coupling import BlockScheme, _couple_block, _coupled, _shape_key, _wiener_slabs
from fieldlab.fields import FieldModel, sample_block, sigma2
from fieldlab.lattice import Block, cardinality
from fieldlab.rng import stream
from fieldlab.sums import SampleGrid, make_grid, partial_sum


@dataclass(frozen=True)
class GoodSpan:
    """Maximal box of good block indices ending at k, and its footprint."""

    start: tuple[int, ...]
    region: Block
    indices: tuple


def good_span(scheme: BlockScheme, k: Sequence[int]) -> GoodSpan:
    """Greedy maximal all-good index box (m, k] ending at the good block k.

    Axes are extended downward round-robin; the result is deterministic and
    always contains k itself, so the footprint region is exactly tiled by
    the good blocks it spans.
    """
    k = tuple(int(x) for x in k)
    if k not in scheme.good:
        raise ValueError("span is defined only for good blocks")
    m = list(k)

    def box_good(cand):
        return all(
            tuple(i) in scheme.good
            for i in itertools.product(*[range(cand[s], k[s] + 1) for s in range(scheme.d)])
        )

    moved = True
    while moved:
        moved = False
        for s in range(scheme.d):
            if m[s] > 1:
                trial = m.copy()
                trial[s] -= 1
                if box_good(trial):
                    m = trial
                    moved = True
    a = tuple(scheme.boundaries[m[s] - 1] for s in range(scheme.d))
    region = Block(a, scheme.corner(k))
    idx = tuple(
        itertools.product(*[range(m[s], k[s] + 1) for s in range(scheme.d)])
    )
    return GoodSpan(tuple(m), region, idx)


def block_sums(grid: SampleGrid, scheme: BlockScheme) -> tuple[dict, dict]:
    """Head sums u_k = S(H_k) and tail sums v_k = S(B_k) - u_k per block."""
    if not grid.block.contains_block(scheme.domain):
        raise ValueError("grid does not cover the scheme domain")
    u, v = {}, {}
    for k in scheme.indices():
        u[k] = partial_sum(grid, scheme.head(k))
        v[k] = partial_sum(grid, scheme.block(k)) - u[k]
    return u, v


@dataclass(frozen=True)
class CouplingRun:
    """One replicate of the full coupling pipeline on a scheme domain."""

    scheme: BlockScheme
    sigma: float
    field: SampleGrid
    wiener: SampleGrid
    variances: Mapping
    coupled: tuple
    v: dict
    w: dict
    xi: dict
    eta: dict
    e: dict


def run_coupling(
    model: FieldModel,
    scheme: BlockScheme,
    seed: int,
    replicate: int,
    variances: Mapping,
    cdfs: Mapping,
) -> CouplingRun:
    """Sample one replicate and couple every good block with tau^2 > 0.

    variances is scheme_variances(model, scheme), and cdfs the cdf_table
    of the scheme, through whose entries each block's xi is mapped.
    """
    if model.d != scheme.d:
        raise ValueError("model dimension does not match the scheme")
    grid = make_grid(scheme.domain, sample_block(model, scheme.domain, seed, replicate))
    u, v = block_sums(grid, scheme)

    coupled = tuple(_coupled(scheme, variances))
    draws = stream(seed, "companion", replicate).standard_normal(len(coupled))
    w, xis, etas, errs = {}, {}, {}, {}
    for k, z in zip(coupled, draws):
        cdf = cdfs[_shape_key(scheme.head(k), scheme.block(k))]
        w[k], xis[k], etas[k], errs[k] = _couple_block(u[k], z, variances[k], cdf)

    Z = build_wiener(scheme, etas, seed, replicate)
    return CouplingRun(
        scheme=scheme,
        sigma=math.sqrt(sigma2(model)),
        field=grid,
        wiener=make_grid(scheme.domain, Z),
        variances=variances,
        coupled=coupled,
        v=v,
        w=w,
        xi=xis,
        eta=etas,
        e=errs,
    )


def build_wiener(scheme: BlockScheme, etas: Mapping, seed: int, replicate: int) -> np.ndarray:
    """Unit-cell standard normal increments, conditioned on the blocks of etas.

    Cells start as iid N(0,1).  Inside each block k of etas the increments
    are recentered and shifted, Z = eta/sqrt(|B|) + (zeta - mean(zeta)), so
    the block total is sqrt(|B|) eta exactly while, for exactly normal eta,
    cell variances and covariances stay those of white noise.
    """
    blocks = [(scheme.block(k), eta) for k, eta in etas.items()]
    Z = np.empty(scheme.domain.lengths)
    return next(_wiener_slabs(blocks, seed, replicate, (0, len(Z)), Z))  # one slab


def decomposition_terms(run: CouplingRun, k) -> tuple[float, float, float, float, float]:
    """The five-term split of S over the good span ending at block k.

    T1 = sum of coupling errors, T2 = variance-mismatch correction,
    T3 = sigma-scaled Gaussian block sums, T4 = -companions, T5 = tail sums;
    their total equals S(region) identically, enforced here to 1e-9
    relative.
    """
    k = tuple(int(x) for x in k)
    if k not in run.coupled:
        raise ValueError("decomposition is defined only for coupled good blocks")
    span = good_span(run.scheme, k)
    if any(i not in run.coupled for i in span.indices):
        raise ValueError("good span contains an uncoupled block")
    sigma = run.sigma
    t1 = t2 = t3 = t4 = t5 = 0.0
    for i in span.indices:
        bv = run.variances[i]
        card = cardinality(run.scheme.block(i))
        root = math.sqrt(card)
        t1 += run.e[i]
        t2 += root * (math.sqrt((bv.sigma2 + bv.tau2) / card) - sigma) * run.eta[i]
        t3 += sigma * root * run.eta[i]
        t4 -= run.w[i]
        t5 += run.v[i]
    total = t1 + t2 + t3 + t4 + t5
    reference = partial_sum(run.field, span.region)
    residual = abs(reference - total) / max(1.0, abs(reference))
    if residual > 1e-9:
        raise ArithmeticError(
            f"decomposition identity violated at {k}: relative residual {residual:.3e}"
        )
    return (t1, t2, t3, t4, t5)


def max_sub_block_naive(grid: SampleGrid) -> float:
    """Independent oracle: enumerate every sub-block and sum cells directly."""
    best = 0.0

    def rec(axis, a_off, b_off):
        nonlocal best
        if axis == grid.block.d:
            sl = tuple(slice(a, b) for a, b in zip(a_off, b_off))
            s = math.fsum(grid.values[sl].ravel().tolist())
            best = max(best, abs(s))
            return
        n = grid.block.lengths[axis]
        for a in range(n):
            for b in range(a + 1, n + 1):
                rec(axis + 1, a_off + [a], b_off + [b])

    rec(0, [], [])
    return best
