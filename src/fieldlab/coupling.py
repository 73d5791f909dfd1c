"""Block-scheme coupling of partial sums with an explicit Wiener grid.

The domain (0, n_K]^d is tiled by blocks B_k, k in {1..K}^d, with per-axis
boundaries n_l = sum of i^alpha + i^beta.  Each B_k splits into a head H_k
(the alpha-power box at the lower corner) and the remainder I_k.  Blocks
whose corners all lie in the balanced cone at rho = tau/8 are "good"; only
good blocks are coupled.

Per good block the head sum u_k gets an independent Gaussian companion
w_k ~ N(0, tau_k^2); the standardized xi_k = (u_k + w_k)/sqrt(s_k^2+t_k^2)
is pushed through its own quantile transform eta_k = PhiInv(F_k(xi_k)),
leaving the coupling error e_k = sqrt(s_k^2+t_k^2)(xi_k - eta_k).  F_k is
the entry of the block's shape in cdf_table, the one place that chooses
it: an empirical CDF estimated once per shape, or None for exact Phi
(eta_k = xi_k, Gaussian innovations only).  PhiInv is normal.ndtri, the
Cephes normal quantile, which _couple_blocks calls once for all the blocks
of a replicate.  The Wiener grid holds standard normal unit-cell
increments, conditioned inside coupled blocks so that W(B_k) =
sqrt(|B_k|) eta_k exactly.

All randomness is drawn from counter-based streams keyed by (seed, tag,
replicate), so a run is a pure function of (model, scheme, seed, replicate)
and any batching of replicates is equivalent.

The S - sigma W study reads only a few prefix entries per block, so
corner_errors runs a replicate in two passes over axis-0 slabs, in any d,
with the draws and float operations of run_coupling in tests/reference.py,
the whole-domain reference, which holds the field and Wiener grids:
sums.prefix_at reads the field of fields.line_segments, in slabs of at
most _BATCH_CELLS cells, at the corners of the heads and of the (0, N],
the blocks are coupled, and then it reads the Wiener increments of
_wiener_slabs, the one Wiener builder, at the (0, N].  A coupled block is
conditioned on its whole total, so only the Wiener pass cuts at block rows
(every (0, N] is a union of whole ones).  Only a slab is held.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import domains as dom
from .fields import (
    _BATCH_CELLS,
    FieldModel,
    _workspace,
    line_segments,
    sample_block_batch,
    sigma2,
)
from .lattice import _INT_CAP, Block, block_in_balanced_cone, cardinality, in_balanced_cone
from .normal import ndtri
from .rng import stream, streams
from .sums import block_cov, block_var, corner_sum, prefix_at
from .theory import SchemeParams

__all__ = [
    "BlockScheme",
    "build_scheme",
    "BlockVariance",
    "scheme_variances",
    "xi",
    "EmpiricalCdf",
    "estimate_cdf",
    "quantile_transform",
    "coupling_error",
    "cdf_table",
    "corner_errors",
    "BlockCouplingSample",
    "block_coupling_samples",
    "study_plans",
    "top_blocks",
]

_LOG2_CAP = _INT_CAP.bit_length() - 1  # every boundary and domain stay below 2^62


@dataclass(frozen=True)
class BlockScheme:
    """Tiling of (0, n_K]^d into head/tail blocks with a good-block set."""

    params: SchemeParams
    d: int
    K: int
    boundaries: tuple[int, ...]

    def indices(self):
        return itertools.product(range(1, self.K + 1), repeat=self.d)

    @functools.cached_property
    def good(self) -> frozenset:
        """The blocks whose 2^d corners all lie in the balanced cone at rho =
        tau/8 (exact: each cone constraint binds at one corner); in d = 1, all."""
        rho = self.params.rho
        return frozenset(k for k in self.indices() if block_in_balanced_cone(self.block(k), rho))

    @property
    def domain(self) -> Block:
        top = self.boundaries[self.K]
        return Block((0,) * self.d, (top,) * self.d)

    def corner(self, k: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.boundaries[x] for x in k)

    def block(self, k: Sequence[int]) -> Block:
        a = tuple(self.boundaries[x - 1] for x in k)
        return Block(a, self.corner(k))

    def head(self, k: Sequence[int]) -> Block:
        a = tuple(self.boundaries[x - 1] for x in k)
        return Block(a, tuple(a[s] + k[s] ** self.params.alpha for s in range(self.d)))


def build_scheme(params: SchemeParams, K: int, d: int) -> BlockScheme:
    """The depth-K scheme in d dimensions, the one builder of a scheme.

    One running sum gives the boundaries n_0..n_K.  Raises ValueError naming
    the depth, alpha and beta once a boundary, or the cell count n_K^d of the
    domain, reaches 2^62.  No power past that range is formed: i^alpha, and
    n_K^d, are at least 2^((bit_length - 1) * exponent).
    """
    if K < 1:
        raise ValueError("scheme depth K must be at least 1")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    alpha, beta = params.alpha, params.beta
    where = f"depth {K} at alpha {alpha}, beta {beta}"
    n, boundaries = 0, [0]
    for i in range(1, K + 1):
        if (i.bit_length() - 1) * alpha >= _LOG2_CAP or (n := n + i**alpha + i**beta) >= _INT_CAP:
            raise ValueError(f"{where}: block boundary exceeds the supported index range")
        boundaries.append(n)
    if (n.bit_length() - 1) * d >= _LOG2_CAP or n**d >= _INT_CAP:
        raise ValueError(f"{where}: the domain (0, {n}]^{d} has 2^62 cells or more")
    return BlockScheme(params, d, K, tuple(boundaries))


@dataclass(frozen=True)
class BlockVariance:
    sigma2: float
    tau2: float


def _block_variance(model: FieldModel, B: Block, H: Block) -> BlockVariance:
    """Exact var(S(H)) and var(S(B \\ H)) = var(B) + var(H) - 2 cov(B, H)."""
    s2 = block_var(model, H)
    return BlockVariance(s2, block_var(model, B) + s2 - 2.0 * block_cov(model, B, H))


def scheme_variances(model: FieldModel, scheme: BlockScheme) -> dict:
    """Exact head/tail variances per block from the model covariance.

    tau_k^2 may be nonpositive for strongly negative covariances (such k are
    excluded from coupling), while sigma_k^2 <= 0 is a model error.
    """
    out = {}
    for k in scheme.indices():
        out[k] = _block_variance(model, scheme.block(k), scheme.head(k))
        if out[k].sigma2 <= 0:
            raise ValueError(f"head variance is not positive at block {k}")
    return out


def xi(u, w, s2, t2):
    """Standardized head-plus-companion value (u + w)/sqrt(s2 + t2), elementwise."""
    total = s2 + t2
    if np.any(total <= 0):
        raise ValueError("total variance must be positive")
    return (u + w) / np.sqrt(total)


@dataclass(frozen=True)
class EmpiricalCdf:
    """Piecewise-linear CDF through (x_(i), (i - 1/2)/m), clamped outside.

    The clamp to [1/(2m), 1 - 1/(2m)] keeps the normal quantile of any
    evaluation finite.
    """

    xs: np.ndarray

    @property
    def m(self) -> int:
        return self.xs.size

    @functools.cached_property
    def _levels(self) -> np.ndarray:
        """The CDF's values (i - 1/2)/m at the sorted draws x_(i)."""
        m = self.xs.size
        return (np.arange(1, m + 1) - 0.5) / m

    def __call__(self, x):
        return np.interp(x, self.xs, self._levels)


def estimate_cdf(values: Sequence[float]) -> EmpiricalCdf:
    values = np.sort(np.asarray(values, dtype=np.float64))
    dom.check_value(dom.CdfDraws, values.size, "m_cdf")
    return EmpiricalCdf(values)


def quantile_transform(x, cdf) -> np.ndarray:
    """Normal-quantile remap PhiInv(F(x)); finite by the CDF clamp."""
    return ndtri(cdf(x))


def coupling_error(xi_val, eta_val, s2, t2):
    return np.sqrt(s2 + t2) * (np.asarray(xi_val) - np.asarray(eta_val))


def _shape_key(H: Block, B: Block) -> tuple:
    """The cdf_table key of a block B with head H."""
    return (H.lengths, B.lengths)


def _shape_tag(prefix: str, h_lengths, b_lengths) -> str:
    h = "x".join(str(n) for n in h_lengths)
    b = "x".join(str(n) for n in b_lengths)
    return f"{prefix}:{h}:{b}"


def _anchored_xi_batch(
    model: FieldModel,
    h_lengths,
    b_lengths,
    s2: float,
    t2: float,
    seed: int,
    replicates: range,
    field_tag: str,
    companion_tag: str,
) -> np.ndarray:
    """xi draws for a block shape, sampled at the origin (stationarity).

    The head sums are taken one batch of at most _BATCH_CELLS block cells
    at a time, so only one batch of the draws is held.
    """
    d = len(b_lengths)
    B0 = Block((0,) * d, tuple(b_lengths))
    head = (slice(None),) + tuple(slice(0, h) for h in h_lengths)
    batch = max(1, _BATCH_CELLS // cardinality(B0))
    u = np.empty(len(replicates))
    for s in range(0, len(replicates), batch):
        reps = replicates[s : s + batch]
        vals = sample_block_batch(model, B0, seed, reps, tag=field_tag)
        u[s : s + len(reps)] = vals[head].reshape(len(reps), -1).sum(axis=1)
    w = np.fromiter(
        (gen.standard_normal() for gen in streams(seed, companion_tag, replicates)),
        dtype=np.float64, count=len(replicates),
    )
    return xi(u, w * math.sqrt(t2), s2, t2)


def _shape_cdf(model: FieldModel, h_lengths, b_lengths, bv: BlockVariance, m: int,
               seed: int) -> EmpiricalCdf:
    """Empirical xi CDF of one block shape from m origin-anchored draws."""
    xs = _anchored_xi_batch(
        model, h_lengths, b_lengths, bv.sigma2, bv.tau2, seed, range(m),
        field_tag=_shape_tag("cdf-field", h_lengths, b_lengths),
        companion_tag=_shape_tag("cdf-comp", h_lengths, b_lengths),
    )
    return estimate_cdf(xs)


def _coupled(scheme: BlockScheme, variances: Mapping) -> list:
    """The coupled blocks: the good blocks with tau^2 > 0, in index order."""
    return [k for k in sorted(scheme.good) if variances[k].tau2 > 0]


def _check_gaussian(model: FieldModel) -> None:
    """Exact Phi is the law of xi only when the innovations are Gaussian."""
    if model.innovation != "normal":
        raise ValueError("the exact-CDF shortcut requires Gaussian innovations")


def cdf_table(
    model: FieldModel,
    scheme: BlockScheme,
    variances: Mapping,
    m: int,
    seed: int,
    exact_phi: bool = False,
) -> dict:
    """The xi distribution function of each coupled block shape.

    An entry is the shape's empirical CDF from m origin-anchored congruent
    draws, so it depends only on (model, shape, m, seed); with exact_phi it
    is None, exact Phi (eta = xi), and nothing is drawn.
    """
    if exact_phi:
        _check_gaussian(model)
    out = {}
    for k in _coupled(scheme, variances):
        key = _shape_key(scheme.head(k), scheme.block(k))
        if key not in out:
            out[key] = None if exact_phi else _shape_cdf(model, *key, variances[k], m, seed)
    return out


def _couple_blocks(u: Sequence[float], z: np.ndarray, variances: Sequence[BlockVariance],
                   cdfs: Sequence) -> tuple:
    """(w, xi, eta, e), one array entry per block, of a replicate's coupled
    blocks from their head sums u and companion draws z.

    cdfs holds each block's entry of cdf_table.  The blocks' F(xi) go
    through one Phi^-1 call, which costs about as much as one block's would.
    """
    s2 = np.array([bv.sigma2 for bv in variances])
    t2 = np.array([bv.tau2 for bv in variances])
    w = z * np.sqrt(t2)
    x = xi(np.asarray(u, dtype=np.float64), w, s2, t2)
    eta = x.copy()
    mapped = [i for i, cdf in enumerate(cdfs) if cdf is not None]
    if mapped:
        eta[mapped] = ndtri([cdfs[i](x[i]) for i in mapped])
    return w, x, eta, coupling_error(x, eta, s2, t2)


def _wiener_slabs(blocks: Sequence, seed: int, replicate: int, cuts: Sequence[int],
                  buf: np.ndarray):
    """The Wiener increments of each axis-0 slab (cuts[i], cuts[i+1]], drawn
    in stream order into buf, with each (block, eta) of blocks conditioned
    in its slab: the bits of one draw on the whole domain.  The cuts fall on
    block boundaries; a slab is valid until the next one is drawn."""
    gen = stream(seed, "wiener", replicate)
    for a, b in zip(cuts, cuts[1:]):
        Z = gen.standard_normal(out=buf[: b - a])
        for B, eta in blocks:
            if a <= B.a[0] < b:  # recenter the block's cells to total sqrt(|B|) eta
                zeta = Z[(slice(B.a[0] - a, B.b[0] - a),) + tuple(
                    slice(lo, hi) for lo, hi in zip(B.a[1:], B.b[1:]))]
                zeta -= zeta.mean()
                zeta += eta / math.sqrt(zeta.size)
        yield Z


def _slabs(scheme: BlockScheme, budget: int):
    """(first, last) axis-0 block numbers of each slab of a scheme's domain.

    A slab is a run of consecutive block rows with at most budget cells in
    all, a row having n_K^(d-1) cells per axis-0 step; a larger block row
    is a slab of its own.
    """
    bounds = scheme.boundaries
    first = 1
    for k in range(2, scheme.K + 1):
        if (bounds[k] - bounds[first - 1]) * bounds[-1] ** (scheme.d - 1) > budget:
            yield first, k - 1
            first = k
    yield first, scheme.K


@functools.lru_cache(maxsize=4)
def _corner_plan(scheme: BlockScheme, coupled: tuple, corners: tuple, budget: int) -> tuple:
    """What corner_errors reads that is the same for every replicate of a
    depth: the field pass's slab cuts, as many rows as fit in the budget
    (_BATCH_CELLS) and at least one, the Wiener pass's, those of _slabs at
    the budget, the coupled heads, blocks and cdf_table keys, the top
    corners N, and the positions read in the field pass, the heads' corners
    and then N."""
    top = scheme.boundaries[-1]
    cuts = (*range(0, top, max(1, budget // top ** (scheme.d - 1))), top)
    wiener_cuts = tuple(scheme.boundaries[f - 1] for f, _ in _slabs(scheme, budget)) + (top,)
    heads = tuple(map(scheme.head, coupled))
    blocks = tuple(map(scheme.block, coupled))
    keys = tuple(map(_shape_key, heads, blocks))
    tops = tuple(map(scheme.corner, corners))
    at = tuple(c for H in heads for c in itertools.product(*zip(H.a, H.b))) + tops
    return cuts, wiener_cuts, heads, blocks, keys, tops, at


def corner_errors(
    model: FieldModel,
    scheme: BlockScheme,
    seed: int,
    replicate: int,
    variances: Mapping,
    cdfs: Mapping,
    corners: Sequence,
) -> list[float]:
    """S(0, N] - sigma W(0, N] at the upper corner N of each block in corners.

    Bit for bit the numbers partial_sum(run.field, V) - run.sigma *
    partial_sum(run.wiener, V), V = (0, N], of run = run_coupling(model, scheme,
    seed, replicate, variances, cdfs) (tests/reference.py), whose corners of V
    other than N read 0, from two passes over axis-0 slabs (see the module
    docstring), so memory follows the largest block row, not the domain.
    What every replicate of a depth shares is computed once (_corner_plan).
    """
    sigma = math.sqrt(sigma2(model))
    coupled = _coupled(scheme, variances)
    cuts, wiener_cuts, heads, blocks, keys, tops, at = _corner_plan(
        scheme, tuple(coupled), tuple(corners), _BATCH_CELLS)
    draws = stream(seed, "companion", replicate).standard_normal(len(coupled))
    field = line_segments(model, scheme.domain, seed, replicate, cuts)
    S = dict(zip(at, prefix_at(field, cuts, at).tolist()))
    etas = _couple_blocks([corner_sum(S, H.a, H.b) for H in heads], draws,
                          [variances[k] for k in coupled], [cdfs[key] for key in keys])[2]
    # the field pass is over, so the Wiener slabs reuse its slab buffer
    buf = _workspace("line", (max(np.diff(wiener_cuts)),) + scheme.domain.lengths[1:])
    slabs = _wiener_slabs(list(zip(blocks, etas.tolist())), seed, replicate, wiener_cuts, buf)
    W = prefix_at(slabs, wiener_cuts, tops)
    return [S[N] - sigma * w for N, w in zip(tops, W.tolist())]


@dataclass(frozen=True)
class BlockCouplingSample:
    """Fresh-replicate coupling draws for one block shape."""

    card: int
    sigma2: float
    tau2: float
    xi: np.ndarray
    eta: np.ndarray
    e: np.ndarray


def block_coupling_samples(
    model: FieldModel,
    h_lengths: Sequence[int],
    b_lengths: Sequence[int],
    m_cdf: int,
    m_eval: int,
    seed: int,
) -> BlockCouplingSample:
    """Estimate the shape's CDF from m_cdf draws, evaluate on m_eval fresh.

    Works on origin-anchored congruent blocks; by stationarity the law
    matches the in-scheme block of the same shape.
    """
    h_lengths = tuple(int(x) for x in h_lengths)
    b_lengths = tuple(int(x) for x in b_lengths)
    if any(h > b for h, b in zip(h_lengths, b_lengths)):
        raise ValueError("head must fit inside the block")
    d = len(b_lengths)
    B0 = Block((0,) * d, b_lengths)
    H0 = Block((0,) * d, h_lengths)
    bv = _block_variance(model, B0, H0)
    s2, t2 = bv.sigma2, bv.tau2
    if s2 <= 0 or t2 <= 0:
        raise ValueError("block shape has nonpositive head or tail variance")

    cdf = _shape_cdf(model, h_lengths, b_lengths, bv, m_cdf, seed)

    xs_eval = _anchored_xi_batch(
        model, h_lengths, b_lengths, s2, t2, seed, range(m_eval),
        field_tag=_shape_tag("eval-field", h_lengths, b_lengths),
        companion_tag=_shape_tag("eval-comp", h_lengths, b_lengths),
    )
    eta = quantile_transform(xs_eval, cdf)
    e = coupling_error(xs_eval, eta, s2, t2)
    return BlockCouplingSample(cardinality(B0), s2, t2, xs_eval, eta, e)


class Study(NamedTuple):
    """A checked S - sigma W study: what verify.approximation_error_study runs.

    plans holds (depth, scheme, variances, coupled in-cone corners) per depth.
    """

    replicates: int
    exact_phi: bool
    m_cdf: int
    bootstrap: int
    plans: list


def study_plans(
    model: FieldModel,
    depths: dom.Naturals = (8,),
    replicates: dom.Replicates2 = 100,
    alpha: dom.Exponent = 3,
    beta: dom.Exponent = 2,
    tau: dom.PositiveReal = 1.0,
    exact_phi: dom.Flag = False,
    m_cdf: dom.Natural = 10_000,
    bootstrap: dom.Resamples = 1000,
) -> Study:
    """The S - sigma W study of these settings, each declared here once.

    The one check of the study's values, run by `fieldlab couple`, and the
    input rule of approximation_error, whose checker runs the Study in its
    plan.  Raises ValueError naming the argument unless each argument lies in
    its declared domain, exact_phi is true only with Gaussian innovations,
    m_cdf is a CdfDraws on the empirical-CDF path, sigma^2 != 0, alpha, beta
    and tau pass SchemeParams, every depth's scheme fits the index range, and
    every depth has two coupled in-cone corners.
    """
    dom.check_arguments(dom.domains(study_plans), locals())
    if exact_phi:
        _check_gaussian(model)
    else:
        dom.check_value(dom.CdfDraws, m_cdf, "m_cdf")
    if sigma2(model) == 0:
        raise ValueError("the study needs sigma^2 != 0")
    params = SchemeParams(alpha=alpha, beta=beta, tau=tau)
    plans = []
    for K in depths:
        scheme = build_scheme(params, K, model.d)
        variances = scheme_variances(model, scheme)
        corners = [k for k in _coupled(scheme, variances)
                   if in_balanced_cone(scheme.corner(k), tau)]
        if len(corners) < 2:
            raise ValueError(
                f"depth {K} has {len(corners)} coupled in-cone corner(s); "
                "the slope fit needs at least two"
            )
        plans.append((K, scheme, variances, corners))
    return Study(replicates, exact_phi, m_cdf, bootstrap, plans)


def top_blocks(model: FieldModel, depths: Sequence[int], alpha: int, beta: int,
               tau: float) -> list:
    """(K, head lengths, block lengths) of the top block (K, ..., K) at each
    depth K, in the model's dimension d: the input rule of the decay claim
    coupling_error_decay, whose checker loops over the list in its plan.
    Raises ValueError unless alpha, beta and tau pass SchemeParams, every
    depth's scheme fits the index range and every top block is good."""
    params, d = SchemeParams(alpha=alpha, beta=beta, tau=tau), model.d
    out = []
    for K in depths:
        scheme = build_scheme(params, K, d)
        top = (K,) * d
        if top not in scheme.good:
            raise ValueError(f"depths: the top block is not good at depth {K} in d = {d}")
        out.append((K, scheme.head(top).lengths, scheme.block(top).lengths))
    return out
