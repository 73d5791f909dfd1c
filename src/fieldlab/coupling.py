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
an empirical CDF estimated once per block shape.  The Wiener grid holds
standard normal unit-cell increments, conditioned inside good blocks so
that W(B_k) = sqrt(|B_k|) eta_k exactly.

All randomness is drawn from counter-based streams keyed by (seed, tag,
replicate), so a run is a pure function of (model, scheme, seed, replicate)
and any batching of replicates is equivalent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from .fields import FieldModel, sample_block, sample_block_batch, sigma2
from .lattice import Block, block_in_balanced_cone, cardinality, in_balanced_cone
from .rng import stream
from .sums import SampleGrid, block_cov, block_var, make_grid, partial_sum
from .theory import SchemeParams, block_boundary

__all__ = [
    "BlockScheme",
    "build_scheme",
    "GoodSpan",
    "good_span",
    "BlockVariance",
    "scheme_variances",
    "block_sums",
    "xi",
    "EmpiricalCdf",
    "estimate_cdf",
    "quantile_transform",
    "coupling_error",
    "cdf_table",
    "CouplingRun",
    "run_coupling",
    "build_wiener",
    "wiener_sum",
    "decomposition_terms",
    "BlockCouplingSample",
    "block_coupling_samples",
    "coupling_error_decay_study",
    "approximation_error_study",
]


@dataclass(frozen=True)
class BlockScheme:
    """Tiling of (0, n_K]^d into head/tail blocks with a good-block set."""

    params: SchemeParams
    d: int
    K: int
    boundaries: tuple[int, ...]
    good: frozenset

    def indices(self):
        return itertools.product(range(1, self.K + 1), repeat=self.d)

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
    """Materialize boundaries and the good-block set for depth K.

    A block is good when all 2^d of its corner points lie in the balanced
    cone at rho = tau/8 (the corner test is exact: each cone constraint
    binds at one corner).  For d = 1 every block is good.
    """
    if K < 1:
        raise ValueError("scheme depth K must be at least 1")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    boundaries = tuple(block_boundary(params.alpha, params.beta, l) for l in range(K + 1))
    scheme = BlockScheme(params, d, K, boundaries, frozenset())
    good = frozenset(
        k for k in scheme.indices() if block_in_balanced_cone(scheme.block(k), params.rho)
    )
    return BlockScheme(params, d, K, boundaries, good)


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


def block_sums(grid: SampleGrid, scheme: BlockScheme) -> tuple[dict, dict]:
    """Head sums u_k = S(H_k) and tail sums v_k = S(B_k) - u_k per block."""
    if not grid.block.contains_block(scheme.domain):
        raise ValueError("grid does not cover the scheme domain")
    u, v = {}, {}
    for k in scheme.indices():
        u[k] = partial_sum(grid, scheme.head(k))
        v[k] = partial_sum(grid, scheme.block(k)) - u[k]
    return u, v


def xi(u: float, w: float, s2: float, t2: float):
    """Standardized head-plus-companion value (u + w)/sqrt(s2 + t2)."""
    total = s2 + t2
    if total <= 0:
        raise ValueError("total variance must be positive")
    return (u + w) / math.sqrt(total)


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

    def __call__(self, x):
        m = self.xs.size
        fs = (np.arange(1, m + 1) - 0.5) / m
        return np.interp(x, self.xs, fs)


def estimate_cdf(values: Sequence[float]) -> EmpiricalCdf:
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size < 100:
        raise ValueError("CDF estimation needs at least 100 values")
    return EmpiricalCdf(values)


def quantile_transform(x, cdf) -> np.ndarray:
    """Normal-quantile remap PhiInv(F(x)); finite by the CDF clamp."""
    return ndtri(cdf(x))


def coupling_error(xi_val, eta_val, s2: float, t2: float):
    return math.sqrt(s2 + t2) * (np.asarray(xi_val) - np.asarray(eta_val))


def _shape_key(scheme: BlockScheme, k) -> tuple:
    return (scheme.head(k).lengths, scheme.block(k).lengths)


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
    """xi draws for a block shape, sampled at the origin (stationarity)."""
    d = len(b_lengths)
    B0 = Block((0,) * d, tuple(b_lengths))
    vals = sample_block_batch(model, B0, seed, replicates, tag=field_tag)
    head = (slice(None),) + tuple(slice(0, h) for h in h_lengths)
    u = vals[head].reshape(len(replicates), -1).sum(axis=1)
    w = np.empty(len(replicates))
    for i, rep in enumerate(replicates):
        w[i] = stream(seed, companion_tag, rep).standard_normal()
    return (u + w * math.sqrt(t2)) / math.sqrt(s2 + t2)


def _shape_cdf(model: FieldModel, h_lengths, b_lengths, bv: BlockVariance, m: int,
               seed: int) -> EmpiricalCdf:
    """Empirical xi CDF of one block shape from m origin-anchored draws."""
    xs = _anchored_xi_batch(
        model, h_lengths, b_lengths, bv.sigma2, bv.tau2, seed, range(m),
        field_tag=_shape_tag("cdf-field", h_lengths, b_lengths),
        companion_tag=_shape_tag("cdf-comp", h_lengths, b_lengths),
    )
    return estimate_cdf(xs)


def cdf_table(
    model: FieldModel,
    scheme: BlockScheme,
    variances: Mapping,
    m: int,
    seed: int,
) -> dict:
    """Empirical xi CDFs keyed by block shape, one table per distinct shape.

    Estimation samples are origin-anchored congruent blocks, so the table
    depends only on (model, shape, m, seed) and is shared across schemes.
    Blocks with tau^2 <= 0 are skipped.
    """
    out = {}
    for k in scheme.indices():
        key = _shape_key(scheme, k)
        if key in out:
            continue
        bv = variances[k]
        if bv.tau2 <= 0:
            continue
        out[key] = _shape_cdf(model, key[0], key[1], bv, m, seed)
    return out


@dataclass(frozen=True)
class CouplingRun:
    """One replicate of the full coupling pipeline on a scheme domain."""

    model: FieldModel
    scheme: BlockScheme
    seed: int
    replicate: int
    exact_phi: bool
    sigma: float
    field: SampleGrid
    wiener: SampleGrid
    variances: dict
    coupled: tuple
    low_variance: tuple
    u: dict
    v: dict
    w: dict
    xi: dict
    eta: dict
    e: dict


def run_coupling(
    model: FieldModel,
    scheme: BlockScheme,
    seed: int,
    replicate: int = 0,
    variances: Mapping | None = None,
    cdfs: Mapping | None = None,
    m_cdf: int = 10_000,
    exact_phi: bool = False,
) -> CouplingRun:
    """Sample one replicate and couple every good block.

    With exact_phi the quantile transform is skipped (eta = xi), valid when
    xi is exactly standard normal, which requires Gaussian innovations.
    Otherwise per-shape empirical CDFs are taken from cdfs or estimated from
    m_cdf dedicated replicates.  Good blocks whose tail variance is
    nonpositive are left uncoupled and reported in low_variance.
    """
    if model.d != scheme.d:
        raise ValueError("model dimension does not match the scheme")
    if exact_phi and model.innovation != "normal":
        raise ValueError("the exact-CDF shortcut requires Gaussian innovations")
    if variances is None:
        variances = scheme_variances(model, scheme)
    if cdfs is None and not exact_phi:
        cdfs = cdf_table(model, scheme, variances, m_cdf, seed)

    grid = make_grid(scheme.domain, sample_block(model, scheme.domain, seed, replicate))
    u, v = block_sums(grid, scheme)

    good = sorted(scheme.good)
    coupled = tuple(k for k in good if variances[k].tau2 > 0)
    low_variance = tuple(k for k in good if variances[k].tau2 <= 0)

    gen = stream(seed, "companion", replicate)
    draws = gen.standard_normal(len(coupled))
    w, xis, etas, errs = {}, {}, {}, {}
    for k, z in zip(coupled, draws):
        bv = variances[k]
        w[k] = z * math.sqrt(bv.tau2)
        xis[k] = xi(u[k], w[k], bv.sigma2, bv.tau2)
        if exact_phi:
            etas[k] = xis[k]
        else:
            etas[k] = float(quantile_transform(xis[k], cdfs[_shape_key(scheme, k)]))
        errs[k] = float(coupling_error(xis[k], etas[k], bv.sigma2, bv.tau2))

    Z = build_wiener(scheme, etas, seed, replicate, coupled=coupled)
    return CouplingRun(
        model=model,
        scheme=scheme,
        seed=seed,
        replicate=replicate,
        exact_phi=exact_phi,
        sigma=math.sqrt(sigma2(model)),
        field=grid,
        wiener=make_grid(scheme.domain, Z),
        variances=dict(variances),
        coupled=coupled,
        low_variance=low_variance,
        u=u,
        v=v,
        w=w,
        xi=xis,
        eta=etas,
        e=errs,
    )


def build_wiener(
    scheme: BlockScheme,
    etas: Mapping,
    seed: int,
    replicate: int = 0,
    coupled: Sequence | None = None,
) -> np.ndarray:
    """Unit-cell standard normal increments, conditioned on good blocks.

    Cells start as iid N(0,1).  Inside each coupled block the increments
    are recentered and shifted, Z = eta/sqrt(|B|) + (zeta - mean(zeta)), so
    the block total is sqrt(|B|) eta exactly while, for exactly normal eta,
    cell variances and covariances stay those of white noise.
    """
    coupled = sorted(etas) if coupled is None else coupled
    missing = [k for k in coupled if k not in etas]
    if missing:
        raise ValueError(f"missing eta for blocks {missing}")
    gen = stream(seed, "wiener", replicate)
    Z = gen.standard_normal(scheme.domain.lengths)
    for k in coupled:
        B = scheme.block(k)
        sl = tuple(slice(a, b) for a, b in zip(B.a, B.b))
        zeta = Z[sl]
        Z[sl] = etas[k] / math.sqrt(cardinality(B)) + (zeta - zeta.mean())
    return Z


def wiener_sum(run: CouplingRun, V: Block) -> float:
    return partial_sum(run.wiener, V)


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


@dataclass(frozen=True)
class BlockCouplingSample:
    """Fresh-replicate coupling draws for one block shape."""

    h_lengths: tuple[int, ...]
    b_lengths: tuple[int, ...]
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
    exact_phi: bool = False,
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

    if exact_phi:
        if model.innovation != "normal":
            raise ValueError("the exact-CDF shortcut requires Gaussian innovations")
        cdf = None
    else:
        cdf = _shape_cdf(model, h_lengths, b_lengths, bv, m_cdf, seed)

    xs_eval = _anchored_xi_batch(
        model, h_lengths, b_lengths, s2, t2, seed, range(m_eval),
        field_tag=_shape_tag("eval-field", h_lengths, b_lengths),
        companion_tag=_shape_tag("eval-comp", h_lengths, b_lengths),
    )
    eta = xs_eval if cdf is None else quantile_transform(xs_eval, cdf)
    e = coupling_error(xs_eval, eta, s2, t2)
    return BlockCouplingSample(
        h_lengths, b_lengths, cardinality(B0), s2, t2, xs_eval, eta, e
    )


def coupling_error_decay_study(
    model: FieldModel,
    depths: Sequence[int],
    m_cdf: int,
    m_eval: int,
    seed: int,
    alpha: int = 3,
    beta: int = 2,
    tau: float = 1.0,
) -> list[dict]:
    """Mean squared coupling error of the top block across scheme depths.

    Returns one row per depth with E e^2 normalized by the block volume;
    the normalized value should fall as blocks grow.
    """
    params = SchemeParams(alpha=alpha, beta=beta, tau=tau, gamma0=1.0)
    rows = []
    for K in depths:
        scheme = build_scheme(params, K, model.d)
        top = (K,) * model.d
        if top not in scheme.good:
            raise ValueError(f"top block is not good at depth {K}")
        sample = block_coupling_samples(
            model,
            scheme.head(top).lengths,
            scheme.block(top).lengths,
            m_cdf,
            m_eval,
            seed,
        )
        e2 = sample.e**2
        mean_e2 = float(e2.mean())
        rows.append(
            {
                "depth": K,
                "card": sample.card,
                "sigma2": sample.sigma2,
                "tau2": sample.tau2,
                "mean_e2": mean_e2,
                "se_e2": float(e2.std(ddof=1) / math.sqrt(m_eval)),
                "mean_e2_per_cell": mean_e2 / sample.card,
            }
        )
    return rows


def approximation_error_study(
    model: FieldModel,
    depths: Sequence[int],
    replicates: int,
    seed: int,
    alpha: int = 3,
    beta: int = 2,
    tau: float = 1.0,
    exact_phi: bool = False,
    m_cdf: int = 10_000,
    bootstrap: int = 1000,
    level: float = 0.90,
) -> list[dict]:
    """Log-log decay rate of the partial-sum vs Wiener discrepancy.

    For each depth, couples `replicates` independent runs, measures
    err = S(0, N] - sigma W(0, N] at every good in-cone corner N, and
    regresses log median|err| on log volume.  The slope's bootstrap
    confidence interval (over replicates) is attached per depth.
    """
    if sigma2(model) == 0:
        raise ValueError("the study needs sigma^2 != 0")
    params = SchemeParams(alpha=alpha, beta=beta, tau=tau, gamma0=1.0)
    out = []
    for K in depths:
        scheme = build_scheme(params, K, model.d)
        variances = scheme_variances(model, scheme)
        cdfs = None
        if not exact_phi:
            cdfs = cdf_table(model, scheme, variances, m_cdf, seed)
        corners = [
            k
            for k in sorted(scheme.good)
            if variances[k].tau2 > 0 and in_balanced_cone(scheme.corner(k), tau)
        ]
        cards = np.array(
            [cardinality(Block((0,) * model.d, scheme.corner(k))) for k in corners],
            dtype=np.float64,
        )
        errs = np.empty((replicates, len(corners)))
        for rep in range(replicates):
            run = run_coupling(
                model, scheme, seed, rep,
                variances=variances, cdfs=cdfs, exact_phi=exact_phi,
            )
            for i, k in enumerate(corners):
                V = Block((0,) * model.d, scheme.corner(k))
                errs[rep, i] = partial_sum(run.field, V) - run.sigma * wiener_sum(run, V)

        logn = np.log(cards)
        med = np.median(np.abs(errs), axis=0)
        slope = float(np.polyfit(logn, np.log(med), 1)[0])

        gen = stream(seed, "bootstrap", 0)
        draws = gen.integers(0, replicates, size=(bootstrap, replicates))
        slopes = np.empty(bootstrap)
        for b in range(bootstrap):
            m_b = np.median(np.abs(errs[draws[b]]), axis=0)
            slopes[b] = np.polyfit(logn, np.log(m_b), 1)[0]
        lo, hi = np.quantile(slopes, [(1 - level) / 2, (1 + level) / 2])
        out.append(
            {
                "depth": K,
                "corners": [scheme.corner(k) for k in corners],
                "cards": cards.tolist(),
                "median_abs_err": med.tolist(),
                "slope": slope,
                "ci_low": float(lo),
                "ci_high": float(hi),
                "level": level,
                "replicates": replicates,
            }
        )
    return out

