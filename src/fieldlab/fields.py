"""Stationary lattice random-field models and dependence diagnostics.

Two model kinds: "iid" cells, and finite-support linear moving averages
X_j = sum_u a_u Z_{j-u} driven by iid innovations (standard normal, centered
exponential, or Rademacher; all standardized to mean 0 and variance 1).
Covariances, the long-run variance sigma^2 = (sum_u a_u)^2 and the
Cox-Grimmett coefficients

    theta_r = sup_j sum_{||u-j|| >= r} |cov(X_u, X_j)|
            = sum_{||u|| >= r} |cov(X_0, X_u)|   (stationarity)

are all exact finite sums over the support lags.  The empirical dependence
test draws random clamped-linear Lipschitz pairs and checks the covariance
inequality

    |cov(f(X_I), g(X_J))| <= Lip(f) Lip(g) min(|I|, |J|) theta_r,

r = dist(I, J), against Monte Carlo error; the noise test repeats it for
X + Y with Y an independent iid field, reusing the theta of X alone.

This module draws every field of the package and alone knows the
innovation layout: sample_block draws one replicate on a block,
sample_block_batch a stack of them, line_segments a d = 1 line by segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import Block, dist
from .rng import stream, streams

__all__ = [
    "FieldModel",
    "ThetaSequence",
    "DependencePair",
    "DependenceReport",
    "iid_model",
    "linear_ma_model",
    "covariance",
    "sigma2",
    "cox_grimmett",
    "support_radius",
    "theta_sequence",
    "innovations",
    "sample_block",
    "sample_block_batch",
    "line_segments",
    "empirical_dependence_test",
]

_INNOVATIONS = ("normal", "exponential", "rademacher")

# block cells per stacked batch of sample_block_batch, per task of
# verify.map_replicate_chunks and per slab of coupling.corner_errors, which
# line_segments draws (512 KiB of float64): keeps each thread's buffers small
# on large blocks, and a task is one batch
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class FieldModel:
    """Stationary field: iid cells or a finite-support linear moving average."""

    kind: str
    d: int
    innovation: str = "normal"
    # lag tuple -> coefficient; None means the iid kernel {0: 1}
    coeffs: tuple[tuple[tuple[int, ...], float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("iid", "linear_ma"):
            raise ValueError("kind must be 'iid' or 'linear_ma'")
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.innovation not in _INNOVATIONS:
            raise ValueError(f"innovation must be one of {_INNOVATIONS}")
        if self.kind == "iid":
            if self.coeffs is not None:
                raise ValueError("iid model takes no coefficients")
        else:
            if not self.coeffs:
                raise ValueError("linear_ma model needs a nonempty coefficient map")
            seen = set()
            for lag, a in self.coeffs:
                if len(lag) != self.d:
                    raise ValueError("coefficient lag dimension mismatch")
                if lag in seen:
                    raise ValueError("duplicate coefficient lag")
                if not math.isfinite(a):
                    raise ValueError("coefficients must be finite")
                seen.add(lag)

    @property
    def support(self) -> list[tuple[int, ...]]:
        if self.kind == "iid":
            return [(0,) * self.d]
        return [lag for lag, _ in self.coeffs]

    @property
    def kernel(self) -> dict[tuple[int, ...], float]:
        if self.kind == "iid":
            return {(0,) * self.d: 1.0}
        return dict(self.coeffs)


def iid_model(d: int, innovation: str = "normal") -> FieldModel:
    return FieldModel(kind="iid", d=d, innovation=innovation)


def linear_ma_model(
    d: int, coeffs: Mapping[Sequence[int], float], innovation: str = "normal"
) -> FieldModel:
    items = tuple(sorted((tuple(int(c) for c in lag), float(a)) for lag, a in coeffs.items()))
    return FieldModel(kind="linear_ma", d=d, innovation=innovation, coeffs=items)


def _cov_lags(model: FieldModel) -> dict[tuple[int, ...], float]:
    """All nonzero covariance lags: c(l) = sum_u a_u a_{u+l}."""
    k = model.kernel
    out: dict[tuple[int, ...], float] = {}
    for u1, a1 in k.items():
        for u2, a2 in k.items():
            lag = tuple(x - y for x, y in zip(u2, u1))
            out[lag] = out.get(lag, 0.0) + a1 * a2
    return {lag: c for lag, c in out.items() if c != 0.0}


def covariance(model: FieldModel, lag: Sequence[int]) -> float:
    """Exact cov(X_0, X_lag)."""
    lag = tuple(int(x) for x in lag)
    if len(lag) != model.d:
        raise ValueError("lag dimension mismatch")
    return _cov_lags(model).get(lag, 0.0)


def sigma2(model: FieldModel) -> float:
    """Long-run variance: the exact sum of covariances over all lags."""
    return float(sum(_cov_lags(model).values()))


def cox_grimmett(model: FieldModel, r: int) -> float:
    """theta_r: total absolute covariance at sup-norm distance >= r."""
    if r < 0:
        raise ValueError("distance must be nonnegative")
    return float(
        sum(abs(c) for lag, c in _cov_lags(model).items() if max(abs(x) for x in lag) >= r)
    )


def support_radius(model: FieldModel) -> int:
    """Largest sup-norm lag with nonzero covariance; theta_r = 0 beyond it."""
    lags = _cov_lags(model)
    if not lags:
        return 0
    return max(max(abs(x) for x in lag) for lag in lags)


@dataclass(frozen=True)
class ThetaSequence:
    """Dependence coefficients theta_r for r = 0..r_max."""

    values: tuple[float, ...]

    def __getitem__(self, r: int) -> float:
        if r < len(self.values):
            return self.values[r]
        return 0.0


def theta_sequence(model: FieldModel, r_max: int) -> ThetaSequence:
    vals = tuple(cox_grimmett(model, r) for r in range(r_max + 1))
    if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
        raise AssertionError("theta_r must be nonincreasing in r")
    return ThetaSequence(values=vals)


# --------------------------------------------------------------------------
# sampling


def innovations(gen: np.random.Generator, shape, kind: str) -> np.ndarray:
    """Mean-zero unit-variance iid draws of the requested kind."""
    if kind == "normal":
        return gen.standard_normal(shape)
    if kind == "exponential":
        return gen.standard_exponential(shape) - 1.0
    if kind == "rademacher":
        return gen.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    raise ValueError(f"unknown innovation kind {kind!r}")


def _dilation(model: FieldModel):
    """Per-axis innovation index range needed to evaluate X on (a, b]."""
    sup = model.support
    lo = [min(u[s] for u in sup) for s in range(model.d)]
    hi = [max(u[s] for u in sup) for s in range(model.d)]
    return lo, hi


def _field_from_innovations(model: FieldModel, z: np.ndarray, lengths) -> np.ndarray:
    """Evaluate the moving average on a block given the dilated innovation grid.

    z has shape lengths + (hi - lo) per axis and is anchored so that grid
    offset 0 holds the innovation for the lowest index the largest lag can
    reach; cell offset o then reads z at o + (hi - u) for each lag u.
    """
    _, hi = _dilation(model)
    out = np.zeros(z.shape[: z.ndim - model.d] + tuple(lengths), dtype=np.float64)
    lead = (slice(None),) * (z.ndim - model.d)
    for u, a in model.kernel.items():
        sl = tuple(
            slice(hi[s] - u[s], hi[s] - u[s] + lengths[s]) for s in range(model.d)
        )
        out += a * z[lead + sl]
    return out


def _innovation_shape(model: FieldModel, lengths) -> tuple[int, ...]:
    lo, hi = _dilation(model)
    return tuple(lengths[s] + (hi[s] - lo[s]) for s in range(model.d))


def sample_block(
    model: FieldModel, block: Block, seed: int, replicate: int = 0, tag: str = "field"
) -> np.ndarray:
    """One replicate of the field on a block, shape = block.lengths."""
    if block.d != model.d:
        raise ValueError("block dimension does not match the model")
    lens = block.lengths
    gen = stream(seed, tag, replicate)
    z = innovations(gen, _innovation_shape(model, lens), model.innovation)
    return _field_from_innovations(model, z, lens)


def sample_block_batch(
    model: FieldModel,
    block: Block,
    seed: int,
    replicates: range,
    tag: str = "field",
) -> np.ndarray:
    """Stack of replicates, shape (len(replicates),) + block.lengths.

    Row r is bitwise identical to sample_block(..., replicate=r) regardless
    of batching, so any chunking of the replicate range is equivalent.
    Innovations are drawn per replicate into a stacked grid, and the moving
    average is evaluated once per batch of at most _BATCH_CELLS block cells
    (never less than one replicate).
    """
    lens = block.lengths
    zshape = _innovation_shape(model, lens)
    n = len(replicates)
    out = np.empty((n,) + tuple(lens), dtype=np.float64)
    batch = max(1, _BATCH_CELLS // math.prod(lens))
    gens = streams(seed, tag, replicates)
    for s in range(0, n, batch):
        z = np.empty((min(batch, n - s),) + zshape, dtype=np.float64)
        for i, gen in zip(range(len(z)), gens):
            z[i] = innovations(gen, zshape, model.innovation)
        out[s : s + len(z)] = _field_from_innovations(model, z, lens)
    return out


def line_segments(model: FieldModel, seed: int, replicate: int, cuts: Sequence[int]):
    """One d = 1 replicate of the field, yielded segment by segment.

    Segment i is the field on (cuts[i], cuts[i+1]], bitwise the slice of
    sample_block(model, Block((cuts[0],), (cuts[-1],)), seed, replicate)
    over it: the innovations are drawn from the same stream in order, and
    only their moving-average overlap carries to the next segment, so memory
    is set by the longest segment, not by the line.
    """
    gen = stream(seed, "field", replicate)
    lo, hi = _dilation(model)
    width = hi[0] - lo[0]
    z = innovations(gen, width, model.innovation)
    for a, b in zip(cuts, cuts[1:]):
        z = np.concatenate([z[len(z) - width :], innovations(gen, b - a, model.innovation)])
        yield _field_from_innovations(model, z, (b - a,))


# --------------------------------------------------------------------------
# dependence diagnostics


@dataclass(frozen=True)
class DependencePair:
    """One random clamped-linear test pair and its measured covariance."""

    cov_estimate: float
    cov_se: float
    bound: float
    ratio: float | None  # None when the analytic bound is zero
    passed: bool


@dataclass(frozen=True)
class DependenceReport:
    r: int
    theta_r: float
    lip_product_scale: float
    pairs: tuple[DependencePair, ...]
    max_ratio: float | None
    passed: bool


def _clamped_linear(values: np.ndarray, coef: np.ndarray) -> np.ndarray:
    return np.clip(values @ coef, -1.0, 1.0)


def _draw_coefficients(gen: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """Uniform coefficients normalized to unit l1 mass; exact Lip = max |c_i|."""
    c = gen.uniform(-1.0, 1.0, n)
    s = np.abs(c).sum()
    if s == 0.0:
        c[0] = 1.0
        s = 1.0
    c = c / s
    return c, float(np.abs(c).max())


def empirical_dependence_test(
    model: FieldModel,
    I: Sequence[Sequence[int]],
    J: Sequence[Sequence[int]],
    pairs: int,
    replicates: int,
    seed: int,
    noise: str | None = None,
    theta: ThetaSequence | None = None,
) -> DependenceReport:
    """Monte Carlo check of the covariance inequality on (I, J).

    Draws `pairs` random clamped-linear (f, g) couples, estimates
    cov(f(X_I), g(X_J)) over `replicates` field draws, and compares to
    Lip(f) Lip(g) min(|I|,|J|) theta_r at r = dist(I, J).  When noise is
    given, an independent iid field of that innovation kind is added to X
    while the bound keeps the theta of X alone.  A pair passes when its
    ratio is at most 1 + 3 standard errors (or, for a zero bound, when the
    estimate is within 3 standard errors of zero).
    """
    if isinstance(I, Block):
        I = list(I.points())
    if isinstance(J, Block):
        J = list(J.points())
    pts_i = np.asarray([tuple(p) for p in I], dtype=np.int64)
    pts_j = np.asarray([tuple(p) for p in J], dtype=np.int64)
    if pts_i.ndim == 1:
        pts_i = pts_i[:, None]
    if pts_j.ndim == 1:
        pts_j = pts_j[:, None]
    r = dist(pts_i, pts_j)
    th = (theta if theta is not None else theta_sequence(model, r + 1))[r]

    both = np.concatenate([pts_i, pts_j], axis=0)
    low = both.min(axis=0)
    box = Block(tuple(low - 1), tuple(both.max(axis=0)))
    vals = sample_block_batch(model, box, seed, range(replicates), tag="dep-field")
    if noise is not None:
        noise_model = iid_model(model.d, innovation=noise)
        vals = vals + sample_block_batch(
            noise_model, box, seed, range(replicates), tag="dep-noise"
        )
    vals = vals[(slice(None),) + tuple(both.T - low[:, None])]
    xi = vals[:, : len(pts_i)]
    xj = vals[:, len(pts_i) :]

    scale = float(min(len(pts_i), len(pts_j))) * th
    out = []
    for t in range(pairs):
        cf, lip_f = _draw_coefficients(stream(seed, "dep-lip", 2 * t), len(pts_i))
        cg, lip_g = _draw_coefficients(stream(seed, "dep-lip", 2 * t + 1), len(pts_j))
        f = _clamped_linear(xi, cf)
        g = _clamped_linear(xj, cg)
        prod = (f - f.mean()) * (g - g.mean())
        m = replicates
        est = float(prod.sum() / (m - 1))
        se = float(prod.std(ddof=1) / math.sqrt(m))
        bound = lip_f * lip_g * scale
        if bound > 0:
            ratio = abs(est) / bound
            ok = abs(est) <= bound + 3 * se
        else:
            ratio = None
            ok = abs(est) <= 3 * se
        out.append(DependencePair(est, se, bound, ratio, ok))
    ratios = [p.ratio for p in out if p.ratio is not None]
    return DependenceReport(
        r=r,
        theta_r=th,
        lip_product_scale=scale,
        pairs=tuple(out),
        max_ratio=max(ratios) if ratios else None,
        passed=all(p.passed for p in out),
    )

