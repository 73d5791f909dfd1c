"""Stationary lattice random-field models and their sampling.

Two model kinds: "iid" cells, and finite-support linear moving averages
X_j = sum_u a_u Z_{j-u} driven by iid innovations (standard normal, centered
exponential, or Rademacher; all standardized to mean 0 and variance 1).
Covariances, the long-run variance sigma^2 = (sum_u a_u)^2 and the
Cox-Grimmett coefficients

    theta_r = sup_j sum_{||u-j|| >= r} |cov(X_u, X_j)|
            = sum_{||u|| >= r} |cov(X_0, X_u)|   (stationarity)

are all exact finite sums over the support lags.

This module draws every field of the package and alone knows the
innovation layout: sample_block draws one replicate on a block,
sample_block_batch a stack of them, line_segments a d = 1 line by segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import Block
from .rng import stream, streams

__all__ = [
    "FieldModel",
    "iid_model",
    "linear_ma_model",
    "covariance",
    "sigma2",
    "cox_grimmett",
    "support_radius",
    "innovations",
    "sample_block",
    "sample_block_batch",
    "line_segments",
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
            if not any(a for _, a in self.coeffs):
                raise ValueError("linear_ma coefficients must not all be zero")

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

