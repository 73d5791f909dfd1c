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
innovation layout: sample_block_batch draws a stack of replicates on a
block (sample_block is one row), line_segments one replicate in axis-0 slabs.
The batched draws and slabs, the Wiener slabs of coupling and the
longdouble prefix chunks of sums run in one per-thread workspace
(_workspace): grow-only scratch arrays of at most a batch of _BATCH_CELLS
cells, or of one replicate or one Wiener block row of
coupling.corner_errors when that is larger, which a thread reuses from
task to task instead of allocating them anew.
"""

from __future__ import annotations

import math
import threading
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

# the most block cells of one batch (512 KiB of float64): a stacked batch of
# sample_block_batch, a task of verify.map_replicate_chunks, a head-sum batch
# of the CDF draws, a slab that line_segments draws for verify.check_lil or
# coupling.corner_errors, and a Wiener slab of corner_errors (there one block
# row, when that is larger).  It bounds each thread's workspace on large
# blocks, and a task is one batch.
_BATCH_CELLS = 1 << 16

_scratch = threading.local()


def _workspace(slot: str, shape, dtype=np.float64) -> np.ndarray:
    """This thread's scratch array of a slot, viewed at the given shape.

    Each slot holds one flat buffer per thread that only grows, so the
    array is reused by the next request of the slot on the same thread:
    its contents last until then.  Callers ask for a batch or one
    replicate at a time, which bounds every buffer.
    """
    n = math.prod(shape)
    buf = getattr(_scratch, slot, None)
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = np.empty(n, dtype=dtype)
        setattr(_scratch, slot, buf)
    return buf[:n].reshape(shape)


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


def innovations(gen, kind: str, out: np.ndarray) -> np.ndarray:
    """Mean-zero unit-variance iid draws of the requested kind, written into
    out (a C-contiguous float64 array) and returned.

    gen is a generator, or an iterable of generators, one per row of out:
    row i is then drawn from the i-th, and the map to mean 0 and variance 1
    is applied once to the whole stack.
    """
    if kind not in _INNOVATIONS:
        raise ValueError(f"unknown innovation kind {kind!r}")
    rows = ((out, gen),) if isinstance(gen, np.random.Generator) else zip(out, gen)
    for row, g in rows:  # out first: zip must not advance gen past the last row
        if kind == "normal":
            g.standard_normal(out=row)
        elif kind == "exponential":
            g.standard_exponential(out=row)
        else:
            row[...] = g.integers(0, 2, size=row.shape)
    if kind == "rademacher":
        out *= 2.0
    if kind != "normal":
        out -= 1.0
    return out


def _dilation(model: FieldModel):
    """Per-axis innovation index range needed to evaluate X on (a, b]."""
    sup = model.support
    lo = [min(u[s] for u in sup) for s in range(model.d)]
    hi = [max(u[s] for u in sup) for s in range(model.d)]
    return lo, hi


def _field_from_innovations(model: FieldModel, z: np.ndarray, lengths, *, out) -> np.ndarray:
    """Evaluate the moving average on a block into out, given the dilated grid.

    z has shape lengths + (hi - lo) per axis and is anchored so that grid
    offset 0 holds the innovation for the lowest index the largest lag can
    reach; cell offset o then reads z at o + (hi - u) for each lag u.  The
    first lag is written straight into out and each further one is added
    through one reused temporary; the closing + 0.0 turns a -0.0 into +0.0,
    which gives the bits of zeros + sum_u a_u z, as a sum started from +0.0
    never rounds to -0.0.
    """
    _, hi = _dilation(model)
    lead = (slice(None),) * (z.ndim - model.d)

    def lagged(u):
        return z[lead + tuple(
            slice(hi[s] - u[s], hi[s] - u[s] + lengths[s]) for s in range(model.d)
        )]

    (u0, a0), *rest = model.kernel.items()
    np.multiply(a0, lagged(u0), out=out)
    if rest:
        tmp = _workspace("lag", out.shape)
        for u, a in rest:
            out += np.multiply(a, lagged(u), out=tmp)
    out += 0.0
    return out


def _innovation_shape(model: FieldModel, lengths) -> tuple[int, ...]:
    lo, hi = _dilation(model)
    return tuple(lengths[s] + (hi[s] - lo[s]) for s in range(model.d))


def sample_block(model: FieldModel, block: Block, seed: int, replicate: int = 0) -> np.ndarray:
    """One replicate of the field on a block: row 0 of sample_block_batch."""
    return sample_block_batch(model, block, seed, range(replicate, replicate + 1))[0]


def sample_block_batch(
    model: FieldModel,
    block: Block,
    seed: int,
    replicates: range,
    tag: str = "field",
) -> np.ndarray:
    """Stack of replicates, shape (len(replicates),) + block.lengths.

    Replicate r is drawn from its own stream (seed, tag, r), so any chunking
    of the replicate range is equivalent.  Each replicate's innovations are
    drawn straight into its row of the thread's stacked innovation grid;
    the map to mean 0 and the moving average are applied to the returned
    stack once per batch of at most _BATCH_CELLS block cells (never less
    than one replicate).  The stack is a new array.
    """
    if block.d != model.d:
        raise ValueError("block dimension does not match the model")
    lens = block.lengths
    zshape = _innovation_shape(model, lens)
    n = len(replicates)
    out = np.empty((n,) + tuple(lens), dtype=np.float64)
    batch = max(1, min(n, _BATCH_CELLS // math.prod(lens)))
    z = _workspace("innovations", (batch,) + zshape)
    gens = streams(seed, tag, replicates)
    for s in range(0, n, batch):
        k = min(batch, n - s)
        innovations(gens, model.innovation, z[:k])
        _field_from_innovations(model, z[:k], lens, out=out[s : s + k])
    return out


def line_segments(model: FieldModel, block: Block, seed: int, replicate: int,
                  cuts: Sequence[int], tag: str = "field"):
    """One replicate of the field on a block, yielded in axis-0 slabs.

    Slab i is the field on the rows (cuts[i], cuts[i+1]] of the block, whose
    axis 0 is (cuts[0], cuts[-1]], bitwise that slice of the replicate's row
    of sample_block_batch with the tag: the innovations are drawn from the same
    stream in C order, and only the overlap rows of the moving average carry
    to the next slab, so memory is set by the largest slab, not the block.
    The slabs share one reused buffer of the thread: a yielded slab is valid
    only until the next one is yielded, and a thread draws one block at a time.
    """
    gen = stream(seed, tag, replicate)
    zshape, rest = _innovation_shape(model, block.lengths), block.lengths[1:]
    width = zshape[0] - block.lengths[0]
    longest = max(b - a for a, b in zip(cuts, cuts[1:]))
    z = _workspace("segment", (longest + width,) + zshape[1:])
    x = _workspace("line", (longest,) + rest)
    innovations(gen, model.innovation, z[:width])
    for a, b in zip(cuts, cuts[1:]):
        n = b - a
        innovations(gen, model.innovation, z[width : width + n])
        yield _field_from_innovations(model, z[: width + n], (n,) + rest, out=x[:n])
        z[:width] = z[n : n + width]
