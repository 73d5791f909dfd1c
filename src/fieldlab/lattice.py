"""Integer-lattice blocks and index geometry.

A block is a half-open rectangle (a, b] in Z^d: the set of integer points j
with a_s < j_s <= b_s in every coordinate.  Distances between index sets are
sup-norm distances.  The balanced cone restricts attention to multi-indices
whose coordinates grow at commensurate rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

__all__ = [
    "Block",
    "cardinality",
    "dist",
    "in_balanced_cone",
    "block_in_balanced_cone",
    "inv_norm_sum",
    "inv_norm_sum_bound",
]

# Cardinalities and coordinates must stay well inside int64 so that grids,
# prefix arrays and linear indices never wrap.
_INT_CAP = 2**62


@dataclass(frozen=True)
class Block:
    """Half-open integer rectangle (a, b] in Z^d."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        b = tuple(int(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or not a:
            raise ValueError("corner dimensions differ or are empty")
        for lo, hi in zip(a, b):
            if not (-_INT_CAP < lo < hi < _INT_CAP):
                raise ValueError(f"degenerate or oversized block: a={a} b={b}")
        cardinality(self)  # raises OverflowError past _INT_CAP

    @property
    def d(self) -> int:
        return len(self.a)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.a, self.b))

    def contains_block(self, other: "Block") -> bool:
        return all(
            so >= lo and eo <= hi
            for lo, hi, so, eo in zip(self.a, self.b, other.a, other.b)
        )

    def corners(self) -> list[tuple[int, ...]]:
        """All 2^d lattice corners: per axis either the least point a_s+1 or b_s."""
        return [tuple(pt) for pt in product(*[(lo + 1, hi) for lo, hi in zip(self.a, self.b)])]

    def points(self) -> np.ndarray:
        """Enumerate the lattice points, one row each (small blocks only)."""
        axes = [np.arange(lo + 1, hi + 1) for lo, hi in zip(self.a, self.b)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def cardinality(block: Block) -> int:
    n = 1
    for lo, hi in zip(block.a, block.b):
        n *= hi - lo
    if n >= _INT_CAP:
        raise OverflowError("cardinality exceeds the supported index range")
    return n


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, Block):
        return obj.points()
    pts = np.asarray(list(obj) if not isinstance(obj, np.ndarray) else obj, dtype=np.int64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("empty index set has no distance")
    return pts


def dist(I, J) -> int:
    """Sup-norm distance between two finite index sets (or blocks)."""
    pi, pj = _as_points(I), _as_points(J)
    if pi.shape[1] != pj.shape[1]:
        raise ValueError("index sets live in different dimensions")
    diff = np.abs(pi[:, None, :] - pj[None, :, :]).max(axis=2)
    return int(diff.min())


def in_balanced_cone(j: Sequence[int], tau: float) -> bool:
    """Is every coordinate >= (product of the others)^tau?

    The cone of multi-indices with mutually commensurate coordinates; for
    d = 1 the empty product makes all of j >= 1 members.  Larger tau means a
    narrower cone: membership is monotone decreasing in tau.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    j = tuple(int(x) for x in j)
    if any(x < 1 for x in j):
        return False
    total = math.prod(j)
    return all(x >= (total // x) ** tau for x in j)


def block_in_balanced_cone(block: Block, tau: float) -> bool:
    """Exact membership test B subset of the cone via the 2^d corners.

    Each cone constraint is monotone per coordinate (binding at the corner
    with the smallest own coordinate and the largest others), so all corners
    passing is equivalent to the whole block passing.
    """
    return all(in_balanced_cone(c, tau) for c in block.corners())


def inv_norm_sum(U: Block, i: Sequence[int], nu: float) -> float:
    """Exact sum of ||i - j||^-nu over j in U, j != i (sup-norm)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    pts = U.points()
    r = np.abs(pts - np.asarray(i, dtype=np.int64)).max(axis=1)
    r = r[r > 0]
    return float(np.sum(r.astype(np.float64) ** (-nu)))


def inv_norm_sum_bound(card: float, d: int, nu: float) -> float:
    """Shape function for the inverse-distance sum, up to a constant.

    |U|^(1-nu/d) below the critical power, an extra (1 + log|U|) factor at
    integer powers up to d, and 1 once nu exceeds the dimension.
    """
    if card < 1 or d < 1 or nu <= 0:
        raise ValueError("need card >= 1, d >= 1, nu > 0")
    if nu > d:
        return 1.0
    if float(nu).is_integer():
        return (1.0 + math.log(card)) * card ** (1.0 - nu / d)
    return card ** (1.0 - nu / d)
