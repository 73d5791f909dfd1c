"""fieldlab.normal against scipy.special, bit for bit.

scipy.special's ndtr and ndtri compile the same Cephes algorithms, so the
port must return the same doubles.  Most inputs fall in the branches whose
exp and log bits matter: erfc's exp(-x^2) once |a|/sqrt(2) >= 1, and
ndtri's logs below exp(-2) and above 1 - exp(-2), down to 1e-300.  Equal
bits are equal int64 views, so -0.0 differs from 0.0; a NaN must meet a NaN.
"""

import math

import numpy as np
import pytest
import scipy.special as sc

from fieldlab import normal
from fieldlab.rng import stream

SQRT2 = math.sqrt(2.0)
E2 = math.exp(-2.0)

# a = +-sqrt(2) x at the cuts of erf and erfc on x = |a|/sqrt(2): 1/sqrt(2),
# 1 and 8; -x^2 crosses -MAXLOG near |a| = 37.7
NDTR_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan] + [
    s * v for s in (1.0, -1.0)
    for v in (1 / SQRT2, 1.0, SQRT2, 8 * SQRT2, 37.7, 37.6, 37.65, math.sqrt(2 * 709.78))]
NDTRI_EDGES = [0.0, 1.0, E2, 1.0 - E2, 5e-324, 1.0 - 2.0**-53, -0.1, 1.1, math.nan, 0.5,
               1e-300, math.exp(-32.0), -math.inf, math.inf]


def with_neighbours(values) -> np.ndarray:
    """The values and the doubles next to each one, below and above."""
    v = np.array(values, dtype=np.float64)
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not differ.any(), list(zip(got[~nan][differ][:5], want[~nan][differ][:5]))


def ndtr_inputs(n: int) -> np.ndarray:
    """n seeded draws, four in five with |a| >= sqrt(2), where erfc calls exp."""
    gen = stream(0, "normal-ndtr", 0)
    sign = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    tail = gen.uniform(SQRT2, 40.0, n)
    body = gen.uniform(0.0, SQRT2, n)
    return sign * np.where(gen.random(n) < 0.8, tail, body)


def ndtri_inputs(n: int) -> np.ndarray:
    """n seeded draws, four in five with p < exp(-2) or p > 1 - exp(-2)."""
    gen = stream(0, "normal-ndtri", 0)
    low = np.exp(-gen.uniform(2.0, math.log(1e300), n))  # 1e-300 < p < exp(-2)
    high = 1.0 - np.exp(-gen.uniform(2.0, 53 * math.log(2.0), n))  # up to 1 - 2^-53
    centre = gen.uniform(E2, 1.0 - E2, n)
    pick = gen.random(n)
    return np.where(pick < 0.4, low, np.where(pick < 0.8, high, centre))


def test_ndtr_equals_scipy_bit_for_bit():
    a = np.concatenate([ndtr_inputs(1_000_000), with_neighbours(NDTR_EDGES)])
    assert_same_bits(normal.ndtr(a), sc.ndtr(a))


def test_ndtri_equals_scipy_bit_for_bit():
    p = np.concatenate([ndtri_inputs(1_000_000), with_neighbours(NDTRI_EDGES)])
    assert_same_bits(normal.ndtri(p), sc.ndtri(p))


@pytest.mark.parametrize("fn, values", [("ndtr", NDTR_EDGES), ("ndtri", NDTRI_EDGES)])
def test_edges_and_scalars(fn, values):
    """Each edge alone, as a scalar, in a 2-d array, and NaN in gives NaN out."""
    ours, theirs = getattr(normal, fn), getattr(sc, fn)
    for v in values:
        assert np.ndim(ours(v)) == 0
        assert_same_bits(ours(v), theirs(v))
    grid = np.array(values[: len(values) // 2 * 2]).reshape(2, -1)
    assert_same_bits(ours(grid), theirs(grid))
    assert np.isnan(ours(np.full(3, np.nan))).all()
    assert ours(np.empty(0)).shape == (0,)
