"""Declared domains of the lab's parameters.

A parameter declares its domain once, on itself, as Annotated[T, domain]
through the aliases below (`replicates: Replicates2`).  A domain parses each
value on its own, never an order between values or the work they cost: it
returns the value in the form the checkers read, or raises ValueError naming
the parameter.  Sizes and index sets must lie in the dimension of the call's
model.  Parsing is idempotent, so a parsed value passes its domain again
unchanged.  `record` returns a parsed value as a claim's report holds it.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Annotated, Mapping, Sequence

import numpy as np

from .fields import _INNOVATIONS
from .lattice import Block, cardinality

__all__ = [
    "Count", "Positive", "OneOf", "Seq", "Size", "Geometries", "Seed", "Natural",
    "Pairs", "Replicates2", "Replicates3", "CdfDraws", "Resamples",
    "Exponent", "PositiveReal", "Margin", "Flag", "Innovation", "Naturals", "Dimensions",
    "FittedDepths", "PositiveReals", "BlockSize", "Ladder", "Edges", "Sizes", "IndexPairs",
    "domains", "check_arguments", "check_value",
]

_LIST = (list, tuple)


def _fail(name: str, what: str, need: str = "") -> None:
    raise ValueError(f"{name} must be {what}" + (f": {need}" if need else ""))


def _in_dimension(name: str, dims: int, d: int | None) -> None:
    if d is not None and dims != d:
        _fail(name, f"in the model's dimension {d}: its entries have other dimensions")


class _Domain:
    def record(self, value):  # a report holds a parsed value as itself, by default
        return value


@dataclass(frozen=True)
class Count(_Domain):
    """An integer from `minimum` to `maximum`, bools excluded; `need` says why."""

    minimum: int
    need: str = ""
    maximum: float = math.inf

    def check(self, value, name: str, d: int | None) -> int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or not self.minimum <= value <= self.maximum):
            cap = f" and <= {self.maximum}" if self.maximum < math.inf else ""
            _fail(name, f"an integer >= {self.minimum}{cap}", self.need)
        return value


@dataclass(frozen=True)
class Positive(_Domain):
    """A finite real number above 0 and at most `maximum`, bools excluded."""

    maximum: float = math.inf

    def check(self, value, name: str, d: int | None) -> float:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not 0 < value < math.inf or value > self.maximum):
            _fail(name, "a positive finite number"
                  + (f" <= {self.maximum}" if self.maximum < math.inf else ""))
        return value


@dataclass(frozen=True)
class OneOf(_Domain):
    """One of `values`, of its type too (1 is not True)."""

    values: tuple
    what: str

    def check(self, value, name: str, d: int | None):
        if not any(type(value) is type(v) and value == v for v in self.values):
            _fail(name, self.what)
        return value


@dataclass(frozen=True)
class Seq(_Domain):
    """A list of at least `points` values, each in the domain `item`: the
    tuple of the parsed values."""

    item: object
    points: int = 1
    need: str = ""

    def check(self, value, name: str, d: int | None) -> tuple:
        if not isinstance(value, _LIST) or len(value) < self.points:
            _fail(name, f"a list of at least {self.points} value(s)", self.need)
        return tuple(self.item.check(x, name, d) for x in value)

    def record(self, value) -> list:
        return [self.item.record(x) for x in value]


@dataclass(frozen=True)
class Size(_Domain):
    """The block (0, n] of n >= 1 cells, or a Block, in d = 1; unless
    `scalar`, also the block at the origin of a list of edges >= 1, or a
    Block, in the model's dimension.  A Block stays as it is."""

    scalar: bool = False

    def check(self, value, name: str, d: int | None) -> Block:
        if isinstance(value, Block) and (value.d == 1 or not self.scalar):
            edges = value.lengths
        else:
            edges = value if isinstance(value, _LIST) and not self.scalar else [value]
        for x in edges:
            Count(1).check(x, name, d)
        _in_dimension(name, len(edges), d)
        if isinstance(value, Block):
            return value
        try:
            return Block((0,) * len(edges), tuple(edges))
        except (OverflowError, ValueError):
            _fail(name, "a block of fewer than 2^62 cells")

    def record(self, value: Block) -> int:
        return cardinality(value)


# five standard block pairs (0, i], (j, k] at sup-norm distances 1 and 2 in d = 1
_DEFAULT_PAIRS = tuple((Block((0,), (i,)), Block((j,), (k,))) for i, j, k in
                       [(1, 1, 2), (3, 3, 4), (4, 4, 8), (4, 5, 9), (10, 10, 13)])


@dataclass(frozen=True)
class Geometries(_Domain):
    """None (the default pairs, in d = 1 only), or a nonempty list of pairs
    (I, J) of disjoint index sets of distinct points: Blocks, or nonempty
    lists of integer points, in the model's dimension.  Each set becomes the
    int64 array of its points, one row each."""

    def check(self, value, name: str, d: int | None) -> tuple:
        if value is None:
            if d not in (None, 1):
                _fail(name, f"given in d = {d}", "the default pairs are defined for d = 1")
            value = _DEFAULT_PAIRS
        if not (isinstance(value, _LIST) and value
                and all(isinstance(pair, _LIST) and len(pair) == 2 for pair in value)):
            _fail(name, "a nonempty list of index-set pairs")
        return tuple(self._pair(pair, name, d) for pair in value)

    def record(self, value: tuple) -> int:
        return len(value)

    @staticmethod
    def _pair(pair, name: str, d: int | None) -> tuple:
        points = []
        for s in pair:
            try:
                pts = s.points() if isinstance(s, Block) else np.asarray(s)
            except ValueError:  # ragged point lists
                pts = np.asarray(None)
            if pts.size == 0 or pts.dtype.kind not in "iu" or pts.ndim not in (1, 2):
                _fail(name, "a list of pairs of nonempty integer point lists")
            pts = pts.astype(np.int64).reshape(len(pts), -1)
            _in_dimension(name, pts.shape[1], d)
            points.append(pts)
        if len(np.unique(np.concatenate(points), axis=0)) < len(points[0]) + len(points[1]):
            _fail(name, "a list of pairs of disjoint sets of distinct points")
        return tuple(points)


FIT = "a slope fit or decrease test needs at least two points"

Seed = Annotated[int, Count(0)]
Natural = Annotated[int, Count(1)]
Pairs = Annotated[int, Count(1, "the bound needs a test pair")]
Replicates2 = Annotated[int, Count(2, "a standard error needs two replicates")]
Replicates3 = Annotated[int, Count(3, "the jackknife SE needs three replicates")]
CdfDraws = Annotated[int, Count(100, "CDF estimation needs at least 100 values")]
Resamples = Annotated[int, Count(10, "the slope CI needs at least 10 resamples")]
Exponent = Annotated[int, Count(2, "the scheme needs alpha > beta > 1")]
PositiveReal = Annotated[float, Positive()]
# the margin delta of the moment order 2 + delta: theory.choose_delta picks it
# in (0, 1], and theory.tau0 and theory.moricz_a take no other
Margin = Annotated[float, Positive(1)]
Flag = Annotated[bool, OneOf((False, True), "true or false")]
Innovation = Annotated[str, OneOf(_INNOVATIONS, f"an innovation kind in {_INNOVATIONS}")]
Naturals = Annotated[Sequence[int], Seq(Count(1))]
Dimensions = Annotated[Sequence[int],
                       Seq(Count(1, "numpy arrays have at most 32 axes", maximum=32))]
FittedDepths = Annotated[Sequence[int], Seq(Count(1), 2, FIT)]
PositiveReals = Annotated[Sequence[float], Seq(Positive())]
BlockSize = Annotated[object, Size()]
Ladder = Annotated[Sequence, Seq(Size(), 2, FIT)]
Edges = Annotated[Sequence[int], Seq(Size(scalar=True), 2, FIT)]
Sizes = Annotated[Sequence[int], Seq(Size(scalar=True))]
IndexPairs = Annotated[object, Geometries()]


def domains(fn) -> dict:
    """The declared domain of each annotated parameter of fn, by name."""
    return {name: p.annotation.__metadata__[0]
            for name, p in inspect.signature(fn, eval_str=True).parameters.items()
            if hasattr(p.annotation, "__metadata__")}


def check_arguments(declared: Mapping, arguments: Mapping) -> dict:
    """The arguments, each one that has a declared domain parsed by it."""
    d = getattr(arguments.get("model"), "d", None)
    return {name: declared[name].check(value, name, d) if name in declared else value
            for name, value in arguments.items()}


def check_value(kind, value, name: str):
    """One value parsed by the domain of the Annotated type `kind`."""
    return kind.__metadata__[0].check(value, name, None)
