"""Boundary functions represented exactly as cylinder-constant arrays.

Every sup, inf, integral and Holder constant below is a finite exact
computation over depth-n stems; there is no sampling error anywhere in the
certification pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stems import StemTable
from .words import Alphabet, BoundaryWord, Word


@dataclass(frozen=True)
class CylinderFunction:
    """Function on the boundary, constant on depth-`depth` cylinders."""

    ab: Alphabet
    depth: int
    values: np.ndarray

    def __post_init__(self):
        tab = StemTable(self.ab, self.depth)
        if self.values.shape != (tab.size,):
            raise ValueError(f"expected {tab.size} values for depth {self.depth}")
        v = np.array(self.values, dtype=float, copy=True)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, ab: Alphabet, value: float, depth: int = 1) -> "CylinderFunction":
        tab = StemTable(ab, depth)
        return cls(ab, depth, np.full(tab.size, float(value)))

    @classmethod
    def from_table(cls, ab: Alphabet, depth: int, table: dict, default: float = 0.0) -> "CylinderFunction":
        tab = StemTable(ab, depth)
        vals = np.full(tab.size, float(default))
        for stem, v in table.items():
            lo, hi = tab.prefix_range(tuple(stem))
            vals[lo:hi] = float(v)
        return cls(ab, depth, vals)

    @property
    def table(self) -> StemTable:
        return StemTable(self.ab, self.depth)

    # -- refinement and arithmetic -------------------------------------------

    def refine(self, depth: int) -> "CylinderFunction":
        if depth < self.depth:
            raise ValueError("cannot coarsen a cylinder function")
        if depth == self.depth:
            return self
        return CylinderFunction(self.ab, depth,
                                np.repeat(self.values, StemTable(self.ab, depth).span(self.depth)))

    def _align(self, other: "CylinderFunction"):
        d = max(self.depth, other.depth)
        return self.refine(d), other.refine(d)

    def _binop(self, other, op):
        if isinstance(other, CylinderFunction):
            a, b = self._align(other)
            return CylinderFunction(self.ab, a.depth, op(a.values, b.values))
        return CylinderFunction(self.ab, self.depth, op(self.values, float(other)))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        return self._binop(other, np.divide)

    # -- evaluation, bounds, integrals ----------------------------------------

    def __call__(self, xi: BoundaryWord) -> float:
        return float(self.values[self.table.index_of(xi.prefix(self.depth))])

    @property
    def sup(self) -> float:
        return float(self.values.max())

    @property
    def inf(self) -> float:
        return float(self.values.min())

    def integral(self, mass: np.ndarray) -> float:
        """Integral against a measure given by its depth-aligned mass array."""
        if mass.shape != self.values.shape:
            raise ValueError("mass array depth mismatch")
        return float(self.values @ mass)

    def l1(self, mass: np.ndarray) -> float:
        return float(np.abs(self.values) @ mass)

    # -- ratio and Holder diagnostics ------------------------------------------

    def _balls(self, j: int) -> np.ndarray:
        """The values as rows, one row per depth-j ball (j = 0: one row).

        The stems extending a depth-j prefix are one contiguous block, so the
        ball of radius e^{-j} around any stem is its row of this view."""
        return self.table.blocks(self.values, j)

    def ratio_within(self, scale: float) -> float:
        """sup f(y)/f(x) over pairs with pi(x, y) <= scale (closed balls)."""
        j = scale_depth(scale)
        if j >= self.depth:
            return 1.0
        balls = self._balls(j)
        return float((balls.max(axis=1) / balls.min(axis=1)).max())

    def holder_at(self, r: float, a: float) -> np.ndarray:
        """D_r^a f(x) per depth stem: sup_{pi(x,y)<=r} |f(x)-f(y)| / pi(x,y)^a.

        Level j scores x against its whole depth-j ball with weight e^{aj}. A
        pair meeting deeper, at j' > j, is scored again at j' with weight
        e^{aj'} >= e^{aj} (a >= 0), so the running maximum is the exact sup.
        """
        if a < 0:
            raise ValueError("Holder exponent must be non-negative")
        out = np.zeros_like(self.values)
        for j in range(scale_depth(r), self.depth):
            balls = self._balls(j)
            gap = np.maximum(balls.max(axis=1, keepdims=True) - balls,
                             balls - balls.min(axis=1, keepdims=True))
            np.maximum(out, gap.ravel() * math.exp(a * j), out=out)
        return out


def scale_depth(scale: float) -> int:
    """Smallest integer j with e^{-j} <= scale ... i.e. pairs within the scale
    share at least j letters.  scale >= 1 imposes nothing (j = 0)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale >= 1:
        return 0
    return max(0, math.ceil(-math.log(scale) - 1e-12))


def translate_function(f: CylinderFunction, g: Word) -> CylinderFunction:
    """(g_* f)(xi) = f(g^{-1} xi), exactly, at depth |g| + depth(f).

    g^{-1} cancels the first c letters of a stem x, c being its confluence
    length with g, so f is read at the first depth(f) letters of
    g^{-1}[: |g| - c] + x[c:]: one integer gather over all stems at once.
    """
    ab = f.ab
    g = tuple(g)
    n, d = len(g), f.depth
    tab = StemTable(ab, n + d)
    c = tab.branch_depths(g)[:, None]
    col = np.arange(d)[None, :]
    head = np.array((ab.inv(g) + (0,) * d)[:d])  # g^{-1}, padded to d letters
    tail = np.take_along_axis(tab.letters, np.maximum(col + 2 * c - n, 0), axis=1)
    src = np.where(col < n - c, head, tail)
    return CylinderFunction(ab, n + d, f.values[f.table.indices(src)])
