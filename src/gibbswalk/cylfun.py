"""Boundary functions represented exactly as cylinder-constant arrays.

Every sup, inf, integral and Holder constant below is a finite exact
computation over depth-n stems; there is no sampling error anywhere in the
certification pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .stems import StemTable, _expand, check_dense, word_rows
from .words import Alphabet, BoundaryWord, Word, inverse_letter


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
        """`default` off the table's cylinders.  The keys' cylinders must be
        disjoint: a key that is a prefix of another is refused by name."""
        keys = sorted(map(tuple, table))
        for u, v in zip(keys, keys[1:]):  # a key's extensions follow it in sorted order
            if v[:len(u)] == u:
                raise ValueError(f"table keys {ab.format_word(u)!r} and {ab.format_word(v)!r} "
                                 "overlap: one is a prefix of the other")
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
        return holder_rows(self.values[None], self.table, scale_depth(r), a)[0]


def holder_rows(values: np.ndarray, tab: StemTable, j0: int, a: float,
                extrema: tuple[list, list] | None = None) -> np.ndarray:
    """`holder_at` from level j0 on, for each row of a (count, size) array of
    values on the stems of `tab`; `extrema` is their `block_extrema` if known.
    Rows on the stems of one depth-L prefix each (j0 >= L) need `extrema`,
    the `block_extrema` at that level."""
    if a < 0:
        raise ValueError("Holder exponent must be non-negative")
    top, low = extrema or block_extrema(values, tab)
    out = np.zeros(values.shape)
    for j in range(j0, tab.depth):
        balls = values.reshape(len(values), -1, tab.span(j))
        gap = np.maximum(top[j][:, :, None] - balls, balls - low[j][:, :, None])
        np.maximum(out, gap.reshape(values.shape) * math.exp(a * j), out=out)
    return out


def block_extrema(values: np.ndarray, tab: StemTable, level: int = 0) -> tuple[list, list]:
    """Max and min of each row of values over every depth-i cylinder, i =
    level..depth: two lists, indexed by i, of (count, cylinders) arrays
    (None below `level`).  Each row holds the values on the span(level)
    stems of `tab` extending one depth-`level` prefix, in stem order (level
    0: every stem), and its cylinders are counted within that prefix.

    Each level is taken from the next deeper one, one child column at a
    time (max and min are exact, so the order does not matter)."""
    top, low = [values], [values]
    for i in range(tab.depth - 1, level - 1, -1):
        width = tab.span(i) // tab.span(i + 1)  # children per depth-i cylinder
        hi = top[-1].reshape(len(values), -1, width)
        lo = low[-1].reshape(len(values), -1, width)
        top.append(functools.reduce(np.maximum, (hi[:, :, k] for k in range(width))))
        low.append(functools.reduce(np.minimum, (lo[:, :, k] for k in range(width))))
    return [None] * level + top[::-1], [None] * level + low[::-1]


def scale_depth(scale: float) -> int:
    """Smallest integer j with e^{-j} <= scale ... i.e. pairs within the scale
    share at least j letters.  scale >= 1 imposes nothing (j = 0)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale >= 1:
        return 0
    return max(0, math.ceil(-math.log(scale) - 1e-12))


def translate_function(f: CylinderFunction, g: Word) -> CylinderFunction:
    """(g_* f)(xi) = f(g^{-1} xi), exactly, at depth |g| + depth(f)."""
    return CylinderFunction(f.ab, len(g) + f.depth, translate_rows(f, word_rows([g]))[0])


def translate_rows(f: CylinderFunction, words: np.ndarray) -> np.ndarray:
    """The values of g_* f at depth n + depth(f), one row per row g of a
    (count, n) letter array.

    g^{-1} cancels the first c letters of a stem x, c being its confluence
    length with g, so f is read at the first d = depth(f) letters of
    g^{-1}[: n - c] + x[c:].  Where c <= n - d that is g^{-1}[:d], one value
    per row: the profile of classes c < L = max(0, n - d + 1).  The stems
    extending g[:L] are the block, read one by one (`translate_at`); the
    rows are their expansion (`stems._expand`)."""
    count, n = words.shape
    d = f.depth
    level = max(0, n - d + 1)
    tab = StemTable(f.ab, n + d)
    # checked before the block, whose letters and gathers can outgrow the rows
    check_dense(count * tab.size, f"the depth-{tab.depth} rows of {count} words")
    head = inverse_head(words, d)
    profile = np.empty((count, level, 1))
    if level:
        profile[:] = f.values[f.table.indices(head)][:, None, None]
    letters, c = tab.extensions(words, level)
    block = translate_at(f, np.repeat(head, tab.span(level), axis=0),
                         letters.reshape(-1, tab.depth), c.ravel(), n)
    return _expand(f.ab, tab.depth, words, profile, block.reshape(count, -1))


def inverse_head(words: np.ndarray, d: int) -> np.ndarray:
    """The first d letters of g^{-1}, padded with letter 0, per row g of a
    (count, n) letter array."""
    count, n = words.shape
    head = np.zeros((count, max(n, d)), dtype=np.int64)
    head[:, :n] = inverse_letter(words[:, ::-1])
    return head[:, :d]


def translate_at(f: CylinderFunction, head: np.ndarray, letters: np.ndarray, c: np.ndarray,
                 n: int) -> np.ndarray:
    """g_* f at one depth-(n + d) stem per row: its letters, its confluence
    c > n - d with the length-n centre g, and g's `inverse_head`."""
    c, col = c[:, None], np.arange(f.depth)
    tail = np.take_along_axis(letters, np.maximum(col + 2 * c - n, 0), axis=1)
    return f.values[f.table.indices(np.where(col < n - c, head, tail))]
