"""Depth-m potentials on the geodesic space and their weighted geometry.

A potential is a table over reduced m-letter windows of forward letters; its
value on a geodesic is the table entry of the next m letters.  The weighted
length of a segment is the sum (unit edges, so integral = sum) of window
values along it.  Windows that run off the end of a finite segment are scored
by the suffix rule; every cocycle quantity below is independent of that
convention because the dangling windows cancel in differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .stems import StemTable, stem_row, word_rows
from .words import Alphabet, Word, inverse_letter

SUFFIX_RULES = ("average", "extend")


@dataclass(frozen=True)
class Potential:
    ab: Alphabet
    depth: int
    table: dict
    suffix_rule: str = "average"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("potential depth must be >= 1")
        if self.suffix_rule not in SUFFIX_RULES:
            raise ValueError(f"unknown suffix rule {self.suffix_rule!r}")
        want = set(self.ab.reduced_words(self.depth))
        got = {tuple(w) for w in self.table}
        if got != want:
            raise ValueError("table must cover exactly the reduced windows of the given depth")
        object.__setattr__(self, "table", {tuple(w): float(v) for w, v in self.table.items()})

    @classmethod
    def constant(cls, ab: Alphabet, value: float, depth: int = 1) -> "Potential":
        return cls(ab, depth, {w: value for w in ab.reduced_words(depth)})

    @classmethod
    def zero(cls, ab: Alphabet, depth: int = 1) -> "Potential":
        return cls.constant(ab, 0.0, depth)

    def shifted(self, c: float) -> "Potential":
        return Potential(self.ab, self.depth, {w: v + c for w, v in self.table.items()},
                         self.suffix_rule)

    @property
    def sup_abs(self) -> float:
        return max(abs(v) for v in self.table.values())

    @property
    def oscillation(self) -> float:
        vs = list(self.table.values())
        return max(vs) - min(vs)

    def is_symmetric(self) -> bool:
        return all(math.isclose(v, self.table[_rev_inv(w)], rel_tol=0, abs_tol=1e-15)
                   for w, v in self.table.items())

    # -- the window chain, built once per potential ----------------------------

    @cached_property
    def _graph(self) -> "_WindowGraph":
        m = self.depth
        tab, grown = StemTable(self.ab, m), StemTable(self.ab, m + 1)
        states = list(tab.stems())
        # w + t, t the j-th legal successor of w[-1], is grown stem s * (2k-1) + j;
        # the successor state is its last m letters
        succ = grown.suffix_index(np.arange(grown.size), grown.letters[:, 1], m)
        tails = np.zeros(tab.size)
        for j in range(1, m):  # the windows of the last j letters, j ascending
            tails += self._window_values[j][
                tab.suffix_index(np.arange(tab.size), tab.letters[:, m - j], j)]
        arrays = (succ.reshape(-1, tab.branching), self._window_values[m], tails)
        for arr in arrays:  # shared by every reader
            arr.setflags(write=False)
        return _WindowGraph(states, *arrays)

    @cached_property
    def _window_values(self) -> tuple[np.ndarray, ...]:
        """Every window's value, one read-only array per length 1..m in
        StemTable order (index 0 is empty); the short ones by the suffix rule:
        "extend" repeats the last letter, "average" takes the mean over the
        one-letter extensions."""
        m = self.depth
        vals = {m: [self.table[w] for w in StemTable(self.ab, m).stems()]}
        for length in range(m - 1, 0, -1):
            tab = StemTable(self.ab, length)
            if self.suffix_rule == "extend":
                vals[length] = [self.table[w + (w[-1],) * (m - length)] for w in tab.stems()]
            else:  # the extensions' values added in letter order
                kids = StemTable(self.ab, length + 1).blocks(np.array(vals[length + 1]), length)
                vals[length] = [sum(row) / tab.branching for row in kids.tolist()]
        out = (np.empty(0),) + tuple(np.array(vals[length]) for length in range(1, m + 1))
        for arr in out:
            arr.setflags(write=False)
        return out

    @cached_property
    def _next_state(self) -> np.ndarray:
        """The chain's successor by letter, flat: state s reading letter t
        moves to entry s * 2k + t, -1 when t cancels s's last letter."""
        tab = StemTable(self.ab, self.depth)
        branch = tab.branch_index[tab.letters[:, -1]]
        succ = np.take_along_axis(self._graph.succ, branch, axis=1)
        out = np.where(branch < 0, -1, succ).ravel()
        out.setflags(write=False)
        return out


class _WindowGraph(NamedTuple):
    """The no-backtrack chain of m-windows w -> w[1:] + t."""

    states: list         # the m-windows, in StemTable(ab, m) order
    succ: np.ndarray     # (states, 2k-1) successor indices, t in letter order
    weights: np.ndarray  # table entry of each state
    tails: np.ndarray    # suffix-rule sum of the last m-1 windows of each state


def _rev_inv(w: Word) -> Word:
    return tuple(inverse_letter(s) for s in reversed(w))


def flip_potential(P: Potential) -> Potential:
    """The flip: window values read along the reversed geodesic."""
    return Potential(P.ab, P.depth, {w: P.table[_rev_inv(w)] for w in P.table}, P.suffix_rule)


def sym_potential(P: Potential) -> Potential:
    return Potential(P.ab, P.depth,
                     {w: 0.5 * (v + P.table[_rev_inv(w)]) for w, v in P.table.items()},
                     P.suffix_rule)


# --------------------------------------------------------------------------
# Weighted lengths.


def d_phi(P: Potential, p: Word, q: Word) -> float:
    """Weighted length of the geodesic segment from p to q: one row of
    `window_sums`, the word p^-1 q.

    Exact for depth 1; for deeper tables the last m-1 edges carry the suffix
    rule, so values across extension conventions differ by at most
    (m-1) * oscillation.
    """
    p, q = (stem_row(P.ab, w)[0].tolist() for w in (p, q))
    word = P.ab.mul(P.ab.inv(p), q)
    return float(window_sums(P, word_rows([word]))[0]) if word else 0.0


def _full_windows(P: Potential, letters: np.ndarray):
    """The chain index of each row's full windows, left to right: the first
    is indexed once, and each later letter rolls the index one step along
    the chain.  `letters` is a (count, length) array of reduced words,
    length >= m."""
    m, B = P.depth, P.ab.n_letters
    state = StemTable(P.ab, m).indices(letters[:, :m])
    yield state
    nxt = P._next_state
    for t in range(m, letters.shape[1]):  # the full window ending at letter t
        state = nxt[state * B + letters[:, t].astype(np.int64)]
        if state.size and state.min() < 0:
            raise ValueError("stem is not reduced")
        yield state


def window_walk(P: Potential, letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's walk along the window chain: the index of its last window
    and the sum of its window values, added left to right.

    `letters` is a (count, length) array of reduced words.  A row shorter
    than m is one short window, indexed once; longer rows walk their full
    windows (`_full_windows`), so memory is a few arrays of one entry per
    row.
    """
    count, length = letters.shape
    m, values = P.depth, P._window_values
    acc = np.zeros(count)
    if length < m:
        state = StemTable(P.ab, length).indices(letters)
        acc += values[length][state]
        return state, acc
    for state in _full_windows(P, letters):
        acc += values[m][state]
    return state, acc


def window_prefix_sums(P: Potential, letters: np.ndarray) -> np.ndarray:
    """(count, length + 1): column c sums the full windows within each row's
    first c letters (0 for c < m), added left to right as `window_walk`
    adds them."""
    count, length = letters.shape
    m, values = P.depth, P._window_values[P.depth]
    out = np.zeros((count, length + 1))
    if length >= m:
        for t, state in enumerate(_full_windows(P, letters), m):
            out[:, t] = out[:, t - 1] + values[state]
    return out


def window_sums(P: Potential, letters: np.ndarray) -> np.ndarray:
    """Weighted length of each row of a (count, length) letter array.

    `window_walk` plus the tail windows, each the last window's letters j
    onward (`StemTable.suffix_index`), added in the order of the windows'
    first letters.
    """
    state, acc = window_walk(P, letters)
    length = letters.shape[1]
    width = min(P.depth, length)
    tab = StemTable(P.ab, width)
    for j in range(1, width):
        acc += P._window_values[width - j][
            tab.suffix_index(state, letters[:, length - width + j], width - j)]
    return acc


# --------------------------------------------------------------------------
# The window chain and its minimum cycle mean.


def window_graph(P: Potential) -> _WindowGraph:
    """The potential's window chain: states in stem order, successor indices,
    entry weights and suffix-rule tail sums, built once per potential."""
    return P._graph


def min_cycle_mean(P: Potential) -> tuple[float, Word]:
    """Karp's minimum cycle mean over the window graph (node-weighted).

    Returns the mean and a witness cycle as a periodic letter word.
    """
    states, succ, wts, _ = window_graph(P)
    n, b = succ.shape
    # every state has b predecessors; pred[v] lists them in ascending order
    pred = (np.argsort(succ.ravel(), kind="stable") // b).reshape(n, b)
    rows = np.arange(n)
    # Karp over edge weights w(u -> v) = wts[v]; a cycle's edge mean equals
    # its node mean, and D[0] must be identically zero for the guarantee.
    # Every D[k] is finite, and the parent is the first predecessor at the minimum.
    D = np.zeros((n + 1, n))
    parent = np.full((n + 1, n), -1, dtype=int)
    for k in range(1, n + 1):
        cand = D[k - 1][pred] + wts[:, None]
        first = cand.argmin(axis=1)
        D[k] = cand[rows, first]
        parent[k] = pred[rows, first]
    worst = ((D[n] - D[:n]) / (n - np.arange(n))[:, None]).max(axis=0)
    best_v = int(worst.argmin())
    best = worst[best_v]
    # recover a cycle on the optimal walk
    path = [best_v]
    for k in range(n, 0, -1):
        path.append(int(parent[k, path[-1]]))
    path.reverse()
    seen: dict[int, int] = {}
    cycle: list[int] = []
    for pos, v in enumerate(path):
        if v in seen:
            cycle = path[seen[v] : pos]
            break
        seen[v] = pos
    witness = tuple(states[v][0] for v in cycle) if cycle else ()
    return float(best), witness
