"""Critical exponents, the Gibbs stream, and its quantitative audits.

The weighted Poincare series over the free group factors through the
no-backtrack window graph, so the critical exponent is the log spectral
radius of the transfer matrix and the boundary measure is an explicit
stationary Markov measure built from the Perron data.  All cylinder masses
are exact (up to float rounding); the weak-limit construction, a truncated
Poincare series, is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cylfun import CylinderFunction
# d_phi stays a module attribute here, though nothing below calls it: tracing
# wraps it by this name
from .potentials import (Potential, d_phi, window_graph, window_prefix_sums, window_sums,
                         window_walk)
from .stems import (StemTable, _class_values, _expand, check_dense, stem_row, window_state_count,
                    word_rows)
from .words import Alphabet, Word, inverse_letter

PERRON_TOL = 1e-14


class UnsupportedRankError(ValueError):
    """Transfer structure is reducible (rank-1 free group)."""


class ConvergenceError(RuntimeError):
    pass


def transfer_matrix(P: Potential) -> np.ndarray:
    """M[u, v] = e^{-phi(v)} on the window chain's edges u -> v (states in stem order)."""
    if P.ab.rank < 2:
        raise UnsupportedRankError("transfer matrix is reducible; need free rank >= 2")
    _, succ, wts, _ = window_graph(P)
    n = len(wts)
    M = np.zeros((n, n))
    M[np.arange(n)[:, None], succ] = np.exp(-wts)[succ]
    return M


def _power_iteration(M: np.ndarray, tol: float = PERRON_TOL) -> tuple[float, np.ndarray]:
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    rho = 1.0
    for _ in range(200_000):
        w = M @ v
        rho = float(w.sum())
        w /= rho
        if float(np.abs(M @ w - rho * w).max()) <= tol * max(rho, 1.0):
            return rho, w
        v = w
    raise ConvergenceError("Perron iteration did not reach tolerance")


def critical_exponent(P: Potential) -> float:
    """Divergence abscissa of the weighted Poincare series: log Perron radius."""
    rho, _ = _power_iteration(transfer_matrix(P))
    return math.log(rho)


def shell_sums_log(P: Potential, n_max: int) -> np.ndarray:
    """log of W_n = sum over |g| = n of e^{-d_phi(e, g)}, n = 1..n_max."""
    M = transfer_matrix(P)
    _, _, wts, tails = window_graph(P)
    m = P.depth
    # suffix-rule factor carried by the final window of each word
    sigma = np.array([math.exp(-t) for t in tails])
    out = np.empty(n_max)
    for n in range(1, min(m, n_max + 1)):
        # the short words' weighted lengths, in stem (= reduced_words) order
        lengths = window_sums(P, StemTable(P.ab, n).letters)
        out[n - 1] = math.log(sum(math.exp(-x) for x in lengths.tolist()))
    if n_max < m:
        return out
    v = np.array([math.exp(-w) for w in wts])
    log_scale = 0.0
    for n in range(m, n_max + 1):
        out[n - 1] = math.log(float(v @ sigma)) + log_scale
        v = M.T @ v
        s = float(v.sum())
        v /= s
        log_scale += math.log(s)
    return out


def shell_slope(P: Potential, n0: int, n1: int) -> float:
    logs = shell_sums_log(P, n1)
    return (logs[n1 - 1] - logs[n0 - 1]) / (n1 - n0)


# --------------------------------------------------------------------------


class GibbsStream:
    """The equivariant family of boundary measures attached to a potential.

    `potential` is the zero-pressure normalization of the input; `pressure`
    records the critical exponent that was subtracted.  Immutable after
    construction (caches only accumulate derived arrays); safe to share.
    """

    def __init__(self, potential: Potential):
        self.ab = potential.ab
        self.pressure = critical_exponent(potential)
        self.potential = potential.shifted(self.pressure)
        self.transfer = transfer_matrix(self.potential)
        _, self.h_right = _power_iteration(self.transfer)
        self._tab_m = StemTable(self.ab, self.potential.depth)
        self._Z = float(np.exp(-window_graph(self.potential).weights) @ self.h_right)
        self._mass: dict[int, np.ndarray] = {}
        self._deepest: tuple[int, np.ndarray, np.ndarray] | None = None  # depth, st, ws

    # -- layered Markov arrays ------------------------------------------------

    @property
    def depth_m(self) -> int:
        return self.potential.depth

    def _layers(self, depth: int):
        """State index and full-window weight sum per stem.

        Only the deepest pair built so far is kept: a deeper one extends it
        a depth at a time, a shallower one is rebuilt from depth m.  The
        state indices are kept in the smallest integer type that holds
        them."""
        m = self.depth_m
        if depth < m:
            raise ValueError("layers exist from depth m upward")
        _, succ, wts, _ = window_graph(self.potential)
        succ = succ.astype(np.min_scalar_type(len(wts) - 1))
        if self._deepest is not None and self._deepest[0] <= depth:
            n, st, ws = self._deepest
        else:
            n, st, ws = m, np.arange(len(wts), dtype=succ.dtype), wts.copy()
        while n < depth:
            n += 1
            check_dense(len(st) * succ.shape[1], f"the depth-{n} stem arrays")
            st = succ[st].ravel()
            ws = (ws[:, None] + wts[st.reshape(len(ws), -1)]).ravel()
            if self._deepest is None or n > self._deepest[0]:
                self._deepest = (n, st, ws)
        return st, ws

    def mass_array(self, depth: int) -> np.ndarray:
        """Exact masses of all depth-n cylinders seen from the base point."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        m = self.depth_m
        if depth < m:
            return self._tab_m.blocks(self.mass_array(m), depth).sum(axis=1)
        if depth not in self._mass:
            st, ws = self._layers(depth)
            self._mass[depth] = np.exp(-ws) * self.h_right[st] / self._Z
        return self._mass[depth]

    def dphi_array(self, depth: int) -> np.ndarray:
        """d_phi(base, stem) for every depth-n stem (suffix rule included)."""
        m = self.depth_m
        if depth < m:
            return window_sums(self.potential, StemTable(self.ab, depth).letters)
        st, ws = self._layers(depth)
        return ws + window_graph(self.potential).tails[st]

    # -- measures of cylinders from arbitrary points ---------------------------

    def rho_phi_array(self, q: Word, depth: int) -> np.ndarray:
        """rho^Phi_xi(base, q) per depth-n stem (constant there); depth >= |q| + m."""
        return self.rho_phi_rows(word_rows([q]), depth)[0]

    def rho_phi_rows(self, words: np.ndarray, depth: int) -> np.ndarray:
        """`rho_phi_array` for each row q of a (count, n) letter array, as rows:
        the expansion (`stems._expand`) of its `rho_profiles`, classes c < n
        the profile and class n, one value per depth-(n + m - 1) cylinder
        extending q (`_class_values`), the block."""
        n = words.shape[1]
        if depth < n + self.depth_m:
            raise ValueError("depth too shallow for stabilization")
        profiles = self.rho_profiles(words)
        return _expand(self.ab, depth, words, profiles[:, :n],
                       _class_values(self.ab, words, profiles[:, n], n))

    def rho_profiles(self, words: np.ndarray) -> np.ndarray:
        """rho^Phi_xi(base, q) for xi branching from q at c = 0..n with window
        state s = xi[c : c+m-1], one (n + 1, states) table per row q of a
        (count, n) letter array, s by its `window_states` index; NaN where
        no xi branches at c with state s (one state when m = 1).

        Past the branch the two geodesics to xi share their windows, so the
        value is W(q^-1[:n-c] + s) - W(q[:c] + s), W summing a word's full
        windows: a running sum along q and along q^-1
        (`window_prefix_sums`), plus the windows that straddle the branch,
        read from a table over (last m - 1 letters, state) (`_straddle`)."""
        count, n = words.shape
        back = inverse_letter(words[:, ::-1])
        fwd = window_prefix_sums(self.potential, words)
        bwd = window_prefix_sums(self.potential, back)
        if self.depth_m == 1:
            return (bwd[:, ::-1] - fwd)[:, :, None]
        out = np.empty((count, n + 1, window_state_count(self.ab, self.depth_m - 1)))
        for c in range(n + 1):
            out[:, c] = ((bwd[:, n - c, None] + self._straddle(back[:, :n - c]))
                         - (fwd[:, c, None] + self._straddle(words[:, :c])))
        return out

    def _straddle(self, heads: np.ndarray) -> np.ndarray:
        """(count, states): W(t + s) for every window state s, t the last (up
        to m - 1) letters of each row of `heads`; NaN where t + s is not
        reduced."""
        h = min(heads.shape[1], self.depth_m - 1)
        table = self._straddle_tables[h]
        if not h:
            return np.broadcast_to(table, (len(heads), table.shape[1]))
        return table[StemTable(self.ab, h).indices(heads[:, heads.shape[1] - h:])]

    @cached_property
    def _straddle_tables(self) -> tuple[np.ndarray, ...]:
        """Per length h = 0..m-1 a (stems of length h, states) table of W(t + s),
        the sum of the h full windows of t + s, all of which start in t; NaN
        where t + s is not reduced (h = 0: one row of zeros)."""
        w = self.depth_m - 1
        states = StemTable(self.ab, w).letters
        out = [np.zeros((1, len(states)))]
        for h in range(1, w + 1):
            heads = StemTable(self.ab, h).letters
            words = np.concatenate([np.repeat(heads, len(states), axis=0),
                                    np.tile(states, (len(heads), 1))], axis=1)
            table = np.full(len(words), np.nan)
            ok = StemTable(self.ab, 1).branch_index[words[:, h - 1], words[:, h]] >= 0
            table[ok] = window_walk(self.potential, words[ok])[1]
            out.append(table.reshape(len(heads), len(states)))
        return tuple(out)

    def stem_masses(self, letters: np.ndarray) -> np.ndarray:
        """`cylinder_mass_of_stem` of each row of a (count, n) letter array,
        n >= 1: e^{-sum phi} h[last window] / Z from one `window_walk`."""
        n = letters.shape[1]
        if n < self.depth_m:
            return self.mass_array(n)[StemTable(self.ab, n).indices(letters)]
        state, ws = window_walk(self.potential, letters)
        return np.exp(-ws) * self.h_right[state] / self._Z

    def cylinder_mass_of_stem(self, stem: Word) -> float:
        """Mass of one origin cylinder: a one-row `stem_masses`."""
        return float(self.stem_masses(stem_row(self.ab, stem))[0])


def hausdorff_stream(ab: Alphabet, depth: int = 1) -> GibbsStream:
    """The Gibbs stream of the zero potential (uniform visual measure)."""
    return GibbsStream(Potential.zero(ab, depth))


# --------------------------------------------------------------------------
# Audits.


@dataclass(frozen=True)
class ShadowReport:
    rows: list  # (depth, ratio_min, ratio_max)
    lo: float
    hi: float

    @property
    def bound(self) -> float:
        return max(self.hi, 1.0 / self.lo)


def shadow_lemma_audit(S: GibbsStream, max_radius: int) -> ShadowReport:
    """mu(shadow of q) * e^{d_phi(base, q)} over all 1 <= |q| <= max_radius.

    With zero pressure the shadow bound says these ratios live in a fixed
    interval [1/C, C] independent of |q|; shadows are cylinders here.
    """
    rows = []
    lo, hi = math.inf, -math.inf
    for n in range(1, max_radius + 1):
        ratios = S.mass_array(n) * np.exp(S.dphi_array(n))
        rmin, rmax = float(ratios.min()), float(ratios.max())
        rows.append((n, rmin, rmax))
        lo, hi = min(lo, rmin), max(hi, rmax)
    return ShadowReport(rows=rows, lo=lo, hi=hi)


@dataclass(frozen=True)
class ShadowIntegralReport:
    rows: list  # (s, integral, scaled)
    lo: float
    hi: float


def shadow_integral_audit(S: GibbsStream, s_max: int) -> ShadowIntegralReport:
    """integral of e^{-d_phi(base, ray(s))} d(hausdorff) as exact cylinder sums.

    The integrand is constant on depth s+m-1 cylinders; the report scales by
    e^{lambda_0 s} which must stay inside a bounded interval.
    """
    ab = S.ab
    m = S.depth_m
    lam0 = math.log(ab.n_letters - 1)
    M = S.transfer
    v = np.array([math.exp(-w) for w in window_graph(S.potential).weights])
    rows = []
    lo, hi = math.inf, -math.inf
    branching = ab.n_letters - 1
    for s in range(1, s_max + 1):
        # paths of s windows <-> stems of depth s+m-1, uniform measure weight
        unif = (1.0 / ab.n_letters) * branching ** (-(s + m - 2))
        integral = float(v.sum()) * unif
        scaled = integral * math.exp(lam0 * s)
        rows.append((s, integral, scaled))
        lo, hi = min(lo, scaled), max(hi, scaled)
        v = M.T @ v
    return ShadowIntegralReport(rows=rows, lo=lo, hi=hi)


def rn_holder_audit(S: GibbsStream, q: Word, eps: float) -> float:
    """Measured Holder constant of xi -> rho^Phi_xi(base, q) at scales below
    e^{-d(base,q)}, normalized by e^{eps * d}; exact over stem classes.

    Pairs agreeing past the branch with q share the stabilized value, so only
    the first m-1 scales can contribute (zero for depth-1 tables).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = tuple(q)
    n = len(q)
    depth = n + S.depth_m
    rho = CylinderFunction(S.ab, depth, S.rho_phi_array(q, depth))
    return float(rho.holder_at(math.exp(-n), eps).max()) * math.exp(-eps * n)


def rn_holder_sweep(S: GibbsStream, max_radius: int, eps: float, words_per_len: int = 4,
                    seed: int = 0) -> list[tuple[Word, float]]:
    import random as _random

    rng = _random.Random(seed)
    rows = []
    for n in range(1, max_radius + 1):
        picks = set()
        for _ in range(words_per_len):
            w = []
            for i in range(n):
                choices = [s for s in S.ab.letters if not w or s != inverse_letter(w[-1])]
                w.append(rng.choice(choices))
            picks.add(tuple(w))
        for q in sorted(picks):
            rows.append((q, rn_holder_audit(S, q, eps)))
    return rows
