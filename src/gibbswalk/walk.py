"""Random-walk step laws assembled from a decomposition, and their checks.

The step mass at g is the accumulated spike weight times the unit spike's L1
norm.  Stationarity of the target density holds up to the recorded residual:
the support is finite (truncated series), so the convolution identity is
verified on cylinders with a certified error rather than exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .cylfun import CylinderFunction
from .decompose import Decomposition
from .gibbs import GibbsStream
from .stems import StemTable
from .words import Alphabet, Word, _translate_stem_set


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class WalkMeasure:
    ab: Alphabet
    masses: dict          # g -> positive mass
    base: Word = ()

    @property
    def total(self) -> float:
        return sum(self.masses.values())

    def save(self, path) -> None:
        payload = {
            "rank": self.ab.rank,
            "base": self.ab.format_word(self.base),
            "masses": {self.ab.format_word(g): m for g, m in sorted(self.masses.items())},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "WalkMeasure":
        with open(path) as fh:
            payload = json.load(fh)
        ab = Alphabet(payload["rank"])
        masses = {ab.parse_word(k): float(v) for k, v in payload["masses"].items()}
        return cls(ab=ab, masses=masses, base=ab.parse_word(payload.get("base", "")))


def assemble_walk(dec: Decomposition, S: GibbsStream) -> WalkMeasure:
    """Step law mu(g) = weight(g) * |f_g|_1 over the decomposition support."""
    if not dec.entries:
        raise ValueError("decomposition has no entries to assemble")
    masses = {g: w * dec.spike_l1[g] for g, w in dec.entries.items() if w > 0}
    return WalkMeasure(ab=S.ab, masses=masses)


def convolved_density_masses(mu: WalkMeasure, F: CylinderFunction, S: GibbsStream,
                             depth: int) -> np.ndarray:
    """Cylinder masses of sum_g mu(g) * g_*(F d nu) at the given depth.

    Built directly from translated cylinders and the stream's mass arrays,
    independently of the spike machinery.  F, nu and the stem table are read
    at each piece depth once; the sums run in (g, stem, piece) order.
    """
    ab = mu.ab
    stems = list(StemTable(ab, depth).stems())
    deep: dict[int, tuple] = {}  # piece depth -> (F values, nu masses, stem table)
    out = np.zeros(len(stems))
    for g, m in sorted(mu.masses.items()):
        ginv = ab.inv(g)
        for i, stem in enumerate(stems):
            total = 0.0
            for piece in _translate_stem_set(ab, ginv, stem):
                d = max(F.depth, len(piece))
                if d not in deep:
                    deep[d] = (F.refine(d).values, S.mass_array(d), StemTable(ab, d))
                fv, mv, tab = deep[d]
                lo, hi = tab.prefix_range(piece)
                total += float(fv[lo:hi] @ mv[lo:hi])
            out[i] += m * total
    return out


def density_masses(F: CylinderFunction, S: GibbsStream, depth: int) -> np.ndarray:
    """Cylinder masses of F d nu at the given depth: F and nu are multiplied
    at depth max(depth(F), depth) and summed over each depth cylinder."""
    d = max(F.depth, depth)
    deep = F.refine(d).values * S.mass_array(d)
    return deep.reshape(-1, (S.ab.n_letters - 1) ** (d - depth)).sum(axis=1)


def stationarity_error(mu: WalkMeasure, F: CylinderFunction, S: GibbsStream,
                       depth: int) -> float:
    """L1 distance on depth cylinders between mu * (F nu) and F nu."""
    conv = convolved_density_masses(mu, F, S, depth)
    return float(np.abs(conv - density_masses(F, S, depth)).sum())


@dataclass(frozen=True)
class WalkStats:
    first_moment: float
    log_moment: float
    entropy: float
    superexponential: bool | None


def walk_statistics(mu: WalkMeasure) -> WalkStats:
    """First moment, log moment, entropy; flags superexponential weight decay
    across word-length shells (the sufficient condition for finite entropy)."""
    first = sum(m * len(g) for g, m in mu.masses.items())
    logm = sum(m * math.log1p(len(g)) for g, m in mu.masses.items())
    ent = -sum(m * math.log(m) for m in mu.masses.values() if m > 0)
    shells: dict[int, float] = {}
    for g, m in mu.masses.items():
        shells[len(g)] = max(shells.get(len(g), 0.0), m)
    flag: bool | None = None
    ls = sorted(shells)
    if len(ls) >= 3:
        slopes = [math.log(shells[b]) - math.log(shells[a]) for a, b in zip(ls, ls[1:])]
        flag = all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
    return WalkStats(first_moment=first, log_moment=logm, entropy=ent, superexponential=flag)


def entropy_decomposition(mu: WalkMeasure, dphi: dict) -> tuple[float, float, float]:
    """Entropy split -sum mu log mu = sum mu d_phi - sum lam e^{-d_phi} log lam
    with lam(g) = mu(g) e^{d_phi(g)}; returns (entropy, moment_term, lambda_term)."""
    ent = mom = lamterm = 0.0
    for g, m in mu.masses.items():
        ent += -m * math.log(m)
        lam = m * math.exp(dphi[g])
        mom += m * dphi[g]
        lamterm += -lam * math.exp(-dphi[g]) * math.log(lam)
    return ent, mom, lamterm


def nondegenerate_support(mu: WalkMeasure) -> bool:
    """Support generates a nonelementary subgroup: two non-commuting elements."""
    gs = [g for g in mu.masses if g]
    for i, g1 in enumerate(gs):
        for g2 in gs[i + 1:]:
            if mu.ab.mul(g1, g2) != mu.ab.mul(g2, g1):
                return True
    return False


@dataclass(frozen=True)
class HittingReport:
    depth: int
    n_paths: int
    empirical: dict      # stem -> fraction of paths
    stderr: dict
    failures: int


# Paths advance together in chunks of HIT_CHUNK; each path's steps are
# drawn HIT_BLOCK at a time (a path that outlives its block draws a longer
# one).  Together they keep a chunk's arrays near 1 MB.
HIT_CHUNK = 1024
HIT_BLOCK = 64


def _uniform_rows(ns, t0: int, t1: int) -> np.ndarray:
    """Uniforms t0..t1-1 of `random.Random(n).random()`, one row per n.

    Each stream is read as raw Mersenne Twister words with `getrandbits`,
    which emits them least significant first, and every double is built
    from a pair of words as `random()` builds it, so the rows equal the
    Python draws bit for bit whatever the batch.
    """
    rng = random.Random(0)
    raw = bytearray()
    for n in ns:
        rng.seed(n)
        raw += rng.getrandbits(64 * t1).to_bytes(8 * t1, "little")
    w = np.frombuffer(raw, dtype="<u4").reshape(-1, t1, 2)[:, t0:]
    u = (w[..., 0] >> 5) * 67108864.0  # exact: a * 2^26 + b < 2^53
    u += w[..., 1] >> 6
    u *= 2.0 ** -53
    return u


def _hit_chunk(ns: list, cum: np.ndarray, letters: np.ndarray, inverse: np.ndarray,
               step_len: np.ndarray, n_letters: int, depth: int, stabilize: int,
               step_cap: int) -> np.ndarray:
    """Final depth-prefix code of each path in a chunk, -1 if it never stabilized.

    Live paths advance one step per pass.  Words are rows of a padded int16
    array with a length per row; a reduced step cancels a prefix of itself
    against the word's tail, then appends the rest.  The code of a prefix
    is its letters in base n_letters, and -1 stands for a word shorter than
    `depth` (no prefix yet).  No step cancels more letters than its own
    length, so a word at least `depth` + `rest` longest steps long keeps its
    prefix for `rest` more steps: a path whose streak would reach
    `stabilize` within that reach (and before `step_cap`) stops with its
    code at once, the outcome the full loop would record.
    """
    reach = letters.shape[1]
    cols = np.arange(reach)
    place = n_letters ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    out = np.full(len(ns), -1, dtype=np.int64)
    live = np.arange(len(ns))             # chunk index of each live row
    word = np.zeros((len(ns), max(64, depth)), dtype=np.int16)
    wlen = np.zeros(len(ns), dtype=np.intp)
    prev = np.full(len(ns), -1, dtype=np.int64)
    streak = np.zeros(len(ns), dtype=np.intp)
    t0 = t1 = 0
    for t in range(step_cap):
        if t == t1:
            t0, t1 = t1, min(max(2 * t1, HIT_BLOCK), step_cap)
            steps = np.searchsorted(cum, _uniform_rows([ns[j] for j in live], t0, t1),
                                    side="left")
        s = steps[:, t - t0]
        sl = step_len[s]
        rows = np.arange(len(live))[:, None]
        match = (word[rows, np.maximum(wlen[:, None] - 1 - cols, 0)] == inverse[s]) \
            & (cols < np.minimum(wlen, sl)[:, None])
        c = np.logical_and.accumulate(match, axis=1).sum(axis=1)
        base = wlen - c
        wlen = base + sl - c
        need = int(wlen.max())
        if need > word.shape[1]:
            wider = np.zeros((len(word), max(need, 2 * word.shape[1])), dtype=np.int16)
            wider[:, :word.shape[1]] = word
            word = wider
        r, js = np.nonzero((cols >= c[:, None]) & (cols < sl[:, None]))
        word[r, base[r] + js - c[r]] = letters[s[r], js]
        code = np.where(wlen >= depth, word[:, :depth] @ place, -1)
        same = (code >= 0) & (code == prev)
        streak = np.where(same, streak + 1, code >= 0)
        prev = code
        rest = np.maximum(stabilize - streak, ~same)  # steps until the loop records
        done = (code >= 0) & (wlen - reach * rest >= depth) & (t + rest < step_cap)
        if done.any():
            out[live[done]] = code[done]
            keep = ~done
            live, word, wlen, prev, streak, steps = (
                live[keep], word[keep], wlen[keep], prev[keep], streak[keep], steps[keep])
            if not len(live):
                break
    return out


def _hitting_codes(mu: WalkMeasure, n_paths: int, depth: int, seed: int, stabilize: int,
                   step_cap: int) -> np.ndarray:
    """Final depth-prefix code of each path, -1 for a path that never stabilized."""
    n_letters = mu.ab.n_letters
    support = sorted(mu.masses)
    weights = np.array([mu.masses[g] for g in support])
    cum = np.cumsum(weights / weights.sum())
    step_len = np.array([len(g) for g in support], dtype=np.intp)
    letters = np.zeros((len(support), int(step_len.max(initial=0))), dtype=np.int16)
    for r, g in enumerate(support):
        letters[r, :len(g)] = g
    inverse = letters ^ 1
    outcome = np.full(n_paths, -1, dtype=np.int64)
    for lo in range(0, n_paths, HIT_CHUNK):
        hi = min(lo + HIT_CHUNK, n_paths)
        ns = [seed * 1_000_003 + i for i in range(lo, hi)]
        outcome[lo:hi] = _hit_chunk(ns, cum, letters, inverse, step_len, n_letters,
                                    depth, stabilize, step_cap)
    return outcome


def simulate_hitting(mu: WalkMeasure, n_paths: int, depth: int, seed: int,
                     stabilize: int = 50, step_cap: int = 2000,
                     check_support: bool = True) -> HittingReport:
    """Empirical boundary hitting distribution on depth cylinders.

    Each path multiplies i.i.d. steps until its depth prefix has persisted
    for `stabilize` consecutive steps.  Path i draws its steps from the
    stream of `random.Random(seed * 1_000_003 + i)`, bisecting the
    cumulative step law, so the result does not depend on how paths are
    grouped.  Paths advance together, one step per numpy pass, in chunks of
    HIT_CHUNK paths.  Degenerate step laws (deterministic walks) are allowed
    only with `check_support=False`.
    """
    if check_support and not nondegenerate_support(mu):
        raise SimulationError("support does not generate a nonelementary subgroup")
    n_letters = mu.ab.n_letters
    if n_letters ** depth >= 2 ** 62:
        raise ValueError(f"depth {depth} cylinders of rank {mu.ab.rank} overflow the prefix code")
    outcome = _hitting_codes(mu, n_paths, depth, seed, stabilize, step_cap)
    failures = int((outcome < 0).sum())
    if failures > 0.001 * n_paths:
        raise SimulationError(f"{failures} paths failed to stabilize")
    codes, first, counts = np.unique(outcome[outcome >= 0], return_index=True,
                                     return_counts=True)
    emp = {}
    for k in np.argsort(first):  # the order in which a path first reached each stem
        code, stem = int(codes[k]), []
        for _ in range(depth):
            code, s = divmod(code, n_letters)
            stem.append(s)
        emp[tuple(reversed(stem))] = int(counts[k]) / n_paths
    err = {g: math.sqrt(p * (1 - p) / n_paths) for g, p in emp.items()}
    return HittingReport(depth=depth, n_paths=n_paths, empirical=emp, stderr=err,
                         failures=failures)


def chi2_compatibility(r1: HittingReport, r2: HittingReport) -> float:
    """Two-sample chi-square p-value that the two runs share a distribution."""
    stems = sorted(set(r1.empirical) | set(r2.empirical))
    n1, n2 = r1.n_paths, r2.n_paths
    stat = 0.0
    dof = 0
    for g in stems:
        c1 = r1.empirical.get(g, 0.0) * n1
        c2 = r2.empirical.get(g, 0.0) * n2
        pooled = (c1 + c2) / (n1 + n2)
        if pooled == 0:
            continue
        stat += (c1 - n1 * pooled) ** 2 / (n1 * pooled)
        stat += (c2 - n2 * pooled) ** 2 / (n2 * pooled)
        dof += 1
    dof = max(dof - 1, 1)
    return float(chdtrc(dof, stat))  # the chi-square survival function
