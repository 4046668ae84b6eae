"""Random-walk step laws assembled from a decomposition, and their checks.

The step mass at g is the accumulated spike weight times the unit spike's L1
norm.  Stationarity of the target density holds up to the recorded residual:
the support is finite (truncated series), so the convolution identity is
verified on cylinders with a certified error rather than exactly.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass

import numpy as np

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


def stationarity_error(mu: WalkMeasure, F: CylinderFunction, S: GibbsStream,
                       depth: int) -> float:
    """L1 distance on depth cylinders between mu * (F nu) and F nu."""
    conv = convolved_density_masses(mu, F, S, depth)
    d = max(F.depth, depth)
    fr = F.refine(d)
    target_deep = fr.values * S.mass_array(d)
    block = (S.ab.n_letters - 1) ** (d - depth)
    target = target_deep.reshape(-1, block).sum(axis=1)
    return float(np.abs(conv - target).sum())


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


def simulate_hitting(mu: WalkMeasure, n_paths: int, depth: int, seed: int,
                     stabilize: int = 50, step_cap: int = 2000,
                     check_support: bool = True) -> HittingReport:
    """Empirical boundary hitting distribution on depth cylinders.

    Each path multiplies i.i.d. steps until its depth prefix has persisted
    for `stabilize` consecutive steps; per-path RNG streams come from
    (seed, path index) so the reduction is order-independent.  Degenerate
    step laws (deterministic walks) are allowed only with
    `check_support=False`.
    """
    if check_support and not nondegenerate_support(mu):
        raise SimulationError("support does not generate a nonelementary subgroup")
    ab = mu.ab
    support = sorted(mu.masses)
    weights = np.array([mu.masses[g] for g in support])
    cum = np.cumsum(weights / weights.sum())
    counts: dict[Word, int] = {}
    failures = 0
    for i in range(n_paths):
        rng = random.Random(seed * 1_000_003 + i)
        word: list[int] = []
        prev = None
        streak = 0
        done = False
        for _ in range(step_cap):
            step = support[bisect.bisect_left(cum, rng.random())]
            for s in step:
                if word and word[-1] == (s ^ 1):
                    word.pop()
                else:
                    word.append(s)
            cur = tuple(word[:depth]) if len(word) >= depth else None
            if cur is not None and cur == prev:
                streak += 1
                if streak >= stabilize:
                    counts[cur] = counts.get(cur, 0) + 1
                    done = True
                    break
            else:
                streak = 1 if cur is not None else 0
            prev = cur
        if not done:
            failures += 1
    if failures > 0.001 * n_paths:
        raise SimulationError(f"{failures} paths failed to stabilize")
    emp = {g: c / n_paths for g, c in counts.items()}
    err = {g: math.sqrt(p * (1 - p) / n_paths) for g, p in emp.items()}
    return HittingReport(depth=depth, n_paths=n_paths, empirical=emp, stderr=err,
                         failures=failures)


def chi2_compatibility(r1: HittingReport, r2: HittingReport) -> float:
    """Two-sample chi-square p-value that the two runs share a distribution."""
    from scipy.stats import chi2

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
    return float(chi2.sf(stat, dof))
