"""Greedy staged decomposition of positive boundary functions into spikes.

Stage n measures the residual's ratio profile, picks the coarsest scale at
which that ratio is below ell, sizes the shell so the subfunction hypotheses
hold, and subtracts gamma times the certified subfunction.  On the tree the
shadows of a shell partition the boundary, so the strong (uniform) case of
the approximation theorem applies with Besicovitch multiplicity one.

Every proposition hypothesis is checked, not assumed, and both conclusions
of the subfunction step are re-verified exactly on cylinders before the
residual is updated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cylfun import CylinderFunction
from .gibbs import GibbsStream
from .spikes import CertificationError, DecayCert, SpikeLab, SpikeShell, ray_rows
from .stems import StemTable


# Besicovitch multiplicity of the shell's shadow balls (they partition the
# boundary); the stage bound D is the largest spike constant over
# |g| <= SWEEP_RADIUS, times D_MARGIN, unless a d_bound is given
BESICOVITCH = 1
D_MARGIN = 1.1
SWEEP_RADIUS = 4


class HypothesisError(RuntimeError):
    """A checked precondition of the subfunction step failed."""


@dataclass(frozen=True)
class DecomposerConfig:
    ell: float = 2.0
    gamma: float = 0.5
    delta: float = 1.0
    stage_cap: int = 40
    target_l1: float = 1e-2
    d_bound: float | None = None  # the spike-constant bound D of every stage
    boost: bool = True   # rescale each stage subfunction by its exact headroom
    max_shell: int = 5   # exact-representation budget: stop before deeper shells

    def __post_init__(self):
        if self.ell <= 1 or not 0 < self.gamma < 1:
            raise ValueError("need ell > 1, 0 < gamma < 1")
        if self.delta < 0:
            raise ValueError("the shell width delta must be >= 0")
        if self.d_bound is not None and self.d_bound < 1:
            raise ValueError("the spike-constant bound must be >= 1")


@dataclass(frozen=True)
class StageTrace:
    n: int
    eps: float
    s_value: float       # realized depth scale (spikes live on this shell)
    s_theory: float      # the a-priori schedule value, recorded for comparison
    shell: int
    lambda_entries: dict
    residual_l1: float
    residual_sup: float
    t_inf: float
    t_eps: float
    bound_l1: float      # theoretical contraction bound at this stage
    bound_sup: float

    @property
    def entries_count(self) -> int:
        return len(self.lambda_entries)


@dataclass
class Decomposition:
    entries: dict            # g -> accumulated weight (gamma_n * lambda summed)
    stages: list
    final_residual_l1: float
    residual: CylinderFunction
    config: DecomposerConfig
    cert: DecayCert
    spike_l1: dict           # g -> L1 norm of the unit spike (its depth scale is len(g))
    target: CylinderFunction
    stream: GibbsStream
    status: str = "target"   # "target" | "stage_cap" | "shell_budget"
    needed_shell: int | None = None  # the shell a "shell_budget" stop would have needed


def _contraction(cfg: DecomposerConfig, cert: DecayCert) -> float:
    """The certified per-stage factor on the residual's L1 and sup norms."""
    return 1.0 - cfg.gamma / (2.0 * cfg.d_bound ** 2 * cfg.ell ** 3 * cert.C_G * BESICOVITCH)


def _coarsest_scale(R: CylinderFunction, ell: float) -> tuple[float, float]:
    """Largest scale e^{-j} (j >= 0) with ratio-within <= ell, and that ratio;
    exact.  At j = depth every ball is one cylinder, so the ratio is 1."""
    for j in range(R.depth):
        eps = 1.0 if j == 0 else math.exp(-j)
        t = R.ratio_within(eps)
        if t <= ell:
            return eps, t
    return math.exp(-R.depth), 1.0


def subfunction_step(R: CylinderFunction, spikes: SpikeShell, cert: DecayCert,
                     cfg: DecomposerConfig, eps: float) -> tuple[CylinderFunction, dict]:
    """One-shot subfunction: h = sum lambda_i f_i over a shell's spikes, with
    certified sandwich bounds.

    lambda_i = R(a_i) / (2 D C_G t_eps^2 B).  All hypotheses are checked and
    both conclusions (h <= R everywhere; h >= R / (2 D^2 C_G t_eps^3 B) on the
    union of the spike balls) are re-verified exactly on cylinders.
    """
    if not len(spikes.words):
        raise HypothesisError("no spikes supplied")
    d_bound = cfg.d_bound
    if d_bound is None:
        raise ValueError("spike-constant bound not resolved yet")
    B = BESICOVITCH
    t_inf = R.sup / R.inf
    t_eps = R.ratio_within(eps)
    n = spikes.words.shape[1]  # one shell: radius e^{-n}, depth scale n, no spread
    if math.exp(-n) > eps * (1 + 1e-12):
        raise HypothesisError(f"spike ball radius {math.exp(-n)} exceeds eps {eps}")
    if spikes.C.max() > d_bound * (1 + 1e-12):
        raise HypothesisError("spike constant above the stage bound")
    if t_inf * math.exp(-cert.beta_G * n) > eps ** cert.beta_G * t_eps * (1 + 1e-9):
        raise HypothesisError("depth scale too shallow: t_inf e^{-beta S} > eps^beta t_eps")
    depth = max(spikes.depth, R.depth)
    tab = StemTable(R.ab, depth)
    at = tab.indices(ray_rows(spikes.words, depth))  # the stem of each spike's ray
    ball = tab.span(n)  # a ball is the depth-n cylinder of its centre
    counts = np.bincount(at // ball, minlength=tab.size // ball)
    if counts.max() > B:
        raise HypothesisError(f"ball multiplicity {counts.max()} exceeds B = {B}")

    upper = R.refine(depth).values
    lam = upper[at] * (1.0 / (2.0 * d_bound * cert.C_G * t_eps ** 2 * B))
    h = CylinderFunction(R.ab, depth, spikes.combine(lam, tab))
    if (h.values > upper * (1 + 1e-11) + 1e-15).any():
        raise CertificationError("subfunction exceeds the residual somewhere")
    floor = 1.0 / (2.0 * d_bound ** 2 * cert.C_G * t_eps ** 3 * B)
    covered = np.repeat(counts > 0, ball)
    if (h.values[covered] < upper[covered] * floor * (1 - 1e-11)).any():
        raise CertificationError("subfunction lower bound fails on the covered set")
    return h, dict(zip(map(tuple, spikes.words.tolist()), lam.tolist()))


def decompose(F: CylinderFunction, S: GibbsStream, cfg: DecomposerConfig,
              lab: SpikeLab | None = None) -> Decomposition:
    """Run greedy stages until the residual L1 norm reaches the target.

    The spike integrals use the reference measure registered by `lab` (by
    default the target stream itself); its decay certificate is `cert`.
    """
    if F.inf <= 0:
        raise ValueError("target function must be uniformly positive")
    if lab is None:
        lab = SpikeLab(S, nu_id="gibbs")
    cert = lab.cert
    F_const = float(F.values.max()) == float(F.values.min())
    shells: dict[int, SpikeShell] = {}

    def shell_spikes(n: int) -> SpikeShell:
        """The audited unit spikes of shell n, built once, a whole shell at a time."""
        if n not in shells:
            shells[n] = lab.shell(n, None if F_const else F)
        return shells[n]

    cfg_run = cfg
    if cfg.d_bound is None:
        probe = max(float(shell_spikes(n).C.max()) for n in range(1, SWEEP_RADIUS + 1))
        cfg_run = replace(cfg, d_bound=probe * D_MARGIN)
    contraction = _contraction(cfg_run, cert)

    mass = S.mass_array
    R = F
    entries: dict = {}
    spike_l1: dict = {}
    stages: list[StageTrace] = []
    bound_l1 = F.l1(mass(F.depth))
    bound_sup = F.sup
    prev_l1 = bound_l1
    status = "stage_cap"
    needed_shell = None
    for n in range(cfg.stage_cap):
        if prev_l1 <= cfg.target_l1:
            status = "target"
            break
        t_inf = R.sup / R.inf
        eps, t_eps = _coarsest_scale(R, cfg_run.ell)
        s_theory = -math.log(eps) + math.log(max(t_inf, 1.0) / cfg_run.ell) / cert.beta_G
        s_needed = -math.log(eps) + math.log(t_inf / t_eps) / cert.beta_G
        shell = max(1, math.ceil(s_needed - 1e-12))
        if shell > cfg_run.max_shell:
            status, needed_shell = "shell_budget", shell
            break
        spikes = shell_spikes(shell)
        h, lams = subfunction_step(R, spikes, cert, cfg_run, eps)
        if cfg_run.boost:
            # weights may be varied per stage; take the exact headroom so the
            # subtracted part touches the residual while both certified
            # sandwich bounds survive (kappa >= 1)
            kappa = float((R.refine(h.depth).values / h.values).min())
            h = h * kappa
            lams = {g: lam * kappa for g, lam in lams.items()}
        new_R = R - cfg_run.gamma * h
        if new_R.inf <= 0:
            raise CertificationError(f"residual positivity lost at stage {n}")
        bound_l1 *= contraction
        bound_sup *= contraction
        for g, lam in lams.items():  # the shell's stem order
            entries[g] = entries.get(g, 0.0) + cfg_run.gamma * lam
        if any(g not in spike_l1 for g in lams):
            for g, l1 in zip(lams, spikes.integrals(mass(spikes.depth))):
                spike_l1.setdefault(g, l1)
        R = new_R
        new_l1 = R.l1(mass(R.depth))
        if new_l1 >= prev_l1:
            raise CertificationError(f"residual failed to decrease at stage {n}")
        prev_l1 = new_l1
        stages.append(StageTrace(
            n=n, eps=eps, s_value=float(shell), s_theory=s_theory, shell=shell,
            lambda_entries=lams, residual_l1=new_l1, residual_sup=R.sup,
            t_inf=t_inf, t_eps=t_eps, bound_l1=bound_l1, bound_sup=bound_sup,
        ))
    else:
        status = "target" if prev_l1 <= cfg.target_l1 else "stage_cap"
    return Decomposition(
        entries=entries, stages=stages, final_residual_l1=prev_l1, residual=R,
        config=cfg_run, cert=cert, spike_l1=spike_l1, target=F, stream=S,
        status=status, needed_shell=needed_shell,
    )


def moment_sum(dec: Decomposition) -> float:
    """Weighted first moment sum(weight * |f|_1 * s) of the decomposition."""
    return sum(w * dec.spike_l1[g] * len(g) for g, w in dec.entries.items())


def moment_majorant(dec: Decomposition) -> list[float]:
    """Per-stage majorant (S_n + delta) * contraction^n * |F|_1; its partial
    sums dominate the staged moment partial sums."""
    cfg = dec.config
    contraction = _contraction(cfg, dec.cert)
    f_l1 = dec.target.l1(dec.stream.mass_array(dec.target.depth))
    out = []
    prod = 1.0
    for tr in dec.stages:
        out.append((tr.s_value + cfg.delta) * prod * f_l1)
        prod *= contraction
    return out


def stage_moments(dec: Decomposition) -> list[float]:
    """Per-stage sum of gamma * lambda * |f|_1 * s (the moment increments)."""
    out = []
    for tr in dec.stages:
        out.append(sum(dec.config.gamma * lam * dec.spike_l1[g] * len(g)
                       for g, lam in tr.lambda_entries.items()))
    return out
