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

from .cylfun import CylinderFunction, scale_depth
from .gibbs import GibbsStream
from .spikes import CertificationError, DecayCert, SpikeLab, SpikeRecord
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
    spike_l1: dict           # g -> L1 norm of the unit spike
    spike_s: dict            # g -> depth scale of the spike
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


def _ball_coverage_counts(spikes: list[SpikeRecord], depth: int, ab) -> np.ndarray:
    tab = StemTable(ab, depth)
    counts = np.zeros(tab.size, dtype=np.int64)
    for rec in spikes:
        j = scale_depth(rec.r)
        if j == 0:
            counts += 1
        else:
            lo, hi = tab.prefix_range(rec.a.prefix(j))
            counts[lo:hi] += 1
    return counts


def subfunction_step(R: CylinderFunction, spikes: list[SpikeRecord], cert: DecayCert,
                     cfg: DecomposerConfig, eps: float) -> tuple[CylinderFunction, dict]:
    """One-shot subfunction: h = sum lambda_i f_i with certified sandwich bounds.

    lambda_i = R(a_i) / (2 D C_G t_eps^2 B).  All hypotheses are checked and
    both conclusions (h <= R everywhere; h >= R / (2 D^2 C_G t_eps^3 B) on the
    union of the spike balls) are re-verified exactly on cylinders.
    """
    if not spikes:
        raise HypothesisError("no spikes supplied")
    d_bound = cfg.d_bound
    if d_bound is None:
        raise ValueError("spike-constant bound not resolved yet")
    B = BESICOVITCH
    t_inf = R.sup / R.inf
    t_eps = R.ratio_within(eps)
    s_values = [rec.s for rec in spikes]
    s_min, s_max = min(s_values), max(s_values)
    if s_max - s_min > cfg.delta + 1e-12:
        raise HypothesisError("spike depth spread exceeds the shell width delta")
    for rec in spikes:
        if rec.r > eps * (1 + 1e-12):
            raise HypothesisError(f"spike ball radius {rec.r} exceeds eps {eps}")
        if rec.C is None or rec.C > d_bound * (1 + 1e-12):
            raise HypothesisError("spike constant missing or above the stage bound")
    if t_inf * math.exp(-cert.beta_G * s_min) > eps ** cert.beta_G * t_eps * (1 + 1e-9):
        raise HypothesisError("depth scale too shallow: t_inf e^{-beta S} > eps^beta t_eps")
    # almost-decreasing slack is exp(2 L spread); zero spread on shell stages
    depth = max(max(rec.h.depth for rec in spikes), R.depth)
    counts = _ball_coverage_counts(spikes, depth, R.ab)
    if counts.max() > B:
        raise HypothesisError(f"ball multiplicity {counts.max()} exceeds B = {B}")

    lam_scale = 1.0 / (2.0 * d_bound * cert.C_G * t_eps ** 2 * B)
    acc = np.zeros(StemTable(R.ab, depth).size)
    lambdas = {}
    for rec in spikes:
        lam = R(rec.a) * lam_scale
        lambdas[tuple(rec.center)] = lam
        acc += lam * rec.h.refine(depth).values
    h = CylinderFunction(R.ab, depth, acc)

    upper = R.refine(depth).values
    if (h.values > upper * (1 + 1e-11) + 1e-15).any():
        raise CertificationError("subfunction exceeds the residual somewhere")
    floor = 1.0 / (2.0 * d_bound ** 2 * cert.C_G * t_eps ** 3 * B)
    covered = counts > 0
    if (h.values[covered] < upper[covered] * floor * (1 - 1e-11)).any():
        raise CertificationError("subfunction lower bound fails on the covered set")
    return h, lambdas


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
    shells: dict[int, list[SpikeRecord]] = {}

    def shell_spikes(n: int) -> list[SpikeRecord]:
        """The audited unit spikes of shell n, built once, a whole shell at a time."""
        if n not in shells:
            shells[n] = lab.shell(n, None if F_const else F)
        return shells[n]

    cfg_run = cfg
    if cfg.d_bound is None:
        probe = [rec.C for n in range(1, SWEEP_RADIUS + 1) for rec in shell_spikes(n)]
        cfg_run = replace(cfg, d_bound=max(probe) * D_MARGIN)
    contraction = _contraction(cfg_run, cert)

    mass = S.mass_array
    R = F
    entries: dict = {}
    spike_l1: dict = {}
    spike_s: dict = {}
    stages: list[StageTrace] = []
    bound_l1 = F.l1(mass(F.depth))
    bound_sup = F.sup
    prev_l1 = bound_l1
    status = "stage_cap"
    needed_shell = None
    for n in range(cfg.stage_cap):
        l1 = R.l1(mass(R.depth))
        if l1 <= cfg.target_l1:
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
        for rec in spikes:
            g = tuple(rec.center)
            entries[g] = entries.get(g, 0.0) + cfg_run.gamma * lams[g]
            if g not in spike_l1:
                spike_l1[g] = rec.h.integral(mass(rec.h.depth))
                spike_s[g] = rec.s
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
        config=cfg_run, cert=cert, spike_l1=spike_l1,
        spike_s=spike_s, target=F, stream=S, status=status, needed_shell=needed_shell,
    )


def recompute_residual_l1(dec: Decomposition, lab: SpikeLab | None = None) -> float:
    """Rebuild F - sum(weight * f_g) from scratch and return its L1 norm."""
    S = dec.stream
    if lab is None:
        lab = SpikeLab(S, nu_id=dec.cert.nu_id)
    F_const = float(dec.target.values.max()) == float(dec.target.values.min())
    total = dec.target
    for g, w in sorted(dec.entries.items()):
        rec = lab.unit_spike(g, None if F_const else dec.target)
        total = total - w * rec.h
    return total.l1(S.mass_array(total.depth))


def moment_sum(dec: Decomposition) -> float:
    """Weighted first moment sum(weight * |f|_1 * s) of the decomposition."""
    return sum(w * dec.spike_l1[g] * dec.spike_s[g] for g, w in dec.entries.items())


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
        out.append(sum(dec.config.gamma * lam * dec.spike_l1[g] * dec.spike_s[g]
                       for g, lam in tr.lambda_entries.items()))
    return out
