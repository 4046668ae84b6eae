"""Config-driven experiment runner with reproducible CSV/JSON reports."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .cylfun import CylinderFunction
from .decompose import (
    DecomposerConfig,
    decompose,
    moment_majorant,
    moment_sum,
    stage_moments,
)
from .gibbs import (
    GibbsStream,
    critical_exponent,
    rn_holder_sweep,
    shadow_integral_audit,
    shadow_lemma_audit,
    shell_slope,
)
from .potentials import Potential, flip_potential, sym_potential
from .spikes import SpikeLab
from .stems import StemTable
from .walk import (
    assemble_walk,
    chi2_fit,
    density_masses,
    harmonic_measure,
    simulate_hitting,
    stationarity_error,
    walk_statistics,
)
from .words import Alphabet

PRESETS = {
    "uniform-f2": {
        "alphabet": {"rank": 2},
        "potential": {"depth": 1, "entries": {}, "suffix_rule": "average"},
        "target": {"kind": "ones"},
        "decomposer": {"stage_cap": 40, "target_l1": 1e-2},
        "walk": {"n_paths": 20000, "depth": 2, "stabilize": 50, "step_cap": 2000},
        "audits": {"shadow_radius": 8, "shadow_integral_smax": 20,
                   "spike_radius": 8, "rn_eps": 0.5, "h2_samples": 2000},
        "seed": 20260810,
    },
    "step-f2": {
        "alphabet": {"rank": 2},
        "potential": {"depth": 1, "entries": {}, "suffix_rule": "average"},
        "target": {"kind": "step", "depth": 2, "entries": {"a a": 1.25}, "default": 1.0},
        "decomposer": {"stage_cap": 40, "target_l1": 1e-2, "max_shell": 5},
        "walk": {"n_paths": 20000, "depth": 2, "stabilize": 50, "step_cap": 2000},
        "audits": {"shadow_radius": 8, "shadow_integral_smax": 20,
                   "spike_radius": 6, "rn_eps": 0.5, "h2_samples": 2000},
        "seed": 20260810,
    },
}

ALL_STAGES = ("pressure", "gibbs", "audit-spikes", "decompose", "walk", "validate-h2")

# the config sizes and step counts a stage reads, with the defaults it reads
# when the field or its section is absent; each must be an integer >= 1,
# or the stage has nothing to count
SIZES = {"walk": {"n_paths": 20000, "depth": 2, "stabilize": 50, "step_cap": 2000},
         "audits": {"shadow_radius": 8, "shadow_integral_smax": 20, "spike_radius": 8,
                    "h2_samples": 2000}}


class StageFailure(RuntimeError):
    def __init__(self, stage, msg):
        super().__init__(f"stage {stage}: {msg}")
        self.stage = stage


def load_config(path: str | None, preset: str | None, seed: int | None) -> dict:
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
        if "preset" in cfg and cfg["preset"]:
            # each section the file names is merged into the preset's, one level deep
            base = _preset(cfg["preset"])
            for key, val in cfg.items():
                if isinstance(val, dict) and isinstance(base.get(key), dict):
                    base[key].update(val)
                elif key != "preset":
                    base[key] = val
            cfg = base
    else:
        cfg = _preset(preset or "uniform-f2")
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _preset(name: str) -> dict:
    """A deep copy of the named preset; an unknown name is refused with the known ones."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known presets: {sorted(PRESETS)}")
    return json.loads(json.dumps(PRESETS[name]))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _entries(ab: Alphabet, entries: dict, what: str, shortest: int, longest: int) -> dict:
    """Config entries keyed by reduced words of shortest..longest letters;
    any other key is refused by name rather than dropped or reduced."""
    out = {}
    for key, val in entries.items():
        w = tuple(ab.letter_from_name(t) for t in key.split())
        if not shortest <= len(w) <= longest or ab.reduce(w) != w:
            size = longest if shortest == longest else f"{shortest} to {longest}"
            raise ValueError(f"{what} entry {key!r} is not a reduced word of {size} letters")
        out[w] = float(val)
    return out


def _size(cfg: dict, section: str, field: str):
    """The config's value of a field named in SIZES, or its stage's default."""
    return cfg.get(section, {}).get(field, SIZES[section][field])


def build_objects(cfg: dict):
    for section, fields in SIZES.items():
        for field in fields:
            val = _size(cfg, section, field)
            if isinstance(val, bool) or not isinstance(val, int) or val < 1:
                raise ValueError(f"{section}.{field} must be an integer >= 1, not {val!r}")
    ab = Alphabet(cfg["alphabet"]["rank"])
    pot = cfg["potential"]
    depth = pot.get("depth", 1)
    entries = _entries(ab, pot.get("entries", {}), "potential", depth, depth)
    table = {w: entries.get(w, 0.0) for w in ab.reduced_words(depth)}
    P = Potential(ab, depth, table, pot.get("suffix_rule", "average"))
    S = GibbsStream(P)
    tgt = cfg["target"]
    if tgt["kind"] == "ones":
        F = CylinderFunction.constant(ab, 1.0)
    elif tgt["kind"] == "step":
        F = CylinderFunction.from_table(
            ab, tgt["depth"], _entries(ab, tgt["entries"], "target", 1, tgt["depth"]),
            default=float(tgt.get("default", 1.0)))
    else:
        raise ValueError(f"unknown target kind {tgt['kind']!r}")
    F = F * (1.0 / F.integral(S.mass_array(F.depth)))
    return ab, P, S, F


class Reporter:
    def __init__(self, out_dir: Path, cfg: dict):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = config_hash(cfg)
        self.meta = {"config_hash": self.hash, "version": __version__}

    def csv(self, name: str, header: list, rows: list):
        with open(self.out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header + ["config_hash", "version"])
            for row in rows:
                w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row]
                           + [self.hash, __version__])

    def json(self, name: str, payload: dict):
        payload = dict(payload)
        payload.update(self.meta)
        with open(self.out / name, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=float)


def run_pressure(cfg, ab, P, S, rep: Reporter) -> dict:
    lam = S.pressure
    slope = shell_slope(P, 20, 40)
    lam_flip = critical_exponent(flip_potential(P))
    sym_defect = critical_exponent(sym_potential(P)) - S.pressure
    out = {
        "lambda": lam,
        "shell_slope": slope,
        "slope_gap": abs(slope - lam),
        "lambda_flip_gap": abs(lam - lam_flip),
        "sym_defect": sym_defect,
        "pass": abs(slope - lam) <= 1e-6 and abs(lam - lam_flip) <= 1e-10
                and sym_defect <= 1e-10,
    }
    rep.csv("pressure.csv", ["quantity", "value"],
            sorted((k, v) for k, v in out.items() if k != "pass"))
    rep.json("pressure.json", out)
    if not out["pass"]:
        raise StageFailure("pressure", "spectral/shell disagreement")
    return out


def run_gibbs(cfg, ab, P, S, rep: Reporter) -> dict:
    radius = _size(cfg, "audits", "shadow_radius")
    shadow = shadow_lemma_audit(S, radius)
    bound = shadow.bound
    rows = [(f"shadow-{n}", n, lo, bound, bool(lo >= 1.0 / bound - 1e-12)) for n, lo, hi in shadow.rows] \
        + [(f"shadow-{n}-max", n, hi, bound, bool(hi <= bound + 1e-12)) for n, lo, hi in shadow.rows]
    integral = shadow_integral_audit(S, _size(cfg, "audits", "shadow_integral_smax"))
    k_bound = max(integral.hi, 1.0 / integral.lo)
    rows += [(f"integral-{s}", s, scaled, k_bound, bool(1.0 / k_bound - 1e-12 <= scaled <= k_bound + 1e-12))
             for s, _, scaled in integral.rows]
    rep.csv("gibbs_audit.csv", ["instance", "depth", "ratio", "bound", "pass"], rows)
    holder = rn_holder_sweep(S, min(radius, 8), cfg.get("audits", {}).get("rn_eps", 0.5))
    rep.csv("rn_holder.csv", ["q", "d_emp"],
            [(ab.format_word(q), v) for q, v in holder])
    # additivity and total-mass checks at depth <= 8
    add_err = 0.0
    for n in range(1, 8):
        arr = S.mass_array(n)
        kids = StemTable(ab, n + 1).blocks(S.mass_array(n + 1), n).sum(axis=1)
        add_err = max(add_err, float(np.abs(arr - kids).max()))
    total_err = abs(float(S.mass_array(1).sum()) - 1.0)
    out = {
        "shadow_lo": shadow.lo, "shadow_hi": shadow.hi,
        "integral_lo": integral.lo, "integral_hi": integral.hi,
        "holder_max": max(v for _, v in holder),
        "additivity_err": add_err, "total_mass_err": total_err,
        "pass": add_err <= 1e-12 and total_err <= 1e-12 and shadow.lo > 0,
    }
    rep.json("gibbs_summary.json", out)
    if not out["pass"]:
        raise StageFailure("gibbs", "cylinder-mass consistency failed")
    return out


def run_spikes(cfg, ab, S, lab: SpikeLab, rep: Reporter) -> dict:
    cert = lab.cert
    radius = _size(cfg, "audits", "spike_radius")
    rows = []
    per_depth: dict[int, float] = {}
    for n in range(1, radius + 1):
        for g, audr in zip(StemTable(ab, n).stems(), lab.shell_audits(n)):
            rows.append((ab.format_word(g), n, audr.c1, audr.c2, audr.c3,
                         audr.c_holder, audr.minimal_c))
            per_depth[n] = max(per_depth.get(n, 0.0), audr.minimal_c)
    rep.csv("spike_audit.csv", ["g", "depth", "c1", "c2", "c3", "c_holder", "minimal_c"], rows)
    rep.json("decay_cert.json", asdict(cert))
    ns = sorted(per_depth)
    # the spike constants may still grow over the first 2m + 1 shells, not after
    head_len = 2 * S.depth_m + 1
    head = max(per_depth[n] for n in ns if n <= head_len)
    tail_ok = all(per_depth[n] <= head * (1 + 1e-9) for n in ns if n > head_len)
    out = {"C_G": cert.C_G, "alpha_G": cert.alpha_G, "beta_G": cert.beta_G,
           "sweep_max": max(per_depth.values()), "head_max": head,
           "pass": tail_ok and math.isfinite(max(per_depth.values()))}
    rep.json("spike_summary.json", out)
    if not out["pass"]:
        raise StageFailure("audit-spikes", "spike constants grow with depth")
    return out


def run_decompose(cfg, ab, S, F, lab: SpikeLab, rep: Reporter):
    dc = DecomposerConfig(**cfg.get("decomposer", {}))
    dec = decompose(F, S, dc, lab=lab)
    rows = [(tr.n, tr.eps, tr.s_value, tr.s_theory, tr.shell, tr.residual_l1,
             tr.residual_sup, tr.t_inf, tr.t_eps, tr.bound_l1, tr.entries_count)
            for tr in dec.stages]
    rep.csv("stages.csv", ["stage", "eps_n", "S_n", "S_theory", "shell", "residual_l1",
                           "residual_sup", "t_inf", "t_eps", "bound_l1", "entries_count"], rows)
    rep.json("decomposition.json", {
        "entries": {ab.format_word(g): w for g, w in sorted(dec.entries.items())},
        "final_residual_l1": dec.final_residual_l1,
        "status": dec.status,
        "moment_sum": moment_sum(dec),
    })
    bounds_ok = all(tr.residual_l1 <= tr.bound_l1 + 1e-12 for tr in dec.stages) \
        and all(tr.residual_sup <= tr.bound_sup + 1e-12 for tr in dec.stages)
    ratio_ok = all(tr.t_eps <= dc.ell + 1e-12 for tr in dec.stages)
    mom_ok = all(i <= m + 1e-12 for i, m in zip(stage_moments(dec), moment_majorant(dec)))
    positive = dec.residual.inf > 0
    out = {"stages": len(dec.stages), "residual_l1": dec.final_residual_l1,
           "status": dec.status, "bounds_ok": bounds_ok, "ratio_ok": ratio_ok,
           "moment_ok": mom_ok, "positive": positive,
           "pass": bounds_ok and ratio_ok and mom_ok and positive}
    if dec.needed_shell is not None:
        out["needed_shell"] = dec.needed_shell
    rep.json("decompose_summary.json", out)
    if not out["pass"]:
        raise StageFailure("decompose", "a certified stage bound failed")
    return dec, out


def run_walk(cfg, ab, P, S, F, dec, rep: Reporter) -> dict:
    mu = assemble_walk(dec, S)
    mu.save(rep.out / "walk_measure.json")
    err = stationarity_error(mu, F, S, min(3, F.depth + 1))
    stats = walk_statistics(mu)
    depth, n_paths = _size(cfg, "walk", "depth"), _size(cfg, "walk", "n_paths")
    limits = _size(cfg, "walk", "stabilize"), _size(cfg, "walk", "step_cap")
    seed = cfg.get("seed", 0)
    run = simulate_hitting(mu, n_paths, depth, seed, *limits)
    # after the run, so that the solve's arrays reuse the run's freed pages
    hm = harmonic_measure(mu, depth)
    p_chi2 = chi2_fit(run, hm)
    tab = StemTable(ab, depth)
    target = density_masses(F, S, depth)
    target = target / target.sum()
    rows = []
    sim_ok = True
    for i, stem in enumerate(tab.stems()):
        emp = run.empirical.get(stem, 0.0)
        se = run.stderr.get(stem, math.sqrt(max(target[i] * (1 - target[i]), 1e-12) / run.n_paths))
        z = (emp - target[i]) / se if se > 0 else 0.0
        ok = bool(abs(emp - target[i]) <= 4 * se + err)
        sim_ok = sim_ok and ok
        rows.append((ab.format_word(stem), emp, float(target[i]), se, z, float(hm.nu[i])))
    rep.csv("hitting.csv", ["cylinder", "empirical", "target", "stderr", "z", "harmonic"], rows)
    gap = abs(err - dec.final_residual_l1)
    out = {"total_mass": mu.total, "stationarity_error": err,
           "residual_gap": gap, "first_moment": stats.first_moment,
           "log_moment": stats.log_moment, "entropy": stats.entropy,
           "harmonic_l1": float(np.abs(hm.nu - target).sum()), "harmonic_err": hm.err,
           "harmonic_iterations": hm.iterations,
           "chi2_p": p_chi2, "sim_within_tolerance": sim_ok,
           "pass": gap <= 1e-8 and sim_ok and p_chi2 > 0.001}
    rep.json("walk_summary.json", out)
    if not out["pass"]:
        raise StageFailure("walk", "stationarity or hitting check failed")
    return out


def run_h2(cfg, rep: Reporter) -> dict:
    from .hyperbolic import comparison_audit, holder_chain_audit  # only this stage reads it

    n = _size(cfg, "audits", "h2_samples")
    seed = cfg.get("seed", 0)
    rep_a = comparison_audit(n, seed)
    rep_b = holder_chain_audit(max(100, n // 10), seed + 1)
    payload = {"comparison_estimates": rep_a, "holder_chain": rep_b,
               "pass": all(v["pass"] for v in rep_a.values())
                       and all(v["pass"] for v in rep_b.values())}
    rep.json("h2_report.json", payload)
    if not payload["pass"]:
        raise StageFailure("validate-h2", "a comparison estimate was violated")
    return {"pass": payload["pass"]}


def run_experiment(cfg: dict, out_dir: str, stages=ALL_STAGES) -> tuple[int, dict]:
    ab, P, S, F = build_objects(cfg)  # a refused config makes no report directory
    rep = Reporter(Path(out_dir), cfg)
    summary: dict = {"config_hash": rep.hash, "version": __version__}
    dec = None

    def guard(name, fn, *args):
        try:
            return fn(*args)
        except StageFailure:
            raise
        except Exception as exc:  # any stage error must name its stage
            raise StageFailure(name, repr(exc)) from exc

    try:
        if "pressure" in stages:
            summary["pressure"] = guard("pressure", run_pressure, cfg, ab, P, S, rep)
        if "gibbs" in stages:
            summary["gibbs"] = guard("gibbs", run_gibbs, cfg, ab, P, S, rep)
        if {"audit-spikes", "decompose", "walk"} & set(stages):
            # one lab, so one decay certificate, for the spike sweep and decompose
            first = "audit-spikes" if "audit-spikes" in stages else "decompose"
            lab = guard(first, SpikeLab, S, "hausdorff")
        if "audit-spikes" in stages:
            summary["audit_spikes"] = guard("audit-spikes", run_spikes, cfg, ab, S, lab, rep)
        if "decompose" in stages or "walk" in stages:
            dec, dsum = guard("decompose", run_decompose, cfg, ab, S, F, lab, rep)
            del lab  # with the shells it keeps: no later stage reads them
            if "decompose" in stages:
                summary["decompose"] = dsum
        if "walk" in stages:
            summary["walk"] = guard("walk", run_walk, cfg, ab, P, S, F, dec, rep)
        if "validate-h2" in stages:
            summary["validate_h2"] = guard("validate-h2", run_h2, cfg, rep)
    except StageFailure as exc:
        summary["failed_stage"] = exc.stage
        summary["error"] = str(exc)
        witness = getattr(exc.__cause__, "witness", None)
        if witness is not None:
            summary["witness"] = witness
        _write_summary(rep, summary, ok=False)
        return 1, summary
    _write_summary(rep, summary, ok=True)
    return 0, summary


def _write_summary(rep: Reporter, summary: dict, ok: bool):
    rep.json("summary.json", dict(summary, ok=ok))
    lines = []
    for key, val in summary.items():
        if isinstance(val, dict) and "pass" in val:
            lines.append(f"{'PASS' if val['pass'] else 'FAIL'} {key}")
    if "failed_stage" in summary:
        lines.append(f"FAIL stage {summary['failed_stage']}: {summary['error']}")
    lines.append(f"{'OK' if ok else 'FAILED'} config={summary['config_hash']} version={__version__}")
    (rep.out / "summary.txt").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gibbswalk",
                                     description="Gibbs streams, spikes, and harmonic walks "
                                                 "on free-group boundaries")
    parser.add_argument("command", choices=list(ALL_STAGES) + ["all"])
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named preset (ignored when --config has one)")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    stages = ALL_STAGES if args.command == "all" else (args.command,)
    try:
        cfg = load_config(args.config, args.preset, args.seed)
        code, summary = run_experiment(cfg, args.out, stages)
    except ValueError as exc:  # a config that is unreadable or refused: no traceback
        parser.error(str(exc))
    for key, val in summary.items():
        if isinstance(val, dict) and "pass" in val:
            print(f"{'PASS' if val['pass'] else 'FAIL'} {key}")
    if code != 0:
        print(f"failed at stage: {summary.get('failed_stage')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
