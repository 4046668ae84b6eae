"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import math
import random

import numpy as np
import pytest

from gibbswalk.decompose import moment_majorant, stage_moments
from gibbswalk.gibbs import (
    critical_exponent,
    shadow_integral_audit,
    shadow_lemma_audit,
    shell_slope,
)
from gibbswalk.hyperbolic import comparison_audit
from gibbswalk.potentials import Potential, d_phi
from gibbswalk.spikes import SpikeLab
from gibbswalk.stems import StemTable
from gibbswalk.walk import (
    WalkMeasure,
    assemble_walk,
    simulate_hitting,
    stationarity_error,
    walk_statistics,
)
from gibbswalk.words import Alphabet, inverse_letter
from oracles import (
    Cylinder,
    RandomReducedWord,
    chi2_compatibility,
    cylinder_mass,
    entropy_decomposition,
    measure_from,
    rn_derivative,
    total_mass_from,
    translate_cylinder,
)

AB = Alphabet(2)
SEED = 20260810


def report(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def rand_word(rng, n):
    w = []
    for _ in range(n):
        choices = [s for s in AB.letters if not w or s != inverse_letter(w[-1])]
        w.append(rng.choice(choices))
    return tuple(w)


@pytest.fixture(scope="module")
def walks(uniform_decomposition, step_decomposition, uniform_stream):
    mu_u = assemble_walk(uniform_decomposition, uniform_stream)
    mu_s = assemble_walk(step_decomposition, uniform_stream)
    return mu_u, mu_s


def test_01_pressure_oracles(uniform_stream):
    ok = abs(critical_exponent(Potential.zero(AB)) - math.log(3)) <= 1e-9
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        P = Potential(AB, 1, {(s,): float(v) for s, v in
                              zip(AB.letters, rng.uniform(-0.6, 1.0, 4))})
        ok = ok and abs(shell_slope(P, 20, 40) - critical_exponent(P)) <= 1e-6
    report(1, ok, "critical exponent: log 3 within 1e-9; spectral vs shell slope 1e-6")


def test_02_gibbs_exactness(uniform_stream, random_stream, stream_m2):
    ok = True
    for n in range(1, 9):
        arr = uniform_stream.mass_array(n)
        ok = ok and float(np.abs(arr - 1.0 / (4 * 3 ** (n - 1))).max()) <= 1e-12
    for S in (uniform_stream, random_stream, stream_m2):
        ok = ok and abs(float(S.mass_array(1).sum()) - 1.0) <= 1e-12
        for n in range(1, 8):
            arr = S.mass_array(n)
            kids = S.mass_array(n + 1).reshape(len(arr), -1).sum(axis=1)
            ok = ok and float(np.abs(arr - kids).max()) <= 1e-12
    report(2, ok, "uniform cylinder masses exact to 1e-12; additivity and total mass 1e-12")


def test_03_radon_nikodym(random_stream):
    rng = random.Random(33)
    S = random_stream
    ok = True
    for _ in range(1000):
        xi = RandomReducedWord(AB, rng.randrange(10**7))
        p, q, r = (rand_word(rng, rng.randrange(4)) for _ in range(3))
        chain = rn_derivative(S, p, q, xi) * rn_derivative(S, q, r, xi)
        ok = ok and abs(chain - rn_derivative(S, p, r, xi)) <= 1e-10 * max(1.0, chain)
    for _ in range(200):
        g = rand_word(rng, rng.randrange(1, 4))
        c = Cylinder(rand_word(rng, rng.randrange(1, 4)))
        lhs = measure_from(S, g, [translate_cylinder(AB, g, c)])
        ok = ok and abs(lhs - cylinder_mass(S, (), c)) <= 1e-10
    for _ in range(50):
        q = rand_word(rng, rng.randrange(1, 5))
        total = total_mass_from(S, q)  # = integral of the derivative d mu_q / d mu_e
        check = sum(measure_from(S, q, [Cylinder((s,))]) for s in AB.letters)
        ok = ok and abs(total - check) <= 1e-10
    report(3, ok, "RN chain rule, equivariance, and integral consistency at 1e-10 (1000 draws)")


def test_04_shadow_lemma(uniform_stream, random_stream, stream_m2):
    ok = True
    for S in (uniform_stream, random_stream, stream_m2):
        rep = shadow_lemma_audit(S, 12)
        m = S.depth_m
        head_hi = max(hi for n, lo, hi in rep.rows if n <= m + 2)
        head_lo = min(lo for n, lo, hi in rep.rows if n <= m + 2)
        C = max(head_hi, 1.0 / head_lo)
        for n, lo, hi in rep.rows:
            ok = ok and (1.0 / C) * (1 - 1e-9) <= lo and hi <= C * (1 + 1e-9)
        rep_i = shadow_integral_audit(S, 20)
        scaled = [sc for _, _, sc in rep_i.rows]
        # exhibit the interval: all ratios positive, bounded, and converging
        # (the Perron gap shrinks successive oscillations)
        K = max(max(scaled), 1.0 / min(scaled))
        ok = ok and 0 < min(scaled) and K < 10.0
        ok = ok and abs(scaled[-1] - scaled[-2]) <= abs(scaled[1] - scaled[0]) + 1e-12
    report(4, ok, "shadow ratios in a fixed interval through |q| <= 12; integral ratios s <= 20")


def test_05_spike_certification(uniform_stream, random_stream):
    ok = True
    for S in (uniform_stream, random_stream):
        lab = SpikeLab(S)
        rows = [(g, a.minimal_c) for n in range(1, 9)
                for g, a in zip(S.ab.reduced_words(n), lab.shell_audits(n))]
        per = {}
        for g, c in rows:
            ok = ok and math.isfinite(c)
            per[len(g)] = max(per.get(len(g), 0.0), c)
        head = max(per[n] for n in per if n <= S.depth_m + 2)
        ok = ok and all(per[n] <= head * (1 + 1e-9) for n in per)
    report(5, ok, "every derivative spike |g| <= 8 certified; sweep maximum flat past depth m+2")


def test_06_decomposition_convergence(uniform_decomposition, step_decomposition):
    ok = True
    for dec in (uniform_decomposition, step_decomposition):
        for tr in dec.stages:
            ok = ok and tr.residual_l1 <= tr.bound_l1 + 1e-12
            ok = ok and tr.residual_sup <= tr.bound_sup + 1e-12
            ok = ok and tr.t_eps <= dec.config.ell + 1e-12
        ok = ok and dec.residual.inf > 0
        inc = np.cumsum(stage_moments(dec))
        maj = np.cumsum(moment_majorant(dec))
        ok = ok and bool((inc <= maj + 1e-12).all())
    report(6, ok, "residuals under the contraction product at every stage; positive; "
                  "sup-norm contracting; moments under the majorant")


def test_07_harmonicity(uniform_decomposition, step_decomposition, uniform_stream,
                        ones_target, step_target, walks):
    mu_u, mu_s = walks
    err_u = stationarity_error(mu_u, ones_target, uniform_stream, 2)
    err_s = stationarity_error(mu_s, step_target, uniform_stream, 3)
    ok = abs(err_u - uniform_decomposition.final_residual_l1) <= 1e-8
    ok = ok and abs(err_s - step_decomposition.final_residual_l1) <= 1e-8
    ok = ok and len(uniform_decomposition.stages) <= 40 and err_u <= 1e-2
    report(7, ok, "stationarity error equals the recorded residual (1e-8); "
                  "uniform preset below 1e-2 within 40 stages")


def test_08_poisson_boundary_probe(uniform_stream, ones_target, step_target,
                                   uniform_decomposition, step_decomposition, walks):
    mu_u, mu_s = walks
    ok = True
    for mu, F, dec, depth in ((mu_u, ones_target, uniform_decomposition, 3),
                              (mu_s, step_target, step_decomposition, 2)):
        err = stationarity_error(mu, F, uniform_stream, depth)
        rep1 = simulate_hitting(mu, 100_000, depth, seed=SEED)
        rep2 = simulate_hitting(mu, 100_000, depth, seed=SEED + 1)
        ok = ok and chi2_compatibility(rep1, rep2) > 0.001
        tab = StemTable(AB, depth)
        Fd = F.refine(max(F.depth, depth))
        dens = Fd.values * uniform_stream.mass_array(Fd.depth)
        target = dens.reshape(tab.size, -1).sum(axis=1)
        target = target / target.sum()
        for i, stem in enumerate(tab.stems()):
            emp = rep1.empirical.get(stem, 0.0)
            se = rep1.stderr.get(stem, math.sqrt(target[i] * (1 - target[i]) / rep1.n_paths))
            ok = ok and abs(emp - target[i]) <= 4 * se + err
    report(8, ok, "hitting measure within 4 sigma + stationarity error at 1e5 paths; "
                  "seeds chi-square compatible")


def test_09_comparison_audit():
    rep = comparison_audit(10_000, seed=SEED, tol=1e-7)
    ok = all(v["pass"] for v in rep.values()) and len(rep) == 8
    report(9, ok, "all eight comparison estimates hold to 1e-7 over 1e4 seeded samples")


def test_10_walk_statistics(uniform_stream, walks):
    mu_u, mu_s = walks
    ok = True
    for mu in (mu_u, mu_s):
        stats = walk_statistics(mu)
        ok = ok and math.isfinite(stats.first_moment) and math.isfinite(stats.entropy)
        # truncation sweep: the assembled support is adequate, so growing the
        # radius past it moves the statistics by well under one percent
        radius = max(len(g) for g in mu.masses)
        sweep = []
        for R in range(1, radius + 3):
            trunc = WalkMeasure(AB, {g: m for g, m in mu.masses.items() if len(g) <= R})
            sweep.append(walk_statistics(trunc))
        s_now, s_plus2 = sweep[radius - 1], sweep[radius + 1]
        ok = ok and abs(s_plus2.first_moment - s_now.first_moment) \
            <= 0.01 * max(s_now.first_moment, 1e-9)
        ok = ok and abs(s_plus2.entropy - s_now.entropy) <= 0.01 * max(s_now.entropy, 1e-9)
        dphi = {g: d_phi(uniform_stream.potential, (), g) for g in mu.masses}
        ent, mom, lam = entropy_decomposition(mu, dphi)
        ok = ok and abs(ent - (mom + lam)) <= 1e-9
    report(10, ok, "entropy and first moment finite, stable under truncation sweep, "
                   "entropy decomposition exact to 1e-9")
