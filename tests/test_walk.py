"""Walk assembly, stationarity, statistics, and the Monte Carlo probe."""

import ast
import bisect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gibbswalk.cylfun import CylinderFunction
from gibbswalk.decompose import DecomposerConfig, decompose
from gibbswalk.gibbs import GibbsStream
from gibbswalk.potentials import d_phi
from gibbswalk import walk
from gibbswalk.stems import StemTable
from gibbswalk.walk import (
    HittingReport,
    SimulationError,
    WalkMeasure,
    assemble_walk,
    chi2_fit,
    chi2_sf,
    convolved_density_masses,
    harmonic_measure,
    nondegenerate_support,
    simulate_hitting,
    stationarity_error,
    walk_statistics,
    _uniform_rows,
)
from gibbswalk.words import Alphabet, _translate_stem_set
from oracles import chi2_compatibility, entropy_decomposition, nearest_neighbour_harmonic

AB = Alphabet(2)


class TestAssemble:
    def test_masses_and_total(self, uniform_decomposition, uniform_stream):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        assert all(m > 0 for m in mu.masses.values())
        assert mu.total == pytest.approx(1.0 - uniform_decomposition.final_residual_l1,
                                         abs=1e-9)

    def test_shell_symmetry(self, uniform_decomposition, uniform_stream):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        shell1 = [m for g, m in mu.masses.items() if len(g) == 1]
        assert len(shell1) == 4
        assert all(m == pytest.approx(shell1[0], rel=1e-12) for m in shell1)

    def test_unit_norm_identity(self, uniform_decomposition, uniform_stream):
        # for the constant target the spike L1 norm is e^{-d_phi(e, g)}
        for g, l1 in uniform_decomposition.spike_l1.items():
            assert l1 == pytest.approx(math.exp(-d_phi(uniform_stream.potential, (), g)),
                                       rel=1e-12)

    def test_empty_decomposition_rejected(self, uniform_decomposition, uniform_stream):
        import dataclasses

        hollow = dataclasses.replace(uniform_decomposition, entries={})
        with pytest.raises(ValueError):
            assemble_walk(hollow, uniform_stream)

    @pytest.mark.parametrize("masses", [{"a": 0.1, "a b b'": 0.2}, {"a": 0.1, "a  a'": 0.2},
                                        {"a": 0.1, "a   ": 0.2}])
    def test_load_refuses_unreduced_or_repeated_keys(self, tmp_path, masses):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"rank": 2, "base": "", "masses": masses}))
        bad = list(masses)[-1]
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            WalkMeasure.load(path)

    def test_save_load_roundtrip(self, uniform_decomposition, uniform_stream, tmp_path):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        path = tmp_path / "mu.json"
        mu.save(path)
        back = WalkMeasure.load(path)
        assert back.masses.keys() == mu.masses.keys()
        for g in mu.masses:
            assert back.masses[g] == pytest.approx(mu.masses[g], rel=1e-15)


class TestStationarity:
    def test_hand_built_uniform_exact(self, uniform_stream, ones_target):
        # the uniform measure on the four generators is exactly stationary
        # for the uniform boundary density; closed-form convolution oracle
        mu = WalkMeasure(AB, {(s,): 0.25 for s in AB.letters})
        conv = convolved_density_masses(mu, ones_target, uniform_stream, 1)
        # by hand: 1/4 * (3/4 + 1/12 + 1/12 + 1/12) = 1/4 per cylinder
        assert np.abs(conv - 0.25).max() <= 1e-14
        assert stationarity_error(mu, ones_target, uniform_stream, 2) <= 1e-13

    def test_error_equals_residual(self, uniform_decomposition, uniform_stream, ones_target):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        err = stationarity_error(mu, ones_target, uniform_stream, 2)
        assert err == pytest.approx(uniform_decomposition.final_residual_l1, abs=1e-8)

    def test_error_equals_residual_step(self, step_decomposition, uniform_stream, step_target):
        mu = assemble_walk(step_decomposition, uniform_stream)
        err = stationarity_error(mu, step_target, uniform_stream, 3)
        assert err == pytest.approx(step_decomposition.final_residual_l1, abs=1e-8)

    def test_error_decreases_with_stages(self, ones_target, uniform_stream):
        errs = []
        for cap in (2, 5, 8):
            dec = decompose(ones_target, uniform_stream,
                            DecomposerConfig(stage_cap=cap, target_l1=1e-9))
            mu = assemble_walk(dec, uniform_stream)
            errs.append(stationarity_error(mu, ones_target, uniform_stream, 2))
        assert errs[0] > errs[1] > errs[2]


def _convolution_reference(mu, F, S, depth):
    """sum_g mu(g) g_*(F nu) per stem, refining F and reading nu per piece."""
    ab = mu.ab
    tab = StemTable(ab, depth)
    out = np.zeros(tab.size)
    for g, m in sorted(mu.masses.items()):
        ginv = ab.inv(g)
        for i, stem in enumerate(tab.stems()):
            total = 0.0
            for piece in _translate_stem_set(ab, ginv, stem):
                d = max(F.depth, len(piece))
                fr = F.refine(d)
                lo, hi = fr.table.prefix_range(piece)
                total += float(fr.values[lo:hi] @ S.mass_array(d)[lo:hi])
            out[i] += m * total
    return out


def _random_walk(seed, size=20, max_len=4):
    rng = np.random.default_rng(seed)
    words = [w for n in range(max_len + 1) for w in AB.reduced_words(n)]
    picks = sorted(rng.choice(len(words), size=size, replace=False))
    return WalkMeasure(AB, {words[i]: float(rng.uniform(0.01, 0.1)) for i in picks})


class TestConvolution:
    @pytest.mark.parametrize("stream", ["uniform_stream", "random_stream", "stream_m2"])
    def test_equals_per_piece_reference(self, request, stream, step_target):
        S = request.getfixturevalue(stream)
        rng = np.random.default_rng(31)
        smooth = CylinderFunction(AB, 2, rng.uniform(0.5, 2.0, StemTable(AB, 2).size))
        mu = _random_walk(32)
        for F in (step_target, smooth):
            for depth in (1, 2, 3):
                conv = convolved_density_masses(mu, F, S, depth)
                assert (conv == _convolution_reference(mu, F, S, depth)).all(), depth

    def test_long_words_equal_reference(self, stream_m2, step_target):
        # words longer than the check depth: the stem g[:depth] splits into
        # pieces of several lengths, some shorter than F's depth
        mu = _random_walk(34, size=80, max_len=6)
        for depth in (2, 3, 4):
            conv = convolved_density_masses(mu, step_target, stream_m2, depth)
            assert (conv == _convolution_reference(mu, step_target, stream_m2, depth)).all()

    def test_one_refine_and_mass_array_per_depth(self, monkeypatch, uniform_stream,
                                                 random_stream, stream_m2, step_target):
        calls = []
        refine, mass_array = CylinderFunction.refine, GibbsStream.mass_array

        def counted_refine(f, depth):
            calls.append(("refine", depth))
            return refine(f, depth)

        def counted_mass_array(S, depth):
            calls.append(("mass_array", depth))
            return mass_array(S, depth)

        monkeypatch.setattr(CylinderFunction, "refine", counted_refine)
        monkeypatch.setattr(GibbsStream, "mass_array", counted_mass_array)
        mu = _random_walk(33)
        for S in (uniform_stream, random_stream, stream_m2):
            calls.clear()
            convolved_density_masses(mu, step_target, S, 3)
            assert calls and len(calls) == len(set(calls)), calls
            assert {d for kind, d in calls if kind == "refine"} \
                == {d for kind, d in calls if kind == "mass_array"}


class TestStatistics:
    def test_point_mass_at_identity(self):
        mu = WalkMeasure(AB, {(): 1.0})
        stats = walk_statistics(mu)
        assert (stats.first_moment, stats.log_moment, stats.entropy) == (0.0, 0.0, 0.0)

    def test_two_equal_masses(self):
        mu = WalkMeasure(AB, {(0,): 0.5, (2,): 0.5})
        assert walk_statistics(mu).entropy == pytest.approx(math.log(2))

    def test_entropy_decomposition_identity(self, uniform_decomposition, uniform_stream):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        dphi = {g: d_phi(uniform_stream.potential, (), g) for g in mu.masses}
        ent, mom, lam = entropy_decomposition(mu, dphi)
        assert ent == pytest.approx(mom + lam, abs=1e-9)
        for g, m in mu.masses.items():
            lam_g = m * math.exp(dphi[g])
            lhs = -m * math.log(m)
            rhs = m * dphi[g] - lam_g * math.exp(-dphi[g]) * math.log(lam_g)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_superexponential_flag(self):
        mu = WalkMeasure(AB, {(0,): 0.5, (0, 0): 0.5 * 1e-2, (0, 0, 0): 0.5 * 1e-6})
        assert walk_statistics(mu).superexponential is True
        mu2 = WalkMeasure(AB, {(0,): 0.25, (0, 0): 0.2, (0, 0, 0): 0.19})
        assert walk_statistics(mu2).superexponential is False


class TestSimulation:
    def test_point_mass_deterministic(self):
        mu = WalkMeasure(AB, {(0,): 1.0})
        assert not nondegenerate_support(mu)
        rep = simulate_hitting(mu, 50, 2, seed=1, stabilize=5, step_cap=100,
                               check_support=False)
        assert rep.empirical == {(0, 0): 1.0}

    def test_degenerate_support_rejected(self):
        mu = WalkMeasure(AB, {(0,): 0.7, (0, 0): 0.3})
        with pytest.raises(SimulationError):
            simulate_hitting(mu, 10, 1, seed=1)

    def test_uniform_empirical_within_4sigma(self, uniform_decomposition,
                                             uniform_stream, ones_target):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        err = stationarity_error(mu, ones_target, uniform_stream, 1)
        rep = simulate_hitting(mu, 20_000, 1, seed=42)
        for s in AB.letters:
            emp = rep.empirical[(s,)]
            se = rep.stderr[(s,)]
            assert abs(emp - 0.25) <= 4 * se + err

    def test_seed_reproducibility_and_chi2(self, uniform_decomposition, uniform_stream):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        rep1 = simulate_hitting(mu, 8_000, 1, seed=7)
        rep1b = simulate_hitting(mu, 8_000, 1, seed=7)
        assert rep1.empirical == rep1b.empirical
        rep2 = simulate_hitting(mu, 8_000, 1, seed=8)
        assert chi2_compatibility(rep1, rep2) > 0.001

    def test_step_cap_failures_accounted(self, uniform_decomposition, uniform_stream):
        mu = assemble_walk(uniform_decomposition, uniform_stream)
        with pytest.raises(SimulationError, match="stabilize"):
            simulate_hitting(mu, 200, 3, seed=3, stabilize=50, step_cap=10)


def _report(counts, n_paths):
    emp = {(s,): c / n_paths for s, c in enumerate(counts) if c}
    return HittingReport(depth=1, n_paths=n_paths, empirical=emp, stderr={}, failures=0)


# chi2_sf's stated relative error bound, which holds where Q is a normal float
CHI2_REL = 1e-12


def _assert_chi2_close(got, want):
    """Within CHI2_REL of a normal reference; below the normal floats with
    a reference there (scipy flushes some of those to 0.0)."""
    if want >= sys.float_info.min:
        assert abs(got - want) <= CHI2_REL * want, (got, want)
    else:
        assert 0.0 <= got < sys.float_info.min, (got, want)


class TestChi2:
    def test_p_value_is_the_chi2_survival_function(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            n1, n2 = (int(n) for n in rng.integers(50, 5000, 2))
            c1 = rng.multinomial(n1, rng.dirichlet(np.ones(k)))
            c2 = rng.multinomial(n2, rng.dirichlet(np.ones(k)))
            r1, r2 = _report(c1, n1), _report(c2, n2)
            stat, dof = 0.0, 0
            for g in sorted(set(r1.empirical) | set(r2.empirical)):
                a, b = r1.empirical.get(g, 0.0) * n1, r2.empirical.get(g, 0.0) * n2
                pooled = (a + b) / (n1 + n2)
                stat += (a - n1 * pooled) ** 2 / (n1 * pooled)
                stat += (b - n2 * pooled) ** 2 / (n2 * pooled)
                dof += 1
            _assert_chi2_close(chi2_compatibility(r1, r2), float(chi2.sf(stat, max(dof - 1, 1))))

    def test_survival_function_on_a_grid(self):
        from scipy.stats import chi2

        for dof in (1, 2, 3, 7, 35, 143, 400):
            for stat in np.linspace(0.0, 4.0 * dof + 20.0, 60):
                _assert_chi2_close(chi2_sf(dof, float(stat)), float(chi2.sf(stat, dof)))

    def test_survival_function_against_mpmath(self):
        # the regularized upper gamma Q(dof/2, x/2) at 50 digits
        import mpmath

        with mpmath.workdps(50):
            for dof in [*range(1, 61), 143, 400]:
                grid = np.concatenate([np.linspace(0.0, 4.0 * dof + 20.0, 60),
                                       np.geomspace(0.01, 150.0, 25)])
                for x in grid.tolist():
                    want = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                           regularized=True)
                    err = abs(mpmath.mpf(chi2_sf(dof, x)) - want) / want
                    assert err <= CHI2_REL, (dof, x, float(err))

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 35, 60, 143, 400])
    def test_survival_function_shape(self, dof):
        assert chi2_sf(dof, 0.0) == 1.0
        values = [chi2_sf(dof, x) for x in np.linspace(0.0, 4.0 * dof + 200.0, 4000).tolist()]
        assert all(b <= a for a, b in zip(values, values[1:]))
        for huge in (1e4 * dof, 1e300, math.inf):
            assert chi2_sf(dof, huge) == 0.0

    def test_survival_function_refuses_other_dof(self):
        for dof in (0, -1, 2.5):
            with pytest.raises(ValueError, match="degrees of freedom"):
                chi2_sf(dof, 1.0)

    def test_no_scipy_stats_import(self):
        code = ("import sys\n"
                "import gibbswalk.cli\n"
                "from gibbswalk.walk import HittingReport, WalkMeasure, chi2_fit, harmonic_measure\n"
                "from gibbswalk.words import Alphabet\n"
                "from oracles import chi2_compatibility\n"
                "r1 = HittingReport(1, 10, {(0,): 0.6, (1,): 0.4}, {}, 0)\n"
                "r2 = HittingReport(1, 10, {(0,): 0.3, (2,): 0.7}, {}, 0)\n"
                "assert 0.0 < chi2_compatibility(r1, r2) < 1.0\n"
                "hm = harmonic_measure(WalkMeasure(Alphabet(2), {(s,): 1.0 for s in range(4)}), 1)\n"
                "assert 0.0 < chi2_fit(r1, hm) < 1.0\n"
                "assert 'scipy.stats' not in sys.modules\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_scipy_integrate_import(self):
        # only the numeric H2 distance reads scipy.integrate, and it imports it itself
        code = ("import sys\n"
                "import gibbswalk.cli\n"
                "from gibbswalk import Alphabet, CylinderFunction, GibbsStream, Potential\n"
                "from gibbswalk.decompose import DecomposerConfig, decompose\n"
                "from gibbswalk.walk import assemble_walk, simulate_hitting\n"
                "ab = Alphabet(2)\n"
                "S = GibbsStream(Potential.zero(ab))\n"
                "dec = decompose(CylinderFunction.constant(ab, 1.0), S, DecomposerConfig())\n"
                "rep = simulate_hitting(assemble_walk(dec, S), 500, 1, seed=1)\n"
                "assert rep.n_paths == 500\n"
                "assert 'scipy.integrate' not in sys.modules\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64(state):
    """SplitMix64's outputs from `state`, one Python int at a time."""
    while True:
        state = (state + _GAMMA) & _MASK
        yield _mix64(state)


def _python_uniforms(seed, i):
    """Uniforms of path i under `seed`: base(s) = mix64(s mod 2^64 + gamma),
    key(s, i) = mix64(base(s) + (i + 1) gamma), and uniform j is
    (mix64(key(s, i) + (j + 1) gamma) >> 11) 2^-53, all mod 2^64."""
    base = _mix64((seed % 2**64 + _GAMMA) & _MASK)
    key = _mix64((base + (i + 1) * _GAMMA) & _MASK)
    return ((z >> 11) * 2.0 ** -53 for z in _splitmix64(key))


def _reference_records(mu, n_paths, depth, seed, stabilize=50, step_cap=2000,
                       uniforms=_python_uniforms):
    """The per-path loop: one stream of uniforms and one Python word per path.

    Path i reads `uniforms(seed, i)`, by default the scalar SplitMix64
    oracle.  Returns each path's final depth prefix and the step that
    recorded it, (None, None) for a path that failed.
    """
    support = sorted(mu.masses)
    weights = np.array([mu.masses[g] for g in support])
    cum = np.cumsum(weights / weights.sum())
    out = []
    for i in range(n_paths):
        draws = uniforms(seed, i)
        word, prev, streak, final = [], None, 0, (None, None)
        for t in range(step_cap):
            step = support[bisect.bisect_left(cum, next(draws))]
            for s in step:
                if word and word[-1] == (s ^ 1):
                    word.pop()
                else:
                    word.append(s)
            cur = tuple(word[:depth]) if len(word) >= depth else None
            if cur is not None and cur == prev:
                streak += 1
                if streak >= stabilize:
                    final = (cur, t)
                    break
            else:
                streak = 1 if cur is not None else 0
            prev = cur
        out.append(final)
    return out


def _reference_prefixes(mu, n_paths, depth, seed, stabilize=50, step_cap=2000):
    """Each path's final depth prefix, None for a path that failed."""
    return [p for p, _ in _reference_records(mu, n_paths, depth, seed, stabilize, step_cap)]


def _stop_steps(mu, n_paths, depth, seed, stabilize, step_cap, block):
    """The step at which each path stops (step_cap if it never does) when the
    steps up to its record count their drawn lengths within the block of
    draws they fall in, blocks being `block`, `block`, then doubling; and
    when each counts as the longest step, with block None."""
    support = sorted(mu.masses)
    weights = np.array([mu.masses[g] for g in support])
    cum = np.cumsum(weights / weights.sum())
    reach = max(len(g) for g in support)
    ends = [0]
    while ends[-1] < step_cap and block:
        ends.append(min(max(2 * ends[-1], block), step_cap))
    out = []
    for i in range(n_paths):
        stream = _python_uniforms(seed, i)
        draws = []
        word, prev, due, stop = [], None, None, step_cap
        for t in range(step_cap):
            while len(draws) <= t + stabilize:
                draws.append(support[bisect.bisect_left(cum, next(stream))])
            for s in draws[t]:
                if word and word[-1] == (s ^ 1):
                    word.pop()
                else:
                    word.append(s)
            cur = tuple(word[:depth]) if len(word) >= depth else None
            if cur != prev or cur is None:
                due = t + max(stabilize - 1, 1) if cur is not None else None
            prev = cur
            if due is not None and due < step_cap:
                end = next(e for e in ends if e > t) if block else t + 1
                need = sum(len(draws[k]) if k < end else reach for k in range(t + 1, due + 1))
                if len(word) - depth >= need:
                    stop = t
                    break
        out.append(stop)
    return out


def _hitting_reference(mu, n_paths, depth, seed, stabilize=50, step_cap=2000):
    counts = {}
    failures = 0
    for cur in _reference_prefixes(mu, n_paths, depth, seed, stabilize, step_cap):
        if cur is None:
            failures += 1
        else:
            counts[cur] = counts.get(cur, 0) + 1
    if failures > 0.001 * n_paths:
        raise SimulationError(f"{failures} paths failed to stabilize")
    emp = {g: c / n_paths for g, c in counts.items()}
    err = {g: math.sqrt(p * (1 - p) / n_paths) for g, p in emp.items()}
    return emp, err, failures


def _rank8_walk(seed, size=24):
    ab8 = Alphabet(8)
    rng = np.random.default_rng(seed)
    steps = set()
    while len(steps) < size:
        w = []
        for _ in range(int(rng.integers(1, 5))):
            w.append(int(rng.choice([s for s in ab8.letters if not w or s != (w[-1] ^ 1)])))
        steps.add(tuple(w))
    return WalkMeasure(ab8, {g: float(rng.uniform(0.01, 0.1)) for g in sorted(steps)})


@pytest.fixture(scope="module")
def hitting_walks(uniform_decomposition, uniform_stream):
    ab3 = Alphabet(3)
    rng = np.random.default_rng(35)
    words3 = [w for n in range(1, 4) for w in ab3.reduced_words(n)]
    picks = sorted(rng.choice(len(words3), size=20, replace=False))
    return {
        "uniform": assemble_walk(uniform_decomposition, uniform_stream),
        "long_steps": _random_walk(34, size=24, max_len=5),
        "rank3": WalkMeasure(ab3, {words3[i]: float(rng.uniform(0.01, 0.1)) for i in picks}),
        # long steps that the next step often undoes whole: words stay within a
        # step or two of their depth prefix
        "undoing": WalkMeasure(AB, {(0, 0, 0): 0.4, (1, 1, 1): 0.4, (2, 2): 0.1, (3, 3): 0.1}),
        # runs of a^5 and A^5: words grow past their 8 last letters, which the
        # kernel reads as one word, and later cancel back into them
        "refill": WalkMeasure(AB, {(0,) * 5: 0.35, (1,) * 5: 0.35, (2,): 0.15, (3,): 0.15}),
        # steps of 9, 12 and 15 letters, longer than the 7 applied in one pass
        "long_step": WalkMeasure(AB, {(0, 2) * 6: 0.15, (3, 1) * 6: 0.15, (0,) * 9: 0.1,
                                      (1,) * 9: 0.1, (2, 0) * 7 + (2,): 0.05,
                                      (3,) + (1, 3) * 7: 0.05, (2,): 0.2, (3,): 0.2}),
        # 16 letters
        "rank8": _rank8_walk(36),
        # the identity step leaves the word as it is
        "identity": WalkMeasure(AB, {(): 0.3, (0,): 0.2, (1,): 0.15, (2,): 0.2, (3,): 0.15}),
    }


def _same_report(rep, mu, n_paths, depth, seed, stabilize=50, step_cap=2000):
    emp, err, failures = _hitting_reference(mu, n_paths, depth, seed, stabilize, step_cap)
    assert rep.empirical == emp and list(rep.empirical) == list(emp)
    assert rep.stderr == err
    assert rep.failures == failures
    return failures


# the chunk size the path counts of the reference comparisons were chosen
# for: 1,061 and 2,049 paths cross a chunk edge
_CHUNK = 1024


def _same_codes_at_every_step_cap(mu, depth):
    place = [mu.ab.n_letters ** (depth - 1 - j) for j in range(depth)]
    # the loop runs the same steps under every cap: a path records under cap c
    # when it recorded before step c under the largest cap
    ref = _reference_records(mu, 150, depth, 11, 20, 45)
    for step_cap in range(20, 46):
        want = [-1 if p is None or t >= step_cap else sum(s * b for s, b in zip(p, place))
                for p, t in ref]
        got = walk._hitting_codes(mu, 150, depth, 11, 20, step_cap)
        assert got.tolist() == want, step_cap


class TestBatchedHitting:
    @pytest.mark.parametrize("name", ["uniform", "long_steps", "rank3"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_equals_per_path_loop(self, hitting_walks, monkeypatch, name, depth):
        monkeypatch.setattr(walk, "HIT_CHUNK", _CHUNK)
        mu = hitting_walks[name]
        for seed, n_paths in ((0, 1), (7, 301), (20260810, _CHUNK + 37), (-3, 301)):
            rep = simulate_hitting(mu, n_paths, depth, seed)
            _same_report(rep, mu, n_paths, depth, seed)

    def test_paths_outliving_their_block(self, hitting_walks, monkeypatch):
        # tiny chunks and blocks: every path redraws a longer block many times
        monkeypatch.setattr(walk, "HIT_CHUNK", 50)
        monkeypatch.setattr(walk, "HIT_BLOCK", 3)
        mu = hitting_walks["long_steps"]
        _same_report(simulate_hitting(mu, 301, 2, 7), mu, 301, 2, 7)

    @pytest.mark.parametrize("depth,stabilize,step_cap,failed",
                             [(1, 20, 40, 2), (2, 50, 80, 1), (3, 50, 84, 1)])
    def test_failures_within_allowance(self, hitting_walks, monkeypatch, depth, stabilize,
                                       step_cap, failed):
        # seed 25 leaves some failed paths in every case, each count under the
        # allowance of 0.001 * 2049 paths
        monkeypatch.setattr(walk, "HIT_CHUNK", _CHUNK)
        mu = hitting_walks["uniform"]
        rep = simulate_hitting(mu, _CHUNK * 2 + 1, depth, 25, stabilize, step_cap)
        assert rep.failures == failed
        _same_report(rep, mu, _CHUNK * 2 + 1, depth, 25, stabilize, step_cap)

    def test_failures_raise_with_the_same_count(self, hitting_walks, monkeypatch):
        monkeypatch.setattr(walk, "HIT_CHUNK", _CHUNK)
        mu = hitting_walks["uniform"]
        for depth, stabilize, step_cap in ((1, 20, 40), (2, 50, 80), (3, 50, 80)):
            with pytest.raises(SimulationError) as ref:
                _hitting_reference(mu, _CHUNK * 2 + 1, depth, 7, stabilize, step_cap)
            with pytest.raises(SimulationError) as got:
                simulate_hitting(mu, _CHUNK * 2 + 1, depth, 7, stabilize, step_cap)
            assert str(got.value) == str(ref.value) == "3 paths failed to stabilize", depth

    def test_oracle_is_splitmix64(self):
        # the published first outputs of SplitMix64 from state 0
        assert [z for z, _ in zip(_splitmix64(0), range(3))] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [0, 7, -3, 20260810, 2**63 - 1])
    def test_rows_equal_the_oracle(self, seed):
        paths = [0, 1, 2, 1023, 1_000_003, 2**40 + 5]
        want = [[u for u, _ in zip(_python_uniforms(seed, i), range(300))] for i in paths]
        assert _uniform_rows(seed, paths, 0, 300).tolist() == want
        for t0, t1 in ((1, 2), (64, 128), (128, 300), (200, 203)):
            assert _uniform_rows(seed, paths, t0, t1).tolist() == [row[t0:t1] for row in want]

    def test_seed_and_path_key_separate_streams(self):
        # keyed by seed * 1_000_003 + i, path 1_000_003 of seed s would read
        # path 0 of seed s + 1; keyed by |seed|, seeds -1 and 1 would agree
        for seed in (0, 7, -3, 20260810):
            assert (_uniform_rows(seed, [1_000_003], 0, 64)
                    != _uniform_rows(seed + 1, [0], 0, 64)).all()
        assert (_uniform_rows(-1, [0], 0, 64) != _uniform_rows(1, [0], 0, 64)).all()

    def test_walk_does_not_import_random(self):
        # the package loads `random` elsewhere (words.py), so read walk.py's
        # own imports rather than sys.modules
        tree = ast.parse(Path(walk.__file__).read_text())
        names = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
        names |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)}
        assert "random" not in names, names

    def test_rows_do_not_depend_on_the_batch(self):
        seed = 20260810
        paths = list(range(40)) + [19_999, 5, 2**33]
        whole = _uniform_rows(seed, paths, 0, 96)
        assert whole.shape == (len(paths), 96)
        for k, i in enumerate(paths):
            assert (_uniform_rows(seed, [i], 0, 96)[0] == whole[k]).all()
        for part in (paths[:7], paths[7:30], paths[::-3]):
            rows = _uniform_rows(seed, np.array(part), 32, 96)
            for i, row in zip(part, rows):
                assert (row == whole[paths.index(i), 32:]).all()

    @pytest.mark.parametrize("name", ["uniform", "long_steps", "rank3", "undoing", "refill",
                                      "long_step", "rank8", "identity"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_early_stop_is_exact_at_every_step_cap(self, hitting_walks, name, depth):
        # a path stops once its prefix cannot change before its streak is
        # complete; caps 20..45 put that point on both sides of the cap
        _same_codes_at_every_step_cap(hitting_walks[name], depth)

    @pytest.mark.parametrize("name", ["uniform", "long_steps", "rank3", "undoing", "refill",
                                      "long_step", "rank8", "identity"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_early_stop_is_exact_with_small_blocks(self, hitting_walks, monkeypatch, name, depth):
        # small chunks and blocks: most paths stop or redraw near a block edge
        monkeypatch.setattr(walk, "HIT_CHUNK", 50)
        monkeypatch.setattr(walk, "HIT_BLOCK", 3)
        _same_codes_at_every_step_cap(hitting_walks[name], depth)

    def test_uniforms_on_cum_entries_and_bucket_edges(self, monkeypatch):
        # dyadic masses put every cum entry on a bucket edge; each uniform is a
        # cum entry, another dyadic edge, or the double next to one of them
        mu = WalkMeasure(AB, {(0,): 0.25, (1,): 0.125, (2,): 0.125, (3,): 0.25,
                              (0, 2): 0.125, (2, 0): 0.125})
        edges = {0.0} | {k / 2.0 ** m for m in (1, 3, 4, 7, 13, 16) for k in range(1, 2 ** m, 2)
                         if k < 40 or 2 ** m - k < 40}
        special = sorted({x for e in edges for x in (e, np.nextafter(e, 0.0), np.nextafter(e, 1.0))
                          if 0.0 <= x < 1.0})

        def draw(seed, i, t):
            return special[((seed * 1_000_003 + i) * 7919 + t * 104729) % len(special)]

        def uniforms(seed, i):
            return (draw(seed, i, t) for t in range(10**9))

        def rows(seed, paths, t0, t1, scratch=None):
            return np.array([[draw(seed, int(i), t) for t in range(t0, t1)] for i in paths])

        monkeypatch.setattr(walk, "_uniform_rows", rows)
        for depth in (1, 2):
            ref = _reference_records(mu, 300, depth, 5, 20, 400, uniforms)
            want = [-1 if p is None else sum(s * 4 ** (depth - 1 - j) for j, s in enumerate(p))
                    for p, _ in ref]
            assert walk._hitting_codes(mu, 300, depth, 5, 20, 400).tolist() == want

    def test_largest_uniform_draws_the_last_step(self, monkeypatch):
        # these masses' normalised running sum ends at 1 - 2^-52, below the
        # largest uniform 1 - 2^-53, which must still draw the last step
        masses = {(0, 2): 0.35, (1, 2): 0.73}
        weights = np.array(list(masses.values()))
        assert np.cumsum(weights / weights.sum())[-1] < 1.0 - 2.0 ** -53
        law = walk._StepLaw.of(WalkMeasure(AB, masses))

        def rows(seed, paths, t0, t1, scratch=None):
            return np.full((len(paths), t1 - t0), 1.0 - 2.0 ** -53)

        monkeypatch.setattr(walk, "_uniform_rows", rows)
        steps, drawn_to = walk._draw_block(0, np.arange(3), law, 0, 4)
        assert (steps == 1).all() and drawn_to[-1].tolist() == [8, 8, 8]

    def test_paths_stop_before_their_streak_completes(self, monkeypatch):
        # the word of "a a a ..." grows a letter a step, so its depth-2 prefix is
        # final long before a streak of 100: every path stops at step 51, within
        # its first block of HIT_BLOCK (64) draws, with the full loop's outcome
        draws = []
        uniform_rows = walk._uniform_rows

        def counted(seed, paths, t0, t1, scratch=None):
            draws.append(t1)
            return uniform_rows(seed, paths, t0, t1, scratch)

        monkeypatch.setattr(walk, "_uniform_rows", counted)
        mu = WalkMeasure(AB, {(0,): 1.0})
        rep = simulate_hitting(mu, 10, 2, seed=1, stabilize=100, check_support=False)
        assert rep.empirical == {(0, 0): 1.0}
        assert draws == [walk.HIT_BLOCK]

    def test_drawn_lengths_stop_paths_sooner(self, step_decomposition, uniform_stream,
                                             monkeypatch):
        # on the step-f2 walk a path stops sooner when its next steps count
        # their drawn lengths than when each counts as the longest step.  With
        # one path per call the kernel reads one row of its block of draws
        # per step, so a block that counts its row reads shows its steps.
        mu = assemble_walk(step_decomposition, uniform_stream)
        reads = []

        class Block(np.ndarray):
            def __getitem__(self, key):
                reads.append(key)
                return np.asarray(self)[key]

        draw_block = walk._draw_block

        def counted(*args):
            steps, drawn_to = draw_block(*args)
            return steps.view(Block), drawn_to

        monkeypatch.setattr(walk, "_draw_block", counted)
        taken = []
        for seed in range(60):
            reads.clear()
            walk._hitting_codes(mu, 1, 2, seed, 50, 2000)
            taken.append(len(reads))
        drawn = [_stop_steps(mu, 1, 2, seed, 50, 2000, walk.HIT_BLOCK)[0] + 1 for seed in range(60)]
        bound = [_stop_steps(mu, 1, 2, seed, 50, 2000, None)[0] + 1 for seed in range(60)]
        assert taken == drawn
        assert sum(drawn) < 0.85 * sum(bound), (sum(drawn), sum(bound))

    def test_memory_stays_per_chunk(self, step_decomposition, uniform_stream):
        mu = assemble_walk(step_decomposition, uniform_stream)
        tracemalloc.start()
        try:
            simulate_hitting(mu, 20_000, 2, seed=20260810)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("seed", [601, 602])
    def test_codes_do_not_depend_on_the_chunk_size(self, step_decomposition, uniform_stream,
                                                   monkeypatch, seed):
        # the step-f2 walk at full scale: 20,000 paths in chunks of HIT_CHUNK,
        # the last one short, and in chunks of 1,024
        mu = assemble_walk(step_decomposition, uniform_stream)
        codes = walk._hitting_codes(mu, 20_000, 2, seed, 50, 2000)
        assert walk.HIT_CHUNK != _CHUNK and 20_000 % walk.HIT_CHUNK
        monkeypatch.setattr(walk, "HIT_CHUNK", _CHUNK)
        assert (walk._hitting_codes(mu, 20_000, 2, seed, 50, 2000) == codes).all()
        assert (codes >= 0).all()

    def test_slabs_that_do_not_divide_the_rows(self, hitting_walks, monkeypatch):
        # blocks of 3, 3, 6, 12 ... draws in slabs of 20: 6, 6, 3, 1 ... rows a
        # slab, and chunks of 50 rows leave a short last slab
        monkeypatch.setattr(walk, "HIT_CHUNK", 50)
        monkeypatch.setattr(walk, "HIT_BLOCK", 3)
        monkeypatch.setattr(walk, "HIT_SLAB", 20)
        for name, depth in (("long_steps", 2), ("rank3", 1), ("long_step", 3)):
            mu = hitting_walks[name]
            _same_report(simulate_hitting(mu, 301, depth, 7), mu, 301, depth, 7)


def _depth2_walk():
    """The walk of the depth2-hausdorff benchmark workload at seed 601."""
    import importlib.util

    from gibbswalk import cli
    from gibbswalk.spikes import SpikeLab

    path = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    cfg = worker.depth2_config(cli, 601)
    ab, P, S, F = cli.build_objects(cfg)
    dec = decompose(F, S, DecomposerConfig(**cfg["decomposer"]), lab=SpikeLab(S, "hausdorff"))
    return assemble_walk(dec, S)


@pytest.fixture(scope="module")
def preset_walks(step_decomposition, uniform_stream):
    ab3 = Alphabet(3)
    rng = np.random.default_rng(35)
    words3 = [w for n in range(1, 4) for w in ab3.reduced_words(n)]
    picks = sorted(rng.choice(len(words3), size=20, replace=False))
    return {"step-f2": assemble_walk(step_decomposition, uniform_stream),
            "depth2-hausdorff": _depth2_walk(),
            "rank3": WalkMeasure(ab3, {words3[i]: float(rng.uniform(0.01, 0.1)) for i in picks})}


def _pushed(mu, nu_deep, deep, depth):
    """sum_g mu~(g) nu(g^-1 C(w)) on the depth cylinders, from nu on the
    deep cylinders: g maps a deep stem c onto the cylinder of the first
    depth letters of g.c, reduced."""
    ab = mu.ab
    cyl = StemTable(ab, deep).letters.astype(np.int64)
    total = sum(mu.masses.values())
    out = np.zeros(StemTable(ab, depth).size)
    for g, m in mu.masses.items():
        n = len(g)
        inverse = (np.array(g, dtype=np.int64)[::-1] ^ 1) if n else np.zeros(0, np.int64)
        agree = cyl[:, :n] == inverse[None, :]
        cancel = np.cumprod(agree, axis=1).sum(axis=1) if n else np.zeros(len(cyl), np.int64)
        rows = np.empty((len(cyl), depth), dtype=np.int64)
        for j in np.unique(cancel).tolist():
            at = cancel == j
            word = np.concatenate([np.broadcast_to(np.array(g[:n - j], dtype=np.int64),
                                                   (int(at.sum()), n - j)), cyl[at, j:]], axis=1)
            rows[at] = word[:, :depth]
        np.add.at(out, StemTable(ab, depth).indices(rows), m / total * nu_deep)
    return out


class TestHarmonicMeasure:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_uniform_nearest_neighbour(self, rank, depth):
        ab = Alphabet(rank)
        hm = harmonic_measure(WalkMeasure(ab, {(s,): 0.25 for s in ab.letters}), depth)
        exact = 1.0 / (ab.n_letters * (ab.n_letters - 1) ** (depth - 1))
        assert hm.nu.shape == (StemTable(ab, depth).size,)
        assert np.abs(hm.nu - exact).sum() <= hm.err <= 1e-9

    @pytest.mark.parametrize("rank, masses", [
        (2, {(0,): 0.4, (1,): 0.1, (2,): 0.3, (3,): 0.2}),
        (3, {(): 0.1, (0,): 0.3, (1,): 0.1, (2,): 0.2, (3,): 0.15, (4,): 0.05, (5,): 0.2}),
    ])
    def test_dynkin_malyutov(self, rank, masses):
        mu = WalkMeasure(Alphabet(rank), masses)
        for depth in (1, 2, 3):
            hm = harmonic_measure(mu, depth)
            assert np.abs(hm.nu - nearest_neighbour_harmonic(mu, depth)).sum() <= hm.err + 1e-14
            assert hm.err <= 1e-9

    @pytest.mark.parametrize("name", ["step-f2", "depth2-hausdorff", "rank3"])
    def test_stationary(self, preset_walks, name):
        # nu of mu~ = mu/|mu| is the unique mu~-stationary measure (Furstenberg):
        # nu(C(w)) = sum_g mu~(g) nu(g^-1 C(w)), read at depth d + R
        mu = preset_walks[name]
        reach = max(len(g) for g in mu.masses)
        hm = harmonic_measure(mu, 2)
        deep = harmonic_measure(mu, 2 + reach)
        gap = np.abs(_pushed(mu, deep.nu, 2 + reach, 2) - hm.nu).sum()
        assert gap <= 1e-12 + hm.err + deep.err, (gap, hm.err, deep.err)
        assert hm.err <= 1e-9 and deep.err <= 1e-9

    @pytest.mark.parametrize("name", ["step-f2", "depth2-hausdorff"])
    def test_monte_carlo_fits(self, preset_walks, name):
        mu = preset_walks[name]
        assert chi2_fit(simulate_hitting(mu, 400_000, 2, seed=20261022),
                        harmonic_measure(mu, 2)) > 1e-3

    def test_one_sample_chi2(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(6)
        ab = Alphabet(2)
        for _ in range(50):
            nu = rng.dirichlet(np.ones(12))
            counts = rng.multinomial(int(rng.integers(50, 5000)), nu)
            failures = int(rng.integers(0, 3))
            n_paths = int(counts.sum()) + failures
            rep = HittingReport(2, n_paths, {stem: c / n_paths for stem, c in
                                             zip(StemTable(ab, 2).stems(), counts.tolist()) if c},
                                {}, failures)
            hm = walk.HarmonicMeasure(ab, 2, nu, 0.0, 0)
            want = chisquare(counts, counts.sum() * nu).pvalue
            _assert_chi2_close(chi2_fit(rep, hm), float(want))

    def test_walk_stage_runs_monte_carlo_once(self, tmp_path, monkeypatch):
        from gibbswalk import cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:4])
            return simulate_hitting(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_hitting", counted)
        cfg = cli.load_config(None, "uniform-f2", None)
        code, summary = cli.run_experiment(cfg, str(tmp_path), stages=("walk",))
        assert code == 0, summary
        assert calls == [(20000, 2, cfg["seed"])]
        assert summary["walk"]["harmonic_err"] <= 1e-9
        assert summary["walk"]["harmonic_l1"] <= summary["walk"]["harmonic_err"]

    def test_refused_before_allocation(self, preset_walks, monkeypatch):
        from gibbswalk import stems

        mu = preset_walks["step-f2"]
        monkeypatch.setattr(stems, "DENSE_BYTES", 1 << 17)
        tracemalloc.start()
        try:
            with pytest.raises(stems.DenseArrayError, match="range-5 walk of rank 2"):
                harmonic_measure(mu, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chain of the 121 states and their exits alone takes 234,256 bytes
        assert peak < 1 << 16, peak
        monkeypatch.undo()
        with pytest.raises(stems.DenseArrayError):  # range 7 at rank 2: n = 1,093 states
            harmonic_measure(WalkMeasure(AB, {(0,) * 7: 0.5, (2,): 0.25, (3,): 0.25}), 1)

    def test_perturbed_upper_kernel_refused(self, preset_walks, monkeypatch):
        from gibbswalk.spikes import CertificationError

        # sweeps that settle 0.1% short of the fixed point: K_up is below it
        solve = walk._Cones.solve

        def short(self, s, K, check=False):
            phi, y = solve(self, s, K, check)
            return (phi if check else 0.999 * phi), y

        monkeypatch.setattr(walk._Cones, "solve", short)
        with pytest.raises(CertificationError, match="cone a is not a supersolution") as info:
            harmonic_measure(preset_walks["step-f2"], 2)
        assert info.value.witness["letter"] == "a"
