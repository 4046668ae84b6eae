"""The subfunction step and the staged greedy decomposition."""

import math
import tracemalloc

import numpy as np
import pytest

from gibbswalk.cylfun import CylinderFunction
from gibbswalk.decompose import (
    DecomposerConfig,
    HypothesisError,
    decompose,
    moment_majorant,
    moment_sum,
    stage_moments,
    subfunction_step,
)
from gibbswalk import spikes as spikes_mod
from gibbswalk.spikes import DecayCert, SpikeLab, SpikeShell
from gibbswalk.stems import StemTable
from gibbswalk.words import Alphabet
from oracles import recompute_residual_l1

AB = Alphabet(2)


def unit_cert(C_G=1.0, beta=1.0):
    return DecayCert(C_G=C_G, alpha_G=math.log(3), beta_G=beta, nu_id="gibbs",
                     kernel_id="sym", r_grid=(0.0,), s_grid=(0,))


def flat_shell(n=0, C=1.0):
    """Shell n with every spike the constant 1 and every spike constant C."""
    words = StemTable(AB, n).letters.astype(np.int64) if n else np.zeros((1, 0), dtype=np.int64)
    depth = max(n, 1)
    return SpikeShell(words, depth, np.ones((len(words), StemTable(AB, depth).size)),
                      np.full(len(words), C), np.empty((len(words), 0, 1)), AB)


class TestSubfunctionStep:
    def test_single_covering_spike_half(self):
        # the one-spike instance of the subfunction formula: lambda = 1/2
        R = CylinderFunction.constant(AB, 1.0)
        cfg = DecomposerConfig(d_bound=1.0)
        h, lams = subfunction_step(R, flat_shell(), unit_cert(), cfg, eps=1.0)
        assert lams[()] == pytest.approx(0.5)
        assert h.sup == h.inf == pytest.approx(0.5)

    def test_shell_symmetry_uniform(self, uniform_stream, ones_target):
        lab = SpikeLab(uniform_stream, nu_id="gibbs")
        cert = lab.decay_audit()
        spikes = lab.shell(1)
        cfg = DecomposerConfig(d_bound=float(spikes.C.max()))
        h, lams = subfunction_step(ones_target, spikes, cert, cfg, eps=1.0)
        assert list(lams) == list(AB.reduced_words(1))
        vals = list(lams.values())
        assert all(v == pytest.approx(vals[0], rel=1e-12) for v in vals)
        # exact cover: the certified floor holds everywhere
        d = cfg.d_bound
        t_eps = 1.0
        floor = 1.0 / (2 * d * d * cert.C_G * t_eps ** 3)
        assert h.inf >= floor * ones_target.inf - 1e-12

    def test_upper_bound_everywhere(self, uniform_stream, step_target):
        lab = SpikeLab(uniform_stream, nu_id="gibbs")
        cert = lab.decay_audit()
        spikes = lab.shell(1, step_target)
        cfg = DecomposerConfig(d_bound=float(spikes.C.max()))
        h, _ = subfunction_step(step_target, spikes, cert, cfg, eps=1.0)
        gap = step_target.refine(h.depth).values - h.values
        assert gap.min() >= -1e-12

    def test_hypothesis_violations_reported(self):
        R = CylinderFunction.constant(AB, 1.0)
        cfg = DecomposerConfig(d_bound=1.0)
        with pytest.raises(HypothesisError, match="radius"):
            subfunction_step(R, flat_shell(), unit_cert(), cfg, eps=0.1)
        with pytest.raises(HypothesisError, match="constant"):
            subfunction_step(R, flat_shell(C=5.0), unit_cert(), cfg, eps=1.0)
        empty = SpikeShell(np.zeros((0, 0), dtype=np.int64), 1, np.ones((0, 4)), np.zeros(0),
                           np.empty((0, 0, 1)), AB)
        with pytest.raises(HypothesisError, match="no spikes"):
            subfunction_step(R, empty, unit_cert(), cfg, eps=1.0)

    def test_depth_scale_hypothesis(self):
        # t_inf e^{-beta S} <= eps^beta t_eps must be verified, not assumed:
        # R is constant on depth-2 balls (t_eps = 1) but not overall
        rng = np.random.default_rng(5)
        R = CylinderFunction(AB, 2, rng.uniform(1.0, 60.0, 12))
        cfg = DecomposerConfig(d_bound=1.0)
        with pytest.raises(HypothesisError, match="shallow"):
            subfunction_step(R, flat_shell(2), unit_cert(beta=1.0), cfg, eps=math.exp(-2))


def _loop_subfunction_step(R, records, cert, d_bound, eps):
    """The per-record stage sum and weights that the shell rows replaced."""
    t_eps = R.ratio_within(eps)
    depth = max(max(rec.h.depth for rec in records), R.depth)
    lam_scale = 1.0 / (2.0 * d_bound * cert.C_G * t_eps ** 2 * 1)
    acc = np.zeros(StemTable(R.ab, depth).size)
    lambdas = {}
    for rec in records:
        lam = R(rec.a) * lam_scale
        lambdas[tuple(rec.center)] = lam
        acc += lam * rec.h.refine(depth).values
    return acc, lambdas


class TestShellStepReference:
    """subfunction_step on shell rows equals the per-record loop bit for bit."""

    @pytest.fixture(scope="class")
    def cases(self, uniform_stream, step_target, stream_m2):
        depth3 = CylinderFunction(AB, 3, np.random.default_rng(4).uniform(0.5, 2.0, 36))
        return {  # lab, spike target
            "uniform": (SpikeLab(uniform_stream), None),
            "step": (SpikeLab(uniform_stream), step_target),
            "stream_m2": (SpikeLab(stream_m2), None),
            "depth3-target": (SpikeLab(stream_m2), depth3),
        }

    @pytest.mark.parametrize("rows", [None, 1, 5], ids=["budget", "one-row", "five-rows"])
    @pytest.mark.parametrize("name", ["uniform", "step", "stream_m2", "depth3-target"])
    def test_stage_sum_and_weights_equal_record_loop(self, cases, name, rows, monkeypatch):
        lab, F = cases[name]
        # eps = 1 meets every hypothesis; R varies so that every weight differs
        R = CylinderFunction(AB, 3, np.random.default_rng(8).uniform(1.0, 1.5, 36))
        for n in (1, 2, 3):
            if rows is not None:  # rows 5 splits the stage sum of shells 2 and 3
                depth = max(n + max(lab.S.depth_m, F.depth if F is not None else 0), R.depth)
                monkeypatch.setattr(spikes_mod, "BUDGET", rows * StemTable(AB, depth).size)
            shell = lab.shell(n, F)
            cfg = DecomposerConfig(d_bound=float(shell.C.max()))
            h, lams = subfunction_step(R, shell, lab.cert, cfg, eps=1.0)
            records = [lab.unit_spike(g, F) for g in AB.reduced_words(n)]
            acc, want = _loop_subfunction_step(R, records, lab.cert, cfg.d_bound, 1.0)
            assert h.values.tobytes() == acc.tobytes(), (name, n)
            assert list(lams.items()) == list(want.items()), (name, n)

    def test_spike_l1_equals_record_integral(self, uniform_stream, uniform_decomposition,
                                             step_target, step_decomposition):
        lab = SpikeLab(uniform_stream, nu_id="gibbs")
        for dec, F in ((uniform_decomposition, None), (step_decomposition, step_target)):
            assert list(dec.spike_l1) == list(dec.entries)
            for g, l1 in dec.spike_l1.items():
                h = lab.unit_spike(g, F).h
                assert l1 == h.integral(uniform_stream.mass_array(h.depth)), g


class TestDecompose:
    def test_uniform_contraction_bounds(self, uniform_decomposition):
        dec = uniform_decomposition
        assert dec.status == "target"
        assert len(dec.stages) <= 40
        for tr in dec.stages:
            assert tr.residual_l1 <= tr.bound_l1 + 1e-12
            assert tr.residual_sup <= tr.bound_sup + 1e-12
            assert tr.t_eps <= dec.config.ell + 1e-12

    def test_uniform_first_stage_bound(self, uniform_decomposition):
        dec = uniform_decomposition
        d = dec.config.d_bound
        factor = 1.0 - dec.config.gamma / (2 * d * d * dec.config.ell ** 3 * dec.cert.C_G)
        assert dec.stages[0].residual_l1 <= factor + 1e-12

    def test_residual_strictly_decreasing(self, uniform_decomposition, step_decomposition):
        for dec in (uniform_decomposition, step_decomposition):
            seq = [tr.residual_l1 for tr in dec.stages]
            assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_residual_positive(self, uniform_decomposition, step_decomposition):
        for dec in (uniform_decomposition, step_decomposition):
            assert dec.residual.inf > 0

    def test_weights_nonnegative(self, uniform_decomposition, step_decomposition):
        for dec in (uniform_decomposition, step_decomposition):
            assert all(w >= 0 for w in dec.entries.values())
            for tr in dec.stages:
                assert all(lam >= 0 for lam in tr.lambda_entries.values())

    def test_recompute_residual(self, step_decomposition):
        gap = abs(recompute_residual_l1(step_decomposition)
                  - step_decomposition.final_residual_l1)
        assert gap <= 1e-9

    def test_step_bounds(self, step_decomposition):
        dec = step_decomposition
        for tr in dec.stages:
            assert tr.residual_l1 <= tr.bound_l1 + 1e-12
            assert tr.residual_sup <= tr.bound_sup + 1e-12
            assert tr.t_eps <= dec.config.ell + 1e-12

    def test_moments_under_majorant(self, uniform_decomposition, step_decomposition):
        for dec in (uniform_decomposition, step_decomposition):
            inc = stage_moments(dec)
            maj = moment_majorant(dec)
            run_inc = np.cumsum(inc)
            run_maj = np.cumsum(maj)
            assert (run_inc <= run_maj + 1e-12).all()
            assert math.isfinite(moment_sum(dec))

    def test_majorant_closed_form_finite(self, uniform_decomposition):
        # sum of (S + delta) rho^n is dominated by a convergent geometric series
        dec = uniform_decomposition
        cfg = dec.config
        d = cfg.d_bound
        rho = 1.0 - cfg.gamma / (2 * d * d * cfg.ell ** 3 * dec.cert.C_G)
        s_max = max(tr.s_value for tr in dec.stages)
        closed = (s_max + cfg.delta) / (1.0 - rho)
        assert sum(moment_majorant(dec)) <= closed + 1e-9

    def test_nonpositive_target_rejected(self, uniform_stream):
        bad = CylinderFunction.from_table(AB, 1, {(0,): 0.0}, default=1.0)
        with pytest.raises(ValueError):
            decompose(bad, uniform_stream, DecomposerConfig())

    def test_stage_cap_status(self, ones_target, uniform_stream):
        dec = decompose(ones_target, uniform_stream,
                        DecomposerConfig(stage_cap=2, target_l1=1e-9))
        assert dec.status == "stage_cap"
        assert len(dec.stages) == 2

    def test_shell_budget_status(self, step_target, uniform_stream):
        dec = decompose(step_target, uniform_stream,
                        DecomposerConfig(stage_cap=40, target_l1=1e-9, max_shell=2))
        assert dec.status == "shell_budget"
        assert dec.needed_shell > dec.config.max_shell == 2

    def test_unboosted_matches_proposition_exactly(self, ones_target, uniform_stream):
        # without the headroom rescaling the first residual is the raw
        # proposition value 1 - gamma * lambda * sum of spikes
        dec = decompose(ones_target, uniform_stream,
                        DecomposerConfig(stage_cap=1, target_l1=1e-9, boost=False))
        tr = dec.stages[0]
        lam = next(iter(tr.lambda_entries.values()))
        h_l1 = sum(tr.lambda_entries[g] * dec.spike_l1[g] for g in tr.lambda_entries)
        assert tr.residual_l1 == pytest.approx(1.0 - dec.config.gamma * h_l1, abs=1e-12)
        d = dec.config.d_bound
        assert lam == pytest.approx(1.0 / (2 * d * dec.cert.C_G), rel=1e-12)

    def test_one_decay_certificate_per_call(self, monkeypatch, ones_target, uniform_stream):
        audit = SpikeLab.decay_audit
        calls = []

        def counted(lab, *args, **kwargs):
            calls.append(lab.nu_id)
            return audit(lab, *args, **kwargs)

        monkeypatch.setattr(SpikeLab, "decay_audit", counted)
        dec = decompose(ones_target, uniform_stream, DecomposerConfig(stage_cap=1))
        assert calls == ["gibbs"]
        assert dec.cert.nu_id == "gibbs"


class TestShellProfiles:
    """Decomposition reads each shell's spike rows in profile form; dense rows
    exist only as expansions of BUDGET-sized chunks."""

    def test_decompose_builds_no_dense_shell(self, monkeypatch, uniform_stream, step_target,
                                             ones_target):
        def refuse(self):
            raise AssertionError("a shell's dense rows were built")

        monkeypatch.setattr(SpikeShell, "values", property(refuse))
        for F, entries in ((step_target, 448), (ones_target, 4)):
            dec = decompose(F, uniform_stream, DecomposerConfig(max_shell=5),
                            lab=SpikeLab(uniform_stream))
            assert len(dec.entries) == entries

    def test_step_decompose_peak_memory(self, uniform_stream, step_target):
        # shell 5's dense rows alone are 324 rows of 2,916 floats (7.2 MiB)
        lab = SpikeLab(uniform_stream)
        assert lab.cert
        tracemalloc.start()
        try:
            dec = decompose(step_target, uniform_stream, DecomposerConfig(max_shell=5), lab=lab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.status == "shell_budget" and len(dec.entries) == 448
        assert peak < 7 * 2 ** 20, peak


class TestConfigFields:
    @pytest.mark.parametrize("name,value", [("besicovitch", 1), ("d_margin", 1.1),
                                            ("sweep_radius", 4), ("tau", 1.0),
                                            ("m_scale", 1.0), ("d_schedule", (1.0,))])
    def test_removed_field_is_refused(self, name, value):
        # the multiplicity, the D margin and the probe radius are module
        # constants; a config naming one fails instead of being ignored
        with pytest.raises(TypeError):
            DecomposerConfig(**{name: value})

    def test_negative_delta_is_refused(self):
        with pytest.raises(ValueError, match="delta"):
            DecomposerConfig(delta=-1.0)
        assert DecomposerConfig(delta=0.0).delta == 0.0
