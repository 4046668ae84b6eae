"""The subfunction step and the staged greedy decomposition."""

import math

import numpy as np
import pytest

from gibbswalk.cylfun import CylinderFunction
from gibbswalk.decompose import (
    DecomposerConfig,
    HypothesisError,
    decompose,
    moment_majorant,
    moment_sum,
    recompute_residual_l1,
    stage_moments,
    subfunction_step,
)
from gibbswalk.spikes import DecayCert, SpikeLab, SpikeRecord
from gibbswalk.words import Alphabet, ray_word

AB = Alphabet(2)


def unit_cert(C_G=1.0, beta=1.0):
    return DecayCert(C_G=C_G, alpha_G=math.log(3), beta_G=beta, nu_id="gibbs",
                     kernel_id="sym", r_grid=(0.0,), s_grid=(0,))


def identity_spike(C=1.0):
    return SpikeRecord(h=CylinderFunction.constant(AB, 1.0), r=1.0,
                       a=ray_word(AB, ()), s=0.0, C=C, center=())


class TestSubfunctionStep:
    def test_single_covering_spike_half(self):
        # the one-spike instance of the subfunction formula: lambda = 1/2
        R = CylinderFunction.constant(AB, 1.0)
        cfg = DecomposerConfig(d_schedule=(1.0,))
        h, lams = subfunction_step(R, [identity_spike()], unit_cert(), cfg, eps=1.0)
        assert lams[()] == pytest.approx(0.5)
        assert h.sup == h.inf == pytest.approx(0.5)

    def test_shell_symmetry_uniform(self, uniform_stream, ones_target):
        lab = SpikeLab(uniform_stream, nu_id="gibbs")
        cert = lab.decay_audit()
        spikes = []
        for g in AB.reduced_words(1):
            rec = lab.rn_spike(g)
            aud = lab.spike_audit(rec, holder_q=lab.beta)
            spikes.append(rec.__class__(h=rec.h, r=rec.r, a=rec.a, s=rec.s,
                                        C=aud.minimal_c, center=rec.center))
        cfg = DecomposerConfig(d_schedule=(max(s.C for s in spikes),))
        h, lams = subfunction_step(ones_target, spikes, cert, cfg, eps=1.0)
        vals = list(lams.values())
        assert all(v == pytest.approx(vals[0], rel=1e-12) for v in vals)
        # exact cover: the certified floor holds everywhere
        d = cfg.d_for(0)
        t_eps = 1.0
        floor = 1.0 / (2 * d * d * cert.C_G * t_eps ** 3)
        assert h.inf >= floor * ones_target.inf - 1e-12

    def test_upper_bound_everywhere(self, uniform_stream, step_target):
        lab = SpikeLab(uniform_stream, nu_id="gibbs")
        cert = lab.decay_audit()
        spikes = []
        for g in AB.reduced_words(1):
            rec = lab.unit_spike(g, step_target)
            aud = lab.spike_audit(rec, holder_q=lab.beta)
            spikes.append(rec.__class__(h=rec.h, r=rec.r, a=rec.a, s=rec.s,
                                        C=aud.minimal_c, center=rec.center))
        cfg = DecomposerConfig(d_schedule=(max(s.C for s in spikes),))
        h, _ = subfunction_step(step_target, spikes, cert, cfg, eps=1.0)
        gap = step_target.refine(h.depth).values - h.values
        assert gap.min() >= -1e-12

    def test_hypothesis_violations_reported(self):
        R = CylinderFunction.constant(AB, 1.0)
        cfg = DecomposerConfig(d_schedule=(1.0,))
        with pytest.raises(HypothesisError, match="radius"):
            subfunction_step(R, [identity_spike()], unit_cert(), cfg, eps=0.1)
        with pytest.raises(HypothesisError, match="constant"):
            subfunction_step(R, [identity_spike(C=5.0)], unit_cert(), cfg, eps=1.0)
        with pytest.raises(HypothesisError, match="no spikes"):
            subfunction_step(R, [], unit_cert(), cfg, eps=1.0)
        deep = identity_spike()
        shallow = SpikeRecord(h=CylinderFunction.constant(AB, 1.0), r=1.0,
                              a=ray_word(AB, ()), s=5.0, C=1.0, center=())
        with pytest.raises(HypothesisError, match="delta"):
            subfunction_step(R, [deep, shallow], unit_cert(), cfg, eps=1.0)

    def test_depth_scale_hypothesis(self):
        # t_inf e^{-beta S} <= eps^beta t_eps must be verified, not assumed
        rng = np.random.default_rng(5)
        R = CylinderFunction(AB, 2, rng.uniform(1.0, 60.0, 12))
        cfg = DecomposerConfig(d_schedule=(1.0,))
        shallow = SpikeRecord(h=CylinderFunction.constant(AB, 1.0), r=math.exp(-2),
                              a=ray_word(AB, ()), s=0.0, C=1.0, center=())
        with pytest.raises(HypothesisError, match="shallow"):
            subfunction_step(R, [shallow], unit_cert(beta=1.0), cfg, eps=math.exp(-2))


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
        d = dec.config.d_for(0)
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
        d = cfg.d_for(0)
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
        d = dec.config.d_for(0)
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


class TestConfigFields:
    @pytest.mark.parametrize("name,value", [("besicovitch", 1), ("d_margin", 1.1),
                                            ("sweep_radius", 4), ("tau", 1.0),
                                            ("m_scale", 1.0)])
    def test_removed_field_is_refused(self, name, value):
        # the multiplicity, the D margin and the probe radius are module
        # constants; a config naming one fails instead of being ignored
        with pytest.raises(TypeError):
            DecomposerConfig(**{name: value})
