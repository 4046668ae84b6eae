"""Kernel evaluation, decay certification, spike construction and audits."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gibbswalk import cli, cylfun, gibbs, potentials, spikes, stems
from gibbswalk.cylfun import CylinderFunction, scale_depth
from gibbswalk.decompose import SWEEP_RADIUS, DecomposerConfig, decompose
from gibbswalk.gibbs import GibbsStream
from gibbswalk.potentials import Potential, sym_potential, window_sums
from gibbswalk.spikes import (
    S_GRID,
    R_GRID,
    X_DEPTH,
    CertificationError,
    SpikeLab,
    SpikeRecord,
    _KernelIntegrator,
)
from gibbswalk.stems import DenseArrayError, StemTable, window_state_count, window_states
from gibbswalk.words import Alphabet, EventuallyPeriodicWord, inverse_letter, ray_word
from oracles import cylinder_mass_loop, d_phi_ray, g_kernel, gromov_product, stem_code, stem_of

AB = Alphabet(2)


@pytest.fixture(scope="module")
def lab_uniform(uniform_stream):
    return SpikeLab(uniform_stream)


@pytest.fixture(scope="module")
def lab_random(random_stream):
    return SpikeLab(random_stream)


class TestKernel:
    def test_one_before_confluence(self, uniform_stream):
        x = ray_word(AB, (0, 2, 0))
        y = ray_word(AB, (0, 2, 1))
        assert g_kernel(uniform_stream, x, y, 1.5) == 1.0

    def test_uniform_closed_form(self, uniform_stream):
        x = ray_word(AB, (0, 2))
        y = ray_word(AB, (0, 3, 1))
        c = gromov_product(AB, x, y)
        for s in (1.0, 2.5, 4.0):
            expect = 9.0 ** (-(s - c)) if s >= c else 1.0
            assert g_kernel(uniform_stream, x, y, s) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_s(self, random_stream):
        x = ray_word(AB, (0,))
        y = ray_word(AB, (2, 0, 2))
        vals = [g_kernel(random_stream, x, y, s) for s in np.linspace(0, 6, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_diagonal_error(self, uniform_stream):
        x = ray_word(AB, (0,))
        from gibbswalk.words import BoundaryError

        with pytest.raises(BoundaryError):
            g_kernel(uniform_stream, x, ray_word(AB, (0,)), 1.0)


class TestKernelIntegrals:
    def test_brute_force_depth1(self, random_stream):
        K = sym_potential(random_stream.potential)
        integ = _KernelIntegrator(random_stream, K)
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 4)
            prefix = []
            for _ in range(n):
                choices = [s for s in AB.letters if not prefix or s != inverse_letter(prefix[-1])]
                prefix.append(rng.choice(choices))
            prefix = tuple(prefix)
            c = rng.randrange(0, n + 1)
            s = rng.uniform(0, 4.5)
            depth = max(n, math.ceil(s) + 1)
            tab = StemTable(AB, depth)
            lo, hi = tab.prefix_range(prefix)
            mass = random_stream.mass_array(depth)
            brute = 0.0
            for i in range(lo, hi):
                ray = ray_word(AB, stem_of(tab, i))
                brute += math.exp(-2.0 * d_phi_ray(K, ray, c, s)) * mass[i] if s > c else mass[i]
            assert _loop_integral(integ, prefix, c, s) == pytest.approx(brute, rel=1e-12)
            rows = np.array([prefix])
            got = integ.integrals(rows, random_stream.stem_masses(rows), c, s)
            assert got[0] == pytest.approx(brute, rel=1e-12)

    def test_brute_force_depth2(self, stream_m2):
        K = sym_potential(stream_m2.potential)
        integ = _KernelIntegrator(stream_m2, K)
        prefix = (0, 2)
        for c, s in ((0, 2.0), (1, 3.6), (2, 1.0), (2, 4.2)):
            depth = max(len(prefix), math.ceil(s) + K.depth)
            tab = StemTable(AB, depth)
            lo, hi = tab.prefix_range(prefix)
            mass = stream_m2.mass_array(depth)
            brute = 0.0
            for i in range(lo, hi):
                ray = ray_word(AB, stem_of(tab, i))
                brute += math.exp(-2.0 * d_phi_ray(K, ray, c, s)) * mass[i] if s > c else mass[i]
            assert _loop_integral(integ, prefix, c, s) == pytest.approx(brute, rel=1e-11)
            rows = np.array([prefix])
            got = integ.integrals(rows, stream_m2.stem_masses(rows), c, s)
            assert got[0] == pytest.approx(brute, rel=1e-11)


class TestDecayCert:
    def test_uniform_constants(self, lab_uniform):
        cert = lab_uniform.decay_audit()
        assert cert.alpha_G == pytest.approx(math.log(3))
        assert cert.beta_G == pytest.approx(math.log(3), abs=1e-9)
        assert cert.C_G == pytest.approx(1.0, abs=1e-9)
        assert cert.nu_id == "hausdorff"

    def test_radius_one_empty_complement(self, lab_uniform):
        x = ray_word(AB, (0, 2, 0))
        assert lab_uniform.tail_integral(x, 1.0, 3.0) == 0.0

    def test_s_zero_bounded_by_total_mass(self, lab_random):
        x = ray_word(AB, (0, 2, 0))
        val = lab_random.tail_integral(x, 0.0, 0.0)
        assert val <= 1.0 + 1e-12

    def test_geometric_series_oracle(self, lab_uniform):
        # uniform stream: shells contribute w_c 9^{c-s} with w_0 = 3/4 and
        # w_c = 3^{-c}/2, summing to 9^{-s} 3^j / 4 for r = e^{-j}, s >= j-1
        x = ray_word(AB, (0, 2, 0, 2))
        for j in (1, 2, 3):
            for s in (3, 5):
                val = lab_uniform.tail_integral(x, math.exp(-j), float(s))
                assert val == pytest.approx(9.0 ** (-s) * 3 ** j / 4.0, rel=1e-10)

    def test_gibbs_reference_measure(self, uniform_stream):
        cert = SpikeLab(uniform_stream, nu_id="gibbs").decay_audit()
        assert cert.nu_id == "gibbs"
        assert cert.C_G == pytest.approx(1.0, abs=1e-9)

    def test_no_deep_mass_arrays(self, monkeypatch, uniform_stream, random_stream, stream_m2):
        # the certificate reads cylinder masses along windows, never a dense
        # array deeper than one letter past the measure's windows
        mass_array = GibbsStream.mass_array

        def shallow(S, depth):
            if depth > S.depth_m + 1:
                raise AssertionError(f"mass_array({depth}) requested")
            return mass_array(S, depth)

        monkeypatch.setattr(GibbsStream, "mass_array", shallow)
        for S, nu_id in ((uniform_stream, "gibbs"), (random_stream, "hausdorff"),
                         (stream_m2, "hausdorff")):
            assert SpikeLab(S, nu_id=nu_id).decay_audit().C_G > 0
        ab3 = Alphabet(3)
        cert = SpikeLab(GibbsStream(Potential.zero(ab3))).decay_audit()
        assert cert.C_G == pytest.approx(1.0, abs=1e-9)
        assert cert.alpha_G == pytest.approx(math.log(5))


    def test_growth_failure_names_its_witness(self, uniform_stream):
        lab = SpikeLab(uniform_stream)
        lab.alpha = 3.0  # above the true tail rate log 3: scaled ratios grow in s
        with pytest.raises(CertificationError) as info:
            lab.decay_audit()
        w = info.value.witness
        assert set(w) == {"preamble", "period", "r", "s"}
        assert w["r"] in R_GRID and w["s"] == max(S_GRID)
        ray = EventuallyPeriodicWord(AB, AB.parse_word(w["preamble"]), AB.parse_word(w["period"]))
        assert ray.key() == ray_word(AB, ray.prefix(3)).key()
        assert "witness" in str(info.value)


def _scalar_tail(lab, x, r, s):
    """The per-(x, r, s) tail integral, one `_loop_integral` call per term."""
    j = scale_depth(r) if r > 0 else None
    if j == 0:
        return 0.0
    top = math.ceil(s) + 1 if j is None else min(j, math.ceil(s) + 1)
    total = 0.0
    for c in range(top):
        px = x.prefix(c + 1)
        banned = {px[-1]} | ({inverse_letter(px[-2])} if c >= 1 else set())
        for t in lab.ab.letters:
            if t not in banned:
                total += _loop_integral(lab._integrator, px[:c] + (t,), c, s)
    if j is None or j > top:
        total += cylinder_mass_loop(lab.nu, x.prefix(top))
        if j is not None:
            total -= cylinder_mass_loop(lab.nu, x.prefix(j))
    return total


def _scalar_audit(lab):
    """The per-(x, r, s) decay audit: (grid values, C_G, growth witness or None)."""
    xs = [ray_word(lab.ab, stem) for stem in StemTable(lab.ab, X_DEPTH).stems()]
    grid = np.zeros((len(R_GRID), len(S_GRID), len(xs)))
    best, per_s, witness = 0.0, {}, None
    for a, r in enumerate(R_GRID):
        for b, s in enumerate(S_GRID):
            worst, wx = 0.0, None
            for i, x in enumerate(xs):
                grid[a, b, i] = val = _scalar_tail(lab, x, r, float(s))
                scaled = val * math.exp(lab.alpha * s) * max(math.exp(s) * r, 1.0) ** lab.beta
                if scaled > worst:
                    worst, wx = scaled, x
            per_s[s] = max(per_s.get(s, 0.0), worst)
            if worst > best:
                best, witness = worst, (wx, r, s)
    tail = [per_s[s] for s in sorted(per_s)[-3:]]
    grows = tail[2] > tail[1] * 1.001 and tail[1] > tail[0] * 1.001
    ray, r_w, s_w = witness
    found = {"preamble": lab.ab.format_word(ray.preamble),
             "period": lab.ab.format_word(ray.period), "r": r_w, "s": s_w}
    return grid, best, found if grows else None


class TestBatchedDecayGrid:
    """The grid as running-sum tables per s equals the per-(x, r, s) loop exactly."""

    @pytest.fixture(scope="class")
    def labs(self, uniform_stream, random_stream, stream_m2):
        return {"uniform-gibbs": SpikeLab(uniform_stream, nu_id="gibbs"),
                "random-hausdorff": SpikeLab(random_stream, nu_id="hausdorff"),
                "m2-hausdorff": SpikeLab(stream_m2, nu_id="hausdorff"),
                "m2-gibbs": SpikeLab(stream_m2, nu_id="gibbs"),
                "rank3-zero": SpikeLab(GibbsStream(Potential.zero(Alphabet(3))))}

    @pytest.mark.parametrize("name", ["uniform-gibbs", "random-hausdorff", "m2-hausdorff",
                                      "m2-gibbs", "rank3-zero"])
    def test_grid_and_certificate_equal(self, labs, name):
        lab = labs[name]
        grid, best, grows = _scalar_audit(lab)
        rays = spikes.ray_rows(StemTable(lab.ab, X_DEPTH).letters,
                               spikes._ray_length(R_GRID, S_GRID))
        batched = lab._tail_grid(rays, R_GRID, [float(s) for s in S_GRID])
        assert batched.tolist() == grid.tolist()
        if grows is None:
            assert lab.decay_audit().C_G.hex() == best.hex()
        else:
            with pytest.raises(CertificationError) as info:
                lab.decay_audit()
            assert info.value.witness == grows

    def test_growth_witness_equal(self, uniform_stream):
        lab = SpikeLab(uniform_stream)
        lab.alpha = 3.0
        _, _, grows = _scalar_audit(lab)
        assert grows is not None
        with pytest.raises(CertificationError) as info:
            lab.decay_audit()
        assert info.value.witness == grows

    def test_one_ray_tail_equals_scalar(self, labs):
        lab = labs["m2-hausdorff"]
        x = ray_word(AB, (1, 3, 0, 3, 1))
        for r in (0.0, math.exp(-6), 0.3, 1.0):
            for s in (0.0, 0.4, 3.0, 7.5):
                assert lab.tail_integral(x, r, s) == _scalar_tail(lab, x, r, s)

    def test_batched_integrals_equal_one_prefix_integral(self, labs):
        rng = random.Random(5)
        for name in ("random-hausdorff", "m2-hausdorff", "m2-gibbs"):
            integ = labs[name]._integrator
            for n in range(1, 6):
                words = list(AB.reduced_words(n))
                rows = [words[i] for i in rng.sample(range(len(words)), min(9, len(words)))]
                batch = np.array(rows)
                masses = integ.nu.stem_masses(batch)
                for c in range(n + 1):
                    for s in (0.0, 1.5, 3.0, 6.25):
                        vals = integ.integrals(batch, masses, c, s).tolist()
                        want = [_loop_integral(integ, w, c, s) for w in rows]
                        assert vals == want, (name, n, c, s)

    def test_each_term_batch_and_backward_vector_once(self, monkeypatch, stream_m2):
        # depth-2 kernel: the c = 0 terms are block sums over their children
        batches, reads, misses = Counter(), Counter(), Counter()
        integrals, continuation = _KernelIntegrator.integrals, _KernelIntegrator._continuation
        stem_masses, walked = GibbsStream.stem_masses, Counter()

        def counted_integrals(self, rows, masses, c, s):
            batches[rows.shape[1], c, s] += 1
            return integrals(self, rows, masses, c, s)

        def counted_masses(self, rows):
            walked[rows.tobytes(), rows.shape] += 1
            return stem_masses(self, rows)

        def counted_continuation(self, n, c, s):
            reads[n, c, s] += 1
            misses[n, c, s] += (n, c, s) not in self._backward
            return continuation(self, n, c, s)

        def refused(*args):
            raise AssertionError("the decay grid runs through the batch path only")

        monkeypatch.setattr(_KernelIntegrator, "integrals", counted_integrals)
        monkeypatch.setattr(_KernelIntegrator, "_continuation", counted_continuation)
        monkeypatch.setattr(GibbsStream, "stem_masses", counted_masses)
        monkeypatch.setattr(SpikeLab, "tail_integral", refused)
        monkeypatch.setattr(GibbsStream, "cylinder_mass_of_stem", refused)
        SpikeLab(stream_m2).decay_audit()
        shells = {(c + 1, c, float(s)) for s in S_GRID for c in range(math.ceil(s) + 1)}
        children = {(2, 0, float(s)) for s in S_GRID if s > 0}
        assert set(batches) == shells | children
        assert set(batches.values()) == {1}
        assert reads and set(reads.values()) == {1} and misses == reads
        # each off-ray row set's masses are read once, not once per kernel time
        rays = spikes.ray_rows(StemTable(AB, X_DEPTH).letters, 13)
        for c in range(13):
            off = [list(x[:c]) + [t] for x in rays.tolist() for t in AB.letters
                   if t != x[c] and (c == 0 or t != inverse_letter(x[c - 1]))]
            rows = np.array(off, dtype=np.int64)
            assert walked[rows.tobytes(), rows.shape] == 1, c

    def test_each_mass_row_set_read_once(self, monkeypatch, stream_m2):
        # depth-2 kernel: the c = 0 terms sum over their children at every
        # kernel time, and the children's masses are still read once
        stem_masses, walked = GibbsStream.stem_masses, Counter()

        def counted_masses(self, rows):
            walked[rows.dtype.str, rows.shape, rows.tobytes()] += 1
            return stem_masses(self, rows)

        monkeypatch.setattr(GibbsStream, "stem_masses", counted_masses)
        SpikeLab(stream_m2).decay_audit()
        assert walked and set(walked.values()) == {1}, sorted(walked.values())


class TestUnitSpikes:
    def test_identity_spike(self, lab_uniform):
        rec = lab_uniform.unit_spike(())
        assert rec.r == 1.0 and rec.s == 0.0
        assert rec.h.sup == rec.h.inf == 1.0

    def test_uniform_letter_spike(self, lab_uniform):
        rec = lab_uniform.unit_spike((0,))
        vals = sorted(set(np.round(rec.h.values, 12)))
        assert vals == [pytest.approx(1 / 9), pytest.approx(1.0)]
        assert rec.h(rec.a) == 1.0

    def test_unit_normalization_with_target(self, lab_uniform, step_target):
        rec = lab_uniform.unit_spike((0, 2), step_target)
        assert rec.h(rec.a) == pytest.approx(1.0, abs=1e-12)
        assert rec.h.inf > 0

    def test_positive_target_required(self, lab_uniform, ab):
        bad = CylinderFunction.from_table(ab, 1, {(0,): -1.0}, default=1.0)
        with pytest.raises(ValueError):
            lab_uniform.unit_spike((0,), bad)

    def test_translation_invariance_of_rho(self, random_stream):
        # the invariance behind base-point relabeling of spike records
        rng = random.Random(9)
        from oracles import RandomReducedWord, rho_phi, translate_boundary

        P = random_stream.potential
        for _ in range(50):
            sigma = tuple(rng.choice([0, 1, 2, 3]) for _ in range(1))
            sigma = AB.reduce(sigma)
            g = (0, 2)
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            lhs = rho_phi(P, translate_boundary(AB, sigma, xi),
                          sigma, AB.mul(sigma, g))
            assert lhs == pytest.approx(rho_phi(P, xi, (), g), abs=1e-12)


def _sweep(lab, radius):
    """(g, minimal C) of every derivative spike with |g| <= radius, shell by shell."""
    return [(g, a.minimal_c) for n in range(1, radius + 1)
            for g, a in zip(lab.ab.reduced_words(n), lab.shell_audits(n))]


def _shell_audit(lab, g):
    """The audit of the derivative spike at g, read from its shell's audits."""
    return lab.shell_audits(len(g))[StemTable(lab.ab, len(g)).index_of(g)]


class TestSpikeAudit:
    def test_identity_minimal(self, lab_uniform):
        aud = lab_uniform.spike_audit(lab_uniform.unit_spike(()))
        assert aud.minimal_c == 1.0

    def test_uniform_letter_constant(self, lab_uniform):
        aud = lab_uniform.spike_audit(lab_uniform.unit_spike((0,)), holder_q=lab_uniform.beta)
        assert aud.minimal_c == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert aud.c_holder == 0.0

    def test_profile_equals_generic(self, lab_random):
        for g in [(0,), (2, 0), (0, 2, 1), (3, 1, 1)]:
            fast = _shell_audit(lab_random, g)
            slow = lab_random.spike_audit(lab_random.unit_spike(g), holder_q=lab_random.beta)
            assert fast.minimal_c == pytest.approx(slow.minimal_c, abs=1e-10)
            assert fast.c2 == pytest.approx(slow.c2, abs=1e-10)

    def test_positive_multiple_same_constant(self, lab_random):
        rec = lab_random.unit_spike((0, 2))
        base = lab_random.spike_audit(rec, holder_q=lab_random.beta)
        for alpha in (0.25, 3.0, 17.5):
            scaled = lab_random.spike_audit(rec.scaled(alpha), holder_q=lab_random.beta)
            assert scaled.minimal_c == pytest.approx(base.minimal_c, rel=1e-12)

    def test_sandwich_lemma(self, lab_uniform):
        rng = np.random.default_rng(11)
        rec = lab_uniform.unit_spike((0, 2))
        base_c = lab_uniform.spike_audit(rec).minimal_c
        a1, a2 = 0.8, 1.3
        factor = CylinderFunction(AB, rec.h.depth,
                                  rng.uniform(a1, a2, rec.h.values.size))
        squeezed = rec.__class__(h=rec.h * factor, r=rec.r, a=rec.a, s=rec.s,
                                 center=rec.center)
        new_c = lab_uniform.spike_audit(squeezed).minimal_c
        assert new_c <= base_c * (a2 / a1) + 1e-10

    def test_holder_scale_monotone(self, lab_uniform, step_target):
        rec = lab_uniform.unit_spike((0,), step_target)
        q = lab_uniform.beta
        d_full = rec.h.holder_at(rec.r, q)
        d_half = rec.h.holder_at(rec.r / math.e, q)
        assert (d_half <= d_full + 1e-12).all()

    def test_sweep_flat_after_stabilization(self, lab_uniform, lab_random):
        for lab in (lab_uniform, lab_random):
            rows = _sweep(lab, 6)
            per = {}
            for g, c in rows:
                per[len(g)] = max(per.get(len(g), 0.0), c)
            head = max(per[n] for n in per if n <= lab.S.depth_m + 2)
            assert all(per[n] <= head * (1 + 1e-9) for n in per)

    def test_sweep_depth2_bounded(self, stream_m2):
        lab = SpikeLab(stream_m2)
        rows = _sweep(lab, 4)
        per = {}
        for g, c in rows:
            per[len(g)] = max(per.get(len(g), 0.0), c)
        head = max(per[n] for n in per if n <= stream_m2.depth_m + 2)
        assert all(per[n] <= head * (1 + 1e-9) for n in per)
        assert all(math.isfinite(c) for _, c in rows)


# --------------------------------------------------------------------------
# The shell path against the per-g loop it replaced.


def _branch_depths(tab, w):
    """Per-stem confluence length with the word w (clipped at depth)."""
    c = np.zeros(tab.size, dtype=np.int64)
    for i in range(1, min(len(w), tab.depth) + 1):
        lo, hi = tab.prefix_range(w[:i])
        c[lo:hi] = i
    return c


def _loop_rho_profile(S, q):
    phi = np.array([S.potential.table[(s,)] for s in S.ab.letters])
    fwd = np.concatenate([[0.0], np.cumsum([phi[s] for s in q])])
    bwd = np.concatenate([[0.0], np.cumsum([phi[inverse_letter(s)] for s in reversed(q)])])[::-1]
    return bwd - fwd


def _loop_rho(S, q, depth):
    """rho_phi_array of one centre, one window_sums call per confluence."""
    tab = StemTable(S.ab, depth)
    conf = _branch_depths(tab, q)
    if S.depth_m == 1:
        return _loop_rho_profile(S, q)[conf]
    P, letters = S.potential, tab.letters
    from_q = np.empty(tab.size)
    for c in range(len(q) + 1):
        rows = np.flatnonzero(conf == c)
        head = np.tile(np.array(S.ab.inv(q[c:]), dtype=letters.dtype), (len(rows), 1))
        from_q[rows] = window_sums(P, np.concatenate([head, letters[rows, c:]], axis=1))
    return from_q - window_sums(P, letters)


def _loop_translate(f, g):
    n, d = len(g), f.depth
    tab = StemTable(f.ab, n + d)
    c = _branch_depths(tab, g)[:, None]
    col = np.arange(d)[None, :]
    head = np.array((f.ab.inv(g) + (0,) * d)[:d])
    tail = np.take_along_axis(tab.letters, np.maximum(col + 2 * c - n, 0), axis=1)
    return f.values[f.table.indices(np.where(col < n - c, head, tail))]


def _loop_unit_spike(lab, g, F):
    """The unit spike at g, built for that g alone."""
    n, ab = len(g), lab.ab
    depth = n + lab.S.depth_m
    vals = np.exp(-_loop_rho(lab.S, g, depth))
    a = ray_word(ab, g)
    h = CylinderFunction(ab, depth, vals / vals[StemTable(ab, depth).index_of(a.prefix(depth))])
    if F is None:
        return h
    h = h * CylinderFunction(ab, n + F.depth, _loop_translate(F, g))
    return h * (1.0 / h(a))


def _loop_integral(integ, prefix, c, s):
    """The kernel integral over one prefix's cylinder, by recursion over its children."""
    prefix = tuple(prefix)
    n = len(prefix)
    if c > n:
        raise ValueError("kernel start beyond the prefix")
    if s <= c:
        return cylinder_mass_loop(integ.nu, prefix)
    mK = integ.K.depth
    if n < mK:
        return sum(_loop_integral(integ, prefix + (t,), c, s)
                   for t in integ.K.ab.letters if t != inverse_letter(prefix[-1]))
    # edge p covers letters p+1 .. p+mK (1-indexed); fractional last edge
    last_edge = math.ceil(s) - 1
    fixed = 0.0
    for p in range(c, min(last_edge, n - mK) + 1):
        fixed += (min(s, p + 1.0) - p) * integ.K.table[prefix[p : p + mK]]
    out = math.exp(-2.0 * fixed) * cylinder_mass_loop(integ.nu, prefix)
    if last_edge + mK <= n:  # no edge reaches past the prefix
        return out
    return out * integ._continuation(n, c, s)[stem_code(integ._tab, prefix[-mK:])]


def _loop_holder(h, r, q):
    out = np.zeros_like(h.values)
    for j in range(scale_depth(r), h.depth):
        balls = h.table.blocks(h.values, j)
        gap = np.maximum(balls.max(axis=1, keepdims=True) - balls,
                         balls - balls.min(axis=1, keepdims=True))
        np.maximum(out, gap.ravel() * math.exp(q * j), out=out)
    return out


def _loop_spike_audit(lab, h, g, holder_q):
    """(c1, c2, c3, c_holder) of the unit spike h at g, one confluence at a time."""
    n = len(g)
    r, s, a = math.exp(-n), float(n), ray_word(lab.ab, g)
    j = scale_depth(r)
    c3 = h.ratio_within(r)
    hv, tab = h.values, h.table
    lo, hi = tab.prefix_range(a.prefix(j))
    c1 = h.sup / float(hv[lo:hi].min())
    h_a = h(a)
    cdep = _branch_depths(tab, a.prefix(j))
    c2 = 0.0
    for c in range(j):
        sel = cdep == c
        bound = h_a * math.exp(lab.alpha * s) * _loop_integral(lab._integrator, a.prefix(j), c, s)
        c2 = max(c2, float(hv[sel].max()) / bound)
    c_holder = float((_loop_holder(h, r, holder_q) * r ** holder_q / hv).max())
    return c1, c2, c3, c_holder


def _loop_profile_audit(lab, g):
    """(c1, c2, c3, c_holder) of the derivative spike at g for a depth-1
    stream in closed form: the spike and the kernel integral over the shadow
    of g depend on a point only through its confluence depth with g, so every
    sup is over the n + 1 classes, and (3) and the Holder bound are zero
    oscillations."""
    n = len(g)
    v = np.exp((rho := _loop_rho_profile(lab.S, g))[n] - rho)
    phi_k = np.array([lab.kernel.table[(s,)] for s in lab.ab.letters])
    ksuffix = np.concatenate([[0.0], np.cumsum(phi_k[list(g)])])
    mass_g = lab.nu.cylinder_mass_of_stem(g)
    c2 = 0.0
    for c in range(n):
        integ = math.exp(-2.0 * (ksuffix[n] - ksuffix[c])) * mass_g
        c2 = max(c2, float(v[c]) / (math.exp(lab.alpha * n) * integ))
    return float(v.max()) / float(v[n]), c2, 1.0, 0.0


def _audit_tuple(aud):
    return aud.c1, aud.c2, aud.c3, aud.c_holder


def _profile_cells(lab, n, F):
    """The floats of one row of shell n in profile form: L values per window
    state + span(L)."""
    return spikes._row_cells(lab.ab, lab.S.depth_m - 1, spikes._profile_level(n, F),
                             spikes._spike_depth(lab.S, n, F))


# m > 1 spike rows read one value per (confluence, window state), whose
# window sums run in another order than the per-confluence loop's
# (`_loop_rho`): the rows agree to this relative bound, and so do the audits
# read from them (the largest differences measured on these cases are 8e-15)
SPIKE_RTOL = 1e-13


def _assert_close(S, got, want, where):
    """Bit-equal for m = 1, within SPIKE_RTOL for m > 1."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if S.depth_m == 1:
        assert got.tobytes() == want.tobytes(), where
    else:
        assert np.all(np.abs(got - want) <= SPIKE_RTOL * np.abs(want)), where


def _vstack_combine(shell, lam, tab):
    """`SpikeShell.combine` as a stack of each dense chunk under the running sum."""
    acc = np.zeros(tab.size)
    for words, profile, block, w in zip(*(spikes._chunks(a, tab.size) for a in (
            shell.words, shell.profile, shell.block, lam))):
        rows = stems._expand(shell.ab, shell.depth, words, profile, block)
        if tab.depth > shell.depth:
            rows = np.repeat(rows, tab.span(shell.depth), axis=1)
        acc = np.vstack([acc, w[:, None] * rows]).sum(axis=0)
    return acc


SHELL_CASES = ["uniform", "step-f2", "random-hausdorff", "m2-average-hausdorff",
               "m2-average-gibbs", "m2-extend-hausdorff", "m2-extend-gibbs", "rank3-zero",
               "depth3-target", "random-depth1-target", "random-depth3-target"]


def _deep_lab(rank, m, rule):
    """A lab on a depth-m potential with random window weights."""
    ab = Alphabet(rank)
    words = list(ab.reduced_words(m))
    vals = np.random.default_rng(100 * rank + m).uniform(-0.3, 0.9, len(words))
    return SpikeLab(GibbsStream(Potential(ab, m, dict(zip(words, vals.tolist())), rule)))


# the cases that store profile rows, L > 0, with one window state (depth-1
# streams) or several
PROFILE_CASES = ["uniform", "step-f2", "random-hausdorff", "random-depth1-target",
                 "random-depth3-target", "m2-average-hausdorff", "m2-extend-gibbs",
                 "rank3-m2", "m3-average-hausdorff", "m3-extend-target"]


class TestShellBatch:
    """Whole-shell spikes and audits equal the per-g loop bit for bit, however
    the shell is cut into chunks."""

    @pytest.fixture(scope="class")
    def cases(self, uniform_stream, step_target, random_stream, stream_m2):
        table = stream_m2.potential.table
        m2_extend = GibbsStream(Potential(AB, 2, table, "extend"))
        depth3 = CylinderFunction(AB, 3, np.random.default_rng(4).uniform(0.5, 2.0, 36))
        depth1 = CylinderFunction(AB, 1, np.array([0.5, 1.5, 1.0, 2.0]))
        return {  # lab, target, largest shell
            "uniform": (SpikeLab(uniform_stream), None, 4),
            "step-f2": (SpikeLab(uniform_stream), step_target, 4),
            "random-hausdorff": (SpikeLab(random_stream), None, 4),
            "m2-average-hausdorff": (SpikeLab(stream_m2), None, 3),
            "m2-average-gibbs": (SpikeLab(stream_m2, nu_id="gibbs"), None, 3),
            "m2-extend-hausdorff": (SpikeLab(m2_extend), None, 3),
            "m2-extend-gibbs": (SpikeLab(m2_extend, nu_id="gibbs"), None, 3),
            "rank3-zero": (SpikeLab(GibbsStream(Potential.zero(Alphabet(3)))), None, 2),
            "depth3-target": (SpikeLab(stream_m2), depth3, 3),
            # depth-1 streams: profile levels L = n and L = n - 2
            "random-depth1-target": (SpikeLab(random_stream), depth1, 3),
            "random-depth3-target": (SpikeLab(random_stream), depth3, 4),
            # several window states a class
            "rank3-m2": (_deep_lab(3, 2, "average"), None, 2),
            "m3-average-hausdorff": (_deep_lab(2, 3, "average"), None, 4),
            "m3-extend-target": (_deep_lab(2, 3, "extend"), depth1, 4),
        }

    @pytest.mark.parametrize("rows", [None, 1, 5], ids=["budget", "one-row", "five-rows"])
    @pytest.mark.parametrize("name", SHELL_CASES)
    def test_shell_equals_per_g_loop(self, cases, name, rows, monkeypatch):
        lab, F, top = cases[name]
        lab = SpikeLab(lab.S, lab.nu_id)  # a fresh lab: its shells are built at this BUDGET
        m = lab.S.depth_m
        for n in range(1, top + 1):
            words = list(lab.ab.reduced_words(n))
            depth = n + max(m, F.depth if F is not None else 0)
            if rows is not None:  # rows 5 splits every shell inside a chunk
                monkeypatch.setattr(spikes, "BUDGET", rows * _profile_cells(lab, n, F))
            shell = lab.shell(n, F)
            assert shell.words.tolist() == [list(g) for g in words]
            assert shell.depth == depth and not shell.values.flags.writeable
            owns = []
            for g, row, C in zip(words, shell.values, shell.C):
                h = _loop_unit_spike(lab, g, F)
                assert h.depth == depth
                _assert_close(lab.S, row, h.values, (name, g))
                # the row's own audit, one confluence at a time, and the oracle's
                own = CylinderFunction(lab.ab, depth, row)
                owns.append(want := _loop_spike_audit(lab, own, g, lab.beta))
                _assert_close(lab.S, want, _loop_spike_audit(lab, h, g, lab.beta), (name, g))
                assert C == max(want + (1.0,)), (name, g)
                rec = SpikeRecord(h=own, r=math.exp(-n), a=ray_word(lab.ab, g), s=float(n),
                                  center=g)
                assert _audit_tuple(lab.spike_audit(rec, holder_q=lab.beta)) == want, (name, g)
            if F is not None:
                continue
            audits = lab.shell_audits(n)
            assert len(audits) == len(words)
            for g, aud, want, C in zip(words, audits, owns, shell.C):
                assert _audit_tuple(aud) == want and aud.minimal_c == C, (name, g)
                if m == 1:  # the closed form agrees to roundoff
                    assert _audit_tuple(aud) == pytest.approx(_loop_profile_audit(lab, g),
                                                              rel=1e-14, abs=0.0), (name, g)

    @pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "five-rows"])
    @pytest.mark.parametrize("name", PROFILE_CASES)
    def test_profile_audit_equals_dense_audit(self, cases, name, rows, monkeypatch):
        lab, F, top = cases[name]
        for n in range(1, top + 1):
            monkeypatch.setattr(spikes, "BUDGET", rows * _profile_cells(lab, n, F))
            words = spikes._shell_words(lab.ab, n)
            depth = spikes._spike_depth(lab.S, n, F)
            lo = 0
            for profile, block, audits in lab._spike_chunks(words, F):
                assert profile.shape[1] == spikes._profile_level(n, F)
                assert len(profile) <= rows
                chunk = words[lo:lo + len(profile)]
                lo += len(profile)
                rays = spikes.ray_rows(chunk, depth)

                def audit(prof, blk):
                    rows = lab._audit_rows(prof, blk, depth, rays, math.exp(-n), float(n), lab.beta)
                    return rows.tobytes()

                def dense_audit(prof):
                    return audit(np.empty((len(chunk), 0, 1)),
                                 stems._expand(lab.ab, depth, chunk, prof, block))

                assert audits.tobytes() == dense_audit(profile), (name, n)
                # a profile that holds each row's maximum
                assert audit(profile * 50.0, block) == dense_audit(profile * 50.0), (name, n)
            assert lo == len(words)

    def test_shell_audit_never_expands(self, cases, monkeypatch):
        lab, F, _ = cases["step-f2"]
        expand, calls = spikes._expand, Counter()

        def counted(*args, **kwargs):
            calls["expand"] += 1
            return expand(*args, **kwargs)

        monkeypatch.setattr(spikes, "_expand", counted)
        for n in range(1, 6):
            lab.shell(n, F)
        assert not calls
        # shell 5's dense rows alone are 324 rows of 2,916 floats (7.2 MiB); the
        # audit of its expanded chunks peaked at 3.7 MB, the profile audit at 1.0 MB
        lab = SpikeLab(lab.S)
        tracemalloc.start()
        try:
            lab.shell(5, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

    @pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "five-rows"])
    @pytest.mark.parametrize("name,n,level", [("step-f2", 3, 2), ("uniform", 3, 3),
                                              ("step-f2", 1, 0), ("m2-average-hausdorff", 2, 2),
                                              ("depth3-target", 2, 0)])
    def test_combine_equals_vstack_sum(self, cases, name, n, level, rows, monkeypatch):
        lab, F, _ = cases[name]
        shell = lab.shell(n, F)
        assert shell.profile.shape[1] == level
        lam = np.random.default_rng(n).uniform(0.1, 3.0, len(shell.words))
        for depth in (shell.depth, shell.depth + 2):  # as read, and refined
            tab = StemTable(lab.ab, depth)
            monkeypatch.setattr(spikes, "BUDGET", rows * tab.size)
            got = shell.combine(lam, tab)
            assert got.tobytes() == _vstack_combine(shell, lam, tab).tobytes(), (name, depth)

    def test_shell_rows_refused_before_allocation(self, cases, monkeypatch):
        lab = cases["uniform"][0]
        monkeypatch.setattr(stems, "DENSE_BYTES", 8 * 12 * 36)  # shell 2: 12 rows of 36 cells
        assert lab.shell(2).values.shape == (12, 36)
        with pytest.raises(DenseArrayError, match="shell 3's spike rows would take 31104 bytes"):
            lab.shell(3)

    def test_oversized_centre_words_refused(self, cases, monkeypatch):
        lab = cases["uniform"][0]  # depth-1 kernel: shell_audits audits profile rows
        # shell 4 keeps 108 profile rows of 4 + 3 floats, above its 108 words of 4 letters
        monkeypatch.setattr(stems, "DENSE_BYTES", 8 * 108 * 7)
        assert len(lab.shell_audits(4)) == 108
        for build in (lab.shell_audits, lab.shell):
            with pytest.raises(DenseArrayError,
                               match="shell 5's centre words would take 12960 bytes"):
                build(5)

    def test_per_g_entry_points_are_batches_of_one(self, cases):
        lab, F, _ = cases["depth3-target"]
        g = (0, 2, 1)
        rec = lab.unit_spike(g, F)
        row = lab.shell(3, F).values[StemTable(lab.ab, 3).index_of(g)]
        assert rec.h.values.tobytes() == row.tobytes()
        _assert_close(lab.S, rec.h.values, _loop_unit_spike(lab, g, F).values, g)
        assert rec.r == math.exp(-3) and rec.s == 3.0 and rec.center == g
        lab, _, _ = cases["random-hausdorff"]
        h = _loop_unit_spike(lab, g, None)
        rec = SpikeRecord(h=h, r=math.exp(-3), a=ray_word(lab.ab, g), s=3.0, center=g)
        want = _loop_spike_audit(lab, h, g, lab.beta)
        assert _audit_tuple(lab.spike_audit(rec, holder_q=lab.beta)) == want
        assert _audit_tuple(_shell_audit(lab, g)) == want

    def test_decompose_and_sweep_build_whole_shells_once(self, monkeypatch, uniform_stream,
                                                         step_target, stream_m2, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("per-g spike entry point reached")

        for name in ("unit_spike", "spike_audit"):
            monkeypatch.setattr(SpikeLab, name, refuse)
        monkeypatch.setattr(GibbsStream, "rho_phi_array", refuse)
        monkeypatch.setattr(spikes, "translate_function", refuse)
        monkeypatch.setattr(cylfun, "translate_function", refuse)
        built, audited = Counter(), Counter()
        shell, shell_audits = SpikeLab.shell, SpikeLab.shell_audits

        def counted_shell(self, n, F=None):
            built[n] += 1
            return shell(self, n, F)

        def counted_audits(self, n):
            audited[n] += 1
            return shell_audits(self, n)

        monkeypatch.setattr(SpikeLab, "shell", counted_shell)
        monkeypatch.setattr(SpikeLab, "shell_audits", counted_audits)
        cfg = {"audits": {"spike_radius": 4}}
        cases = [(SpikeLab(S), S, F or CylinderFunction.constant(AB, 1.0))
                 for S, F in ((uniform_stream, step_target), (stream_m2, None))]
        for lab, _, _ in cases:
            assert lab.cert
        # past the decay certificate no spike is read one point or one ball at a time
        monkeypatch.setattr(CylinderFunction, "__call__", refuse)
        monkeypatch.setattr(StemTable, "prefix_range", refuse)
        for lab, S, F in cases:
            built.clear()
            audited.clear()
            dec = decompose(F, S, DecomposerConfig(max_shell=5), lab=lab)
            assert set(built) == set(range(1, SWEEP_RADIUS + 1)) | {t.shell for t in dec.stages}
            assert set(built.values()) == {1}
            assert cli.run_spikes(cfg, AB, S, lab, cli.Reporter(tmp_path, cfg))["pass"]
            assert audited == Counter({n: 1 for n in range(1, 5)})


# --------------------------------------------------------------------------
# Window-state profiles: for m > 1 a spike row takes one value per confluence
# class c with its centre and window state (the stem's m - 1 letters past c).


STATE_CASES = [(2, 2, "average", 3), (2, 2, "extend", 3), (2, 3, "average", 3),
               (2, 3, "extend", 3), (3, 2, "average", 2)]


@pytest.mark.parametrize("target", [None, "step"])
@pytest.mark.parametrize("rank,m,rule,top", STATE_CASES,
                         ids=[f"rank{r}-m{m}-{rule}" for r, m, rule, _ in STATE_CASES])
def test_state_profile_rows_pinned_to_oracle(rank, m, rule, top, target):
    lab = _deep_lab(rank, m, rule)
    ab, w = lab.ab, m - 1
    F = None if target is None else CylinderFunction.from_table(ab, 2, {(0, 0): 1.25}, 1.0)
    for n in range(1, top + 1):
        shell = lab.shell(n, F)
        level = spikes._profile_level(n, F)
        assert shell.profile.shape == (len(shell.words), level, window_state_count(ab, w))
        tab = StemTable(ab, shell.depth)
        for g, row, profile in zip(map(tuple, shell.words.tolist()), shell.values, shell.profile):
            _assert_close(lab.S, row, _loop_unit_spike(lab, g, F).values, (n, g))
            # an entry is NaN exactly where no stem has its class and state
            conf = _branch_depths(tab, g)
            for c in range(level):
                held = np.unique(window_states(ab, tab.letters[conf == c, c:c + w]))
                assert np.flatnonzero(~np.isnan(profile[c])).tolist() == held.tolist(), (g, c)


def test_m2_spike_path_reads_no_dense_rows(stream_m2, step_target, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Radon-Nikodym rows or per-stem window sums reached")

    monkeypatch.setattr(GibbsStream, "rho_phi_rows", refuse)
    for mod in (gibbs, potentials):
        monkeypatch.setattr(mod, "window_sums", refuse)
    lab = SpikeLab(stream_m2)
    for n in range(1, 5):
        assert len(lab.shell(n).words) == len(lab.shell(n, step_target).words)
        assert len(lab.shell_audits(n)) == len(lab.shell(n).words)
    for F in (CylinderFunction.constant(AB, 1.0), step_target):
        assert decompose(F, stream_m2, DecomposerConfig(max_shell=4), lab=lab).stages
