"""Weighted lengths, cocycles, Holder certificates, comparison bounds."""

import math
import random

import numpy as np
import pytest

from gibbswalk.cylfun import CylinderFunction, translate_function
from gibbswalk.potentials import Potential, d_phi, flip_potential, min_cycle_mean, sym_potential
from gibbswalk.stems import StemTable
from gibbswalk.words import Alphabet, inverse_letter, ray_word
from oracles import (
    GeodesicSpec,
    HolderCertificate,
    RandomReducedWord,
    comparison_bounds,
    d_phi_ray,
    geodesic_average_audit,
    holder_certificate,
    rho_phi,
    sh_distance,
)

AB = Alphabet(2)


def rand_word(rng, n):
    w = []
    for _ in range(n):
        choices = [s for s in AB.letters if not w or s != inverse_letter(w[-1])]
        w.append(rng.choice(choices))
    return tuple(w)


def rand_potential(seed, depth=1, lo=-0.5, hi=1.0):
    rng = np.random.default_rng(seed)
    words = list(AB.reduced_words(depth))
    return Potential(AB, depth, {w: float(v) for w, v in
                                 zip(words, rng.uniform(lo, hi, len(words)))})


class TestDPhi:
    def test_constant(self):
        P = Potential.constant(AB, 0.7)
        assert d_phi(P, (), (0, 2)) == pytest.approx(1.4)

    def test_edge_sum(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 2.0, (2,): 3.0, (3,): 4.0})
        assert d_phi(P, (), (0, 2)) == pytest.approx(4.0)

    @pytest.mark.parametrize("rank, m", [(2, 2), (2, 3), (3, 3)])
    def test_short_windows_follow_the_suffix_rule(self, rank, m):
        # "average": the mean over the one-letter extensions, summed in letter
        # order from length m down; "extend": the last letter repeated
        ab = Alphabet(rank)
        words = list(ab.reduced_words(m))
        vals = np.random.default_rng(10 * rank + m).uniform(-0.5, 1.0, len(words))
        table = {w: float(v) for w, v in zip(words, vals)}
        mean = dict(table)
        for length in range(m - 1, 0, -1):
            for w in ab.reduced_words(length):
                kids = [w + (t,) for t in ab.letters if t != inverse_letter(w[-1])]
                mean[w] = sum(mean[k] for k in kids) / len(kids)
        average, extend = (Potential(ab, m, table, rule) for rule in ("average", "extend"))
        for length in range(1, m):
            for w in ab.reduced_words(length):
                assert average.window(w) == mean[w]
                assert extend.window(w) == table[w + (w[-1],) * (m - length)]

    def test_flip_identity_depth1_exact(self):
        P = rand_potential(1)
        Pf = flip_potential(P)
        rng = random.Random(2)
        for _ in range(200):
            g = rand_word(rng, rng.randrange(1, 8))
            assert d_phi(P, (), g) == pytest.approx(d_phi(Pf, (), AB.inv(g)), abs=1e-12)

    def test_flip_identity_depth2_within_suffix_convention(self):
        P = rand_potential(3, depth=2)
        Pf = flip_potential(P)
        tol = (P.depth - 1) * P.oscillation + 1e-12
        rng = random.Random(4)
        for _ in range(100):
            g = rand_word(rng, rng.randrange(1, 7))
            assert abs(d_phi(P, (), g) - d_phi(Pf, (), AB.inv(g))) <= tol

    def test_ray_fractional(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 2.0, (2,): 3.0, (3,): 4.0})
        ray = ray_word(AB, (0, 2))
        assert d_phi_ray(P, ray, 0.5, 1.25) == pytest.approx(0.5 * 1.0 + 0.25 * 3.0)

    def test_change_along_geod(self):
        P = rand_potential(5)
        L = P.sup_abs
        rng = random.Random(6)
        ray = RandomReducedWord(AB, 99)
        for _ in range(200):
            t1, t2 = sorted(rng.uniform(0, 10) for _ in range(2))
            gap = abs(d_phi_ray(P, ray, 0, t2) - d_phi_ray(P, ray, 0, t1))
            assert gap <= L * (t2 - t1) + 1e-12


class TestRhoPhi:
    def test_constant_scaling(self):
        P = Potential.constant(AB, 0.9)
        xi = ray_word(AB, (0, 0, 0))
        assert rho_phi(P, xi, (), (0, 0)) == pytest.approx(-1.8)

    def test_window_arithmetic(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 2.5, (2,): 3.0, (3,): 4.0})
        xi = ray_word(AB, (2,))  # b b b ...
        assert rho_phi(P, xi, (), (0,)) == pytest.approx(2.5)  # phi(a')

    def test_cocycle(self):
        P = rand_potential(7)
        rng = random.Random(8)
        for _ in range(200):
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            p, q, r = (rand_word(rng, rng.randrange(5)) for _ in range(3))
            lhs = rho_phi(P, xi, p, q) + rho_phi(P, xi, q, r)
            assert lhs == pytest.approx(rho_phi(P, xi, p, r), abs=1e-12)

    def test_antisymmetry_iff_symmetric(self):
        P = sym_potential(rand_potential(9))
        assert P.is_symmetric()
        rng = random.Random(10)
        for _ in range(100):
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            p, q = rand_word(rng, rng.randrange(5)), rand_word(rng, rng.randrange(5))
            assert rho_phi(P, xi, p, q) == pytest.approx(-rho_phi(P, xi, q, p), abs=1e-12)

    def test_median_identity_depth1(self):
        # the approximate-Busemann comparison collapses to an exact identity
        # through the median on a tree for depth-1 tables
        P = rand_potential(11)
        rng = random.Random(12)
        for _ in range(200):
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            p, q = rand_word(rng, rng.randrange(5)), rand_word(rng, rng.randrange(5))
            from oracles import gromov_product

            m_depth = gromov_product(AB, q, xi, p)  # d(p, median)
            ray_pq = AB.mul(AB.inv(p), q)
            median = AB.mul(p, ray_pq[: int(m_depth)])
            lhs = rho_phi(P, xi, p, q) + d_phi(P, p, median) - d_phi(P, q, median)
            assert lhs == pytest.approx(0.0, abs=1e-12)


class TestFlipSym:
    def test_symmetric_fixed_point(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 1.0, (2,): 2.0, (3,): 2.0})
        Pf, Ps = flip_potential(P), sym_potential(P)
        assert Pf.table == P.table and Ps.table == P.table

    def test_flip_table(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 3.0, (2,): 0.0, (3,): 0.0})
        Pf, Ps = flip_potential(P), sym_potential(P)
        assert Pf.table[(0,)] == 3.0 and Pf.table[(1,)] == 1.0
        assert Ps.table[(0,)] == 2.0 and Ps.table[(1,)] == 2.0

    def test_sym_idempotent(self):
        P = rand_potential(13)
        S1 = sym_potential(P)
        S2 = sym_potential(S1)
        assert all(S1.table[w] == pytest.approx(S2.table[w], abs=1e-15) for w in S1.table)

    def test_sym_length_identity(self):
        P = rand_potential(14)
        Ps = sym_potential(P)
        rng = random.Random(15)
        for _ in range(100):
            p, q = rand_word(rng, rng.randrange(5)), rand_word(rng, rng.randrange(5))
            lhs = d_phi(Ps, p, q)
            assert lhs == pytest.approx(0.5 * (d_phi(P, p, q) + d_phi(P, q, p)), abs=1e-12)


class TestHolderCertificate:
    def test_constant_zero(self):
        cert = holder_certificate(Potential.constant(AB, 5.0))
        assert cert.K == 0.0 and cert.L == 5.0

    def test_two_value_table(self):
        P = Potential(AB, 1, {(0,): 1.0, (1,): 3.0, (2,): 1.0, (3,): 3.0})
        cert = holder_certificate(P)
        assert cert.K == pytest.approx(2 * math.e)
        assert cert.beta == 1.0 and cert.L == 3.0

    def test_sampled_validity(self):
        # synchronized pairs: common base, equal integer shifts
        P = rand_potential(16)
        cert = holder_certificate(P)
        rng = random.Random(17)
        checked = 0
        while checked < 10_000:
            f1 = RandomReducedWord(AB, rng.randrange(10**6))
            f2 = RandomReducedWord(AB, rng.randrange(10**6) + 10**6)
            b = RandomReducedWord(AB, rng.randrange(10**6) + 2 * 10**6)
            if b.letter(0) in (f1.letter(0), f2.letter(0)):
                continue
            shift = rng.randrange(0, 8)
            g1 = GeodesicSpec(AB, (), f1, b, float(shift))
            g2 = GeodesicSpec(AB, (), f2, b, float(shift))
            w1 = tuple(f1.letter(shift + i) for i in range(P.depth))
            w2 = tuple(f2.letter(shift + i) for i in range(P.depth))
            gap = abs(P.table[w1] - P.table[w2])
            dist = sh_distance(g1, g2)
            if dist > 0:
                assert gap <= cert.K * dist ** cert.beta + 1e-12
            else:
                assert gap == 0.0
            checked += 1


class TestComparisonBounds:
    def test_formula_instance(self):
        cert = HolderCertificate(K=1.0, beta=1.0, L=1.0)
        d_hat, d_full = comparison_bounds(cert, 0.0)
        assert d_hat == pytest.approx(5.0)
        assert d_full == pytest.approx(10.0)  # 2 * d_hat(0) + 2 L r at r = 0

    def test_zero_certificate(self):
        cert = HolderCertificate(K=0.0, beta=1.0, L=0.0)
        assert comparison_bounds(cert, 1.0) == (0.0, 0.0)

    def test_monotone(self):
        cert = HolderCertificate(K=0.5, beta=0.7, L=1.2)
        vals = [comparison_bounds(cert, r) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(vals, vals[1:]))

    def test_corollary_on_words(self):
        # weighted lengths of r-close geodesic segments differ by at most D(r)
        P = rand_potential(18)
        cert = holder_certificate(P)
        rng = random.Random(19)
        for r in (1, 2):
            _, bound = comparison_bounds(cert, float(r))
            for _ in range(300):
                p1 = rand_word(rng, rng.randrange(0, 8))
                p2 = rand_word(rng, rng.randrange(0, 8))
                if AB.dist(p1, p2) > r:
                    continue
                q1 = rand_word(rng, rng.randrange(0, 8))
                q2 = rand_word(rng, rng.randrange(0, 8))
                if AB.dist(q1, q2) > r:
                    continue
                gap = abs(d_phi(P, p1, q1) - d_phi(P, p2, q2))
                assert gap <= bound + 1e-12


class TestGeodesicAverage:
    def test_constant_above(self):
        audit = geodesic_average_audit(Potential.constant(AB, 1.0), (), eps=0.5, max_len=20)
        assert audit.ok and audit.T == 0.0

    def test_zero_potential_violation(self):
        audit = geodesic_average_audit(Potential.constant(AB, 0.0), (), eps=0.5, max_len=20)
        assert not audit.ok
        assert audit.witness is not None

    def test_normalized_has_positive_average(self, random_stream, stream_m2):
        for S in (random_stream, stream_m2):
            P = S.potential
            mcm, _ = min_cycle_mean(P)
            assert mcm > 0
            audit = geodesic_average_audit(P, (), eps=mcm / 2, max_len=30)
            assert audit.ok and audit.T is not None

    def test_min_cycle_mean_uniform(self):
        mcm, wit = min_cycle_mean(Potential.constant(AB, 0.3))
        assert mcm == pytest.approx(0.3)

    def test_dp_against_enumeration(self):
        P = rand_potential(20)
        eps = 0.1
        audit = geodesic_average_audit(P, (), eps=eps, max_len=6)
        worst = 0.0
        for n in range(1, 7):
            for w in AB.reduced_words(n):
                worst = max(worst, n * eps - d_phi(P, (), w))
        if audit.ok:
            assert audit.T == pytest.approx(max(worst, 0.0), abs=1e-12)


def _karp_loop(P):
    """Reference: Karp's minimum cycle mean edge by edge over successor lists,
    the first predecessor (in state order) kept at each strict minimum."""
    states = list(P.ab.reduced_words(P.depth))
    index = {w: i for i, w in enumerate(states)}
    succ = [[index[w[1:] + (t,)] for t in P.ab.letters if t != inverse_letter(w[-1])]
            for w in states]
    wts = [P.table[w] for w in states]
    n = len(states)
    D = np.full((n + 1, n), math.inf)
    parent = np.full((n + 1, n), -1, dtype=int)
    D[0, :] = 0.0
    for k in range(1, n + 1):
        for u in range(n):
            for v in succ[u]:
                cand = D[k - 1, u] + wts[v]
                if cand < D[k, v]:
                    D[k, v] = cand
                    parent[k, v] = u
    best, best_v = math.inf, -1
    for v in range(n):
        worst = max((D[n, v] - D[k, v]) / (n - k) for k in range(n))
        if worst < best:
            best, best_v = worst, v
    path = [best_v]
    for k in range(n, 0, -1):
        path.append(int(parent[k, path[-1]]))
    path.reverse()
    seen = {}
    for pos, v in enumerate(path):
        if v in seen:
            return float(best), tuple(states[u][0] for u in path[seen[v]:pos])
        seen[v] = pos


class TestMinCycleMean:
    @pytest.mark.parametrize("rank,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_equals_edge_loop(self, rank, m):
        ab = Alphabet(rank)
        words = list(ab.reduced_words(m))
        for seed in range(6):
            vals = np.random.default_rng(50 * rank + 7 * m + seed).uniform(-0.5, 1.0, len(words))
            if seed % 2:
                vals = np.round(vals, 1)  # tied cycle means and tied predecessors
            P = Potential(ab, m, {w: float(v) for w, v in zip(words, vals)})
            assert min_cycle_mean(P) == _karp_loop(P)


class TestHolderCalculus:
    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        tab = StemTable(AB, 3)
        F = CylinderFunction(AB, 3, rng.uniform(0.5, 2.0, tab.size))
        G = CylinderFunction(AB, 3, rng.uniform(0.5, 2.0, tab.size))
        return F, G

    def test_sum_product_reciprocal(self):
        F, G = self._pair(21)
        for r in (math.exp(-1), math.exp(-2)):
            for a in (0.5, 1.0):
                dF = F.holder_at(r, a)
                dG = G.holder_at(r, a)
                d_sum = (F + G).holder_at(r, a)
                assert (d_sum <= dF + dG + 1e-10).all()
                d_prod = (F * G).holder_at(r, a)
                supF = _ball_sup(F, r)
                supG = _ball_sup(G, r)
                assert (d_prod <= supF * dG + supG * dF + 1e-10).all()
                recip = CylinderFunction(AB, G.depth, 1.0 / G.values)
                d_rec = recip.holder_at(r, a)
                infG = _ball_inf(G, r)
                assert (d_rec <= dG / (np.abs(G.values) * infG) + 1e-10).all()

    def test_composition_with_translation(self):
        # H = action of g is Lipschitz for the visual quasimetric
        F, _ = self._pair(22)
        g = (0, 2)
        FH = translate_function(F, AB.inv(g))  # (F o g)(xi) = F(g xi)
        r = math.exp(-3)
        a = 1.0
        d_FH = FH.holder_at(r, a)
        lip = math.exp(len(g))  # sup pi(g x, g y) / pi(x, y) <= e^{|g|}
        d_F = F.holder_at(min(1.0, r * lip), a)
        # pointwise: D_r (F o H)(x) <= D_{r lip} F(H x) * lip^a
        deep = FH.depth
        tabd = StemTable(AB, deep)
        from oracles import translate_boundary

        for idx in range(0, tabd.size, 37):
            stem = tabd.stem_of(idx)
            hx = translate_boundary(AB, g, ray_word(AB, stem))
            target = d_F[F.table.index_of(hx.prefix(F.depth))] * lip ** a
            assert d_FH[idx] <= target + 1e-10

    def test_scale_monotonicity(self):
        F, _ = self._pair(23)
        small = F.holder_at(math.exp(-2), 1.0)
        large = F.holder_at(math.exp(-1), 1.0)
        assert (small <= large + 1e-12).all()
        lower_order = F.holder_at(math.exp(-1), 0.5)
        assert (lower_order <= large + 1e-12).all()


def _sibling_holder_reference(F, r, a):
    """holder_at as sibling exclusion: level j scores each stem only against
    the stems that agree with it to exactly j letters (top-2 sorts)."""
    from gibbswalk.cylfun import scale_depth

    def excluded(arr, pick, fill):
        order = np.sort(arr, axis=1)
        own = order[:, [pick[0]]]
        other = order[:, [pick[1]]] if arr.shape[1] > 1 else np.full_like(own, fill)
        return np.where(arr == own, other, own)

    b = F.ab.n_letters - 1
    v = F.values
    out = np.zeros_like(v)
    for j in range(scale_depth(r), F.depth):
        groups = v.reshape(1, F.ab.n_letters, -1) if j == 0 else v.reshape(-1, b, b ** (F.depth - j - 1))
        hi = excluded(groups.max(axis=2), (-1, -2), -np.inf)
        lo = excluded(groups.min(axis=2), (0, 1), np.inf)
        span = groups.shape[2]
        hi, lo = np.repeat(hi.ravel(), span), np.repeat(lo.ravel(), span)
        np.maximum(out, np.maximum(hi - v, v - lo) * math.exp(a * j), out=out)
    return out


class TestBallReductions:
    @pytest.mark.parametrize("rank, depths", [(2, (1, 2, 3, 4, 5)), (3, (1, 2, 3))])
    def test_holder_equals_sibling_exclusion(self, rank, depths):
        ab = Alphabet(rank)
        rng = np.random.default_rng(60 + rank)
        for d in depths:
            size = StemTable(ab, d).size
            for trial in range(4):
                vals = rng.uniform(0.5, 2.0, size)
                if trial % 2:
                    vals = np.round(vals * 2) / 2  # tied values within and across balls
                F = CylinderFunction(ab, d, vals)
                for j0 in range(d + 1):
                    r = 1.0 if j0 == 0 else math.exp(-j0)
                    for a in (0.0, 0.5, math.log(3), 1.0, 2.0):
                        got = F.holder_at(r, a)
                        assert got.tobytes() == _sibling_holder_reference(F, r, a).tobytes(), \
                            (d, trial, j0, a)

    def test_ratio_within_is_ball_max_over_min(self):
        rng = np.random.default_rng(64)
        for ab, d in ((AB, 3), (Alphabet(3), 2)):
            tab = StemTable(ab, d)
            F = CylinderFunction(ab, d, np.round(rng.uniform(0.5, 2.0, tab.size), 1))
            assert F.ratio_within(1.0) == F.sup / F.inf
            for j in range(1, d):
                balls = (tab.prefix_range(w) for w in ab.reduced_words(j))
                expect = max(F.values[lo:hi].max() / F.values[lo:hi].min() for lo, hi in balls)
                assert F.ratio_within(math.exp(-j)) == expect
            assert F.ratio_within(math.exp(-d)) == 1.0

    def test_negative_exponent_refused(self):
        F = CylinderFunction(AB, 2, np.arange(1.0, 13.0))
        with pytest.raises(ValueError):
            F.holder_at(1.0, -0.5)


def _ball_sup(F, r):
    from gibbswalk.cylfun import scale_depth

    j = scale_depth(r)
    blocks = F.values.reshape(-1, (F.ab.n_letters - 1) ** (F.depth - j)) if j else F.values.reshape(1, -1)
    reps = blocks.max(axis=1)
    return np.repeat(reps, F.values.size // reps.size)


def _ball_inf(F, r):
    from gibbswalk.cylfun import scale_depth

    j = scale_depth(r)
    blocks = F.values.reshape(-1, (F.ab.n_letters - 1) ** (F.depth - j)) if j else F.values.reshape(1, -1)
    reps = blocks.min(axis=1)
    return np.repeat(reps, F.values.size // reps.size)


def _translate_reference(f, g):
    """(g_* f) stem by stem: f read at the reduced product g^{-1} x."""
    ab = f.ab
    ginv = ab.inv(tuple(g))
    tab = StemTable(ab, len(g) + f.depth)
    vals = np.empty(tab.size)
    for i, stem in enumerate(tab.stems()):
        vals[i] = f.values[f.table.index_of(ab.mul(ginv, stem)[: f.depth])]
    return vals


class TestTranslateFunction:
    @pytest.mark.parametrize("rank, depths, max_len", [(2, (1, 2, 3), 4), (3, (1, 2), 3)])
    def test_equals_per_stem_loop(self, rank, depths, max_len):
        ab = Alphabet(rank)
        rng = np.random.default_rng(rank)
        for d in depths:
            f = CylinderFunction(ab, d, rng.uniform(0.5, 2.0, StemTable(ab, d).size))
            for n in range(max_len + 1):
                for g in ab.reduced_words(n):
                    out = translate_function(f, g)
                    assert out.depth == n + d
                    assert np.array_equal(out.values, _translate_reference(f, g)), (d, g)

    def test_no_per_stem_decoding(self, monkeypatch):
        # the translate is one gather over the stem-letter array
        def refuse(self, idx):
            raise AssertionError("stem_of called")

        monkeypatch.setattr(StemTable, "stem_of", refuse)
        f = CylinderFunction(AB, 2, np.arange(1.0, 13.0))
        out = translate_function(f, (0, 2, 1, 3, 3))
        assert out.values.size == StemTable(AB, 7).size

    def test_branching_tables_shared_and_read_only(self):
        t1, t4 = StemTable(AB, 1), StemTable(AB, 4)
        assert t1.branch_index is t4.branch_index
        assert t1.child_letters is t4.child_letters
        with pytest.raises(ValueError):
            t4.branch_index[0, 0] = 1
        with pytest.raises(ValueError):
            t4.child_letters[0, 0] = 1

    def test_indices_match_index_of(self):
        tab = StemTable(Alphabet(3), 3)
        assert np.array_equal(tab.indices(tab.letters), np.arange(tab.size))
        with pytest.raises(ValueError):
            tab.indices(np.array([[0, 1, 2]]))


@pytest.mark.parametrize("rank", [2, 3])
class TestStemLayout:
    """Block views and suffix indices against prefix_range slices and index_of."""

    def test_blocks_are_prefix_ranges(self, rank):
        ab = Alphabet(rank)
        rng = np.random.default_rng(70 + rank)
        for d in range(1, 7):
            tab = StemTable(ab, d)
            vals = rng.uniform(0.0, 1.0, tab.size)
            assert tab.blocks(vals, 0).tolist() == [vals.tolist()]
            for j in range(1, d + 1):
                rows = tab.blocks(vals, j)
                sums = rows.sum(axis=1)
                assert len(rows) == len(sums) == StemTable(ab, j).size
                for i, w in enumerate(StemTable(ab, j).stems()):
                    lo, hi = tab.prefix_range(w)
                    assert hi - lo == tab.span(j)
                    assert rows[i].tobytes() == vals[lo:hi].tobytes()
                    assert sums[i] == vals[lo:hi].sum()

    def test_suffix_index_is_index_of_the_sliced_stem(self, rank):
        ab = Alphabet(rank)
        for d in range(1, 7):
            tab = StemTable(ab, d)
            stems = tab.letters.tolist()
            for length in range(1, d + 1):
                got = tab.suffix_index(np.arange(tab.size), tab.letters[:, d - length], length)
                short = StemTable(ab, length)
                assert got.tolist() == [short.index_of(s[d - length:]) for s in stems]
        with pytest.raises(ValueError):
            tab.suffix_index(0, 0, d + 1)
