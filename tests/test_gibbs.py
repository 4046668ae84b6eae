"""Critical exponents, exact cylinder masses, RN cocycle, shadow audits."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from gibbswalk import cylfun, gibbs, potentials, stems
from gibbswalk.cylfun import CylinderFunction, translate_rows
from gibbswalk.gibbs import (
    GibbsStream,
    UnsupportedRankError,
    critical_exponent,
    rn_holder_audit,
    rn_holder_sweep,
    shadow_integral_audit,
    shadow_lemma_audit,
    shell_slope,
    shell_sums_log,
    transfer_matrix,
)
from gibbswalk.potentials import Potential, d_phi, flip_potential, sym_potential, window_graph
from gibbswalk.stems import DenseArrayError, StemTable, check_dense, word_rows
from gibbswalk.words import Alphabet, inverse_letter, ray_word
from oracles import (
    Cylinder,
    RandomReducedWord,
    cylinder_mass,
    measure_from,
    normalize,
    poincare_series,
    rn_derivative,
    total_mass_from,
    translate_cylinder,
)

AB = Alphabet(2)


def rand_word(rng, n):
    w = []
    for _ in range(n):
        choices = [s for s in AB.letters if not w or s != inverse_letter(w[-1])]
        w.append(rng.choice(choices))
    return tuple(w)


class TestCriticalExponent:
    def test_zero_potential(self):
        assert critical_exponent(Potential.zero(AB)) == pytest.approx(math.log(3), abs=1e-12)

    def test_shell_count_oracle(self):
        # direct enumeration of shell sums for the zero potential
        logs = shell_sums_log(Potential.zero(AB), 8)
        for n in range(1, 9):
            assert logs[n - 1] == pytest.approx(math.log(4 * 3 ** (n - 1)), abs=1e-10)

    def test_constant_shift(self):
        lam0 = critical_exponent(Potential.zero(AB))
        assert critical_exponent(Potential.constant(AB, 0.7)) == pytest.approx(lam0 - 0.7, abs=1e-12)

    def test_slope_crosscheck(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            P = Potential(AB, 1, {(s,): float(v) for s, v in zip(AB.letters, rng.uniform(-0.6, 1.0, 4))})
            assert abs(shell_slope(P, 20, 40) - critical_exponent(P)) < 1e-6

    def test_rank_one_unsupported(self):
        with pytest.raises(UnsupportedRankError):
            critical_exponent(Potential.zero(Alphabet(1)))

    def test_flip_equality_and_sym_defect(self, random_potential):
        P = random_potential
        lam = critical_exponent(P)
        assert abs(critical_exponent(flip_potential(P)) - lam) <= 1e-10
        assert critical_exponent(sym_potential(P)) - lam <= 1e-10

    def test_patterson_knob(self):
        P = Potential.zero(AB)
        lam = critical_exponent(P)
        base = poincare_series(P, lam + 0.05, 30)
        corrected = poincare_series(P, lam + 0.05, 30, patterson_a=1.0)
        assert corrected > base  # the polynomial factor only enlarges terms


def _strongly_connected(succ):
    """Reference: depth-first reachability from state 0, forwards and backwards."""
    n = len(succ)
    rev = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        for v in vs:
            rev[v].append(u)

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reach(succ) and reach(rev)


def _transfer_loop(P):
    """Reference: the transfer matrix from reduced_words, edge by edge."""
    states = list(P.ab.reduced_words(P.depth))
    index = {w: i for i, w in enumerate(states)}
    ew = np.exp(-np.array([P.table[w] for w in states]))
    M = np.zeros((len(states), len(states)))
    for u, w in enumerate(states):
        for t in P.ab.letters:
            if t != inverse_letter(w[-1]):
                v = index[w[1:] + (t,)]
                M[u, v] = ew[v]
    return M


def _random_table(ab, m, seed):
    words = list(ab.reduced_words(m))
    vals = np.random.default_rng(seed).uniform(-0.5, 1.0, len(words))
    return Potential(ab, m, {w: float(v) for w, v in zip(words, vals)})


class TestWindowChain:
    """One window chain per potential, states in stem order by construction."""

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_states_in_stem_order(self, rank, m):
        ab = Alphabet(rank)
        states, succ, _, _ = window_graph(Potential.zero(ab, m))
        assert states == list(StemTable(ab, m).stems())
        assert succ.shape == (len(states), ab.n_letters - 1)
        for u, w in enumerate(states):
            assert [states[v] for v in succ[u]] == [
                w[1:] + (t,) for t in ab.letters if t != inverse_letter(w[-1])]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_check_agrees_with_reachability(self, m):
        for rank in (1, 2, 3):
            succ = window_graph(Potential.zero(Alphabet(rank), m)).succ.tolist()
            assert _strongly_connected(succ) == (rank >= 2)
        with pytest.raises(UnsupportedRankError):
            transfer_matrix(Potential.zero(Alphabet(1), m))

    @pytest.mark.parametrize("rank,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_transfer_matrix_equals_edge_loop(self, rank, m):
        for seed in range(4):
            P = _random_table(Alphabet(rank), m, 97 * seed + 10 * rank + m)
            assert np.array_equal(transfer_matrix(P), _transfer_loop(P))

    def test_built_once_and_read_by_the_stream(self, stream_m2):
        P = stream_m2.potential
        assert window_graph(P) is window_graph(P)
        assert np.array_equal(stream_m2.transfer, transfer_matrix(P))


class TestNormalize:
    def test_uniform(self):
        Pn = normalize(Potential.zero(AB))
        assert all(v == pytest.approx(math.log(3), abs=1e-12) for v in Pn.table.values())

    def test_idempotent(self, random_potential):
        Pn = normalize(random_potential)
        assert abs(critical_exponent(Pn)) <= 1e-10
        Pnn = normalize(Pn)
        assert all(abs(Pn.table[w] - Pnn.table[w]) <= 1e-10 for w in Pn.table)

    def test_masses_invariant(self, random_potential):
        S1 = GibbsStream(random_potential)
        S2 = GibbsStream(random_potential.shifted(0.37))
        for n in range(1, 6):
            assert np.abs(S1.mass_array(n) - S2.mass_array(n)).max() <= 1e-12


class TestCylinderMasses:
    def test_uniform_closed_form(self, uniform_stream):
        for n in range(1, 9):
            arr = uniform_stream.mass_array(n)
            expect = 1.0 / (4 * 3 ** (n - 1))
            assert np.abs(arr - expect).max() <= 1e-12

    def test_additivity(self, random_stream, stream_m2):
        for S in (random_stream, stream_m2):
            for n in range(1, 7):
                arr = S.mass_array(n)
                kids = S.mass_array(n + 1).reshape(len(arr), -1).sum(axis=1)
                assert np.abs(arr - kids).max() <= 1e-12

    def test_stem_mass_is_the_array_entry(self, uniform_stream, random_stream, stream_m2):
        # the window product reproduces the layered array bit for bit; stream_m2
        # also covers stems shorter than its windows
        for S in (uniform_stream, random_stream, stream_m2):
            for n in range(1, 8):
                arr = S.mass_array(n)
                for i, stem in enumerate(StemTable(AB, n).stems()):
                    assert S.cylinder_mass_of_stem(stem) == arr[i], (n, stem)
            with pytest.raises(ValueError):
                S.cylinder_mass_of_stem((0, 2, 3))

    def test_stem_masses_equal_scalar_walk_and_array(self, uniform_stream, random_stream,
                                                      stream_m2):
        # rows shorter than, equal to and longer than the windows (m = 1 and 2)
        m2_extend = GibbsStream(Potential(AB, 2, stream_m2.potential.table, "extend"))
        rank3 = _deep_stream(3, 2, "average")
        for S in (uniform_stream, random_stream, stream_m2, m2_extend, rank3):
            for n in range(1, 9):
                tab = StemTable(S.ab, n)
                rows = tab.letters[np.random.default_rng(n).permutation(tab.size)[:400]]
                got = S.stem_masses(rows)
                assert got.tolist() == S.mass_array(n)[tab.indices(rows)].tolist(), n
                assert got.tolist() == [S.cylinder_mass_of_stem(tuple(r)) for r in rows.tolist()]
            with pytest.raises(ValueError):
                S.stem_masses(np.array([[0, 2, 3]]))

    def test_total_mass_one(self, uniform_stream, random_stream, stream_m2):
        for S in (uniform_stream, random_stream, stream_m2):
            assert S.mass_array(1).sum() == pytest.approx(1.0, abs=1e-12)

    def test_poincare_oracle(self, random_stream, stream_m2):
        # shell-conditional truncated construction vs the Markov closed form
        for S, tol in ((random_stream, 2e-5), (stream_m2, 2e-4)):
            deep = 12
            wts = np.exp(-S.dphi_array(deep))
            tab = StemTable(AB, deep)
            total = wts.sum()
            rng = random.Random(4)
            for _ in range(20):
                w = rand_word(rng, rng.randrange(1, 6))
                lo, hi = tab.prefix_range(w)
                oracle = wts[lo:hi].sum() / total
                assert abs(oracle - cylinder_mass(S, (), Cylinder(w))) <= tol

    def test_only_the_deepest_layers_are_held(self):
        # after mass_array(10) a stream holds the depth-10 masses and the
        # depth-10 state and weight-sum arrays, 24 bytes a stem; every
        # shallower depth's pair, kept too, would add 8 more (half the stems)
        S = GibbsStream(Potential.zero(AB))
        size = StemTable(AB, 10).size
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            S.mass_array(10)
            held = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert held < 3 * 8 * size + 2**16, held

    def test_state_array_in_the_smallest_integer_type(self):
        # rank 3 at depth 9 has 2,343,750 stems over 6 window states; as
        # int64 their state array took 18.75 MB of what the stream holds
        S = GibbsStream(Potential.zero(Alphabet(3)))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            shadow_lemma_audit(S, 9)
            held = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        depth, st, ws = S._deepest
        assert (depth, st.size, st.dtype) == (9, 2_343_750, np.uint8)
        states = held - sum(a.nbytes for a in S._mass.values()) - ws.nbytes
        assert states <= 18_750_000 // 2, states

    def test_shallower_layers_rebuilt_bit_for_bit(self, stream_m2):
        # the arrays do not depend on the order in which depths are asked for
        P = Potential(AB, 2, {w: v + 0.01 for w, v in stream_m2.potential.table.items()})
        rising, mixed = GibbsStream(P), GibbsStream(P)
        want = {n: (rising.mass_array(n).tobytes(), rising.dphi_array(n).tobytes())
                for n in range(2, 10)}
        mixed.mass_array(9)
        for n in (9, 3, 7, 2, 8, 5, 4, 6):
            assert (mixed.mass_array(n).tobytes(), mixed.dphi_array(n).tobytes()) == want[n], n
        assert mixed._deepest[0] == 9

    def test_mass_from_other_point(self, uniform_stream):
        # mu_a of the full boundary: 3 * 1/4 + (1/3) * 3/4 = 1
        assert total_mass_from(uniform_stream, (0,)) == pytest.approx(1.0, abs=1e-12)


class TestRadonNikodym:
    def test_uniform_values(self, uniform_stream):
        S = uniform_stream
        assert rn_derivative(S, (), (0,), ray_word(AB, (0,))) == pytest.approx(3.0, abs=1e-12)
        assert rn_derivative(S, (), (0,), ray_word(AB, (2,))) == pytest.approx(1.0 / 3, abs=1e-12)

    def test_integral_consistency(self, uniform_stream):
        assert 3 * 0.25 + (1 / 3) * 0.75 == pytest.approx(1.0)
        assert total_mass_from(uniform_stream, (0,)) == pytest.approx(1.0, abs=1e-10)

    def test_chain_rule(self, random_stream):
        rng = random.Random(5)
        for _ in range(300):
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            p, q, r = (rand_word(rng, rng.randrange(4)) for _ in range(3))
            lhs = rn_derivative(random_stream, p, q, xi) * rn_derivative(random_stream, q, r, xi)
            assert lhs == pytest.approx(rn_derivative(random_stream, p, r, xi), rel=1e-12)

    def test_equivariance(self, random_stream):
        rng = random.Random(6)
        for _ in range(60):
            g = rand_word(rng, rng.randrange(1, 4))
            w = rand_word(rng, rng.randrange(1, 4))
            c = Cylinder(w)
            lhs = measure_from(random_stream, g, [translate_cylinder(AB, g, c)])
            rhs = cylinder_mass(random_stream, (), c)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


# rho_phi_array reads one value per (confluence, window state) from
# rho_profiles, whose window sums run in another order than the per-stem
# loop's: for m = 1 the floats are equal, for m > 1 they agree to this
# absolute bound (the sums have at most 2 (|q| + depth) windows of size below
# 1; the largest difference measured on these cases is 5.3e-15)
RHO_ATOL = 1e-13


def _assert_rho(S, got, ref, where):
    if S.depth_m == 1:
        assert got.tobytes() == ref.tobytes(), where
    else:
        assert np.abs(got - ref).max() <= RHO_ATOL, where


def _rho_loop(S, q, depth):
    """rho_phi_array by the per-stem d_phi loop."""
    tab = StemTable(S.ab, depth)
    out = np.empty(tab.size)
    for i, stem in enumerate(tab.stems()):
        out[i] = d_phi(S.potential, q, stem) - d_phi(S.potential, (), stem)
    return out


def _deep_potential(rank, m, rule):
    ab = Alphabet(rank)
    words = list(ab.reduced_words(m))
    vals = np.random.default_rng(31 * rank + m).uniform(-0.4, 0.9, len(words))
    return Potential(ab, m, {w: float(v) for w, v in zip(words, vals)}, rule)


def _deep_stream(rank, m, rule):
    return GibbsStream(_deep_potential(rank, m, rule))


@pytest.fixture(scope="module")
def deep_streams(stream_m2):
    return {"m2": stream_m2,
            "m3-average": _deep_stream(2, 3, "average"),
            "m3-extend": _deep_stream(2, 3, "extend"),
            "rank3-m2": _deep_stream(3, 2, "average"),
            "rank3-m3": _deep_stream(3, 3, "extend")}


class TestDenseSizeCheck:
    def test_default_budget(self):
        check_dense(StemTable(AB, 13).size, "rank 2 at depth 13")  # 17 MB
        with pytest.raises(DenseArrayError, match="rank 3 at depth 12 would take 2343750000 bytes"):
            check_dense(StemTable(Alphabet(3), 12).size, "rank 3 at depth 12")

    def test_layers_refused_before_allocation(self, monkeypatch):
        S = GibbsStream(Potential.zero(Alphabet(3)))
        monkeypatch.setattr(stems, "DENSE_BYTES", 8 * StemTable(S.ab, 4).size)
        assert S.mass_array(4).size == 750
        for read in (S.mass_array, S.dphi_array, lambda n: shadow_lemma_audit(S, n)):
            with pytest.raises(DenseArrayError, match="depth-5 stem arrays would take 30000 bytes"):
                read(5)
        assert S._deepest[0] == 4

    def test_dense_rows_refused_before_allocation(self, monkeypatch):
        # 8,748 stems at depth 8: the rows of 4 words fit the patched budget;
        # those of 12 words (840 kB) are refused before a row exists, by
        # rho_phi_rows and translate_rows with a profile (L > 0) and dense
        # (L = 0: q = (), and n < depth(f)).  Under the default budget the
        # same 12 words against a depth-6 and a depth-8 f are accepted: every
        # stem is then in the block, whose gathers are built BUDGET cells at
        # a time (built at once they peaked at 21 and 26 times the rows)
        S = GibbsStream(Potential.zero(AB))
        tab = StemTable(AB, 8)
        words, long = word_rows(AB.reduced_words(2)), word_rows(AB.reduced_words(6))[:12]
        f = CylinderFunction.constant(AB, 1.0)
        for d in (6, 8):
            deep = f.refine(d)
            tracemalloc.start()
            try:
                rows = translate_rows(deep, words)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rows.shape == (12, StemTable(AB, d + 2).size)
            assert peak < 3.5 * rows.nbytes, (d, peak)
        monkeypatch.setattr(stems, "DENSE_BYTES", 8 * 4 * tab.size)
        assert S.rho_phi_rows(words[:4], 8).shape == (4, tab.size)
        assert translate_rows(f.refine(6), words[:4]).shape == (4, tab.size)
        for read in (lambda: S.rho_phi_rows(words, 8),
                     lambda: S.rho_phi_rows(np.zeros((12, 0), dtype=np.int64), 8),
                     lambda: translate_rows(f.refine(2), long),
                     lambda: translate_rows(f.refine(6), words)):
            tracemalloc.start()
            try:
                with pytest.raises(DenseArrayError,
                                   match="depth-8 rows of 12 words would take 839808 bytes"):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * tab.size, peak

    def test_letters_refused_before_allocation(self, monkeypatch):
        # the rank-2 depth-12 letters (8.5 MB) are too large to share, so
        # each table builds its own, after the size check
        tab = StemTable(AB, 12)
        assert tab.size * tab.depth == 8_503_056
        monkeypatch.setattr(stems, "DENSE_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(DenseArrayError,
                               match="depth-12 stem letters of rank 2 would take 8503056 bytes"):
                tab.letters
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tab.size, peak
        assert StemTable(AB, 10).letters.shape == (78_732, 10)  # shared tables are not refused


class TestOneExpansion:
    """rho_phi_rows and translate_rows each write their rows by one
    stems._expand call, from profile form."""

    @staticmethod
    def _counted(monkeypatch, mod):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3].shape[1])  # the profile's classes, L
            return stems._expand(*args, **kwargs)

        monkeypatch.setattr(mod, "_expand", counted)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rho_rows(self, m, monkeypatch):
        S = _deep_stream(2, m, "average")
        calls = self._counted(monkeypatch, gibbs)
        for n in range(4):
            words = word_rows(AB.reduced_words(n))
            calls.clear()
            assert S.rho_phi_rows(words, n + m).shape == (len(words), StemTable(AB, n + m).size)
            assert calls == [n], (m, n)

    def test_translate_rows(self, monkeypatch):
        f = CylinderFunction.from_table(AB, 2, {(0, 0): 1.25}, 1.0)
        calls = self._counted(monkeypatch, cylfun)
        for n in range(5):
            words = word_rows(AB.reduced_words(n))
            calls.clear()
            assert translate_rows(f, words).shape == (len(words), StemTable(AB, n + 2).size)
            assert calls == [max(0, n - 1)], n


class TestRadonNikodymArrays:
    """The depth > 1 arrays agree with the per-stem d_phi loop to RHO_ATOL."""

    @pytest.mark.parametrize("name,max_q", [("m2", 3), ("m3-average", 3), ("m3-extend", 3),
                                            ("rank3-m2", 2), ("rank3-m3", 1)])
    def test_rho_equals_per_stem_loop(self, deep_streams, name, max_q):
        S = deep_streams[name]
        for n in range(max_q + 1):
            for q in S.ab.reduced_words(n):
                for depth in (n + S.depth_m, n + S.depth_m + 1):
                    _assert_rho(S, S.rho_phi_array(q, depth), _rho_loop(S, q, depth), (q, depth))

    def test_rho_rank3_long_words(self, deep_streams):
        cases = {"rank3-m2": [(q, d) for q in ((0, 2, 4), (5, 5, 1), (3, 0, 3)) for d in (5, 6)],
                 "rank3-m3": [((0, 2, 4, 4), 7), ((5, 1, 3), 6), ((3, 0), 5), ((1,), 5)]}
        for name, pairs in cases.items():
            S = deep_streams[name]
            for q, depth in pairs:
                _assert_rho(S, S.rho_phi_array(q, depth), _rho_loop(S, q, depth), q)

    @pytest.mark.parametrize("name", ["m2", "m3-average", "m3-extend", "rank3-m2", "rank3-m3"])
    def test_shallow_dphi_equals_per_stem_loop(self, deep_streams, name):
        S = deep_streams[name]
        for depth in range(1, S.depth_m):
            ref = np.array([d_phi(S.potential, (), s) for s in StemTable(S.ab, depth).stems()])
            assert S.dphi_array(depth).tobytes() == ref.tobytes()

    def test_no_per_stem_d_phi(self, stream_m2, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-stem d_phi call")

        ref = _rho_loop(stream_m2, (0, 2, 1), 6)
        for mod in (gibbs, potentials):
            monkeypatch.setattr(mod, "d_phi", refuse)
        _assert_rho(stream_m2, stream_m2.rho_phi_array((0, 2, 1), 6), ref, (0, 2, 1))
        assert stream_m2.dphi_array(1).shape == (4,)

    @pytest.mark.parametrize("name", ["m2", "m3-average", "m3-extend", "rank3-m2", "rank3-m3"])
    def test_shell_sums_short_words_equal_per_word_loop(self, deep_streams, name, monkeypatch):
        # the short words (n < m) are read from one window_sums gather in stem
        # order, which is reduced_words order, so the Python sum adds the same terms
        S = deep_streams[name]
        potentials_ = (S.potential, _deep_potential(S.ab.rank, S.depth_m, "extend"))
        m = S.depth_m
        for n in range(1, m):
            assert list(S.ab.reduced_words(n)) == list(StemTable(S.ab, n).stems())
        refs = [[math.log(sum(math.exp(-d_phi(P, (), g)) for g in P.ab.reduced_words(n)))
                 for n in range(1, m)] for P in potentials_]

        def refuse(*args):
            raise AssertionError("per-word d_phi call")

        for mod in (gibbs, potentials):
            monkeypatch.setattr(mod, "d_phi", refuse)
        for P, ref in zip(potentials_, refs):
            assert shell_sums_log(P, m + 1)[: m - 1].tolist() == ref

    def test_memory_stays_per_stem(self, stream_m2):
        # 78,732 stems at depth 10: ten arrays of one float per stem take
        # 6.3 MB, an int64 array of stems x word length (13 letters) 8.2 MB
        size = StemTable(AB, 10).size
        tracemalloc.start()
        try:
            stream_m2.rho_phi_array((0, 2, 1), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * size * 8, peak

    def test_deep_letter_table_is_freed(self, stream_m2):
        # the depth-13 letter table (2,125,764 stems x 13 int8 letters, 26 MB)
        # goes with the call's StemTable; before, a process-wide cache kept it
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            stream_m2.rho_phi_array((0, 2, 1), 13)
            held = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert held < 2**20, held


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("rule", ["average", "extend"])
class TestSuffixRule:
    """The layered arrays score the last m-1 windows by the potential's own rule."""

    def test_deep_dphi_equals_per_stem_d_phi(self, m, rule):
        S = _deep_stream(2, m, rule)
        for depth in range(m, m + 3):
            ref = np.array([d_phi(S.potential, (), s) for s in StemTable(S.ab, depth).stems()])
            assert np.abs(S.dphi_array(depth) - ref).max() <= 1e-12, depth

    def test_shell_sums_equal_enumeration(self, m, rule):
        P = _deep_potential(2, m, rule)
        ref = [math.log(sum(math.exp(-d_phi(P, (), g)) for g in P.ab.reduced_words(n)))
               for n in range(1, 7)]
        assert np.abs(shell_sums_log(P, 6) - ref).max() <= 1e-12


class TestShadowAudits:
    def test_uniform_ratio_constant(self, uniform_stream):
        rep = shadow_lemma_audit(uniform_stream, 8)
        assert rep.lo == pytest.approx(0.75, abs=1e-12)
        assert rep.hi == pytest.approx(0.75, abs=1e-12)

    def test_ratio_interval_stabilizes(self, random_stream):
        rep = shadow_lemma_audit(random_stream, 10)
        m = random_stream.depth_m
        head = max(max(hi for n, lo, hi in rep.rows if n <= m + 2),
                   1.0 / min(lo for n, lo, hi in rep.rows if n <= m + 2))
        for n, lo, hi in rep.rows:
            if n > m + 2:
                assert hi <= head * (1 + 1e-9) and lo >= (1 / head) * (1 - 1e-9)

    def test_uniform_integral_exact(self, uniform_stream):
        rep = shadow_integral_audit(uniform_stream, 12)
        for s, integral, scaled in rep.rows:
            assert integral == pytest.approx(3.0 ** (-s), rel=1e-12)
            assert scaled == pytest.approx(1.0, abs=1e-10)

    def test_depth_one_integral_enumeration(self, random_stream):
        rep = shadow_integral_audit(random_stream, 3)
        P = random_stream.potential
        s1 = sum(math.exp(-P.table[(t,)]) for t in AB.letters) / 4.0
        assert rep.rows[0][1] == pytest.approx(s1, rel=1e-12)

    def test_integral_bounded_oscillation(self, random_stream, stream_m2):
        for S in (random_stream, stream_m2):
            rep = shadow_integral_audit(S, 20)
            assert rep.hi / rep.lo < 10.0


class TestRnHolder:
    def test_constant_zero(self, uniform_stream):
        assert rn_holder_audit(uniform_stream, (0, 2, 1), eps=0.5) == 0.0

    def test_depth_one_zero(self, random_stream):
        assert rn_holder_audit(random_stream, (2, 0, 3), eps=0.5) == 0.0

    def test_depth_two_finite_and_bounded(self, stream_m2):
        rows = rn_holder_sweep(stream_m2, 6, eps=0.5, seed=1)
        vals = [v for _, v in rows]
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) < 100.0
