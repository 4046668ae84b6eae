"""Word arithmetic, boundary points, and the metric primitives of the tree."""

import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gibbswalk.stems import StemTable
from gibbswalk.words import (
    Alphabet,
    BoundaryError,
    Cylinder,
    EventuallyPeriodicWord,
    GeodesicSpec,
    RandomReducedWord,
    WordError,
    busemann,
    cylinder_at_origin,
    geodesic_point_distance,
    gromov_product,
    inverse_letter,
    quasimetric_pi,
    ray_word,
    sh_distance,
    shadow_cylinder,
    translate_boundary,
    translate_cylinder,
)

AB = Alphabet(2)


def rand_word(rng, n):
    w = []
    for _ in range(n):
        choices = [s for s in AB.letters if not w or s != inverse_letter(w[-1])]
        w.append(rng.choice(choices))
    return tuple(w)


class TestReduce:
    def test_free_cancellation(self):
        assert AB.parse_word("a b b' a") == (0, 0)

    def test_identity(self):
        assert AB.reduce([]) == ()

    def test_full_cancellation(self):
        assert AB.parse_word("a a'") == ()

    def test_unknown_symbol(self):
        with pytest.raises(WordError):
            AB.reduce([9])
        with pytest.raises(WordError):
            AB.parse_word("z")

    @given(st.lists(st.integers(0, 3), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_reduced_is_fixed_point(self, letters):
        w = AB.reduce(letters)
        assert AB.reduce(w) == w
        assert all(b != inverse_letter(a) for a, b in zip(w, w[1:]))

    @given(st.lists(st.integers(0, 3), max_size=20), st.lists(st.integers(0, 3), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_mul_is_reduce_of_concat(self, u, v):
        assert AB.mul(AB.reduce(u), AB.reduce(v)) == AB.reduce(list(u) + list(v))

    def test_serialization_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            w = rand_word(rng, rng.randrange(8))
            assert AB.parse_word(AB.format_word(w)) == w

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_format_word_names_each_letter(self, rank):
        ab = Alphabet(rank)
        names = [chr(ord("a") + s // 2) + ("'" if s & 1 else "") for s in ab.letters]
        assert [ab.letter_name(s) for s in ab.letters] == names
        rng = random.Random(rank)
        for _ in range(50):
            w = tuple(rng.randrange(ab.n_letters) for _ in range(rng.randrange(8)))
            assert ab.format_word(w) == " ".join(names[s] for s in w)
        assert ab.format_word((True, 0)) == "a' a"  # check_letter takes a bool as an int

    @pytest.mark.parametrize("bad", [-1, 6, 2.0, "a", None, np.int64(1)])
    def test_format_word_refuses_a_bad_letter(self, bad):
        with pytest.raises(WordError, match=re.escape(f"unknown letter {bad!r} for rank 3")):
            Alphabet(3).format_word((0, bad, 1))


class TestGromov:
    def test_boundary_pair(self):
        x = ray_word(AB, (0, 2))
        y = ray_word(AB, (0, 3))
        assert gromov_product(AB, x, y) == 1.0

    def test_word_pair_formula(self):
        assert gromov_product(AB, (0, 2), (0, 3)) == (2 + 2 - 2) / 2

    def test_defining_formula_on_words(self):
        rng = random.Random(7)
        for _ in range(300):
            x, y, p = (rand_word(rng, rng.randrange(7)) for _ in range(3))
            direct = gromov_product(AB, x, y, p)
            formula = 0.5 * (AB.dist(x, p) + AB.dist(y, p) - AB.dist(x, y))
            assert direct == formula

    def test_mixed_example(self):
        # viewed from "a": branch structure differs from the origin view
        x = ray_word(AB, (2, 0))
        y = ray_word(AB, (0, 2))
        val = gromov_product(AB, x, y, (0,))
        zx, zy = x.prefix(12), y.prefix(12)
        formula = 0.5 * (AB.dist(zx, (0,)) + AB.dist(zy, (0,)) - AB.dist(zx, zy))
        assert val == formula

    def test_equal_boundary_raises(self):
        x = ray_word(AB, (0,))
        y = EventuallyPeriodicWord(AB, (), (0,))
        with pytest.raises(BoundaryError):
            gromov_product(AB, x, y)

    def test_left_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            g = rand_word(rng, rng.randrange(1, 6))
            p, q = rand_word(rng, rng.randrange(6)), rand_word(rng, rng.randrange(6))
            assert AB.dist(AB.mul(g, p), AB.mul(g, q)) == AB.dist(p, q)
            x = RandomReducedWord(AB, rng.randrange(10_000))
            y = RandomReducedWord(AB, rng.randrange(10_000) + 10_000)
            lhs = gromov_product(AB, translate_boundary(AB, g, x),
                                 translate_boundary(AB, g, y), AB.mul(g, p))
            assert lhs == gromov_product(AB, x, y, p)


class TestBusemann:
    def test_toward(self):
        xi = ray_word(AB, (0,))
        assert busemann(AB, xi, (), (0,)) == -1.0

    def test_away(self):
        xi = ray_word(AB, (0,))
        assert busemann(AB, xi, (), (2,)) == 1.0

    def test_branch(self):
        xi = ray_word(AB, (0,))
        assert busemann(AB, xi, (), (0, 2)) == 0.0

    def test_cocycle_exact(self):
        rng = random.Random(5)
        for _ in range(200):
            xi = RandomReducedWord(AB, rng.randrange(10_000))
            p, q, r = (rand_word(rng, rng.randrange(6)) for _ in range(3))
            assert busemann(AB, xi, p, q) + busemann(AB, xi, q, r) == busemann(AB, xi, p, r)

    def test_gromov_identity(self):
        # 2 (q . xi)_p = rho_xi(q, p) + d(p, q), exactly, 1000 instances
        rng = random.Random(9)
        for _ in range(1000):
            xi = RandomReducedWord(AB, rng.randrange(100_000))
            p, q = rand_word(rng, rng.randrange(6)), rand_word(rng, rng.randrange(6))
            lhs = 2 * gromov_product(AB, q, xi, p)
            assert lhs == busemann(AB, xi, q, p) + AB.dist(p, q)


def random_geodesic(rng, base=(), offset=0.0):
    f = RandomReducedWord(AB, rng.randrange(10**6))
    first = f.letter(0)
    while True:
        b = RandomReducedWord(AB, rng.randrange(10**6) + 10**6)
        if b.letter(0) != first:
            return GeodesicSpec(AB, base, f, b, offset)


class TestShDistance:
    def test_shift_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_geodesic(rng)
            s = rng.uniform(-3, 3)
            assert sh_distance(g, g.flow(s)) == pytest.approx(abs(s), abs=1e-14)

    def test_flip_value_is_two(self):
        # direct integration of the defining formula gives 2, not 1
        g = random_geodesic(random.Random(2))
        assert sh_distance(g, g.flip()) == pytest.approx(2.0, abs=1e-14)

    def test_confluence_closed_form(self):
        g1 = GeodesicSpec(AB, (), ray_word(AB, (0, 2)), ray_word(AB, (1,)))
        g2 = GeodesicSpec(AB, (), ray_word(AB, (0, 3)), ray_word(AB, (3,)))
        assert sh_distance(g1, g2) == pytest.approx(math.exp(-1) + 1.0, abs=1e-14)

    def test_quadrature_agreement(self):
        rng = random.Random(13)
        for _ in range(500):
            t0 = rng.uniform(-2, 2)
            g1 = random_geodesic(rng, offset=t0)
            g2 = random_geodesic(rng, offset=t0)
            closed = sh_distance(g1, g2)

            def integrand(t):
                return geodesic_point_distance(g1, g2, t) * math.exp(-abs(t))

            cp = gromov_product(AB, g1.forward, g2.forward)
            cm = gromov_product(AB, g1.backward, g2.backward)
            kinks = sorted(k for k in (0.0, -t0, cp - t0, -cm - t0) if -60 < k < 60)
            val, _ = quad(integrand, -60, 60, limit=400, points=kinks,
                          epsabs=1e-13, epsrel=1e-13)
            assert closed == pytest.approx(0.5 * val, abs=1e-10)

    def test_increasing_dist_exact(self):
        rng = random.Random(17)
        for _ in range(300):
            t0 = 0.0
            g1 = random_geodesic(rng)
            g2 = random_geodesic(rng)
            a = rng.uniform(0, 6)
            t = rng.uniform(0, 6)
            d_a = geodesic_point_distance(g1, g2, a)
            r1, x1 = g1.point(a)
            r2, x2 = g2.point(a + t)
            c = gromov_product(AB, r1, r2)
            d_shift = x1 + x2 - 2 * min(x1, x2, c)
            assert d_a <= d_shift + 1e-12

    def test_flip_composition(self):
        g = random_geodesic(random.Random(23))
        gg = g.flip().flip()
        assert sh_distance(g, gg) == 0.0


class TestShadowsAndCylinders:
    def test_shadow_is_cylinder(self):
        c = shadow_cylinder(AB, (), (0, 2), 0.5)
        assert c.stem == (0, 2) and c.base == ()

    def test_shadow_depth_one(self):
        assert shadow_cylinder(AB, (), (0,), 0.5).stem == (0,)

    def test_shadow_from_inside(self):
        # viewed from "a", the shadow of the origin splits into the 2k-1
        # depth-one cylinders not containing "a"
        c = shadow_cylinder(AB, (0,), (), 0.5)
        parts = cylinder_at_origin(AB, c)
        assert sorted(p.stem for p in parts) == [(1,), (2,), (3,)]

    def test_degenerate_shadow(self):
        with pytest.raises(BoundaryError):
            shadow_cylinder(AB, (0,), (0,), 0.5)

    def test_partition_count(self):
        for n in range(1, 5):
            stems = [w for w in AB.reduced_words(n)]
            assert len(stems) == StemTable(AB, n).size

    def test_translate_cylinder_brute_force(self):
        # sample depth exceeds every piece length (|g| + |w|), so stems stand
        # in faithfully for boundary points
        rng = random.Random(31)
        depth = 8
        boundary = list(AB.reduced_words(depth))
        for _ in range(25):
            g = rand_word(rng, rng.randrange(1, 4))
            w = rand_word(rng, rng.randrange(1, 4))
            parts = cylinder_at_origin(AB, Cylinder(w, base=g))
            assert all(len(p.stem) <= len(g) + len(w) for p in parts)
            covered = set()
            for part in parts:
                for stem in boundary:
                    if stem[: len(part.stem)] == part.stem:
                        assert stem not in covered, "pieces overlap"
                        covered.add(stem)
            expected = set()
            for stem in boundary:
                # membership in the based cylinder: the ray from g starts with w
                img = translate_boundary(AB, AB.inv(g), ray_word(AB, stem))
                if img.prefix(len(w)) == w:
                    expected.add(stem)
            assert covered == expected

    def test_translate_cylinder_base_move(self):
        c = Cylinder((0, 2), base=(3,))
        moved = translate_cylinder(AB, (2, 0), c)
        assert moved.stem == (0, 2)
        assert moved.base == AB.mul((2, 0), (3,))


class TestQuasimetric:
    def test_values(self):
        z = ray_word(AB, (0, 2))
        n = ray_word(AB, (0, 3))
        assert quasimetric_pi(AB, z, n) == pytest.approx(math.exp(-1))
        m = ray_word(AB, (2,))
        assert quasimetric_pi(AB, ray_word(AB, (0,)), m) == 1.0

    def test_ultrametric(self):
        rng = random.Random(37)
        for _ in range(300):
            a, b, c = (RandomReducedWord(AB, rng.randrange(10**6) + k * 10**6)
                       for k in range(3))
            pab = quasimetric_pi(AB, a, b)
            assert pab <= max(quasimetric_pi(AB, a, c), quasimetric_pi(AB, c, b)) + 1e-15

    def test_coincident_flagged(self):
        x = ray_word(AB, (0,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert quasimetric_pi(AB, x, x) == 0.0
        assert caught and issubclass(caught[0].category, RuntimeWarning)


class TestBoundaryWords:
    def test_prefixes_reduced(self):
        rng = random.Random(41)
        for seed in range(30):
            w = RandomReducedWord(AB, seed)
            p = w.prefix(24)
            assert AB.reduce(p) == p

    def test_eventually_periodic_not_reduced(self):
        with pytest.raises(BoundaryError):
            EventuallyPeriodicWord(AB, (0,), (1,))

    def test_translate_then_invert(self):
        rng = random.Random(43)
        for _ in range(100):
            g = rand_word(rng, rng.randrange(1, 5))
            xi = RandomReducedWord(AB, rng.randrange(10**6))
            back = translate_boundary(AB, AB.inv(g), translate_boundary(AB, g, xi))
            assert back.prefix(16) == xi.prefix(16)

    def test_default_extension_repeats_last(self):
        r = ray_word(AB, (0, 2))
        assert r.prefix(5) == (0, 2, 2, 2, 2)
        assert ray_word(AB, ()).prefix(3) == (0, 0, 0)

    @given(st.integers(0, 10**6), st.lists(st.integers(0, 3), max_size=6),
           st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_same_seed_distinct_stems_are_distinct_points(self, seed, u, v):
        s, t = AB.reduce(u), AB.reduce(v)
        assume(s != t)
        x, y = RandomReducedWord(AB, seed, s), RandomReducedWord(AB, seed, t)
        n = 0
        while x.letter(n) == y.letter(n):
            n += 1
        assert gromov_product(AB, x, y) == n
