"""Hyperboloid model arithmetic and the comparison-estimate samplers."""

import math

import numpy as np
import pytest

from gibbswalk import hyperbolic
from gibbswalk.hyperbolic import (
    InvalidPointError,
    NodeBudgetError,
    comparison_audit,
    busemann_h2,
    check_point,
    geodesic_from,
    geodesic_toward,
    gromov_ideal,
    h2_distance,
    h2_point,
    holder_chain_audit,
    minkowski_dot,
    separation_profile,
    sh_distance_numeric,
    tangent_basis,
    _integral_dist_beta,
)


class TestModelArithmetic:
    def test_point_norms(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = h2_point(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
            check_point(p)

    def test_invalid_point(self):
        with pytest.raises(InvalidPointError):
            check_point(np.array([1.0, 0.5, 0.0]))

    def test_distance_axioms(self):
        p = h2_point(0.4, 0.2)
        q = h2_point(1.1, 2.0)
        # arccosh near 1 turns roundoff into sqrt-eps noise
        assert h2_distance(p, p) <= 1e-7
        assert h2_distance(p, q) == pytest.approx(h2_distance(q, p))
        assert h2_distance(p, q) > 0

    def test_arclength(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = geodesic_from(h2_point(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)),
                              rng.uniform(0, 2 * math.pi))
            s, t = rng.uniform(-4, 4, 2)
            x = g.point(np.array(s))
            y = g.point(np.array(t))
            assert h2_distance(x, y) == pytest.approx(abs(s - t), abs=1e-10)

    def test_law_of_cosines(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = h2_point(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            th = rng.uniform(0.05, math.pi - 0.05)
            base = rng.uniform(0, 2 * math.pi)
            a, b = rng.uniform(0.1, 3.0, 2)
            g1, g2 = geodesic_from(p, base), geodesic_from(p, base + th)
            c = h2_distance(g1.point(np.array(a)), g2.point(np.array(b)))
            rhs = math.acosh(math.cosh(a) * math.cosh(b)
                             - math.sinh(a) * math.sinh(b) * math.cos(th))
            assert c == pytest.approx(rhs, abs=1e-9)

    def test_tangent_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = h2_point(rng.uniform(0, 2.5), rng.uniform(0, 2 * math.pi))
            e1, e2 = tangent_basis(p)
            assert minkowski_dot(e1, e1) == pytest.approx(1.0, abs=1e-12)
            assert minkowski_dot(e2, e2) == pytest.approx(1.0, abs=1e-12)
            assert minkowski_dot(e1, e2) == pytest.approx(0.0, abs=1e-12)
            assert minkowski_dot(p, e1) == pytest.approx(0.0, abs=1e-12)

    def test_gromov_ideal_angle(self):
        p = h2_point(0.9, 0.4)
        th = 1.234
        g1 = geodesic_from(p, 0.3)
        g2 = geodesic_from(p, 0.3 + th)
        val = gromov_ideal(g1.ideal_forward(), g2.ideal_forward(), p)
        assert val == pytest.approx(-math.log(math.sin(th / 2)), abs=1e-12)

    def test_busemann_along_ray(self):
        p = h2_point(0.3, 1.0)
        g = geodesic_from(p, 2.2)
        n = g.ideal_forward()
        for s in (0.5, 2.0, 4.5):
            q = g.flow(s).p
            assert busemann_h2(n, p, q) == pytest.approx(-s, abs=1e-9)

    def test_horocyclic_contraction(self):
        # exact: sinh(d(t)/2) = e^{-t} sinh(d(0)/2) along asymptotic rays
        p = h2_point(0.2, 0.0)
        g1 = geodesic_from(p, 0.7)
        zeta = g1.ideal_forward()
        e1, e2 = tangent_basis(p)
        q = math.cosh(1.3) * p + math.sinh(1.3) * (math.cos(2.4) * e1 + math.sin(2.4) * e2)
        q = q / math.sqrt(-minkowski_dot(q, q))
        g2 = geodesic_toward(q, zeta).flow(busemann_h2(zeta, p, q))
        d0 = h2_distance(g1.p, g2.p)
        for t in (0.5, 1.5, 3.0):
            dt = h2_distance(g1.point(np.array(t)), g2.point(np.array(t)))
            assert math.sinh(dt / 2) == pytest.approx(math.exp(-t) * math.sinh(d0 / 2),
                                                      abs=1e-9)


class TestDistNumeric:
    def test_time_shift(self):
        g = geodesic_from(h2_point(0.7, 1.1), 0.4)
        for s in (0.3, 1.7, -2.2):
            assert sh_distance_numeric(g, g.flow(s)) == pytest.approx(abs(s), abs=1e-9)

    def test_flip_is_two(self):
        g = geodesic_from(h2_point(1.2, 0.3), 2.0)
        assert sh_distance_numeric(g, g.flip()) == pytest.approx(2.0, abs=1e-9)

    def test_same_geodesic_zero(self):
        g = geodesic_from(h2_point(0.1, 0.0), 1.0)
        assert sh_distance_numeric(g, g) == 0.0

    def test_window_precondition(self):
        g = geodesic_from(h2_point(0.1, 0.0), 1.0)
        with pytest.raises(ValueError):
            sh_distance_numeric(g, g.flip(), window=10)

    def test_profile_matches_pointwise(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = h2_point(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            g1 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
            g2 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
            sep = separation_profile(g1, g2)
            for t in rng.uniform(-5, 5, 4):
                direct = h2_distance(g1.point(np.array(t)), g2.point(np.array(t)))
                assert float(sep(t)) == pytest.approx(direct, abs=1e-9)


class TestAudits:
    def test_comparison_audit_small(self):
        rep = comparison_audit(1500, seed=99)
        for name, entry in rep.items():
            assert entry["pass"], (name, entry)
            assert entry["samples"] == 1500
            assert "witness" in entry

    def test_equality_cases_tight(self):
        rep = comparison_audit(800, seed=5)
        # the distance form and confluence identities are equalities here
        assert abs(rep["distance_form"]["max_violation"]) < 1e-9
        assert abs(rep["confluence_form"]["max_violation"]) < 1e-9

    def test_holder_chain_small(self):
        rep = holder_chain_audit(150, seed=11)
        for name, entry in rep.items():
            assert entry["pass"], (name, entry)

    def test_different_seeds_both_pass(self):
        for seed in (1, 2):
            rep = comparison_audit(400, seed=seed)
            assert all(v["pass"] for v in rep.values())


class TestNodeBudget:
    def test_chunked_integral_equals_one_pass(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 2 * hyperbolic.H2_CHUNK + 3
        args = (rng.uniform(0.01, 3.1, n), np.zeros(n), rng.uniform(0.3, 6.0, n),
                rng.uniform(0.3, 1.0, n))
        chunked = _integral_dist_beta(*args)
        monkeypatch.setattr(hyperbolic, "H2_CHUNK", n)
        assert chunked.tolist() == _integral_dist_beta(*args).tolist()

    def test_oversized_node_array_refused(self, monkeypatch):
        # 2 samples x 48 outer x 96 inner nodes per chunk, n x 96 nodes in one pass
        monkeypatch.setattr(hyperbolic, "H2_CHUNK", 2)
        monkeypatch.setattr(hyperbolic, "H2_NODE_BYTES", 2 * 48 * 96 * 8)
        assert all(v["pass"] for v in comparison_audit(96, 1).values())
        with pytest.raises(NodeBudgetError):
            comparison_audit(97, 1)
