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


# Per-sample reference loops: the audits' draws and geometry one sample at a
# time, with scalar libm arithmetic.  The batch audits must match them sample
# by sample up to last-ulp differences between libm and numpy.


def _ref_partner_at(p, e1, e2, zeta, dd, rho, sign=1.0):
    phi0 = math.atan2(float(minkowski_dot(e2, zeta)), float(minkowski_dot(e1, zeta)))
    phi = phi0 + sign * math.acos((math.cosh(dd) - math.exp(rho)) / math.sinh(dd))
    q = math.cosh(dd) * p + math.sinh(dd) * (math.cos(phi) * e1 + math.sin(phi) * e2)
    return q / math.sqrt(-minkowski_dot(q, q))


def _ref_dist_flow(coeffs, s, n_nodes=96, window=45.0):
    A, B, C = (float(c) for c in coeffs)
    total = 0.0
    for lo, hi in ((s - window, s), (s, s + window)):
        nodes, weights = hyperbolic._gl_panel(lo, hi, n_nodes)
        sep = np.arccosh(np.maximum(A * np.exp(2.0 * nodes) + B + C * np.exp(-2.0 * nodes), 1.0))
        total += 0.5 * float((sep * np.exp(-np.abs(nodes - s)) * weights).sum())
    return total + (2.0 * (abs(s) + window) + 60.0) * math.exp(-window)


def _ref_flow_common(theta, s, two_sided):
    """Per time, 96-node panels on [0, s] and [s, s + 45] plus the tail bound
    past s + 45: dist(g^s g1, g^s g2) of a common-point pair when two_sided,
    else int_0^inf d(t) e^{-|t-s|} dt."""
    ec = math.sin(theta / 2.0)
    cp = -math.log(ec)
    W = s + 45.0
    total = 0.0
    for lo, hi in ((0.0, s), (s, W)):
        nodes, weights = hyperbolic._gl_panel(lo, hi, 96)
        ker = np.exp(-np.abs(nodes - s)) + (np.exp(-(nodes + s)) if two_sided else 0.0)
        total += float((2.0 * np.arcsinh(ec * np.sinh(nodes)) * ker * weights).sum())
    tail = (2.0 * (W - cp) + 2.0 + 2.0 * math.exp(-W) * math.sinh(min(cp, 30.0))) \
        * (math.exp(-(W - s)) + (math.exp(-(W + s)) if two_sided else 0.0))
    return (0.5 * total if two_sided else total) + tail


def _ref_integral_dist_beta(theta, T0, T1, beta):
    nodes, weights = hyperbolic._gl_panel(T0, T1, 48)
    return sum(_ref_flow_common(theta, float(s), True) ** beta * float(w)
               for s, w in zip(nodes, weights))


def _ref_common_point(n, seed):
    """Per sample, (reference integral, violation against the audit's own
    right-hand side) of the four common-point flow integrals."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.05, math.pi - 0.05, n)
    rng.uniform(size=8 * n)  # the distance-form and horodistance arrays
    rng.choice([-1.0, 1.0], n)
    rng.uniform(size=5 * n)  # the horodistance frames; confluence s and t
    cp = -np.log(np.sin(theta / 2.0))
    s4 = rng.uniform(0.0, 7.0, n)
    lhs4 = np.array([_ref_flow_common(th, s, False) for th, s in zip(theta, s4)])
    rhs4 = 4.0 * np.maximum(s4 - cp, 0.0) + np.exp(-np.abs(cp - s4)) * (np.abs(cp - s4) + 3.0) \
        - (s4 + 1.0) * np.exp(-cp - s4)
    s5 = rng.uniform(0.0, 7.0, n)
    lhs5 = np.array([_ref_flow_common(th, s, True) for th, s in zip(theta, s5)])
    rhs5 = 2.0 * np.maximum(s5 - cp, 0.0) + (np.abs(cp - s5) + 3.0) / (2.0 * np.exp(np.abs(cp - s5))) \
        - (s5 + 1.0) / (2.0 * np.exp(s5 + cp)) + (cp + 2.0) / (2.0 * np.exp(s5 + cp))
    T6 = rng.uniform(0.3, 6.0, n)
    beta6 = rng.uniform(0.3, 1.0, n)
    lhs6 = np.array([_ref_integral_dist_beta(*args) for args in zip(theta, np.zeros(n), T6, beta6)])
    rhs6 = 5.0 / beta6 + np.maximum(T6 - cp, 0.0) ** (1.0 + beta6)
    alpha7 = rng.uniform(0.05, 1.0, n)
    beta7 = rng.uniform(0.3, 1.0, n)
    T7 = alpha7 * cp
    lhs7 = np.array([_ref_integral_dist_beta(*args) for args in zip(theta, np.zeros(n), T7, beta7)])
    first = np.minimum(1.0 / beta7, T7) * ((1.0 + beta7 * cp / 2.0) * np.exp(-beta7 * cp)
                                           + 2.0 * np.exp(-beta7 * (1 - alpha7) * cp)) \
        - (cp / 2.0) * np.exp(-beta7 * cp) \
        + ((1 - alpha7) * cp / 2.0) * np.exp(-beta7 * (1 - alpha7) * cp)
    second = np.exp(-beta7 * (1 - alpha7) * cp) * (3.0 / beta7 + (1 - alpha7) * cp)
    return {"exp_integral": (lhs4, lhs4 - rhs4), "flow_distance": (lhs5, lhs5 - rhs5),
            "integral_estimate": (lhs6, lhs6 - rhs6),
            "partial_integral": (lhs7, np.maximum(lhs7 - first, lhs7 - second))}


def _ref_phi_integral(geo, lo, hi, n_nodes):
    nodes, weights = hyperbolic._gl_panel(lo, hi, n_nodes)
    return float((hyperbolic._phi_sample(geo.point(nodes)) * weights).sum())


def _ref_horodistance(n, seed):
    rng = np.random.default_rng(seed)
    rng.uniform(size=5 * n)  # theta and the four distance-form arrays
    d0 = rng.uniform(0.5, 4.0, n)
    rho_raw = rng.uniform(-1.5, 1.5, n)
    s2 = rng.uniform(0.0, 5.0, n)
    t2 = rng.uniform(0.0, 5.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    viols = np.empty(n)
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        g1 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
        zeta = g1.ideal_forward()
        e1, e2 = tangent_basis(p)
        rho_i = max(-0.9 * d0[i], min(0.9 * d0[i], rho_raw[i]))
        g2 = geodesic_toward(_ref_partner_at(p, e1, e2, zeta, d0[i], rho_i, signs[i]), zeta)
        dd = float(h2_distance(g1.p, g2.p))
        rr = float(busemann_h2(zeta, g1.p, g2.p))
        A, B, C = (float(c) for c in
                   hyperbolic._profile_coeffs(g1.flow(s2[i] - t2[i]), g2, forward_asymptotic=True))
        cosh_lhs = A * math.exp(2 * t2[i]) + B + C * math.exp(-2 * t2[i])
        inner = (math.cosh(dd) - math.cosh(rr)) * math.exp(-(t2[i] + s2[i])) \
            + math.cosh(rr + s2[i] - t2[i])
        viol = (cosh_lhs - inner) / max(math.sinh(math.acosh(max(inner, 1.0))), 0.2)
        g2h = geodesic_toward(_ref_partner_at(p, e1, e2, zeta, d0[i], 0.0, signs[i]), zeta)
        Ch = float(hyperbolic._profile_coeffs(g1, g2h, forward_asymptotic=True)[2])
        sh_half = math.sqrt(max(Ch, 0.0) / 2.0)
        dh = 2.0 * math.asinh(sh_half)
        tt = t2[i]
        case = dh - (2.0 / dh) * (math.exp(-dh) + dh - 1.0) * tt if tt <= dh / 2.0 \
            else 2.0 * math.sinh(dh / 2.0) * math.exp(-tt)
        viols[i] = max(viol, 2.0 * math.asinh(sh_half * math.exp(-tt)) - case)
    return viols


def _ref_holder_chain(n, seed):
    rng = np.random.default_rng(seed)
    K, beta = hyperbolic.PHI_K, hyperbolic.PHI_BETA
    out = {name: np.empty(n) for name in
           ("phi_certificate", "length_gap", "horosphere_flow", "busemann_gap")}
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        th = rng.uniform(0.05, math.pi - 0.05)
        base = rng.uniform(0, 2 * math.pi)
        g1, g2 = geodesic_from(p, base), geodesic_from(p, base + th)
        sh = rng.uniform(0.0, 3.0)
        gap = abs(float(hyperbolic._phi_sample(g1.flow(sh).p))
                  - float(hyperbolic._phi_sample(g2.flow(sh).p)))
        dist = _ref_dist_flow(hyperbolic._profile_coeffs(g1, g2), sh)
        out["phi_certificate"][i] = gap - K * dist ** beta
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        th = rng.uniform(0.3, math.pi - 0.05)
        base = rng.uniform(0, 2 * math.pi)
        g1, g2 = geodesic_from(p, base), geodesic_from(p, base + th)
        cp = -math.log(math.sin(th / 2.0))
        al = rng.uniform(0.05, 1.0)
        lhs = abs(_ref_phi_integral(g1, 0.0, al * cp, 64) - _ref_phi_integral(g2, 0.0, al * cp, 64))
        rhs = K * ((1.0 / beta + cp / 2.0) * math.exp(-beta * cp)
                   + (2.0 / beta + (1 - al) * cp / 2.0) * math.exp(-beta * (1 - al) * cp))
        out["length_gap"][i] = lhs - rhs
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        g1 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
        zeta = g1.ideal_forward()
        e1, e2 = tangent_basis(p)
        g2 = geodesic_toward(_ref_partner_at(p, e1, e2, zeta, rng.uniform(0.2, 3.0), 0.0), zeta)
        dd = float(h2_distance(g1.p, g2.p))
        ss = rng.uniform(0.0, 5.0)
        lhs2 = _ref_dist_flow(hyperbolic._profile_coeffs(g1, g2, forward_asymptotic=True), ss)
        rhs2 = 1.0 + dd - 2.0 * ss + ss / dd if ss <= dd / 2.0 \
            else math.exp(dd / 2.0 - ss) * (1.5 + ss / 2.0 - dd / 4.0)
        out["horosphere_flow"][i] = lhs2 - rhs2
        # the whole 160-node panel on [s, s + 55], not only its first node
        W = ss + 55.0
        lhs3 = abs(_ref_phi_integral(g1, ss, W, 160) - _ref_phi_integral(g2, ss, W, 160))
        rhs3 = K * (((dd / 2.0 - ss) * (beta / 2.0 + beta * dd / 2.0 + 1.0) + 2.0 / beta)
                    if ss <= dd / 2.0
                    else math.exp(beta * (dd / 2.0 - ss)) * (2.0 / beta + ss / 2.0 - dd / 4.0))
        out["busemann_gap"][i] = lhs3 + 2.0 * math.sinh(dd / 2.0) * math.exp(-W) - rhs3
    return out


def _per_sample(monkeypatch, audit, n, seed):
    """The audit's report and, per entry, the violation of every sample."""
    report = hyperbolic._report
    diffs = []

    def recording(d, params):
        diffs.append(np.asarray(d))
        return report(d, params)

    monkeypatch.setattr(hyperbolic, "_report", recording)
    rep = audit(n, seed)
    return rep, dict(zip(rep, diffs))


class TestBatchAudits:
    # n spans two H2_CHUNK chunks and part of a third
    N = 150

    @pytest.mark.parametrize("seed", [3, 20260810])
    def test_horodistance_matches_loop(self, monkeypatch, seed):
        rep, viols = _per_sample(monkeypatch, comparison_audit, self.N, seed)
        ref = _ref_horodistance(self.N, seed)
        assert rep["horodistance"]["samples"] == len(ref) == self.N
        assert np.abs(viols["horodistance"] - ref).max() <= 1e-9

    @pytest.mark.parametrize("seed", [11, 20260811])
    def test_holder_chain_matches_loops(self, monkeypatch, seed):
        rep, viols = _per_sample(monkeypatch, holder_chain_audit, self.N, seed)
        for name, ref in _ref_holder_chain(self.N, seed).items():
            assert rep[name]["samples"] == len(ref) == self.N
            assert np.abs(viols[name] - ref).max() <= 1e-9, name

    @pytest.mark.parametrize("seed", [7, 20260812])
    def test_common_point_integrals_match_loop(self, monkeypatch, seed):
        # one set of panels per sample against two fresh panels per time
        rep, viols = _per_sample(monkeypatch, comparison_audit, self.N, seed)
        for name, (lhs, ref) in _ref_common_point(self.N, seed).items():
            assert rep[name]["samples"] == len(ref) == self.N
            assert np.all(np.abs(viols[name] - ref) <= 1e-11 * np.abs(lhs)), name

    def test_integral_from_a_positive_start_matches_loop(self):
        rng = np.random.default_rng(8)
        theta, T0, beta = rng.uniform([0.05, 0.0, 0.3], [math.pi - 0.05, 3.0, 1.0], (self.N, 3)).T
        T1 = T0 + rng.uniform(0.1, 4.0, self.N)
        ref = [_ref_integral_dist_beta(*args) for args in zip(theta, T0, T1, beta)]
        assert np.allclose(_integral_dist_beta(theta, T0, T1, beta), ref, rtol=1e-11, atol=0.0)


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
        # 2 samples x 48 outer times x 24 gap nodes per chunk fit the budget;
        # a 3-sample chunk of _integral_dist_beta does not
        unchunked = holder_chain_audit(100, 3)
        monkeypatch.setattr(hyperbolic, "H2_CHUNK", 2)
        monkeypatch.setattr(hyperbolic, "H2_NODE_BYTES", 2 * 48 * 24 * 8)
        assert all(v["pass"] for v in comparison_audit(96, 1).values())
        assert holder_chain_audit(100, 3) == unchunked
        monkeypatch.setattr(hyperbolic, "H2_CHUNK", 3)
        with pytest.raises(NodeBudgetError):
            comparison_audit(97, 1)

    def test_every_node_panel_is_chunked(self, monkeypatch):
        # 97 samples x 24 nodes in one pass exceed this budget; chunks do not
        unpatched = comparison_audit(97, 1)
        monkeypatch.setattr(hyperbolic, "H2_CHUNK", 2)
        monkeypatch.setattr(hyperbolic, "H2_NODE_BYTES", 2 * 48 * 24 * 8)
        assert comparison_audit(97, 1) == unpatched
