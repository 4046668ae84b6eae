"""Numeric validation of the comparison-geometry estimates on the hyperbolic
plane (hyperboloid model).

The tree realizes the CAT(-1) inequalities only degenerately, so each
quantitative estimate is sampled here with exact model arithmetic plus certified
quadrature: common-point geodesic pairs have closed-form separation via the
law of cosines, asymptotic pairs via exact horocyclic contraction, and the
exponentially weighted integrals get analytic tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad


class InvalidPointError(ValueError):
    pass


class QuadratureError(RuntimeError):
    pass


class NodeBudgetError(QuadratureError):
    """A quadrature node array would exceed H2_NODE_BYTES."""


ORIGIN = np.array([1.0, 0.0, 0.0])


def minkowski_dot(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    return -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def check_point(x, tol: float = 1e-12) -> np.ndarray:
    """Validate <x,x> = -1 within tol, relative to the coordinate scale (the
    dot itself cancels to x0^2 * eps, so an absolute check is meaningless for
    far points)."""
    x = np.asarray(x, dtype=float)
    scale = np.maximum(1.0, x[..., 0] ** 2)
    if np.any(np.abs(minkowski_dot(x, x) + 1.0) > tol * scale) or np.any(x[..., 0] <= 0):
        raise InvalidPointError("not a hyperboloid point within tolerance")
    return x

def h2_point(rho: float, phi: float) -> np.ndarray:
    return np.array([math.cosh(rho), math.sinh(rho) * math.cos(phi),
                     math.sinh(rho) * math.sin(phi)])


def h2_distance(x, y) -> float:
    x = check_point(x)
    y = check_point(y)
    return float(np.arccosh(np.maximum(-minkowski_dot(x, y), 1.0)))


def _dist_raw(x, y) -> float:
    """Distance without the norm check, for internally flowed points whose
    coordinates carry benign O(cosh^2) roundoff drift."""
    return float(np.arccosh(np.maximum(-minkowski_dot(x, y), 1.0)))


@dataclass(frozen=True)
class H2Geodesic:
    """Unit-speed geodesic t -> p cosh t + v sinh t with <p,v> = 0, <v,v> = 1."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        check_point(self.p)
        scale = max(1.0, float(self.p[0]) ** 2)
        if abs(minkowski_dot(self.v, self.v) - 1.0) > 1e-10 * scale or \
           abs(minkowski_dot(self.p, self.v)) > 1e-10 * scale:
            raise InvalidPointError("tangent is not unit and orthogonal")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return np.cosh(t)[..., None] * self.p + np.sinh(t)[..., None] * self.v

    def flow(self, s: float) -> "H2Geodesic":
        p = self.point(np.array(s))
        v = math.sinh(s) * self.p + math.cosh(s) * self.v
        return H2Geodesic(*_normalize_frame(p, v))

    def flip(self) -> "H2Geodesic":
        return H2Geodesic(self.p, -self.v)

    def ideal_forward(self) -> np.ndarray:
        """Null vector of the forward endpoint, normalized <n, p> = -1."""
        return self.p + self.v


def tangent_basis(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (Minkowski) tangent pair at p, by Gram-Schmidt.

    e1 = (p1, p0, 0) is automatically tangent; (0, 0, 1) projected against p
    completes the frame (its e1 component vanishes identically).
    """
    e1 = np.array([p[1], p[0], 0.0])
    e1 = e1 / math.sqrt(minkowski_dot(e1, e1))
    u = np.array([0.0, 0.0, 1.0])
    e2 = u + float(minkowski_dot(u, p)) * p
    e2 = e2 / math.sqrt(minkowski_dot(e2, e2))
    return e1, e2


def geodesic_from(p: np.ndarray, angle: float) -> H2Geodesic:
    e1, e2 = tangent_basis(p)
    return H2Geodesic(p, math.cos(angle) * e1 + math.sin(angle) * e2)


def _normalize_frame(p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = p / math.sqrt(-minkowski_dot(p, p))
    v = v + float(minkowski_dot(v, p)) * p
    v = v / math.sqrt(minkowski_dot(v, v))
    return p, v


def geodesic_toward(p: np.ndarray, n: np.ndarray) -> H2Geodesic:
    """Geodesic from p with forward ideal point the null direction n."""
    c = -minkowski_dot(p, n)
    if c <= 0:
        raise InvalidPointError("null vector must be future-pointing relative to p")
    return H2Geodesic(*_normalize_frame(p, n / c - p))


def busemann_h2(n: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """rho_zeta(p, q) = log(<q,n> / <p,n>) for the ideal point of n."""
    return float(np.log(minkowski_dot(q, n) / minkowski_dot(p, n)))


def gromov_ideal(n1: np.ndarray, n2: np.ndarray, p: np.ndarray) -> float:
    """Gromov product at p of two ideal points given by null vectors."""
    a = minkowski_dot(n1, n2)
    b1 = -minkowski_dot(n1, p)
    b2 = -minkowski_dot(n2, p)
    return float(-0.5 * math.log(-a / (2.0 * b1 * b2)))


def separation_profile(g1: H2Geodesic, g2: H2Geodesic):
    """Stable closed form of t -> d(g1(t), g2(t)).

    cosh d(t) = A e^{2t} + B + C e^{-2t} with coefficients built from O(1)
    Minkowski products of the frame vectors, so no cancellation occurs at
    large |t| (the naive product of e^{t}-sized points loses every digit
    past |t| of about 17).
    """
    A = -0.25 * float(minkowski_dot(g1.p + g1.v, g2.p + g2.v))
    B = -0.5 * float(minkowski_dot(g1.p, g2.p) - minkowski_dot(g1.v, g2.v))
    C = -0.25 * float(minkowski_dot(g1.p - g1.v, g2.p - g2.v))
    # coefficients at roundoff level are exact zeros (asymptotic geodesics);
    # leaving the noise in would blow up under e^{2|t|}
    floor = 1e-13 * max(1.0, abs(A), abs(B), abs(C))
    A = 0.0 if abs(A) <= floor else A
    C = 0.0 if abs(C) <= floor else C
    if A == 0.0 and C == 0.0 and abs(B - 1.0) <= floor:
        B = 1.0  # identical geodesics

    def sep(t):
        t = np.asarray(t, dtype=float)
        ch = A * np.exp(2.0 * t) + B + C * np.exp(-2.0 * t)
        return np.arccosh(np.maximum(ch, 1.0))

    return sep


def sh_distance_numeric(g1: H2Geodesic, g2: H2Geodesic, window: float = 40.0,
                        tol: float = 1e-9) -> float:
    """(1/2) * integral d(g1(t), g2(t)) e^{-|t|} dt by adaptive quadrature.

    The tail beyond the window is controlled analytically by
    d(t) <= 2|t| + d(g1(0), g2(0)); window 40 keeps it below 1e-15.
    """
    if window < 40:
        raise ValueError("window must be >= 40 for the certified tail")
    d0 = h2_distance(g1.p, g2.p)
    tail = (2.0 * window + 2.0 + d0) * math.exp(-window)
    if tail > tol:
        raise QuadratureError("tail bound exceeds the requested tolerance")
    sep = separation_profile(g1, g2)

    def integrand(t):
        return float(sep(t)) * math.exp(-abs(t))

    left, el = quad(integrand, -window, 0.0, limit=300, epsabs=tol / 4, epsrel=1e-12)
    right, er = quad(integrand, 0.0, window, limit=300, epsabs=tol / 4, epsrel=1e-12)
    if el + er > tol:
        raise QuadratureError("quadrature error estimate exceeds tolerance")
    return 0.5 * (left + right)


# --------------------------------------------------------------------------
# Vectorized audit machinery.


# Largest quadrature node array the audits build, and the number of samples
# `_integral_dist_beta` integrates at a time (48 x 96 nodes per sample).
H2_NODE_BYTES = 1 << 26
H2_CHUNK = 64


@lru_cache(maxsize=None)
def _gl(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_panel(a, b, n):
    """Nodes/weights mapped to [a, b]; a, b may be arrays (per sample)."""
    x, w = _gl(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    size = np.broadcast(a, b).size * n * 8
    if size > H2_NODE_BYTES:
        raise NodeBudgetError(f"{size} bytes of quadrature nodes exceed {H2_NODE_BYTES}")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * x
    weights = half[..., None] * w
    return nodes, weights


def _sep_common(theta, t):
    """d(g1(t), g2(t)) for unit geodesics through one point at angle theta."""
    ec = np.sin(np.asarray(theta) / 2.0)  # = e^{-c_+}
    return 2.0 * np.arcsinh(ec * np.sinh(t))


def _sep_common_st(theta, s, t):
    ch = np.cosh(s) * np.cosh(t) - np.sinh(s) * np.sinh(t) * np.cos(theta)
    return np.arccosh(np.maximum(ch, 1.0))


def _dist_flow_common(theta, s, n_nodes: int = 96, window: float = 45.0):
    """dist(g^s gamma1, g^s gamma2) for common-point pairs, vectorized over
    (theta, s) arrays: (1/2) int d(t) (e^{-|t-s|} + e^{-(t+s)}) dt, t >= 0."""
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.zeros(np.broadcast(theta, s).shape)
    th, ss = np.broadcast_arrays(theta, s)
    # panels [0, s] and [s, s + window]
    for lo, hi in ((np.zeros_like(ss), ss), (ss, ss + window)):
        nodes, weights = _gl_panel(lo, hi, n_nodes)
        sep = _sep_common(th[..., None], nodes)
        ker = np.exp(-np.abs(nodes - ss[..., None])) + np.exp(-(nodes + ss[..., None]))
        out = out + 0.5 * (sep * ker * weights).sum(axis=-1)
    # tail beyond s + window: d(t) <= 2(t - c) + 2 e^{-t} sinh(c)
    cp = -np.log(np.sin(th / 2.0))
    W = ss + window
    tail = (2.0 * (W - cp) + 2.0 + 2.0 * np.exp(-W) * np.sinh(np.minimum(cp, 30.0))) \
        * (np.exp(-(W - ss)) + np.exp(-(W + ss)))
    return out, tail


def _profile_coeffs(g1: H2Geodesic, g2: H2Geodesic,
                    forward_asymptotic: bool = False) -> tuple[float, float, float]:
    A = -0.25 * float(minkowski_dot(g1.p + g1.v, g2.p + g2.v))
    B = -0.5 * float(minkowski_dot(g1.p, g2.p) - minkowski_dot(g1.v, g2.v))
    C = -0.25 * float(minkowski_dot(g1.p - g1.v, g2.p - g2.v))
    if forward_asymptotic:
        A = 0.0  # exact by construction; the computed value is pure roundoff
    floor = 1e-13 * max(1.0, abs(A), abs(B), abs(C))
    A = 0.0 if abs(A) <= floor else A
    C = 0.0 if abs(C) <= floor else C
    if A == 0.0 and abs(B - 1.0) <= floor:
        B = 1.0  # forward-asymptotic on a common horosphere
    return A, B, C


def _dist_flow_profile(A, B, C, s, n_nodes: int = 96, window: float = 45.0) -> float:
    """dist(g^s g1, g^s g2) from the stable separation coefficients."""
    s = float(s)

    def sep(t):
        return np.arccosh(np.maximum(A * np.exp(2.0 * t) + B + C * np.exp(-2.0 * t), 1.0))

    total = 0.0
    for lo, hi in ((s - window, s), (s, s + window)):
        nodes, weights = _gl_panel(lo, hi, n_nodes)
        total += 0.5 * float((sep(nodes) * np.exp(-np.abs(nodes - s)) * weights).sum())
    # both tails: separation grows at most like 2|t| + O(1)
    total += (2.0 * (abs(s) + window) + 60.0) * math.exp(-window)
    return total


def _phi_sample(pts):
    """+Holder test potential: 2 + sin of the distance to the origin."""
    return 2.0 + np.sin(np.arccosh(np.maximum(pts[..., 0], 1.0)))


PHI_K = 2.5     # certified Holder constant of the test potential w.r.t. dist
PHI_BETA = 0.5  # and its exponent; see the audit for the sampled check


def _report(diffs, params, n):
    i = int(np.argmax(diffs))
    return {
        "samples": int(n),
        "max_violation": float(diffs[i]),
        "witness": {k: float(v[i]) for k, v in params.items()},
    }


def comparison_audit(n_samples: int, seed: int, tol: float = 1e-7) -> dict:
    """Sample every comparison estimate; each max(LHS - RHS) must be <= tol.

    The first distance-form display is tested in its consistent form
    cosh d = cosh(t-s) + 2 e^{-2 c+} sinh s sinh t (an identity here), since
    the printed coefficient disagrees with the exact equal-time case.
    """
    rng = np.random.default_rng(seed)
    n = n_samples
    report = {}

    theta = rng.uniform(0.05, math.pi - 0.05, n)
    cp = -np.log(np.sin(theta / 2.0))

    # monotone distance form (equality of the underlying ratio here)
    S = rng.uniform(0.2, 5.0, n)
    T = rng.uniform(0.2, 5.0, n)
    s = S * rng.uniform(0.05, 1.0, n)
    t = T * rng.uniform(0.05, 1.0, n)
    ratio = lambda a, b: (np.cosh(_sep_common_st(theta, a, b)) - np.cosh(b - a)) / \
        (np.cosh(a) * np.cosh(b) - np.cosh(b - a))
    d1 = ratio(s, t) - ratio(S, T)
    # second display: equal-time separation against the sinh interpolation
    dT = _sep_common(theta, T)
    interp = 2.0 * np.arcsinh(np.sinh(dT / 2.0) * np.sinh(t) / np.sinh(T))
    d2 = np.where(t <= T, _sep_common(theta, t) - interp, -np.inf)
    d3 = np.where(t <= T, _sep_common(theta, t) - 2.0 * np.sinh(dT / 2.0) * np.exp(t - T), -np.inf)
    report["distance_form"] = _report(np.maximum(d1, np.maximum(d2, d3)),
                                         {"theta": theta, "s": s, "t": t, "S": S, "T": T}, n)

    # horodistance: asymptotic geodesics, general offset and same-horosphere.
    # Comparisons run in the cosh domain (first-order converted to distance
    # units) to dodge the arccosh amplification near coincident points.
    d0 = rng.uniform(0.5, 4.0, n)
    rho_raw = rng.uniform(-1.5, 1.5, n)
    s2 = rng.uniform(0.0, 5.0, n)
    t2 = rng.uniform(0.0, 5.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    viols = np.full(n, -np.inf)
    viols_eq = np.full(n, -np.inf)
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        g1 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
        zeta = g1.ideal_forward()
        e1, e2 = tangent_basis(p)
        rho_i = max(-0.9 * d0[i], min(0.9 * d0[i], rho_raw[i]))
        q2 = _partner_at(p, e1, e2, zeta, d0[i], rho_i, signs[i])
        g2 = geodesic_toward(q2, zeta)
        dd = _dist_raw(g1.p, g2.p)
        rr = busemann_h2(zeta, g1.p, g2.p)
        A12, B12, C12 = _profile_coeffs(g1.flow(s2[i] - t2[i]), g2, forward_asymptotic=True)
        cosh_lhs = A12 * math.exp(2 * t2[i]) + B12 + C12 * math.exp(-2 * t2[i])
        inner = (math.cosh(dd) - math.cosh(rr)) * math.exp(-(t2[i] + s2[i])) \
            + math.cosh(rr + s2[i] - t2[i])
        d_rhs = math.acosh(max(inner, 1.0))
        # mean-value conversion of the cosh-domain gap to distance units; the
        # sinh floor guards against roundoff amplification near coincidence
        viols[i] = (cosh_lhs - inner) / max(math.sinh(d_rhs), 0.2)
        # same horosphere, equal times: the profile gives sinh(d(t)/2) exactly
        qh = _partner_at(p, e1, e2, zeta, d0[i], 0.0, signs[i])
        g2h = geodesic_toward(qh, zeta)
        _, _, Ch = _profile_coeffs(g1, g2h, forward_asymptotic=True)
        sh_half = math.sqrt(max(Ch, 0.0) / 2.0)  # = sinh(d(0)/2)
        dh = 2.0 * math.asinh(sh_half)
        tt = t2[i]
        lhs_h = 2.0 * math.asinh(sh_half * math.exp(-tt))
        case = dh - (2.0 / dh) * (math.exp(-dh) + dh - 1.0) * tt if tt <= dh / 2.0 \
            else 2.0 * math.sinh(dh / 2.0) * math.exp(-tt)
        viols_eq[i] = lhs_h - case
    report["horodistance"] = _report(np.maximum(viols, viols_eq),
                                        {"d": d0, "rho": rho_raw, "s": s2, "t": t2}, n)

    # confluence form: exact identity plus the two case bounds
    s3 = rng.uniform(0.0, 5.0, n)
    t3 = rng.uniform(0.0, 5.0, n)
    ident = np.cosh(_sep_common_st(theta, s3, t3)) \
        - (np.cosh(t3 - s3) + 2.0 * np.exp(-2.0 * cp) * np.sinh(s3) * np.sinh(t3))
    eq_t = _sep_common(theta, t3)
    case_a = np.where(t3 <= cp, eq_t - 2.0 * np.exp(-cp) * np.sinh(t3), -np.inf)
    case_b = eq_t - (2.0 * np.maximum(t3 - cp, 0.0) + 2.0 * np.exp(-t3) * np.sinh(cp))
    d_a3 = np.maximum(np.abs(ident), np.maximum(case_a, case_b))
    report["confluence_form"] = _report(d_a3, {"theta": theta, "s": s3, "t": t3}, n)

    # exponentially weighted one-sided integral
    s4 = rng.uniform(0.0, 7.0, n)
    lhs4 = np.zeros(n)
    for lo, hi in ((np.zeros(n), s4), (s4, s4 + 45.0)):
        nodes, weights = _gl_panel(lo, hi, 96)
        sep = _sep_common(theta[:, None], nodes)
        lhs4 += (sep * np.exp(-np.abs(nodes - s4[:, None])) * weights).sum(axis=1)
    W4 = s4 + 45.0
    lhs4 += (2.0 * (W4 - cp) + 2.0 + 2.0 * np.exp(-W4) * np.sinh(np.minimum(cp, 30.0))) \
        * np.exp(-(W4 - s4))
    rhs4 = 4.0 * np.maximum(s4 - cp, 0.0) + np.exp(-np.abs(cp - s4)) * (np.abs(cp - s4) + 3.0) \
        - (s4 + 1.0) * np.exp(-cp - s4)
    report["exp_integral"] = _report(lhs4 - rhs4, {"theta": theta, "s": s4}, n)

    # flowed distance bound (backward confluence equals the forward one here)
    s5 = rng.uniform(0.0, 7.0, n)
    lhs5, tail5 = _dist_flow_common(theta, s5)
    rhs5 = 2.0 * np.maximum(s5 - cp, 0.0) + (np.abs(cp - s5) + 3.0) / (2.0 * np.exp(np.abs(cp - s5))) \
        - (s5 + 1.0) / (2.0 * np.exp(s5 + cp)) + (cp + 2.0) / (2.0 * np.exp(s5 + cp))
    report["flow_distance"] = _report(lhs5 + tail5 - rhs5, {"theta": theta, "s": s5}, n)

    # integrated Holder bound (final stated form)
    T6 = rng.uniform(0.3, 6.0, n)
    beta6 = rng.uniform(0.3, 1.0, n)
    lhs6 = _integral_dist_beta(theta, np.zeros(n), T6, beta6)
    rhs6 = 5.0 / beta6 + np.maximum(T6 - cp, 0.0) ** (1.0 + beta6)
    report["integral_estimate"] = _report(lhs6 - rhs6,
                                             {"theta": theta, "T": T6, "beta": beta6}, n)

    # partial-confluence integral, both displays (here c- = c+)
    alpha7 = rng.uniform(0.05, 1.0, n)
    beta7 = rng.uniform(0.3, 1.0, n)
    T7 = alpha7 * cp
    lhs7 = _integral_dist_beta(theta, np.zeros(n), T7, beta7)
    first = np.minimum(1.0 / beta7, T7) * ((1.0 + beta7 * cp / 2.0) * np.exp(-beta7 * cp)
                                           + 2.0 * np.exp(-beta7 * (1 - alpha7) * cp)) \
        - (cp / 2.0) * np.exp(-beta7 * cp) \
        + ((1 - alpha7) * cp / 2.0) * np.exp(-beta7 * (1 - alpha7) * cp)
    second = np.exp(-beta7 * (1 - alpha7) * cp) * (3.0 / beta7 + (1 - alpha7) * cp)
    report["partial_integral"] = _report(
        np.maximum(lhs7 - first, lhs7 - second),
        {"theta": theta, "alpha": alpha7, "beta": beta7}, n)

    # separation grows along one ray
    a8 = rng.uniform(0.0, 5.0, n)
    t8 = rng.uniform(0.0, 5.0, n)
    d_a8 = _sep_common(theta, a8) - _sep_common_st(theta, a8, a8 + t8)
    report["increasing_separation"] = _report(d_a8, {"theta": theta, "a": a8, "t": t8}, n)

    for name, entry in report.items():
        entry["pass"] = bool(entry["max_violation"] <= tol)
    return report


def _exp_point(p, dist, e1, e2, angle):
    v = math.cos(angle) * e1 + math.sin(angle) * e2
    q = math.cosh(dist) * p + math.sinh(dist) * v
    return q / math.sqrt(-minkowski_dot(q, q))


def _partner_at(p, e1, e2, zeta, dd, rho, sign=1.0):
    """Point at distance dd from p with Busemann offset rho toward zeta.

    Solving cosh(dd) - sinh(dd) cos(phi - phi0) = e^rho keeps every frame at
    moderate coordinates (sliding along the geodesic instead compounds
    roundoff that the asymptotic estimates then amplify by e^{2t}).
    Requires |rho| <= dd; zeta must carry the normalization <zeta, p> = -1.
    """
    u = float(minkowski_dot(e1, zeta))
    w = float(minkowski_dot(e2, zeta))
    phi0 = math.atan2(w, u)
    cosoff = (math.cosh(dd) - math.exp(rho)) / math.sinh(dd)
    if abs(cosoff) > 1.0:
        raise ValueError("no point at that distance has the requested offset")
    phi = phi0 + sign * math.acos(cosoff)
    return _exp_point(p, dd, e1, e2, phi)


def _integral_dist_beta(theta, T0, T1, beta, outer_nodes: int = 48):
    """int_{T0}^{T1} dist(g^s g1, g^s g2)^beta ds for common-point pairs,
    H2_CHUNK samples at a time."""
    theta, T0, T1, beta = (np.asarray(v, dtype=float) for v in (theta, T0, T1, beta))
    out = np.empty(len(theta))
    for lo in range(0, len(theta), H2_CHUNK):
        part = slice(lo, lo + H2_CHUNK)
        nodes, weights = _gl_panel(T0[part], T1[part], outer_nodes)
        flat_theta = np.repeat(theta[part, None], outer_nodes, axis=1)
        dist, tail = _dist_flow_common(flat_theta.ravel(), nodes.ravel())
        vals = (dist + tail) ** np.repeat(beta[part, None], outer_nodes, axis=1).ravel()
        out[part] = (vals.reshape(nodes.shape) * weights).sum(axis=1)
    return out


# --------------------------------------------------------------------------
# The Holder chain on the plane (lemmas with no tree content).


def _d_phi_h2(geo: H2Geodesic, T: float, n_nodes: int = 64) -> float:
    nodes, weights = _gl_panel(0.0, T, n_nodes)
    return float((_phi_sample(geo.point(nodes)) * weights).sum())


def holder_chain_audit(n_samples: int, seed: int, tol: float = 1e-6) -> dict:
    """Audit the weighted-length comparison chain with a concrete Holder
    potential: 2 + sin(distance to origin), certified (K, beta) = (2.5, 1/2).

    The Holder certificate itself is sampled first: |Phi gap| against
    K * dist^beta for synchronized pairs.
    """
    rng = np.random.default_rng(seed)
    n = n_samples
    report = {}

    # certificate check for the sample potential
    viol = np.full(n, -np.inf)
    pars = {"theta": np.zeros(n), "shift": np.zeros(n)}
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        th = rng.uniform(0.05, math.pi - 0.05)
        base = rng.uniform(0, 2 * math.pi)
        g1 = geodesic_from(p, base)
        g2 = geodesic_from(p, base + th)
        sh = rng.uniform(0.0, 3.0)
        g1s, g2s = g1.flow(sh), g2.flow(sh)
        gap = abs(float(_phi_sample(g1s.p)) - float(_phi_sample(g2s.p)))
        dist = _dist_flow_profile(*_profile_coeffs(g1, g2), sh)
        viol[i] = gap - PHI_K * dist ** PHI_BETA
        pars["theta"][i] = th
        pars["shift"][i] = sh
    report["phi_certificate"] = _report(viol, pars, n)

    # weighted-length gap at partial confluence
    viol1 = np.full(n, -np.inf)
    pars1 = {"theta": np.zeros(n), "alpha": np.zeros(n)}
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        th = rng.uniform(0.3, math.pi - 0.05)
        base = rng.uniform(0, 2 * math.pi)
        g1 = geodesic_from(p, base)
        g2 = geodesic_from(p, base + th)
        cp = -math.log(math.sin(th / 2.0))
        cm = cp
        al = rng.uniform(0.05, 1.0)
        lhs = abs(_d_phi_h2(g1, al * cp) - _d_phi_h2(g2, al * cp))
        rhs = PHI_K * ((1.0 / PHI_BETA + cm / 2.0) * math.exp(-PHI_BETA * cm)
                       + (2.0 / PHI_BETA + (1 - al) * cp / 2.0)
                       * math.exp(-PHI_BETA * (1 - al) * cp))
        viol1[i] = lhs - rhs
        pars1["theta"][i] = th
        pars1["alpha"][i] = al
    report["length_gap"] = _report(viol1, pars1, n)

    # horosphere flow bound and the weighted Busemann gap
    viol2 = np.full(n, -np.inf)
    viol3 = np.full(n, -np.inf)
    pars23 = {"d": np.zeros(n), "s": np.zeros(n)}
    for i in range(n):
        p = h2_point(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
        g1 = geodesic_from(p, rng.uniform(0, 2 * math.pi))
        zeta = g1.ideal_forward()
        e1, e2 = tangent_basis(p)
        qh = _partner_at(p, e1, e2, zeta, rng.uniform(0.2, 3.0), 0.0)
        g2 = geodesic_toward(qh, zeta)
        dd = _dist_raw(g1.p, g2.p)
        ss = rng.uniform(0.0, 5.0)
        lhs2 = _dist_flow_profile(*_profile_coeffs(g1, g2, forward_asymptotic=True), ss)
        rhs2 = 1.0 + dd - 2.0 * ss + ss / dd if ss <= dd / 2.0 \
            else math.exp(dd / 2.0 - ss) * (1.5 + ss / 2.0 - dd / 4.0)
        viol2[i] = lhs2 - rhs2
        # weighted Busemann difference along the pair of synchronized rays
        W = ss + 55.0
        nodes, weights = _gl_panel(ss, W, 160)
        gap = _phi_sample(g1.point(nodes[0])) - _phi_sample(g2.point(nodes[0]))
        lhs3 = abs(float((gap * weights[0]).sum()))
        lhs3_tail = 2.0 * math.sinh(dd / 2.0) * math.exp(-W)
        rhs3 = PHI_K * (((dd / 2.0 - ss) * (PHI_BETA / 2.0 + PHI_BETA * dd / 2.0 + 1.0)
                         + 2.0 / PHI_BETA) if ss <= dd / 2.0
                        else math.exp(PHI_BETA * (dd / 2.0 - ss))
                        * (2.0 / PHI_BETA + ss / 2.0 - dd / 4.0))
        viol3[i] = lhs3 + lhs3_tail - rhs3
        pars23["d"][i] = dd
        pars23["s"][i] = ss
    report["horosphere_flow"] = _report(viol2, pars23, n)
    report["busemann_gap"] = _report(viol3, pars23, n)

    for entry in report.values():
        entry["pass"] = bool(entry["max_violation"] <= tol)
    return report
