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


class InvalidPointError(ValueError):
    pass


class QuadratureError(RuntimeError):
    pass


class NodeBudgetError(QuadratureError):
    """A quadrature node array would exceed H2_NODE_BYTES."""


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

def h2_point(rho, phi) -> np.ndarray:
    """Point at polar coordinates (rho, phi) about the origin; arrays of
    coordinates give a (..., 3) batch of points."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.cosh(rho), np.sinh(rho) * np.cos(phi),
                     np.sinh(rho) * np.sin(phi)], axis=-1)


def h2_distance(x, y):
    x = check_point(x)
    y = check_point(y)
    return np.arccosh(np.maximum(-minkowski_dot(x, y), 1.0))


@dataclass(frozen=True)
class H2Geodesic:
    """Unit-speed geodesic t -> p cosh t + v sinh t with <p,v> = 0, <v,v> = 1.

    p and v may be (..., 3) batches of frames; times broadcast against the
    batch shape p.shape[:-1].
    """

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        check_point(self.p)
        scale = np.maximum(1.0, self.p[..., 0] ** 2)
        if np.any(np.abs(minkowski_dot(self.v, self.v) - 1.0) > 1e-10 * scale) or \
           np.any(np.abs(minkowski_dot(self.p, self.v)) > 1e-10 * scale):
            raise InvalidPointError("tangent is not unit and orthogonal")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return np.cosh(t)[..., None] * self.p + np.sinh(t)[..., None] * self.v

    def flow(self, s) -> "H2Geodesic":
        s = np.asarray(s, dtype=float)
        v = np.sinh(s)[..., None] * self.p + np.cosh(s)[..., None] * self.v
        return H2Geodesic(*_normalize_frame(self.point(s), v))

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
    p = np.asarray(p, dtype=float)
    e1 = np.stack([p[..., 1], p[..., 0], np.zeros_like(p[..., 0])], axis=-1)
    e1 = e1 / np.sqrt(minkowski_dot(e1, e1))[..., None]
    u = np.array([0.0, 0.0, 1.0])
    e2 = u + minkowski_dot(u, p)[..., None] * p
    e2 = e2 / np.sqrt(minkowski_dot(e2, e2))[..., None]
    return e1, e2


def geodesic_from(p: np.ndarray, angle) -> H2Geodesic:
    e1, e2 = tangent_basis(p)
    angle = np.asarray(angle, dtype=float)[..., None]
    return H2Geodesic(p, np.cos(angle) * e1 + np.sin(angle) * e2)


def _normalize_frame(p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = p / np.sqrt(-minkowski_dot(p, p))[..., None]
    v = v + minkowski_dot(v, p)[..., None] * p
    v = v / np.sqrt(minkowski_dot(v, v))[..., None]
    return p, v


def geodesic_toward(p: np.ndarray, n: np.ndarray) -> H2Geodesic:
    """Geodesic from p with forward ideal point the null direction n."""
    c = -minkowski_dot(p, n)
    if np.any(c <= 0):
        raise InvalidPointError("null vector must be future-pointing relative to p")
    return H2Geodesic(*_normalize_frame(p, n / c[..., None] - p))


def busemann_h2(n: np.ndarray, p: np.ndarray, q: np.ndarray):
    """rho_zeta(p, q) = log(<q,n> / <p,n>) for the ideal point of n."""
    return np.log(minkowski_dot(q, n) / minkowski_dot(p, n))


def gromov_ideal(n1: np.ndarray, n2: np.ndarray, p: np.ndarray) -> float:
    """Gromov product at p of two ideal points given by null vectors."""
    a = minkowski_dot(n1, n2)
    b1 = -minkowski_dot(n1, p)
    b2 = -minkowski_dot(n2, p)
    return float(-0.5 * math.log(-a / (2.0 * b1 * b2)))


def _profile_coeffs(g1: H2Geodesic, g2: H2Geodesic, forward_asymptotic: bool = False):
    """(A, B, C) of the stable closed form of t -> d(g1(t), g2(t)),

        cosh d(t) = A e^{2t} + B + C e^{-2t},

    from O(1) Minkowski products of the frame vectors, so no cancellation
    occurs at large |t| (the naive product of e^{t}-sized points loses every
    digit past |t| of about 17).  One triple per pair of frames.
    """
    A = -0.25 * minkowski_dot(g1.p + g1.v, g2.p + g2.v)
    B = -0.5 * (minkowski_dot(g1.p, g2.p) - minkowski_dot(g1.v, g2.v))
    C = -0.25 * minkowski_dot(g1.p - g1.v, g2.p - g2.v)
    if forward_asymptotic:
        A = np.zeros_like(A)  # exact by construction; the computed value is pure roundoff
    # coefficients at roundoff level are exact zeros (asymptotic geodesics);
    # leaving the noise in would blow up under e^{2|t|}
    floor = 1e-13 * np.maximum(1.0, np.abs([A, B, C]).max(axis=0))
    A = np.where(np.abs(A) <= floor, 0.0, A)
    C = np.where(np.abs(C) <= floor, 0.0, C)
    # forward-asymptotic on a common horosphere (identical geodesics if C = 0)
    B = np.where((A == 0.0) & (np.abs(B - 1.0) <= floor), 1.0, B)
    return A, B, C


def _cosh_profile(coeffs, t):
    """cosh d(t) from `_profile_coeffs`; the coefficients broadcast against t."""
    A, B, C = coeffs
    return A * np.exp(2.0 * t) + B + C * np.exp(-2.0 * t)


def separation_profile(g1: H2Geodesic, g2: H2Geodesic):
    """Stable closed form of t -> d(g1(t), g2(t)); see `_profile_coeffs`."""
    coeffs = _profile_coeffs(g1, g2)

    def sep(t):
        return np.arccosh(np.maximum(_cosh_profile(coeffs, np.asarray(t, dtype=float)), 1.0))

    return sep


def sh_distance_numeric(g1: H2Geodesic, g2: H2Geodesic, window: float = 40.0,
                        tol: float = 1e-9) -> float:
    """(1/2) * integral d(g1(t), g2(t)) e^{-|t|} dt by adaptive quadrature.

    The tail beyond the window is controlled analytically by
    d(t) <= 2|t| + d(g1(0), g2(0)); window 40 keeps it below 1e-15.
    """
    from scipy.integrate import quad  # this check's only reader; not loaded on import

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
# the per-sample quadratures integrate at a time (`_integral_dist_beta`'s gap
# panels put 48 x 24 nodes on each sample).
H2_NODE_BYTES = 1 << 26
H2_CHUNK = 64
# Gauss nodes per gap between times, per window panel and per outer panel;
# the window panels' length
H2_GAP_NODES = 24
H2_NODES = 96
H2_OUTER_NODES = 48
H2_WINDOW = 45.0


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


def _chunked(n: int, fn) -> np.ndarray:
    """fn(part) over the H2_CHUNK-sample slices `part` of range(n), joined."""
    return np.concatenate([fn(slice(lo, lo + H2_CHUNK)) for lo in range(0, n, H2_CHUNK)])


def _sep_common(theta, t):
    """d(g1(t), g2(t)) for unit geodesics through one point at angle theta."""
    ec = np.sin(np.asarray(theta) / 2.0)  # = e^{-c_+}
    return 2.0 * np.arcsinh(ec * np.sinh(t))


def _sep_common_st(theta, s, t):
    ch = np.cosh(s) * np.cosh(t) - np.sinh(s) * np.sinh(t) * np.cos(theta)
    return np.arccosh(np.maximum(ch, 1.0))


def _common_terms(theta, s) -> np.ndarray:
    """The terms e^{-s} int_0^s d e^t, e^s int_s^inf d e^{-t} and
    e^{-s} int_0^inf d e^{-t} (dt; d = `_sep_common`) of 2 dist(g^s g1, g^s g2),
    stacked, at rows of ascending times s, one row per theta.  A row's times
    share one H2_GAP_NODES panel per gap from 0, one H2_NODES panel out to
    H2_WINDOW past the last time, and the tail bound beyond."""
    theta = theta[:, None]
    nodes, weights = _gl_panel(np.concatenate([np.zeros_like(s[:, :1]), s[:, :-1]], axis=1),
                               s, H2_GAP_NODES)
    sep = _sep_common(theta[..., None], nodes) * weights
    rising = np.cumsum((sep * np.exp(nodes)).sum(axis=-1), axis=1)
    falling = (sep * np.exp(-nodes)).sum(axis=-1)
    W = s[:, -1:] + H2_WINDOW
    nodes, weights = _gl_panel(s[:, -1], W[:, 0], H2_NODES)
    # tail beyond W: d(t) <= 2(t - c) + 2 e^{-t} sinh(c)
    cp = -np.log(np.sin(theta / 2.0))
    end = (_sep_common(theta, nodes) * np.exp(-nodes) * weights).sum(axis=-1, keepdims=True) \
        + (2.0 * (W - cp) + 2.0 + 2.0 * np.exp(-W) * np.sinh(np.minimum(cp, 30.0))) * np.exp(-W)
    # int_{s_k}^inf d e^{-t} dt: the end plus the later gaps, smallest first
    after = np.cumsum(np.concatenate([end, falling[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    return np.stack([np.exp(-s) * rising, np.exp(s) * after,
                     np.exp(-s) * (after[:, :1] + falling[:, :1])])


def _dist_flow_common(theta, s) -> np.ndarray:
    """dist(g^s gamma1, g^s gamma2) = (1/2) int_0^inf d(t) (e^{-|t-s|} + e^{-(t+s)}) dt
    for common-point pairs at rows of ascending times s; see `_common_terms`."""
    return 0.5 * _common_terms(theta, s).sum(axis=0)


def _dist_flow_profile(coeffs, s) -> np.ndarray:
    """dist(g^s g1, g^s g2) per sample from the stable separation coefficients
    of `_profile_coeffs`, H2_CHUNK samples at a time."""

    def chunk(k):
        sep_coeffs = [c[k, None] for c in coeffs]
        total = 0.0
        for lo, hi in ((s[k] - H2_WINDOW, s[k]), (s[k], s[k] + H2_WINDOW)):
            nodes, weights = _gl_panel(lo, hi, H2_NODES)
            sep = np.arccosh(np.maximum(_cosh_profile(sep_coeffs, nodes), 1.0))
            total = total + 0.5 * (sep * np.exp(-np.abs(nodes - s[k, None])) * weights).sum(axis=-1)
        return total

    # both tails: separation grows at most like 2|t| + O(1)
    return _chunked(len(s), chunk) + (2.0 * (np.abs(s) + H2_WINDOW) + 60.0) * math.exp(-H2_WINDOW)


def _phi_gap(g1: H2Geodesic, g2: H2Geodesic, lo, hi, n_nodes: int) -> np.ndarray:
    """|int_lo^hi Phi(g1(t)) - Phi(g2(t)) dt| per pair of frames, H2_CHUNK
    pairs at a time."""

    def chunk(k):
        nodes, weights = _gl_panel(lo[k], hi[k], n_nodes)
        phi1, phi2 = (_phi_sample(H2Geodesic(g.p[k, None], g.v[k, None]).point(nodes))
                      for g in (g1, g2))
        return np.abs(((phi1 - phi2) * weights).sum(axis=-1))

    return _chunked(len(lo), chunk)


def _phi_sample(pts):
    """+Holder test potential: 2 + sin of the distance to the origin."""
    return 2.0 + np.sin(np.arccosh(np.maximum(pts[..., 0], 1.0)))


PHI_K = 2.5     # certified Holder constant of the test potential w.r.t. dist
PHI_BETA = 0.5  # and its exponent; see the audit for the sampled check


def _report(diffs, params):
    i = int(np.argmax(diffs))
    return {
        "samples": len(diffs),
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
                                         {"theta": theta, "s": s, "t": t, "S": S, "T": T})

    # horodistance: asymptotic geodesics, general offset and same-horosphere.
    # Comparisons run in the cosh domain (first-order converted to distance
    # units) to dodge the arccosh amplification near coincident points.
    d0 = rng.uniform(0.5, 4.0, n)
    rho_raw = rng.uniform(-1.5, 1.5, n)
    s2 = rng.uniform(0.0, 5.0, n)
    t2 = rng.uniform(0.0, 5.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    r, phi, angle = rng.uniform(0.0, [1.5, 2 * math.pi, 2 * math.pi], (n, 3)).T
    p = h2_point(r, phi)
    g1 = geodesic_from(p, angle)
    zeta = g1.ideal_forward()
    rho = np.clip(rho_raw, -0.9 * d0, 0.9 * d0)
    g2 = geodesic_toward(_partner_at(p, zeta, d0, rho, signs), zeta)
    dd = h2_distance(g1.p, g2.p)
    rr = busemann_h2(zeta, g1.p, g2.p)
    cosh_lhs = _cosh_profile(_profile_coeffs(g1.flow(s2 - t2), g2, forward_asymptotic=True), t2)
    inner = (np.cosh(dd) - np.cosh(rr)) * np.exp(-(t2 + s2)) + np.cosh(rr + s2 - t2)
    d_rhs = np.arccosh(np.maximum(inner, 1.0))
    # mean-value conversion of the cosh-domain gap to distance units; the
    # sinh floor guards against roundoff amplification near coincidence
    viols = (cosh_lhs - inner) / np.maximum(np.sinh(d_rhs), 0.2)
    # same horosphere, equal times: the profile gives sinh(d(t)/2) exactly
    g2h = geodesic_toward(_partner_at(p, zeta, d0, 0.0, signs), zeta)
    _, _, Ch = _profile_coeffs(g1, g2h, forward_asymptotic=True)
    sh_half = np.sqrt(np.maximum(Ch, 0.0) / 2.0)  # = sinh(d(0)/2)
    dh = 2.0 * np.arcsinh(sh_half)
    lhs_h = 2.0 * np.arcsinh(sh_half * np.exp(-t2))
    case = np.where(t2 <= dh / 2.0, dh - (2.0 / dh) * (np.exp(-dh) + dh - 1.0) * t2,
                    2.0 * np.sinh(dh / 2.0) * np.exp(-t2))
    report["horodistance"] = _report(np.maximum(viols, lhs_h - case),
                                     {"d": d0, "rho": rho_raw, "s": s2, "t": t2})

    # confluence form: exact identity plus the two case bounds
    s3 = rng.uniform(0.0, 5.0, n)
    t3 = rng.uniform(0.0, 5.0, n)
    ident = np.cosh(_sep_common_st(theta, s3, t3)) \
        - (np.cosh(t3 - s3) + 2.0 * np.exp(-2.0 * cp) * np.sinh(s3) * np.sinh(t3))
    eq_t = _sep_common(theta, t3)
    case_a = np.where(t3 <= cp, eq_t - 2.0 * np.exp(-cp) * np.sinh(t3), -np.inf)
    case_b = eq_t - (2.0 * np.maximum(t3 - cp, 0.0) + 2.0 * np.exp(-t3) * np.sinh(cp))
    d_a3 = np.maximum(np.abs(ident), np.maximum(case_a, case_b))
    report["confluence_form"] = _report(d_a3, {"theta": theta, "s": s3, "t": t3})

    # exponentially weighted one-sided integral
    s4 = rng.uniform(0.0, 7.0, n)

    lhs4 = _chunked(n, lambda k: _common_terms(theta[k], s4[k, None])[:2].sum(axis=0)[:, 0])
    rhs4 = 4.0 * np.maximum(s4 - cp, 0.0) + np.exp(-np.abs(cp - s4)) * (np.abs(cp - s4) + 3.0) \
        - (s4 + 1.0) * np.exp(-cp - s4)
    report["exp_integral"] = _report(lhs4 - rhs4, {"theta": theta, "s": s4})

    # flowed distance bound (backward confluence equals the forward one here)
    s5 = rng.uniform(0.0, 7.0, n)
    lhs5 = _chunked(n, lambda k: _dist_flow_common(theta[k], s5[k, None])[:, 0])
    rhs5 = 2.0 * np.maximum(s5 - cp, 0.0) + (np.abs(cp - s5) + 3.0) / (2.0 * np.exp(np.abs(cp - s5))) \
        - (s5 + 1.0) / (2.0 * np.exp(s5 + cp)) + (cp + 2.0) / (2.0 * np.exp(s5 + cp))
    report["flow_distance"] = _report(lhs5 - rhs5, {"theta": theta, "s": s5})

    # integrated Holder bound (final stated form)
    T6 = rng.uniform(0.3, 6.0, n)
    beta6 = rng.uniform(0.3, 1.0, n)
    lhs6 = _integral_dist_beta(theta, np.zeros(n), T6, beta6)
    rhs6 = 5.0 / beta6 + np.maximum(T6 - cp, 0.0) ** (1.0 + beta6)
    report["integral_estimate"] = _report(lhs6 - rhs6,
                                             {"theta": theta, "T": T6, "beta": beta6})

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
        {"theta": theta, "alpha": alpha7, "beta": beta7})

    # separation grows along one ray
    a8 = rng.uniform(0.0, 5.0, n)
    t8 = rng.uniform(0.0, 5.0, n)
    d_a8 = _sep_common(theta, a8) - _sep_common_st(theta, a8, a8 + t8)
    report["increasing_separation"] = _report(d_a8, {"theta": theta, "a": a8, "t": t8})

    for name, entry in report.items():
        entry["pass"] = bool(entry["max_violation"] <= tol)
    return report


def _partner_at(p, zeta, dd, rho, sign=1.0):
    """Point at distance dd from p with Busemann offset rho toward zeta.

    Solving cosh(dd) - sinh(dd) cos(phi - phi0) = e^rho keeps every frame at
    moderate coordinates (sliding along the geodesic instead compounds
    roundoff that the asymptotic estimates then amplify by e^{2t}).
    Requires |rho| <= dd; zeta must carry the normalization <zeta, p> = -1.
    """
    e1, e2 = tangent_basis(p)
    phi0 = np.arctan2(minkowski_dot(e2, zeta), minkowski_dot(e1, zeta))
    cosoff = (np.cosh(dd) - np.exp(rho)) / np.sinh(dd)
    if np.any(np.abs(cosoff) > 1.0):
        raise ValueError("no point at that distance has the requested offset")
    return geodesic_from(p, phi0 + sign * np.arccos(cosoff)).flow(dd).p


def _integral_dist_beta(theta, T0, T1, beta):
    """int_{T0}^{T1} dist(g^s g1, g^s g2)^beta ds for common-point pairs,
    H2_CHUNK samples at a time."""
    theta, T0, T1, beta = (np.asarray(v, dtype=float) for v in (theta, T0, T1, beta))

    def chunk(k):
        nodes, weights = _gl_panel(T0[k], T1[k], H2_OUTER_NODES)
        return (_dist_flow_common(theta[k], nodes) ** beta[k, None] * weights).sum(axis=1)

    return _chunked(len(theta), chunk)


# --------------------------------------------------------------------------
# The Holder chain on the plane (lemmas with no tree content).


def holder_chain_audit(n_samples: int, seed: int, tol: float = 1e-6) -> dict:
    """Audit the weighted-length comparison chain with a concrete Holder
    potential: 2 + sin(distance to origin), certified (K, beta) = (2.5, 1/2).

    The Holder certificate itself is sampled first: |Phi gap| against
    K * dist^beta for synchronized pairs.
    """
    rng = np.random.default_rng(seed)
    n = n_samples
    two_pi = 2 * math.pi
    report = {}

    # certificate check for the sample potential
    r, phi, th, base, sh = rng.uniform([0.0, 0.0, 0.05, 0.0, 0.0],
                                       [1.2, two_pi, math.pi - 0.05, two_pi, 3.0], (n, 5)).T
    p = h2_point(r, phi)
    g1, g2 = geodesic_from(p, base), geodesic_from(p, base + th)
    gap = np.abs(_phi_sample(g1.flow(sh).p) - _phi_sample(g2.flow(sh).p))
    dist = _dist_flow_profile(_profile_coeffs(g1, g2), sh)
    report["phi_certificate"] = _report(gap - PHI_K * dist ** PHI_BETA,
                                        {"theta": th, "shift": sh})

    # weighted-length gap at partial confluence
    r, phi, th, base, al = rng.uniform([0.0, 0.0, 0.3, 0.0, 0.05],
                                       [1.2, two_pi, math.pi - 0.05, two_pi, 1.0], (n, 5)).T
    p = h2_point(r, phi)
    g1, g2 = geodesic_from(p, base), geodesic_from(p, base + th)
    cp = -np.log(np.sin(th / 2.0))
    cm = cp
    lhs = _phi_gap(g1, g2, np.zeros(n), al * cp, 64)
    rhs = PHI_K * ((1.0 / PHI_BETA + cm / 2.0) * np.exp(-PHI_BETA * cm)
                   + (2.0 / PHI_BETA + (1 - al) * cp / 2.0)
                   * np.exp(-PHI_BETA * (1 - al) * cp))
    report["length_gap"] = _report(lhs - rhs, {"theta": th, "alpha": al})

    # horosphere flow bound and the weighted Busemann gap
    r, phi, angle, d0, ss = rng.uniform([0.0, 0.0, 0.0, 0.2, 0.0],
                                        [1.2, two_pi, two_pi, 3.0, 5.0], (n, 5)).T
    p = h2_point(r, phi)
    g1 = geodesic_from(p, angle)
    zeta = g1.ideal_forward()
    g2 = geodesic_toward(_partner_at(p, zeta, d0, 0.0), zeta)
    dd = h2_distance(g1.p, g2.p)
    near = ss <= dd / 2.0
    lhs2 = _dist_flow_profile(_profile_coeffs(g1, g2, forward_asymptotic=True), ss)
    rhs2 = np.where(near, 1.0 + dd - 2.0 * ss + ss / dd,
                    np.exp(dd / 2.0 - ss) * (1.5 + ss / 2.0 - dd / 4.0))
    # weighted Busemann difference along the pair of synchronized rays
    W = ss + 55.0
    lhs3 = _phi_gap(g1, g2, ss, W, 160)
    lhs3_tail = 2.0 * np.sinh(dd / 2.0) * np.exp(-W)
    rhs3 = PHI_K * np.where(near, (dd / 2.0 - ss) * (PHI_BETA / 2.0 + PHI_BETA * dd / 2.0 + 1.0)
                            + 2.0 / PHI_BETA,
                            np.exp(PHI_BETA * (dd / 2.0 - ss)) * (2.0 / PHI_BETA + ss / 2.0 - dd / 4.0))
    report["horosphere_flow"] = _report(lhs2 - rhs2, {"d": dd, "s": ss})
    report["busemann_gap"] = _report(lhs3 + lhs3_tail - rhs3, {"d": dd, "s": ss})

    for entry in report.values():
        entry["pass"] = bool(entry["max_violation"] <= tol)
    return report
