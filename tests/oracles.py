"""Scalar, one-object versions of the paper's tree objects.

The library computes these objects as arrays on its run path: stems as
letter rows, cocycles as profiles, masses along the window chain.  The
definitions below take one word, one boundary point or one cylinder at a
time.  The tests check the array paths against them, and check the paper's
identities (cocycle, equivariance, chain rule) with them.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace

import numpy as np

from gibbswalk.decompose import Decomposition
from gibbswalk.gibbs import GibbsStream, critical_exponent, shell_sums_log
from gibbswalk.hyperbolic import (H2Geodesic, QuadratureError, _cosh_profile, _profile_coeffs,
                                  h2_distance, minkowski_dot)
from gibbswalk.potentials import Potential, d_phi, min_cycle_mean, window_graph
from gibbswalk.spikes import SpikeLab
from gibbswalk.stems import StemTable
from gibbswalk.walk import WalkMeasure
from gibbswalk.words import (Alphabet, BoundaryError, BoundaryWord, EventuallyPeriodicWord, Word,
                             WordError, _translate_stem_set, inverse_letter)


# --------------------------------------------------------------------------
# words: boundary points, cylinders, Gromov products, Busemann cocycles.


class RandomReducedWord(BoundaryWord):
    """Cylinder-uniform random infinite reduced word with an explicit seed."""

    def __init__(self, ab: Alphabet, seed: int, stem: Word = ()):
        self.ab = ab
        self.seed = seed
        self.stem = tuple(stem)
        self._rng = random.Random(seed)
        self._cache: list[int] = list(stem)

    def letter(self, n: int) -> int:
        while len(self._cache) <= n:
            if not self._cache:
                self._cache.append(self._rng.randrange(self.ab.n_letters))
            else:
                bad = inverse_letter(self._cache[-1])
                choices = [s for s in self.ab.letters if s != bad]
                self._cache.append(self._rng.choice(choices))
        return self._cache[n]

    def key(self):
        return ("rand", self.seed, self.stem)


@dataclass(frozen=True)
class ShiftedWord(BoundaryWord):
    """Finite prefix glued onto the tail of another boundary word."""

    ab: Alphabet
    head: Word
    base: BoundaryWord
    skip: int

    def letter(self, n: int) -> int:
        if n < len(self.head):
            return self.head[n]
        return self.base.letter(n - len(self.head) + self.skip)

    def key(self):
        return ("shift", self.head, self.skip, self.base.key())


def translate_boundary(ab: Alphabet, g: Word, xi: BoundaryWord) -> BoundaryWord:
    """The boundary point g . xi (left translation)."""
    j = 0
    while j < len(g) and xi.letter(j) == inverse_letter(g[len(g) - 1 - j]):
        j += 1
    head = g[: len(g) - j]
    if isinstance(xi, EventuallyPeriodicWord):
        # stay in closed form: split xi past j into preamble + period
        pre, per = xi.preamble, xi.period
        if j <= len(pre):
            return EventuallyPeriodicWord(ab, head + pre[j:], per)
        r = (j - len(pre)) % len(per)
        return EventuallyPeriodicWord(ab, head, per[r:] + per[:r])
    return ShiftedWord(ab, head, xi, j)


def boundary_equal(x: BoundaryWord, y: BoundaryWord) -> bool:
    return x.key() == y.key()


def _centered(ab: Alphabet, p: Word, x) -> tuple:
    """View x (word or boundary word) from basepoint p; returns ('w', word) or ('b', bw)."""
    if isinstance(x, BoundaryWord):
        return ("b", x if not p else translate_boundary(ab, ab.inv(p), x))
    return ("w", ab.mul(ab.inv(p), tuple(x)))


def _common_prefix_len(ab: Alphabet, kx, x, ky, y) -> int:
    n = 0
    while True:
        if kx == "w" and n >= len(x):
            return n
        if ky == "w" and n >= len(y):
            return n
        a = x[n] if kx == "w" else x.letter(n)
        b = y[n] if ky == "w" else y.letter(n)
        if a != b:
            return n
        n += 1


def gromov_product(ab: Alphabet, x, y, p: Word = ()) -> float:
    """(x . y)_p — on the tree, the confluence length from p toward x and y.

    Accepts reduced words and boundary words in any combination; two equal
    boundary points have an infinite product and raise.
    """
    kx, cx = _centered(ab, p, x)
    ky, cy = _centered(ab, p, y)
    if kx == "b" and ky == "b" and boundary_equal(cx, cy):
        raise BoundaryError("Gromov product of a boundary point with itself is infinite")
    return float(_common_prefix_len(ab, kx, cx, ky, cy))


def busemann(ab: Alphabet, xi: BoundaryWord, p: Word, q: Word) -> float:
    """Horospherical displacement rho_xi(p, q) = lim_z->xi d(q,z) - d(p,z).

    The limit stabilizes once z passes every branch vertex; exact integer.
    """
    n0 = len(p) + len(q) + 2
    vals = []
    for n in (n0, n0 + 1):
        z = xi.prefix(n)
        vals.append(ab.dist(q, z) - ab.dist(p, z))
    if vals[0] != vals[1]:  # pragma: no cover - stabilization bound is exact
        raise AssertionError("Busemann limit failed to stabilize")
    return float(vals[0])


@dataclass(frozen=True)
class Cylinder:
    """Boundary points whose ray from `base` starts with `stem` (nonempty)."""

    stem: Word
    base: Word = ()

    def __post_init__(self):
        if not self.stem:
            raise WordError("cylinder stem must be nonempty")

    @property
    def depth(self) -> int:
        return len(self.stem)


def translate_cylinder(ab: Alphabet, g: Word, c: Cylinder) -> Cylinder:
    """g . c in based coordinates: the stem is unchanged, the base moves."""
    return Cylinder(c.stem, base=ab.mul(tuple(g), tuple(c.base)))


def cylinder_at_origin(ab: Alphabet, c: Cylinder) -> list[Cylinder]:
    """Decompose a based cylinder into disjoint origin-based cylinders."""
    if not c.base:
        return [c]
    return [Cylinder(s) for s in _translate_stem_set(ab, tuple(c.base), tuple(c.stem))]


def shadow_cylinder(ab: Alphabet, p: Word, q: Word, r: float) -> Cylinder:
    """Shadow of the open ball B(q, r) seen from p, for 0 < r <= 1.

    Vertex distances are integers, so B(q, r) = {q} and the shadow is exactly
    the cylinder of the reduced word from p to q, in p-centered coordinates.
    """
    if not 0 < r <= 1:
        raise ValueError(f"shadow radius must be in (0, 1], got {r}")
    w = ab.mul(ab.inv(p), tuple(q))
    if not w:
        raise BoundaryError("degenerate shadow: q coincides with the viewpoint p")
    return Cylinder(w, base=tuple(p))


def quasimetric_pi(ab: Alphabet, zeta: BoundaryWord, nu: BoundaryWord, p: Word = ()) -> float:
    """Visual quasimetric pi_p(zeta, nu) = exp(-(zeta . nu)_p); an ultrametric here."""
    try:
        return math.exp(-gromov_product(ab, zeta, nu, p))
    except BoundaryError:
        warnings.warn("quasimetric of coincident boundary points; returning 0", RuntimeWarning)
        return 0.0


# --------------------------------------------------------------------------
# words: bi-infinite geodesics in the unit tangent space SH.


@dataclass(frozen=True)
class GeodesicSpec:
    """Unit-speed bi-infinite geodesic through `base`, time-shifted by `offset`.

    gamma(-offset) = base; positive time runs along `forward`.  The words are
    expressed base-centered.
    """

    ab: Alphabet
    base: Word
    forward: BoundaryWord
    backward: BoundaryWord
    offset: float = 0.0

    def __post_init__(self):
        if self.forward.letter(0) == self.backward.letter(0):
            raise BoundaryError("forward and backward rays must leave base along distinct edges")

    def flow(self, s: float) -> "GeodesicSpec":
        """The time shift g^s: gamma_s(u) = gamma(u + s)."""
        return replace(self, offset=self.offset + s)

    def flip(self) -> "GeodesicSpec":
        return GeodesicSpec(self.ab, self.base, self.backward, self.forward, -self.offset)

    def point(self, u: float) -> tuple[BoundaryWord, float]:
        """(ray, distance along it from base) of gamma(u)."""
        x = u + self.offset
        return (self.forward, x) if x >= 0 else (self.backward, -x)


def _ray_confluence(ab: Alphabet, r1: BoundaryWord, r2: BoundaryWord) -> float:
    if boundary_equal(r1, r2):
        return math.inf
    return gromov_product(ab, r1, r2)


def geodesic_point_distance(g1: GeodesicSpec, g2: GeodesicSpec, u: float) -> float:
    """d(gamma1(u), gamma2(u)) for geodesics sharing a base vertex."""
    if g1.base != g2.base:
        raise ValueError("geodesics must share their base vertex")
    r1, x1 = g1.point(u)
    r2, x2 = g2.point(u)
    c = _ray_confluence(g1.ab, r1, r2)
    return x1 + x2 - 2.0 * min(x1, x2, c)


def _shift_kernel(c: float, s: float) -> float:
    # int_c^inf (u - c) exp(-|u - s|) du, the one-sided separation integral
    if math.isinf(c):
        return 0.0
    return 2.0 * max(s - c, 0.0) + math.exp(-abs(s - c))


def sh_distance(g1: GeodesicSpec, g2: GeodesicSpec) -> float:
    """dist on SH: (1/2) * integral of d(gamma1(t), gamma2(t)) e^{-|t|} dt.

    Closed form for geodesics through a common base with equal offsets; a pure
    time shift of one geodesic gives |s| exactly.  The flip distance evaluates
    to 2 (the defining integral of 2|t| e^{-|t|}), not the claimed 1; nothing
    downstream depends on that constant.
    """
    if g1.base != g2.base:
        raise ValueError("geodesics must share their base vertex")
    same_fwd = boundary_equal(g1.forward, g2.forward)
    same_bwd = boundary_equal(g1.backward, g2.backward)
    if same_fwd and same_bwd:
        return abs(g1.offset - g2.offset)
    if g1.offset != g2.offset:
        raise ValueError("distinct geodesics are only supported at equal offsets")
    t = g1.offset
    c_plus = _ray_confluence(g1.ab, g1.forward, g2.forward)
    c_minus = _ray_confluence(g1.ab, g1.backward, g2.backward)
    return _shift_kernel(c_plus, t) + _shift_kernel(c_minus, -t)


# --------------------------------------------------------------------------
# potentials: weighted lengths along rays, the weighted Busemann cocycle,
# Holder certificates, comparison bounds and geodesic averages.


def d_phi_ray(P: Potential, ray: BoundaryWord, a: float, b: float) -> float:
    """Weighted length along a ray between real parameters 0 <= a <= b.

    The integrand is constant on unit edges; fractional endpoints contribute
    proportionally.  Windows use the ray's genuine continuation, never the
    suffix rule.
    """
    if a > b:
        raise ValueError("need a <= b")
    if a < 0:
        raise ValueError("ray parameters must be nonnegative")
    m = P.depth
    total = 0.0
    i = math.floor(a)
    while i < b:
        lo = max(a, i)
        hi = min(b, i + 1)
        if hi > lo:
            win = tuple(ray.letter(i + j) for j in range(m))
            total += (hi - lo) * P.table[win]
        i += 1
    return total


def rho_phi(P: Potential, xi: BoundaryWord, p: Word, q: Word) -> float:
    """Weighted Busemann cocycle: lim_{z -> xi} d_phi(q, z) - d_phi(p, z).

    Stabilizes once z passes the branch vertices plus m letters; the dangling
    suffix-rule windows are shared by both terms and cancel, so the value is
    convention-free and satisfies the cocycle identity exactly.
    """
    n0 = len(p) + len(q) + P.depth + 2
    prev = None
    for n in (n0, n0 + 1):
        z = xi.prefix(n)
        val = d_phi(P, p, z) - d_phi(P, q, z)
        if prev is not None and abs(val - prev) > 1e-9 * (1 + abs(val)):  # pragma: no cover
            raise AssertionError("weighted Busemann limit failed to stabilize")
        prev = val
    # lim d(q,z) - d(p,z): note the sign order of the definition
    return -prev


@dataclass(frozen=True)
class HolderCertificate:
    """|Phi(g1) - Phi(g2)| <= K * dist(g1,g2)^beta for synchronized pairs."""

    K: float
    beta: float
    L: float
    scale: float = 1.0

    def __post_init__(self):
        if self.K < 0 or self.L < 0 or not 0 < self.beta <= 1:
            raise ValueError("invalid certificate constants")


def holder_certificate(P: Potential) -> HolderCertificate:
    """Certified global Holder data for a depth-m table.

    Two geodesics through a common point whose windows differ at time s have
    forward confluence c+ <= s + m, hence dist(g^s g1, g^s g2) >= e^{-m}; the
    value gap is at most the table oscillation, giving K = osc * e^m with
    exponent 1.  L is the sup norm of the table.
    """
    K = P.oscillation * math.exp(P.depth)
    return HolderCertificate(K=K, beta=1.0, L=P.sup_abs)


def comparison_bounds(cert: HolderCertificate, r: float) -> tuple[float, float]:
    """The two closed-form comparison bounds for weighted lengths.

    D_hat(r) bounds the defect between weighted lengths of same-base geodesics
    with r-close endpoints; D(r) = 2*D_hat(2r) + 2*L*r allows both endpoints
    and base points to move by r.  Monotone nondecreasing in r.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    L = max(cert.L, cert.K)
    d_hat = L * (5.0 / cert.beta + r ** (1.0 + cert.beta))
    d_hat_2r = L * (5.0 / cert.beta + (2.0 * r) ** (1.0 + cert.beta))
    return d_hat, 2.0 * d_hat_2r + 2.0 * L * r


@dataclass(frozen=True)
class AverageAudit:
    eps: float
    T: float | None
    min_cycle_mean: float
    witness: Word | None  # periodic word of a cycle with mean < eps, if any

    @property
    def ok(self) -> bool:
        return self.T is not None


def geodesic_average_audit(P: Potential, p: Word, eps: float, max_len: int) -> AverageAudit:
    """Least T with weighted length >= s*eps - T along every ray to depth max_len.

    Rays correspond to walks on the finitely many m-window states, so the
    minimum growth profile is an exact dynamic program.  If some cycle has
    mean below eps no finite T can work; the witness ray is that cycle.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    mean, cyc = min_cycle_mean(P)
    if mean < eps - 1e-12:
        return AverageAudit(eps=eps, T=None, min_cycle_mean=mean, witness=cyc)
    _, succ, wts, _ = window_graph(P)
    cur = wts.copy()
    t_needed = max(0.0, eps - float(wts.min()))  # s = 1 handled, s = 0 gives 0
    for s in range(2, max_len + 1):
        nxt = np.full_like(cur, math.inf)
        np.minimum.at(nxt, succ, cur[:, None] + wts[succ])
        cur = nxt
        t_needed = max(t_needed, s * eps - float(cur.min()))
    return AverageAudit(eps=eps, T=t_needed, min_cycle_mean=mean, witness=None)


# --------------------------------------------------------------------------
# gibbs: the truncated Poincare series and the measures of based cylinders
# from any point, by Radon-Nikodym integration.


def poincare_series(P: Potential, lam: float, n_max: int, patterson_a: float = 0.0) -> float:
    """Truncated weighted Poincare series, optionally with the polynomial
    Patterson factor (1 + x)^a on each term (default off)."""
    logs = shell_sums_log(P, n_max)
    total = math.exp(-0.0)  # the identity term
    for n in range(1, n_max + 1):
        term = math.exp(logs[n - 1] - lam * n)
        if patterson_a:
            term *= (1.0 + n) ** patterson_a
        total += term
    return total


def normalize(P: Potential) -> Potential:
    """Shift the table so the critical exponent vanishes (Gibbs data unchanged)."""
    return P.shifted(critical_exponent(P))


def rn_derivative(S: GibbsStream, p: Word, q: Word, xi: BoundaryWord) -> float:
    """d mu_q / d mu_p at xi: exp(-rho^Phi_xi(p, q)) for the normalized table."""
    return math.exp(-rho_phi(S.potential, xi, tuple(p), tuple(q)))


def measure_from(S: GibbsStream, q: Word, cylinders: list[Cylinder]) -> float:
    """mu_q of a disjoint union of based cylinders, by exact RN integration."""
    q = tuple(q)
    total = 0.0
    for c in cylinders:
        for oc in cylinder_at_origin(S.ab, c):
            depth = max(len(oc.stem), len(q) + S.depth_m)
            tab = StemTable(S.ab, depth)
            lo, hi = tab.prefix_range(tuple(oc.stem))
            rho = S.rho_phi_array(q, depth)[lo:hi]
            total += float(np.exp(-rho) @ S.mass_array(depth)[lo:hi])
    return total


def cylinder_mass(S: GibbsStream, q: Word, c: Cylinder) -> float:
    """Mass of the cylinder as seen from q (probability only at the base point e)."""
    q = tuple(q)
    if not q:
        return sum(S.cylinder_mass_of_stem(oc.stem) for oc in cylinder_at_origin(S.ab, c))
    return measure_from(S, q, [c])


def total_mass_from(S: GibbsStream, q: Word) -> float:
    return measure_from(S, q, [Cylinder((s,)) for s in S.ab.letters])


# --------------------------------------------------------------------------
# spikes, decompose, walk: the kernel at one pair of points, the residual
# rebuilt spike by spike, and the entropy split of a step law.


def g_kernel(S: GibbsStream, x: BoundaryWord, y: BoundaryWord, s: float) -> float:
    """Kernel value: exp(-2 * weighted length along the ray to y from the
    confluence with x up to time s); 1 when s is before the confluence."""
    c = gromov_product(S.ab, x, y)
    if s < c:
        return 1.0
    return math.exp(-2.0 * d_phi_ray(S.potential, y, c, s))


def recompute_residual_l1(dec: Decomposition, lab: SpikeLab | None = None) -> float:
    """Rebuild F - sum(weight * f_g) from scratch and return its L1 norm."""
    S = dec.stream
    if lab is None:
        lab = SpikeLab(S, nu_id=dec.cert.nu_id)
    F_const = float(dec.target.values.max()) == float(dec.target.values.min())
    total = dec.target
    for g, w in sorted(dec.entries.items()):
        rec = lab.unit_spike(g, None if F_const else dec.target)
        total = total - w * rec.h
    return total.l1(S.mass_array(total.depth))


def entropy_decomposition(mu: WalkMeasure, dphi: dict) -> tuple[float, float, float]:
    """Entropy split -sum mu log mu = sum mu d_phi - sum lam e^{-d_phi} log lam
    with lam(g) = mu(g) e^{d_phi(g)}; returns (entropy, moment_term, lambda_term)."""
    ent = mom = lamterm = 0.0
    for g, m in mu.masses.items():
        ent += -m * math.log(m)
        lam = m * math.exp(dphi[g])
        mom += m * dphi[g]
        lamterm += -lam * math.exp(-dphi[g]) * math.log(lam)
    return ent, mom, lamterm


# --------------------------------------------------------------------------
# hyperbolic: the Gromov product of ideal points, the separation profile
# and the geodesic-space distance by adaptive quadrature.


def gromov_ideal(n1: np.ndarray, n2: np.ndarray, p: np.ndarray) -> float:
    """Gromov product at p of two ideal points given by null vectors."""
    a = minkowski_dot(n1, n2)
    b1 = -minkowski_dot(n1, p)
    b2 = -minkowski_dot(n2, p)
    return float(-0.5 * math.log(-a / (2.0 * b1 * b2)))


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
