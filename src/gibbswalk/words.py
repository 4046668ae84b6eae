"""Free group F_k, its Cayley tree, boundary, and metric primitives.

Letters are small ints 0..2k-1 with inverse(s) = s ^ 1, so generator i is
letter 2i and its inverse 2i+1.  A reduced word is a plain tuple of letters
with no adjacent (s, inverse(s)) pair; the empty tuple is the basepoint.
Edge length is 1 throughout, so every vertex distance, Gromov product and
Busemann value is an exact integer.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Iterator

Word = tuple  # reduced word over an Alphabet


class WordError(ValueError):
    """Bad letter or malformed word input."""


class BoundaryError(ValueError):
    """Degenerate boundary configuration (coincident points, bad ray)."""


def inverse_letter(s: int) -> int:
    return s ^ 1


@lru_cache(maxsize=None)
def _letter_names(rank: int) -> tuple[str, ...]:
    """The names of letters 0..2k-1: generator i is the i-th letter from 'a',
    its inverse the same letter with a trailing apostrophe."""
    return tuple(chr(ord("a") + s // 2) + ("'" if s & 1 else "") for s in range(2 * rank))


@dataclass(frozen=True)
class Alphabet:
    """Generators of F_k together with their formal inverses.

    Serialization uses ASCII names: generator i is a letter starting at
    'a', inverses carry a trailing apostrophe ("a b'" style tokens).
    """

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise WordError(f"rank must be >= 1, got {self.rank}")

    @property
    def n_letters(self) -> int:
        return 2 * self.rank

    @property
    def letters(self) -> range:
        return range(2 * self.rank)

    def check_letter(self, s: int) -> int:
        if not isinstance(s, int) or not 0 <= s < self.n_letters:
            raise WordError(f"unknown letter {s!r} for rank {self.rank}")
        return s

    def letter_name(self, s: int) -> str:
        return _letter_names(self.rank)[self.check_letter(s)]

    def letter_from_name(self, tok: str) -> int:
        inv = tok.endswith("'")
        stem = tok[:-1] if inv else tok
        if len(stem) != 1 or not ("a" <= stem <= chr(ord("a") + self.rank - 1)):
            raise WordError(f"unknown letter token {tok!r} for rank {self.rank}")
        return 2 * (ord(stem) - ord("a")) + (1 if inv else 0)

    def format_word(self, w: Word) -> str:
        names = _letter_names(self.rank)
        for s in w:
            if type(s) is not int or not 0 <= s < len(names):
                self.check_letter(s)  # a bool passes, any other bad letter raises
        return " ".join([names[s] for s in w])

    def parse_word(self, text: str) -> Word:
        return self.reduce(self.letter_from_name(t) for t in text.split())

    # -- free reduction and group arithmetic --------------------------------

    def reduce(self, letters: Iterable[int]) -> Word:
        """Unique reduced form of a letter sequence (free cancellation)."""
        out: list[int] = []
        for s in letters:
            self.check_letter(s)
            if out and out[-1] == inverse_letter(s):
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def mul(self, u: Word, v: Word) -> Word:
        out = list(u)
        for s in v:
            if out and out[-1] == inverse_letter(s):
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def inv(self, u: Word) -> Word:
        return tuple(inverse_letter(s) for s in reversed(u))

    def dist(self, u: Word, v: Word) -> int:
        return len(self.mul(self.inv(u), v))

    def reduced_words(self, length: int) -> Iterator[Word]:
        """All reduced words of exactly the given length."""
        if length == 0:
            yield ()
            return
        for w in self.reduced_words(length - 1):
            for s in self.letters:
                if not w or w[-1] != inverse_letter(s):
                    yield w + (s,)


# --------------------------------------------------------------------------
# Boundary words: infinite reduced words given by a letter rule.


class BoundaryWord:
    """A point of the tree boundary: rule producing the n-th letter (n >= 0)."""

    ab: Alphabet

    def letter(self, n: int) -> int:
        raise NotImplementedError

    def prefix(self, n: int) -> Word:
        return tuple(self.letter(i) for i in range(n))

    def key(self):
        """Structural identity; equal keys mean the same boundary point."""
        return id(self)


def _canonical_ep(preamble: Word, period: Word) -> tuple[Word, Word]:
    # primitive period
    p = len(period)
    for d in range(1, p):
        if p % d == 0 and period == period[:d] * (p // d):
            period = period[:d]
            p = d
            break
    # absorb preamble tail into the rotation
    preamble = tuple(preamble)
    while preamble and preamble[-1] == period[-1]:
        preamble = preamble[:-1]
        period = (period[-1],) + period[:-1]
    return preamble, period


@dataclass(frozen=True)
class EventuallyPeriodicWord(BoundaryWord):
    ab: Alphabet
    preamble: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise BoundaryError("period must be nonempty")
        pre, per = _canonical_ep(self.preamble, self.period)
        object.__setattr__(self, "preamble", pre)
        object.__setattr__(self, "period", per)
        seq = list(pre) + list(per) + [per[0]]
        for a, b in zip(seq, seq[1:]):
            self.ab.check_letter(a)
            if b == inverse_letter(a):
                raise BoundaryError("eventually periodic word is not reduced")

    def letter(self, n: int) -> int:
        k = len(self.preamble)
        if n < k:
            return self.preamble[n]
        return self.period[(n - k) % len(self.period)]

    def key(self):
        return ("ep", self.preamble, self.period)


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


def ray_word(ab: Alphabet, stem: Word) -> BoundaryWord:
    """Default ray extension of a finite word.

    The last letter is repeated (always reduced since s != s^-1); the empty
    word extends along the lexicographically first letter.
    """
    if not stem:
        return EventuallyPeriodicWord(ab, (), (0,))
    return EventuallyPeriodicWord(ab, stem, (stem[-1],))


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


# --------------------------------------------------------------------------
# Cylinders (= shadows on the tree) and their basepoint arithmetic.


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


def _translate_stem_set(ab: Alphabet, g: Word, w: Word) -> list[Word]:
    """Origin-based stems whose union is g . [w] (cylinder at the origin)."""
    j = 0
    while j < len(g) and j < len(w) and g[len(g) - 1 - j] == inverse_letter(w[j]):
        j += 1
    if j < len(w):
        return [g[: len(g) - j] + w[j:]]
    # w fully cancelled into g: branch over the continuations of w
    g2 = g[: len(g) - j]
    out: list[Word] = []
    for t in ab.letters:
        if t != inverse_letter(w[-1]):
            out.extend(_translate_stem_set(ab, g2, (t,)))
    return out


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
# Bi-infinite geodesics in the unit tangent space SH.


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
