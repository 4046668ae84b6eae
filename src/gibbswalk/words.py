"""Free group F_k, its Cayley tree, boundary words, and cylinder translation.

Letters are small ints 0..2k-1 with inverse(s) = s ^ 1, so generator i is
letter 2i and its inverse 2i+1.  A reduced word is a plain tuple of letters
with no adjacent (s, inverse(s)) pair; the empty tuple is the basepoint.
Edge length is 1 throughout, so every vertex distance is an exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def ray_word(ab: Alphabet, stem: Word) -> BoundaryWord:
    """Default ray extension of a finite word.

    The last letter is repeated (always reduced since s != s^-1); the empty
    word extends along the lexicographically first letter.
    """
    if not stem:
        return EventuallyPeriodicWord(ab, (), (0,))
    return EventuallyPeriodicWord(ab, stem, (stem[-1],))


# --------------------------------------------------------------------------
# A translated cylinder as origin stems.


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
