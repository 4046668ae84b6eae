"""Lexicographic indexing of depth-n cylinder stems for vectorized sums.

Index layout: the first letter contributes letter * (2k-1)^(n-1); each later
letter contributes its branch index (position among the 2k-1 legal successors
of the previous letter) times a power of (2k-1).  Consequently the stems
extending a fixed prefix occupy a contiguous index range, so restriction to a
cylinder is a slice.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .words import Alphabet, Word, inverse_letter

# Letter tables up to this many bytes are built once per (rank, depth) and
# shared; a larger one is built per StemTable and freed with it.  Rank 2
# shares depths up to 10 (787 kB); depth 13 would hold 26 MB for good.
SHARED_LETTERS_BYTES = 1 << 20

# A dense float64 array with one entry per stem (or a shell's spike rows, in
# their dense expansion) is refused above this many bytes, before it is
# allocated.  Rank 2 at depth 13 is 17 MB; rank 3 at depth 12 would be 2.3 GB.
DENSE_BYTES = 1 << 27

# Rows of dense work (a shell's spikes, a translate block's gathers) are
# built this many cells (floats per row times rows) at a time: max(1,
# BUDGET // cells) rows a chunk.
BUDGET = 1 << 16


class DenseArrayError(ValueError):
    """A dense array would exceed DENSE_BYTES; the message names it and its bytes."""


def check_dense(cells: int, what: str, itemsize: int = 8) -> None:
    """Refuse `what`, `cells` entries of `itemsize` bytes (float64 unless
    given), when it would exceed DENSE_BYTES."""
    if itemsize * cells > DENSE_BYTES:
        raise DenseArrayError(f"{what} would take {itemsize * cells} bytes, "
                              f"more than the {DENSE_BYTES} allowed")


class StemTable:
    def __init__(self, ab: Alphabet, depth: int):
        if depth < 1:
            raise ValueError("stem depth must be >= 1")
        self.ab = ab
        self.depth = depth
        k2 = ab.n_letters
        self.branching = k2 - 1
        self.size = k2 * self.branching ** (depth - 1)
        self.child_letters, self.branch_index = _branching(k2)

    # -- one stem: a row of the arrays below -----------------------------------

    def index_of(self, stem: Word) -> int:
        """The index of one stem: a one-row `indices`."""
        return int(self.indices(stem_row(self.ab, stem))[0])

    def stems(self):
        """Every stem as a tuple of letters, in stem order: the rows of `letters`."""
        for row in self.letters:
            yield tuple(row.tolist())

    def prefix_range(self, w: Word) -> tuple[int, int]:
        """Contiguous [lo, hi) of stems extending the reduced word w."""
        if not 1 <= len(w) <= self.depth:
            raise ValueError("prefix length out of range")
        lo, span = StemTable(self.ab, len(w)).index_of(w), self.span(len(w))
        return lo * span, (lo + 1) * span

    def span(self, j: int) -> int:
        """Number of stems extending one length-j prefix (j = 0: every stem)."""
        if not 0 <= j <= self.depth:
            raise ValueError("prefix length out of range")
        return self.size if j == 0 else self.branching ** (self.depth - j)

    def suffix_index(self, idx, first, length: int):
        """Index among the depth-`length` stems of the last `length` letters of
        the stems `idx`, whose first kept letter is `first`: dropping leading
        letters keeps the branch digits of the rest."""
        if not 1 <= length <= self.depth:
            raise ValueError("suffix length out of range")
        span = self.branching ** (length - 1)
        return np.asarray(first, dtype=np.int64) * span + idx % span

    # -- vectorized views ----------------------------------------------------

    @cached_property
    def letters(self) -> np.ndarray:
        """(size, depth) read-only array of stem letters; one that is not
        shared is size-checked before it is built."""
        if self.size * self.depth <= SHARED_LETTERS_BYTES:
            return _shared_letters(self.ab.rank, self.depth)
        check_dense(self.size * self.depth,
                    f"the depth-{self.depth} stem letters of rank {self.ab.rank}", 1)
        return _letters_array(self)

    def indices(self, letters: np.ndarray) -> np.ndarray:
        """index_of for every row of a (count, depth) array of stem letters."""
        letters = np.asarray(letters)
        if letters.ndim != 2 or letters.shape[1] != self.depth:
            raise ValueError(f"expected rows of {self.depth} letters")
        for idx in self.prefix_codes(letters):  # the last code is the whole stem's
            pass
        return idx

    def prefix_codes(self, letters: np.ndarray):
        """Each row's index among the stems of its first i letters, i = 1, 2, ...,
        yielded one letter column at a time; a letter outside 0..2k-1 or a
        row that is not reduced is refused before the first."""
        check_letters(self.ab, letters)
        letters = np.asarray(letters, dtype=np.int64)
        branch = self.branch_index.ravel()[letters[:, :-1] * self.ab.n_letters + letters[:, 1:]]
        if branch.size and branch.min() < 0:
            raise ValueError("stem is not reduced")
        idx = letters[:, 0]
        yield idx
        for col in range(branch.shape[1]):
            idx = idx * self.branching + branch[:, col]
            yield idx

    def blocks(self, values: np.ndarray, j: int) -> np.ndarray:
        """Per-stem values as rows, one row per depth-j cylinder (j = 0: one row)."""
        return values.reshape(-1, self.span(j))

    def extensions(self, words: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The stems extending each row's first `level` letters (0 <= level <=
        n; 0: every stem), in stem order, for a (count, n) letter array of
        reduced words: their letters, (count, span(level), depth), and their
        confluence length with the row, (count, span(level)).

        Past letter `level` such a stem continues as a depth-(depth - level + 1)
        stem from the row's letter `level`, with the same branch digits."""
        count, n = words.shape
        if not 0 <= level <= min(n, self.depth):
            raise ValueError("prefix length out of range")
        check_dense(count * self.span(level) * self.depth,
                    f"the depth-{self.depth} extensions of {count} words", 1)
        if level:
            tail = StemTable(self.ab, self.depth - level + 1).letters
            out = np.empty((count, self.span(level), self.depth), dtype=tail.dtype)
            out[:, :, :level - 1] = words[:, None, :level - 1]
            tail = tail.reshape(self.ab.n_letters, -1, tail.shape[1])  # one block per first letter
            out[:, :, level - 1:] = tail[words[:, level - 1]]
        else:
            out = np.repeat(self.letters[None], count, axis=0)
        top = min(n, self.depth)
        same = out[:, :, level:top] == words[:, None, level:top]
        return out, level + np.logical_and.accumulate(same, axis=2).sum(axis=2)


def window_state_count(ab: Alphabet, w: int) -> int:
    """The number of window states of w letters: the reduced w-letter words,
    one (the empty word) when w = 0."""
    return StemTable(ab, w).size if w else 1


def window_states(ab: Alphabet, letters: np.ndarray) -> np.ndarray:
    """The window-state index of each row of a (count, w) letter array: its
    stem index among the reduced w-letter words, 0 when w = 0."""
    if not letters.shape[1]:
        return np.zeros(len(letters), dtype=np.int64)
    return StemTable(ab, letters.shape[1]).indices(letters)


def _class_values(ab: Alphabet, words: np.ndarray, values: np.ndarray, c: int) -> np.ndarray:
    """The class-c profile values of each row, (count, states), as one value
    per depth-(c + w) cylinder extending the row's first c letters, in stem
    order, w being the window states' length: a cylinder's state is its
    letters past c, the first of them the cylinder's branch below letter
    c - 1.  `words` holds the rows' first c letters or more."""
    count, states = values.shape
    if c == 0 or states == 1:
        return values
    per = states // ab.n_letters  # states of each first letter
    j = np.arange(per * (ab.n_letters - 1))
    first = StemTable(ab, 1).child_letters[words[:, c - 1]][:, j // per]
    return np.take_along_axis(values, first * per + j % per, axis=1)


def _expand(ab: Alphabet, depth: int, words: np.ndarray, profile: np.ndarray,
            block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense (count, size) rows of depth-`depth` stems from profile form (see
    `spikes.SpikeShell`), by nested block writes: class c's values
    (`_class_values`) on the stems extending the row's first c letters, c =
    0..L-1, each over the last, then the block on the stems extending its
    first L letters, each of its values on span(L) / its width stems in a
    row.  The rows are size-checked before they are allocated, or written
    into `out` when given; a dense block (L = 0) already is the rows, and is
    returned as it is unless `out` is given."""
    count, level, _ = profile.shape
    tab = StemTable(ab, depth)
    if out is None and block.shape[1] == tab.size:
        return block
    if out is None:
        check_dense(count * tab.size, f"the depth-{depth} rows of {count} words")
        out = np.empty((count, tab.size))
    rows = np.arange(count)
    codes = [np.zeros(count, dtype=np.int64)]
    if level:
        codes += tab.prefix_codes(words[:, :level])
    for c, code in enumerate(codes):
        vals = _class_values(ab, words, profile[:, c], c) if c < level else block
        at = rows * (tab.size // tab.span(c)) + code
        out.reshape(-1, vals.shape[1], tab.span(c) // vals.shape[1])[at] = vals[:, :, None]
    return out


def word_rows(words) -> np.ndarray:
    """Words of one length as a (count, n) integer letter array."""
    words = list(words)
    return np.array(words, dtype=np.int64).reshape(len(words), len(words[0]) if words else 0)


def stem_row(ab: Alphabet, stem: Word) -> np.ndarray:
    """One word as a (1, n) letter row; a letter outside 0..2k-1 is refused
    with the word named."""
    stem = tuple(stem)
    if stem and not 0 <= min(stem) <= max(stem) < ab.n_letters:
        raise ValueError(f"stem {tuple(map(int, stem))} has a letter outside "
                         f"0..{ab.n_letters - 1}")
    return word_rows([stem])


def check_letters(ab: Alphabet, letters: np.ndarray) -> None:
    """Refuse a (count, n) integer letter array with a letter outside
    0..2k-1, the first such row named; the letters are read as unsigned,
    so that a negative one wraps past the top, and not copied."""
    wrapped = letters.view(letters.dtype.str.replace("i", "u"))
    if wrapped.size and wrapped.max() >= ab.n_letters:
        row = letters[(wrapped >= ab.n_letters).any(axis=1)][0]
        raise ValueError(f"stem {tuple(row.tolist())} has a letter outside "
                         f"0..{ab.n_letters - 1}")


@lru_cache(maxsize=None)
def _branching(k2: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only branching tables shared by every table over 2k = k2 letters.

    child_letters[s, j] is the j-th legal successor of s (ascending);
    branch_index[s, t] is the position j of t among them, -1 when t = s^-1.
    """
    child = np.array([[t for t in range(k2) if t != inverse_letter(s)] for s in range(k2)],
                     dtype=np.int64)
    index = np.full((k2, k2), -1, dtype=np.int64)
    for s in range(k2):
        index[s, child[s]] = np.arange(k2 - 1)
    child.setflags(write=False)
    index.setflags(write=False)
    return child, index


@lru_cache(maxsize=None)
def _shared_letters(rank: int, depth: int) -> np.ndarray:
    return _letters_array(StemTable(Alphabet(rank), depth))


def _letters_array(tab: StemTable) -> np.ndarray:
    depth = tab.depth
    out = np.empty((tab.size, depth), dtype=np.int8)
    out[:, 0] = np.repeat(np.arange(tab.ab.n_letters), tab.span(1))
    rem = np.arange(tab.size) % tab.span(1)
    for col in range(1, depth):
        j, rem = np.divmod(rem, tab.span(col + 1))
        out[:, col] = tab.child_letters[out[:, col - 1], j]
    out.setflags(write=False)
    return out
