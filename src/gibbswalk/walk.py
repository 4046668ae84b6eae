"""Random-walk step laws assembled from a decomposition, and their checks.

The step mass at g is the accumulated spike weight times the unit spike's L1
norm.  Stationarity of the target density holds up to the recorded residual:
the support is finite (truncated series), so the convolution identity is
verified on cylinders with a certified error rather than exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cylfun import CylinderFunction
from .decompose import Decomposition
from .gibbs import GibbsStream
from .stems import StemTable
from .words import Alphabet, Word, _translate_stem_set


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class WalkMeasure:
    ab: Alphabet
    masses: dict          # g -> positive mass
    base: Word = ()

    @property
    def total(self) -> float:
        return sum(self.masses.values())

    def save(self, path) -> None:
        payload = {
            "rank": self.ab.rank,
            "base": self.ab.format_word(self.base),
            "masses": {self.ab.format_word(g): m for g, m in sorted(self.masses.items())},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "WalkMeasure":
        with open(path) as fh:
            payload = json.load(fh)
        ab = Alphabet(payload["rank"])
        masses: dict = {}
        for key, m in payload["masses"].items():
            g = tuple(ab.letter_from_name(t) for t in key.split())
            if ab.reduce(g) != g or g in masses:
                raise ValueError(f"walk mass key {key!r} is not a distinct reduced word")
            masses[g] = float(m)
        return cls(ab=ab, masses=masses, base=ab.parse_word(payload.get("base", "")))


def assemble_walk(dec: Decomposition, S: GibbsStream) -> WalkMeasure:
    """Step law mu(g) = weight(g) * |f_g|_1 over the decomposition support."""
    if not dec.entries:
        raise ValueError("decomposition has no entries to assemble")
    masses = {g: w * dec.spike_l1[g] for g, w in dec.entries.items() if w > 0}
    return WalkMeasure(ab=S.ab, masses=masses)


def convolved_density_masses(mu: WalkMeasure, F: CylinderFunction, S: GibbsStream,
                             depth: int) -> np.ndarray:
    """Cylinder masses of sum_g mu(g) * g_*(F d nu) at the given depth.

    Built directly from translated cylinders and the stream's mass arrays,
    independently of the spike machinery.  g^-1 maps a stem w that leaves g
    after j < depth letters onto the one cylinder g^-1[:|g| - j] + w[j:]; the
    stem g[:depth] maps onto a union of pieces.  A piece's integral of F dnu
    is the dot of F and nu over its range at depth max(depth(F), |piece|),
    a single product when the piece is that long.  The pieces are gathered
    for every (g, stem) at once, grouped by length; the sums run in
    (g, stem, piece) order.
    """
    ab = mu.ab
    tab = StemTable(ab, depth)
    support = sorted(mu.masses)
    deep: dict[int, tuple] = {}  # piece depth -> (F values, nu masses)

    def integrals(pieces: np.ndarray) -> np.ndarray:
        """F dnu over the cylinder of each row, the rows all one length n."""
        n = pieces.shape[1]
        d = max(F.depth, n)
        if d not in deep:
            deep[d] = (F.refine(d).values, S.mass_array(d))
        fv, mv = deep[d]
        at = StemTable(ab, n).indices(pieces)
        if d == n:
            return fv[at] * mv[at]
        span = tab.branching ** (d - n)
        return np.array([float(fv[i * span:(i + 1) * span] @ mv[i * span:(i + 1) * span])
                         for i in at.tolist()])

    totals = np.zeros((len(support), tab.size))  # per (g, stem): its pieces summed
    owners, whole = [], []  # (g, stem) of each stem g[:depth], and its pieces
    for n in sorted({len(g) for g in support}):
        own = np.array([k for k, g in enumerate(support) if len(g) == n])
        gs = np.array([support[k] for k in own], dtype=np.int64).reshape(len(own), n)
        ginv = gs[:, ::-1] ^ 1  # g^-1: the inverse letters (s ^ 1), read backwards
        shared = min(n, depth)
        agree = gs[:, None, :shared] == tab.letters[None, :, :shared]
        conf = np.cumprod(agree, axis=2).sum(axis=2)  # letters each stem shares with g
        for j in range(min(shared + 1, depth)):
            gi, si = np.nonzero(conf == j)
            if gi.size:
                pieces = np.column_stack([ginv[gi, :n - j], tab.letters[si, j:]])
                totals[own[gi], si] = integrals(pieces)
        if n >= depth:
            for k in own.tolist():
                head = support[k][:depth]
                owners.append((k, tab.index_of(head)))
                whole.append(_translate_stem_set(ab, ab.inv(support[k]), head))
    flat = [piece for pieces in whole for piece in pieces]
    lengths = np.array([len(piece) for piece in flat], dtype=np.int64)
    dots = np.empty(len(flat))
    for n in sorted(set(lengths.tolist())):  # np.unique would load numpy.ma
        rows = np.flatnonzero(lengths == n)
        dots[rows] = integrals(np.array([flat[r] for r in rows.tolist()], dtype=np.int64))
    start = 0
    for (k, i), pieces in zip(owners, whole):
        total = 0.0
        for dot in dots[start:start + len(pieces)].tolist():
            total += dot
        totals[k, i], start = total, start + len(pieces)
    out = np.zeros(tab.size)
    for g, row in zip(support, totals):
        out += mu.masses[g] * row
    return out


def density_masses(F: CylinderFunction, S: GibbsStream, depth: int) -> np.ndarray:
    """Cylinder masses of F d nu at the given depth: F and nu are multiplied
    at depth max(depth(F), depth) and summed over each depth cylinder."""
    d = max(F.depth, depth)
    deep = F.refine(d).values * S.mass_array(d)
    return StemTable(S.ab, d).blocks(deep, depth).sum(axis=1)


def stationarity_error(mu: WalkMeasure, F: CylinderFunction, S: GibbsStream,
                       depth: int) -> float:
    """L1 distance on depth cylinders between mu * (F nu) and F nu."""
    conv = convolved_density_masses(mu, F, S, depth)
    return float(np.abs(conv - density_masses(F, S, depth)).sum())


@dataclass(frozen=True)
class WalkStats:
    first_moment: float
    log_moment: float
    entropy: float
    superexponential: bool | None


def walk_statistics(mu: WalkMeasure) -> WalkStats:
    """First moment, log moment, entropy; flags superexponential weight decay
    across word-length shells (the sufficient condition for finite entropy)."""
    first = sum(m * len(g) for g, m in mu.masses.items())
    logm = sum(m * math.log1p(len(g)) for g, m in mu.masses.items())
    ent = -sum(m * math.log(m) for m in mu.masses.values() if m > 0)
    shells: dict[int, float] = {}
    for g, m in mu.masses.items():
        shells[len(g)] = max(shells.get(len(g), 0.0), m)
    flag: bool | None = None
    ls = sorted(shells)
    if len(ls) >= 3:
        slopes = [math.log(shells[b]) - math.log(shells[a]) for a, b in zip(ls, ls[1:])]
        flag = all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
    return WalkStats(first_moment=first, log_moment=logm, entropy=ent, superexponential=flag)


def nondegenerate_support(mu: WalkMeasure) -> bool:
    """Support generates a nonelementary subgroup: two non-commuting elements."""
    gs = [g for g in mu.masses if g]
    for i, g1 in enumerate(gs):
        for g2 in gs[i + 1:]:
            if mu.ab.mul(g1, g2) != mu.ab.mul(g2, g1):
                return True
    return False


@dataclass(frozen=True)
class HittingReport:
    depth: int
    n_paths: int
    empirical: dict      # stem -> fraction of paths
    stderr: dict
    failures: int


# Paths advance together in chunks of HIT_CHUNK; each path's steps are
# drawn HIT_BLOCK at a time, a later block holding only the draws past the
# last one.  A block's uniforms are made and drawn HIT_SLAB at a time, and
# only its step indices and summed drawn lengths are kept, small integers:
# 1 MB for a chunk's first block of an int16 step law at these sizes.
HIT_CHUNK = 4096
HIT_BLOCK = 64
HIT_SLAB = 1 << 14
# Letters of a step applied in one pass: a piece of the step's inverse and
# its end marker fit one 8-byte word, one byte a letter.
PIECE = 7
_NONE = np.int64(2) ** 62  # a stop target no path reaches
_DONE = -_NONE             # the appended-letter count of a finished path
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment


class _Scratch:
    """Work arrays reused so that their pages are mapped once, not once per
    chunk: each name keeps one flat byte buffer, grown to the largest
    request, and a request is a view of its start.  A `_hitting_codes` call
    keeps one for the blocks and word rows of all its chunks; a block keeps
    one for its slabs, which is freed before the paths step, so that it
    adds nothing to the peak."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self.word_width = 0  # of the widest `_Words` rows so far

    def __call__(self, name: str, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        flat = self._flat.get(name)
        if flat is None or len(flat) < size:
            flat = self._flat[name] = np.empty(size, dtype=np.uint8)
        return flat[:size].view(dtype).reshape(shape)

    def hold(self, name: str, flat: np.ndarray) -> None:
        """Keep `flat` as the buffer of `name`, in place of a smaller one."""
        self._flat[name] = flat


def _split(state, j, out=None, tmp=None) -> np.ndarray:
    """Output j of SplitMix64 run from `state`, mix64(state + (j + 1) * gamma)
    mod 2^64, for uint64 arrays that broadcast (Steele, Lea and Flood, 2014);
    written into `out`, with `tmp` for the shifts, when given."""
    z = np.add(state, (j + np.uint64(1)) * _GAMMA, out=out)
    z ^= np.right_shift(z, 30, out=tmp)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=tmp)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _uniform_rows(seed: int, paths: np.ndarray, t0: int, t1: int,
                  scratch: _Scratch | None = None) -> np.ndarray:
    """Uniforms t0..t1-1 of each path under `seed`, one row per path, in
    `scratch` arrays when given.

    Uniform j of path i is (output j of SplitMix64 from key(seed, i)) >> 11
    times 2^-53, key(seed, i) being output i from base(seed), and base(seed)
    output 0 from seed mod 2^64: a pure function of (seed, i, j)."""
    scratch = scratch or _Scratch()
    shape = (len(paths), t1 - t0)
    keys = _split(_split(np.array([seed % 2**64], dtype=np.uint64), 0),  # base(seed)
                  np.asarray(paths, dtype=np.uint64))                      # key(seed, i)
    z = _split(keys[:, None], np.arange(t0, t1, dtype=np.uint64),
               scratch("slab", shape, np.uint64), scratch("slab work", shape, np.uint64))
    return np.multiply(np.right_shift(z, 11, out=z), 2.0 ** -53, out=z.view(np.float64))


@dataclass(frozen=True)
class _StepLaw:
    """A step law as the hitting kernel reads it.

    Step i of the sorted support is drawn for a uniform u when i is the
    number of `cum` entries below u, as `bisect_left` finds it.  `bucket`
    answers that count for u in [k/nb, (k+1)/nb) when no `cum` entry lies
    in that bucket, and -1 otherwise.  A step is applied in pieces of at
    most PIECE letters; the tables of piece q are indexed by 8 * step + c,
    where c is the number of the piece's letters cancelled:
    `inverse[q, 8 * step]` holds the piece's inverse letters plus one, the
    first in the lowest byte, then the end marker 0xFF; `length[q, 8 * step]`
    its letter count; `append[q, 8 * step + c]` its letters c.. plus one,
    the first in the highest byte.
    """
    cum: np.ndarray
    bucket: np.ndarray
    step_len: np.ndarray
    inverse: np.ndarray
    length: np.ndarray
    append: np.ndarray

    @classmethod
    def of(cls, mu: WalkMeasure) -> "_StepLaw":
        support = sorted(mu.masses)
        weights = np.array([mu.masses[g] for g in support])
        cum = np.cumsum(weights / weights.sum())
        # the sum can end a few ulps either side of 1: every uniform is below 1,
        # so clipping changes no draw, and none may pass the last step
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0
        nb = 1 << min((16 * len(support)).bit_length(), 16)
        below = np.searchsorted(cum, np.arange(nb + 1) / nb, side="left")  # exact edges
        bucket = np.where(below[:-1] == below[1:], below[:-1], -1)
        lengths = np.array([len(g) for g in support])
        pieces = max(1, -(-int(lengths.max()) // PIECE))
        letters = np.zeros((len(support), pieces * PIECE), dtype=np.uint64)  # plus one
        for i, g in enumerate(support):
            letters[i, :len(g)] = np.array(g) + 1
        rows = np.arange(len(support))
        inverse = np.zeros((pieces, 8 * len(support)), dtype=np.uint64)
        length = np.zeros((pieces, 8 * len(support)), dtype=np.intp)
        append = np.zeros((pieces, len(support), 8), dtype=np.uint64)
        for q in range(pieces):
            piece = letters[:, q * PIECE:(q + 1) * PIECE]
            size = np.clip(lengths - q * PIECE, 0, PIECE)
            inv = np.zeros((len(support), 8), dtype=np.uint64)
            inv[:, :PIECE] = np.where(piece > 0, ((piece - 1) ^ 1) + 1, 0)
            inv[rows, size] = 0xFF
            inverse[q, ::8] = (inv << 8 * np.arange(8, dtype=np.uint64)).sum(axis=1)
            length[q, ::8] = size
            top = (piece << 8 * np.arange(7, 0, -1, dtype=np.uint64)).sum(axis=1)  # letter 0 in byte 7
            append[q] = top[:, None] << 8 * np.arange(8, dtype=np.uint64)  # letters c.. on top
        return cls(cum, bucket.astype(np.min_scalar_type(-len(support))),
                   lengths.astype(np.min_scalar_type(-int(lengths.max()))), inverse, length,
                   append.reshape(pieces, -1))

    def draw(self, u: np.ndarray, scratch: _Scratch | None = None) -> np.ndarray:
        """Step indices for an array of uniforms, as `bisect_left` on `cum`
        gives them, in `scratch` arrays when given."""
        scratch = scratch or _Scratch()
        nb = len(self.bucket)
        u *= nb  # exact: nb is a power of two
        bucket = scratch("slab work", u.shape, np.int32)  # free once the uniforms are made
        np.copyto(bucket, u, casting="unsafe")  # as astype: truncated
        steps = self.bucket.take(bucket, out=scratch("draws", u.shape, self.bucket.dtype),
                                 mode="clip")  # every bucket is in range
        split = np.flatnonzero(steps < 0)
        steps.reshape(-1)[split] = np.searchsorted(self.cum * nb, u.reshape(-1)[split],
                                                   side="left")
        return steps


def _draw_block(seed: int, paths: np.ndarray, law: _StepLaw, t0: int, t1: int,
                scratch: _Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Steps t0..t1-1 of each of `paths`, one row per step, and `drawn_to`,
    whose row k sums the drawn lengths of each path's steps t0..t0+k-1; in
    `scratch` arrays when given, which the next block overwrites.

    The uniforms of about HIT_SLAB draws at a time are made and drawn, in
    the block's own work arrays, so that no array of doubles the size of
    the block exists."""
    scratch = scratch or _Scratch()
    span = t1 - t0
    steps = scratch("steps", (span, len(paths)), law.bucket.dtype)
    drawn_to = scratch("drawn_to", (span + 1, len(paths)),
                       np.min_scalar_type(-int(law.step_len.max(initial=0)) * span))
    drawn_to[0] = 0
    per = max(1, HIT_SLAB // span)
    work = _Scratch()
    for lo in range(0, len(paths), per):
        slab = law.draw(_uniform_rows(seed, paths[lo:lo + per], t0, t1, work), work).T
        steps[:, lo:lo + per] = slab
        drawn_to[1:, lo:lo + per] = law.step_len.take(slab)
    for k in range(1, span + 1):  # row by row: cumsum along axis 0 is slower
        drawn_to[k] += drawn_to[k - 1]
    return steps, drawn_to


class _Words:
    """The reduced words of a chunk's rows, each stored backwards.

    Row i owns byte row `slot[i]` of `width` + 8 columns: letter p plus one
    at column `width` - 1 - p, then 8 zero bytes.  `at[i]` is the flat
    offset of the column of row i's last letter, so `tail[at]` reads each
    word's 8 last letters (the last in the lowest byte, zeros past the
    word's start) and `end[at]` writes 8 bytes whose highest byte lands
    just past the last letter.  `cut[i]` is the largest `at[i]` of a word
    at least max(depth, 1) letters long.

    The byte rows are the call's scratch buffer "words": a chunk starts as
    wide as the widest rows so far (`_Scratch.word_width`), dropped rows
    keep their byte rows, and widening lays the rows out in a new buffer
    that the scratch then holds.
    """

    def __init__(self, n: int, depth: int, scratch: _Scratch | None = None):
        self.depth = depth
        self._scratch = scratch or _Scratch()
        self.width = max(64, depth + 8, self._scratch.word_width)
        flat = self._scratch("words", (8 + n * (self.width + 8),), np.uint8)
        flat[:] = 0
        self._lay_out(flat, np.zeros(n, dtype=np.intp))

    def _row_end(self, rows) -> np.ndarray:
        return self.slot[rows] * (self.width + 8) + self.width

    def lengths(self, rows=None) -> np.ndarray:
        if rows is None:
            rows = np.arange(len(self.at))
        return self._row_end(rows) - self.at[rows]

    def _lay_out(self, flat: np.ndarray, lengths: np.ndarray) -> None:
        """Take `flat`, whose byte rows hold the words in order, one a row."""
        self.flat, self.slot = flat, np.arange(len(lengths))
        row_end = self._row_end(self.slot)
        self.at = row_end - lengths
        self.cut = row_end - max(self.depth, 1)
        self.tail = np.ndarray((len(flat) - 15,), np.uint64, flat, 8, (1,))
        self.end = np.ndarray((len(flat) - 7,), np.uint64, flat, 0, (1,))

    def keep(self, rows: np.ndarray) -> None:
        """Keep only `rows`; their byte rows stay where they are."""
        self.slot, self.at, self.cut = self.slot[rows], self.at[rows], self.cut[rows]

    def make_room(self, longest: int) -> None:
        """Widen the rows, if needed, so that words `longest` letters long fit."""
        if longest > self.width - 8:
            width, lengths = 2 * longest + 8, self.lengths()
            flat = np.zeros(8 + len(lengths) * (width + 8), dtype=np.uint8)
            flat[8:].reshape(-1, width + 8)[:, width - self.width:] = \
                self.flat[8:].reshape(-1, self.width + 8)[self.slot]
            self.width = self._scratch.word_width = width
            self._scratch.hold("words", flat)
            self._lay_out(flat, lengths)

    def codes(self, rows: np.ndarray, place: np.ndarray) -> np.ndarray:
        """The rows' depth-prefix codes, with digit weights `place`, plus
        sum(place); sum(place) - 1 for a word shorter than depth."""
        first = self._row_end(rows) + 8 - self.depth  # flat offset of letter depth - 1
        code = np.zeros(len(rows), dtype=np.int64)
        for j, weight in enumerate(place):  # letter depth - 1 - j
            code += self.flat.take(first + j) * weight
        code[self.at.take(rows) + 8 > first] = place.sum() - 1  # a word shorter than depth
        return code


# The cancellation of a piece is the number of trailing zero bytes of a
# word's 8 last letters XOR the piece's inverse, read from the float
# exponent of its lowest set bit.
_TRAILING_BYTES = np.zeros(1087, dtype=np.intp)
_TRAILING_BYTES[1023:] = np.arange(64) >> 3


def _hit_chunk(seed: int, paths: np.ndarray, law: _StepLaw, n_letters: int, depth: int,
               stabilize: int, step_cap: int, scratch: _Scratch | None = None) -> np.ndarray:
    """Final depth-prefix code of each of `paths`, -1 if it never stabilized.

    Live paths advance one step per pass; their words are `_Words` rows.
    The code of a prefix is its letters in base n_letters, -1 for a word
    shorter than `depth`; it is recomputed only on rows whose step cut the
    word below `depth`.

    A path whose code appeared at step t records it at step
    due = t + max(stabilize - 1, 1), if due < step_cap and the prefix holds.
    No step cancels more letters than its own length, so a word whose
    length minus `depth` covers the summed lengths of its steps up to `due`
    keeps its prefix until then: the path stops with its code at once.
    Steps beyond the drawn block count as the longest step.  The length of
    a word plus the drawn lengths up to its step is `start` + 2 * `grown`,
    with `grown` the letters appended since the block began, so the test is
    `grown` >= `target`.  Finished rows stay, with `grown` = _DONE, until
    the next block or until half the rows are finished.
    """
    reach = int(law.step_len.max(initial=0))
    hold = max(stabilize - 1, 1)
    place = n_letters ** np.arange(depth, dtype=np.int64)  # of letter depth - 1 - j
    shift = int(place.sum())  # codes are kept plus `shift`: the letters are stored plus one
    out = np.full(len(paths), -1, dtype=np.int64)
    live = np.arange(len(paths))  # chunk index of each row
    words = _Words(len(paths), depth, scratch)
    code = np.full(len(paths), shift - 1, dtype=np.int64)
    due = np.zeros(len(paths), dtype=np.int64)
    grown = np.zeros(len(paths), dtype=np.int64)
    longest = finished = t0 = t1 = 0

    def drop_finished():
        nonlocal live, code, due, grown, target, start, row, finished
        keep = np.flatnonzero(grown >= 0)
        words.keep(keep)
        live, code, due, grown, target, start, row = (
            live[keep], code[keep], due[keep], grown[keep], target[keep], start[keep],
            row[keep])
        finished = 0

    def targets(rows, when):
        """Stop targets of `rows` whose codes fall due at steps `when`."""
        j = np.clip(when + 1, t0, t1)
        drawn = drawn_to[j - t0, row[rows]] + np.int64(reach) * (when + 1 - j)
        return np.where((when < step_cap) & (code[rows] >= shift),
                        (depth + drawn - start[rows] + 1) // 2, _NONE)

    row = target = start = None
    for t in range(step_cap):
        if t == t1:
            if finished:
                drop_finished()
            t0, t1 = t1, min(max(2 * t1, HIT_BLOCK), step_cap)
            steps, drawn_to = _draw_block(seed, paths[live], law, t0, t1, scratch)
            row = np.arange(len(live))
            start = words.lengths()
            grown[:] = 0
            target = targets(row, due)
        if longest + reach > words.width - 8:
            longest = int(words.lengths().max(initial=0))
            words.make_room(longest + reach)
        longest += reach
        at = words.at
        s = np.left_shift(steps[t - t0].take(row), 3, dtype=np.intp)
        low = False
        for q in range(len(law.inverse)):
            x = words.tail[at] ^ law.inverse[q].take(s)
            c = _TRAILING_BYTES.take((x & (0 - x)).astype(np.float64).view(np.int64) >> 52)
            at += c
            low = low | (at > words.cut)
            words.end[at] = law.append[q].take(s + c)
            a = law.length[q].take(s) - c
            at -= a
            grown += a
        if low.any():
            rows = np.flatnonzero(low)
            new = words.codes(rows, place)
            moved = new != code[rows]
            if moved.any():
                rows = rows[moved]
                code[rows] = new[moved]
                due[rows] = t + hold
                target[rows] = targets(rows, t + hold)
        done = grown >= target
        if done.any():
            rows = np.flatnonzero(done)
            out[live[rows]] = code[rows] - shift
            grown[rows] = _DONE
            finished += len(rows)
            if finished == len(live):
                break
            if 2 * finished >= len(live):
                drop_finished()
    return out


def _hitting_codes(mu: WalkMeasure, n_paths: int, depth: int, seed: int, stabilize: int,
                   step_cap: int) -> np.ndarray:
    """Final depth-prefix code of each path, -1 for a path that never stabilized."""
    law = _StepLaw.of(mu)
    scratch = _Scratch()  # the chunks' work arrays, mapped once
    outcome = np.full(n_paths, -1, dtype=np.int64)
    for lo in range(0, n_paths, HIT_CHUNK):
        hi = min(lo + HIT_CHUNK, n_paths)
        outcome[lo:hi] = _hit_chunk(seed, np.arange(lo, hi), law, mu.ab.n_letters, depth,
                                    stabilize, step_cap, scratch)
    return outcome


def simulate_hitting(mu: WalkMeasure, n_paths: int, depth: int, seed: int,
                     stabilize: int = 50, step_cap: int = 2000,
                     check_support: bool = True) -> HittingReport:
    """Empirical boundary hitting distribution on depth cylinders.

    Each path multiplies i.i.d. steps until its depth prefix has persisted
    for `stabilize` consecutive steps.  Step j of path i bisects the
    cumulative step law at u(seed, i, j), a SplitMix64 output keyed by the
    seed and then by the path (`_uniform_rows`), so the result does not
    depend on how paths are grouped or how far a block reaches.  Paths
    advance together, one step per numpy pass, in chunks of HIT_CHUNK
    paths.  Degenerate step laws (deterministic walks) are allowed only
    with `check_support=False`.
    """
    if check_support and not nondegenerate_support(mu):
        raise SimulationError("support does not generate a nonelementary subgroup")
    n_letters = mu.ab.n_letters
    if n_letters ** depth >= 2 ** 62:
        raise ValueError(f"depth {depth} cylinders of rank {mu.ab.rank} overflow the prefix code")
    outcome = _hitting_codes(mu, n_paths, depth, seed, stabilize, step_cap)
    failures = int((outcome < 0).sum())
    if failures > 0.001 * n_paths:
        raise SimulationError(f"{failures} paths failed to stabilize")
    codes, first, counts = np.unique(outcome[outcome >= 0], return_index=True,
                                     return_counts=True)
    emp = {}
    for k in np.argsort(first):  # the order in which a path first reached each stem
        code, stem = int(codes[k]), []
        for _ in range(depth):
            code, s = divmod(code, n_letters)
            stem.append(s)
        emp[tuple(reversed(stem))] = int(counts[k]) / n_paths
    err = {g: math.sqrt(p * (1 - p) / n_paths) for g, p in emp.items()}
    return HittingReport(depth=depth, n_paths=n_paths, empirical=emp, stderr=err,
                         failures=failures)


def chi2_compatibility(r1: HittingReport, r2: HittingReport) -> float:
    """Two-sample chi-square p-value that the two runs share a distribution."""
    stems = sorted(set(r1.empirical) | set(r2.empirical))
    n1, n2 = r1.n_paths, r2.n_paths
    stat = 0.0
    dof = 0
    for g in stems:
        c1 = r1.empirical.get(g, 0.0) * n1
        c2 = r2.empirical.get(g, 0.0) * n2
        pooled = (c1 + c2) / (n1 + n2)
        if pooled == 0:
            continue
        stat += (c1 - n1 * pooled) ** 2 / (n1 * pooled)
        stat += (c2 - n2 * pooled) ** 2 / (n2 * pooled)
        dof += 1
    return chi2_sf(max(dof - 1, 1), stat)


def chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with `dof` degrees of freedom, an integer.

    This is the regularized upper gamma Q(a, y) with a = dof/2, y = x/2.
    For y >= a it is the closed form: for even dof,
    e^-y * sum_{j < a} y^j / j!, and for odd dof, erfc(sqrt y) plus
    e^-y * sum_{j=1}^{a-1/2} y^(j-1/2) / Gamma(j+1/2).  For y < a it is
    1 - P(a, y), P by its series e^-y y^a / Gamma(a+1) *
    sum_n y^n / ((a+1)...(a+n)), so that results near 1 do not carry the
    closed form's rounding and Q does not increase with x.  Each term is
    one exp of a log-space sum, so no term overflows at any dof or x.

    Relative error: below 1e-12 for dof <= 400 wherever Q is a normal
    float.  A term's exponent has parts of size at most
    B = y + a |ln y| + ln Gamma(a + 1), so rounding costs the term about
    B * 2^-53 relative, and a sum of positive terms no more; for y < a,
    Q >= 0.3, so 1 - P loses little to cancellation.
    """
    if dof < 1 or dof != int(dof):
        raise ValueError(f"degrees of freedom must be a positive integer, not {dof!r}")
    a, y = 0.5 * dof, 0.5 * x
    if not y > 0:  # x <= 0, or x/2 underflows to 0
        return 1.0
    if y == math.inf:
        return 0.0
    ly = math.log(y)
    if y < a:
        term = total = 1.0
        n = 0
        while term > total * 2.0 ** -53:
            n += 1
            term *= y / (a + n)
            total += term
        return 1.0 - math.exp(a * ly - y - math.lgamma(a + 1.0)) * total
    h = 0.5 * (dof % 2)  # the half in the odd dof's half-integer powers
    terms = [math.exp((j - h) * ly - y - math.lgamma(j + 1.0 - h))
             for j in range(dof % 2, (dof + 1) // 2)]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)
