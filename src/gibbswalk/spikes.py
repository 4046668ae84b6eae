"""The decay kernel on the boundary, spike construction, and certification.

A spike is a positive boundary function concentrated on a shadow ball and
dominated off the ball by integrals of the kernel; the derivative spikes of
the Gibbs stream are measured against the symmetrized potential's kernel,
with the reference measure a registered parameter (every certificate names
it).  All suprema and integrals run over cylinder classes, so certification
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# translate_function stays a module attribute here: tracing wraps it by this name
from .cylfun import (CylinderFunction, block_extrema, holder_rows, inverse_head, scale_depth,
                     translate_at, translate_function)
from .gibbs import GibbsStream, critical_exponent, hausdorff_stream
from .potentials import Potential, min_cycle_mean, sym_potential, window_graph
from .stems import (BUDGET, StemTable, _class_values, _expand, check_dense, window_state_count,
                    window_states, word_rows)
from .words import Alphabet, BoundaryWord, Word, ray_word


# the audited grid of the decay certificate: ball radii (ascending), kernel
# times, and the depth of the stems whose rays are the audited centres x
R_GRID = (0.0, math.e ** -4, math.e ** -3, math.e ** -2, math.e ** -1, 1.0)
S_GRID = tuple(range(13)) + (2.5,)
X_DEPTH = 3


class CertificationError(RuntimeError):
    """A certificate failed; `witness`, when set, is a JSON-ready dict naming where."""

    def __init__(self, msg: str, witness: dict | None = None):
        super().__init__(msg)
        self.witness = witness


class NotASpikeError(RuntimeError):
    pass


@dataclass(frozen=True)
class DecayCert:
    """Certified tail bound: sup_x int_{X - ball(x,r)} G dnu <= C_G e^{-a s} / max(e^s r, 1)^b."""

    C_G: float
    alpha_G: float
    beta_G: float
    nu_id: str
    kernel_id: str
    r_grid: tuple
    s_grid: tuple


# --------------------------------------------------------------------------
# Exact kernel integrals over cylinders (backward recursion on the window chain).


class _KernelIntegrator:
    """integral over [prefix] of exp(-2 d^K along y from c to s) dnu(y).

    Kernel windows look forward, so factors are emitted when their last
    letter arrives.  Continuations run on the kernel's window chain, whose
    next-letter law is nu's (nu's windows are no longer than the kernel's),
    so the expected factor over continuations depends on the prefix only
    through its last window: one backward vector per (|prefix|, c, s) serves
    every prefix.  `integrals` takes prefixes as letter rows of one length
    with their nu masses (`GibbsStream.stem_masses`); rows shorter than the
    kernel's windows are summed over their children, whose masses are read
    once per row set.
    """

    def __init__(self, nu: GibbsStream, kernel: Potential):
        mK, mnu = kernel.depth, nu.depth_m
        if mK < mnu:
            raise ValueError("kernel windows must be at least as long as the measure's")
        self.nu, self.K = nu, kernel
        _, self._succ, self._phi, _ = window_graph(kernel)
        self._tab = tab = StemTable(kernel.ab, mK)
        # nu(next letter | window): mass ratios of the window's last mnu letters
        u = tab.suffix_index(np.arange(tab.size), tab.letters[:, mK - mnu], mnu)
        kids = StemTable(kernel.ab, mnu + 1).blocks(nu.mass_array(mnu + 1), mnu)
        self._next_prob = kids[u] / nu.mass_array(mnu)[u][:, None]
        self._backward: dict = {}
        self._children: dict = {}

    def _continuation(self, n: int, c: int, s: float) -> np.ndarray:
        """Expected kernel factor over letters n+1..ceil(s)-1+mK, per window at letter n."""
        key = (n, c, s)
        if key not in self._backward:
            mK = self.K.depth
            v = np.ones(len(self._phi))
            for i in range(math.ceil(s) - 2 + mK, n - 1, -1):
                p = i + 1 - mK  # edge completed by letter i+1
                w = self._next_prob
                if p >= c:
                    frac = min(s, p + 1.0) - p
                    w = w * np.array([math.exp(-2.0 * frac * k) for k in self._phi])[self._succ]
                # successor terms added one at a time, in letter order
                v = sum(w[:, j] * v[self._succ[:, j]] for j in range(self._succ.shape[1]))
            self._backward[key] = v
        return self._backward[key]

    def integrals(self, rows: np.ndarray, masses: np.ndarray, c: int, s: float) -> np.ndarray:
        """The integral over each row's cylinder, for (count, n) letter rows,
        n >= c, and their nu masses."""
        n = rows.shape[1]
        if c > n:
            raise ValueError("kernel start beyond the prefix")
        if s <= c:
            return masses
        mK = self.K.depth
        if n < mK:  # a block sum over the children, in letter order
            key = (rows.dtype.str, rows.shape, rows.tobytes())
            if key not in self._children:
                kids = self._tab.child_letters[rows[:, -1]]
                grown = np.column_stack([np.repeat(rows, kids.shape[1], axis=0), kids.ravel()])
                self._children[key] = grown, self.nu.stem_masses(grown)
            grown, kid_masses = self._children[key]
            vals = self.integrals(grown, kid_masses, c, s)
            return _add_columns(np.zeros(len(rows)), vals.reshape(len(rows), self._tab.branching))
        last_edge = math.ceil(s) - 1  # edge p covers letters p+1 .. p+mK (1-indexed)
        out = masses
        edges = range(c, min(last_edge, n - mK) + 1)
        if edges:
            fixed = np.zeros(len(out))
            for p in edges:
                win = self._tab.indices(rows[:, p:p + mK])
                fixed += (min(s, p + 1.0) - p) * self._phi[win]
            # math.exp once per distinct exponent
            u, at = np.unique(fixed, return_inverse=True)
            out = np.array([math.exp(-2.0 * f) for f in u.tolist()])[at] * out
        if last_edge + mK <= n:  # no edge reaches past the prefix
            return out
        return out * self._continuation(n, c, s)[self._tab.indices(rows[:, -mK:])]


def _add_columns(total: np.ndarray, block: np.ndarray) -> np.ndarray:
    """total plus block's columns, added one at a time from the left."""
    for col in block.T:
        total = total + col
    return total


# --------------------------------------------------------------------------
# The registry: kernel potential + reference measure + decay constants.


class SpikeLab:
    """Derivative-spike workshop for one Gibbs stream.

    The kernel is the symmetrized zero-pressure potential (derivatives are
    spikes for that kernel); `nu_id` registers the reference measure used in
    every integral: "hausdorff" (the zero-potential stream) or "gibbs" (the
    target stream itself).
    """

    def __init__(self, S: GibbsStream, nu_id: str = "hausdorff"):
        self.S = S
        self.ab = S.ab
        self.kernel = sym_potential(S.potential)
        self.nu_id = nu_id
        if nu_id == "hausdorff":
            self.nu = hausdorff_stream(S.ab, 1)
        elif nu_id == "gibbs":
            self.nu = S
        else:
            raise ValueError(f"unknown reference measure {nu_id!r}")
        self.alpha = math.log(S.ab.n_letters - 1)
        kernel_pressure = critical_exponent(self.kernel)
        mcm, _ = min_cycle_mean(self.kernel)
        self.beta = mcm - kernel_pressure
        if self.beta <= 0:
            raise CertificationError("kernel potential has no positive geodesic average")
        self._integrator = _KernelIntegrator(self.nu, self.kernel)
        self._shells: dict[int, tuple[SpikeShell, np.ndarray]] = {}  # see `_untargeted`

    # -- decay certification ---------------------------------------------------

    def tail_integral(self, x: BoundaryWord, r: float, s: float) -> float:
        """sup-audit integrand: integral of G(x, ., s) over X - ball(x, r)."""
        rays = word_rows([x.prefix(_ray_length((r,), (s,)))])
        return float(self._tail_grid(rays, (r,), (s,))[0, 0, 0])

    def _tail_grid(self, rays: np.ndarray, rs, ss) -> np.ndarray:
        """tail_integral(x, r, s) for every (r, s, x), one running-sum table per s;
        `rays` holds each x's first `_ray_length(rs, ss)` letters as a row.

        The integral over X - ball(x, r) adds the kernel integrals over the
        cylinders x[:c] + (t,), t off the ray, for confluences c below
        top = min(j, ceil(s) + 1), j = scale_depth(r); shells past top carry
        G = 1 up to the ball.  A term does not depend on r, so each s builds
        the running sums over c and t once, in that order, for every ray,
        and each radius reads the sum at c = top - 1.  Every row set's nu
        masses are read once, for all s.
        """
        integ, nu = self._integrator, self.nu
        depths = [scale_depth(r) if r > 0 else None for r in rs]
        alphabet = np.arange(self.ab.n_letters)
        off_ray = []  # per c: the cylinders x[:c] + (t,), ray by ray, t in letter order
        for c in range(max(math.ceil(s) + 1 for s in ss)):
            off = alphabet != rays[:, c:c + 1]
            if c:
                off &= integ._tab.branch_index[rays[:, c - 1]] >= 0
            ray, t = np.nonzero(off)
            rows = np.column_stack([rays[ray, :c], t])
            off_ray.append((rows, nu.stem_masses(rows)))
        masses: dict[int, np.ndarray] = {}  # ray prefix masses by length, as read

        def mass(n: int) -> np.ndarray:
            if n not in masses:
                masses[n] = nu.stem_masses(rays[:, :n])
            return masses[n]

        out = np.zeros((len(rs), len(ss), len(rays)))
        for k, s in enumerate(ss):
            running = [np.zeros(len(rays))]
            for c in range(math.ceil(s) + 1):
                terms = integ.integrals(*off_ray[c], c, s).reshape(len(rays), -1)
                running.append(_add_columns(running[-1], terms))
            for i, j in enumerate(depths):
                if j == 0:
                    continue
                top = math.ceil(s) + 1 if j is None else min(j, math.ceil(s) + 1)
                val = running[top]
                if j is None or j > top:  # far shells with G = 1 up to the ball boundary
                    val = val + mass(top)
                    if j is not None:
                        val = val - mass(j)
                out[i, k] = val
        return out

    @cached_property
    def cert(self) -> DecayCert:
        """The lab's decay certificate: `decay_audit` runs once, every reader shares it."""
        return self.decay_audit()

    def decay_audit(self) -> DecayCert:
        """Minimal C_G fitting the decay inequality over the audited grid.

        The grid is one running-sum table per kernel time s, shared by every
        radius (`_tail_grid`).  Fails with a witness when the scaled ratios
        still grow at the edge of the s-grid (no finite constant is plausible).
        """
        stems = StemTable(self.ab, X_DEPTH).letters
        grid = self._tail_grid(ray_rows(stems, _ray_length(R_GRID, S_GRID)), R_GRID,
                               [float(s) for s in S_GRID])
        best = 0.0
        per_s: dict[float, float] = {}
        witness = None
        for r, by_s in zip(R_GRID, grid):
            for s, vals in zip(S_GRID, by_s):
                scaled = vals * math.exp(self.alpha * s) * max(math.exp(s) * r, 1.0) ** self.beta
                i = int(np.argmax(scaled))  # the first strict maximum over x
                worst = max(float(scaled[i]), 0.0)
                per_s[s] = max(per_s.get(s, 0.0), worst)
                if worst > best:
                    best, witness = worst, (i, r, s)
        # divergent fits grow geometrically in s; converging ones flatten out
        tailvals = [per_s[s] for s in sorted(per_s)[-3:]]
        if (len(tailvals) == 3 and tailvals[2] > tailvals[1] * 1.001
                and tailvals[1] > tailvals[0] * 1.001):
            i, r_w, s_w = witness
            ray = ray_word(self.ab, tuple(stems[i].tolist()))
            raise CertificationError(
                f"decay ratios still growing at the grid edge; witness {(ray, r_w, s_w)}",
                witness={"preamble": self.ab.format_word(ray.preamble),
                         "period": self.ab.format_word(ray.period), "r": r_w, "s": s_w})
        return DecayCert(C_G=best, alpha_G=self.alpha, beta_G=self.beta, nu_id=self.nu_id,
                         kernel_id="sym", r_grid=R_GRID, s_grid=S_GRID)

    # -- spikes ------------------------------------------------------------------
    #
    # One path builds and audits spikes: the centres are rows of a (count, n)
    # letter array and the spikes rows of a `SpikeShell`, held as profiles and
    # audited in that form, BUDGET profile cells at a time.  `_audit_rows` is
    # the only audit: `shell`, `shell_audits` and `spike_audit` all read it,
    # and the per-g methods are batches of one.

    def unit_spike(self, g: Word, F: CylinderFunction | None = None) -> "SpikeRecord":
        """Unit derivative spike weighted by a positive target function F.

        h = (g_* F) * d(g_* nu)/d nu, normalized to 1 at the ray through g.
        """
        words = word_rows([g])
        profile, block, depth = self._spike_rows(words, F)
        vals = _expand(self.ab, depth, words, profile, block)
        g = tuple(words[0].tolist())
        return SpikeRecord(h=CylinderFunction(self.ab, depth, vals[0]), r=math.exp(-len(g)),
                           a=ray_word(self.ab, g), s=float(len(g)), center=g)

    def shell(self, n: int, F: CylinderFunction | None = None) -> "SpikeShell":
        """The unit spikes of every g with |g| = n, in stem order, with their
        minimal constants C (Holder exponent beta); built once per lab when
        there is no target (`_untargeted`)."""
        words = _shell_words(self.ab, n)
        tab = StemTable(self.ab, _spike_depth(self.S, n, F))
        check_dense(len(words) * tab.size, f"shell {n}'s spike rows")
        return self._untargeted(n)[0] if F is None else self._build(words, F)[0]

    def shell_audits(self, n: int) -> list[SpikeAudit]:
        """The audits of the derivative spikes of every g with |g| = n, in
        stem order, Holder exponent beta included: those `shell(n)` made."""
        return [SpikeAudit(*row) for row in self._untargeted(n)[1].tolist()]

    def _untargeted(self, n: int) -> tuple["SpikeShell", np.ndarray]:
        """`_build` of shell n with no target, kept for the lab's life: the
        spike sweep and the decomposition read the same shells."""
        if n not in self._shells:
            self._shells[n] = self._build(_shell_words(self.ab, n), None)
        return self._shells[n]

    def _build(self, words: np.ndarray, F: CylinderFunction | None):
        """The centres' unit spikes as one `SpikeShell`, and their audit rows
        (`_audit_rows`); the profile-form rows are size-checked before they
        are allocated."""
        n = words.shape[1]
        tab = StemTable(self.ab, _spike_depth(self.S, n, F))
        level, w = _profile_level(n, F), self.S.depth_m - 1
        check_dense(len(words) * _row_cells(self.ab, w, level, tab.depth),
                    f"shell {n}'s profile rows")
        profile = np.empty((len(words), level, window_state_count(self.ab, w)))
        block = np.empty((len(words), tab.span(level)))
        audits = np.empty((len(words), 4))
        lo = 0
        for prof, blk, rows in self._spike_chunks(words, F):
            profile[lo:lo + len(rows)] = prof
            block[lo:lo + len(rows)] = blk
            audits[lo:lo + len(rows)] = rows
            lo += len(rows)
        profile.flags.writeable = block.flags.writeable = False
        C = np.maximum(audits.max(axis=1), 1.0)  # `SpikeAudit.minimal_c`
        return SpikeShell(words, tab.depth, block, C, profile, self.ab), audits

    def _spike_chunks(self, words: np.ndarray, F: CylinderFunction | None):
        """(profiles, blocks, audit rows at Holder exponent beta) of the
        centres' unit spikes, BUDGET profile-form cells (`_row_cells` a row)
        a chunk."""
        n = words.shape[1]
        depth = _spike_depth(self.S, n, F)
        cells = _row_cells(self.ab, self.S.depth_m - 1, _profile_level(n, F), depth)
        for chunk in _chunks(words, cells):
            profile, block, depth = self._spike_rows(chunk, F)
            yield profile, block, self._audit_rows(profile, block, depth, ray_rows(chunk, depth),
                                                   math.exp(-n), float(n), self.beta)

    def _spike_rows(self, words: np.ndarray, F: CylinderFunction | None):
        """Each centre's unit spike in profile form (see `SpikeShell`): the
        (count, L, states) profile, the (count, span(L)) block, and their
        depth.

        The Radon-Nikodym factor takes one value per confluence class c <= n
        with the centre g and window state (`GibbsStream.rho_profiles`), and
        g_* F one value per row on the classes c <= n - depth(F), so L = n -
        depth(F) + 1 (n with no F; 0, the dense row, when n < depth(F))."""
        if F is not None and F.inf <= 0:
            raise ValueError("target function must be positive")
        count, n = words.shape
        w = self.S.depth_m - 1
        level = _profile_level(n, F)
        tab = StemTable(self.ab, _spike_depth(self.S, n, F))
        rows = np.arange(count)
        prof = np.exp(-self.S.rho_profiles(words))
        # unit at the ray, which meets g at class n in the state of g's last letter
        ray = window_states(self.ab, ray_rows(words, n + w)[:, n:])
        prof = prof / prof[rows, n, ray][:, None, None]
        if F is None:
            return prof[:, :n], np.repeat(_class_values(self.ab, words, prof[:, n], n),
                                          tab.span(n + w), axis=1), tab.depth
        letters, conf = tab.extensions(words, level)
        span = tab.span(level)
        at = conf[:, :, None] + np.arange(w)  # each stem's window state past its confluence
        state = window_states(self.ab, np.take_along_axis(letters, at, axis=2)
                              .reshape(count * span, w))
        head = inverse_head(words, F.depth)
        vals = prof[rows[:, None], conf, state.reshape(count, span)] * translate_at(
            F, np.repeat(head, span, axis=0), letters.reshape(-1, tab.depth), conf.ravel(),
            n).reshape(count, span)
        at_ray = vals[rows, tab.indices(ray_rows(words, tab.depth)) % span]
        scale = (1.0 / at_ray)[:, None]
        profile = prof[:, :level]
        if level:  # g_* F is f(g^-1[:d]) on the classes
            single = F.values[F.table.indices(head)]
            profile = profile * single[:, None, None] * scale[:, :, None]
        return profile, vals * scale, tab.depth

    # -- certification -------------------------------------------------------------

    def spike_audit(self, rec: "SpikeRecord", holder_q: float | None = None) -> "SpikeAudit":
        """Least constant satisfying the three spike conditions (and the
        Holder condition when an exponent is supplied), by exact cylinder sup."""
        h = rec.h
        j = scale_depth(rec.r)
        if h.depth < j:
            h = h.refine(j)
        rays = word_rows([rec.a.prefix(h.depth)])
        c1, c2, c3, holder = self._audit_rows(np.empty((1, 0, 1)), h.values[None], h.depth, rays,
                                              rec.r, rec.s, holder_q)[0].tolist()
        return SpikeAudit(c1, c2, c3, None if holder_q is None else holder)

    def _audit_rows(self, profile: np.ndarray, block: np.ndarray, depth: int, rays: np.ndarray,
                    r: float, s: float, holder_q: float | None) -> np.ndarray:
        """`spike_audit` of each row of depth-`depth` spikes in profile form,
        as (count, 4) rows (c1, c2, c3, c_holder; NaN with no exponent)
        (see `SpikeShell`; L = 0 takes the dense rows as the block), for balls
        of radius r about the rows' rays, L <= j = scale_depth(r) <= depth.

        Every sup is a block max or min: the stems of one depth-i cylinder
        are one block, and the stems meeting the ball word at confluence c are
        the depth-(c+1) blocks below its length-c prefix but its own.  For
        c < L those are all of class c, one profile value per window state
        (NaN entries hold no stem).  A cylinder of depth i >= L lies in the
        block, or in one class c, where it holds the states that extend its
        letters past c: one state when i >= c + m - 1 (ratio 1, oscillation
        0), so conditions (3) and the Holder bound read the block and the
        state groups of the classes c > j - m + 1 alone."""
        count, level, _ = profile.shape
        rows = np.arange(count)
        tab = StemTable(self.ab, depth)
        j = scale_depth(r)
        if (profile <= 0).any() or (block.min(axis=1) <= 0).any():
            raise NotASpikeError("spike function must be strictly positive")
        top, low = block_extrema(block, tab, level)
        # at[i], i >= L: the ray's depth-i cylinder among those of its block
        codes = [np.zeros(count, dtype=np.int64), *tab.prefix_codes(rays[:, :depth])]
        at = [code % (tab.span(level) // tab.span(i)) if i >= level else None
              for i, code in enumerate(codes)]
        c3 = np.ones(count) if j >= depth else (top[j] / low[j]).max(axis=1)
        if j == 0:
            c1, c2 = c3, np.zeros(count)
        else:
            peak = np.maximum(top[level][:, 0],
                              np.fmax.reduce(profile.reshape(count, -1), axis=1, initial=-np.inf))
            c1 = peak / low[j][rows, at[j]]
            # condition (2): x outside the ball, grouped by confluence depth
            scale = block[rows, at[depth]] * math.exp(self.alpha * s)
            ball = rays[:, :j]
            masses = self.nu.stem_masses(ball)
            c2 = np.zeros(count)
            for c in range(j):
                if c < level:
                    kids = np.fmax.reduce(profile[:, c], axis=1)
                else:
                    width = tab.span(c) // tab.span(c + 1)
                    others = top[c + 1].reshape(count, -1, width)[rows, at[c]]
                    others[rows, at[c + 1] - at[c] * width] = -np.inf
                    kids = others.max(axis=1)
                integ = self._integrator.integrals(ball, masses, c, s)
                if (integ <= 0).any():
                    raise NotASpikeError(f"kernel integral vanishes at confluence {c}")
                c2 = np.maximum(c2, kids / (scale * integ))
        holder = None
        if holder_q is not None:
            dr = holder_rows(block, tab, j, holder_q, (top, low))
            holder = (dr * r ** holder_q / block).max(axis=1)
        w = self.S.depth_m - 1
        # the classes whose depth-j cylinders hold several states
        for c in range(max(0, j - w + 1), level):
            vals = _class_values(self.ab, rays, profile[:, c], c)  # depth-(c + w) cylinders
            dr = np.zeros(vals.shape)
            for i in range(j, c + w):
                groups = vals.reshape(count, -1, tab.branching ** (c + w - i))
                hi, lo = groups.max(axis=2, keepdims=True), groups.min(axis=2, keepdims=True)
                if i == j:
                    c3 = np.fmax(c3, np.fmax.reduce((hi / lo).reshape(count, -1), axis=1))
                if holder is not None:
                    gap = np.maximum(hi - groups, groups - lo).reshape(vals.shape)
                    np.maximum(dr, gap * math.exp(holder_q * i), out=dr)
            if holder is not None:
                holder = np.fmax(holder, np.fmax.reduce(dr * r ** holder_q / vals, axis=1))
        return np.column_stack([c1, c2, c3, np.full(count, np.nan) if holder is None else holder])


def _ray_length(rs, ss) -> int:
    """The ray letters `_tail_grid` reads for the radii rs and kernel times ss."""
    return max([math.ceil(s) + 1 for s in ss] + [scale_depth(r) for r in rs if r > 0])


def _chunks(words: np.ndarray, cells: int):
    """The rows of `words` in slices of max(1, BUDGET // cells) rows."""
    step = max(1, BUDGET // cells)
    return (words[lo:lo + step] for lo in range(0, len(words), step))


def _shell_words(ab, n: int) -> np.ndarray:
    """The reduced words of length n as letter rows, in stem (= lexicographic) order."""
    tab = StemTable(ab, n)
    check_dense(tab.size * n, f"shell {n}'s centre words")
    return tab.letters.astype(np.int64)


def _spike_depth(S: GibbsStream, n: int, F: CylinderFunction | None) -> int:
    """The depth of the unit spikes of shell n."""
    return n + max(S.depth_m, F.depth if F is not None else 0)


def _profile_level(n: int, F: CylinderFunction | None) -> int:
    """L of the unit spikes of shell n: the confluence classes c < L with
    the centre that take one value per window state each (0: the dense row)."""
    return n if F is None else max(0, n - F.depth + 1)


def _row_cells(ab: Alphabet, w: int, level: int, depth: int) -> int:
    """The floats of one profile-form row: L profile values per window state
    of w letters, and the span(L) block."""
    return level * window_state_count(ab, w) + StemTable(ab, depth).span(level)


def ray_rows(words: np.ndarray, length: int) -> np.ndarray:
    """The first `length` letters of each centre's `ray_word` (its last
    letter repeated; the identity's ray repeats letter 0)."""
    count, n = words.shape
    last = words[:, -1:] if n else np.zeros((count, 1), dtype=np.int64)
    return np.concatenate([words, np.repeat(last, max(0, length - n), axis=1)], axis=1)


@dataclass(frozen=True)
class SpikeRecord:
    """Certified spike data: the function, ball radius, center, depth scale."""

    h: CylinderFunction
    r: float
    a: BoundaryWord
    s: float
    center: Word = ()

    def scaled(self, alpha: float) -> "SpikeRecord":
        if alpha <= 0:
            raise ValueError("spike multiples must be positive")
        return replace(self, h=self.h * alpha)


@dataclass(frozen=True)
class SpikeShell:
    """The unit spikes of every g with |g| = n: one row per centre, in stem
    order, each in profile form.

    Row i takes the value profile[i, c, s] on the stems whose confluence
    with its centre g is c < L, L = profile.shape[1], and whose window state
    (their m - 1 letters past c, `stems.window_states`) is s; NaN entries
    hold no stem.  It takes the values block[i] on the span(L) stems
    extending g[:L], in stem order.  L = 0 is the dense row: a (G, 0, 1)
    profile with the rows as the block.
    """

    words: np.ndarray   # (G, n) centre letters
    depth: int
    block: np.ndarray   # (G, span(L)) spike values on the stems extending g[:L]
    C: np.ndarray       # (G,) minimal spike constants
    profile: np.ndarray  # (G, L, states) per confluence class c < L and state
    ab: Alphabet

    @property
    def values(self) -> np.ndarray:
        """The (G, cells) dense rows, read-only."""
        out = _expand(self.ab, self.depth, self.words, self.profile, self.block).view()
        out.flags.writeable = False
        return out

    def combine(self, lam: np.ndarray, tab: StemTable) -> np.ndarray:
        """sum of lam[i] * row i refined to tab's depth, BUDGET cells at a time:
        each chunk is expanded at tab's depth (the profile is unchanged, each
        block cell spread over its refinement) into rows 1.. of one reused
        buffer whose row 0 holds the running sum, and a sum over axis 0 adds
        the rows one at a time in stem order."""
        step = max(1, BUDGET // tab.size)
        buf = np.zeros((min(step, len(self.words)) + 1, tab.size))
        for words, profile, block, w in zip(*(_chunks(a, tab.size) for a in (
                self.words, self.profile, self.block, lam))):
            rows = buf[1:len(w) + 1]
            _expand(tab.ab, tab.depth, words, profile, block, out=rows)
            rows *= w[:, None]
            buf[0] = buf[:len(w) + 1].sum(axis=0)
        return buf[0].copy()

    def integrals(self, mass: np.ndarray) -> list[float]:
        """Each row's integral against a mass array at the shell's depth, the
        dense rows expanded BUDGET cells at a time into one reused buffer."""
        buf = np.empty((min(max(1, BUDGET // len(mass)), len(self.words)), len(mass)))
        out = []
        for words, profile, block in zip(*(_chunks(a, len(mass)) for a in (
                self.words, self.profile, self.block))):
            rows = _expand(self.ab, self.depth, words, profile, block, out=buf[:len(words)])
            out += [float(row @ mass) for row in rows]
        return out


@dataclass(frozen=True)
class SpikeAudit:
    c1: float
    c2: float
    c3: float
    c_holder: float | None

    @property
    def minimal_c(self) -> float:
        parts = [self.c1, self.c2, self.c3, 1.0]
        if self.c_holder is not None:
            parts.append(self.c_holder)
        return max(parts)
