"""Panel quadrature engines used by the tail calculus.

One geometric-panel driver, `_drive`, for improper integrals on
[a, infinity), with explicit convergence/divergence verdicts and tail
extrapolation, cuts every panel at the breakpoints inside it and sums
one of two panel rules over the pieces:

* adaptive Gauss-Legendre for ordinary integrands (`improper_gl`),
* midpoint Stieltjes sums with Richardson extrapolation
  (`_stieltjes_pieces`) for integrals against a monotone weight
  function given only by its values (`stieltjes_vs_tail`,
  `stieltjes_vs_tail_many`, `stieltjes_vs_monotone`).

Both rules work to fixed per-piece tolerances.

The driver runs its integrals in lockstep (route B of the integrated
tail at many probes goes through `stieltjes_vs_tail_many`): each round,
every unfinished integral's next panel goes to one call of the panel
rule, and the Stieltjes rule evaluates all those pieces with one
`weight` call and one `g` call per Richardson batch, `_GRID_BLOCK`
elements at a time (one piece's nodes where they alone are more).  Each
piece keeps its own edges, level sums and Richardson table, and each
integral its own stop rule, so every value is the one of running the
integrals one by one, and a single integral is the one-element case.

All drivers assume nonnegative integrands, which is what the tail
calculus produces; the divergence heuristics rely on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# the dense evaluations of the panel rule and of the grid layer (the
# measure-tail curves' x rows and `convolve`'s knot rows) are made a
# block at a time, with at most this many elements per block unless one
# row (one piece's nodes) is longer: each temporary is then at most
# 128 KiB and stays in cache, and peak memory no longer grows with the
# number of rows.  The value won a sweep from 2^11 to 2^17 on
# `integrated_tail_curve` and `powers(2)` of the integrated-tail grid
# (BENCH_22.json): up to 2^13 a curve block is one 4320-column row, and
# each row pays for a law evaluation; from 2^15 the allocator hands each
# block's memory back to the system and faults it in again
_GRID_BLOCK = 1 << 14


@functools.cache
def _gl_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1], the 32-node set and then the
    64-node set end to end, and the weights of each set."""
    x32, w32 = np.polynomial.legendre.leggauss(32)
    x64, w64 = np.polynomial.legendre.leggauss(64)
    return (np.concatenate([x32, x64]) + 1.0) / 2.0, w32 / 2.0, w64 / 2.0


# Per-piece tolerances: Gauss-Legendre to 1e-12 relative (32 against 64
# nodes), Stieltjes to 1e-11 relative with 16 to 8192 midpoint subpanels.
# The improper driver stops at 1e-10 relative for the Stieltjes
# integrals and at 1e-9 for `improper_gl`, which gives the positive-part
# mean.
_GL_REL_TOL = 1e-12
_STIELTJES_REL_TOL = 1e-11
_DRIVE_REL_TOL = 1e-10
_IMPROPER_GL_REL_TOL = 1e-9
_STIELTJES_N0 = 16
_STIELTJES_N_MAX = 8192


def gl_adaptive(f, a: float, b: float, depth: int = 30) -> float:
    """Bisecting Gauss-Legendre: 32 vs 64 nodes decides convergence.

    One call of f takes both node sets, 32 then 64 nodes."""
    if b <= a:
        return 0.0
    nodes, w32, w64 = _gl_nodes()
    fx = np.asarray(f(a + (b - a) * nodes), dtype=float)
    coarse = float((b - a) * np.dot(w32, fx[:32]))
    fine = float((b - a) * np.dot(w64, fx[32:]))
    err = abs(fine - coarse)
    if err <= _GL_REL_TOL * abs(fine) or depth <= 0:
        return fine
    mid = 0.5 * (a + b)
    return gl_adaptive(f, a, mid, depth - 1) + gl_adaptive(f, mid, b, depth - 1)


def gl_panels(f, edges) -> float:
    """Adaptive GL over a prescribed panel partition (kinks at edges)."""
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        total += gl_adaptive(f, float(left), float(right))
    return total


def merge_breakpoints(a: float, b: float, breakpoints) -> np.ndarray:
    """Panel edges for [a, b] honoring interior breakpoints."""
    pts = [float(a), float(b)]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    return np.unique(np.asarray(pts, dtype=float))


def continuous_tail(tail, locs, masses):
    """tail(t) minus the masses of the atoms at `locs` (sorted) above t;
    `tail` itself where there are none (tail(t) - 0.0 is tail(t))."""
    if not len(locs):
        return tail
    suffix = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])

    def cont(t):
        t = np.asarray(t, dtype=float)
        return (np.asarray(tail(t), dtype=float)
                - suffix[np.searchsorted(locs, t, side="right")])

    return cont


@dataclass
class ImproperResult:
    value: float
    converged: bool
    panels: int
    tail_estimate: float


# Geometric improper driver: panel widths x0 * 2**k, at most 400 panels;
# stop after `SMALL_RUN` consecutive negligible panels, declare
# divergence after `FLAT_RUN` consecutive non-decreasing ones.
_RATIO = 2.0
_MAX_PANELS = 400
SMALL_RUN = 3
FLAT_RUN = 8


def geometric_tail(prev, last):
    """Remainder past the last panel of a geometric panel ladder.

    With r = last/prev, the panels beyond are assumed to keep shrinking by
    r: the remainder is last * r/(1 - r) where both panels are positive
    and 0 < r < 0.95, and 0 elsewhere.  Vectorized over arrays.
    """
    prev = np.asarray(prev, dtype=float)
    last = np.asarray(last, dtype=float)
    pos = (prev > 0.0) & (last > 0.0)
    r = np.where(pos, last / np.where(pos, prev, 1.0), 0.0)
    geo = (r > 0.0) & (r < 0.95)
    return np.where(geo, last * r / np.where(geo, 1.0 - r, 1.0), 0.0)


class _Geometric:
    """One improper integral on [a, infinity) over geometric panels of
    widths x0 * 2**k, each cut at the breakpoints inside it, and its
    stop rule."""

    __slots__ = ("left", "width", "breakpoints", "acc", "panels", "small", "flat", "prev")

    def __init__(self, a: float, x0: float, breakpoints):
        self.left = float(a)
        self.width = float(x0)
        self.breakpoints = breakpoints
        self.acc = 0.0
        self.panels = 0
        self.small = 0
        self.flat = 0
        self.prev = None

    def next_edges(self) -> list[float]:
        """The next panel's edges, breakpoints included."""
        return merge_breakpoints(self.left, self.left + self.width,
                                 self.breakpoints).tolist()

    def add(self, c: float, rel_tol: float) -> ImproperResult | None:
        """Take the next panel's value; the result once the rule stops."""
        self.panels += 1
        self.acc += c
        scale = abs(self.acc)
        if c <= rel_tol * scale and (scale > 0.0 or c == 0.0):
            self.small += 1
        else:
            self.small = 0
        if (self.prev is not None and c >= self.prev * (1.0 - 1e-12)
                and c > rel_tol * max(scale, 1e-300)):
            self.flat += 1
        else:
            self.flat = 0
        if self.small >= SMALL_RUN:
            tail = float(geometric_tail(self.prev, c)) if self.prev is not None else 0.0
            return ImproperResult(self.acc + tail, True, self.panels, tail)
        if self.flat >= FLAT_RUN or self.panels == _MAX_PANELS:
            return ImproperResult(self.acc, False, self.panels, 0.0)
        self.prev = c
        self.left += self.width
        self.width *= _RATIO
        return None


def _drive(rule, starts, rel_tol: float, x0s, breakpoints) -> list[ImproperResult]:
    """The improper integrals on [starts[i], infinity) in lockstep.

    Each round, every unfinished integral's next panel, cut at its own
    breakpoints, goes to one call rule(lefts, rights, owners), which
    returns the value of each piece (lefts[j], rights[j]] of integral
    owners[j]; an integral adds its pieces' values in order and applies
    its own stop rule."""
    runs = [_Geometric(a, x0, bps) for a, x0, bps in zip(starts, x0s, breakpoints)]
    results: list[ImproperResult | None] = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        lefts, rights, owners, counts = [], [], [], []
        for i in live:
            edges = runs[i].next_edges()
            lefts += edges[:-1]
            rights += edges[1:]
            owners += [i] * (len(edges) - 1)
            counts.append(len(edges) - 1)
        values = iter(rule(lefts, rights, owners))
        for i, count in zip(live, counts):
            c = 0.0
            for _ in range(count):
                c += next(values)
            results[i] = runs[i].add(c, rel_tol)
        live = [i for i in live if results[i] is None]
    return results


def improper_gl(f, breakpoints=()) -> ImproperResult:
    """integral of f over [0, infinity) with geometric panels from width 1."""
    return _drive(lambda lefts, rights, _: [gl_adaptive(f, l, r) for l, r in zip(lefts, rights)],
                  [0.0], _IMPROPER_GL_REL_TOL, [1.0], [breakpoints])[0]


# Richardson levels 16, 32, ..., 8192, evaluated five at a time
_STIELTJES_BATCH = 5
_STIELTJES_LEVELS = [_STIELTJES_N0 << k for k in range(
    (_STIELTJES_N_MAX // _STIELTJES_N0).bit_length())]


@functools.cache
def _batch_layout(first: int):
    """The batch of levels from _STIELTJES_LEVELS[first] end to end:
    the levels, every level's edge indices 0..n as floats, each index's
    n, and where each level starts.  Built on first use and kept."""
    levels = _STIELTJES_LEVELS[first:first + _STIELTJES_BATCH]
    counts = [n + 1 for n in levels]
    index = np.concatenate([np.arange(c, dtype=float) for c in counts])
    size = np.repeat(np.asarray(levels, dtype=float), counts)
    return levels, index, size, np.cumsum([0, *counts[:-1]]).tolist()


def _stieltjes_block(g, weight, a, b, rows, layout, tables) -> list[float | None]:
    """One batch of Richardson levels on the pieces `rows`: one call of
    `weight` on their edges and one of g(t, rows) on their midpoints,
    one row of t per piece.  Each piece's table goes on from tables[r],
    which is updated; the value of each piece that converges, None for
    the others.  The block's arrays are freed on return."""
    levels, index, size, starts = layout
    pa, pb = a[rows, None], b[rows, None]
    # np.linspace(a, b, n + 1) per level, with its branch for a step
    # that underflows to 0
    step = (pb - pa) / size
    edges = (index * step if step.all()
             else np.where(step == 0, index / size * (pb - pa), index * step)) + pa
    edges[:, [s + n for s, n in zip(starts, levels)]] = pb
    w = np.asarray(weight(edges.ravel()), dtype=float).reshape(edges.shape)
    # the midpoint of one level's last edge and the next level's first
    # is evaluated but not read, and so is their weight difference
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    gm = np.asarray(g(mids, rows), dtype=float).reshape(mids.shape)
    # np.diff of each level's weights, all levels in one subtraction
    dw = w[:, 1:] - w[:, :-1]
    values = []
    for r, g_row, dw_row in zip(rows.tolist(), gm, dw):
        prev = tables[r]
        value = None
        for n, s in zip(levels, starts):
            row = [float(np.dot(g_row[s:s + n], dw_row[s:s + n]))]
            for j, below in enumerate(prev):
                factor = 4.0 ** (j + 1)
                row.append((factor * row[j] - below) / (factor - 1.0))
            if prev and abs(row[-1] - prev[-1]) <= _STIELTJES_REL_TOL * abs(row[-1]) + 1e-300:
                value = row[-1]
                break
            prev = row
        tables[r] = prev
        values.append(value)
    return values


def _stieltjes_pieces(g, weight, a, b) -> list[float]:
    """integral of g d(weight) over every piece (a[i], b[i]] at once,
    for nondecreasing `weight`; g(t, rows) evaluates the integrand of
    piece rows[r] on row r of t.

    Midpoint Stieltjes sums on uniform subpanels, accelerated by a
    Richardson (Romberg-style) table; `weight` is only ever evaluated,
    never differentiated.  The levels go a batch at a time: one call of
    `weight` on the edges and one of g on the midpoints of every level
    in the batch.  Each batch takes the pieces that have not converged
    yet in blocks of max(1, _GRID_BLOCK // edges per piece), so a call
    of `weight` or g(t, rows) gets at most _GRID_BLOCK elements or one
    piece's.  Each piece keeps its own edges, level dots
    and Richardson table, so its value is the one of evaluating it alone,
    level by level.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = [0.0] * a.size
    tables = [[] for _ in out]
    todo = np.flatnonzero(~(b <= a))
    for first in range(0, len(_STIELTJES_LEVELS), _STIELTJES_BATCH):
        if not todo.size:
            break
        layout = _batch_layout(first)
        per_block = max(1, _GRID_BLOCK // layout[1].size)
        going_on = []
        for lo in range(0, todo.size, per_block):
            rows = todo[lo:lo + per_block]
            for r, value in zip(rows.tolist(),
                                _stieltjes_block(g, weight, a, b, rows, layout, tables)):
                if value is None:
                    going_on.append(r)
                else:
                    out[r] = value
                    tables[r] = None
        todo = np.asarray(going_on, dtype=int)
    for r in todo.tolist():
        out[r] = tables[r][-1]
    return out


def _stieltjes_rule(g, weight):
    """The `_drive` rule that hands a round's pieces to one
    `_stieltjes_pieces` call; g(t, which) evaluates integrand which[r]
    on row r of t."""
    def rule(lefts, rights, owners):
        owners = np.asarray(owners)
        return _stieltjes_pieces(lambda t, rows: g(t, owners[rows]), weight, lefts, rights)

    return rule


def stieltjes_vs_tail(g, tail, a: float = 0.0, x0: float = 1.0, atoms=None,
                      breakpoints=()) -> ImproperResult:
    """integral of g dF over (a, infinity) where F has tail `tail`.

    `tail` is the right-continuous survival function; `atoms` is an
    optional (locations, masses) pair of point masses embedded in it.
    Atom contributions are summed exactly and the continuous remainder
    is integrated against tail(t) - sum of atom masses above t.
    """
    return stieltjes_vs_tail_many(lambda t, _: g(t.ravel()), tail, [a], [x0], atoms,
                                  [breakpoints])[0]


def stieltjes_vs_tail_many(g, tail, starts, x0s, atoms, breakpoints) -> list[ImproperResult]:
    """The integrals of g(., i) dF over (starts[i], infinity), as
    `stieltjes_vs_tail` defines them, run in lockstep, each with its own
    first panel width x0s[i] and breakpoints; g(t, which) evaluates
    integrand which[r] on row r of t.

    F's atoms are the (locations, masses) pair `atoms`, sorted, or None;
    the weight subtracts all of them, which on (starts[i], infinity) is
    subtracting those above starts[i] bit for bit, and integral i sums
    its atoms above starts[i] exactly.
    """
    locs, masses = (np.asarray(v, dtype=float)
                    for v in (atoms if atoms is not None else ((), ())))
    cont = continuous_tail(tail, locs, masses)

    def weight(t):
        return -cont(t)

    if locs.size:
        breakpoints = [[*bps, *locs.tolist()] for bps in breakpoints]
    results = _drive(_stieltjes_rule(g, weight), starts, _DRIVE_REL_TOL, x0s, breakpoints)
    out = []
    for i, (a, res) in enumerate(zip(starts, results)):
        keep = locs > a
        atom_part = (float(np.dot(masses[keep], np.asarray(
            g(locs[None, keep], np.array([i])), dtype=float).ravel())) if keep.any() else 0.0)
        out.append(ImproperResult(res.value + atom_part, res.converged, res.panels,
                                  res.tail_estimate))
    return out


def stieltjes_vs_monotone(f, h, x0: float = 1.0, breakpoints=()) -> ImproperResult:
    """integral of f dH over (0, infinity) for nondecreasing callable H."""
    return _drive(_stieltjes_rule(lambda t, _: f(t.ravel()), h), [0.0], _DRIVE_REL_TOL,
                  [x0], [breakpoints])[0]
