"""Panel quadrature engines used by the tail calculus.

One geometric-panel driver for improper integrals on [a, infinity),
with explicit convergence/divergence verdicts and tail extrapolation,
cuts every panel at the breakpoints inside it and sums one of two
panel rules over the pieces:

* adaptive Gauss-Legendre for ordinary integrands (`improper_gl`),
* midpoint Stieltjes sums with Richardson extrapolation for integrals
  against a monotone weight function given only by its values
  (`stieltjes_vs_tail`, `stieltjes_vs_monotone`).

Both rules work to fixed per-piece tolerances.

All drivers assume nonnegative integrands, which is what the tail
calculus produces; the divergence heuristics rely on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@functools.cache
def _gl_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1], the 32-node set and then the
    64-node set end to end, and the weights of each set."""
    x32, w32 = np.polynomial.legendre.leggauss(32)
    x64, w64 = np.polynomial.legendre.leggauss(64)
    return (np.concatenate([x32, x64]) + 1.0) / 2.0, w32 / 2.0, w64 / 2.0


# Per-piece tolerances: Gauss-Legendre to 1e-12 relative (32 against 64
# nodes), Stieltjes to 1e-11 relative with 16 to 8192 midpoint subpanels.
# The improper drivers stop at 1e-10 relative unless `improper_gl` is
# told otherwise.
_GL_REL_TOL = 1e-12
_STIELTJES_REL_TOL = 1e-11
_DRIVE_REL_TOL = 1e-10
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
    """tail(t) minus the masses of the atoms at `locs` (sorted) above t."""
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


def _improper_drive(rule, a: float, rel_tol: float, x0: float,
                    breakpoints) -> ImproperResult:
    """Sum rule(l, r) over geometric panels from a, each cut at the
    breakpoints inside it."""
    acc = 0.0
    left = float(a)
    width = float(x0)
    small = 0
    flat = 0
    prev = None
    contribs = []
    for k in range(_MAX_PANELS):
        right = left + width
        edges = merge_breakpoints(left, right, breakpoints)
        c = 0.0
        for el, er in zip(edges[:-1], edges[1:]):
            c += rule(float(el), float(er))
        contribs.append(c)
        acc += c
        scale = abs(acc)
        if c <= rel_tol * scale and (scale > 0.0 or c == 0.0):
            small += 1
        else:
            small = 0
        if prev is not None and c >= prev * (1.0 - 1e-12) and c > rel_tol * max(scale, 1e-300):
            flat += 1
        else:
            flat = 0
        if small >= SMALL_RUN:
            tail = float(geometric_tail(contribs[-2], contribs[-1])) \
                if len(contribs) >= 2 else 0.0
            return ImproperResult(acc + tail, True, k + 1, tail)
        if flat >= FLAT_RUN:
            return ImproperResult(acc, False, k + 1, 0.0)
        prev = c
        left = right
        width *= _RATIO
    return ImproperResult(acc, False, _MAX_PANELS, 0.0)


def improper_gl(f, rel_tol: float = _DRIVE_REL_TOL, breakpoints=()) -> ImproperResult:
    """integral of f over [0, infinity) with geometric panels from width 1."""
    return _improper_drive(lambda l, r: gl_adaptive(f, l, r), 0.0, rel_tol, 1.0,
                           breakpoints)


def _level_layout(levels):
    """Subpanel levels end to end: every level's edge indices 0..n as
    floats, each index's n, and where each level starts."""
    counts = [n + 1 for n in levels]
    index = np.concatenate([np.arange(c, dtype=float) for c in counts])
    size = np.repeat(np.asarray(levels, dtype=float), counts)
    return levels, index, size, np.cumsum([0, *counts[:-1]]).tolist()


# Richardson levels 16, 32, ..., 8192, evaluated five at a time
_STIELTJES_BATCH = 5
_STIELTJES_LEVELS = [_STIELTJES_N0 << k for k in range(
    (_STIELTJES_N_MAX // _STIELTJES_N0).bit_length())]


@functools.cache
def _first_layout():
    """The first batch's layout, built on first use and kept; the second
    batch's is built each time a panel needs it."""
    return _level_layout(_STIELTJES_LEVELS[:_STIELTJES_BATCH])


def stieltjes_panel(g, weight, a: float, b: float) -> float:
    """integral of g d(weight) over (a, b] for nondecreasing `weight`.

    Midpoint Stieltjes sums on uniform subpanels, accelerated by a
    Richardson (Romberg-style) table; `weight` is only ever evaluated,
    never differentiated.  The levels go a batch at a time: one call of
    `weight` on the edges and one of `g` on the midpoints of every level
    in the batch.  Each level keeps its own edges and its own dot, so the
    result is the one of evaluating level by level.
    """
    if b <= a:
        return 0.0
    prev = []
    for first in range(0, len(_STIELTJES_LEVELS), _STIELTJES_BATCH):
        levels, index, size, starts = (
            _first_layout() if first == 0
            else _level_layout(_STIELTJES_LEVELS[first:first + _STIELTJES_BATCH]))
        # np.linspace(a, b, n + 1) per level, with its branch for a step
        # that underflows to 0
        step = (b - a) / size
        edges = (index * step if step.all()
                 else np.where(step == 0, index / size * (b - a), index * step)) + a
        edges[[s + n for s, n in zip(starts, levels)]] = b
        w = np.asarray(weight(edges), dtype=float)
        # the midpoint of one level's last edge and the next level's first
        # is evaluated but not read
        gm = np.asarray(g(0.5 * (edges[:-1] + edges[1:])), dtype=float)
        for n, s in zip(levels, starts):
            row = [float(np.dot(gm[s:s + n], np.diff(w[s:s + n + 1])))]
            for j, below in enumerate(prev):
                factor = 4.0 ** (j + 1)
                row.append((factor * row[j] - below) / (factor - 1.0))
            if prev and abs(row[-1] - prev[-1]) <= _STIELTJES_REL_TOL * abs(row[-1]) + 1e-300:
                return row[-1]
            prev = row
    return prev[-1]


def stieltjes_vs_tail(g, tail, a: float = 0.0, x0: float = 1.0, atoms=None,
                      breakpoints=()) -> ImproperResult:
    """integral of g dF over (a, infinity) where F has tail `tail`.

    `tail` is the right-continuous survival function; `atoms` is an
    optional (locations, masses) pair of point masses embedded in it.
    Atom contributions are summed exactly and the continuous remainder
    is integrated against tail(t) - sum of atom masses above t.
    """
    locs = masses = np.empty(0)
    if atoms is not None:
        locs = np.asarray(atoms[0], dtype=float)
        masses = np.asarray(atoms[1], dtype=float)
        keep = locs > a
        locs, masses = locs[keep], masses[keep]
    cont = continuous_tail(tail, locs, masses)

    def weight(t):
        return -cont(t)

    res = _improper_drive(lambda l, r: stieltjes_panel(g, weight, l, r), a,
                          _DRIVE_REL_TOL, x0, [*breakpoints, *locs.tolist()])
    atom_part = float(np.dot(masses, np.asarray(g(locs), dtype=float))) if locs.size else 0.0
    return ImproperResult(res.value + atom_part, res.converged, res.panels, res.tail_estimate)


def stieltjes_vs_monotone(f, h, x0: float = 1.0, breakpoints=()) -> ImproperResult:
    """integral of f dH over (0, infinity) for nondecreasing callable H."""
    return _improper_drive(lambda l, r: stieltjes_panel(f, h, l, r), 0.0,
                           _DRIVE_REL_TOL, x0, breakpoints)
