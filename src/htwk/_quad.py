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

from dataclasses import dataclass

import numpy as np


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[n]


def gl_fixed(f, a: float, b: float, n: int = 64) -> float:
    x01, w01 = _gl01(n)
    t = a + (b - a) * x01
    return float((b - a) * np.dot(w01, np.asarray(f(t), dtype=float)))


# Per-piece tolerances: Gauss-Legendre to 1e-12 relative (32 against 64
# nodes), Stieltjes to 1e-11 relative with 16 to 8192 midpoint subpanels.
_GL_REL_TOL = 1e-12
_STIELTJES_REL_TOL = 1e-11
_STIELTJES_N0 = 16
_STIELTJES_N_MAX = 8192


def gl_adaptive(f, a: float, b: float, depth: int = 30) -> float:
    """Bisecting Gauss-Legendre: 32 vs 64 nodes decides convergence."""
    if b <= a:
        return 0.0
    coarse = gl_fixed(f, a, b, 32)
    fine = gl_fixed(f, a, b, 64)
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


def improper_gl(f, a: float = 0.0, rel_tol: float = 1e-10,
                breakpoints=()) -> ImproperResult:
    """integral of f over [a, infinity) with geometric panels from width 1."""
    return _improper_drive(lambda l, r: gl_adaptive(f, l, r), a, rel_tol, 1.0,
                           breakpoints)


def stieltjes_panel(g, weight, a: float, b: float) -> float:
    """integral of g d(weight) over (a, b] for nondecreasing `weight`.

    Midpoint Stieltjes sums on uniform subpanels, accelerated by a
    Richardson (Romberg-style) table; `weight` is only ever evaluated,
    never differentiated.
    """
    if b <= a:
        return 0.0
    rows = []
    n = _STIELTJES_N0
    prev_diag = None
    while True:
        edges = np.linspace(a, b, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dv = np.diff(np.asarray(weight(edges), dtype=float))
        m = float(np.dot(np.asarray(g(mids), dtype=float), dv))
        row = [m]
        for j, below in enumerate(rows[-1] if rows else []):
            factor = 4.0 ** (j + 1)
            row.append((factor * row[j] - below) / (factor - 1.0))
        rows.append(row)
        diag = row[-1]
        if prev_diag is not None:
            if abs(diag - prev_diag) <= _STIELTJES_REL_TOL * abs(diag) + 1e-300:
                return diag
        prev_diag = diag
        if n >= _STIELTJES_N_MAX:
            return diag
        n *= 2
        if len(rows) > 6:
            rows = rows[-6:]


def stieltjes_vs_tail(g, tail, a: float = 0.0, rel_tol: float = 1e-10,
                      x0: float = 1.0, atoms=None,
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

    res = _improper_drive(lambda l, r: stieltjes_panel(g, weight, l, r), a, rel_tol,
                          x0, [*breakpoints, *locs.tolist()])
    atom_part = float(np.dot(masses, np.asarray(g(locs), dtype=float))) if locs.size else 0.0
    return ImproperResult(res.value + atom_part, res.converged, res.panels, res.tail_estimate)


def stieltjes_vs_monotone(f, h, rel_tol: float = 1e-10, x0: float = 1.0,
                          breakpoints=()) -> ImproperResult:
    """integral of f dH over (0, infinity) for nondecreasing callable H."""
    return _improper_drive(lambda l, r: stieltjes_panel(f, h, l, r), 0.0, rel_tol,
                           x0, breakpoints)
