"""Panel quadrature engines used by the tail calculus.

Three building blocks:

* adaptive Gauss-Legendre panels for ordinary integrands,
* a geometric-panel driver for improper integrals on [a, infinity) with
  explicit convergence/divergence verdicts and tail extrapolation,
* midpoint Stieltjes sums with Richardson extrapolation for integrals
  against a monotone weight function given only by its values.

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


def gl_adaptive(f, a: float, b: float, rel_tol: float = 1e-12,
                abs_floor: float = 0.0, depth: int = 30) -> float:
    """Bisecting Gauss-Legendre: 32 vs 64 nodes decides convergence."""
    if b <= a:
        return 0.0
    coarse = gl_fixed(f, a, b, 32)
    fine = gl_fixed(f, a, b, 64)
    err = abs(fine - coarse)
    if err <= rel_tol * abs(fine) + abs_floor or depth <= 0:
        return fine
    mid = 0.5 * (a + b)
    half = 0.5 * abs_floor
    return (gl_adaptive(f, a, mid, rel_tol, half, depth - 1)
            + gl_adaptive(f, mid, b, rel_tol, half, depth - 1))


def gl_panels(f, edges, rel_tol: float = 1e-12) -> float:
    """Adaptive GL over a prescribed panel partition (kinks at edges)."""
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        total += gl_adaptive(f, float(left), float(right), rel_tol)
    return total


def merge_breakpoints(a: float, b: float, breakpoints) -> np.ndarray:
    """Panel edges for [a, b] honoring interior breakpoints."""
    pts = [float(a), float(b)]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    return np.unique(np.asarray(pts, dtype=float))


@dataclass
class ImproperResult:
    value: float
    converged: bool
    panels: int
    tail_estimate: float


# Geometric improper driver defaults: panel widths x0 * ratio**k, stop
# after `small_run` consecutive negligible panels, declare divergence
# after `flat_run` consecutive non-decreasing ones.
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


def _improper_drive(panel_value, a: float, rel_tol: float, x0: float,
                    ratio: float, max_panels: int) -> ImproperResult:
    acc = 0.0
    left = float(a)
    width = float(x0)
    small = 0
    flat = 0
    prev = None
    contribs = []
    for k in range(max_panels):
        right = left + width
        c = panel_value(left, right)
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
        width *= ratio
    return ImproperResult(acc, False, max_panels, 0.0)


def improper_gl(f, a: float = 0.0, rel_tol: float = 1e-10, x0: float = 1.0,
                ratio: float = 2.0, breakpoints=(), max_panels: int = 400) -> ImproperResult:
    """integral of f over [a, infinity) with geometric panels."""
    bps = sorted(p for p in breakpoints if p > a)

    def panel(left, right):
        edges = merge_breakpoints(left, right, bps)
        return gl_panels(f, edges, rel_tol=min(rel_tol, 1e-12))

    return _improper_drive(panel, a, rel_tol, x0, ratio, max_panels)


def stieltjes_panel(g, weight, a: float, b: float, rel_tol: float = 1e-11,
                    n0: int = 16, n_max: int = 8192) -> float:
    """integral of g d(weight) over (a, b] for nondecreasing `weight`.

    Midpoint Stieltjes sums on uniform subpanels, accelerated by a
    Richardson (Romberg-style) table; `weight` is only ever evaluated,
    never differentiated.
    """
    if b <= a:
        return 0.0
    rows = []
    n = n0
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
            if abs(diag - prev_diag) <= rel_tol * abs(diag) + 1e-300:
                return diag
        prev_diag = diag
        if n >= n_max:
            return diag
        n *= 2
        if len(rows) > 6:
            rows = rows[-6:]


def stieltjes_vs_tail(g, tail, a: float = 0.0, rel_tol: float = 1e-10,
                      x0: float = 1.0, ratio: float = 2.0, atoms=None,
                      breakpoints=(), max_panels: int = 400,
                      panel_tol: float = 1e-11) -> ImproperResult:
    """integral of g dF over (a, infinity) where F has tail `tail`.

    `tail` is the right-continuous survival function; `atoms` is an
    optional (locations, masses) pair of point masses embedded in it.
    Atom contributions are summed exactly and the continuous remainder
    is integrated against tail(t) - sum of atom masses above t.
    """
    locs = np.empty(0)
    masses = np.empty(0)
    if atoms is not None:
        locs = np.asarray(atoms[0], dtype=float)
        masses = np.asarray(atoms[1], dtype=float)
        keep = locs > a
        locs, masses = locs[keep], masses[keep]

    if locs.size:
        suffix = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])

        def cont_tail(t):
            t = np.asarray(t, dtype=float)
            idx = np.searchsorted(locs, t, side="right")
            return np.asarray(tail(t), dtype=float) - suffix[idx]
    else:
        def cont_tail(t):
            return np.asarray(tail(t), dtype=float)

    def weight(t):
        return -cont_tail(t)

    bps = sorted(set(float(p) for p in breakpoints) | set(locs.tolist()))

    def panel(left, right):
        edges = merge_breakpoints(left, right, bps)
        total = 0.0
        for el, er in zip(edges[:-1], edges[1:]):
            total += stieltjes_panel(g, weight, float(el), float(er), rel_tol=panel_tol)
        return total

    res = _improper_drive(panel, a, rel_tol, x0, ratio, max_panels)
    atom_part = float(np.dot(masses, np.asarray(g(locs), dtype=float))) if locs.size else 0.0
    return ImproperResult(res.value + atom_part, res.converged, res.panels, res.tail_estimate)


def stieltjes_vs_monotone(f, h, rel_tol: float = 1e-10, x0: float = 1.0,
                          ratio: float = 2.0, max_panels: int = 400,
                          panel_tol: float = 1e-11, breakpoints=()) -> ImproperResult:
    """integral of f dH over (0, infinity) for nondecreasing callable H."""
    bps = sorted(p for p in breakpoints if p > 0)

    def panel(left, right):
        edges = merge_breakpoints(left, right, bps)
        total = 0.0
        for el, er in zip(edges[:-1], edges[1:]):
            total += stieltjes_panel(f, h, float(el), float(er), rel_tol=panel_tol)
        return total

    return _improper_drive(panel, 0.0, rel_tol, x0, ratio, max_panels)
