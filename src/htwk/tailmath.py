"""Analytic and grid-based tail calculus for signed increment laws.

The increment model exposes the positive tail F-bar(x) = P(xi > x), the
negative tail N-bar(y) = P(xi < -y), atoms, and a sampler.  On top of it
sit the truncated negative mean m(x) = integral of N-bar over [0, x],
the drift criterion constant K = integral of t/m(t) dF over (0, inf),
integrated tail distributions, and a geometric-grid representation of
nonnegative distributions supporting Stieltjes sums and convolution.

Convention used throughout: t/m(t) tends to 1/c as t drops to 0, where
c = P(xi < 0); quadratures only ever evaluate the ratio at interior
points, so the limit enters through the atom-at-zero bookkeeping of the
renewal measures, never through a 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special

from . import _quad
from .errors import (DivergenceError, HorizonError, PreconditionError,
                     SpecValidationError)

_INF = float("inf")


def _merge_atoms(locs: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atoms at equal locations summed into one; locations come back sorted."""
    if locs.size == 0:
        return locs, masses
    uniq, inv = np.unique(locs, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inv, masses)
    return uniq, merged


# ----------------------------------------------------------------------
# analytic laws
# ----------------------------------------------------------------------

class Law:
    """A real-valued law given by its survival function and a sampler."""

    support: tuple[float, float] = (-_INF, _INF)
    left_mean_finite: bool = True
    right_mean_finite: bool = True

    def sf(self, t):
        """P(X > t), vectorized over real t."""
        raise NotImplementedError

    def cdf_strict(self, t):
        """P(X < t); equals 1 - sf(t) for continuous laws."""
        return 1.0 - np.asarray(self.sf(t), dtype=float)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.empty(0), np.empty(0)

    def kinks(self) -> list[float]:
        """Locations where sf is continuous but not smooth."""
        return []

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Pareto(Law):
    alpha: float
    kappa: float

    support = (0.0, _INF)

    def __post_init__(self):
        if not (self.alpha > 0 and self.kappa > 0):
            raise SpecValidationError("pareto requires alpha > 0 and kappa > 0")

    @property
    def right_mean_finite(self):
        return self.alpha > 1.0

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (self.kappa / (self.kappa + t)) ** self.alpha

    def inverse(self, u):
        u = np.asarray(u, dtype=float)
        return self.kappa * ((1.0 - u) ** (-1.0 / self.alpha) - 1.0)

    def sample(self, gen, n):
        return self.inverse(gen.random(n))


@dataclass(frozen=True)
class Exponential(Law):
    rate: float

    support = (0.0, _INF)

    def __post_init__(self):
        if not self.rate > 0:
            raise SpecValidationError("exponential requires rate > 0")

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return np.exp(-self.rate * t)

    def inverse(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def sample(self, gen, n):
        return self.inverse(gen.random(n))


@dataclass(frozen=True)
class Weibull(Law):
    shape: float
    scale: float = 1.0

    support = (0.0, _INF)

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise SpecValidationError("weibull requires shape > 0 and scale > 0")

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return np.exp(-((t / self.scale) ** self.shape))

    def inverse(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def sample(self, gen, n):
        return self.inverse(gen.random(n))


@dataclass(frozen=True)
class Lognormal(Law):
    mu: float
    sigma: float

    support = (0.0, _INF)

    def __post_init__(self):
        if not self.sigma > 0:
            raise SpecValidationError("lognormal requires sigma > 0")

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones(np.shape(t), dtype=float)
        pos = t > 0
        if np.any(pos):
            z = (np.log(np.where(pos, t, 1.0)) - self.mu) / (self.sigma * math.sqrt(2.0))
            out = np.where(pos, 0.5 * special.erfc(z), out)
        return out if out.shape else float(out)

    def sample(self, gen, n):
        return np.exp(self.mu + self.sigma * gen.standard_normal(n))


@dataclass(frozen=True)
class PointMass(Law):
    c: float

    @property
    def support(self):
        return (self.c, self.c)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < self.c, 1.0, 0.0)
        return out if out.shape else float(out)

    def cdf_strict(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > self.c, 1.0, 0.0)
        return out if out.shape else float(out)

    def atoms(self):
        return np.array([self.c]), np.array([1.0])

    def kinks(self):
        return [self.c]

    def sample(self, gen, n):
        return np.full(n, self.c, dtype=float)


@dataclass(frozen=True)
class Neg(Law):
    child: Law

    def __post_init__(self):
        if self.child.support[0] < 0:
            raise SpecValidationError(
                "neg requires a child supported on [0, infinity)")

    @property
    def support(self):
        lo, hi = self.child.support
        return (-hi, -lo)

    @property
    def left_mean_finite(self):
        return self.child.right_mean_finite

    @property
    def right_mean_finite(self):
        return self.child.left_mean_finite

    def sf(self, t):
        return self.child.cdf_strict(-np.asarray(t, dtype=float))

    def cdf_strict(self, t):
        return self.child.sf(-np.asarray(t, dtype=float))

    def atoms(self):
        locs, masses = self.child.atoms()
        order = np.argsort(-locs)
        return -locs[order], masses[order]

    def kinks(self):
        return [-k for k in self.child.kinks()]

    def sample(self, gen, n):
        return -self.child.sample(gen, n)


@dataclass(frozen=True)
class Shift(Law):
    c: float
    child: Law

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise SpecValidationError("shift requires a finite offset")

    @property
    def support(self):
        lo, hi = self.child.support
        return (lo + self.c, hi + self.c)

    @property
    def left_mean_finite(self):
        return self.child.left_mean_finite

    @property
    def right_mean_finite(self):
        return self.child.right_mean_finite

    def sf(self, t):
        return self.child.sf(np.asarray(t, dtype=float) - self.c)

    def cdf_strict(self, t):
        return self.child.cdf_strict(np.asarray(t, dtype=float) - self.c)

    def atoms(self):
        locs, masses = self.child.atoms()
        return locs + self.c, masses

    def kinks(self):
        base = [k + self.c for k in self.child.kinks()]
        lo = self.child.support[0] + self.c
        if math.isfinite(lo):
            base.append(lo)
        return base

    def sample(self, gen, n):
        return self.c + self.child.sample(gen, n)


@dataclass(frozen=True)
class Mixture(Law):
    weights: tuple[float, ...]
    children: tuple[Law, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.children) or len(self.children) < 2:
            raise SpecValidationError(
                "mix requires at least two components, one weight each")
        if any(w <= 0 for w in self.weights):
            raise SpecValidationError("mixture weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise SpecValidationError(
                f"mixture weights sum to {sum(self.weights)!r}, not 1 within 1e-12")

    @property
    def support(self):
        los, his = zip(*(ch.support for ch in self.children))
        return (min(los), max(his))

    @property
    def left_mean_finite(self):
        return all(ch.left_mean_finite for ch in self.children)

    @property
    def right_mean_finite(self):
        return all(ch.right_mean_finite for ch in self.children)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        out = sum(w * np.asarray(ch.sf(t), dtype=float)
                  for w, ch in zip(self.weights, self.children))
        return out if np.shape(out) else float(out)

    def cdf_strict(self, t):
        t = np.asarray(t, dtype=float)
        out = sum(w * np.asarray(ch.cdf_strict(t), dtype=float)
                  for w, ch in zip(self.weights, self.children))
        return out if np.shape(out) else float(out)

    def atoms(self):
        locs, masses = [], []
        for w, ch in zip(self.weights, self.children):
            l, m = ch.atoms()
            locs.append(l)
            masses.append(w * m)
        return _merge_atoms(np.concatenate(locs), np.concatenate(masses))

    def kinks(self):
        out = []
        for ch in self.children:
            out.extend(ch.kinks())
        return out

    def sample(self, gen, n):
        cumw = np.cumsum(self.weights)
        u = gen.random(n)
        idx = np.searchsorted(cumw, u, side="right")
        idx = np.minimum(idx, len(self.children) - 1)
        out = np.empty(n, dtype=float)
        for j, ch in enumerate(self.children):
            mask = idx == j
            cnt = int(mask.sum())
            if cnt:
                out[mask] = ch.sample(gen, cnt)
        return out


# ----------------------------------------------------------------------
# increment model
# ----------------------------------------------------------------------

@dataclass(eq=False)
class IncrementModel:
    """Signed step law of the walk, split into its two tails."""

    law: Law
    spec_text: str = ""

    def tail_pos(self, x):
        """F-bar(x) = P(xi > x) for x >= 0."""
        return self.law.sf(x)

    def tail_neg(self, y):
        """N-bar(y) = P(xi < -y) = P(xi^- > y) for y >= 0."""
        return self.law.cdf_strict(-np.asarray(y, dtype=float))

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return self.law.sample(gen, n)

    @cached_property
    def q_plus(self) -> float:
        return float(self.law.sf(0.0))

    @cached_property
    def infinite_neg_mean(self) -> bool:
        return not self.law.left_mean_finite

    @cached_property
    def support(self) -> tuple[float, float]:
        return self.law.support

    @cached_property
    def pos_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        locs, masses = self.law.atoms()
        keep = locs >= 0
        return locs[keep], masses[keep]

    @cached_property
    def neg_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms of xi^-: locations y > 0 with P(xi = -y) > 0."""
        locs, masses = self.law.atoms()
        keep = locs < 0
        order = np.argsort(-locs[keep])
        return -locs[keep][order], masses[keep][order]

    @cached_property
    def pos_breakpoints(self) -> list[float]:
        pts = {k for k in self.law.kinks() if k > 0}
        pts.update(self.pos_atoms[0][self.pos_atoms[0] > 0].tolist())
        return sorted(pts)

    @cached_property
    def neg_breakpoints(self) -> list[float]:
        pts = {-k for k in self.law.kinks() if k < 0}
        pts.update(self.neg_atoms[0].tolist())
        return sorted(p for p in pts if p > 0)

    @cached_property
    def has_negative_part(self) -> bool:
        return float(self.tail_neg(0.0)) > 0.0

    @cached_property
    def truncated_mean(self) -> "TruncatedMean":
        return TruncatedMean(self.tail_neg, breakpoints=self.neg_breakpoints)


# ----------------------------------------------------------------------
# truncated negative mean
# ----------------------------------------------------------------------

class TruncatedMean:
    """m(x) = integral of N-bar over [0, x], with cached panel integrals.

    Panels follow a width-geometric ladder (widths 1, 2, 4, ...) merged
    with the jump locations of N-bar, so every cached integral sees a
    smooth integrand, integrated by `gl_adaptive` to 1e-12 relative;
    point queries finish the open panel with fixed Gauss-Legendre
    nodes, vectorized over the query array.
    """

    def __init__(self, tail_neg: Callable, breakpoints=()):
        self._tail = tail_neg
        self.breakpoints = tuple(sorted(float(p) for p in breakpoints if p > 0))
        self._next_width = 1.0
        self._edges = [0.0]
        self._prefix = [0.0]
        self.c0 = float(np.asarray(tail_neg(0.0), dtype=float))
        self._edges_arr = np.array(self._edges)
        self._prefix_arr = np.array(self._prefix)
        self._extend(8.0)

    def _extend(self, x: float) -> None:
        if x <= self._edges[-1]:
            return
        while self._edges[-1] < x:
            left = self._edges[-1]
            right = left + self._next_width
            self._next_width *= 2.0
            cuts = [p for p in self.breakpoints if left < p < right] + [right]
            for p in sorted(cuts):
                seg = _quad.gl_adaptive(self._tail, self._edges[-1], p)
                self._edges.append(p)
                self._prefix.append(self._prefix[-1] + seg)
        self._edges_arr = np.array(self._edges)
        self._prefix_arr = np.array(self._prefix)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0):
            raise ValueError("truncated mean is defined for x >= 0")
        if arr.size:
            self._extend(float(arr.max()))
        idx = np.searchsorted(self._edges_arr, arr, side="right") - 1
        idx = np.clip(idx, 0, len(self._edges) - 1)
        left = self._edges_arr[idx]
        base = self._prefix_arr[idx]
        w = arr - left
        nodes, wts = _quad._gl01(64)
        t = left[:, None] + w[:, None] * nodes[None, :]
        vals = np.asarray(self._tail(t.reshape(-1)), dtype=float).reshape(t.shape)
        out = base + w * (vals @ wts)
        return float(out[0]) if scalar else out

    def ratio(self, x):
        """x/m(x), extended by its limit 1/c at x = 0."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.ndim(x) == 0
        if self.c0 <= 0.0:
            raise PreconditionError("x/m(x) undefined: P(xi < 0) = 0")
        out = np.empty(arr.shape)
        zero = arr <= 0.0
        out[zero] = 1.0 / self.c0
        if np.any(~zero):
            m = self(arr[~zero])
            out[~zero] = arr[~zero] / m
        return float(out[0]) if scalar else out


def truncated_neg_mean(model: IncrementModel) -> TruncatedMean:
    """The model's m(x) with shared panel cache."""
    if not model.has_negative_part:
        raise PreconditionError("model has no negative part; m is identically 0")
    return model.truncated_mean


# ----------------------------------------------------------------------
# renewal-type measures and the measure-integrated tail
# ----------------------------------------------------------------------

@dataclass
class RenewalMeasure:
    """Nondecreasing mass function H(t) = mass of [0, t] on the half line.

    `atom0` is the mass sitting at exactly 0 (the 0th renewal for
    empirical renewal functions; the limit of t/m(t) for the ratio
    measure).  `fn` must return values that already include it.
    """

    fn: Callable
    atom0: float = 0.0
    label: str = ""
    kinks: tuple[float, ...] = ()

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        vals = np.asarray(self.fn(np.maximum(arr, 0.0)), dtype=float)
        out = np.where(arr < 0, 0.0, vals)
        return float(out) if np.ndim(t) == 0 else out

    def check_subadditive(self, pairs, tol: float = 1e-9) -> bool:
        x, y = np.asarray(pairs[0], dtype=float), np.asarray(pairs[1], dtype=float)
        return bool(np.all(self(x + y) <= self(x) + self(y) + tol))

    @classmethod
    def lebesgue(cls):
        return cls(fn=lambda t: np.asarray(t, dtype=float), atom0=0.0, label="lebesgue")

    @classmethod
    def zero(cls):
        return cls(fn=lambda t: np.zeros(np.shape(t)) if np.shape(t) else 0.0,
                   atom0=0.0, label="zero")

    @classmethod
    def from_ratio(cls, tm: TruncatedMean):
        """H(t) = t/m(t), continuously extended by 1/c at 0; it has kinks
        where N-bar jumps or kinks."""
        return cls(fn=tm.ratio, atom0=1.0 / tm.c0, label="ratio-to-mean",
                   kinks=tm.breakpoints)

    @classmethod
    def from_points(cls, xs, hs, atom0: float = 1.0, label: str = "empirical"):
        """Monotone interpolant through probe values (log-x piecewise,
        power-law extrapolation beyond the last probe)."""
        xs = np.asarray(xs, dtype=float)
        hs = np.asarray(hs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise ValueError("need at least two increasing probe locations")
        if np.any(np.diff(hs) < 0):
            hs = np.maximum.accumulate(hs)
        lx, lh = np.log(xs), np.log(np.maximum(hs, 1e-300))
        slope_hi = (lh[-1] - lh[-2]) / (lx[-1] - lx[-2])

        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.empty(t.shape)
            tiny = t <= xs[0]
            out[tiny] = atom0 + (hs[0] - atom0) * np.clip(
                np.where(tiny, t, 0.0) / xs[0], 0.0, 1.0)[tiny]
            mid = (~tiny) & (t <= xs[-1])
            if np.any(mid):
                out[mid] = np.exp(np.interp(np.log(t[mid]), lx, lh))
            high = t > xs[-1]
            if np.any(high):
                out[high] = np.exp(lh[-1] + slope_hi * (np.log(t[high]) - lx[-1]))
            return out

        return cls(fn=lambda t: fn(np.atleast_1d(np.asarray(t, dtype=float))).reshape(np.shape(t)),
                   atom0=atom0, label=label, kinks=tuple(xs.tolist()))


# the improper drivers of both routes stop at 1e-10 relative; the two
# routes must agree within 1e-8 relative wherever neither is clipped
_ROUTE_REL_TOL = 1e-10
_ROUTE_AGREEMENT_TOL = 1e-8


def _route_b(model: IncrementModel, measure: RenewalMeasure,
             x: float) -> _quad.ImproperResult:
    """integral of H(t - x) dF(t) over (x, infinity), F's atoms summed
    exactly.  Panel widths scale with x, so contributions decay from the
    first panel; at x = 0 under the ratio measure this is K itself."""
    x = float(x)

    def g(t):
        return np.asarray(measure(np.asarray(t, dtype=float) - x), dtype=float)

    return _quad.stieltjes_vs_tail(
        g, model.tail_pos, a=x, rel_tol=_ROUTE_REL_TOL, x0=max(1.0, x / 8.0),
        atoms=model.pos_atoms,
        breakpoints=[b for b in model.pos_breakpoints if b > x])


def renewal_integrated_tail_forms(model: IncrementModel, measure: RenewalMeasure,
                                  x: float) -> tuple[float, float]:
    """Both unclipped integral forms of the measure-integrated tail.

    Route A integrates F-bar(t + x) against the measure, with panels cut
    at the measure's kinks and at b - x for F's breakpoints b > x; route
    B integrates H(t - x) against F.  They agree by integration by
    parts; computing them on independent panelings is the identity
    check.
    """
    x = float(x)
    fbar_x = float(model.tail_pos(x))

    def f_shift(t):
        return np.asarray(model.tail_pos(np.asarray(t, dtype=float) + x), dtype=float)

    def h_cont(t):
        return np.asarray(measure(t), dtype=float) - measure.atom0

    shifted = [b - x for b in model.pos_breakpoints if b > x]
    res_a = _quad.stieltjes_vs_monotone(f_shift, h_cont, rel_tol=_ROUTE_REL_TOL,
                                        x0=max(1.0, x / 8.0),
                                        breakpoints=[*measure.kinks, *shifted])
    if not res_a.converged:
        raise PreconditionError("measure-integrated tail: H dF-bar integral diverges")
    route_a = measure.atom0 * fbar_x + res_a.value

    res_b = _route_b(model, measure, x)
    if not res_b.converged:
        raise PreconditionError("measure-integrated tail: H(t-x) dF integral diverges")
    return route_a, res_b.value


def renewal_integrated_tail(model: IncrementModel, measure: RenewalMeasure, x):
    """min(1, integral of F-bar(t+x) H(dt)); both routes evaluated and
    required to agree within 1e-8 relative wherever unclipped."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs):
        a, b = renewal_integrated_tail_forms(model, measure, float(xi))
        if a < 1.0 and b < 1.0:
            denom = max(abs(a), abs(b), 1e-300)
            if abs(a - b) > _ROUTE_AGREEMENT_TOL * denom:
                raise DivergenceError(
                    f"integral forms disagree at x={xi}: {a} vs {b}", a)
        out[i] = min(1.0, a)
    return float(out[0]) if scalar else out


def _cell_ladder(s_max: float, kinks=()) -> tuple[np.ndarray, np.ndarray]:
    """Shared cells on [0, s] with s >= s_max for the route-A curve.

    The ladder's panels have widths 0.5, 1, 2, 4, ...; kinks strictly
    inside it cut panels into cells.  Returns the cell edges and, for
    each cell, the index of the ladder panel that holds it.
    """
    ladder = [0.0]
    width = 0.5
    while ladder[-1] < s_max:
        ladder.append(ladder[-1] + width)
        width *= 2.0
    ladder = np.asarray(ladder)
    edges = np.union1d(ladder, [k for k in kinks if 0.0 < k < ladder[-1]])
    return edges, np.searchsorted(ladder, edges[:-1], side="right") - 1


# renewal_integrated_tail_curve: cells reach past 1e13 and hold 64
# subcells each; a last ladder panel above 1e-10 of the total that does
# not shrink geometrically means the integral diverges; rows of x are
# taken in blocks of at most 2^17 matrix elements (1 MB temporaries)
_RENEWAL_CURVE_S_MAX = 1e13
_RENEWAL_CURVE_SUBCELLS = 64
_RENEWAL_CURVE_REL_TOL = 1e-10
_RENEWAL_CURVE_BLOCK = 1 << 17


def renewal_integrated_tail_curve(model: IncrementModel, measure: RenewalMeasure,
                                  xs) -> np.ndarray:
    """Route A of the measure-integrated tail for a whole x array:

        atom0 F-bar(x) + sum over atoms a > x of m_a H_c(a - x)
                       + integral of F-bar_c(t + x) dH_c(t),

    where H_c = H - atom0 and F-bar_c is F-bar without its atoms.  The
    integral is a midpoint Stieltjes sum on 64 uniform subcells of shared
    cells (the doubling ladder cut at the measure's kinks) with one
    Richardson step against 32 subcells, plus the geometric remainder
    past the last ladder panel; a remainder that does not shrink raises
    PreconditionError.  Unclipped, like
    `renewal_integrated_tail_forms(...)[0]`, whose pointwise two-route
    evaluation is the independent check on it.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n_sub = _RENEWAL_CURVE_SUBCELLS
    edges, panel = _cell_ladder(_RENEWAL_CURVE_S_MAX, measure.kinks)
    a, b = edges[:-1, None], edges[1:, None]
    sub = a + (b - a) * np.linspace(0.0, 1.0, n_sub + 1)
    sub[:, -1] = edges[1:]
    dh = np.diff(measure(sub.ravel()).reshape(sub.shape), axis=1)
    # each cell's n_sub and n_sub/2 midpoints side by side, weighted so
    # that one dot product gives (4 S_n - S_{n/2}) / 3
    nodes = np.concatenate([0.5 * (sub[:, :-1] + sub[:, 1:]),
                            0.5 * (sub[:, :-1:2] + sub[:, 2::2])], axis=1).ravel()
    wts = np.concatenate([dh * (4.0 / 3.0),
                          (dh[:, 0::2] + dh[:, 1::2]) * (-1.0 / 3.0)], axis=1).ravel()
    starts = np.flatnonzero(np.diff(panel, prepend=-1)) * (n_sub + n_sub // 2)

    locs, masses = model.pos_atoms
    fbar_cont = _quad.continuous_tail(model.tail_pos, locs, masses)

    out = np.empty(xs.shape)
    rows = max(1, _RENEWAL_CURVE_BLOCK // nodes.size)
    for i in range(0, xs.size, rows):
        x = xs[i:i + rows, None]
        per_panel = np.add.reduceat(fbar_cont(x + nodes) * wts, starts, axis=1)
        total = per_panel.sum(axis=1)
        tail = _quad.geometric_tail(per_panel[:, -2], per_panel[:, -1])
        significant = np.abs(per_panel[:, -1]) > _RENEWAL_CURVE_REL_TOL * np.abs(total)
        if np.any((tail == 0.0) & significant):
            raise PreconditionError(
                "measure-integrated tail: H dF-bar integral does not decay")
        out[i:i + rows] = total + tail

    if locs.size:
        d = locs[None, :] - xs[:, None]
        h_c = measure(np.maximum(d, 0.0).ravel()).reshape(d.shape) - measure.atom0
        out += np.where(d > 0.0, h_c, 0.0) @ masses
    return out + measure.atom0 * np.asarray(model.tail_pos(xs), dtype=float)


# ----------------------------------------------------------------------
# drift criterion and integrated tail: the ratio-measure cases
# ----------------------------------------------------------------------

def criterion_K(model: IncrementModel) -> tuple[float, bool]:
    """K = integral of t/m(t) dF over (0, infinity) and its finiteness verdict.

    Route B at x = 0 under the ratio measure.  A divergent panel trend
    yields (partial sum, False) instead of an exception; an atom of F at
    exactly 0 contributes nothing.
    """
    if not model.infinite_neg_mean:
        raise PreconditionError("criterion constant applies to infinite negative mean only")
    res = _route_b(model, RenewalMeasure.from_ratio(truncated_neg_mean(model)), 0.0)
    return res.value, res.converged


def integrated_tail(model: IncrementModel, K: float, x):
    """Tail at x of the drift-normalized integrated distribution.

    value(x) = (1/K) * integral over (x, infinity) of ((t-x)/m(t-x)) dF(t),
    clipped to [0, 1]: route B under the ratio measure, the driver that
    gives K, so value(0) = K/K = 1 exactly.
    """
    if not (K > 0 and math.isfinite(K)):
        raise PreconditionError("integrated tail needs a finite positive criterion constant")
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    out = np.empty(xs.shape)
    for i, xi in enumerate(xs):
        res = _route_b(model, H, xi)
        if not res.converged:
            raise DivergenceError("integrated tail quadrature diverged", res.value)
        out[i] = min(1.0, max(0.0, res.value / K))
    return float(out[0]) if scalar else out


def integrated_tail_curve(model: IncrementModel, K: float, xs) -> np.ndarray:
    """`integrated_tail` for a whole x array: route A under the ratio
    measure (`renewal_integrated_tail_curve`), divided by K and clipped
    to [0, 1].  Independent of the pointwise route B, which makes the
    pair a cross-check; restricted to models whose positive part is
    smooth (no atoms or kinks above 0).
    """
    if model.pos_breakpoints or model.pos_atoms[0].size:
        raise PreconditionError(
            "curve evaluation requires a smooth positive tail; "
            "use integrated_tail pointwise instead")
    if not (K > 0 and math.isfinite(K)):
        raise PreconditionError("integrated tail needs a finite positive criterion constant")
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    return np.clip(renewal_integrated_tail_curve(model, H, xs) / K, 0.0, 1.0)


# ----------------------------------------------------------------------
# scalar tail functionals
# ----------------------------------------------------------------------

def mu_plus(model: IncrementModel) -> float:
    """integral of F-bar over [0, infinity) to 1e-9 relative; raises
    DivergenceError if infinite."""
    res = _quad.improper_gl(model.tail_pos, a=0.0, rel_tol=1e-9,
                            breakpoints=model.pos_breakpoints)
    if not res.converged:
        raise DivergenceError("positive-part mean diverges", res.value)
    return res.value


def sstar_integral(model: IncrementModel, x: float) -> float:
    """integral over [0, x] of F-bar(x - y) F-bar(y) dy, via the symmetric
    half, to 1e-12 relative per panel."""
    x = float(x)
    if x <= 0:
        return 0.0
    half = 0.5 * x
    bps = set()
    for b in model.pos_breakpoints:
        if 0 < b < half:
            bps.add(b)
        if 0 < x - b < half:
            bps.add(x - b)
    # geometric refinement toward 0 where F-bar moves fastest
    w = min(1.0, half / 8.0)
    while w < half:
        bps.add(w)
        w *= 2.0

    def integrand(y):
        y = np.asarray(y, dtype=float)
        return (np.asarray(model.tail_pos(x - y), dtype=float)
                * np.asarray(model.tail_pos(y), dtype=float))

    edges = _quad.merge_breakpoints(0.0, half, sorted(bps))
    return 2.0 * _quad.gl_panels(integrand, edges)


# ----------------------------------------------------------------------
# grid distributions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    x_max: float = 1e6
    points_per_decade: int = 64
    x_min: float = 1e-3
    probe_refine: int = 8


def geometric_knots(x_max: float = 1e6, ppd: int = 64, x_min: float = 1e-3) -> np.ndarray:
    decades = math.log10(x_max / x_min)
    count = max(2, int(math.ceil(decades * ppd)))
    ladder = np.logspace(math.log10(x_min), math.log10(x_max), count + 1)
    ladder[0] = x_min
    ladder[-1] = x_max
    return np.concatenate([[0.0], ladder])


@dataclass(eq=False)
class GridDistribution:
    """Sub-probability distribution on [0, x_max] on a geometric grid.

    The continuous part is stored as tail values at the knots.  Inside a
    cell the tail follows a power law when its right knot value is
    positive, and is linear in the first cell and where the tail reaches
    0; atoms are kept exactly; mass that falls beyond the horizon is
    tracked in `mass_beyond`.
    """

    knots: np.ndarray
    tail_cont: np.ndarray
    atom_locs: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))
    mass_beyond: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        t = np.asarray(self.tail_cont, dtype=float)
        if k.ndim != 1 or k.size < 2 or k[0] != 0.0 or np.any(np.diff(k) <= 0):
            raise ValueError("knots must be increasing and start at 0")
        if t.shape != k.shape:
            raise ValueError("tail array must match the knot array")
        if np.any(np.diff(t) > 1e-12 * max(t[0], 1e-300)):
            raise ValueError("non-monotone input detected")
        t = np.minimum.accumulate(np.maximum(t, 0.0))
        if t[-1] != 0.0:
            self.mass_beyond = self.mass_beyond + float(t[-1])
            t = t - t[-1]
        self.knots = k
        self.tail_cont = t
        self.atom_locs = np.asarray(self.atom_locs, dtype=float)
        self.atom_masses = np.asarray(self.atom_masses, dtype=float)
        if self.atom_locs.size:
            order = np.argsort(self.atom_locs)
            self.atom_locs = self.atom_locs[order]
            self.atom_masses = self.atom_masses[order]
            if self.atom_locs[0] < 0 or self.atom_locs[-1] > k[-1]:
                raise ValueError("atoms must lie within [0, x_max]")
        if self.total_mass > 1.0 + 1e-9:
            raise ValueError("total mass exceeds 1")
        self._prepare_cells()

    def _prepare_cells(self):
        k, t = self.knots, self.tail_cont
        l, r = k[:-1], k[1:]
        tl, tr = t[:-1], t[1:]
        # a cell whose tail stays positive follows a power law; the rest
        # are linear, which is exactly 0 where the tail is already 0
        power = tr > 0.0
        power[0] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(power,
                            np.log(np.maximum(tl, 1e-300) / np.maximum(tr, 1e-300))
                            / np.log(r / np.maximum(l, 1e-300)),
                            0.0)
        self._cell_power = power
        self._cell_beta = beta
        if self.atom_locs.size:
            self._atom_suffix = np.concatenate(
                [np.cumsum(self.atom_masses[::-1])[::-1], [0.0]])
        else:
            self._atom_suffix = np.zeros(1)

    # -- queries ---------------------------------------------------------

    @property
    def x_max(self) -> float:
        return float(self.knots[-1])

    @property
    def total_mass(self) -> float:
        return float(self.tail_cont[0] + self.atom_masses.sum() + self.mass_beyond)

    def _cont_tail(self, y):
        y = np.asarray(y, dtype=float)
        k, t = self.knots, self.tail_cont
        idx = np.clip(np.searchsorted(k, y, side="right") - 1, 0, k.size - 2)
        l, r = k[idx], k[idx + 1]
        tl, tr = t[idx], t[idx + 1]
        beta = self._cell_beta[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lin = tl + (tr - tl) * ((y - l) / (r - l))
            pw = tl * np.exp(-beta * np.log(np.maximum(y, 1e-300)
                                            / np.maximum(l, 1e-300)))
        out = np.where(self._cell_power[idx], pw, lin)
        return np.where(y <= 0.0, t[0], np.where(y >= k[-1], t[-1], out))

    def tail(self, y):
        """Total mass strictly above y, for y <= x_max.

        Queries beyond the horizon return the unresolved lump
        `mass_beyond`; operations that need better must raise first.
        """
        arr = np.asarray(y, dtype=float)
        cont = self._cont_tail(arr)
        idx = np.searchsorted(self.atom_locs, arr, side="right")
        out = cont + self._atom_suffix[idx] + self.mass_beyond
        out = np.where(arr >= self.x_max, self.mass_beyond, out)
        return float(out) if np.ndim(y) == 0 else out

    # -- particle view ----------------------------------------------------

    def particles(self, refine: int = 4, lo: float = 0.0, hi: float | None = None,
                  closed_lo: bool = True,
                  with_atoms: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Representative locations and masses of the restriction to
        (lo, hi] (or [lo, hi] when closed_lo), atoms kept exactly and
        each continuous cell split into `refine` subcells placed at
        their interpolation-rule centroids."""
        hi = self.x_max if hi is None else min(float(hi), self.x_max)
        if closed_lo:
            a_keep = (self.atom_locs >= lo) & (self.atom_locs <= hi)
        else:
            a_keep = (self.atom_locs > lo) & (self.atom_locs <= hi)
        if not with_atoms:
            a_keep &= False
        a_locs = self.atom_locs[a_keep]
        a_mass = self.atom_masses[a_keep]

        k = self.knots
        i0 = max(0, int(np.searchsorted(k, lo, side="right")) - 1)
        i1 = min(k.size - 2, int(np.searchsorted(k, hi, side="left")) - 1)
        cells = np.arange(i0, i1 + 1)
        el = np.maximum(k[cells], lo)
        er = np.minimum(k[cells + 1], hi)
        meet = er > el
        cells, el, er = cells[meet], el[meet], er[meet]
        power = self._cell_power[cells]

        # refine subcells per cell, log-spaced in power-law cells (never
        # cell 0, so their left edges are positive)
        edges = np.linspace(el, er, refine + 1, axis=1)
        edges[power] = np.exp(np.linspace(np.log(el[power]), np.log(er[power]),
                                          refine + 1, axis=1))
        edges[:, 0], edges[:, -1] = el, er
        tails = self._cont_tail(edges)
        a, b = edges[:, :-1], edges[:, 1:]
        ta, tb = tails[:, :-1], tails[:, 1:]
        masses = ta - tb

        # centroids: the power law's in power-law cells, midpoints elsewhere
        s = 1.0 - self._cell_beta[cells][:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            L = np.log(b / np.maximum(a, 1e-300))
            area = np.where(np.abs(s) < 1e-10,
                            ta * a * L * (1.0 + 0.5 * s * L),
                            ta * a * np.expm1(s * L) / np.where(s == 0, 1.0, s))
            cent = np.where(masses > 0,
                            (a * ta - b * tb + area) / np.where(masses > 0, masses, 1.0),
                            0.5 * (a + b))
        cent = np.where(power[:, None], np.clip(cent, a, b), 0.5 * (a + b))

        locs = np.concatenate([a_locs, cent.ravel()])
        masses = np.concatenate([a_mass, np.maximum(masses, 0.0).ravel()])
        keep = masses > 0.0
        return locs[keep], masses[keep]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_tail(cls, tail_fn: Callable, x_max: float = 1e6, ppd: int = 64,
                  x_min: float = 1e-3) -> "GridDistribution":
        knots = geometric_knots(x_max, ppd, x_min)
        vals = np.asarray(tail_fn(knots), dtype=float)
        return cls(knots=knots, tail_cont=vals.copy())

    @classmethod
    def from_model(cls, model: IncrementModel, x_max: float = 1e6, ppd: int = 64,
                   x_min: float = 1e-3) -> "GridDistribution":
        if model.support[0] < 0:
            raise PreconditionError("grid discretization needs support in [0, infinity)")
        knots = geometric_knots(x_max, ppd, x_min)
        locs, masses = model.pos_atoms
        keep = locs <= x_max
        beyond_atoms = float(masses[~keep].sum())
        locs, masses = locs[keep], masses[keep]
        cont = _quad.continuous_tail(model.tail_pos, locs, masses)(knots) - beyond_atoms
        return cls(knots=knots, tail_cont=np.maximum(cont, 0.0), atom_locs=locs,
                   atom_masses=masses, mass_beyond=beyond_atoms)

    @classmethod
    def from_point(cls, c: float, mass: float = 1.0) -> "GridDistribution":
        if c < 0:
            raise ValueError("point mass location must be nonnegative")
        top = max(1.0, 2.0 * c)
        knots = np.array([0.0, top])
        return cls(knots=knots, tail_cont=np.zeros(2),
                   atom_locs=np.array([float(c)]), atom_masses=np.array([float(mass)]))

    @classmethod
    def identity(cls) -> "GridDistribution":
        return cls.from_point(0.0)

    @classmethod
    def from_samples(cls, values, x_max: float = 1e6, ppd: int = 64,
                     x_min: float = 1e-3) -> "GridDistribution":
        v = np.sort(np.asarray(values, dtype=float))
        if v.size == 0 or v[0] < 0:
            raise ValueError("need nonnegative samples")
        n = v.size
        knots = geometric_knots(x_max, ppd, x_min)
        beyond = float(np.mean(v > x_max))
        atom0 = float(np.mean(v == 0.0))
        tail = (n - np.searchsorted(v, knots, side="right")) / n
        cont = np.maximum(tail - beyond, 0.0)
        return cls(knots=knots, tail_cont=cont,
                   atom_locs=np.array([0.0]) if atom0 > 0 else np.empty(0),
                   atom_masses=np.array([atom0]) if atom0 > 0 else np.empty(0),
                   mass_beyond=beyond)

    @classmethod
    def mixture(cls, weights, grids) -> "GridDistribution":
        weights = np.asarray(weights, dtype=float)
        base = grids[0]
        for g in grids[1:]:
            if not np.array_equal(g.knots, base.knots):
                raise ValueError("mixture components must share a knot set")
        tail = sum(w * g.tail_cont for w, g in zip(weights, grids))
        locs, masses = _merge_atoms(
            np.concatenate([g.atom_locs for g in grids]),
            np.concatenate([w * g.atom_masses for w, g in zip(weights, grids)]))
        beyond = float(sum(w * g.mass_beyond for w, g in zip(weights, grids)))
        return cls(knots=base.knots.copy(), tail_cont=np.asarray(tail, dtype=float),
                   atom_locs=locs, atom_masses=masses, mass_beyond=beyond)

    # -- convolution -------------------------------------------------------

    def convolve(self, other: "GridDistribution", refine: int = 4) -> "GridDistribution":
        knots = np.union1d(self.knots, other.knots)
        m1b, m2b = self.mass_beyond, other.mass_beyond
        tot1, tot2 = self.total_mass, other.total_mass
        beyond = m1b * tot2 + m2b * tot1 - m1b * m2b
        x_max = float(knots[-1])

        # atom x atom, exactly
        new_locs: np.ndarray = np.empty(0)
        new_masses: np.ndarray = np.empty(0)
        if self.atom_locs.size and other.atom_locs.size:
            locs = (self.atom_locs[:, None] + other.atom_locs[None, :]).ravel()
            masses = (self.atom_masses[:, None] * other.atom_masses[None, :]).ravel()
            inside = locs <= x_max
            beyond += float(masses[~inside].sum())
            new_locs, new_masses = _merge_atoms(locs[inside], masses[inside])

        tail_at = np.zeros(knots.size)

        def add_shifted_cont(grid: "GridDistribution", shifts, weights):
            # contribution of (shift + continuous part of grid) to the tail
            nonlocal tail_at
            shifts = np.asarray(shifts, dtype=float)
            weights = np.asarray(weights, dtype=float)
            if shifts.size == 0:
                return
            d = knots[:, None] - shifts[None, :]
            vals = grid._cont_tail(np.maximum(d, 0.0))
            vals = np.where(d < 0, grid.tail_cont[0], vals)
            tail_at += vals @ weights

        add_shifted_cont(other, self.atom_locs, self.atom_masses)
        add_shifted_cont(self, other.atom_locs, other.atom_masses)
        p_locs, p_masses = self.particles(refine=refine, with_atoms=False)
        add_shifted_cont(other, p_locs, p_masses)

        resolved_tail = float(tail_at[-1])
        beyond += resolved_tail
        tail_cont = np.minimum.accumulate(np.maximum(tail_at - resolved_tail, 0.0))
        return GridDistribution(knots=knots, tail_cont=tail_cont,
                                atom_locs=new_locs, atom_masses=new_masses,
                                mass_beyond=beyond)

    def power(self, n: int, refine: int = 4, defect_bound: float = 1e-6) -> "GridDistribution":
        return self.powers(n, refine=refine, defect_bound=defect_bound)[n]

    def powers(self, n: int, refine: int = 4,
               defect_bound: float = 1e-6) -> list["GridDistribution"]:
        """[G^0, G^1, ..., G^n] by repeated pairwise convolution."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        out = [GridDistribution(
            knots=self.knots.copy(), tail_cont=np.zeros_like(self.tail_cont),
            atom_locs=np.array([0.0]), atom_masses=np.array([1.0]))]
        for i in range(1, n + 1):
            nxt = out[-1].convolve(self, refine=refine)
            if nxt.mass_beyond > defect_bound:
                raise HorizonError(
                    f"convolution defect {nxt.mass_beyond:.3e} exceeds bound "
                    f"{defect_bound:.1e} at power {i}; enlarge x_max")
            out.append(nxt)
        return out


# ----------------------------------------------------------------------
# grid-level operations
# ----------------------------------------------------------------------

def _check_horizon(grid: GridDistribution, x: float) -> None:
    """Probes past the horizon are unresolved once mass lies beyond it."""
    if x > grid.x_max * (1 + 1e-12) and grid.mass_beyond > 0.0:
        raise HorizonError(f"probe {x} beyond grid horizon {grid.x_max} "
                           f"with unresolved mass {grid.mass_beyond:.3e}")


def conv_tail(grid: GridDistribution, model: IncrementModel, x: float,
              refine: int = 8) -> float:
    """integral over [0, x] of G(du) F-bar(x - u), a Stieltjes sum over
    grid cells with centroid representatives."""
    x = float(x)
    _check_horizon(grid, x)
    if x < 0:
        return 0.0
    locs, masses = grid.particles(refine=refine, lo=0.0, hi=x, closed_lo=True)
    if locs.size == 0:
        return 0.0
    return float(np.dot(masses, np.asarray(model.tail_pos(x - locs), dtype=float)))


def self_conv_tail(grid: GridDistribution, x: float, refine: int = 8) -> float:
    """P(X1 + X2 > x) for X1, X2 iid from the grid distribution."""
    x = float(x)
    _check_horizon(grid, x)
    if x < 0:
        return float(min(1.0, grid.total_mass ** 2))
    locs, masses = grid.particles(refine=refine, lo=0.0, hi=x, closed_lo=True)
    head = float(grid.tail(x))
    if locs.size == 0:
        return head
    return head + float(np.dot(masses, grid.tail(x - locs)))
