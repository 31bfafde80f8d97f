"""Analytic and grid-based tail calculus for signed increment laws.

The increment model exposes the positive tail F-bar(x) = P(xi > x),
atoms and a sampler; its law gives the negative tail N-bar(y) =
P(xi < -y) as `cdf_strict(-y)`.  On top of them sit the truncated
negative mean m(x) = integral of N-bar over [0, x], the drift criterion
constant K = integral of t/m(t) dF over (0, inf), integrated tail
distributions, and a geometric-grid representation of nonnegative
distributions supporting Stieltjes sums and convolution.

Convention used throughout: t/m(t) tends to 1/c as t drops to 0, where
c = P(xi < 0); quadratures only ever evaluate the ratio at interior
points, so the limit enters through the atom-at-zero bookkeeping of the
renewal measures, never through a 0/0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import _quad
from .errors import (DivergenceError, HorizonError, PreconditionError,
                     SpecValidationError)

_INF = float("inf")

# the grid layer's row blocks follow the quadrature's block rule
_GRID_BLOCK = _quad._GRID_BLOCK


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
    """A real-valued law given by its survival function.

    Each law states its sf, cdf_strict, atoms, kinks and the closed-form
    integrals of sf and cdf_strict; whether it has mass below a point or
    a finite mean on either side is read from these.  Its draws come from
    the rules `_compile_tape` builds from the law tree.
    """

    def sf(self, t):
        """P(X > t), vectorized over real t."""
        raise NotImplementedError

    def cdf_strict(self, t):
        """P(X < t); equals 1 - sf(t) for continuous laws."""
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.empty(0), np.empty(0)

    def kinks(self) -> list[float]:
        """Locations where sf is not smooth: kinks and atoms."""
        raise NotImplementedError

    def sf_integral(self, a, b):
        """integral of P(X > t) over [a, b] for a <= b, in closed form;
        vectorized over a and b, and b may be infinite."""
        raise NotImplementedError

    def cdf_integral(self, a, b):
        """integral of P(X < t) over [a, b] for a <= b, in closed form;
        vectorized over a and b, and b may be infinite."""
        raise NotImplementedError


def _float_or_array(out):
    out = np.asarray(out, dtype=float)
    return out if out.shape else float(out)


def _difference_and_error(x, c):
    """fl(x - c) and its rounding error (x - c) - fl(x - c), exactly
    (Knuth's TwoSum); the error is 0 where x is infinite."""
    x = np.asarray(x, dtype=float)
    d = x - c
    with np.errstate(invalid="ignore"):
        z = d - x
        err = (x - (d - z)) - (c + z)
    return d, np.where(np.isfinite(x), err, 0.0)


def _weighted_sum(arms, value_of):
    """The sum of w * value_of(law) over the (w, law) pairs `arms`."""
    return _float_or_array(sum(w * np.asarray(value_of(ch), dtype=float)
                               for w, ch in arms))


def _expm1_less_linear(z):
    """e^z - 1 - z without cancellation, vectorized: its Taylor series,
    z^2/2! + z^3/3! + ..., where |z| < 1, and expm1(z) - z, which loses
    at most two bits, elsewhere."""
    z = np.asarray(z, dtype=float)
    near = np.abs(z) < 1.0
    zn = np.where(near, z, 0.0)
    series = 1.0
    for k in range(20, 2, -1):
        series = 1.0 + series * zn / k
    return np.where(near, 0.5 * zn * zn * series, np.expm1(z) - z)


# an interval [lo, hi] is short where this many times hi - lo is below lo
_SHORT_INTERVAL = 8


class _HalfLineLaw(Law):
    """A continuous law on [0, infinity): sf is 1 below 0, and each
    subclass gives the integral of sf over a part of the half line and
    its inverse transform: `_quantile(u, out, negate)` writes the law's
    quantiles of the uniforms u, or their negations, into out, by
    default u itself, and returns them."""

    def kinks(self):
        return [0.0]

    def _tail_integral(self, lo, hi):
        """integral of sf over [lo, hi] for 0 <= lo <= hi <= infinity."""
        raise NotImplementedError

    def _partial_mean(self, lo, hi):
        """E[X; lo < X < hi] for 0 <= lo <= hi <= infinity in closed form."""
        raise NotImplementedError

    def _excess_mean(self, lo, hi):
        """E[X - lo; lo < X < hi] for 0 <= lo <= hi <= infinity; a law
        whose closed form gives it directly overrides this.  Here it is
        the partial mean less lo (F(hi) - F(lo)), a difference that
        cancels where hi - lo is short against lo; on such an interval it
        is the same excess as the integral of F(hi) - F(t) over [lo, hi],
        by fixed 32-node Gauss-Legendre, whose integrand is smooth there.
        The integrand is taken as sf(t) - sf(hi) where F(hi) >= 1/2, so
        that it is a difference of the smaller tail's values."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        gain = self.cdf_strict(hi) - self.cdf_strict(lo)
        out = np.asarray(self._partial_mean(lo, hi) - lo * gain, dtype=float)
        short = (hi - lo) * _SHORT_INTERVAL < lo
        if np.any(short):
            a, b = lo[short], hi[short]
            nodes, w32, _ = _quad._gl_nodes()
            t = a[:, None] + (b - a)[:, None] * nodes[:32]
            f_b = self.cdf_strict(b)[:, None]
            gap = np.where(f_b < 0.5, f_b - self.cdf_strict(t),
                           self.sf(t) - self.sf(b)[:, None])
            out[short] = (b - a) * (gap @ w32)
        return out

    def sf_integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        below = np.minimum(b, 0.0) - np.minimum(a, 0.0)
        return _float_or_array(
            below + self._tail_integral(np.maximum(a, 0.0), np.maximum(b, 0.0)))

    def cdf_integral(self, a, b):
        # by parts, (hi - lo) F(hi) - E[X - lo; lo < X < hi]; the excess
        # is at most (hi - lo) (F(hi) - F(lo)), so the difference keeps
        # all but a few bits
        lo = np.maximum(np.asarray(a, dtype=float), 0.0)
        hi = np.maximum(np.asarray(b, dtype=float), 0.0)
        if not np.any(hi > lo):
            # every interval is empty above 0, as for a mixture's positive
            # arm under m(x) = cdf_integral(-x, 0)
            return _float_or_array(np.zeros(np.broadcast(lo, hi).shape))
        with np.errstate(invalid="ignore"):
            out = (hi - lo) * self.cdf_strict(hi) - self._excess_mean(lo, hi)
            out = np.where(hi == _INF, _INF, out)
        return _float_or_array(out)


@dataclass(frozen=True)
class Pareto(_HalfLineLaw):
    alpha: float
    kappa: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.kappa > 0):
            raise SpecValidationError("pareto requires alpha > 0 and kappa > 0")

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (self.kappa / (self.kappa + t)) ** self.alpha

    def _tail_integral(self, lo, hi):
        # kappa^a ((kappa+hi)^(1-a) - (kappa+lo)^(1-a)) / (1-a), through
        # expm1 and log1p so that no two near-equal numbers are subtracted;
        # kappa log((kappa+hi)/(kappa+lo)) at a = 1, and inf when a <= 1
        # and hi = inf
        k, s = self.kappa, 1.0 - self.alpha
        log_ratio = np.log1p((hi - lo) / (k + lo))
        if s == 0.0:
            return k * log_ratio
        return k / s * (k / (k + lo)) ** -s * np.expm1(s * log_ratio)

    def cdf_strict(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return -np.expm1(-self.alpha * np.log1p(t / self.kappa))

    def _excess_mean(self, lo, hi):
        # with e^L = (kappa + hi)/(kappa + lo) and s = 1 - alpha, the
        # excess is sf(lo) alpha (kappa + lo) J, where
        # J = integral over [0, L] of (e^y - 1) e^(-alpha y) dy
        #   = e2(s L)/s + e2(-alpha L)/alpha,  e2(z) = e^z - 1 - z,
        # whose first term is 0 at s = 0; both terms are positive for
        # alpha <= 1, and for alpha > 1 they differ in sign and cancel by
        # a factor near 2 alpha - 1 at small L
        a, k, s = self.alpha, self.kappa, 1.0 - self.alpha
        L = np.log1p((hi - lo) / (k + lo))
        j = _expm1_less_linear(-a * L) / a
        if s != 0.0:
            j = j + _expm1_less_linear(s * L) / s
        return self.sf(lo) * a * (k + lo) * j

    def _quantile(self, u, out=None, negate=False):
        # kappa ((1 - u)^(-1/alpha) - 1); `**=` takes the scalar fast
        # paths of `**` (alpha = 1 is a reciprocal).  Negated, the
        # difference is 1 - (1 - u)^(-1/alpha): rounding is symmetric in
        # sign, so that is the same number negated, and a kappa of 1
        # multiplies exactly
        v = np.subtract(1.0, u, out=u if out is None else out)
        v **= -1.0 / self.alpha
        if negate:
            np.subtract(1.0, v, out=v)
        else:
            v -= 1.0
        if self.kappa != 1.0:
            v *= self.kappa
        return v


@dataclass(frozen=True)
class Exponential(_HalfLineLaw):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise SpecValidationError("exponential requires rate > 0")

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return np.exp(-self.rate * t)

    def cdf_strict(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return -np.expm1(-self.rate * t)

    def _tail_integral(self, lo, hi):
        return np.exp(-self.rate * lo) * -np.expm1(-self.rate * (hi - lo)) / self.rate

    def _excess_mean(self, lo, hi):
        # memoryless: sf(lo) E[X; X < hi - lo], and rate E[X; X < d] is
        # e^(-u) (e^u - 1 - u) at u = rate d; u is capped at 50, past
        # which that is 1 to double precision
        u = np.minimum(self.rate * (hi - lo), 50.0)
        return self.sf(lo) * np.exp(-u) * _expm1_less_linear(u) / self.rate

    def _quantile(self, u, out=None, negate=False):
        # -log1p(-u) / rate; rounding to nearest is symmetric in sign, so
        # log1p(-u) / -rate is the same number, and log1p(-u) / rate its
        # negation; a divisor of 1 divides exactly
        v = np.negative(u, out=u if out is None else out)
        np.log1p(v, out=v)
        d = self.rate if negate else -self.rate
        if d != 1.0:
            v /= d
        return v


@dataclass(frozen=True)
class Weibull(_HalfLineLaw):
    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise SpecValidationError("weibull requires shape > 0 and scale > 0")

    def sf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return np.exp(-((t / self.scale) ** self.shape))

    def cdf_strict(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return -np.expm1(-((t / self.scale) ** self.shape))

    def _gamma_mass(self, a, lo, hi):
        """scale Gamma(1+1/shape) times the mass of [lo', hi'] under
        Gamma(a), where t' = (t/scale)^shape.  The lower regularized
        gamma differences that mass where it is below 1/2 at hi', the
        upper one elsewhere, so neither difference cancels."""
        from scipy import special

        u_lo = (lo / self.scale) ** self.shape
        u_hi = (hi / self.scale) ** self.shape
        p_hi = special.gammainc(a, u_hi)
        mass = np.where(p_hi < 0.5, p_hi - special.gammainc(a, u_lo),
                        special.gammaincc(a, u_lo) - special.gammaincc(a, u_hi))
        return self.scale * special.gamma(1.0 + 1.0 / self.shape) * mass

    def _tail_integral(self, lo, hi):
        # substituting u = (t/scale)^shape, the mass is under Gamma(1/shape)
        return self._gamma_mass(1.0 / self.shape, lo, hi)

    def _partial_mean(self, lo, hi):
        # and under Gamma(1+1/shape) for the partial mean
        return self._gamma_mass(1.0 + 1.0 / self.shape, lo, hi)

    def _quantile(self, u, out=None, negate=False):
        # scale (-log1p(-u))^(1/shape); negated, the factor is -scale,
        # since rounding is symmetric in sign, and a factor of 1
        # multiplies exactly
        v = np.negative(u, out=u if out is None else out)
        np.log1p(v, out=v)
        np.negative(v, out=v)
        v **= 1.0 / self.shape
        c = -self.scale if negate else self.scale
        if c != 1.0:
            v *= c
        return v


@dataclass(frozen=True)
class Lognormal(_HalfLineLaw):
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise SpecValidationError("lognormal requires sigma > 0")

    def sf(self, t):
        from scipy import special

        t = np.asarray(t, dtype=float)
        out = np.ones(np.shape(t), dtype=float)
        pos = t > 0
        if np.any(pos):
            z = (np.log(np.where(pos, t, 1.0)) - self.mu) / (self.sigma * math.sqrt(2.0))
            out = np.where(pos, 0.5 * special.erfc(z), out)
        return _float_or_array(out)

    def cdf_strict(self, t):
        t = np.asarray(t, dtype=float)
        pos = t > 0
        if not np.any(pos):
            # neg's check of its child at 0 builds a model without scipy
            return _float_or_array(np.zeros(t.shape))
        from scipy import special

        z = (np.log(np.where(pos, t, 1.0)) - self.mu) / (self.sigma * math.sqrt(2.0))
        return _float_or_array(np.where(pos, 0.5 * special.erfc(-z), 0.0))

    def _tail_integral(self, lo, hi):
        # by parts: hi sf(hi) - lo sf(lo) + E[X; lo < X <= hi]; hi sf(hi)
        # vanishes as hi grows
        partial = self._partial_mean(lo, hi)
        hi = np.where(hi == _INF, 0.0, hi)
        return hi * self.sf(hi) - lo * self.sf(lo) + partial

    def _partial_mean(self, lo, hi):
        from scipy import special

        # exp(mu + sigma^2/2) times the normal mass of [z(lo), z(hi)],
        # z(t) = (log t - mu - sigma^2)/sigma, taken from the nearer tail
        with np.errstate(divide="ignore"):
            z_lo = (np.log(lo) - self.mu) / self.sigma - self.sigma
            z_hi = (np.log(hi) - self.mu) / self.sigma - self.sigma
        mass = np.where(z_lo > 0.0, special.ndtr(-z_lo) - special.ndtr(-z_hi),
                        special.ndtr(z_hi) - special.ndtr(z_lo))
        return math.exp(self.mu + 0.5 * self.sigma ** 2) * mass

    def _quantile(self, u, out=None, negate=False):
        # exp(mu + sigma ndtri(u)); negated, the same number negated
        from scipy import special

        v = special.ndtri(u, out=u if out is None else out)
        v *= self.sigma
        v += self.mu
        np.exp(v, out=v)
        if negate:
            np.negative(v, out=v)
        return v


@dataclass(frozen=True)
class PointMass(Law):
    c: float

    def sf(self, t):
        return _float_or_array(np.where(np.asarray(t, dtype=float) < self.c, 1.0, 0.0))

    def cdf_strict(self, t):
        return _float_or_array(np.where(np.asarray(t, dtype=float) > self.c, 1.0, 0.0))

    def sf_integral(self, a, b):
        # the length of [a, b] below c
        return _float_or_array(np.minimum(b, self.c) - np.minimum(a, self.c))

    def cdf_integral(self, a, b):
        # the length of [a, b] above c
        return _float_or_array(np.maximum(b, self.c) - np.maximum(a, self.c))

    def atoms(self):
        return np.array([self.c]), np.array([1.0])

    def kinks(self):
        return [self.c]


@dataclass(frozen=True)
class Neg(Law):
    child: Law

    def __post_init__(self):
        if self.child.cdf_strict(0.0) > 0:
            raise SpecValidationError(
                "neg requires a child supported on [0, infinity)")

    def sf(self, t):
        return self.child.cdf_strict(-np.asarray(t, dtype=float))

    def cdf_strict(self, t):
        return self.child.sf(-np.asarray(t, dtype=float))

    def sf_integral(self, a, b):
        return self.child.cdf_integral(-np.asarray(b, dtype=float),
                                       -np.asarray(a, dtype=float))

    def cdf_integral(self, a, b):
        return self.child.sf_integral(-np.asarray(b, dtype=float),
                                      -np.asarray(a, dtype=float))

    def atoms(self):
        locs, masses = self.child.atoms()
        order = np.argsort(-locs)
        return -locs[order], masses[order]

    def kinks(self):
        return [-k for k in self.child.kinks()]


@dataclass(frozen=True)
class Shift(Law):
    c: float
    child: Law

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise SpecValidationError("shift requires a finite offset")

    def sf(self, t):
        return self.child.sf(np.asarray(t, dtype=float) - self.c)

    def cdf_strict(self, t):
        return self.child.cdf_strict(np.asarray(t, dtype=float) - self.c)

    def _integral(self, a, b, child_integral, integrand_beside):
        """child_integral over the exact interval [a - c, b - c]: its
        rounded ends' integral plus, at each end, the sliver the rounding
        cut off or added times the integrand beside that end, so a short
        interval keeps its length where a - c and b - c round together."""
        sa, ea = _difference_and_error(a, self.c)
        sb, eb = _difference_and_error(b, self.c)
        core = child_integral(sa, sb)
        if not (np.any(ea) or np.any(eb)):
            return core
        return _float_or_array(core + eb * integrand_beside(sb, eb)
                               - ea * integrand_beside(sa, ea))

    def sf_integral(self, a, b):
        # P(X > t) just below y is P(X >= y), the sf at y's predecessor
        return self._integral(a, b, self.child.sf_integral,
                              lambda y, e: self.child.sf(
                                  np.where(e < 0, np.nextafter(y, -np.inf), y)))

    def cdf_integral(self, a, b):
        # P(X < t) just above y is P(X <= y), cdf_strict at y's successor
        return self._integral(a, b, self.child.cdf_integral,
                              lambda y, e: self.child.cdf_strict(
                                  np.where(e > 0, np.nextafter(y, np.inf), y)))

    def atoms(self):
        locs, masses = self.child.atoms()
        return locs + self.c, masses

    def kinks(self):
        return [k + self.c for k in self.child.kinks()]


def _choice_masks(u: np.ndarray, cuts) -> list[np.ndarray]:
    """Each child's mask of a mixture's choice uniforms u, given the
    cumulative weights but the last, `cuts`: child j takes the u with
    cuts[j-1] <= u < cuts[j], and the last child every u >= cuts[-1]."""
    upto = [u < c for c in cuts]
    return [upto[0], *(b ^ a for a, b in zip(upto, upto[1:])),
            np.logical_not(upto[-1])]


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

    def _weighted(self, value_of):
        """The weighted sum of value_of(child) over the children."""
        return _weighted_sum(zip(self.weights, self.children), value_of)

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        return self._weighted(lambda ch: ch.sf(t))

    def cdf_strict(self, t):
        t = np.asarray(t, dtype=float)
        return self._weighted(lambda ch: ch.cdf_strict(t))

    def sf_integral(self, a, b):
        return self._weighted(lambda ch: ch.sf_integral(a, b))

    def cdf_integral(self, a, b):
        return self._weighted(lambda ch: ch.cdf_integral(a, b))

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


# ----------------------------------------------------------------------
# the draw rules, and the uniforms they read
# ----------------------------------------------------------------------

# Each node of the law tree has one rule that draws n of its values from
# a `_UniformTape` or a bare generator's `_GeneratorRows`, spending its
# uniforms in the stream contract's order: a mixture spends n choice
# uniforms and then draws each child's values for the uniforms it took,
# in child order; an inverse-transform leaf spends one uniform per draw,
# a point none, and neg and shift transform their child's draws.  The
# rules are module-level functions bound by `partial`, so a model that
# holds its compiled rules still pickles.

def _leaf_array(row, tape, n):
    return tape.take(row, n)


def _point_array(c, tape, n):
    return np.full(n, c)


def _mixture_array(cuts, arms, tape, n):
    # the masks are set before the first child reads the tape; each
    # child's draws are scattered through its mask's indices, several
    # times cheaper than a boolean index on a random mask
    masks = _choice_masks(tape.take(0, n), cuts)
    out = np.empty(n)
    for mask, arm in zip(masks, arms):
        ix = mask.nonzero()[0]
        if ix.size:
            out[ix] = arm(tape, ix.size)
    return out


def _compile_tape(law: Law, leaves: list, post: tuple = ()) -> Callable:
    """The draw rule of a law whose draws then go through the steps
    `post` in order, each None for a negation or the offset a shift
    adds.  Neg and shift pass their step down to the leaves, where it is
    the same numpy operation on a chunk of quantiles as on a step's
    draws.  Each (inverse-transform leaf, steps) pair is appended to
    `leaves` once, and its rule reads the tape's row 1 + its index
    there."""
    if isinstance(law, Mixture):
        return partial(_mixture_array, tuple(np.cumsum(law.weights)[:-1].tolist()),
                       [_compile_tape(ch, leaves, post) for ch in law.children])
    if isinstance(law, Neg):
        return _compile_tape(law.child, leaves, (None, *post))
    if isinstance(law, Shift):
        return _compile_tape(law.child, leaves, (float(law.c), *post))
    if isinstance(law, PointMass):
        c = float(law.c)
        for step in post:
            c = -c if step is None else c + step
        return partial(_point_array, c)
    if (law, post) not in leaves:  # a `_HalfLineLaw`
        leaves.append((law, post))
    return partial(_leaf_array, 1 + leaves.index((law, post)))


def _leaf_values(leaf: _HalfLineLaw, post: tuple, u: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The leaf's quantiles of the uniforms u through the steps `post`,
    computed in out.  A negation first in `post` is the quantile's own,
    the same bits in fewer numpy calls: the read-ahead helper's calls
    are what the walk pays for it, in the interpreter lock."""
    negate = post[:1] == (None,)
    v = leaf._quantile(u, out, negate)
    for step in post[1:] if negate else post:
        if step is None:
            np.negative(v, out=v)
        else:
            v += step
    return v


def _philox_seek(bg: np.random.Philox, start: dict, p: int) -> None:
    """Put the Philox bit generator bg where p outputs drawn from the
    state `start` leave it, in O(1): spend the buffered outputs, advance
    whole 4-output blocks and draw the rest of the last block, so that
    the state, buffer included, is the sequential draws' own."""
    pos = start["buffer_pos"]
    if p <= 4 - pos:
        bg.state = {**start, "buffer_pos": pos + p}
        return
    blocks, rest = divmod(p - (4 - pos) - 1, 4)
    bg.state = {**start, "buffer_pos": 4}
    bg.advance(blocks)
    bg.random_raw(rest + 1)
    # advance clears the spare 32-bit output, which no double reads
    bg.state = {**bg.state, "has_uint32": start["has_uint32"],
                "uinteger": start["uinteger"]}


# chunk sizes of a tape in uniforms: the power of two at or above eight
# times its walk count, within these bounds.  A read-ahead ring holds
# _SLOTS chunks of uniforms and of each leaf's values, 2.25 MiB for two
# leaves at the largest chunk; each numpy call of the helper's costs the
# walk a handoff of the interpreter lock, and on verify-quick's walks
# chunks of 2^14, 2^15 and 2^16 uniforms saved about 10, 20 and 26% of
# the time against the array sampler
_CHUNK_MIN, _CHUNK_MAX = 1 << 8, 1 << 15
_SLOTS = 3
# leaf values are read ahead only for chunks at least this many chunks
# past the reader's
_LEAF_LEAD = 1
# the fewest and the most values of a row that the reader computes at
# once; pieces of a 2^15-uniform chunk (256 KiB) raised the peak memory
# of a 500 000-walk run by 2.3 MiB over the array sampler's, through
# the allocator, and pieces of 2^12 do not
_READ, _READ_MAX = 256, 1 << 12
_EMPTY = np.empty(0)


class _UniformTape:
    """A Philox generator's uniforms from its current position on, cut
    into chunks at fixed stream positions, with each inverse-transform
    leaf's values of them taken by the leaf's own numpy `_quantile` and
    its neg and shift steps, so every draw has the vector draw's bits.
    `IncrementModel.sample(tape, n)` spends them in the stream contract's
    order, and `close` puts the generator where the same draws from it
    leave it, in O(1).

    The tape reads rows: row 0 holds the uniforms, row 1 + i leaf i's
    values of them.  A helper thread starts at the first read that one
    chunk can hold: a walk's first steps may read far more than the ring
    holds, and their arrays set the run's peak memory.  It fills a ring
    of _SLOTS chunks, which the reader allocates then, with the chunks
    after the reader's: their uniforms first, then, while every free
    slot holds its chunk's uniforms, the leaf values of the chunks at
    least _LEAF_LEAD past the reader's.  It writes a slot in place,
    publishes each row by its tag and leaves the slot alone until the
    reader has moved past its chunk; its own generator seeks only past
    the chunks the reader reached first.  The reader never waits: a
    row that is not published where it reads it computes itself from
    its stream position on, the uniforms from its own generator and a
    leaf's values from those uniforms.  So no draw depends on which
    thread computed it."""

    def __init__(self, model: IncrementModel, gen: np.random.Generator,
                 walks: int):
        self.leaves = model._draw_rules[0]
        self.gen = gen
        self.start = gen.bit_generator.state
        self.chunk = min(_CHUNK_MAX, max(_CHUNK_MIN, 1 << (8 * walks - 1).bit_length()))
        self.pos = 0  # stream position of the next uniform
        # per row, read-only values and the positions [lo, end) they
        # cover, all in the current chunk
        self._rows = [(_EMPTY, 0, 0)] * (1 + len(self.leaves))
        self._end = 0  # end of the current chunk
        self._gen_at = 0  # stream position of gen
        self.front = 0  # the reader's chunk
        self._ahead = True  # whether a helper is still to start
        self._helper = None

    def _start_helper(self) -> None:
        """Allocate the ring and start the helper after the reader's
        chunk."""
        self._ahead = False
        ring = np.empty((_SLOTS, 1 + len(self.leaves), self.chunk))
        self._ring = (ring, ring.view())  # the helper's, and the reader's
        self._ring[1].flags.writeable = False
        # the chunk whose values each slot's rows hold, once published
        self._tags = [[-1] * (1 + len(self.leaves)) for _ in range(_SLOTS)]
        self._cond = threading.Condition()
        self._closed = False
        self.front = max(self._end - 1, 0) // self.chunk
        self._helper = threading.Thread(target=self._read_ahead,
                                        name="htwk-read-ahead", daemon=True)
        self._helper.start()

    def take(self, row: int, n: int) -> np.ndarray:
        """Row `row`'s values at the next n stream positions: a read-only
        view where one piece holds them, valid until the next take."""
        arr, lo, end = self._rows[row]
        p = self.pos
        if p + n <= end:
            self.pos = p + n
            return arr[p - lo:p - lo + n]
        if self._ahead and n <= self.chunk:
            self._start_helper()
        out = None
        done = 0
        while True:
            p = self.pos
            if p >= self._end:
                self._enter(p // self.chunk)
            arr, lo, end = self._rows[row]
            if p >= end:
                arr, lo, end = self._fill(row, n - done)
            k = min(n - done, end - p)
            piece = arr[p - lo:p - lo + k]
            self.pos = p + k
            if out is None:
                if k == n:
                    return piece
                out = np.empty(n)
            out[done:done + k] = piece
            done += k
            if done == n:
                return out

    def _enter(self, j: int) -> None:
        """Make chunk j the current one, which frees the previous one's
        slot for the helper."""
        lo = j * self.chunk
        self._end = lo + self.chunk
        self._rows = [(_EMPTY, lo, lo)] * len(self._rows)
        if self._helper is not None:
            with self._cond:
                self.front = j
                self._cond.notify()

    def _fill(self, row: int, n: int) -> tuple[np.ndarray, int, int]:
        """Set row `row`'s piece to its values from the current position
        on: the rest of the chunk's where the helper has published them,
        else n of them, but at least _READ and at most _READ_MAX and no
        more than the chunk holds, computed here."""
        p, end = self.pos, self._end
        if self._helper is not None:
            j = p // self.chunk
            s = j % _SLOTS
            if self._tags[s][row] == j:
                got = self._rows[row] = (self._ring[1][s, row],
                                         end - self.chunk, end)
                return got
        m = min(end - p, max(min(n, _READ_MAX), _READ))
        if row == 0:
            if self._gen_at != p:
                _philox_seek(self.gen.bit_generator, self.start, p)
            v = self.gen.random(m)
            self._gen_at = p + m
        else:
            u, lo, u_end = self._rows[0]
            if p >= u_end:
                u, lo, u_end = self._fill(0, m)
            leaf, post = self.leaves[row - 1]
            u = u[p - lo:min(u_end, p + m) - lo]
            v = _leaf_values(leaf, post, u, np.empty(u.size))
        v.flags.writeable = False
        got = self._rows[row] = (v, p, p + v.size)
        return got

    def _read_ahead(self) -> None:
        """The helper's loop: each turn, one free slot's uniforms, or one
        chunk's leaf values, or a wait for the reader to move on."""
        bg = np.random.Philox(0)  # any seed: its state is seeked below
        gen = np.random.Generator(bg)
        ring, tags, C = self._ring[0], self._tags, self.chunk
        nu, at = 0, -1  # the next chunk to draw, and where bg's stream stands
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        return
                    f = self.front
                    nu = max(nu, f + 1)
                    if nu < f + _SLOTS:  # chunk nu's slot is free
                        job = nu
                        break
                    job = next((k for k in range(f + 1 + _LEAF_LEAD, nu)
                                if tags[k % _SLOTS][-1] != k), None)
                    if job is not None:
                        break
                    self._cond.wait()
            s = job % _SLOTS
            if job == nu:
                if at != job * C:
                    _philox_seek(bg, self.start, job * C)
                gen.random(out=ring[s, 0])
                tags[s][0] = job
                nu = job + 1
                at = nu * C
                continue
            for row, (leaf, post) in enumerate(self.leaves, 1):
                if self.front > job - 1 - _LEAF_LEAD or self._closed:
                    break
                if tags[s][row] != job:
                    _leaf_values(leaf, post, ring[s, 0], ring[s, row])
                    tags[s][row] = job

    def close(self) -> None:
        """Stop and join the helper, and put the generator where the
        draws spent from the tape leave it."""
        if self._helper is not None:
            with self._cond:
                self._closed = True
                self._cond.notify()
            self._helper.join()
        _philox_seek(self.gen.bit_generator, self.start, self.pos)


class _GeneratorRows:
    """A bare generator read by the draw rules as a tape's rows: each
    request draws its n uniforms at once, and a leaf's row takes its
    values of them in place, with no chunks and no seeks."""

    def __init__(self, leaves: list, gen: np.random.Generator):
        self.leaves, self.gen = leaves, gen

    def take(self, row: int, n: int) -> np.ndarray:
        u = self.gen.random(n)
        if row == 0:
            return u
        leaf, post = self.leaves[row - 1]
        return _leaf_values(leaf, post, u, u)


# ----------------------------------------------------------------------
# increment model
# ----------------------------------------------------------------------

@dataclass(eq=False)
class IncrementModel:
    """Signed step law of the walk, split into its two tails."""

    law: Law
    spec_text: str = ""

    def tail_pos(self, x):
        """F-bar(x) = P(xi > x) for x >= 0.

        Where every x >= 0, a mixture's arms with no mass above 0 add an
        exact +0.0 to its sf, so only the other arms are summed; any
        x < 0 reads the whole law."""
        t = np.asarray(x, dtype=float)
        arms = self._arms_above_0
        if arms is None or not np.all(t >= 0.0):
            return self.law.sf(x)
        return _weighted_sum(arms, lambda ch: ch.sf(t))

    @cached_property
    def _arms_above_0(self) -> list[tuple[float, Law]] | None:
        """The (weight, arm) pairs of a mixture law whose arm has mass
        above 0; None where that is no arm or every arm, or the law is no
        mixture."""
        if not isinstance(self.law, Mixture):
            return None
        arms = [(w, ch) for w, ch in zip(self.law.weights, self.law.children)
                if ch.sf(0.0) > 0]
        return arms if 0 < len(arms) < len(self.law.children) else None

    def sample(self, gen: np.random.Generator | _UniformTape, n: int) -> np.ndarray:
        """n draws of the law as a new array, by its draw rule, from a
        generator or from a `_UniformTape` of one, which spends the same
        uniforms for the same draws."""
        leaves, rule = self._draw_rules
        if isinstance(gen, _UniformTape):
            v = rule(gen, n)
            return v if v.base is None else v.copy()
        return rule(_GeneratorRows(leaves, gen), n)

    @cached_property
    def _draw_rules(self) -> tuple[list, Callable]:
        """((inverse-transform leaf, steps) pairs, draw rule) of the law,
        from `_compile_tape`."""
        leaves: list[tuple[Law, tuple]] = []
        return leaves, _compile_tape(self.law, leaves)

    @cached_property
    def infinite_neg_mean(self) -> bool:
        return not math.isfinite(self.law.cdf_integral(-_INF, 0.0))

    @cached_property
    def pos_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        locs, masses = self.law.atoms()
        keep = locs >= 0
        return locs[keep], masses[keep]

    @cached_property
    def pos_breakpoints(self) -> list[float]:
        return sorted({k for k in self.law.kinks() if k > 0})

    @cached_property
    def neg_breakpoints(self) -> list[float]:
        return sorted({-k for k in self.law.kinks() if k < 0})

    @cached_property
    def has_negative_part(self) -> bool:
        return float(self.law.cdf_strict(0.0)) > 0.0

    @cached_property
    def truncated_mean(self) -> "TruncatedMean":
        return TruncatedMean(self.law, breakpoints=self.neg_breakpoints)


# ----------------------------------------------------------------------
# truncated negative mean
# ----------------------------------------------------------------------

class TruncatedMean:
    """m(x) = integral of N-bar over [0, x], in closed form from the law.

    N-bar(y) = P(xi < -y), so m(x) = law.cdf_integral(-x, 0).  On a
    negated leaf that is the leaf's own tail integral over [0, x], with
    no subtraction of near-equal numbers.
    """

    def __init__(self, law: Law, breakpoints):
        self._law = law
        self.breakpoints = tuple(sorted(float(p) for p in breakpoints if p > 0))
        self.c0 = float(np.asarray(law.cdf_strict(0.0), dtype=float))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise PreconditionError("truncated mean is defined for x >= 0")
        return self._law.cdf_integral(-arr, 0.0)

    def ratio(self, x):
        """x/m(x), extended by its limit 1/c at x = 0 and wherever m(x)
        underflows to 0 at x > 0."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.ndim(x) == 0
        if self.c0 <= 0.0:
            raise PreconditionError("x/m(x) undefined: P(xi < 0) = 0")
        m = np.zeros(arr.shape)
        pos = arr > 0.0
        if np.any(pos):
            m[pos] = self(arr[pos])
        live = m > 0.0
        out = np.full(arr.shape, 1.0 / self.c0)
        out[live] = arr[live] / m[live]
        return float(out[0]) if scalar else out


def truncated_neg_mean(model: IncrementModel) -> TruncatedMean:
    """The model's m(x), one instance per model."""
    if not model.has_negative_part:
        raise PreconditionError("model has no negative part; m is identically 0")
    return model.truncated_mean


# ----------------------------------------------------------------------
# renewal-type measures and the measure-integrated tail
# ----------------------------------------------------------------------

@dataclass
class RenewalMeasure:
    """Nondecreasing mass function H(t) = mass of [0, t] on the half line.

    H(0) is the mass sitting at exactly 0: the 0th renewal for empirical
    renewal functions, the limit 1/c of t/m(t) for the ratio measure,
    and none for Lebesgue measure.
    """

    fn: Callable
    label: str = ""
    kinks: tuple[float, ...] = ()

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        vals = np.asarray(self.fn(np.maximum(arr, 0.0)), dtype=float)
        out = np.where(arr < 0, 0.0, vals)
        return float(out) if np.ndim(t) == 0 else out

    @classmethod
    def lebesgue(cls):
        return cls(fn=lambda t: np.asarray(t, dtype=float), label="lebesgue")

    @classmethod
    def from_ratio(cls, tm: TruncatedMean):
        """H(t) = t/m(t), continuously extended by 1/c at 0; it has kinks
        where N-bar jumps or kinks."""
        return cls(fn=tm.ratio, label="ratio-to-mean", kinks=tm.breakpoints)

    @classmethod
    def from_points(cls, xs, hs):
        """Monotone interpolant through probe values of an empirical
        renewal function (log-x piecewise, power-law extrapolation beyond
        the last probe), with the 0th renewal as a unit atom at 0."""
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
            out[tiny] = 1.0 + (hs[0] - 1.0) * np.clip(
                np.where(tiny, t, 0.0) / xs[0], 0.0, 1.0)[tiny]
            mid = (~tiny) & (t <= xs[-1])
            if np.any(mid):
                out[mid] = np.exp(np.interp(np.log(t[mid]), lx, lh))
            high = t > xs[-1]
            if np.any(high):
                out[high] = np.exp(lh[-1] + slope_hi * (np.log(t[high]) - lx[-1]))
            return out

        return cls(fn=lambda t: fn(np.atleast_1d(np.asarray(t, dtype=float))).reshape(np.shape(t)),
                   label="empirical", kinks=tuple(xs.tolist()))


# the two routes must agree within 1e-8 relative wherever neither is
# clipped
_ROUTE_AGREEMENT_TOL = 1e-8


def _panel_plan(model: IncrementModel, measure: RenewalMeasure,
                x: float) -> tuple[float, float, list[float]]:
    """The panels of route B at x: the start x, the first panel's width
    max(1, x/8), which route A shares (widths scale with x, so
    contributions decay from the first panel), and route B's cuts, F's
    breakpoints b > x and x + k for the measure's kinks k > 0."""
    x = float(x)
    return x, max(1.0, x / 8.0), [*(b for b in model.pos_breakpoints if b > x),
                                  *(x + k for k in measure.kinks if k > 0)]


def _route_b(model: IncrementModel, measure: RenewalMeasure,
             x: float) -> _quad.ImproperResult:
    """integral of H(t - x) dF(t) over (x, infinity), F's atoms summed
    exactly, on the panels of `_panel_plan`.  At x = 0 under the ratio
    measure this is K itself."""
    x, x0, cuts = _panel_plan(model, measure, x)

    def g(t):
        return np.asarray(measure(np.asarray(t, dtype=float) - x), dtype=float)

    return _quad.stieltjes_vs_tail(g, model.tail_pos, a=x, x0=x0, atoms=model.pos_atoms,
                                   breakpoints=cuts)


def renewal_integrated_tail_forms(model: IncrementModel, measure: RenewalMeasure,
                                  x: float) -> tuple[float, float]:
    """Both unclipped integral forms of the measure-integrated tail.

    Route A integrates F-bar(t + x) against the measure, with panels cut
    at the measure's kinks and at b - x for F's breakpoints b > x; route
    B integrates H(t - x) against F, cut at those b and at x + k for the
    measure's kinks k.  They agree by integration by parts; computing
    them on independent panelings is the identity check.
    """
    x, x0, _ = _panel_plan(model, measure, x)
    fbar_x = float(model.tail_pos(x))
    h0 = measure(0.0)

    def f_shift(t):
        return np.asarray(model.tail_pos(np.asarray(t, dtype=float) + x), dtype=float)

    def h_cont(t):
        return np.asarray(measure(t), dtype=float) - h0

    shifted = [b - x for b in model.pos_breakpoints if b > x]
    res_a = _quad.stieltjes_vs_monotone(f_shift, h_cont, x0=x0,
                                        breakpoints=[*measure.kinks, *shifted])
    if not res_a.converged:
        raise PreconditionError("measure-integrated tail: H dF-bar integral diverges")
    route_a = h0 * fbar_x + res_a.value

    res_b = _route_b(model, measure, x)
    if not res_b.converged:
        raise PreconditionError("measure-integrated tail: H(t-x) dF integral diverges")
    return route_a, res_b.value


def renewal_integrated_tail(model: IncrementModel, measure: RenewalMeasure, x):
    """min(1, integral of F-bar(t+x) H(dt)) for a scalar x or an x array:
    `two_route_curve`, clipped."""
    out = np.minimum(1.0, two_route_curve(model, measure, x))
    return float(out[0]) if np.ndim(x) == 0 else out


# the measure-tail curves: cells reach past 1e13 and hold 64 subcells
# each; a last ladder panel above 1e-10 of the total that does not
# shrink geometrically means the integral diverges.  Rows where the two
# routes part are evaluated again on 4, 16 and 64 times as many
# subcells: the error of one Richardson step falls 256-fold each time,
# and a steep F-bar near t = 0 (pareto(alpha=3) under Lebesgue measure
# at x = 0) needs it
_RENEWAL_CURVE_S_MAX = 1e13
_RENEWAL_CURVE_SUBCELLS = 64
_RENEWAL_CURVE_REFINED = (256, 1024, 4096)
_RENEWAL_CURVE_REL_TOL = 1e-10


class _CellSet:
    """The shared cells of the rows with one cut set, and H on them.

    The ladder's panels, of widths 0.5, 1, 2, 4, ..., reach
    `_RENEWAL_CURVE_S_MAX`; the measure's kinks and `cuts` strictly
    inside it cut them into cells.  Each cell holds `n_sub` uniform
    subcells, and H is evaluated once at every subcell edge.
    """

    def __init__(self, measure: RenewalMeasure, cuts, n_sub: int):
        ladder = [0.0]
        width = 0.5
        while ladder[-1] < _RENEWAL_CURVE_S_MAX:
            ladder.append(ladder[-1] + width)
            width *= 2.0
        ladder = np.asarray(ladder)
        edges = np.union1d(ladder, [k for k in (*measure.kinks, *cuts)
                                    if 0.0 < k < ladder[-1]])
        # the ladder panel that holds each cell
        panel = np.searchsorted(ladder, edges[:-1], side="right") - 1
        a, b = edges[:-1, None], edges[1:, None]
        sub = a + (b - a) * np.linspace(0.0, 1.0, n_sub + 1)
        sub[:, -1] = edges[1:]
        self.measure = measure
        self.n_sub = n_sub
        self.sub = sub
        self.h_sub = measure(sub.ravel()).reshape(sub.shape)
        # the first cell of each ladder panel
        self.panel_starts = np.flatnonzero(np.diff(panel, prepend=-1))


def _ladder_sums(terms, starts, width: int, xs: np.ndarray, what: str) -> np.ndarray:
    """For each x, the sum of the row terms(x) (`width` columns; ladder
    panel k starts at column starts[k]) plus the geometric remainder past
    the last panel; a remainder that does not shrink raises.

    The rows are taken `_GRID_BLOCK // width` at a time (at least one),
    so each temporary holds at most max(_GRID_BLOCK, width) elements.
    Every row is summed on its own, so the block size leaves each value
    bit for bit the same."""
    out = np.empty(xs.shape)
    rows = max(1, _GRID_BLOCK // width)
    for i in range(0, xs.size, rows):
        per_panel = np.add.reduceat(terms(xs[i:i + rows, None]), starts, axis=1)
        total = per_panel.sum(axis=1)
        tail = _quad.geometric_tail(per_panel[:, -2], per_panel[:, -1])
        significant = np.abs(per_panel[:, -1]) > _RENEWAL_CURVE_REL_TOL * np.abs(total)
        if np.any((tail == 0.0) & significant):
            raise PreconditionError(
                f"measure-integrated tail: {what} integral does not decay")
        out[i:i + rows] = total + tail
    return out


def _route_a_cells(cells: _CellSet, fbar_cont, xs: np.ndarray) -> np.ndarray:
    """integral of F-bar_c(t + x) dH_c(t): F-bar_c at the midpoints of
    n_sub and of n_sub/2 subcells per cell, one Richardson step."""
    n_sub = cells.n_sub
    sub = cells.sub
    dh = np.diff(cells.h_sub, axis=1)
    # each cell's n_sub and n_sub/2 midpoints side by side, weighted so
    # that one dot product gives (4 S_n - S_{n/2}) / 3
    nodes = np.concatenate([0.5 * (sub[:, :-1] + sub[:, 1:]),
                            0.5 * (sub[:, :-1:2] + sub[:, 2::2])], axis=1).ravel()
    wts = np.concatenate([dh * (4.0 / 3.0),
                          (dh[:, 0::2] + dh[:, 1::2]) * (-1.0 / 3.0)], axis=1).ravel()
    return _ladder_sums(lambda x: fbar_cont(x + nodes) * wts,
                        cells.panel_starts * (n_sub + n_sub // 2), nodes.size, xs,
                        "H dF-bar")


def _route_b_cells(cells: _CellSet, fbar_cont, xs: np.ndarray) -> np.ndarray:
    """integral of H(t) d[-F-bar_c(t + x)]: H at the midpoints of n_sub
    and of n_sub/2 subcells per cell, one Richardson step."""
    n_sub = cells.n_sub
    sub = cells.sub
    mids = 0.5 * (sub[:, :-1] + sub[:, 1:])
    h_mid = cells.measure(mids.ravel()).reshape(mids.shape)
    # a coarse subcell's midpoint is the fine edge inside it; fine
    # subcell j takes (4 H(fine mid j) - H(coarse mid j//2)) / 3
    wts = (h_mid * (4.0 / 3.0)
           - np.repeat(cells.h_sub[:, 1::2], 2, axis=1) * (1.0 / 3.0)).ravel()
    edges = np.append(sub[:, :-1], sub[-1, -1])
    return _ladder_sums(lambda x: -np.diff(fbar_cont(x + edges), axis=1) * wts,
                        cells.panel_starts * n_sub, edges.size, xs, "H(t-x) dF")


def _measure_tail_curves(model: IncrementModel, measure: RenewalMeasure, xs,
                         with_b: bool,
                         n_sub: int = _RENEWAL_CURVE_SUBCELLS) -> list[np.ndarray]:
    """Route A, and route B if `with_b`, of the measure-integrated tail
    for a whole x array, unclipped:

        A(x) = H(0) F-bar_c(x) + integral of F-bar_c(t + x) dH_c(t) + S(x),
        B(x) = integral of H(t) d[-F-bar_c(t + x)] + S(x),

    where H_c = H - H(0), F-bar_c is F-bar without its atoms, and S(x)
    sums m_a H(a - x) exactly over F's atoms a > x.  Each row's cells are
    the doubling ladder cut at the measure's kinks and at b - x for F's
    breakpoints b > x, so F-bar(t + x) is smooth inside every cell; rows
    with the same cuts share one `_CellSet`, and for a smooth positive
    part that is every row.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    locs, masses = model.pos_atoms
    fbar_cont = _quad.continuous_tail(model.tail_pos, locs, masses)
    groups: dict[tuple, list[int]] = {}
    for i, x in enumerate(xs.tolist()):
        cuts = tuple(b - x for b in model.pos_breakpoints if b > x)
        groups.setdefault(cuts, []).append(i)

    routes = (_route_a_cells, _route_b_cells) if with_b else (_route_a_cells,)
    outs = [np.empty(xs.shape) for _ in routes]
    for cuts, rows in groups.items():
        cells = _CellSet(measure, cuts, n_sub)
        for out, route in zip(outs, routes):
            out[rows] = route(cells, fbar_cont, xs[rows])
    outs[0] += measure(0.0) * fbar_cont(xs)
    if locs.size:
        d = locs[None, :] - xs[:, None]
        h_at = measure(np.maximum(d, 0.0).ravel()).reshape(d.shape)
        atom_sum = np.where(d > 0.0, h_at, 0.0) @ masses
        for out in outs:
            out += atom_sum
    return outs


def renewal_integrated_tail_curve(model: IncrementModel, measure: RenewalMeasure,
                                  xs) -> np.ndarray:
    """Route A of the measure-integrated tail for a whole x array,
    unclipped: a midpoint Stieltjes sum on shared cells with one
    Richardson step, plus the geometric remainder past the last ladder
    panel (see `_measure_tail_curves`).  Route B is not evaluated;
    `two_route_curve` checks the pair, and the pointwise
    `renewal_integrated_tail_forms(...)[0]` is its reference.
    """
    return _measure_tail_curves(model, measure, xs, with_b=False)[0]


def _routes_part(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where both routes are below 1 and differ by more than 1e-8 relative."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return (a < 1.0) & (b < 1.0) & (np.abs(a - b) > _ROUTE_AGREEMENT_TOL * scale)


def two_route_curve(model: IncrementModel, measure: RenewalMeasure, xs) -> np.ndarray:
    """Route A of the measure-integrated tail for a whole x array,
    unclipped, after route B on the same cells has confirmed it: where
    both are below 1 they must agree within 1e-8 relative.  Rows where
    they do not are evaluated again on finer subcells; where they still
    part on the finest, DivergenceError names the first such x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    a, b = _measure_tail_curves(model, measure, xs, with_b=True)
    bad = np.flatnonzero(_routes_part(a, b))
    for n_sub in _RENEWAL_CURVE_REFINED:
        if not bad.size:
            break
        a[bad], b[bad] = _measure_tail_curves(model, measure, xs[bad], True, n_sub)
        bad = bad[_routes_part(a[bad], b[bad])]
    if bad.size:
        i = bad[0]
        raise DivergenceError(f"routes A and B disagree at x={float(xs[i])!r}: "
                              f"{float(a[i])!r} vs {float(b[i])!r}", float(a[i]))
    return a


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


def _normalizing_measure(model: IncrementModel, K: float) -> RenewalMeasure:
    """The ratio measure of the integrated tail, once K is checked finite and positive."""
    if not (K > 0 and math.isfinite(K)):
        raise PreconditionError("integrated tail needs a finite positive criterion constant")
    return RenewalMeasure.from_ratio(truncated_neg_mean(model))


def integrated_tail(model: IncrementModel, K: float, x):
    """Tail at x of the drift-normalized integrated distribution.

    value(x) = (1/K) * integral over (x, infinity) of ((t-x)/m(t-x)) dF(t),
    clipped to [0, 1]: route B under the ratio measure, the driver that
    gives K, so value(0) = K/K = 1 exactly.  The probes' integrals run
    in lockstep (`_quad.stieltjes_vs_tail_many`), each with
    `_panel_plan`'s panels and `_route_b`'s value.
    """
    H = _normalizing_measure(model, K)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    plans = [_panel_plan(model, H, xi) for xi in xs.tolist()]
    starts, x0s, cuts = zip(*plans) if plans else ((), (), ())
    results = _quad.stieltjes_vs_tail_many(
        lambda t, which: H(t - xs[which, None]), model.tail_pos, starts, x0s,
        model.pos_atoms, cuts)
    out = np.empty(xs.shape)
    for i, res in enumerate(results):
        if not res.converged:
            raise DivergenceError("integrated tail quadrature diverged", res.value)
        out[i] = min(1.0, max(0.0, res.value / K))
    return float(out[0]) if scalar else out


def integrated_tail_curve(model: IncrementModel, K: float, xs) -> np.ndarray:
    """`integrated_tail` for a whole x array: route A under the ratio
    measure (`renewal_integrated_tail_curve`), divided by K and clipped
    to [0, 1].  Independent of the pointwise route B, which makes the
    pair a cross-check.
    """
    H = _normalizing_measure(model, K)
    return np.clip(renewal_integrated_tail_curve(model, H, xs) / K, 0.0, 1.0)


# ----------------------------------------------------------------------
# scalar tail functionals
# ----------------------------------------------------------------------

def mu_plus(model: IncrementModel) -> float:
    """integral of F-bar over [0, infinity) to 1e-9 relative; raises
    DivergenceError if infinite."""
    res = _quad.improper_gl(model.tail_pos, breakpoints=model.pos_breakpoints)
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

# subcells per grid cell: for the particles that `convolve` shifts, and
# for the finer Stieltjes sums of `conv_tail` and `self_conv_tail`
CONV_REFINE = 4
PROBE_REFINE = 8

# `powers` refuses a power whose mass beyond the horizon exceeds this
_POWER_DEFECT_BOUND = 1e-6


@dataclass(frozen=True)
class GridConfig:
    x_max: float = 1e6
    points_per_decade: int = 64

    def horizon(self, xs) -> float:
        """The horizon of a grid probed at the increasing `xs`: x_max,
        widened to ten times the last probe."""
        return max(self.x_max, 10.0 * xs[-1])


# the first knot past 0
_KNOT_MIN = 1e-3


def geometric_knots(x_max: float, ppd: int = 64) -> np.ndarray:
    """0, then `ppd` knots per decade from `_KNOT_MIN` to x_max."""
    decades = math.log10(x_max / _KNOT_MIN)
    count = max(2, int(math.ceil(decades * ppd)))
    ladder = np.logspace(math.log10(_KNOT_MIN), math.log10(x_max), count + 1)
    ladder[0] = _KNOT_MIN
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

    Near the horizon the tail is least accurate: the stored continuous
    tail is made to reach 0 at `x_max`, so the power-law rule there fits
    F-bar(y) - F-bar(x_max), which is not a power law.  For
    `from_tail(lambda t: (1 + t)**-2, x_max=X)` the relative error of
    `tail(y)` is at most 2.1e-4 below X/2 but 0.39% (X = 2) to 0.59%
    (X = 1e2, 1e4) near 0.95 X.  Callers size the grid with
    `GridConfig.horizon`, which keeps every probe below `x_max/10`.
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

    def _cont_tail(self, y, work=None):
        # in place, each step in the order of the cell rule's formulas, in
        # four arrays of y's size plus the cell indices and one mask.
        # `work`, a (4, y.size) float array, lends those four arrays to a
        # caller that evaluates block after block: the result is then a
        # view of work[1], and a block allocates only its cell indices,
        # so freeing it hands the allocator nothing to return to the
        # system and fault in again
        y = np.asarray(y, dtype=float)
        shape = y.shape
        y = y.reshape(-1)
        if work is None:
            work = np.empty((4, y.size))
        l, out, a, b = work
        k, t = self.knots, self.tail_cont
        idx = np.searchsorted(k, y, side="right")
        idx -= 1
        np.clip(idx, 0, k.size - 2, out=idx)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # linear: tl + (tr - tl) * ((y - l) / (r - l))
            np.take(k, idx, out=l, mode="clip")
            np.subtract(y, l, out=out)
            idx += 1
            np.take(k, idx, out=a, mode="clip")
            a -= l
            out /= a
            np.take(t, idx, out=a, mode="clip")
            idx -= 1
            tl = np.take(t, idx, out=b, mode="clip")
            a -= tl
            out *= a
            out += tl
            # power law: tl * exp(-beta * log(max(y, 1e-300) / max(l, 1e-300)))
            pw = np.maximum(y, 1e-300, out=a)
            pw /= np.maximum(l, 1e-300, out=l)
            np.log(pw, out=pw)
            beta = np.take(self._cell_beta, idx, out=l, mode="clip")
            pw *= np.negative(beta, out=beta)
            np.exp(pw, out=pw)
            pw *= tl
        mask = np.take(self._cell_power, idx, mode="clip")
        np.copyto(out, pw, where=mask)
        np.copyto(out, t[-1], where=np.greater_equal(y, k[-1], out=mask))
        np.copyto(out, t[0], where=np.less_equal(y, 0.0, out=mask))
        return out.reshape(shape)

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

    def particles(self, refine: int,
                  hi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Representative locations and masses of the restriction to
        [0, hi], atoms kept exactly and each continuous cell split into
        `refine` subcells placed at their interpolation-rule centroids."""
        hi = self.x_max if hi is None else min(float(hi), self.x_max)
        a_keep = self.atom_locs <= hi
        a_locs = self.atom_locs[a_keep]
        a_mass = self.atom_masses[a_keep]

        k = self.knots
        i1 = min(k.size - 2, int(np.searchsorted(k, hi, side="left")) - 1)
        cells = np.arange(i1 + 1)
        el = k[cells]
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
    def from_tail(cls, tail_fn: Callable, x_max: float) -> "GridDistribution":
        knots = geometric_knots(x_max)
        vals = np.asarray(tail_fn(knots), dtype=float)
        return cls(knots=knots, tail_cont=vals.copy())

    @classmethod
    def from_model(cls, model: IncrementModel, x_max: float = 1e6) -> "GridDistribution":
        if model.has_negative_part:
            raise PreconditionError("grid discretization needs support in [0, infinity)")
        knots = geometric_knots(x_max)
        locs, masses = model.pos_atoms
        keep = locs <= x_max
        beyond_atoms = float(masses[~keep].sum())
        locs, masses = locs[keep], masses[keep]
        cont = _quad.continuous_tail(model.tail_pos, locs, masses)(knots) - beyond_atoms
        return cls(knots=knots, tail_cont=np.maximum(cont, 0.0), atom_locs=locs,
                   atom_masses=masses, mass_beyond=beyond_atoms)

    @classmethod
    def from_point(cls, c: float) -> "GridDistribution":
        if c < 0:
            raise ValueError("point mass location must be nonnegative")
        top = max(1.0, 2.0 * c)
        knots = np.array([0.0, top])
        return cls(knots=knots, tail_cont=np.zeros(2),
                   atom_locs=np.array([float(c)]), atom_masses=np.array([1.0]))

    @classmethod
    def from_samples(cls, values, x_max: float) -> "GridDistribution":
        v = np.sort(np.asarray(values, dtype=float))
        if v.size == 0 or v[0] < 0:
            raise ValueError("need nonnegative samples")
        n = v.size
        knots = geometric_knots(x_max)
        beyond = float(np.mean(v > x_max))
        atom0 = float(np.mean(v == 0.0))
        tail = (n - np.searchsorted(v, knots, side="right")) / n
        cont = np.maximum(tail - beyond, 0.0)
        return cls(knots=knots, tail_cont=cont,
                   atom_locs=np.array([0.0]) if atom0 > 0 else np.empty(0),
                   atom_masses=np.array([atom0]) if atom0 > 0 else np.empty(0),
                   mass_beyond=beyond)

    # -- convolution -------------------------------------------------------

    def _shifted_tail_sum(self, at: np.ndarray, shifts: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
        """For each point y of `at`, the sum over j of weights[j] times
        the continuous tail at y - shifts[j].

        The `at x shifts` matrix is evaluated `_GRID_BLOCK // shifts.size`
        rows at a time (at least one), in five arrays of that many rows
        allocated once per call, so memory stays at about five times
        max(_GRID_BLOCK, shifts.size) elements whatever the size of the
        grid, and the blocks do not churn the allocator.
        """
        out = np.zeros(at.size)
        if shifts.size == 0:
            return out
        rows = max(1, _GRID_BLOCK // shifts.size)
        d = np.empty((min(rows, at.size), shifts.size))
        work = np.empty((4, d.size))
        for r0 in range(0, at.size, rows):
            n = min(rows, at.size - r0)
            # below a shift the tail is its value at 0
            block = np.subtract(at[r0:r0 + n, None], shifts, out=d[:n])
            np.maximum(block, 0.0, out=block)
            vals = self._cont_tail(block, work[:, :block.size])
            out[r0:r0 + n] = vals @ weights
        return out

    def convolve(self, other: "GridDistribution") -> "GridDistribution":
        """The distribution of the sum of independent draws from both.

        Atom pairs are summed exactly; the rest is the other's atoms
        shifting this grid's continuous part, and this grid's atoms and
        continuous part, as `CONV_REFINE` particles per cell, shifting
        the other's.  The tail at the union of both knot sets is one
        `_shifted_tail_sum` per pairing, so a temporary holds at most
        max(_GRID_BLOCK, particles) elements however many knots meet.
        """
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

        tail_at = (other._shifted_tail_sum(knots, *self.particles(refine=CONV_REFINE))
                   + self._shifted_tail_sum(knots, other.atom_locs, other.atom_masses))

        resolved_tail = float(tail_at[-1])
        beyond += resolved_tail
        tail_cont = np.minimum.accumulate(np.maximum(tail_at - resolved_tail, 0.0))
        return GridDistribution(knots=knots, tail_cont=tail_cont,
                                atom_locs=new_locs, atom_masses=new_masses,
                                mass_beyond=beyond)

    def powers(self, n: int) -> list["GridDistribution"]:
        """[G^0, G^1, ..., G^n] by repeated pairwise convolution."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        out = [GridDistribution(
            knots=self.knots.copy(), tail_cont=np.zeros_like(self.tail_cont),
            atom_locs=np.array([0.0]), atom_masses=np.array([1.0]))]
        for i in range(1, n + 1):
            nxt = out[-1].convolve(self)
            if nxt.mass_beyond > _POWER_DEFECT_BOUND:
                raise HorizonError(
                    f"convolution defect {nxt.mass_beyond:.3e} exceeds bound "
                    f"{_POWER_DEFECT_BOUND:.1e} at power {i}; enlarge x_max")
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


def _particle_sum(grid: GridDistribution, x: float, tail) -> float:
    """integral over [0, x] of G(du) tail(x - u) for x >= 0, a Stieltjes
    sum over the grid's particles on [0, x], `PROBE_REFINE` per cell."""
    locs, masses = grid.particles(refine=PROBE_REFINE, hi=x)
    return float(np.dot(masses, np.asarray(tail(x - locs), dtype=float)))


def conv_tail(grid: GridDistribution, model: IncrementModel, x: float) -> float:
    """integral over [0, x] of G(du) F-bar(x - u), a Stieltjes sum over
    grid cells with centroid representatives."""
    x = float(x)
    _check_horizon(grid, x)
    return 0.0 if x < 0 else _particle_sum(grid, x, model.tail_pos)


def self_conv_tail(grid: GridDistribution, x: float) -> float:
    """P(X1 + X2 > x) for X1, X2 iid from the grid distribution."""
    x = float(x)
    _check_horizon(grid, x)
    if x < 0:
        return float(min(1.0, grid.total_mass ** 2))
    return float(grid.tail(x)) + _particle_sum(grid, x, grid.tail)
