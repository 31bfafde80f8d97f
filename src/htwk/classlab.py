"""Membership diagnostics for heavy-tail distribution classes.

Every diagnostic is a ratio curve over a geometric probe grid plus a
finite-sample verdict: the class definitions are limits, so a curve
"passes" when its last three probes sit within tolerance of the target
and the deviation is nonincreasing there.  Curves are returned whole so
a caller can always override the proxy verdict.

Kinds:
    L      F-bar(x+1)/F-bar(x)            target 1   (long-tailed)
    D      F-bar(x/2)/F-bar(x)            bounded    (dominated variation)
    S      two-fold tail / F-bar          target 2   (subexponential)
    Sstar  symmetric tail integral / F-bar  target 2*mu_plus
    SF     conv_tail(G, F, x)/F-bar(x)    target 1   (F-subordinate)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError
from .tailmath import (GridConfig, GridDistribution, IncrementModel,
                       RenewalMeasure, conv_tail, geometric_knots, mu_plus,
                       self_conv_tail, sstar_integral, two_route_curve)

PROBES_DEFAULT = (1e2, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4)

KINDS = ("L", "D", "S", "Sstar", "SF")

# tolerance of every limit-type curve: the membership curves, the SF
# curves and the unit-increment curves
CURVE_TOL = 0.05

_TREND_SLACK = 1e-12

# relative slack on the majorant bound, for rounding in the grid sums
_MAJORANT_SLACK = 1e-9

# measure_equivalence_check refuses measures whose ratio H1/H2 grows by
# more than this factor across the probes
_RATIO_GROWTH_BOUND = 3.0


@dataclass(frozen=True)
class RatioDiagnostic:
    """A measured ratio curve with its finite-sample verdict.

    `target` is None for boundedness-type checks (class D), where the
    verdict is a plateau test instead of a limit test.  The verdict is
    a pure function of (probes, values, target, tol) so a serialized
    diagnostic can always be re-judged.
    """

    probes: tuple[float, ...]
    values: tuple[float, ...]
    target: float | None
    tol: float
    per_probe: tuple[bool, ...]
    verdict: bool
    extras: dict = field(default_factory=dict, compare=False)

    def rows(self):
        """(x, ratio, target, pass) rows for CSV export."""
        t = self.target if self.target is not None else float("nan")
        return [(x, v, t, int(ok))
                for x, v, ok in zip(self.probes, self.values, self.per_probe)]


def trend_verdict(probes, values, target: float | None, tol: float
                  ) -> tuple[tuple[bool, ...], bool]:
    """Per-probe flags plus the overall proxy verdict.

    Limit targets: last three probes within tolerance and deviation
    nonincreasing there.  Bounded target (None): last three values
    within the plateau tolerance of each other.
    """
    values = [float(v) for v in values]
    if target is None:
        per = tuple(math.isfinite(v) for v in values)
        if len(values) < 3:
            return per, False
        last = values[-3:]
        lo, hi = min(last), max(last)
        return per, bool(lo > 0 and hi <= lo * (1.0 + tol) and all(per[-3:]))
    thr = tol * (abs(target) if target != 0.0 else 1.0)
    devs = [abs(v - target) for v in values]
    per = tuple(d <= thr for d in devs)
    if len(values) < 3:
        return per, False
    d3 = devs[-3:]
    shrinking = all(d3[i + 1] <= d3[i] + _TREND_SLACK for i in range(2))
    return per, bool(all(per[-3:]) and shrinking)


def _diagnostic(probes, values, target, tol, extras=None) -> RatioDiagnostic:
    per, verdict = trend_verdict(probes, values, target, tol)
    return RatioDiagnostic(probes=tuple(float(x) for x in probes),
                           values=tuple(float(v) for v in values),
                           target=target, tol=tol, per_probe=per,
                           verdict=verdict, extras=extras or {})


def _probe_tails(F: IncrementModel, xs) -> tuple[tuple[float, ...], np.ndarray]:
    """The probes as floats, and F-bar at them, which must not vanish."""
    xs = tuple(float(x) for x in xs)
    fbar = np.asarray(F.tail_pos(np.asarray(xs)), dtype=float)
    if np.any(fbar <= 0.0):
        raise PreconditionError("positive tail vanishes at a probe; move probes left")
    return xs, fbar


def _conv_tails(G: GridDistribution, F: IncrementModel, xs) -> np.ndarray:
    """conv_tail(G, F, x) at each probe."""
    return np.array([conv_tail(G, F, x) for x in xs])


def probe_grid(xs) -> tuple[float, ...]:
    """The probes as floats, checked nonnegative and strictly increasing."""
    xs = tuple(float(x) for x in xs)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise PreconditionError("probes must be strictly increasing")
    if xs and xs[0] < 0:
        raise PreconditionError("probes must be nonnegative")
    return xs


def membership_curve(kind: str, F: IncrementModel,
                     G: GridDistribution | None = None,
                     xs=PROBES_DEFAULT) -> RatioDiagnostic:
    """Ratio curve and verdict for one class membership test.

    Only kind SF takes the grid G, and it requires one; kind S builds
    its own grid from F, out to `GridConfig().horizon(xs)`.
    """
    xs = probe_grid(xs)
    if kind not in KINDS:
        raise PreconditionError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if (G is None) == (kind == "SF"):
        raise PreconditionError(
            f"kind {kind}: only kind SF takes a grid G, and it requires one")
    xs, fbar = _probe_tails(F, xs)
    arr = np.asarray(xs)

    if kind == "L":
        shifted = np.asarray(F.tail_pos(arr + 1.0), dtype=float)
        return _diagnostic(xs, shifted / fbar, 1.0, CURVE_TOL)

    if kind == "D":
        halved = np.asarray(F.tail_pos(arr / 2.0), dtype=float)
        # boundedness check: plateau tolerance is fixed at 10%
        return _diagnostic(xs, halved / fbar, None, 0.10)

    if kind == "S":
        grid = GridDistribution.from_model(F, x_max=GridConfig().horizon(xs))
        values = [self_conv_tail(grid, x) / fb for x, fb in zip(xs, fbar)]
        return _diagnostic(xs, values, 2.0, CURVE_TOL)

    if kind == "Sstar":
        mu = mu_plus(F)
        values = [sstar_integral(F, x) / fb for x, fb in zip(xs, fbar)]
        return _diagnostic(xs, values, 2.0 * mu, CURVE_TOL,
                           extras={"mu_plus": mu})

    return _diagnostic(xs, _conv_tails(G, F, xs) / fbar, 1.0, CURVE_TOL)


def majorant_check(G: GridDistribution, F: IncrementModel, epsilon: float,
                   n_max: int, xs=PROBES_DEFAULT) -> tuple[float, list]:
    """Geometric majorant for convolution powers.

    Finds the first probe x0 from which conv_tail(G,F,x)/F-bar(x) stays
    at or below 1 + epsilon, sets A = 1/F-bar(x0), then verifies
    conv_tail(G^{*n}, F, x) <= A (1+epsilon)^n F-bar(x) for n <= n_max
    on the probe grid.  Returns (A, violation list).
    """
    if epsilon <= 0 or n_max < 1:
        raise PreconditionError("need epsilon > 0 and n_max >= 1")
    xs, fbar = _probe_tails(F, xs)
    ratios = _conv_tails(G, F, xs) / fbar
    x0 = None
    for i in range(len(xs)):
        if all(r <= 1.0 + epsilon for r in ratios[i:]):
            x0 = xs[i]
            break
    if x0 is None:
        raise PreconditionError(
            "no probe from which the one-fold ratio stays below 1 + epsilon")
    A = 1.0 / float(F.tail_pos(x0))

    violations = []
    for n, Gn in enumerate(G.powers(n_max)):
        bound = A * (1.0 + epsilon) ** n * fbar
        for x, lhs, rhs in zip(xs, _conv_tails(Gn, F, xs).tolist(), bound):
            if lhs > rhs * (1.0 + _MAJORANT_SLACK):
                violations.append({"n": n, "x": x, "lhs": lhs, "rhs": rhs})
    return A, violations


def small_increment_criterion(F: IncrementModel, G: GridDistribution,
                              xs=PROBES_DEFAULT
                              ) -> tuple[RatioDiagnostic, RatioDiagnostic]:
    """Unit-increment criterion: G(x-1, x]/F-bar(x) -> 0 forces the SF
    ratio -> 1 when F's class supports it.  Returns (small_increments,
    sf_curve); the caller establishes F's class and reads both verdicts."""
    xs, fbar = _probe_tails(F, xs)
    arr = np.asarray(xs)
    strip = (np.asarray(G.tail(arr - 1.0), dtype=float)
             - np.asarray(G.tail(arr), dtype=float)) / fbar
    small_diag = _diagnostic(xs, strip, 0.0, CURVE_TOL)
    return small_diag, membership_curve("SF", F, G=G, xs=xs)


def measure_equivalence_check(F: IncrementModel, H1: RenewalMeasure,
                              H2: RenewalMeasure, xs=PROBES_DEFAULT,
                              grid_cfg: GridConfig = GridConfig(
                                  points_per_decade=16),
                              ) -> dict[str, RatioDiagnostic]:
    """SF verdicts must agree for two measures with comparable growth.

    Precondition: H1(x)/H2(x) stays within a bounded band over the
    probes (growth by more than `_RATIO_GROWTH_BOUND` across them fails).
    Emits the SF curve and the unit-increment curve for each measure,
    from `small_increment_criterion` on its integrated-tail grid.
    """
    xs, _ = _probe_tails(F, xs)
    arr = np.asarray(xs)
    q = np.asarray(H1(arr), dtype=float) / np.asarray(H2(arr), dtype=float)
    if not np.all(np.isfinite(q)) or np.min(q) <= 0:
        raise PreconditionError("measure ratio ill-defined on probes")
    growth = float(np.max(q) / np.min(q))
    if growth > _RATIO_GROWTH_BOUND:
        raise PreconditionError(
            f"measure ratio grows by factor {growth:.3g} over the probes "
            f"(bound {_RATIO_GROWTH_BOUND:g}); comparability hypothesis fails")

    knots = geometric_knots(grid_cfg.horizon(xs), grid_cfg.points_per_decade)
    out: dict[str, RatioDiagnostic] = {}
    for tag, H in (("h1", H1), ("h2", H2)):
        # route A on the knots, which route B must confirm at every knot
        route_a = two_route_curve(F, H, knots)
        # normalize by the x=0 mass so a defective integrated law (total
        # below 1, e.g. an empirical renewal measure) becomes the proper
        # conditional law the membership test expects
        i0 = route_a[0]
        if not i0 > 0.0:
            raise PreconditionError(f"integrated tail under {H.label} vanishes")
        grid = GridDistribution(knots=knots,
                                tail_cont=np.minimum(1.0, route_a / i0))
        small, sf = small_increment_criterion(F, grid, xs)
        out[f"sf_{tag}"], out[f"small_{tag}"] = sf, small

    agree = out["sf_h1"].verdict == out["sf_h2"].verdict
    for key in ("sf_h1", "sf_h2"):
        out[key] = replace(out[key], extras={**out[key].extras,
                                             "verdicts_agree": agree,
                                             "ratio_growth": growth})
    return out
