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

The stopped-sum and closure curves are SF curves on a derived grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, PreconditionError
from .tailmath import (PROBE_REFINE, GridConfig, GridDistribution,
                       IncrementModel, RenewalMeasure, conv_tail,
                       geometric_knots, mu_plus, self_conv_tail,
                       sstar_integral, two_route_curve)

PROBES_DEFAULT = (1e2, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4)

KINDS = ("L", "D", "S", "Sstar", "SF")

_TREND_SLACK = 1e-12

# relative slack on the majorant bound, for rounding in the grid sums
_MAJORANT_SLACK = 1e-9

# the geometric stop count is cut where its neglected tail drops below
# _STOP_NEGLECT, and refused when that takes more than _STOP_TERMS terms
_STOP_NEGLECT = 1e-8
_STOP_TERMS = 400


@dataclass(frozen=True)
class RatioDiagnostic:
    """A measured ratio curve with its finite-sample verdict.

    `target` is None for boundedness-type checks (class D), where the
    verdict is a plateau test instead of a limit test.  The verdict is
    a pure function of (probes, values, target, tol) so a serialized
    diagnostic can always be re-judged.
    """

    kind: str
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


def _deviation_threshold(target: float, tol: float) -> float:
    return tol * (abs(target) if target != 0.0 else 1.0)


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
    thr = _deviation_threshold(target, tol)
    devs = [abs(v - target) for v in values]
    per = tuple(d <= thr for d in devs)
    if len(values) < 3:
        return per, False
    d3 = devs[-3:]
    shrinking = all(d3[i + 1] <= d3[i] + _TREND_SLACK for i in range(2))
    return per, bool(all(per[-3:]) and shrinking)


def _diagnostic(kind, probes, values, target, tol, extras=None) -> RatioDiagnostic:
    per, verdict = trend_verdict(probes, values, target, tol)
    return RatioDiagnostic(kind=kind, probes=tuple(float(x) for x in probes),
                           values=tuple(float(v) for v in values),
                           target=target, tol=tol, per_probe=per,
                           verdict=verdict, extras=extras or {})


@dataclass(frozen=True)
class ProbeSchedule:
    """Split-point schedule h(x) = x**beta, growing but below x/2."""

    beta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise PreconditionError("schedule exponent must lie in (0, 1)")

    def h(self, x):
        return np.power(np.asarray(x, dtype=float), self.beta)

    def validate(self, probes) -> None:
        xs = np.asarray(probes, dtype=float)
        hs = self.h(xs)
        bad = xs[hs >= xs / 2.0]
        if bad.size:
            raise PreconditionError(
                f"h(x) >= x/2 at probe {bad[0]:g}; shrink beta or raise probes")
        if np.any(np.diff(hs) < 0):
            raise PreconditionError("h must be nondecreasing on the probes")


@dataclass
class StoppedSumModel:
    """Random sum X_nu of iid steps with law G and stop count nu.

    `pmf[n]` is P(nu = n) starting at n = 0; the geometric constructor
    truncates where the neglected tail drops below `_STOP_NEGLECT`.
    """

    grid: GridDistribution
    pmf: tuple[float, ...]

    def __post_init__(self):
        total = sum(self.pmf)
        if not 0.0 < total <= 1.0 + 1e-12:
            raise PreconditionError("stopping probabilities must sum into (0, 1]")

    @classmethod
    def geometric(cls, grid: GridDistribution, p: float) -> "StoppedSumModel":
        if not 0.0 < p <= 1.0:
            raise PreconditionError("geometric stop needs p in (0, 1]")
        if p == 1.0:
            return cls(grid=grid, pmf=(1.0,))
        n = int(math.ceil(math.log(_STOP_NEGLECT) / math.log(1.0 - p))) + 1
        if n > _STOP_TERMS:
            raise BudgetError(
                f"geometric truncation needs {n} terms, cap is {_STOP_TERMS}")
        return cls(grid=grid, pmf=tuple(p * (1.0 - p) ** k for k in range(n)))

    def stopped_grid(self) -> GridDistribution:
        """G_nu = sum over n of P(nu=n) G^{*n}, on the step grid."""
        return GridDistribution.mixture(self.pmf,
                                        self.grid.powers(len(self.pmf) - 1))


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


def _strip_mass(G: GridDistribution, xs, width, fbar) -> np.ndarray:
    """G(x - width, x] / F-bar(x) at each probe."""
    arr = np.asarray(xs)
    return (np.asarray(G.tail(arr - width), dtype=float)
            - np.asarray(G.tail(arr), dtype=float)) / fbar


def membership_curve(kind: str, F: IncrementModel,
                     G: GridDistribution | None = None,
                     xs=PROBES_DEFAULT, tol: float = 0.05,
                     grid_cfg: GridConfig = GridConfig()) -> RatioDiagnostic:
    """Ratio curve and verdict for one class membership test.

    Only kind SF takes the grid G, and it requires one.
    """
    xs, fbar = _probe_tails(F, xs)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise PreconditionError("probes must be strictly increasing")
    if kind not in KINDS:
        raise PreconditionError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if (G is None) == (kind == "SF"):
        raise PreconditionError(
            f"kind {kind}: only kind SF takes a grid G, and it requires one")
    arr = np.asarray(xs)

    if kind == "L":
        shifted = np.asarray(F.tail_pos(arr + 1.0), dtype=float)
        return _diagnostic("L", xs, shifted / fbar, 1.0, tol)

    if kind == "D":
        halved = np.asarray(F.tail_pos(arr / 2.0), dtype=float)
        # boundedness check: plateau tolerance is fixed at 10%
        return _diagnostic("D", xs, halved / fbar, None, 0.10)

    if kind == "S":
        if F.law.support[0] < 0:
            raise PreconditionError("kind S requires support in [0, infinity)")
        grid = GridDistribution.from_model(F, x_max=grid_cfg.x_max,
                                           ppd=grid_cfg.points_per_decade)
        values = [self_conv_tail(grid, x) / fb for x, fb in zip(xs, fbar)]
        return _diagnostic("S", xs, values, 2.0, tol)

    if kind == "Sstar":
        mu = mu_plus(F)
        values = [sstar_integral(F, x) / fb for x, fb in zip(xs, fbar)]
        return _diagnostic("Sstar", xs, values, 2.0 * mu, tol,
                           extras={"mu_plus": mu})

    return _diagnostic("SF", xs, _conv_tails(G, F, xs) / fbar, 1.0, tol)


def tail_split_criteria(G: GridDistribution, F: IncrementModel,
                        schedule: ProbeSchedule = ProbeSchedule(),
                        xs=PROBES_DEFAULT,
                        tols: tuple[float, float, float] = (0.02, 0.02, 0.02)
                        ) -> tuple[RatioDiagnostic, RatioDiagnostic, RatioDiagnostic]:
    """The three split conditions equivalent to SF membership.

    c1: F-bar(x - h)/F-bar(x) -> 1 (shift insensitivity),
    c2: G(x-h, x] / F-bar(x) -> 0 (no G mass rides the far edge),
    c3: middle-strip convolution integral / F-bar(x) -> 0.
    """
    xs, fbar = _probe_tails(F, xs)
    schedule.validate(xs)
    hs = schedule.h(np.asarray(xs))

    c1 = np.asarray(F.tail_pos(np.asarray(xs) - hs), dtype=float) / fbar
    c2 = _strip_mass(G, xs, hs, fbar)
    c3 = []
    for x, h, fb in zip(xs, hs, fbar):
        locs, masses = G.particles(refine=PROBE_REFINE, lo=float(h),
                                   hi=float(x - h), closed_lo=False)
        val = float(np.dot(masses, np.asarray(F.tail_pos(x - locs), dtype=float))) \
            if locs.size else 0.0
        c3.append(val / fb)

    return (_diagnostic("shift", xs, c1, 1.0, tols[0]),
            _diagnostic("edge-strip", xs, c2, 0.0, tols[1]),
            _diagnostic("middle-strip", xs, c3, 0.0, tols[2]))


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


def stopped_sum_tail(stopped: StoppedSumModel, F: IncrementModel,
                     xs=PROBES_DEFAULT, tol: float = 0.05) -> RatioDiagnostic:
    """SF curve of the stopped sum's law against F."""
    g_nu = stopped.stopped_grid()
    sf = membership_curve("SF", F, G=g_nu, xs=xs, tol=tol)
    arr = np.asarray(sf.probes)
    g_tail = np.asarray(g_nu.tail(arr), dtype=float)
    step_tail = np.asarray(stopped.grid.tail(arr), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        sanity = np.where(step_tail > 0, g_tail / step_tail, np.nan)
    mean_nu = sum(n * w for n, w in enumerate(stopped.pmf))
    return replace(sf, kind="stopped-sum",
                   extras={"tail_vs_step": sanity.tolist(),
                           "mean_stop": mean_nu,
                           "terms": len(stopped.pmf)})


def convolution_closure_check(G1: GridDistribution, G2: GridDistribution,
                              F: IncrementModel, xs=PROBES_DEFAULT,
                              tol: float = 0.05) -> RatioDiagnostic:
    """SF curve of G1 * G2 against F; both factors must pass first."""
    d1 = membership_curve("SF", F, G=G1, xs=xs, tol=tol)
    d2 = membership_curve("SF", F, G=G2, xs=xs, tol=tol)
    if not (d1.verdict and d2.verdict):
        raise PreconditionError(
            "closure check needs both factors to pass SF membership")
    sf = membership_curve("SF", F, G=G1.convolve(G2), xs=xs, tol=tol)
    return replace(sf, kind="closure",
                   extras={"factor1": d1.values, "factor2": d2.values})


def small_increment_criterion(F: IncrementModel, G: GridDistribution,
                              xs=PROBES_DEFAULT, tol_small: float = 0.05,
                              tol_sf: float = 0.05,
                              require_sstar: bool = True
                              ) -> tuple[RatioDiagnostic, RatioDiagnostic]:
    """Unit-increment criterion: G(x-1, x]/F-bar(x) -> 0 forces the SF
    ratio -> 1.  Returns (small_increments, sf_curve); the SF verdict is
    only claimed when the increment curve passes."""
    if require_sstar:
        star = membership_curve("Sstar", F, xs=xs)
        if not star.verdict:
            raise PreconditionError(
                "increment criterion assumes the base law passes Sstar")
    xs, fbar = _probe_tails(F, xs)
    small_diag = _diagnostic("unit-increment", xs, _strip_mass(G, xs, 1.0, fbar),
                             0.0, tol_small)
    sf = membership_curve("SF", F, G=G, xs=xs, tol=tol_sf)
    return small_diag, replace(sf, extras={**sf.extras,
                                           "claimed": small_diag.verdict})


def measure_equivalence_check(F: IncrementModel, H1: RenewalMeasure,
                              H2: RenewalMeasure, xs=PROBES_DEFAULT,
                              tol: float = 0.05, ratio_bound: float = 3.0,
                              grid_cfg: GridConfig = GridConfig(
                                  points_per_decade=16),
                              ) -> dict[str, RatioDiagnostic]:
    """SF verdicts must agree for two measures with comparable growth.

    Precondition: H1(x)/H2(x) stays within a bounded band over the
    probes (growth by more than `ratio_bound` across the grid fails).
    Emits the SF curve and the unit-increment curve for each measure.
    """
    xs, fbar = _probe_tails(F, xs)
    arr = np.asarray(xs)
    q = np.asarray(H1(arr), dtype=float) / np.asarray(H2(arr), dtype=float)
    if not np.all(np.isfinite(q)) or np.min(q) <= 0:
        raise PreconditionError("measure ratio ill-defined on probes")
    growth = float(np.max(q) / np.min(q))
    if growth > ratio_bound:
        raise PreconditionError(
            f"measure ratio grows by factor {growth:.3g} over the probes "
            f"(bound {ratio_bound:g}); comparability hypothesis fails")

    x_max = max(grid_cfg.x_max, 10.0 * xs[-1])
    knots = geometric_knots(x_max, grid_cfg.points_per_decade)
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
        out[f"sf_{tag}"] = membership_curve("SF", F, G=grid, xs=xs, tol=tol)
        out[f"small_{tag}"] = _diagnostic(f"unit-increment-{tag}", xs,
                                          _strip_mass(grid, xs, 1.0, fbar),
                                          0.0, tol)

    agree = out["sf_h1"].verdict == out["sf_h2"].verdict
    for key in ("sf_h1", "sf_h2"):
        out[key] = replace(out[key], extras={**out[key].extras,
                                             "verdicts_agree": agree,
                                             "ratio_growth": growth})
    return out
