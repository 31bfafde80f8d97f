"""Cross-checks between simulation and the analytic tail calculus.

Each report block pits an estimator against an independent prediction:
the cycle-maximum exceedance curve against the mean-cycle-length times
positive-tail product, the descent renewal function against its
growth band, the all-time maximum against a geometric sum of ladder
heights, the ladder-height tail against its renewal-measure formula,
and the integrated-tail law against the convolution class criteria.

Blocks are self-contained: every verdict is a pure function of the
numbers stored in the block, so a serialized report can be re-judged
offline.  Wall-clock runtimes are kept out of the serializable payload
(they go to a sidecar) to keep reports byte-stable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .classlab import (CURVE_TOL, PROBES_DEFAULT, membership_curve,
                       probe_grid, small_increment_criterion)
from .errors import DivergenceError, PreconditionError
from .tailmath import (GridConfig, GridDistribution, IncrementModel, conv_tail,
                       criterion_K, integrated_tail_curve, truncated_neg_mean)
from . import walksim as ws
from .walksim import (BARRIER_DEFAULT, Z95, RngStream, estimate_sup_many,
                      ks_threshold, ks_two_sample, mtau_tail_estimate,
                      renewal_estimate, sample_ladder_many, wilson_interval)

SCHEMA = "htwk-report/1"

ANCHOR_CYCLE_MAX = "cycle-max-tail-asymptotic"
ANCHOR_LOWER = "cycle-max-lower-bound"
ANCHOR_WEAK = "max-law-tail-neutrality"
ANCHOR_BAND = "renewal-growth-band"
ANCHOR_LADDER_SUM = "geometric-ladder-sum-identity"
ANCHOR_LADDER_TAIL = "ladder-height-tail-formula"
ANCHOR_REDUCTION = "tail-class-reduction"

# a probe is conclusive once it has this many exceedances
_MIN_HITS = 50
# replications behind the renewal sum of the ladder-height formula
_RENEWAL_REPS = 2000
# the pinned verdict bands: the cycle-max ratio, the renewal band's
# widening and the ladder-tail ratio; the class curves are judged at
# classlab's CURVE_TOL
_TOL_MAIN = 0.2
_TOL_BAND = 0.15
_TOL_TAIL = 0.2
# probes of the renewal band and of the ladder-height tail in a full run
_RENEWAL_XS = (1e3, 1e4)
_LADDER_XS = (10.0, 50.0, 100.0)


def _jnum(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


@dataclass
class CheckBlock:
    """One verdict with the numbers that justify it."""

    name: str
    anchor: str
    verdict: bool | None
    probes: tuple[float, ...] = ()
    columns: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    notes: tuple[str, ...] = ()
    subchecks: tuple["CheckBlock", ...] = ()
    runtime: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "probes": [float(x) for x in self.probes],
            "columns": {k: [_jnum(v) if not isinstance(v, (bool, np.bool_))
                            else bool(v) for v in col]
                        for k, col in self.columns.items()},
            "scalars": {k: (bool(v) if isinstance(v, (bool, np.bool_))
                            else _jnum(v)) for k, v in self.scalars.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "seed": self.seed,
            "notes": list(self.notes),
            "subchecks": [b.to_dict() for b in self.subchecks],
        }

    def walk(self):
        yield self
        for sub in self.subchecks:
            yield from sub.walk()


@dataclass
class VerificationReport:
    model_spec: str
    seed: int
    config: dict
    blocks: list[CheckBlock] = field(default_factory=list)
    schema: str = SCHEMA

    @property
    def experiment_id(self) -> str:
        payload = json.dumps(
            {"schema": self.schema, "model": self.model_spec,
             "seed": self.seed, "config": self.config}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def overall(self) -> bool | None:
        verdicts = [b.verdict for blk in self.blocks for b in blk.walk()]
        if any(v is False for v in verdicts):
            return False
        if any(v is None for v in verdicts):
            return None
        return True if verdicts else None

    def runtimes(self) -> dict:
        return {b.name: round(b.runtime, 6) for b in self.blocks}

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "experiment": self.experiment_id,
            "model": self.model_spec,
            "seed": self.seed,
            "config": self.config,
            "overall": self.overall(),
            "checks": [b.to_dict() for b in self.blocks],
        }


def _timed(report):
    """Set the returned block's runtime to the report's wall time."""
    @functools.wraps(report)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        block = report(*args, **kwargs)
        block.runtime = time.perf_counter() - t0
        return block
    return timed


# ----------------------------------------------------------------------
# cycle maximum vs mean-cycle-length times positive tail
# ----------------------------------------------------------------------

@_timed
def cycle_max_report(model: IncrementModel, xs, cycles: int, seed: int,
                     workers: int = 1, sup_reps: int = 0) -> CheckBlock:
    """Exceedance curve of the cycle maximum against tau-bar times F-bar.

    The headline verdict demands the ratio confidence interval meet
    [1-tol, 1+tol], tol = _TOL_MAIN, at the last two conclusive probes.
    Two sub-checks ride along: the assumption-free lower bound (ratio
    upper end at or above 1-tol at every conclusive probe), and, when
    sup_reps > 0, the tail neutrality of the all-time-maximum law under
    convolution with the increment's positive tail.
    """
    xs = probe_grid(xs)
    stats, rows = mtau_tail_estimate(model, xs, cycles, seed, workers=workers)
    fbar = np.asarray(model.tail_pos(np.asarray(xs)), dtype=float)
    tau_lo = stats.tau_mean - Z95 * stats.tau_se
    tau_hi = stats.tau_mean + Z95 * stats.tau_se
    p_hat = np.array([r[1] for r in rows])
    p_lo = np.array([r[2] for r in rows])
    p_hi = np.array([r[3] for r in rows])
    hits = np.array([r[4] for r in rows], dtype=np.int64)

    conclusive = (hits >= _MIN_HITS) & (fbar > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_hat / (stats.tau_mean * fbar)
        ratio_lo = p_lo / (tau_hi * fbar)
        ratio_hi = p_hi / (max(tau_lo, 1.0) * fbar)
    probe_ok = (ratio_lo <= 1.0 + _TOL_MAIN) & (ratio_hi >= 1.0 - _TOL_MAIN)

    concl = np.nonzero(conclusive)[0]
    verdict = bool(np.all(probe_ok[concl[-2:]])) if concl.size >= 2 else None

    lower_ok = ratio_hi >= 1.0 - _TOL_MAIN
    lower = CheckBlock(
        name="cycle-max-lower-bound", anchor=ANCHOR_LOWER,
        verdict=bool(np.all(lower_ok[concl])) if concl.size else None,
        probes=xs,
        columns={"ratio_hi": ratio_hi, "conclusive": conclusive,
                 "pass": lower_ok},
        tolerances={"floor": 1.0 - _TOL_MAIN}, seed=seed)

    subchecks = [lower]
    if sup_reps:
        sup = estimate_sup_many(model, sup_reps, seed, workers=workers)
        pi = GridDistribution.from_samples(sup.m_values,
                                           x_max=GridConfig().horizon(xs))
        # a probe where F-bar vanishes has no ratio, and it fails
        resolved = fbar > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            weak_ratio = np.where(
                resolved, np.array([conv_tail(pi, model, x) for x in xs]) / fbar,
                np.nan)
        weak_ok = resolved & (np.abs(weak_ratio - 1.0) <= _TOL_MAIN)
        subchecks.append(CheckBlock(
            name="max-law-tail-neutrality", anchor=ANCHOR_WEAK,
            verdict=bool(np.all(weak_ok[-2:])),
            probes=xs,
            columns={"ratio": weak_ratio, "pass": weak_ok},
            scalars={"sup_reps": sup_reps, "p_hat": sup.p_hat,
                     "escape_estimate": sup.escape_estimate,
                     "bias_flag": sup.bias_flag},
            tolerances={"tol": _TOL_MAIN}, seed=seed))

    return CheckBlock(
        name="cycle-max-tail-asymptotic", anchor=ANCHOR_CYCLE_MAX,
        verdict=verdict, probes=xs,
        columns={"hits": hits, "p_hat": p_hat, "p_lo": p_lo, "p_hi": p_hi,
                 "fbar": fbar, "ratio": ratio, "ratio_lo": ratio_lo,
                 "ratio_hi": ratio_hi, "conclusive": conclusive,
                 "pass": probe_ok},
        scalars={"cycles": cycles, "tau_mean": stats.tau_mean,
                 "tau_se": stats.tau_se, "steps": stats.steps},
        tolerances={"tol": _TOL_MAIN, "min_hits": _MIN_HITS},
        seed=seed, subchecks=tuple(subchecks))


# ----------------------------------------------------------------------
# renewal growth band
# ----------------------------------------------------------------------

@_timed
def renewal_bound_report(model: IncrementModel, reps: int, seed: int,
                         workers: int = 1) -> CheckBlock:
    """Scaled renewal curve b(x) = H(x) m(x) / x at the probes
    _RENEWAL_XS against the band [p, 2p]; the band ends are widened by
    _TOL_BAND on each side."""
    xs = _RENEWAL_XS
    if not model.has_negative_part:
        raise PreconditionError(
            "descent mean vanishes; the renewal comparison is undefined")
    mneg = truncated_neg_mean(model)
    ren = renewal_estimate(model, xs, reps, seed, workers=workers)
    sup = estimate_sup_many(model, reps, seed, workers=workers)
    p_hat = sup.p_hat
    p_lo, p_hi = sup.p_interval()

    xs_arr = np.asarray(xs)
    m_vals = np.asarray(mneg(xs_arr), dtype=float)
    b = ren.h_values * m_vals / xs_arr
    half = Z95 * ren.h_se * m_vals / xs_arr
    b_lo, b_hi = b - half, b + half
    band = (p_hat * (1.0 - _TOL_BAND), p_hat * (2.0 + _TOL_BAND))
    probe_ok = (b_lo >= band[0]) & (b_hi <= band[1])

    if p_lo <= 0.0 or p_hi >= 1.0:
        verdict = None
        notes = ("zero-maximum probability interval touches {0,1}; "
                 "band is not identified",)
    else:
        tail_idx = slice(-2, None) if len(xs) >= 2 else slice(-1, None)
        verdict = bool(np.all(probe_ok[tail_idx]))
        notes = ()

    return CheckBlock(
        name="renewal-growth-band", anchor=ANCHOR_BAND, verdict=verdict,
        probes=xs,
        columns={"h": ren.h_values, "h_se": ren.h_se, "m": m_vals,
                 "b": b, "b_lo": b_lo, "b_hi": b_hi, "pass": probe_ok},
        scalars={"reps": reps, "p_hat": p_hat, "p_lo": p_lo, "p_hi": p_hi,
                 "band_lo": band[0], "band_hi": band[1]},
        tolerances={"tol": _TOL_BAND}, seed=seed, notes=notes)


# ----------------------------------------------------------------------
# geometric ladder sum identity
# ----------------------------------------------------------------------

@_timed
def ladder_identity_report(model: IncrementModel, reps: int, seed: int,
                           workers: int = 1, p_override: float | None = None
                           ) -> CheckBlock:
    """All-time maximum versus a geometric number of ladder heights.

    Builds reps samples of psi_1 + ... + psi_nu with nu geometric on
    {0, 1, ...} and an independent pool of ascent heights, then compares
    them to reps direct maximum samples by the two-sample KS distance.
    p_override substitutes a deliberately wrong success probability for
    negative-control runs.
    """
    sup = estimate_sup_many(model, reps, seed, workers=workers)
    p_hat = sup.p_hat
    p_use = p_hat if p_override is None else float(p_override)
    if not 0.0 < p_use < 1.0:
        raise PreconditionError(
            f"geometric construction needs p in (0, 1); got {p_use:g}")

    gen = RngStream(seed, ws.NU, 0).generator()
    nu = gen.geometric(p_use, size=reps).astype(np.int64) - 1
    need = int(nu.sum())
    attempts = int(need / max(1.0 - p_hat, 1e-9) * 1.08) + 512
    lad = sample_ladder_many(model, attempts, seed, workers=workers)
    pool = lad.uncensored_psi()
    if pool.size < need:
        raise PreconditionError(
            f"ascent pool too small ({pool.size} < {need}); increase reps")
    prefix = np.concatenate([[0.0], np.cumsum(pool[:need])])
    ends = np.cumsum(nu)
    sums = prefix[ends] - prefix[ends - nu]

    d = ks_two_sample(sup.m_values, sums)
    thr = ks_threshold(reps, reps)

    atom_nu = float(np.mean(nu == 0))
    atom_m = float(np.mean(sup.m_values == 0.0))
    atom_se = math.sqrt(atom_nu * (1 - atom_nu) / reps
                        + atom_m * (1 - atom_m) / reps)
    atom_ok = abs(atom_nu - atom_m) <= 3.0 * atom_se + 1e-12
    atom = CheckBlock(
        name="ladder-sum-zero-atom", anchor=ANCHOR_LADDER_SUM,
        verdict=atom_ok,
        scalars={"atom_nu": atom_nu, "atom_m": atom_m, "se": atom_se},
        tolerances={"sigmas": 3.0}, seed=seed)

    censor = lad.censor_rate
    censor_se = math.sqrt(censor * (1 - censor) / attempts
                          + p_hat * (1 - p_hat) / reps)
    censor_bias = abs(censor - p_hat) > 3.0 * censor_se + 1e-12
    bias_flag = bool(censor_bias or sup.bias_flag)

    return CheckBlock(
        name="geometric-ladder-sum-identity", anchor=ANCHOR_LADDER_SUM,
        verdict=bool(d < thr),
        scalars={"ks_distance": d, "ks_threshold": thr, "reps": reps,
                 "p_hat": p_hat, "p_used": p_use, "pool": pool.size,
                 "need": need, "censor_rate": censor,
                 "escape_estimate": sup.escape_estimate,
                 "bias_flag": bias_flag},
        tolerances={"ks_coef": ws.KS_COEF_95}, seed=seed,
        notes=("censoring rate and zero-maximum frequency disagree beyond "
               "3 sigma",) if censor_bias else (),
        subchecks=(atom,))


# ----------------------------------------------------------------------
# ladder height tail formula
# ----------------------------------------------------------------------

@_timed
def gplus_tail_report(model: IncrementModel, reps: int, seed: int,
                      workers: int = 1) -> CheckBlock:
    """Conditional ascent-height tail versus its renewal-measure formula,
    at the probes _LADDER_XS.

    Formula side: (F-bar(x) + mean over replications of the sum of
    F-bar(u + x) over observed descent partial sums u) / (1 - p-hat).
    Empirical side: exceedance frequency among uncensored ascents.  A
    probe passes when its ratio interval meets [1-tol, 1+tol], tol =
    _TOL_TAIL.
    """
    xs = _LADDER_XS
    sup = estimate_sup_many(model, reps, seed, workers=workers)
    p_hat = sup.p_hat
    if p_hat >= 1.0:
        raise PreconditionError("no finite ascents observed; tail undefined")
    lad = sample_ladder_many(model, reps, seed, workers=workers)
    unc = lad.uncensored_psi()
    if unc.size == 0:
        raise PreconditionError("no uncensored ascents; increase reps")
    rr = min(_RENEWAL_REPS, reps)
    ren = renewal_estimate(model, (BARRIER_DEFAULT,), rr, seed,
                           workers=workers, raw_reps=rr)
    u = ren.raw_points

    fbar = np.asarray(model.tail_pos(np.asarray(xs)), dtype=float)
    formula = np.array([
        (fb + float(np.sum(np.asarray(model.tail_pos(u + x), dtype=float)))
         / ren.raw_reps) / (1.0 - p_hat)
        for x, fb in zip(xs, fbar)])
    hits = np.array([int(np.sum(unc > x)) for x in xs], dtype=np.int64)
    emp = hits / unc.size
    ci = np.array([wilson_interval(int(k), unc.size) for k in hits])
    emp_lo, emp_hi = ci[:, 0], ci[:, 1]

    trivial = (formula == 0.0) & (hits == 0)
    conclusive = (hits >= _MIN_HITS) | trivial
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(trivial, np.nan, emp / formula)
        ratio_lo = np.where(trivial, np.nan, emp_lo / formula)
        ratio_hi = np.where(trivial, np.nan, emp_hi / formula)
    probe_ok = trivial | ((ratio_lo <= 1.0 + _TOL_TAIL)
                          & (ratio_hi >= 1.0 - _TOL_TAIL))

    concl = np.nonzero(conclusive)[0]
    verdict = bool(np.all(probe_ok[concl])) if concl.size else None

    return CheckBlock(
        name="ladder-height-tail-formula", anchor=ANCHOR_LADDER_TAIL,
        verdict=verdict, probes=xs,
        columns={"formula": formula, "empirical": emp, "emp_lo": emp_lo,
                 "emp_hi": emp_hi, "hits": hits, "ratio": ratio,
                 "ratio_lo": ratio_lo, "ratio_hi": ratio_hi,
                 "conclusive": conclusive, "pass": probe_ok},
        scalars={"reps": reps, "p_hat": p_hat, "uncensored": unc.size,
                 "renewal_reps": ren.raw_reps, "renewal_points": u.size},
        tolerances={"tol": _TOL_TAIL, "min_hits": _MIN_HITS}, seed=seed)


# ----------------------------------------------------------------------
# class reduction chain
# ----------------------------------------------------------------------

def _diag_subblock(name: str, diag) -> CheckBlock:
    return CheckBlock(
        name=name, anchor=ANCHOR_REDUCTION,
        verdict=None if diag is None else bool(diag.verdict),
        probes=() if diag is None else diag.probes,
        columns={} if diag is None else {"ratio": diag.values,
                                         "pass": diag.per_probe},
        scalars={} if diag is None else {"target": diag.target},
        tolerances={} if diag is None else {"tol": diag.tol})


@_timed
def class_reduction_report(model: IncrementModel) -> CheckBlock:
    """Reduction chain from base-law membership to the integrated tail.

    Establishes either the integral-criterion membership of the base
    law or the long-tail plus dominated-variation pair, then checks the
    integrated-tail law for convolution neutrality and the vanishing of
    its unit increments relative to F-bar, on the probes PROBES_DEFAULT.
    No simulation involved.
    """
    xs = PROBES_DEFAULT
    K, finite = criterion_K(model)
    if not finite:
        return CheckBlock(
            name="tail-class-reduction", anchor=ANCHOR_REDUCTION,
            verdict=False, probes=xs,
            scalars={"K_partial": K, "K_finite": False},
            notes=("hypothesis violated: tail-mass ratio integral diverges; "
                   "no membership claim made",))

    star = None
    star_note = ()
    try:
        star = membership_curve("Sstar", model, xs=xs)
    except DivergenceError:
        star_note = ("positive-part mean diverges; integral-criterion "
                     "membership unavailable",)
    ell = membership_curve("L", model, xs=xs)
    dee = membership_curve("D", model, xs=xs)
    case_a = bool(star.verdict) if star is not None else False
    case_b = bool(ell.verdict) and bool(dee.verdict)

    g1 = GridDistribution.from_tail(
        lambda t: integrated_tail_curve(model, K, t),
        x_max=GridConfig().horizon(xs))
    small_diag, sf_diag = small_increment_criterion(model, g1, xs=xs)

    verdict = (case_a or case_b) and bool(sf_diag.verdict) \
        and bool(small_diag.verdict)
    return CheckBlock(
        name="tail-class-reduction", anchor=ANCHOR_REDUCTION,
        verdict=bool(verdict), probes=xs,
        scalars={"K": K, "K_finite": True, "case_a": case_a,
                 "case_b": case_b},
        tolerances={"membership_tol": CURVE_TOL, "sf_tol": CURVE_TOL,
                    "small_tol": CURVE_TOL},
        notes=star_note,
        subchecks=(
            _diag_subblock("base-integral-criterion", star),
            _diag_subblock("base-long-tail", ell),
            _diag_subblock("base-dominated-variation", dee),
            _diag_subblock("integrated-tail-convolution-neutrality", sf_diag),
            _diag_subblock("integrated-tail-small-increments", small_diag),
        ))


# ----------------------------------------------------------------------
# orchestration and pinned models
# ----------------------------------------------------------------------

CHECK_NAMES = ("main", "renewal", "ladder_sum", "ladder_tail", "classes")


def run_verification(model: IncrementModel, seed: int,
                     checks=CHECK_NAMES, workers: int = 1,
                     xs=(50.0, 100.0, 200.0, 500.0), cycles: int = 10 ** 6,
                     reps: int = 10 ** 5, sup_reps: int = 30_000
                     ) -> VerificationReport:
    """Assemble the requested report blocks for one model."""
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise PreconditionError(f"unknown checks: {sorted(unknown)}")
    config = {
        "checks": list(checks), "workers": workers, "xs": list(xs),
        "cycles": cycles, "reps": reps, "sup_reps": sup_reps,
    }
    # built per call, not at import, so a report function replaced on
    # the module (as perfbench's tracer does) is the one that runs
    calls = {
        "main": lambda: cycle_max_report(model, xs, cycles, seed,
                                         workers=workers, sup_reps=sup_reps),
        "renewal": lambda: renewal_bound_report(model, reps, seed,
                                                workers=workers),
        "ladder_sum": lambda: ladder_identity_report(model, reps, seed,
                                                     workers=workers),
        "ladder_tail": lambda: gplus_tail_report(model, reps, seed,
                                                 workers=workers),
        "classes": lambda: class_reduction_report(model),
    }
    return VerificationReport(
        model_spec=model.spec_text, seed=seed, config=config,
        blocks=[calls[name]() for name in CHECK_NAMES if name in checks])


DEFAULT_MODEL = ("mix(0.5: pareto(alpha=1.5, kappa=1), "
                 "0.5: neg(pareto(alpha=0.5, kappa=1)))")
LIGHT_CONTROL = ("mix(0.5: exponential(rate=1), "
                 "0.5: neg(exponential(rate=0.5)))")
K_DIVERGENT = ("mix(0.5: pareto(alpha=0.4, kappa=1), "
               "0.5: neg(pareto(alpha=0.5, kappa=1)))")
CASE_B = ("mix(0.5: pareto(alpha=0.8, kappa=1), "
          "0.5: neg(pareto(alpha=0.3, kappa=1)))")
