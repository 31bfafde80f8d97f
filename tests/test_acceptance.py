"""Acceptance gate: desk-scale reproductions with pinned budgets and seeds.

One criterion per test; each prints exactly one ACCEPT-NN PASS/FAIL
line (outside capture) before asserting, so the full scoreboard is
visible in any run.  Tolerances here are contractual: a red line is a
finding about the artifact or the claim, never a reason to loosen the
line.  Heavy runs share module-scoped fixtures; everything is pinned
to explicit (seed, workers) pairs, so reruns are bit-identical.
"""

import math

import numpy as np
import pytest

from htwk import spec_to_model
from htwk.classlab import (
    majorant_check,
    membership_curve,
    small_increment_criterion,
)
from htwk.distspec import format_spec, parse_spec
from htwk.errors import SpecSyntaxError
from htwk.tailmath import (
    GridDistribution,
    RenewalMeasure,
    conv_tail,
    criterion_K,
    integrated_tail,
    integrated_tail_curve,
    renewal_integrated_tail_forms,
    truncated_neg_mean,
)
from htwk.verify import (
    gplus_tail_report,
    ladder_identity_report,
    cycle_max_report,
    renewal_bound_report,
)
from htwk.walksim import estimate_sup_many, simulate_cycles

WORKERS = 4


def _verdict(capsys, num, ok, detail=""):
    line = f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ----------------------------------------------------------------------
# shared heavy runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_run(default_model):
    return cycle_max_report(default_model, (50.0, 100.0, 200.0, 500.0),
                               cycles=10 ** 7, seed=42, workers=WORKERS,
                               sup_reps=0)


@pytest.fixture(scope="module")
def light_run(light_model):
    return cycle_max_report(light_model, (2.0, 4.0, 6.0, 8.0),
                               cycles=10 ** 6, seed=43, workers=WORKERS,
                               sup_reps=0)


@pytest.fixture(scope="module")
def case_b_run(case_b_model):
    return cycle_max_report(case_b_model, (50.0, 100.0, 200.0, 500.0),
                               cycles=10 ** 6, seed=45, workers=WORKERS,
                               sup_reps=0)


@pytest.fixture(scope="module")
def ladder_run(default_model):
    return ladder_identity_report(default_model, reps=10 ** 5, seed=42,
                                  workers=WORKERS)


@pytest.fixture(scope="module")
def sup_run(default_model):
    return estimate_sup_many(default_model, 30000, seed=42, workers=WORKERS)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_accept_01_cycle_max_tail_reproduction(big_run, capsys):
    # ratio confidence interval meets [0.8, 1.2] at every conclusive
    # probe, with at least three probes conclusive, at 1e7 cycles
    assert big_run.tolerances["tol"] == 0.2
    concl = np.asarray(big_run.columns["conclusive"])
    per_probe = np.asarray(big_run.columns["pass"])
    ratio = np.asarray(big_run.columns["ratio"])
    ok = int(concl.sum()) >= 3 and bool(np.all(per_probe[concl]))
    detail = ("ratio=" + ",".join(f"{r:.3f}" for r in ratio)
              + f" ok={list(map(bool, per_probe))}")
    _verdict(capsys, 1, ok, detail)


def test_accept_02_lower_bound_every_fixture(big_run, light_run, case_b_run,
                                             capsys):
    # the one-sided bound needs no tail hypotheses, so it must hold on
    # all three cycle-simulable fixtures, the light control included
    runs = {"heavy": big_run, "light": light_run, "two-sided": case_b_run}
    states = {}
    for name, run in runs.items():
        lower = run.subchecks[0]
        assert lower.name == "cycle-max-lower-bound"
        states[name] = lower.verdict
    ok = all(v is True for v in states.values())
    _verdict(capsys, 2, ok, " ".join(f"{k}={v}" for k, v in states.items()))


def test_accept_03_criterion_constant_closed_form(default_model,
                                                  k_divergent_model, capsys):
    K, finite = criterion_K(default_model)
    _, finite_div = criterion_K(k_divergent_model)
    ok = finite and abs(K - 1.25) <= 1.25 * 1e-6 and finite_div is False
    _verdict(capsys, 3, ok,
             f"K={K:.9f} finite={finite} divergent_flag={finite_div}")


def test_accept_04_integrated_tail_normalization(default_model, case_b_model,
                                                 capsys):
    devs = []
    for model in (default_model, case_b_model):
        K, finite = criterion_K(model)
        assert finite
        devs.append(abs(integrated_tail(model, K, 0.0) - 1.0))
    ok = max(devs) <= 1e-9
    _verdict(capsys, 4, ok, f"max_dev={max(devs):.3e}")


def test_accept_05_dual_integral_forms_agree(default_model, capsys):
    tm = truncated_neg_mean(default_model)
    worst = 0.0
    for measure in (RenewalMeasure.lebesgue(), RenewalMeasure.from_ratio(tm)):
        for x in (2.0, 10.0, 100.0, 1000.0):
            a, b = renewal_integrated_tail_forms(default_model, measure, x)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    ok = worst <= 1e-8
    _verdict(capsys, 5, ok, f"worst_rel={worst:.3e}")


def test_accept_06_class_suite_trio(capsys):
    pareto2 = spec_to_model("pareto(alpha=2, kappa=1)")
    pareto15 = spec_to_model("pareto(alpha=1.5, kappa=1)")
    expo = spec_to_model("exponential(rate=1)")

    two_fold = membership_curve("S", pareto2)
    r_s = two_fold.values[list(two_fold.probes).index(1e3)]
    star = membership_curve("Sstar", pareto15)
    r_star = star.values[-1]
    light = membership_curve("S", expo, xs=(2.0, 4.0, 7.0, 10.0))
    r_light = light.values[-1]

    ok = (abs(r_s - 2.0) <= 0.05 * 2.0
          and abs(r_star - 4.0) <= 0.05 * 4.0
          and abs(r_light - 11.0) <= 0.06
          and not light.verdict)
    _verdict(capsys, 6, ok,
             f"S(1e3)={r_s:.4f} Sstar(1e4)={r_star:.4f} expo(10)={r_light:.4f}")


def test_accept_07_integrated_tail_mechanism(default_model, capsys):
    K, finite = criterion_K(default_model)
    assert finite
    g1 = GridDistribution.from_tail(
        lambda t: integrated_tail_curve(default_model, K, t), x_max=1e6)
    small, sf = small_increment_criterion(default_model, g1)
    ok = abs(sf.values[-1] - 1.0) <= 0.05 and small.values[-1] < 0.05
    _verdict(capsys, 7, ok,
             f"sf(1e4)={sf.values[-1]:.4f} increment(1e4)={small.values[-1]:.4f}")


def test_accept_08_renewal_growth_band(default_model, capsys):
    block = renewal_bound_report(default_model, reps=10 ** 5, seed=42,
                                 workers=WORKERS)
    assert block.tolerances["tol"] == 0.15
    ok = block.verdict is True and all(bool(v) for v in block.columns["pass"])
    b = block.columns["b"]
    s = block.scalars
    _verdict(capsys, 8, ok,
             f"b={b[0]:.4f},{b[1]:.4f} band=[{s['band_lo']:.4f},"
             f"{s['band_hi']:.4f}]")


def test_accept_09_geometric_sum_identity(default_model, ladder_run, capsys):
    neg = ladder_identity_report(default_model, reps=10 ** 5, seed=42,
                                 workers=WORKERS,
                                 p_override=ladder_run.scalars["p_hat"] / 2.0)
    ok = ladder_run.verdict is True and neg.verdict is False
    _verdict(capsys, 9, ok,
             f"d={ladder_run.scalars['ks_distance']:.4f} "
             f"thr={ladder_run.scalars['ks_threshold']:.4f} "
             f"control_d={neg.scalars['ks_distance']:.4f}")


def test_accept_10_ladder_tail_formula(default_model, capsys):
    block = gplus_tail_report(default_model, reps=10 ** 5, seed=42,
                              workers=WORKERS)
    assert block.tolerances["tol"] == 0.2
    concl = [bool(c) for c in block.columns["conclusive"]]
    ok = block.verdict is True and all(concl)
    ratio = block.columns["ratio"]
    _verdict(capsys, 10, ok,
             "ratio=" + ",".join(f"{r:.3f}" for r in ratio))


def test_accept_11_property_bundle(default_model, big_run, sup_run, capsys):
    checks = {}

    tm = truncated_neg_mean(default_model)
    rng = np.random.Generator(np.random.Philox(2024))
    xs = 10.0 ** rng.uniform(-3, 6, 10 ** 4)
    ys = 10.0 ** rng.uniform(-3, 6, 10 ** 4)
    grid = np.sort(np.concatenate([xs, ys]))
    rg = tm.ratio(grid)
    checks["ratio_monotone"] = bool(np.all(np.diff(rg) >= -1e-9 * rg[:-1]))
    rx, ry = tm.ratio(xs), tm.ratio(ys)
    checks["ratio_subadditive"] = bool(
        np.all(tm.ratio(xs + ys) <= rx + ry + 1e-9 * (rx + ry)))

    m_grid = tm(np.linspace(0.0, 1000.0, 2001))
    checks["m_monotone"] = bool(np.all(np.diff(m_grid) >= -1e-12))
    checks["m_concave"] = bool(np.all(np.diff(m_grid, 2) <= 1e-9))

    pareto15 = spec_to_model("pareto(alpha=1.5, kappa=1)")
    A, violations = majorant_check(GridDistribution.from_model(pareto15),
                                   pareto15, epsilon=0.5, n_max=4)
    checks["majorant"] = violations == [] and np.isfinite(A)

    atom = GridDistribution.from_point(2.0)
    rel = max(
        abs(conv_tail(atom, default_model, x)
            - float(default_model.tail_pos(x - 2.0)))
        / float(default_model.tail_pos(x - 2.0))
        for x in (2.5, 5.0, 50.0, 500.0))
    checks["degenerate_conv"] = rel <= 1e-12

    tau_mean = big_run.scalars["tau_mean"]
    tau_se = big_run.scalars["tau_se"]
    p = sup_run.p_hat
    p_se = math.sqrt(p * (1.0 - p) / sup_run.m_values.size)
    se = math.hypot(p * tau_se, tau_mean * p_se)
    checks["duality"] = abs(tau_mean * p - 1.0) <= 3.0 * se

    a, b = (simulate_cycles(default_model, 10 ** 5, seed=7, workers=2,
                            probes=(2.0,), keep_raw=True) for _ in range(2))
    checks["bit_identical"] = (
        all(np.array_equal(getattr(a, col), getattr(b, col))
            for col in ("tau", "m_tau", "chi"))
        and a.stats.steps == b.stats.steps
        and a.stats.tau_sq_sum == b.stats.tau_sq_sum
        and list(a.stats.probe_hits) == list(b.stats.probe_hits))

    failed = [k for k, v in checks.items() if not v]
    _verdict(capsys, 11, not failed,
             "all " + str(len(checks)) if not failed
             else "failed: " + ",".join(failed))


def test_accept_12_parser_corpus(capsys):
    from test_distspec import MALFORMED, ROUND_TRIP_CORPUS

    assert len(ROUND_TRIP_CORPUS) == 50
    assert len(set(ROUND_TRIP_CORPUS)) == 50
    for token in ("pareto", "exponential(", "weibull(", "lognormal(",
                  "point(", "neg(", "shift(", "mix("):
        assert any(token in t for t in ROUND_TRIP_CORPUS), token

    round_trips = 0
    for text in ROUND_TRIP_CORPUS:
        law = parse_spec(text)
        round_trips += parse_spec(format_spec(law)) == law

    spanned = 0
    for text in MALFORMED:
        try:
            parse_spec(text)
        except SpecSyntaxError as e:
            start, end = e.span
            spanned += (0 <= start <= len(text)
                        and start < end <= len(text) + 1)
    ok = round_trips == 50 and spanned == len(MALFORMED)
    _verdict(capsys, 12, ok,
             f"round_trip={round_trips}/50 spanned={spanned}/{len(MALFORMED)}")
