"""Class membership diagnostics on laws with known verdicts."""

import numpy as np
import pytest

from htwk import spec_to_model, tailmath
from htwk.errors import DivergenceError, PreconditionError
from htwk.classlab import (
    majorant_check,
    measure_equivalence_check,
    membership_curve,
    small_increment_criterion,
    trend_verdict,
)
from htwk.tailmath import (
    GridConfig,
    GridDistribution,
    RenewalMeasure,
    criterion_K,
    integrated_tail_curve,
    truncated_neg_mean,
)
from htwk.walksim import renewal_estimate


@pytest.fixture(scope="module")
def pareto2():
    return spec_to_model("pareto(alpha=2, kappa=1)")


@pytest.fixture(scope="module")
def pareto15():
    return spec_to_model("pareto(alpha=1.5, kappa=1)")


@pytest.fixture(scope="module")
def expo():
    return spec_to_model("exponential(rate=1)")


def test_trend_verdict_limit_shape():
    per, ok = trend_verdict((1, 2, 3, 4), (1.4, 1.04, 1.03, 1.01), 1.0, 0.05)
    assert per == (False, True, True, True)
    assert ok
    # deviation must shrink over the last three probes
    _, bad = trend_verdict((1, 2, 3, 4), (1.0, 1.01, 1.02, 1.04), 1.0, 0.05)
    assert not bad


def test_trend_verdict_plateau_shape():
    _, ok = trend_verdict((1, 2, 3), (3.99, 4.0, 4.01), None, 0.10)
    assert ok
    _, bad = trend_verdict((1, 2, 3), (2.0, 4.0, 8.0), None, 0.10)
    assert not bad


def test_long_tail_verdicts(pareto2, expo):
    heavy = membership_curve("L", pareto2)
    assert heavy.verdict
    # closed form ((1+x)/(2+x))^2 at the last probe
    want = ((1.0 + 1e4) / (2.0 + 1e4)) ** 2
    assert np.isclose(heavy.values[-1], want, rtol=1e-12)

    light = membership_curve("L", expo, xs=(2.0, 4.0, 8.0, 16.0))
    assert not light.verdict
    assert np.allclose(light.values, np.exp(-1.0), rtol=1e-12)


def test_dominated_variation_verdicts(pareto2, expo):
    assert membership_curve("D", pareto2).verdict
    assert not membership_curve("D", expo, xs=(2.0, 4.0, 8.0, 16.0)).verdict


def test_two_fold_ratio_of_power_law(pareto2):
    diag = membership_curve("S", pareto2)
    assert diag.verdict
    at_1e3 = diag.values[list(diag.probes).index(1e3)]
    assert abs(at_1e3 - 2.0) <= 0.05 * 2.0


def test_two_fold_ratio_of_exponential(expo):
    # (1+x) exp(-x) against exp(-x): the ratio grows, membership fails
    diag = membership_curve("S", expo, xs=(2.0, 4.0, 7.0, 10.0))
    assert not diag.verdict
    assert np.isclose(diag.values[-1], 11.0, atol=0.06)


def test_two_fold_curve_widens_its_grid_past_the_default_horizon(pareto2):
    # probes out to 1e7 need a grid out to 1e8, past the default 1e6
    diag = membership_curve("S", pareto2,
                            xs=(1e5, 10 ** 5.5, 1e6, 10 ** 6.5, 1e7))
    assert diag.verdict
    assert np.allclose(diag.values, 2.0, rtol=0.0, atol=1e-4)


def test_symmetric_route_of_heavier_power_law(pareto15):
    diag = membership_curve("Sstar", pareto15)
    assert diag.verdict
    assert diag.extras["mu_plus"] == pytest.approx(2.0, rel=1e-8)
    assert diag.target == pytest.approx(4.0, rel=1e-8)
    assert abs(diag.values[-1] - 4.0) <= 0.05 * 4.0


@pytest.mark.parametrize("kind", ["L", "D", "S", "Sstar"])
def test_kind_arguments_are_policed(pareto2, kind):
    grid = GridDistribution.from_point(0.0)
    with pytest.raises(PreconditionError, match="grid"):
        membership_curve(kind, pareto2, G=grid)
    with pytest.raises(PreconditionError):
        membership_curve("SF", pareto2)
    with pytest.raises(PreconditionError):
        membership_curve("XX", pareto2)
    with pytest.raises(PreconditionError):
        membership_curve(kind, pareto2, xs=(10.0, 10.0))
    with pytest.raises(PreconditionError, match="nonnegative"):
        membership_curve(kind, pareto2, xs=(-1.0, 5.0))


@pytest.mark.parametrize("kind", ["L", "D", "S", "Sstar"])
@pytest.mark.parametrize("xs, match", [((-1.0, 5.0), "nonnegative"),
                                       ((10.0, 10.0), "strictly increasing")],
                         ids=["negative", "repeated"])
def test_probes_are_checked_before_the_tail_is_read(pareto2, monkeypatch, kind, xs, match):
    def unread(x):
        raise AssertionError(f"F-bar read at {x!r}")

    monkeypatch.setattr(pareto2, "tail_pos", unread)
    with pytest.raises(PreconditionError, match=match):
        membership_curve(kind, pareto2, xs=xs)


def test_self_convolution_needs_a_law_without_negative_mass(default_model):
    with pytest.raises(PreconditionError, match="grid discretization"):
        membership_curve("S", default_model)


def test_geometric_majorant_has_no_violations(pareto15):
    grid = GridDistribution.from_model(pareto15)
    A, violations = majorant_check(grid, pareto15, epsilon=0.5, n_max=4)
    assert violations == []
    # the anchor probe is the first one, so A = 1 / tail(100)
    assert np.isclose(A, 101.0 ** 1.5, rtol=1e-12)


def test_majorant_needs_an_anchor(pareto15, expo):
    light_grid = GridDistribution.from_model(expo, x_max=1e3)
    with pytest.raises(PreconditionError):
        majorant_check(light_grid, expo, epsilon=0.1, n_max=2,
                       xs=(2.0, 4.0, 6.0))


def test_increment_criterion_claims_only_after_base_passes(default_model):
    K, _ = criterion_K(default_model)
    g1 = GridDistribution.from_tail(
        lambda t: integrated_tail_curve(default_model, K, t), x_max=1e6)
    small, sf = small_increment_criterion(default_model, g1)
    assert small.verdict
    assert sf.verdict


def test_measure_comparison_trivial_agreement(default_model):
    out = measure_equivalence_check(
        default_model, RenewalMeasure.lebesgue(), RenewalMeasure.lebesgue(),
        xs=(100.0, 10 ** 2.5, 1e3),
        grid_cfg=GridConfig(x_max=1e4, points_per_decade=8))
    assert out["sf_h1"].extras["verdicts_agree"]
    assert out["sf_h1"].extras["ratio_growth"] == pytest.approx(1.0)
    assert out["sf_h1"].values == out["sf_h2"].values


def test_measure_comparison_checks_both_routes_on_the_grid(default_model, monkeypatch):
    # route B off by 1e-5 on its cells: every knot below 1 is checked
    route_b = tailmath._route_b_cells
    monkeypatch.setattr(tailmath, "_route_b_cells",
                        lambda *args: route_b(*args) * (1.0 + 1e-5))
    with pytest.raises(DivergenceError, match="routes A and B disagree"):
        measure_equivalence_check(
            default_model, RenewalMeasure.lebesgue(), RenewalMeasure.lebesgue(),
            xs=(100.0, 10 ** 2.5, 1e3),
            grid_cfg=GridConfig(x_max=1e4, points_per_decade=8))


def test_measure_comparison_refuses_unbalanced_growth(default_model):
    tm = truncated_neg_mean(default_model)
    with pytest.raises(PreconditionError, match="comparability"):
        measure_equivalence_check(default_model, RenewalMeasure.lebesgue(),
                                  RenewalMeasure.from_ratio(tm))


def test_measure_comparison_empirical_vs_ratio(default_model):
    # the estimated renewal curve grows like t / m(t), so the comparable
    # analytic partner is the ratio-weight measure, not the linear one
    xs = (100.0, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4)
    ren = renewal_estimate(default_model, xs, reps=2000, seed=17)
    emp = RenewalMeasure.from_points(ren.xs, ren.h_values)
    tm = truncated_neg_mean(default_model)
    out = measure_equivalence_check(
        default_model, RenewalMeasure.from_ratio(tm), emp, xs=xs,
        grid_cfg=GridConfig(x_max=1e4, points_per_decade=8))
    assert out["sf_h1"].verdict
    assert out["sf_h2"].verdict
    assert out["sf_h1"].extras["verdicts_agree"]


def test_measure_comparison_rejects_sublinear_empirical(default_model):
    # against the linear weight the estimated curve is not comparable:
    # the ratio of the two drifts by more than the allowed factor
    xs = (100.0, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4)
    ren = renewal_estimate(default_model, xs, reps=500, seed=17)
    emp = RenewalMeasure.from_points(ren.xs, ren.h_values)
    with pytest.raises(PreconditionError, match="comparab"):
        measure_equivalence_check(
            default_model, RenewalMeasure.lebesgue(), emp, xs=xs[:3],
            grid_cfg=GridConfig(x_max=1e4, points_per_decade=8))


def test_diagnostic_rows_are_exportable(pareto2):
    diag = membership_curve("L", pareto2)
    rows = diag.rows()
    assert len(rows) == len(diag.probes)
    x, value, target, ok = rows[-1]
    assert (x, value, target, ok) == (diag.probes[-1], diag.values[-1], 1.0, 1)
