"""Tail calculus against closed forms and scipy quadrature oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from htwk import spec_to_model
from htwk.classlab import PROBES_DEFAULT
from htwk.errors import DivergenceError, HorizonError, PreconditionError
from htwk.tailmath import (
    GridDistribution,
    RenewalMeasure,
    conv_tail,
    criterion_K,
    geometric_knots,
    integrated_tail,
    integrated_tail_curve,
    mu_plus,
    renewal_integrated_tail,
    renewal_integrated_tail_curve,
    renewal_integrated_tail_forms,
    self_conv_tail,
    sstar_integral,
    truncated_neg_mean,
)
from htwk.verify import CASE_B, DEFAULT_MODEL
from htwk.walksim import renewal_estimate

# ----------------------------------------------------------------------
# laws
# ----------------------------------------------------------------------


def test_default_mixture_tails_are_closed_form(default_model):
    # positive arm 0.5 * (1+x)^-1.5, negative arm 0.5 * (1+y)^-0.5
    assert default_model.tail_pos(3.0) == pytest.approx(0.0625, abs=1e-15)
    assert default_model.tail_neg(3.0) == pytest.approx(0.25, abs=1e-15)
    assert default_model.q_plus == pytest.approx(0.5, abs=1e-15)
    assert default_model.infinite_neg_mean
    assert default_model.has_negative_part


def test_lognormal_tail_matches_scipy():
    model = spec_to_model("lognormal(mu=0.3, sigma=1.2)")
    for x in (0.5, 1.0, 4.0, 30.0):
        want = scipy.stats.lognorm.sf(x, s=1.2, scale=math.exp(0.3))
        assert np.isclose(model.tail_pos(x), want, rtol=1e-12)


def test_point_mass_tail_is_right_continuous():
    model = spec_to_model("point(2)")
    assert model.tail_pos(1.9) == 1.0
    assert model.tail_pos(2.0) == 0.0
    assert not model.has_negative_part


def test_shift_moves_the_tail():
    model = spec_to_model("shift(-2, exponential(rate=1))")
    assert model.tail_pos(1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)
    assert model.tail_neg(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_light_control_mean_is_negative(light_model):
    # 0.5 * 1 - 0.5 * 2 = -0.5; both truncated means are finite
    assert not light_model.infinite_neg_mean


# ----------------------------------------------------------------------
# truncated mean
# ----------------------------------------------------------------------


def test_truncated_mean_closed_form(default_model):
    tm = truncated_neg_mean(default_model)
    # m(x) = sqrt(1+x) - 1
    assert tm(3.0) == pytest.approx(1.0, abs=1e-10)
    assert tm(8.0) == pytest.approx(2.0, abs=1e-10)
    xs = np.array([0.5, 2.0, 99.0, 1e4])
    assert np.allclose(tm(xs), np.sqrt(1.0 + xs) - 1.0, rtol=1e-10)


def test_truncated_mean_ratio_limits(default_model):
    tm = truncated_neg_mean(default_model)
    assert tm.ratio(0.0) == pytest.approx(2.0, abs=1e-12)
    assert tm.ratio(3.0) == pytest.approx(3.0, rel=1e-10)


def test_truncated_mean_with_a_negative_atom():
    model = spec_to_model("mix(0.5: pareto(alpha=1.5, kappa=1), 0.5: neg(point(2)))")
    tm = truncated_neg_mean(model)
    # descent tail is flat 0.5 up to the atom, zero beyond
    assert tm(1.0) == pytest.approx(0.5, abs=1e-12)
    assert tm(2.0) == pytest.approx(1.0, abs=1e-12)
    assert tm(7.0) == pytest.approx(1.0, abs=1e-12)


def test_truncated_mean_needs_a_negative_part():
    with pytest.raises(PreconditionError):
        truncated_neg_mean(spec_to_model("pareto(alpha=1.5, kappa=1)"))


def test_truncated_mean_scipy_oracle():
    model = spec_to_model(
        "mix(0.5: pareto(alpha=2, kappa=1), 0.5: neg(pareto(alpha=0.7, kappa=1)))")
    tm = truncated_neg_mean(model)
    for x in (0.7, 5.0, 123.0):
        want, _ = scipy.integrate.quad(
            lambda t: 0.5 * (1.0 + t) ** -0.7, 0.0, x)
        assert np.isclose(tm(x), want, rtol=1e-10)


# ----------------------------------------------------------------------
# drift criterion and integrated tail
# ----------------------------------------------------------------------


def test_criterion_constant_default_closed_form(default_model):
    K, finite = criterion_K(default_model)
    assert finite
    assert np.isclose(K, 1.25, rtol=1e-6)


def test_criterion_constant_scipy_oracle(default_model):
    # independent route: t/m(t) = sqrt(1+t)+1 plus the 1/t cancellation
    def integrand(t):
        m = math.sqrt(1.0 + t) - 1.0
        return (t / m) * 0.5 * 1.5 * (1.0 + t) ** -2.5

    want, err = scipy.integrate.quad(integrand, 1e-12, np.inf, limit=200)
    K, _ = criterion_K(default_model)
    assert np.isclose(K, want, rtol=1e-7), (K, want, err)


def test_criterion_constant_second_model_scipy_oracle():
    model = spec_to_model(
        "mix(0.5: pareto(alpha=2, kappa=1), 0.5: neg(pareto(alpha=0.7, kappa=1)))")
    K, finite = criterion_K(model)
    assert finite

    def integrand(t):
        m = (0.5 / 0.3) * ((1.0 + t) ** 0.3 - 1.0)
        return (t / m) * 0.5 * 2.0 * (1.0 + t) ** -3.0

    want, err = scipy.integrate.quad(integrand, 1e-12, np.inf, limit=200)
    assert np.isclose(K, want, rtol=1e-7), (K, want, err)


def test_criterion_divergence_returns_partial_sum(k_divergent_model):
    K, finite = criterion_K(k_divergent_model)
    assert not finite
    assert K > 0.0


def test_criterion_needs_infinite_negative_mean(light_model):
    with pytest.raises(PreconditionError):
        criterion_K(light_model)


def test_integrated_tail_is_one_at_zero(default_model, case_b_model):
    for model in (default_model, case_b_model):
        K, finite = criterion_K(model)
        assert finite
        assert abs(integrated_tail(model, K, 0.0) - 1.0) <= 1e-9


def test_integrated_tail_scipy_oracle(default_model):
    K, _ = criterion_K(default_model)

    def integrand(s, x):
        return 0.75 * (math.sqrt(1.0 + s) + 1.0) * (1.0 + s + x) ** -2.5

    for x in (2.0, 10.0, 200.0):
        want, err = scipy.integrate.quad(integrand, 0.0, np.inf, args=(x,),
                                         limit=200)
        got = integrated_tail(default_model, K, x)
        assert np.isclose(got, want / K, rtol=1e-8), (x, got, want / K, err)


@pytest.mark.parametrize("spec", [
    DEFAULT_MODEL, CASE_B,
    "mix(0.4: pareto(alpha=1.5, kappa=1), 0.3: neg(point(2.3)), "
    "0.3: neg(pareto(alpha=0.5, kappa=1)))",
], ids=["default", "case_b", "negative_atom"])
def test_integrated_tail_curve_cross_checks_pointwise(spec):
    # route A on shared cells against pointwise route B, both under the
    # ratio measure; case_b's slow tail reaches far past x = 1e5, and
    # the negative atom puts a kink into t/m(t) that the cells must cut
    model = spec_to_model(spec)
    K, _ = criterion_K(model)
    xs = np.array([1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    curve = integrated_tail_curve(model, K, xs)
    points = integrated_tail(model, K, xs)
    assert np.allclose(curve, points, rtol=1e-8, atol=0.0)


def test_integrated_tail_curve_refuses_atoms():
    model = spec_to_model("mix(0.5: point(3), 0.5: neg(pareto(alpha=0.5, kappa=1)))")
    with pytest.raises(PreconditionError):
        integrated_tail_curve(model, 1.0, np.array([1.0, 2.0]))


def test_integrated_tail_rejects_divergent_constant(default_model):
    with pytest.raises(PreconditionError):
        integrated_tail(default_model, float("inf"), 1.0)


# ----------------------------------------------------------------------
# renewal measures and dual-route integrated tails
# ----------------------------------------------------------------------


def test_linear_weight_has_closed_form():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    a, b = renewal_integrated_tail_forms(model, RenewalMeasure.lebesgue(), 8.0)
    want = 2.0 / 3.0  # integral of (1+u)^-1.5 over [8, inf)
    assert np.isclose(a, want, rtol=1e-9)
    assert np.isclose(b, want, rtol=1e-9)


def test_dual_routes_agree_for_scaled_weight(default_model):
    tm = truncated_neg_mean(default_model)
    H = RenewalMeasure.from_ratio(tm)
    for x in (1.0, 20.0, 500.0):
        a, b = renewal_integrated_tail_forms(default_model, H, x)
        assert np.isclose(a, b, rtol=1e-8)


def test_scaled_weight_reproduces_integrated_tail(default_model):
    K, _ = criterion_K(default_model)
    tm = truncated_neg_mean(default_model)
    H = RenewalMeasure.from_ratio(tm)
    for x in (5.0, 50.0):
        a, _ = renewal_integrated_tail_forms(default_model, H, x)
        assert np.isclose(a / K, integrated_tail(default_model, K, x), rtol=1e-7)


def test_measure_tail_clips_at_one():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    assert renewal_integrated_tail(model, RenewalMeasure.lebesgue(), 0.0) == 1.0


def test_zero_measure_gives_zero_tail(default_model):
    a, b = renewal_integrated_tail_forms(default_model, RenewalMeasure.zero(), 3.0)
    assert a == 0.0
    assert abs(b) < 1e-14


def test_interpolated_measure_passes_through_probes():
    H = RenewalMeasure.from_points([1.0, 10.0, 100.0], [2.0, 5.0, 11.0])
    assert np.allclose(H(np.array([1.0, 10.0, 100.0])), [2.0, 5.0, 11.0])
    assert H(0.0) == pytest.approx(1.0)  # the unit renewal atom at 0
    assert H(-3.0) == 0.0
    # power-law continuation beyond the last probe keeps growing
    assert H(1000.0) > 11.0


def _measure(kind, model):
    if kind == "lebesgue":
        return RenewalMeasure.lebesgue()
    if kind == "ratio":
        return RenewalMeasure.from_ratio(truncated_neg_mean(model))
    ren = renewal_estimate(model, PROBES_DEFAULT, reps=500, seed=17)
    return RenewalMeasure.from_points(ren.xs, ren.h_values)


@pytest.mark.parametrize("kind", ["lebesgue", "ratio", "from_points"])
def test_measure_tail_curve_matches_pointwise_route_a(default_model, kind):
    H = _measure(kind, default_model)
    xs = geometric_knots(1e5, 8)
    curve = renewal_integrated_tail_curve(default_model, H, xs)
    route_a = np.array([renewal_integrated_tail_forms(default_model, H, x)[0]
                        for x in xs])
    assert np.allclose(curve, route_a, rtol=1e-7, atol=0.0)


def test_measure_tail_curve_has_the_closed_form():
    # 2/3 = integral of (1+u)^-1.5 over [8, inf); the part beyond the
    # last cell (about 1e-6 of it) comes from the geometric remainder
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    got = renewal_integrated_tail_curve(model, RenewalMeasure.lebesgue(), [8.0])
    assert np.isclose(got[0], 2.0 / 3.0, rtol=1e-8, atol=0.0)


def test_measure_tail_curve_on_a_kinked_model_with_an_atom():
    # F-bar has an atom at 3 and a kink at 2; route B sums the atom
    # exactly and route A cuts its panels where they land, so the two
    # pointwise routes agree and route B is the curve's reference
    model = spec_to_model("mix(0.3: point(3), 0.4: shift(2, pareto(alpha=1.5, kappa=1)), "
                          "0.3: neg(pareto(alpha=0.5, kappa=1)))")
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    xs = np.linspace(0.2, 5.0, 25)
    forms = np.array([renewal_integrated_tail_forms(model, H, x) for x in xs])
    curve = renewal_integrated_tail_curve(model, H, xs)
    curve_gap = np.max(np.abs(curve - forms[:, 1]) / forms[:, 1])
    pointwise_gap = np.max(np.abs(forms[:, 0] - forms[:, 1]) / forms[:, 1])
    assert pointwise_gap < 1e-10
    assert curve_gap < 1e-5


def test_route_a_cuts_panels_at_the_shifted_atom():
    # at x = 2.9 the jump of F-bar(t + x) from the atom at 3 sits at
    # t = 0.1, inside a route-A panel unless that panel is cut there
    model = spec_to_model("mix(0.3: point(3), 0.4: shift(2, pareto(alpha=1.5, kappa=1)), "
                          "0.3: neg(pareto(alpha=0.5, kappa=1)))")
    got = renewal_integrated_tail(model, RenewalMeasure.lebesgue(), 2.9)
    assert np.isclose(got, 0.6103810000880, rtol=1e-10, atol=0.0)


def test_measure_tail_curve_refuses_a_divergent_integral():
    # F-bar(t) ~ t^-0.5 against Lebesgue measure: no finite value
    model = spec_to_model("pareto(alpha=0.5, kappa=1)")
    with pytest.raises(PreconditionError):
        renewal_integrated_tail_curve(model, RenewalMeasure.lebesgue(), [1.0, 10.0])


def test_subadditivity_probe(default_model):
    tm = truncated_neg_mean(default_model)
    H = RenewalMeasure.from_ratio(tm)
    rng = np.random.default_rng(5)
    pairs = (rng.uniform(0.0, 1e3, 300), rng.uniform(0.0, 1e3, 300))
    assert H.check_subadditive(pairs)


# ----------------------------------------------------------------------
# scalar functionals
# ----------------------------------------------------------------------


def test_positive_part_mean_closed_forms(default_model):
    assert np.isclose(mu_plus(spec_to_model("pareto(alpha=2, kappa=1)")), 1.0,
                      rtol=1e-8)
    assert np.isclose(mu_plus(spec_to_model("pareto(alpha=1.5, kappa=1)")), 2.0,
                      rtol=1e-8)
    assert np.isclose(mu_plus(spec_to_model("exponential(rate=2)")), 0.5,
                      rtol=1e-8)
    assert np.isclose(mu_plus(default_model), 1.0, rtol=1e-8)


def test_positive_part_mean_divergence():
    with pytest.raises(DivergenceError):
        mu_plus(spec_to_model("pareto(alpha=1, kappa=1)"))


def test_symmetric_self_convolution_integral():
    model = spec_to_model("exponential(rate=1)")
    # integral of exp(-(x-y)) exp(-y) over [0, x] equals x exp(-x)
    for x in (1.0, 5.0, 12.0):
        assert np.isclose(sstar_integral(model, x), x * math.exp(-x), rtol=1e-10)
    assert sstar_integral(model, 0.0) == 0.0


def test_symmetric_integral_approaches_twice_the_mean():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    x = 1e4
    ratio = sstar_integral(model, x) / float(model.tail_pos(x))
    assert np.isclose(ratio, 4.0, rtol=0.05)


# ----------------------------------------------------------------------
# grid distributions
# ----------------------------------------------------------------------


def test_knot_ladder_spans_the_requested_range():
    knots = geometric_knots(1e4, ppd=8, x_min=1e-2)
    assert knots[0] == 0.0
    assert knots[1] == 1e-2
    assert knots[-1] == 1e4
    assert np.all(np.diff(knots) > 0)


def test_grid_interpolation_error_is_small():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    grid = GridDistribution.from_model(model)
    rng = np.random.default_rng(3)
    # stay where the tail dominates the unresolved horizon lump
    xs = rng.uniform(0.5, 2e4, 500)
    exact = (1.0 + xs) ** -1.5
    rel = np.abs(grid.tail(xs) - exact) / exact
    assert float(rel.max()) < 5e-5


def test_particle_masses_conserve_total():
    model = spec_to_model("mix(0.5: pareto(alpha=2, kappa=1), 0.5: point(3))")
    grid = GridDistribution.from_model(model)
    locs, masses = grid.particles(refine=6)
    assert np.isclose(masses.sum() + grid.mass_beyond, grid.total_mass,
                      atol=1e-12)
    assert np.any(locs == 3.0)


def test_grid_from_model_puts_an_atom_beyond_the_horizon_in_mass_beyond():
    model = spec_to_model("mix(0.5: pareto(alpha=2, kappa=1), 0.5: point(3))")
    grid = GridDistribution.from_model(model, x_max=2.0)
    assert grid.atom_locs.size == 0
    assert grid.mass_beyond == pytest.approx(0.5 + 0.5 * 3.0 ** -2, rel=1e-12)
    assert grid.total_mass == pytest.approx(1.0, abs=1e-12)
    ys = np.linspace(0.0, 1.99, 200)
    exact = np.asarray(model.tail_pos(ys))
    # the power-law cells next to a horizon where the continuous tail
    # is cut to 0 interpolate to about 4e-4 relative
    assert np.max(np.abs(grid.tail(ys) - exact) / exact) < 1e-3
    # the same grid as the atom-free part, plus the atom's mass
    free = GridDistribution.from_tail(lambda t: 0.5 * (1.0 + np.asarray(t)) ** -2.0,
                                      x_max=2.0)
    assert np.allclose(grid.tail(ys), free.tail(ys) + 0.5, rtol=0.0, atol=1e-12)


def _sorted_particles(locs, masses):
    order = np.lexsort((masses, locs))
    return locs[order], masses[order]


@pytest.mark.parametrize("lo,hi", [(3.0, 7.5), (1.3, 3.0), (1.3, 7.5)],
                         ids=["atom-at-lo", "atom-at-hi", "atom-inside"])
@pytest.mark.parametrize("closed_lo", [True, False])
def test_sub_range_particles_carry_the_range_mass(lo, hi, closed_lo):
    model = spec_to_model("mix(0.5: pareto(alpha=2, kappa=1), 0.5: point(3))")
    grid = GridDistribution.from_model(model, x_max=1e4, ppd=16)
    locs, masses = grid.particles(refine=4, lo=lo, hi=hi, closed_lo=closed_lo)
    atom_in = (lo < 3.0 <= hi) or (closed_lo and lo == 3.0)
    want = grid.tail(lo) - grid.tail(hi) + (0.5 if closed_lo and lo == 3.0 else 0.0)
    assert masses.sum() == pytest.approx(want, rel=1e-12)
    assert np.all((locs >= lo) & (locs <= hi))
    # with_atoms=False drops exactly the atom, and nothing else
    c_locs, c_masses = grid.particles(refine=4, lo=lo, hi=hi,
                                      closed_lo=closed_lo, with_atoms=False)
    if atom_in:
        c_locs = np.append(c_locs, 3.0)
        c_masses = np.append(c_masses, 0.5)
    for got, exp in zip(_sorted_particles(locs, masses),
                        _sorted_particles(c_locs, c_masses)):
        assert np.array_equal(got, exp)


def test_sample_grid_matches_empirical_frequencies():
    values = np.array([0.0, 0.0, 1.0, 3.0, 3.0, 10.0])
    grid = GridDistribution.from_samples(values, x_max=100.0)
    # sample jumps are resolved at knot resolution, so probe between them
    assert grid.tail(0.5) == pytest.approx(4.0 / 6.0)
    assert grid.tail(0.0) == pytest.approx(4.0 / 6.0)
    assert grid.tail(3.5) == pytest.approx(1.0 / 6.0)
    assert grid.tail(9.5) == pytest.approx(1.0 / 6.0)
    assert grid.tail(11.0) == 0.0
    assert grid.total_mass == pytest.approx(1.0)
    assert grid.atom_masses.sum() == pytest.approx(2.0 / 6.0)


def test_degenerate_convolution_is_exact():
    g = GridDistribution.from_point(1.5).convolve(GridDistribution.from_point(2.5))
    assert list(g.atom_locs) == [4.0]
    assert list(g.atom_masses) == [1.0]
    assert g.mass_beyond == 0.0


def test_identity_is_convolution_neutral():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    grid = GridDistribution.from_model(model, x_max=1e4, ppd=32)
    same = grid.convolve(GridDistribution.identity())
    xs = np.array([0.7, 13.0, 900.0])
    assert np.allclose(same.tail(xs), grid.tail(xs), rtol=1e-9)


def test_point_mass_power_is_a_point_mass():
    cubed = GridDistribution.from_point(0.25).power(3)
    assert list(cubed.atom_locs) == [0.75]
    assert cubed.atom_masses[0] == pytest.approx(1.0, abs=1e-15)


def test_self_convolution_tail_of_exponential_grid():
    model = spec_to_model("exponential(rate=1)")
    grid = GridDistribution.from_model(model, x_max=200.0)
    # P(X1 + X2 > x) = (1+x) exp(-x)
    for x in (2.0, 10.0):
        want = (1.0 + x) * math.exp(-x)
        assert np.isclose(self_conv_tail(grid, x), want, rtol=2e-3)


def test_conv_tail_excludes_the_head_term():
    model = spec_to_model("exponential(rate=1)")
    grid = GridDistribution.from_model(model, x_max=200.0)
    # integral over [0, 10] of G(du) exp(-(10-u)) = 10 exp(-10)
    assert np.isclose(conv_tail(grid, model, 10.0), 10.0 * math.exp(-10.0),
                      rtol=2e-3)


def test_conv_tail_with_point_mass_is_exact(default_model):
    grid = GridDistribution.from_point(2.0)
    for x in (3.0, 50.0):
        want = float(default_model.tail_pos(x - 2.0))
        assert conv_tail(grid, default_model, x) == pytest.approx(want, rel=1e-14)


def test_horizon_violations_raise():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    short = GridDistribution.from_model(model, x_max=100.0)
    assert short.mass_beyond > 0.0
    with pytest.raises(HorizonError):
        conv_tail(short, model, 200.0)
    # a grid with no unresolved mass may be probed beyond its top knot
    pt = GridDistribution.from_point(0.5)
    assert conv_tail(pt, model, 5.0) == pytest.approx(
        float(model.tail_pos(4.5)), rel=1e-14)


def test_power_respects_the_defect_bound():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    grid = GridDistribution.from_model(model, x_max=1e3)
    with pytest.raises(HorizonError):
        grid.power(3, defect_bound=1e-9)


def test_mixture_grid_merges_atoms():
    a = GridDistribution.from_point(0.3)
    b = GridDistribution.from_point(0.4)
    mixed = GridDistribution.mixture([0.25, 0.75], [a, b])
    assert list(mixed.atom_locs) == [0.3, 0.4]
    assert np.allclose(mixed.atom_masses, [0.25, 0.75])
    assert mixed.total_mass == pytest.approx(1.0)


def test_monotone_input_is_required():
    with pytest.raises(ValueError):
        GridDistribution(knots=np.array([0.0, 1.0, 2.0]),
                         tail_cont=np.array([0.5, 0.8, 0.1]))
