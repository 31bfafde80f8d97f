"""Tail calculus against closed forms and scipy quadrature oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from htwk import spec_to_model, tailmath
from htwk.classlab import PROBES_DEFAULT
from htwk.cli import parse_probes
from htwk.errors import DivergenceError, HorizonError, PreconditionError
from htwk.tailmath import (
    GridDistribution,
    PointMass,
    RenewalMeasure,
    Shift,
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
from htwk.walksim import renewal_estimate
from pinned_models import CASE_B, DEFAULT_MODEL, K_DIVERGENT, LIGHT_CONTROL

# ----------------------------------------------------------------------
# laws
# ----------------------------------------------------------------------


def test_default_mixture_tails_are_closed_form(default_model):
    # positive arm 0.5 * (1+x)^-1.5, negative arm 0.5 * (1+y)^-0.5
    assert default_model.tail_pos(3.0) == pytest.approx(0.0625, abs=1e-15)
    assert default_model.law.cdf_strict(-3.0) == pytest.approx(0.25, abs=1e-15)
    assert default_model.tail_pos(0.0) == 0.5
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


def test_a_law_states_its_own_strict_cdf():
    # 1 - sf(t) is P(X <= t), not P(X < t), where the law has an atom at
    # t; a law that states only its sf gets no strict cdf from the base
    class PointAtZero(tailmath.Law):
        def sf(self, t):
            return np.where(np.asarray(t) < 0.0, 1.0, 0.0)

    with pytest.raises(NotImplementedError):
        PointAtZero().cdf_strict(0.0)


def test_shift_moves_the_tail():
    model = spec_to_model("shift(-2, exponential(rate=1))")
    assert model.tail_pos(1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)
    assert model.law.cdf_strict(-1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_light_control_mean_is_negative(light_model):
    # 0.5 * 1 - 0.5 * 2 = -0.5; both truncated means are finite
    assert not light_model.infinite_neg_mean


# (infinite negative mean, finite positive mean, mass below 0), each read
# from the law's closed-form integrals and its cdf; alpha = 1 is the
# boundary where a Pareto mean first diverges
MEAN_FINITENESS = {
    "pareto(alpha=1, kappa=2)": (False, False, False),
    "neg(pareto(alpha=1, kappa=1))": (True, True, True),
    "point(-1.5)": (False, True, True),
    "neg(lognormal(mu=0, sigma=2))": (False, True, True),
    "neg(weibull(shape=0.3))": (False, True, True),
    "shift(3, neg(pareto(alpha=0.5, kappa=1)))": (True, True, True),
    DEFAULT_MODEL: (True, True, True),
    LIGHT_CONTROL: (False, True, True),
    K_DIVERGENT: (True, False, True),
    CASE_B: (True, False, True),
}


@pytest.mark.parametrize("spec", MEAN_FINITENESS)
def test_mean_finiteness_and_negative_mass_come_from_the_law(spec):
    model = spec_to_model(spec)
    got = (model.infinite_neg_mean,
           math.isfinite(model.law.sf_integral(0.0, math.inf)),
           model.has_negative_part)
    assert got == MEAN_FINITENESS[spec]


# every law, and where scipy's quad must cut its panels: its kinks, which
# are 0 for every half-line leaf and the atom of a point mass, moved by
# neg and shift
LAW_BREAKS = {
    "pareto(alpha=0.5, kappa=2)": (0.0,),
    "pareto(alpha=1, kappa=2)": (0.0,),
    "pareto(alpha=2.5, kappa=0.5)": (0.0,),
    "exponential(rate=0.7)": (0.0,),
    "weibull(shape=0.6, scale=2)": (0.0,),
    "weibull(shape=2.5, scale=1.5)": (0.0,),
    "lognormal(mu=0.3, sigma=1.2)": (0.0,),
    "point(1.5)": (1.5,),
    "neg(pareto(alpha=1.5, kappa=1))": (0.0,),
    "shift(-2, exponential(rate=1))": (-2.0,),
    "mix(0.3: pareto(alpha=1.5, kappa=1), 0.2: point(-1), "
    "0.5: neg(weibull(shape=0.5)))": (-1.0, 0.0),
}
# below 0, across 0 and the atom at -1, above 0 and across the atom at 1.5,
# and near 0, where P(X < t) is small on the whole interval
INTERVALS = [(-3.0, -1.0), (-1.5, 2.5), (-2.5, 0.5), (0.5, 7.0), (1.2, 1.8),
             (0.0, 40.0), (1e-4, 1e-3)]


def _quad_oracle(fn, a, b, breaks):
    pts = [p for p in breaks if a < p < b]
    val, _ = scipy.integrate.quad(lambda t: float(fn(t)), a, b,
                                  points=pts or None, epsabs=0.0,
                                  epsrel=1e-13, limit=200)
    return val


@pytest.mark.parametrize("spec", LAW_BREAKS)
def test_law_kinks_are_its_cut_set(spec):
    assert sorted(set(spec_to_model(spec).law.kinks())) == list(LAW_BREAKS[spec])


# a shifted arm: its half-line leaf's kink at 0 lands on the shift
SHIFTED_ARM = ("mix(0.5: pareto(alpha=1.5, kappa=1), "
               "0.5: shift(2, neg(pareto(alpha=0.5, kappa=1))))")


@pytest.mark.parametrize("spec, cuts", [
    ("shift(1, mix(0.5: pareto(alpha=1.5, kappa=1), "
     "0.5: neg(pareto(alpha=0.5, kappa=1))))", [1.0]),
    (SHIFTED_ARM, [2.0]),
], ids=["shifted_mixture", "shifted_arm"])
def test_a_shifted_leaf_keeps_its_kink(spec, cuts):
    assert spec_to_model(spec).pos_breakpoints == cuts


@pytest.mark.parametrize("spec", LAW_BREAKS)
def test_law_integrals_match_scipy(spec):
    law = spec_to_model(spec).law
    for a, b in INTERVALS:
        for got, fn in ((law.sf_integral(a, b), law.sf),
                        (law.cdf_integral(a, b), law.cdf_strict)):
            want = _quad_oracle(fn, a, b, LAW_BREAKS[spec])
            assert np.isclose(got, want, rtol=1e-12, atol=0.0), (a, b, got, want)


@pytest.mark.parametrize("spec", LAW_BREAKS)
def test_law_integrals_are_vectorized(spec):
    law = spec_to_model(spec).law
    a, b = np.array(INTERVALS).T
    for integral in (law.sf_integral, law.cdf_integral):
        got = integral(a, b)
        assert got.shape == a.shape
        assert np.allclose(got, [integral(x, y) for x, y in INTERVALS],
                           rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("spec", ["weibull(shape=2.5, scale=1.5)",
                                  "lognormal(mu=0.3, sigma=1.2)"])
@pytest.mark.parametrize("lo, hi", [(1.0, 1.0 + 1e-8), (3.0, 3.0 + 1e-6),
                                    (1.0, 1.001), (1e-3, 1e-3 + 1e-9)])
def test_cdf_integral_keeps_its_digits_on_a_short_interval(spec, lo, hi):
    # the partial mean less lo (F(hi) - F(lo)) lost lo / (hi - lo) of
    # the digits here: 2.3e-8 and 1.2e-8 relative on [1, 1 + 1e-8]
    mpmath = pytest.importorskip("mpmath")
    law = spec_to_model(spec).law
    with mpmath.workdps(40):
        if isinstance(law, tailmath.Weibull):
            cdf = lambda t: -mpmath.expm1(-(t / law.scale) ** law.shape)
        else:
            cdf = lambda t: mpmath.ncdf((mpmath.log(t) - law.mu) / law.sigma)
        want = mpmath.quad(cdf, [mpmath.mpf(lo), mpmath.mpf(hi)])
        got = law.cdf_integral(lo, hi)
        assert float(abs(got - want) / want) <= 1e-13
        assert law.cdf_integral(np.array([lo, 0.0]), np.array([hi, hi]))[0] == got


@pytest.mark.parametrize("spec", [
    "pareto(alpha=1.5, kappa=1)", "pareto(alpha=2.5, kappa=0.5)",
    "exponential(rate=0.7)", "weibull(shape=0.6, scale=2)",
    "lognormal(mu=0.3, sigma=1.2)", "point(1.5)",
    "shift(-2, exponential(rate=1))", DEFAULT_MODEL,
    "mix(0.5: pareto(alpha=1.8, kappa=1), 0.5: neg(pareto(alpha=0.3, kappa=1)))"])
def test_closed_form_positive_mean_matches_quadrature(spec):
    model = spec_to_model(spec)
    assert np.isclose(model.law.sf_integral(0.0, np.inf), mu_plus(model),
                      rtol=1e-8, atol=0.0)


def test_closed_form_positive_mean_diverges_at_alpha_one():
    law = spec_to_model("pareto(alpha=1, kappa=1)").law
    assert law.sf_integral(0.0, np.inf) == np.inf
    assert law.cdf_integral(0.0, np.inf) == np.inf


# law trees for the positive-tail arm rule: every leaf kind, `point`,
# `shift`, `neg` of a law on the half line, and nested `mix`
_HALF_LINE_LAWS = st.one_of(
    st.builds(tailmath.Pareto, alpha=st.floats(0.2, 3.0), kappa=st.floats(0.1, 5.0)),
    st.builds(tailmath.Exponential, rate=st.floats(0.1, 3.0)),
    st.builds(tailmath.Weibull, shape=st.floats(0.3, 3.0), scale=st.floats(0.2, 4.0)),
    st.builds(tailmath.Lognormal, mu=st.floats(-1.0, 1.0), sigma=st.floats(0.2, 2.0)),
    st.builds(tailmath.PointMass, c=st.floats(0.0, 5.0)))


def _mixtures(children):
    def build(arms):
        total = sum(w for w, _ in arms)
        return tailmath.Mixture(tuple(w / total for w, _ in arms),
                                tuple(ch for _, ch in arms))
    return st.lists(st.tuples(st.floats(0.1, 1.0), children),
                    min_size=2, max_size=3).map(build)


_NONNEGATIVE_LAWS = st.recursive(
    _HALF_LINE_LAWS, lambda kids: st.one_of(
        _mixtures(kids), st.builds(tailmath.Shift, c=st.floats(0.0, 3.0), child=kids)),
    max_leaves=3)
_LAW_TREES = st.recursive(
    st.one_of(_HALF_LINE_LAWS, st.builds(tailmath.Neg, child=_NONNEGATIVE_LAWS)),
    lambda kids: st.one_of(
        _mixtures(kids), st.builds(tailmath.Shift, c=st.floats(-6.0, 3.0), child=kids)),
    max_leaves=5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(law=st.one_of(_mixtures(_LAW_TREES), _LAW_TREES),
       xs=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
       below=st.floats(-20.0, -1e-300))
def test_tail_pos_is_the_law_sf_bit_for_bit(law, xs, below):
    # the arms skipped at x >= 0 add an exact +0.0; one x < 0 reads the
    # whole law.  The law's kinks and atoms are probed too
    model = tailmath.IncrementModel(law)
    xs = [*xs, 0.0, *(k for k in law.kinks() if k >= 0.0)]
    for x in (np.array(xs), xs[-1], np.array([*xs, below]), below):
        got, want = model.tail_pos(x), law.sf(x)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_tail_pos_skips_the_arms_without_mass_above_zero(default_model):
    # the negative arm's sf is not called at x >= 0, and is at x < 0
    neg_arm = default_model.law.children[1]
    calls = []

    class Counted(tailmath.Neg):
        def sf(self, t):
            calls.append(np.shape(t))
            return super().sf(t)

    model = tailmath.IncrementModel(tailmath.Mixture(
        default_model.law.weights, (default_model.law.children[0], Counted(neg_arm.child))))
    model.tail_pos(np.array([0.0, 1.0, 1e3]))
    assert calls == [()]  # sf(0.0), once, to find the arms
    model.tail_pos(np.array([-1.0, 1.0]))
    assert calls == [(), (2,)]


ABSTRACT_INTEGRALS = {tailmath.Law.sf_integral, tailmath.Law.cdf_integral,
                      tailmath._HalfLineLaw._tail_integral}


def missing_integrals(cls) -> list[str]:
    """The closed-form integrals that `cls` leaves to an abstract base."""
    return [name for name in ("sf_integral", "cdf_integral", "_tail_integral")
            if getattr(cls, name, None) in ABSTRACT_INTEGRALS]


def test_the_scan_sees_a_law_without_integrals():
    class Bare(tailmath._HalfLineLaw):
        pass

    class Half(tailmath.Law):
        def sf_integral(self, a, b):
            return 0.0

    assert missing_integrals(Bare) == ["_tail_integral"]
    assert missing_integrals(Half) == ["cdf_integral"]


def test_every_law_has_both_closed_form_integrals():
    laws = [c for name, c in vars(tailmath).items()
            if isinstance(c, type) and issubclass(c, tailmath.Law)
            and c is not tailmath.Law and not name.startswith("_")]
    assert {c.__name__ for c in laws} >= {
        "Pareto", "Exponential", "Weibull", "Lognormal", "PointMass", "Neg",
        "Shift", "Mixture"}
    assert {c.__name__: missing_integrals(c) for c in laws} == {
        c.__name__: [] for c in laws}


# ----------------------------------------------------------------------
# truncated mean
# ----------------------------------------------------------------------


def test_truncated_mean_closed_form(default_model):
    tm = truncated_neg_mean(default_model)
    # m(x) = sqrt(1+x) - 1, written without cancellation
    xs = np.array([1e-12, 1e-3, 1.0, 1e6, 1e12])
    want = xs / (np.sqrt(1.0 + xs) + 1.0)
    assert np.allclose(tm(xs), want, rtol=1e-14, atol=0.0)
    assert tm(3.0) == pytest.approx(1.0, rel=1e-14)


def test_truncated_mean_ratio_limits(default_model):
    tm = truncated_neg_mean(default_model)
    assert tm.ratio(0.0) == pytest.approx(2.0, abs=1e-12)
    assert tm.ratio(3.0) == pytest.approx(3.0, rel=1e-10)


# N-bar(y) = 0.5 P(pareto > 2 + y); the shift evaluates m(x) at offsets
# near -2, where an x below about 2.2e-16 rounds away from -2 - x
SHIFTED_NEG = ("mix(0.5: pareto(alpha=1.5, kappa=1), "
               "0.5: shift(2, neg(pareto(alpha=0.5, kappa=1))))")


def test_ratio_meets_its_limit_where_m_is_tiny():
    tm = truncated_neg_mean(spec_to_model(SHIFTED_NEG))
    assert tm(1e-16) > 0.0
    assert tm.ratio(1e-16) == pytest.approx(1.0 / tm.c0, rel=1e-12)
    assert np.allclose(tm.ratio(np.array([0.0, 1e-16])), 1.0 / tm.c0,
                       rtol=1e-12, atol=0.0)
    # m underflows to 0 at the smallest subnormal, where the ratio is its limit
    tm_sub = truncated_neg_mean(spec_to_model("neg(pareto(alpha=0.5, kappa=1))"))
    assert tm_sub(5e-324) == 0.0
    assert tm_sub.ratio(5e-324) == 1.0 / tm_sub.c0
    # where m is positive the ratio is x/m(x)
    assert tm.ratio(1e-3) == 1e-3 / tm(1e-3)


# both arms shifted: m(x) = 0.5 * 2 (sqrt(4 + x) - 2) = x / (sqrt(4 + x) + 2)
SHIFTED_BOTH = ("mix(0.5: shift(2, pareto(alpha=1.5, kappa=1)), "
                "0.5: shift(3, neg(pareto(alpha=0.5, kappa=1))))")


@pytest.mark.parametrize("x", [1e-16, 2.2e-16, 1e-15, 1e-8, 5e-8, 1.0])
def test_a_shifted_arm_keeps_the_length_of_a_short_interval(x):
    # -x - 3 rounds to -3 for x below half an ulp of 3, and loses digits
    # of x above it
    tm = truncated_neg_mean(spec_to_model(SHIFTED_BOTH))
    want = x / (math.sqrt(4.0 + x) + 2.0)
    assert tm(x) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert tm(np.array([x]))[0] == tm(x)


def test_shifted_integrals_keep_the_sliver_beside_an_atom():
    # an atom at 0 shifted from -3: -1e-16 - 3 rounds to the child's atom,
    # so the sliver's integrand is P(X < t) = 0 below 0 and 1 above, and
    # P(X > t) the reverse
    law = Shift(c=3.0, child=PointMass(c=-3.0))
    eps = 1e-16
    assert law.cdf_integral(-eps, 0.0) == 0.0
    assert law.cdf_integral(0.0, eps) == eps
    assert law.sf_integral(-eps, 0.0) == eps
    assert law.sf_integral(0.0, eps) == 0.0
    assert law.cdf_integral(-eps, eps) == eps


def test_ratio_measure_tail_is_continuous_where_m_rounds_to_0():
    model = spec_to_model(SHIFTED_NEG)
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    x = np.nextafter(2.0, 0.0)
    near, below = renewal_integrated_tail(model, H, np.array([x, 2.0 - 1e-9]))
    assert abs(near - below) <= 3e-9
    a, b = renewal_integrated_tail_forms(model, H, x)
    assert np.isclose(a, b, rtol=1e-8)
    assert np.isclose(a, near, rtol=1e-8)


def test_truncated_mean_rejects_a_negative_x(default_model):
    with pytest.raises(PreconditionError, match="x >= 0"):
        truncated_neg_mean(default_model)(np.array([-1.0, 5.0]))


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


NEGATIVE_ATOM = ("mix(0.4: pareto(alpha=1.5, kappa=1), 0.3: neg(point(2.3)), "
                 "0.3: neg(pareto(alpha=0.5, kappa=1)))")


@pytest.mark.parametrize("spec", [DEFAULT_MODEL, CASE_B, NEGATIVE_ATOM, SHIFTED_ARM],
                         ids=["default", "case_b", "negative_atom", "shifted_arm"])
def test_integrated_tail_curve_cross_checks_pointwise(spec):
    # route A on shared cells against pointwise route B, both under the
    # ratio measure; case_b's slow tail reaches far past x = 1e5, the
    # negative atom puts a kink into t/m(t) that the cells must cut, and
    # the shifted arm a kink into F-bar at 2 that every row below it
    # must cut.  No probe lies within 1e-12 of a breakpoint: a shifted
    # law's integrals round a - c there and lose the interval's length
    model = spec_to_model(spec)
    K, _ = criterion_K(model)
    xs = np.array([0.2, 1.0, 1.9, 10.0, 100.0, 1e3, 1e4, 1e5])
    curve = integrated_tail_curve(model, K, xs)
    points = integrated_tail(model, K, xs)
    assert np.allclose(curve, points, rtol=1e-8, atol=0.0)


def test_integrated_tail_curve_handles_a_positive_atom():
    # the atom at 3 jumps F-bar(t + x) at t = 3 - x, where each row's
    # cells are cut; past x = 3 no mass is left
    model = spec_to_model("mix(0.5: point(3), 0.5: neg(pareto(alpha=0.5, kappa=1)))")
    K, _ = criterion_K(model)
    xs = np.array([0.0, 0.5, 1.0, 2.0, 2.9, 3.0, 3.5, 10.0])
    curve = integrated_tail_curve(model, K, xs)
    points = integrated_tail(model, K, xs)
    assert np.allclose(curve, points, rtol=1e-8, atol=0.0)
    assert np.all(curve[xs >= 3.0] == 0.0)


POSITIVE_ATOM = ("mix(0.3: pareto(alpha=1.5, kappa=1), 0.2: point(3), "
                 "0.5: neg(pareto(alpha=0.5, kappa=1)))")
# the analytic workload's tail probes, and x on both sides of the atom
LOCKSTEP_PROBES = np.array([*parse_probes("0:1e4:16"), 2.5, 3.0, 3.5])


def _per_probe_integrated_tail(model, K, xs):
    """`integrated_tail` one `_route_b` call per probe."""
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    return np.array([min(1.0, max(0.0, tailmath._route_b(model, H, x).value / K))
                     for x in xs])


@pytest.mark.parametrize("spec", [DEFAULT_MODEL, CASE_B, POSITIVE_ATOM],
                         ids=["default", "case_b", "positive_atom"])
def test_lockstep_integrated_tail_is_the_per_probe_loop_bit_for_bit(spec):
    model = spec_to_model(spec)
    K, _ = criterion_K(model)
    got = integrated_tail(model, K, LOCKSTEP_PROBES)
    assert got.tobytes() == _per_probe_integrated_tail(model, K, LOCKSTEP_PROBES).tobytes()


# the lockstep holds every probe's driver state and Richardson row at
# once, a few hundred bytes a probe (about 3.6 KiB for the 16 probes)
LOCKSTEP_STATE_PER_PROBE = 1024


def test_lockstep_integrated_tail_peaks_no_higher_than_the_per_probe_loop(default_model):
    # the lockstep's panel batches obey the block rule, so beyond its
    # per-probe state it peaks no higher than one probe at a time (about
    # 2.3 MB, in a second-batch piece); all pieces of a batch at once
    # peak at 16.6 MB
    K, _ = criterion_K(default_model)
    xs = LOCKSTEP_PROBES[:16]
    peaks = []
    for run in (integrated_tail, _per_probe_integrated_tail):
        run(default_model, K, xs)  # fill caches
        tracemalloc.start()
        try:
            run(default_model, K, xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + LOCKSTEP_STATE_PER_PROBE * xs.size


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
    zero = RenewalMeasure(fn=lambda t: np.zeros(np.shape(t)), label="zero")
    a, b = renewal_integrated_tail_forms(default_model, zero, 3.0)
    assert a == 0.0
    assert abs(b) < 1e-14


def test_route_a_reads_the_mass_at_zero_from_the_measure(default_model):
    # H(t) = 1 + t is Lebesgue measure plus a unit atom at 0, so both
    # routes give F-bar(x) + integral of F-bar over (x, infinity)
    unit = RenewalMeasure(fn=lambda t: 1.0 + np.asarray(t, dtype=float), label="unit")
    x = 3.0
    a, b = renewal_integrated_tail_forms(default_model, unit, x)
    # 0.5 (1 + x)^-1.5 + (1 + x)^-0.5
    want = 0.5 * (1.0 + x) ** -1.5 + (1.0 + x) ** -0.5
    assert a == pytest.approx(want, rel=1e-10)
    assert b == pytest.approx(want, rel=1e-10)


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


KINKED_ATOM = ("mix(0.3: point(3), 0.4: shift(2, pareto(alpha=1.5, kappa=1)), "
               "0.3: neg(pareto(alpha=0.5, kappa=1)))")


def test_measure_tail_curve_on_a_kinked_model_with_an_atom():
    # F-bar has an atom at 3 and a kink at 2; route B sums the atom
    # exactly and route A cuts its panels where they land, so the two
    # pointwise routes agree and route B is the curve's reference; the
    # curve cuts each row's cells at 2 - x and 3 - x
    model = spec_to_model(KINKED_ATOM)
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    xs = np.linspace(0.2, 5.0, 25)
    forms = np.array([renewal_integrated_tail_forms(model, H, x) for x in xs])
    curve = renewal_integrated_tail_curve(model, H, xs)
    curve_gap = np.max(np.abs(curve - forms[:, 1]) / forms[:, 1])
    pointwise_gap = np.max(np.abs(forms[:, 0] - forms[:, 1]) / forms[:, 1])
    assert pointwise_gap < 1e-10
    assert curve_gap < 1e-8


@pytest.mark.parametrize("kind", ["lebesgue", "ratio"])
def test_two_route_tail_on_a_kinked_model_with_an_atom(kind):
    model = spec_to_model(KINKED_ATOM)
    H = _measure(kind, model)
    xs = np.linspace(0.2, 5.0, 25)
    forms = np.array([renewal_integrated_tail_forms(model, H, x) for x in xs])
    got = renewal_integrated_tail(model, H, xs)
    for k in (0, 1):
        assert np.allclose(got, np.minimum(1.0, forms[:, k]), rtol=1e-8, atol=0.0)


def test_route_a_cuts_panels_at_the_shifted_atom():
    # at x = 2.9 the jump of F-bar(t + x) from the atom at 3 sits at
    # t = 0.1, inside a route-A panel unless that panel is cut there
    model = spec_to_model(KINKED_ATOM)
    got = renewal_integrated_tail_forms(model, RenewalMeasure.lebesgue(), 2.9)[0]
    assert np.isclose(got, 0.6103810000880, rtol=1e-10, atol=0.0)


def test_route_b_curve_matches_pointwise_route_b(case_b_model):
    # case_b's slow tail under the ratio measure, on the default grid
    # of `htwk tails`
    H = RenewalMeasure.from_ratio(truncated_neg_mean(case_b_model))
    xs = np.array(parse_probes("0:1e4"))
    _, curve = tailmath._measure_tail_curves(case_b_model, H, xs, with_b=True)
    route_b = np.array([renewal_integrated_tail_forms(case_b_model, H, x)[1]
                        for x in xs])
    assert np.allclose(curve, route_b, rtol=1e-8, atol=0.0)


def test_pointwise_route_b_cuts_panels_at_the_shifted_measure_kink():
    # the negative atom at 2.3 kinks t/m(t) there, so H(t - x) kinks at
    # t = x + 2.3, inside a route-B panel unless that panel is cut there
    model = spec_to_model(NEGATIVE_ATOM)
    H = RenewalMeasure.from_ratio(truncated_neg_mean(model))
    xs = np.array(parse_probes("0:1e4:16"))
    route_b = np.array([renewal_integrated_tail_forms(model, H, x)[1] for x in xs])
    assert np.allclose(route_b, tailmath.two_route_curve(model, H, xs),
                       rtol=1e-8, atol=0.0)


def test_two_route_tail_refines_rows_where_the_routes_part():
    # F-bar(t) = 0.5 (1 + t)^-6 turns too fast on the first cells for
    # 64 subcells: there the routes part by more than 1e-8, and the
    # finer subcells bring both to the pointwise value
    model = spec_to_model("mix(0.5: pareto(alpha=6, kappa=1), "
                          "0.5: neg(pareto(alpha=0.5, kappa=1)))")
    H = RenewalMeasure.lebesgue()
    xs = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
    a, b = tailmath._measure_tail_curves(model, H, xs, with_b=True)
    assert np.abs(a[0] - b[0]) > 1e-8 * b[0]
    got = renewal_integrated_tail(model, H, xs)
    forms = np.array([renewal_integrated_tail_forms(model, H, x) for x in xs])
    for k in (0, 1):
        assert np.allclose(got, forms[:, k], rtol=1e-8, atol=0.0)


def test_two_route_tail_names_the_x_where_the_routes_part(default_model, monkeypatch):
    route_b = tailmath._route_b_cells
    monkeypatch.setattr(tailmath, "_route_b_cells",
                        lambda *args: route_b(*args) * (1.0 + 1e-6))
    with pytest.raises(DivergenceError, match=r"disagree at x=20\.0:"):
        renewal_integrated_tail(default_model, RenewalMeasure.lebesgue(), [20.0, 50.0])


def test_measure_tail_curve_refuses_a_divergent_integral():
    # F-bar(t) ~ t^-0.5 against Lebesgue measure: no finite value
    model = spec_to_model("pareto(alpha=0.5, kappa=1)")
    with pytest.raises(PreconditionError):
        renewal_integrated_tail_curve(model, RenewalMeasure.lebesgue(), [1.0, 10.0])


def test_two_route_tail_refuses_a_divergent_integral():
    model = spec_to_model("pareto(alpha=0.5, kappa=1)")
    with pytest.raises(PreconditionError, match="does not decay"):
        renewal_integrated_tail(model, RenewalMeasure.lebesgue(), [1.0, 10.0])


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


@pytest.mark.parametrize("x", [3.0, 5.0, 10.0, 100.0])
def test_symmetric_integral_cuts_at_a_positive_kink(x):
    # F-bar kinks at 2, so the integrand kinks at y = 2 and y = x - 2;
    # the symmetric half takes whichever of them lies below x/2
    model = spec_to_model("mix(0.5: shift(2, pareto(alpha=1.5, kappa=1)), "
                          "0.5: neg(pareto(alpha=0.5, kappa=1)))")
    assert model.pos_breakpoints == [2.0]

    def integrand(y):
        return float(model.tail_pos(x - y)) * float(model.tail_pos(y))

    want, _ = scipy.integrate.quad(integrand, 0.0, x, points=[2.0, x - 2.0],
                                   epsabs=0.0, epsrel=1e-13, limit=200)
    assert sstar_integral(model, x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_symmetric_integral_approaches_twice_the_mean():
    model = spec_to_model("pareto(alpha=1.5, kappa=1)")
    x = 1e4
    ratio = sstar_integral(model, x) / float(model.tail_pos(x))
    assert np.isclose(ratio, 4.0, rtol=0.05)


# ----------------------------------------------------------------------
# grid distributions
# ----------------------------------------------------------------------


def test_knot_ladder_spans_the_requested_range():
    knots = geometric_knots(1e4, ppd=8)
    assert knots[0] == 0.0
    assert knots[1] == 1e-3
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


@pytest.mark.parametrize("hi", [3.0, 7.5, 1.3],
                         ids=["atom-at-hi", "atom-inside", "atom-past-hi"])
def test_sub_range_particles_carry_the_range_mass(hi):
    model = spec_to_model("mix(0.5: pareto(alpha=2, kappa=1), 0.5: point(3))")
    grid = GridDistribution.from_model(model, x_max=1e4)
    locs, masses = grid.particles(refine=4, hi=hi)
    assert masses.sum() == pytest.approx(grid.total_mass - grid.tail(hi), rel=1e-12)
    assert np.all((locs >= 0.0) & (locs <= hi))
    # the atom at 3 is one particle, exactly when it lies in [0, hi]
    atom = (locs == 3.0) & (masses == 0.5)
    assert int(atom.sum()) == (1 if hi >= 3.0 else 0)


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
    grid = GridDistribution.from_model(model, x_max=1e4)
    same = grid.convolve(GridDistribution.from_point(0.0))
    xs = np.array([0.7, 13.0, 900.0])
    assert np.allclose(same.tail(xs), grid.tail(xs), rtol=1e-9)


def test_point_mass_power_is_a_point_mass():
    cubed = GridDistribution.from_point(0.25).powers(3)[3]
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


def test_conv_tails_below_and_at_the_first_particle(integrated_tail_grid, default_model):
    G = integrated_tail_grid
    assert G.atom_locs.size == 0
    # below 0 there is no particle to sum, and X1 + X2 > x whenever both
    # draws exist, which they do with probability total_mass^2
    assert conv_tail(G, default_model, -1.0) == 0.0
    assert self_conv_tail(G, -1.0) == min(1.0, G.total_mass ** 2)
    # at 0 the grid has no particle in [0, 0], which leaves the head term
    assert G.particles(refine=tailmath.PROBE_REFINE, hi=0.0)[0].size == 0
    assert conv_tail(G, default_model, 0.0) == 0.0
    assert self_conv_tail(G, 0.0) == G.tail(0.0)


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
        grid.powers(3)


def _cell_rule(grid: GridDistribution, y):
    """The continuous tail by the cell rule's formulas, one array each."""
    y = np.asarray(y, dtype=float)
    k, t = grid.knots, grid.tail_cont
    idx = np.clip(np.searchsorted(k, y, side="right") - 1, 0, k.size - 2)
    l, r, tl, tr = k[idx], k[idx + 1], t[idx], t[idx + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lin = tl + (tr - tl) * ((y - l) / (r - l))
        pw = tl * np.exp(-grid._cell_beta[idx]
                         * np.log(np.maximum(y, 1e-300) / np.maximum(l, 1e-300)))
    out = np.where(grid._cell_power[idx], pw, lin)
    return np.where(y <= 0.0, t[0], np.where(y >= k[-1], t[-1], out))


@pytest.mark.parametrize("spec,x_max", [
    ("pareto(alpha=1.5, kappa=1)", 1e6), ("exponential(rate=1)", 200.0),
    ("mix(0.3: point(3), 0.7: shift(2, pareto(alpha=1.5, kappa=1)))", 1e4)])
def test_the_in_place_cell_rule_is_its_formulas_bit_for_bit(spec, x_max):
    grid = GridDistribution.from_model(spec_to_model(spec), x_max=x_max)
    rng = np.random.default_rng(3)
    for y in (rng.uniform(-5.0, 1.2 * x_max, 2000),
              10.0 ** rng.uniform(-6.0, 7.0, (9, 40)), grid.knots, 3.7, 0.0,
              np.empty(0)):
        want = _cell_rule(grid, y)
        got = grid._cont_tail(y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the same bits in arrays lent by a caller, the result in row 1
        work = np.empty((4, np.size(y)))
        lent = grid._cont_tail(y, work)
        assert lent.tobytes() == want.tobytes()
        assert np.size(y) == 0 or np.shares_memory(lent, work[1])


@pytest.fixture(scope="module")
def integrated_tail_grid(default_model):
    """The integrated-tail grid that the majorant check convolves."""
    K, _ = criterion_K(default_model)
    return GridDistribution.from_tail(
        lambda t: integrated_tail_curve(default_model, K, t), x_max=1e6)


def _dense_convolve(g: GridDistribution, h: GridDistribution):
    """`convolve`'s continuous tail and mass beyond the horizon, with every
    knot x shift matrix evaluated in one piece by `_cell_rule`."""
    knots = np.union1d(g.knots, h.knots)
    tail_at = np.zeros(knots.size)
    for grid, (shifts, weights) in ((h, g.particles(refine=tailmath.CONV_REFINE)),
                                    (g, (h.atom_locs, h.atom_masses))):
        if shifts.size:
            d = knots[:, None] - shifts[None, :]
            vals = _cell_rule(grid, np.maximum(d, 0.0))
            tail_at += np.where(d < 0, grid.tail_cont[0], vals) @ weights
    beyond = (g.mass_beyond * h.total_mass + h.mass_beyond * g.total_mass
              - g.mass_beyond * h.mass_beyond)
    locs = (g.atom_locs[:, None] + h.atom_locs[None, :]).ravel()
    masses = (g.atom_masses[:, None] * h.atom_masses[None, :]).ravel()
    beyond += float(masses[locs > knots[-1]].sum()) + tail_at[-1]
    return np.minimum.accumulate(np.maximum(tail_at - tail_at[-1], 0.0)), beyond


@pytest.mark.parametrize("which", ["atoms", "integrated-tail"])
def test_convolve_matches_a_dense_one_shot_evaluation(which, integrated_tail_grid):
    if which == "atoms":
        grid = GridDistribution.from_model(
            spec_to_model("mix(0.3: point(3), 0.2: point(0.5), "
                          "0.5: shift(2, pareto(alpha=1.5, kappa=1)))"),
            x_max=1e4)
    else:
        grid = integrated_tail_grid
    got = grid.convolve(grid)
    tail_cont, beyond = _dense_convolve(grid, grid)
    assert np.all(np.abs(got.tail_cont - tail_cont) <= 1e-13 * tail_cont)
    assert got.mass_beyond == pytest.approx(beyond, rel=1e-13, abs=0.0)


def test_curves_do_not_depend_on_the_block_size(default_model, monkeypatch):
    # each row is summed on its own, so the block rule leaves every
    # value bit for bit the same
    K, _ = criterion_K(default_model)
    H = RenewalMeasure.from_ratio(truncated_neg_mean(default_model))
    xs = geometric_knots(1e6)
    curves = []
    for block in (1 << 11, 1 << 17):
        monkeypatch.setattr(tailmath, "_GRID_BLOCK", block)
        curves.append((integrated_tail_curve(default_model, K, xs).tobytes(),
                       renewal_integrated_tail_curve(default_model,
                                                     RenewalMeasure.lebesgue(),
                                                     xs[::8]).tobytes(),
                       renewal_integrated_tail_curve(default_model, H,
                                                     xs[::8]).tobytes()))
    assert curves[0] == curves[1]


# tracemalloc peak of `powers(2)` on the integrated-tail grid when
# `convolve` evaluated each knots x particles matrix in one piece (578 x
# 2308 elements, and about thirty temporaries of that size in the cell
# rule); in row blocks of 2^14 elements it is 1.2 MiB
PARENT_POWERS_PEAK = 140_159_748  # 133.7 MiB


def test_powers_peak_memory_is_bounded_by_the_block(integrated_tail_grid):
    integrated_tail_grid.powers(1)  # fill caches
    tracemalloc.start()
    try:
        integrated_tail_grid.powers(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20 < PARENT_POWERS_PEAK


def test_monotone_input_is_required():
    with pytest.raises(ValueError):
        GridDistribution(knots=np.array([0.0, 1.0, 2.0]),
                         tail_cont=np.array([0.5, 0.8, 0.1]))
