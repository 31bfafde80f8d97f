"""Quadrature engines against closed forms and an independent scipy oracle."""

import math

import numpy as np
import scipy.integrate

from htwk._quad import (
    geometric_tail,
    gl_adaptive,
    gl_panels,
    improper_gl,
    merge_breakpoints,
    stieltjes_vs_monotone,
    stieltjes_vs_tail,
)


def test_adaptive_panels_match_scipy():
    def f(x):
        return np.exp(-x) * (2.0 + np.sin(3.0 * x))

    want, err = scipy.integrate.quad(
        lambda x: math.exp(-x) * (2.0 + math.sin(3.0 * x)), 0.0, 7.0)
    got = gl_adaptive(f, 0.0, 7.0)
    assert np.isclose(got, want, rtol=1e-10), (got, want, err)


def test_adaptive_empty_interval_is_zero():
    assert gl_adaptive(np.exp, 2.0, 2.0) == 0.0


def test_merge_breakpoints_keeps_interior_points_only():
    edges = merge_breakpoints(0.0, 10.0, [3.0, 5.0, 12.0, -1.0])
    assert list(edges) == [0.0, 3.0, 5.0, 10.0]


def test_panels_handle_a_kink_exactly():
    # |x - 1| over [0, 2] integrates to 1; the kink sits on a panel edge
    def f(x):
        return np.abs(np.asarray(x) - 1.0)

    edges = merge_breakpoints(0.0, 2.0, [1.0])
    assert np.isclose(gl_panels(f, edges), 1.0, rtol=1e-13)


def test_improper_exponential_tail():
    res = improper_gl(lambda x: np.exp(-x))
    assert res.converged
    assert np.isclose(res.value, 1.0, rtol=1e-10)


def test_improper_power_tail():
    res = improper_gl(lambda x: (1.0 + np.asarray(x)) ** -2.5)
    assert res.converged
    assert np.isclose(res.value, 1.0 / 1.5, rtol=1e-9)


def test_improper_respects_breakpoints():
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 2.0, np.exp(-x), 0.0)

    res = improper_gl(f, breakpoints=(2.0,))
    assert res.converged
    assert np.isclose(res.value, 1.0 - math.exp(-2.0), rtol=1e-10)


def test_geometric_tail_needs_two_shrinking_positive_panels():
    got = geometric_tail([1.0, 1.0, 1.0, 0.0, 2.0], [0.5, 0.96, 0.0, 1.0, -1.0])
    assert got.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0]


def test_improper_flags_harmonic_divergence():
    res = improper_gl(lambda x: 1.0 / (1.0 + np.asarray(x)))
    assert not res.converged


def test_stieltjes_tail_mean_of_power_law():
    # tail (1+t)^-2 has unit mean: integral of the tail itself
    res = stieltjes_vs_tail(lambda t: np.asarray(t, dtype=float),
                            lambda t: (1.0 + np.asarray(t)) ** -2.0)
    assert res.converged
    assert np.isclose(res.value, 1.0, rtol=1e-8)


def test_stieltjes_tail_with_embedded_atom():
    # half an exponential plus half a point mass at 2: mean 0.5 + 1.0
    def tail(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * np.exp(-t) + 0.5 * (t < 2.0)

    res = stieltjes_vs_tail(lambda t: np.asarray(t, dtype=float), tail,
                            atoms=(np.array([2.0]), np.array([0.5])))
    assert res.converged
    assert np.isclose(res.value, 1.5, rtol=1e-8)


def test_stieltjes_tail_matches_scipy_on_a_weibull_weight():
    def g(t):
        return np.log1p(np.asarray(t, dtype=float))

    def tail(t):
        return np.exp(-np.asarray(t, dtype=float) ** 1.2)

    def density(t):
        return 1.2 * t ** 0.2 * math.exp(-t ** 1.2)

    want, err = scipy.integrate.quad(lambda t: math.log1p(t) * density(t),
                                     0.0, np.inf)
    res = stieltjes_vs_tail(g, tail)
    assert res.converged
    assert np.isclose(res.value, want, rtol=1e-7), (res.value, want, err)


def test_stieltjes_tail_flags_divergent_moment():
    # integrand grows like t^0.5 in the tail measure: no finite value
    res = stieltjes_vs_tail(lambda t: np.asarray(t, dtype=float),
                            lambda t: (1.0 + np.asarray(t)) ** -0.5)
    assert not res.converged


def test_stieltjes_monotone_square_root_weight():
    # weight slope blows up at 0, which caps midpoint accuracy there
    res = stieltjes_vs_monotone(lambda t: np.exp(-np.asarray(t, dtype=float)),
                                lambda t: np.sqrt(np.asarray(t, dtype=float)))
    assert res.converged
    assert np.isclose(res.value, math.sqrt(math.pi) / 2.0, rtol=1e-6)


def test_stieltjes_monotone_smooth_weight():
    import scipy.special

    def h(t):
        t = np.asarray(t, dtype=float)
        return t - np.log1p(t)

    res = stieltjes_vs_monotone(lambda t: np.exp(-np.asarray(t, dtype=float)), h)
    want = 1.0 - math.e * scipy.special.exp1(1.0)
    assert res.converged
    assert np.isclose(res.value, want, rtol=1e-9)
