"""Quadrature engines against closed forms and an independent scipy oracle."""

import math

import numpy as np
import pytest
import scipy.integrate

from htwk import _quad
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


# ----------------------------------------------------------------------
# the batched panel rules against their level-by-level references
# ----------------------------------------------------------------------

def _gl_fixed(f, a, b, n):
    """n-node Gauss-Legendre on [a, b], one call of f."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = a + (b - a) * ((x + 1.0) / 2.0)
    return float((b - a) * np.dot(w / 2.0, np.asarray(f(t), dtype=float)))


def _gl_adaptive_reference(f, a, b, depth=30):
    """Bisecting Gauss-Legendre with one f call per node set."""
    if b <= a:
        return 0.0
    coarse = _gl_fixed(f, a, b, 32)
    fine = _gl_fixed(f, a, b, 64)
    if abs(fine - coarse) <= _quad._GL_REL_TOL * abs(fine) or depth <= 0:
        return fine
    mid = 0.5 * (a + b)
    return (_gl_adaptive_reference(f, a, mid, depth - 1)
            + _gl_adaptive_reference(f, mid, b, depth - 1))


def _stieltjes_panel_reference(g, weight, a, b):
    """The midpoint-Richardson panel rule level by level: one call of
    `weight` and one of `g` per level of 16, 32, ... subpanels."""
    if b <= a:
        return 0.0
    rows = []
    n = _quad._STIELTJES_N0
    prev_diag = None
    while True:
        edges = np.linspace(a, b, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dv = np.diff(np.asarray(weight(edges), dtype=float))
        m = float(np.dot(np.asarray(g(mids), dtype=float), dv))
        row = [m]
        for j, below in enumerate(rows[-1] if rows else []):
            factor = 4.0 ** (j + 1)
            row.append((factor * row[j] - below) / (factor - 1.0))
        rows.append(row)
        diag = row[-1]
        if prev_diag is not None:
            if abs(diag - prev_diag) <= _quad._STIELTJES_REL_TOL * abs(diag) + 1e-300:
                return diag
        prev_diag = diag
        if n >= _quad._STIELTJES_N_MAX:
            return diag
        n *= 2


def _counted(fn, counts, key):
    def wrapped(t):
        counts[key] += 1
        return fn(t)
    return wrapped


def _exp_decay(t):
    return np.exp(-np.asarray(t, dtype=float))


# (g, weight, a, b, calls of g and of weight): a smooth power-law weight
# converges at 256 subpanels, the last level of the first batch; a kink
# of order 2.5 at 0.3 needs 1024; a jump at 0.3 runs to the 8192 cap; on
# a panel 2e-320 wide the subpanel width underflows to 0 from 8192 on,
# where np.linspace takes its other branch
PANEL_CASES = {
    "smooth_power_law": (lambda t: np.asarray(t, dtype=float),
                         lambda t: -(1.0 + np.asarray(t, dtype=float)) ** -1.5,
                         0.0, 1.0, 1),
    "kink_past_256": (_exp_decay,
                      lambda t: t + np.maximum(np.asarray(t) - 0.3, 0.0) ** 2.5,
                      0.0, 1.0, 2),
    "jump_to_cap": (_exp_decay, lambda t: t + (np.asarray(t) > 0.3),
                    0.0, 1.0, 2),
    "zero_integrand": (lambda t: np.zeros(np.shape(t)), lambda t: np.sqrt(t),
                       0.0, 2.0, 1),
    "subnormal_width": (lambda t: np.sqrt(np.asarray(t) / 2e-320),
                        lambda t: np.asarray(t) * 1e300, 0.0, 2e-320, 2),
    "empty_panel": (_exp_decay, lambda t: t, 1.5, 1.5, 0),
    "reversed_panel": (_exp_decay, lambda t: t, 2.0, 1.0, 0),
}


def _one_piece(g, weight, a, b):
    """`_stieltjes_pieces` on the one piece (a, b]."""
    return _quad._stieltjes_pieces(lambda t, _: g(t.ravel()), weight, [a], [b])[0]


def _stieltjes_pieces_reference(g, weight, a, b):
    """`_stieltjes_pieces` piece by piece, each level by level."""
    return [_stieltjes_panel_reference(lambda t: np.asarray(g(t[None, :], np.array([i])),
                                                            dtype=float).ravel(),
                                       weight, ai, bi)
            for i, (ai, bi) in enumerate(zip(a, b))]


def _recorded_blocks(monkeypatch):
    """Record the rows and the layout of every `_stieltjes_block` call."""
    calls = []
    block = _quad._stieltjes_block

    def recording(g, weight, a, b, rows, layout, tables):
        calls.append((rows.tolist(), layout))
        return block(g, weight, a, b, rows, layout, tables)

    monkeypatch.setattr(_quad, "_stieltjes_block", recording)
    return calls


@pytest.mark.parametrize("case", PANEL_CASES)
def test_one_stieltjes_piece_equals_level_by_level(case):
    g, weight, a, b, _ = PANEL_CASES[case]
    assert _one_piece(g, weight, a, b) == _stieltjes_panel_reference(g, weight, a, b)


@pytest.mark.parametrize("case", PANEL_CASES)
def test_one_stieltjes_piece_calls_g_and_weight_once_per_batch(case):
    g, weight, a, b, calls = PANEL_CASES[case]
    counts = {"g": 0, "weight": 0}
    _one_piece(_counted(g, counts, "g"), _counted(weight, counts, "weight"), a, b)
    assert counts == {"g": calls, "weight": calls}


def test_stieltjes_pieces_in_one_call_equal_level_by_level(monkeypatch):
    # every case as one piece of a single call; each block's weight call
    # evaluates each row with the weight of the case that owns it
    cases = list(PANEL_CASES.values())
    blocks = _recorded_blocks(monkeypatch)

    def weight(t):
        rows = blocks[-1][0]
        return np.concatenate([np.asarray(cases[r][1](edges), dtype=float)
                               for r, edges in zip(rows, t.reshape(len(rows), -1))])

    def g(t, rows):
        return np.concatenate([np.asarray(cases[r][0](mids), dtype=float)
                               for r, mids in zip(rows.tolist(), t)])

    got = _quad._stieltjes_pieces(g, weight, [c[2] for c in cases], [c[3] for c in cases])
    assert got == [_stieltjes_panel_reference(*c[:4]) for c in cases]


def test_pieces_reaching_8192_subpanels_share_one_layout(monkeypatch):
    blocks = _recorded_blocks(monkeypatch)
    g, weight, a, b, _ = PANEL_CASES["jump_to_cap"]
    _one_piece(g, weight, a, b)
    _one_piece(g, weight, a, b)
    layouts = [layout for _, layout in blocks]
    assert len(layouts) == 4 and layouts[1][0][-1] == _quad._STIELTJES_N_MAX
    assert layouts[2] is layouts[0] and layouts[3] is layouts[1]


def test_stieltjes_drivers_equal_level_by_level_panels(monkeypatch):
    def g(t):
        return np.log1p(np.asarray(t, dtype=float))

    def tail(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (1.0 + t) ** -1.5 + 0.5 * (t < 2.5)

    def run():
        return (stieltjes_vs_tail(g, tail, atoms=(np.array([2.5]), np.array([0.5])),
                                  breakpoints=(0.7,)),
                stieltjes_vs_monotone(_exp_decay, lambda t: np.sqrt(t)))

    got = run()
    monkeypatch.setattr(_quad, "_stieltjes_pieces", _stieltjes_pieces_reference)
    assert got == run()


@pytest.mark.parametrize("f, a, b", [
    (lambda x: np.exp(-x) * (2.0 + np.sin(3.0 * x)), 0.0, 7.0),
    (lambda x: np.abs(np.asarray(x) - 1.0 / 3.0), 0.0, 1.0),
    (lambda x: (1.0 + np.asarray(x)) ** -2.5, 1.0, 1e3),
    (np.exp, 2.0, 2.0),
], ids=["smooth", "kink", "power", "empty"])
def test_gl_adaptive_equals_two_fixed_rules(f, a, b):
    assert gl_adaptive(f, a, b) == _gl_adaptive_reference(f, a, b)


def test_gl_adaptive_calls_f_once_per_piece():
    calls = {"f": 0}
    gl_adaptive(_counted(np.exp, calls, "f"), 0.0, 1.0)
    assert calls == {"f": 1}
