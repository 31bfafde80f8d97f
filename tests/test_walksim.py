"""Simulation layer: kernels, sharding, streams, and the statistics helpers."""

import math
import pickle
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from htwk import spec_to_model, walksim
from htwk.errors import BudgetError, PreconditionError, SpecValidationError
from htwk.serialize import read_cycles, write_cycles
from htwk.tailmath import (Exponential, IncrementModel, Lognormal, Mixture, Neg,
                           Pareto, PointMass, Shift, Weibull)
from htwk.verify import DEFAULT_MODEL, LIGHT_CONTROL
from htwk.walksim import (
    CYCLES,
    LadderBatch,
    RngStream,
    SupBatch,
    _shard_sizes,
    estimate_sup_many,
    ks_threshold,
    ks_two_sample,
    mtau_tail_estimate,
    renewal_estimate,
    sample_ladder_many,
    simulate_cycles,
    wilson_interval,
)


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------

def test_rng_stream_is_deterministic():
    a = RngStream(7, CYCLES, 0).generator().random(8)
    b = RngStream(7, CYCLES, 0).generator().random(8)
    assert np.array_equal(a, b)


def test_rng_stream_keys_are_independent():
    base = RngStream(7, 0, 0).generator().random(8)
    for other in (RngStream(8, 0, 0), RngStream(7, 1, 0), RngStream(7, 0, 1)):
        assert not np.array_equal(base, other.generator().random(8))


# ----------------------------------------------------------------------
# sampler correctness against the analytic law
# ----------------------------------------------------------------------

SAMPLER_SPECS = [
    "mix(0.5: pareto(1.5, 1), 0.5: neg(pareto(0.5, 1)))",
    "shift(-2, exponential(0.7))",
    "weibull(0.6, 2)",
    "neg(lognormal(0.3, 1.1))",
]


@pytest.mark.parametrize("text", SAMPLER_SPECS)
def test_sampler_matches_the_stated_tail(text):
    model = spec_to_model(text)
    gen = RngStream(2024, 9, 0).generator()
    xs = model.sample(gen, 20000)
    res = scipy.stats.kstest(xs, lambda t: 1.0 - model.law.sf(t))
    assert res.pvalue > 1e-3, (text, res.statistic, res.pvalue)


def _reference_draws(law, gen, n):
    """The stream contract spelled out: a mixture spends n choice
    uniforms (`searchsorted` clipped to the last child), then draws each
    child in child order; leaves are out-of-place inverse transforms of
    one uniform each, lognormal exponentiates standard normals, a point
    draws nothing, and neg and shift transform their child's draws."""
    if isinstance(law, Mixture):
        pick = np.minimum(np.searchsorted(np.cumsum(law.weights), gen.random(n),
                                          side="right"), len(law.children) - 1)
        out = np.empty(n)
        for j, child in enumerate(law.children):
            mask = pick == j
            if mask.any():
                out[mask] = _reference_draws(child, gen, int(mask.sum()))
        return out
    if isinstance(law, Neg):
        return -_reference_draws(law.child, gen, n)
    if isinstance(law, Shift):
        return law.c + _reference_draws(law.child, gen, n)
    if isinstance(law, PointMass):
        return np.full(n, law.c)
    if isinstance(law, Lognormal):
        return np.exp(law.mu + law.sigma * gen.standard_normal(n))
    u = gen.random(n)
    if isinstance(law, Pareto):
        return law.kappa * ((1.0 - u) ** (-1.0 / law.alpha) - 1.0)
    if isinstance(law, Exponential):
        return -np.log1p(-u) / law.rate
    if isinstance(law, Weibull):
        return law.scale * (-np.log1p(-u)) ** (1.0 / law.shape)
    raise TypeError(f"no reference sampler for {law!r}")


@pytest.mark.parametrize("text", ["pareto(alpha=1.5, kappa=1)",
                                  "pareto(alpha=0.5, kappa=1)",
                                  "exponential(rate=0.7)", "weibull(shape=2.5)",
                                  "weibull(shape=0.5, scale=3)"])
def test_leaf_quantiles_do_not_depend_on_slice_length_or_offset(text):
    # the scalar tail reads a leaf's quantiles of a whole chunk one by
    # one, where the array path takes them on each step's sub-count
    law = spec_to_model(text).law
    u = RngStream(3, 9, 0).generator().random(39 * 40)
    whole = law._quantile(u.copy())
    for width in range(1, 40):
        parts = [law._quantile(u[i:i + width].copy())
                 for i in range(0, u.size, width)]
        assert np.array_equal(np.concatenate(parts), whole), width


def _plain(state):
    """A bit generator's state with its arrays as lists, comparable by ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# every grammar kind; alpha = 1 and shape 2 and 0.5 put the quantile's
# exponent on numpy's scalar fast paths (-1, 0.5 and 2)
STREAM_SPECS = [
    "pareto(alpha=1, kappa=2)",
    "pareto(alpha=1.5, kappa=1)",
    "exponential(rate=0.7)",
    "weibull(shape=2)",
    "weibull(shape=0.5, scale=3)",
    "lognormal(mu=0.3, sigma=1.1)",
    "point(c=1.5)",
    "neg(pareto(alpha=0.5, kappa=1))",
    "shift(-2, exponential(rate=1))",
    DEFAULT_MODEL,
    "mix(0.2: point(c=0), 0.3: exponential(rate=2), 0.5: neg(pareto(alpha=1, kappa=1)))",
    "mix(0.6: mix(0.5: weibull(shape=2), 0.5: weibull(shape=0.5, scale=3)), "
    "0.4: neg(shift(1, lognormal(mu=0, sigma=1))))",
]


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("text", STREAM_SPECS)
def test_sampler_keeps_the_stream_contract(text, n):
    law = spec_to_model(text).law
    gen, ref = RngStream(11, 9, 0).generator(), RngStream(11, 9, 0).generator()
    for _ in range(2):  # the second call on a law whose caches are set
        assert np.array_equal(law.sample(gen, n), _reference_draws(law, ref, n))
        assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)


# ----------------------------------------------------------------------
# the lockstep stepper against a boolean-mask reference
# ----------------------------------------------------------------------

def _reference_walk(law, gen, n, stop):
    """The lockstep walk spelled out with boolean masks and the reference
    sampler: one draw per live walk and step, in start order; a walk
    leaves at the first step where stop(S, M) holds."""
    S_end, M_end = np.empty(n), np.empty(n)
    T_end = np.empty(n, dtype=np.int64)
    S, Mx, idx = np.zeros(n), np.zeros(n), np.arange(n)
    steps = t = 0
    while idx.size:
        S = S + _reference_draws(law, gen, idx.size)
        steps += idx.size
        t += 1
        Mx = np.maximum(Mx, S)
        done = stop(S, Mx)
        S_end[idx[done]] = S[done]
        M_end[idx[done]] = Mx[done]
        T_end[idx[done]] = t
        S, Mx, idx = S[~done], Mx[~done], idx[~done]
    return S_end, M_end, T_end, steps


def _reference_renewal(law, gen, reps, xs, raw_reps):
    """Renewal epochs with boolean masks: each epoch runs one cycle per
    live replication, and a replication lives while its chi-sum is at
    or below the last probe."""
    xs_arr = np.asarray(xs)
    counts = np.zeros((xs_arr.size, reps), dtype=np.int64)
    cum, idx = np.zeros(reps), np.arange(reps)
    raw, steps = [], 0
    while idx.size:
        S, _, _, used = _reference_walk(law, gen, idx.size, STOP_RULES["cycles"])
        steps += used
        cum = cum + -S
        counts[:, idx] += cum[None, :] <= xs_arr[:, None]
        alive = cum <= xs_arr[-1]
        raw.append(cum[(idx < raw_reps) & alive])
        cum, idx = cum[alive], idx[alive]
    return counts, np.concatenate(raw), min(raw_reps, reps), steps


# the kernels' stop rules, at a barrier of 100
STOP_RULES = {
    "cycles": lambda S, M: S < 0.0,
    "sup": lambda S, M: S <= M - 100.0,
    "ladder": lambda S, M: (S > 0.0) | (S <= -100.0),
}
# n = 1 and 7 walk in the scalar tail only, n = 5000 in lockstep arrays
# first.  STREAM_SPECS[10] has point(c=0); the third spec reaches point,
# shift, weibull, a nested mix and both negative leaves through the
# tail, and the fourth a neg over a mix and two steps over a point; the
# lognormal leaf of the last keeps its walks in arrays.
WALK_SPECS = [
    DEFAULT_MODEL,
    STREAM_SPECS[10],
    "mix(0.3: point(c=0.5), 0.3: shift(0.2, weibull(shape=0.5, scale=1)), "
    "0.4: mix(0.5: neg(pareto(alpha=0.5, kappa=1)), 0.5: neg(exponential(rate=1))))",
    "mix(0.5: shift(-1, neg(mix(0.5: shift(0.5, point(c=1)), "
    "0.5: pareto(alpha=0.5, kappa=1)))), 0.5: exponential(rate=1))",
    "mix(0.5: lognormal(mu=0, sigma=1), 0.5: neg(pareto(alpha=0.5, kappa=1)))",
]


def _tape_calls(monkeypatch) -> list[int]:
    """Record the size of each `IncrementModel.sample` call that reads a
    uniform tape rather than a generator."""
    calls = []
    sample = IncrementModel.sample

    def recording(self, gen, n):
        if not isinstance(gen, np.random.Generator):
            calls.append(n)
        return sample(self, gen, n)
    monkeypatch.setattr(IncrementModel, "sample", recording)
    return calls


@pytest.mark.parametrize("n", [1, 7, 5000])
@pytest.mark.parametrize("text", WALK_SPECS)
@pytest.mark.parametrize("rule", STOP_RULES)
def test_walk_matches_the_reference_stepper(rule, text, n, monkeypatch):
    model = spec_to_model(text)
    tape_calls = _tape_calls(monkeypatch)
    gen, ref = RngStream(5, 9, 0).generator(), RngStream(5, 9, 0).generator()
    got = walksim._walk(model, gen, n, STOP_RULES[rule], 10 ** 9)
    want = _reference_walk(model.law, ref, n, STOP_RULES[rule])
    for a, b in zip(got[:3], want[:3], strict=True):
        assert np.array_equal(a, b)
    assert got[3] == want[3]
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)
    # the tail takes over at _TAIL_WALKS live walks, except under lognormal
    assert bool(tape_calls) == ("lognormal" not in text)
    assert all(k <= walksim._TAIL_WALKS for k in tape_calls)


@pytest.mark.parametrize("n", [1, 7, 5000])
@pytest.mark.parametrize("text", WALK_SPECS)
def test_renewal_epochs_match_the_reference(text, n):
    model = spec_to_model(text)
    gen, ref = RngStream(5, 9, 0).generator(), RngStream(5, 9, 0).generator()
    got = walksim._renewal_kernel(model, gen, n, (1.0, 10.0), 10 ** 9, raw_reps=3)
    want = _reference_renewal(model.law, ref, n, (1.0, 10.0), 3)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)


# tracemalloc peaks of the boolean-mask stepper that `_walk` replaced
# (commit 2d22199), measured by this test on 2^16 cycles of light-control's
# stream.  On the light model the peak falls inside the mixture sampler;
# on the one-leaf law it falls where finished walks leave the working
# arrays, so a rewrite that keeps the step's draws alive there fails.
PARENT_PEAKS = {LIGHT_CONTROL: 4_788_392,
                "shift(-1.5, exponential(rate=1))": 4_551_432}


@pytest.mark.parametrize("text", PARENT_PEAKS)
def test_cycle_kernel_peak_memory_is_no_higher(text):
    model = spec_to_model(text)
    model.sample(RngStream(43, CYCLES, 0).generator(), 16)  # fill caches
    gen = RngStream(43, CYCLES, 0).generator()
    tracemalloc.start()
    try:
        walksim._cycles_kernel(model, gen, 1 << 16, 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_PEAKS[text]


def test_scalar_tail_drops_its_spent_uniforms(default_model):
    # sup walks at the default barrier spend thousands of steps in the
    # tail.  The array-only stepper peaked at about 5 KiB here and a tape
    # that drops spent uniforms at about 25 KiB; one that keeps them all
    # holds three arrays of every uniform read and goes over the bound
    estimate_sup_many(default_model, 2, seed=1)  # fill caches
    tracemalloc.start()
    try:
        batch = estimate_sup_many(default_model, 20, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.steps > 2000
    assert peak <= 64 * 1024


# ----------------------------------------------------------------------
# driver preconditions and budgets
# ----------------------------------------------------------------------

def test_cycle_needs_a_negative_part():
    one_sided = spec_to_model("pareto(1.5, 1)")
    with pytest.raises(PreconditionError, match="negative part"):
        simulate_cycles(one_sided, 10, seed=1)
    with pytest.raises(PreconditionError, match="negative part"):
        estimate_sup_many(one_sided, 10, seed=1)
    with pytest.raises(PreconditionError, match="negative part"):
        renewal_estimate(one_sided, (1.0,), reps=10, seed=1)


def test_step_budget_is_enforced(default_model):
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 100000, seed=3, step_budget=100)
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 1, seed=3, step_budget=0)


def _step_counts(T_end):
    """The running increment count after each lockstep step of walks
    that stop at the steps T_end, with the live count at that step."""
    live = np.bincount(T_end)[::-1].cumsum()[::-1][1:]
    return live.cumsum(), live


@pytest.mark.parametrize("kind", ["cycles", "sup"])
def test_budget_runs_out_inside_the_tail_where_the_stepper_does(default_model,
                                                               kind):
    # 3 cycles step in the tail only; 40 sup walks start in arrays
    n, purpose = {"cycles": (3, CYCLES), "sup": (40, walksim.SUP)}[kind]
    run = {"cycles": lambda **kw: simulate_cycles(default_model, n, seed=4, **kw),
           "sup": lambda **kw: estimate_sup_many(default_model, n, seed=4,
                                                 barrier=100.0, **kw)}[kind]
    _, _, T, need = _reference_walk(default_model.law,
                                    RngStream(4, purpose, 0).generator(), n,
                                    STOP_RULES[kind])
    counts, live = _step_counts(T)
    assert counts[-1] == need
    tail = (live <= walksim._TAIL_WALKS).nonzero()[0]
    at = int(counts[tail[tail.size // 2]])
    assert int(counts[tail[0]]) < at < need
    with pytest.raises(BudgetError) as err:
        run(step_budget=at - 1)
    assert str(err.value) == (f"step budget {at - 1:g} exceeded at {at:g} "
                              "increments; the model may not drift to -infinity")
    assert _steps(run(step_budget=need)) == need


def test_replication_count_must_be_positive(default_model):
    with pytest.raises(PreconditionError):
        estimate_sup_many(default_model, 0, seed=1)


def test_barrier_must_be_positive(default_model):
    with pytest.raises(PreconditionError, match="barrier"):
        estimate_sup_many(default_model, 10, seed=1, barrier=0.0)
    with pytest.raises(PreconditionError, match="barrier"):
        sample_ladder_many(default_model, 10, seed=1, barrier=-1.0)


# ----------------------------------------------------------------------
# cycle ensembles
# ----------------------------------------------------------------------

def _assert_stats_match_raw(res, n, probes):
    st_ = res.stats
    assert st_.cycles == n
    assert np.all(res.tau >= 1) and np.all(res.chi > 0.0)
    assert np.all(res.m_tau >= 0.0)
    assert st_.steps == int(res.tau.sum()) == st_.tau_sum
    assert st_.tau_max == int(res.tau.max())
    assert np.isclose(st_.chi_sum, res.chi.sum())
    assert st_.m_tau_max == res.m_tau.max()
    assert st_.zero_m_tau == int(np.count_nonzero(res.m_tau == 0.0))
    hits = [(res.m_tau > x).sum() for x in probes]
    assert list(st_.probe_hits) == hits
    assert st_.tau_mean == st_.tau_sum / n
    assert st_.tau_se > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_cycle_aggregates_and_raw_columns_agree(default_model, workers):
    res = simulate_cycles(default_model, 20000, seed=7, workers=workers,
                          probes=(2.0, 10.0), keep_raw=True)
    _assert_stats_match_raw(res, 20000, (2.0, 10.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_chunked_shards_keep_stats_stream_and_budget(default_model,
                                                     monkeypatch, workers):
    monkeypatch.setattr(walksim, "CHUNK", 4096)
    res = simulate_cycles(default_model, 10000, seed=7, workers=workers,
                          probes=(2.0, 10.0), keep_raw=True)
    _assert_stats_match_raw(res, 10000, (2.0, 10.0))
    # the first chunk of shard 0 is a standalone run of CHUNK cycles
    head = simulate_cycles(default_model, 4096, seed=7, keep_raw=True)
    assert np.array_equal(res.tau[:4096], head.tau)
    assert np.array_equal(res.m_tau[:4096], head.m_tau)
    # the budget covers the whole run, across shards and chunks
    need = res.stats.steps
    again = simulate_cycles(default_model, 10000, seed=7, workers=workers,
                            step_budget=need)
    assert again.stats.steps == need
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 10000, seed=7, workers=workers,
                        step_budget=need - 1)


DRIVERS = {
    "cycles": lambda m, **kw: simulate_cycles(m, 10000, seed=7, keep_raw=True, **kw),
    "sup": lambda m, **kw: estimate_sup_many(m, 4000, seed=7, barrier=100.0, **kw),
    "ladder": lambda m, **kw: sample_ladder_many(m, 4000, seed=7, barrier=100.0, **kw),
    "renewal": lambda m, **kw: renewal_estimate(m, (1.0, 10.0), reps=2000, seed=9,
                                                raw_reps=50, **kw),
}


def _steps(result):
    return getattr(result, "stats", result).steps


def _arrays(result):
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("driver", DRIVERS)
def test_budget_covers_all_shards(default_model, driver):
    run = DRIVERS[driver]
    first = run(default_model, workers=2)
    need = _steps(first)
    again = run(default_model, workers=2, step_budget=need)
    assert _steps(again) == need
    assert all(np.array_equal(a, b)
               for a, b in zip(_arrays(again), _arrays(first), strict=True))
    with pytest.raises(BudgetError, match="over all shards"):
        run(default_model, workers=2, step_budget=need - 1)


def test_hand_built_model_runs_on_workers(default_model):
    # workers receive the model itself, so it needs no spec text
    law = Mixture(weights=(0.5, 0.5),
                  children=(Pareto(alpha=1.5, kappa=1.0),
                            Neg(Pareto(alpha=0.5, kappa=1.0))))
    built = IncrementModel(law=law)
    assert built.spec_text == ""
    _assert_same_worker_runs(built, default_model)


def test_sampled_model_runs_on_workers():
    # a law that has sampled carries its filled caches through pickling
    warm = spec_to_model(DEFAULT_MODEL)
    warm.sample(RngStream(1, 9, 0).generator(), 16)
    warm = pickle.loads(pickle.dumps(warm))
    assert "_cumw" in vars(warm.law)
    _assert_same_worker_runs(warm, spec_to_model(DEFAULT_MODEL))


def _assert_same_worker_runs(model, reference):
    for driver in ("cycles", "sup"):
        a = DRIVERS[driver](model, workers=2)
        b = DRIVERS[driver](reference, workers=2)
        assert _steps(a) == _steps(b)
        assert all(np.array_equal(x, y)
                   for x, y in zip(_arrays(a), _arrays(b), strict=True))


def test_cycle_runs_are_bit_identical(default_model):
    a = simulate_cycles(default_model, 20000, seed=7, keep_raw=True)
    b = simulate_cycles(default_model, 20000, seed=7, keep_raw=True)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.m_tau, b.m_tau)
    assert np.array_equal(a.chi, b.chi)


def test_sharded_cycle_runs_are_bit_identical(default_model):
    a = simulate_cycles(default_model, 20000, seed=7, workers=2, keep_raw=True)
    b = simulate_cycles(default_model, 20000, seed=7, workers=2, keep_raw=True)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.m_tau, b.m_tau)
    assert np.array_equal(a.chi, b.chi)
    assert a.stats.cycles == 20000


def test_zero_maximum_frequency_matches_first_step(default_model):
    # m_tau = 0 exactly when the first increment is already negative,
    # which happens with probability 1 - P(xi > 0) = 0.5
    res = simulate_cycles(default_model, 40000, seed=19)
    rate = res.stats.zero_m_tau / res.stats.cycles
    se = math.sqrt(0.25 / res.stats.cycles)
    assert abs(rate - 0.5) < 4 * se


def test_stopping_identity_for_finite_mean_control(light_model):
    # mean increment is -1/2, so chi and tau/2 share a mean
    res = simulate_cycles(light_model, 200000, seed=11, keep_raw=True)
    d = res.chi - 0.5 * res.tau
    assert abs(d.mean()) <= 3.0 * d.std(ddof=1) / math.sqrt(d.size)


# ----------------------------------------------------------------------
# exact anchors on the light control
# ----------------------------------------------------------------------
#
# Increments are Exp(1) or -Exp(1/2), each with probability 1/2, so the
# drift is -1/2.  Both sides are memoryless: the descent undershoot chi is
# Exp(1/2) and E[tau] = E[chi] / (1/2) = 4 (Wald); a strict ascent
# overshoots by Exp(1); the descent renewal function is H(x) = 1 + x/2;
# and P(M > x) = 0.75 exp(-x/4) (the Lundberg root of E[exp(g X)] = 1 is
# g = 1/4), so a quarter of the walks never ascend.  Seeds, sizes and
# bounds were fixed before the first run: 4 standard errors on a mean,
# the 1% Kolmogorov critical distance on a law.

def _ks_distance(sample, cdf, cdf_left) -> float:
    """sup |F_n - F| for a law F that may have atoms at sample values."""
    x = np.sort(sample)
    u = np.unique(x)
    right = np.searchsorted(x, u, side="right") / x.size
    left = np.searchsorted(x, u, side="left") / x.size
    return float(max(np.max(np.abs(right - cdf(u))),
                     np.max(np.abs(left - cdf_left(u)))))


def _ks_law_holds(sample, cdf, cdf_left=None) -> bool:
    d = _ks_distance(sample, cdf, cdf if cdf_left is None else cdf_left)
    return d < scipy.stats.kstwo.ppf(0.99, sample.size)


def test_cycle_kernel_has_the_light_control_anchors(light_model):
    res = simulate_cycles(light_model, 20000, seed=101, keep_raw=True)
    assert abs(res.stats.tau_mean - 4.0) < 4.0 * res.stats.tau_se
    assert _ks_law_holds(res.chi, lambda x: -np.expm1(-0.5 * x))


def test_ladder_kernel_has_the_light_control_anchors(light_model):
    # a censored walk is 60 below 0, from where it ascends with
    # probability 0.75 exp(-15) = 2e-7
    batch = sample_ladder_many(light_model, 20000, seed=102, barrier=60.0)
    assert abs(batch.censor_rate - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / 20000)
    assert _ks_law_holds(batch.uncensored_psi(), lambda x: -np.expm1(-x))


def test_renewal_kernel_has_the_light_control_anchors(light_model):
    est = renewal_estimate(light_model, (1.0, 4.0, 16.0), reps=4000, seed=103)
    want = 1.0 + 0.5 * np.array(est.xs)
    assert np.all(np.abs(est.h_values - want) < 4.0 * est.h_se)


def test_sup_kernel_has_the_light_control_anchors(light_model):
    # a record after the walk falls 60 below its maximum has probability
    # 0.75 exp(-15) = 2e-7; the default barrier of 1e4 would cost about
    # 2e4 steps a walk
    batch = estimate_sup_many(light_model, 10000, seed=104, barrier=60.0)
    assert _ks_law_holds(batch.m_values, lambda x: 1.0 - 0.75 * np.exp(-0.25 * x),
                         lambda x: np.where(x > 0.0, 1.0 - 0.75 * np.exp(-0.25 * x),
                                            0.0))


# ----------------------------------------------------------------------
# the memoryless control in the paper's regime
# ----------------------------------------------------------------------
#
# Increments are Exp(1) or -Lomax(1/2, 1), each with probability 1/2: the
# negative part has infinite mean, as in the paper, while the positive
# arm is memoryless.  So a strict ascent overshoots 0 by Exp(1), and with
# p = P(M = 0), the chance that no ascent comes, duality gives
# E[tau] = 1/p.  p has no closed form, so the kernels are held to each
# other.  p is near 0.38, so a walk 60 below 0 (ladder) or below its
# maximum (sup) rises that far again with probability about
# 0.62 exp(-60 p) < 1e-9.  Seed, sizes and bounds were fixed before the
# first run: 3 combined standard errors on a difference, the 1%
# Kolmogorov critical distance on a law.

MEMORYLESS = "mix(0.5: exponential(rate=1), 0.5: neg(pareto(alpha=0.5, kappa=1)))"
MEMORYLESS_SEED = 111
MEMORYLESS_LADDER_REPS = 20000


@pytest.fixture(scope="module")
def memoryless_model():
    return spec_to_model(MEMORYLESS)


@pytest.fixture(scope="module")
def memoryless_ladder(memoryless_model):
    return sample_ladder_many(memoryless_model, MEMORYLESS_LADDER_REPS,
                              seed=MEMORYLESS_SEED, barrier=60.0)


def _binomial_var(rate: float, n: int) -> float:
    return rate * (1.0 - rate) / n


def test_memoryless_censor_rate_times_mean_cycle_length_is_one(
        memoryless_model, memoryless_ladder):
    st = simulate_cycles(memoryless_model, 20000, seed=MEMORYLESS_SEED).stats
    c = memoryless_ladder.censor_rate
    se = math.sqrt(st.tau_mean ** 2 * _binomial_var(c, MEMORYLESS_LADDER_REPS)
                   + c ** 2 * st.tau_se ** 2)
    assert abs(c * st.tau_mean - 1.0) <= 3.0 * se


def test_memoryless_ascent_heights_are_exp_one(memoryless_ladder):
    assert _ks_law_holds(memoryless_ladder.uncensored_psi(),
                         lambda x: -np.expm1(-x))


def test_memoryless_zero_maximum_meets_the_censor_rate(memoryless_model,
                                                       memoryless_ladder):
    sup = estimate_sup_many(memoryless_model, 10000, seed=MEMORYLESS_SEED,
                            barrier=60.0)
    c = memoryless_ladder.censor_rate
    se = math.sqrt(_binomial_var(sup.p_hat, 10000)
                   + _binomial_var(c, MEMORYLESS_LADDER_REPS))
    assert abs(sup.p_hat - c) <= 3.0 * se


def test_merge_refuses_mismatched_probes(default_model):
    a = simulate_cycles(default_model, 100, seed=1, probes=(2.0,)).stats
    b = simulate_cycles(default_model, 100, seed=2, probes=(3.0,)).stats
    with pytest.raises(ValueError):
        a.merge(b)


def test_exceedance_rows_have_wilson_intervals(default_model):
    stats, rows = mtau_tail_estimate(default_model, (2.0, 10.0, 50.0),
                                     cycles=30000, seed=13)
    assert stats.cycles == 30000
    p_prev = 1.0
    for x, p_hat, lo, hi, hits in rows:
        assert hits == round(p_hat * 30000)
        assert 0.0 <= lo <= p_hat <= hi <= 1.0
        assert (lo, hi) == wilson_interval(hits, 30000)
        assert p_hat <= p_prev
        p_prev = p_hat


# ----------------------------------------------------------------------
# truncated all-time maximum
# ----------------------------------------------------------------------

def test_sup_batch_probability_and_flags(default_model):
    batch = estimate_sup_many(default_model, 20000, seed=5, barrier=1e4)
    assert batch.m_values.size == 20000
    assert np.all(batch.m_values >= 0.0)
    p = batch.p_hat
    assert 0.0 < p < 1.0
    lo, hi = batch.p_interval()
    assert lo < p < hi
    assert batch.escape_estimate < 0.01
    assert np.array_equal(batch.hit_zero, batch.m_values == 0.0)


def test_sup_bias_flag_trips_on_barrier_hits():
    batch = SupBatch(m_values=np.array([0.0, 5.0, 2e4]), barrier=1e4, steps=3)
    assert batch.escape_estimate == pytest.approx(1.0 / 3.0)
    assert batch.bias_flag
    assert batch.p_hat == pytest.approx(1.0 / 3.0)


# ----------------------------------------------------------------------
# ladder sampling
# ----------------------------------------------------------------------

def test_ladder_censor_rate_matches_never_ascending(default_model):
    # the walk either climbs above zero once or drifts away forever, so
    # the deep-censor rate estimates the same event as a zero maximum
    ladder = sample_ladder_many(default_model, 20000, seed=5, barrier=1e4)
    sup = estimate_sup_many(default_model, 20000, seed=5, barrier=1e4)
    c, p = ladder.censor_rate, sup.p_hat
    se = math.sqrt(c * (1 - c) / 20000) + math.sqrt(p * (1 - p) / 20000)
    assert abs(c - p) < 3.0 * se
    assert np.all(ladder.uncensored_psi() > 0.0)
    assert np.all(ladder.psi[ladder.censored] == 0.0)


def test_ladder_batch_uncensored_view():
    batch = LadderBatch(psi=np.array([1.5, 0.0, 2.5]),
                        censored=np.array([False, True, False]), steps=12)
    assert batch.censor_rate == pytest.approx(1.0 / 3.0)
    assert np.array_equal(batch.uncensored_psi(), [1.5, 2.5])


# ----------------------------------------------------------------------
# renewal counts
# ----------------------------------------------------------------------

def test_renewal_curve_shape(default_model):
    est = renewal_estimate(default_model, (1.0, 5.0, 25.0), reps=3000, seed=9)
    assert est.xs == (1.0, 5.0, 25.0)
    assert est.h_values[0] >= 1.0
    assert np.all(np.diff(est.h_values) >= 0.0)
    assert np.all(est.h_se > 0.0)
    assert est.raw_points is None


def test_renewal_raw_points_live_below_the_last_probe(default_model):
    est = renewal_estimate(default_model, (1.0, 5.0, 25.0), reps=500, seed=9,
                           raw_reps=50)
    assert est.raw_reps == 50
    assert est.raw_points.size > 0
    assert np.all(est.raw_points > 0.0)
    assert np.all(est.raw_points <= 25.0)
    with pytest.raises(PreconditionError):
        renewal_estimate(default_model, (-1.0, 2.0), reps=10, seed=9)


def test_only_shard_zero_collects_raw_points(default_model, monkeypatch):
    def run():
        return renewal_estimate(default_model, (1.0, 10.0), reps=1000, seed=9,
                                workers=2, raw_reps=50)

    pooled = run()
    calls = []

    class InProcessPool:
        """Runs each shard at submit time and records its kernel call."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            calls.append((kwargs, fn(*args, **kwargs)))
            future = Future()
            future.set_result(calls[-1][1])
            return future

    monkeypatch.setattr(walksim, "ProcessPoolExecutor", InProcessPool)
    est = run()
    assert [kw.get("raw_reps", 0) for kw, _ in calls] == [50, 0]
    assert calls[0][1][1].size > 0 and calls[1][1][1].size == 0
    assert np.array_equal(est.h_values, pooled.h_values)
    assert np.array_equal(est.raw_points, pooled.raw_points)


def test_renewal_runs_are_reproducible_across_workers(default_model):
    a = renewal_estimate(default_model, (1.0, 10.0), reps=2000, seed=9,
                         workers=2)
    b = renewal_estimate(default_model, (1.0, 10.0), reps=2000, seed=9,
                         workers=2)
    assert np.array_equal(a.h_values, b.h_values)
    assert np.array_equal(a.h_se, b.h_se)


# ----------------------------------------------------------------------
# cycle file round trip
# ----------------------------------------------------------------------

def test_cycle_file_round_trip(tmp_path, default_model):
    res = simulate_cycles(default_model, 500, seed=31, keep_raw=True)
    path = tmp_path / "cycles.bin"
    write_cycles(path, 31, res.tau, res.m_tau, res.chi)
    seed, tau, m_tau, chi = read_cycles(path)
    assert seed == 31
    assert np.array_equal(tau, res.tau.astype(float))
    assert np.array_equal(m_tau, res.m_tau)
    assert np.array_equal(chi, res.chi)


def test_cycle_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(SpecValidationError, match="magic"):
        read_cycles(bad)
    short = tmp_path / "short.bin"
    write_cycles(short, 1, [1.0], [2.0], [3.0])
    short.write_bytes(short.read_bytes()[:-4])
    with pytest.raises(SpecValidationError, match="bytes"):
        read_cycles(short)
    with pytest.raises(ValueError, match="equal length"):
        write_cycles(tmp_path / "x.bin", 1, [1.0, 2.0], [2.0], [3.0])


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k,n", [(0, 10), (1, 10), (5, 10), (9, 10), (10, 10),
                                 (35, 200), (352, 1000)])
def test_wilson_interval_matches_reference(k, n):
    lo, hi = wilson_interval(k, n)
    ref = scipy.stats.binomtest(k, n).proportion_ci(confidence_level=0.95,
                                                    method="wilson")
    assert np.isclose(lo, ref.low, rtol=1e-12, atol=1e-15)
    assert np.isclose(hi, ref.high, rtol=1e-12, atol=1e-15)


def test_wilson_interval_needs_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@given(st.integers(min_value=1, max_value=10 ** 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))))
def test_wilson_interval_brackets_the_estimate(kn):
    n, k = kn
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    assert lo < hi


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ks_statistic_matches_reference(seed):
    gen = np.random.Generator(np.random.Philox(seed))
    a = gen.normal(size=357)
    b = gen.normal(0.2, size=221)
    assert np.isclose(ks_two_sample(a, b),
                      scipy.stats.ks_2samp(a, b).statistic, atol=1e-15)
    # heavy ties
    ai = gen.integers(0, 5, size=300).astype(float)
    bi = gen.integers(0, 5, size=200).astype(float)
    assert np.isclose(ks_two_sample(ai, bi),
                      scipy.stats.ks_2samp(ai, bi).statistic, atol=1e-15)


def test_ks_threshold_formula():
    assert ks_threshold(100, 200) == pytest.approx(
        1.358 * math.sqrt(300 / 20000))


def test_shard_sizes_partition_evenly():
    assert _shard_sizes(10, 3) == [4, 3, 3]
    assert _shard_sizes(5, 1) == [5]
    assert _shard_sizes(7, 7) == [1] * 7
    for total in (1, 2, 5, 97):
        for workers in (1, 2, 3, 8):
            sizes = _shard_sizes(total, workers)
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1
