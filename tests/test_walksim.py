"""Simulation layer: kernels, sharding, streams, and the statistics helpers."""

import dataclasses
import functools
import gc
import math
import multiprocessing
import pickle
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import htwk
from htwk import distspec, spec_to_model, tailmath, walksim
from htwk.errors import BudgetError, PreconditionError, SpecValidationError
from htwk.serialize import read_cycles, write_cycles
from htwk.tailmath import (Exponential, IncrementModel, Lognormal, Mixture, Neg,
                           Pareto, PointMass, Shift, Weibull, _UniformTape)
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
from pinned_models import DEFAULT_MODEL, LIGHT_CONTROL


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
    one uniform each (lognormal's through the normal quantile), a point
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
    u = gen.random(n)
    if isinstance(law, Lognormal):
        return np.exp(law.mu + law.sigma * scipy.special.ndtri(u))
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
                                  "weibull(shape=0.5, scale=3)",
                                  "lognormal(mu=0.3, sigma=1.1)"])
def test_leaf_quantiles_do_not_depend_on_slice_length_or_offset(text):
    # a tape takes a leaf's quantiles of a whole chunk, or of a piece of
    # it, where a bare generator takes them on each step's sub-count
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
    model = spec_to_model(text)
    gen, ref = RngStream(11, 9, 0).generator(), RngStream(11, 9, 0).generator()
    for _ in range(2):  # the second call on a model whose caches are set
        assert np.array_equal(model.sample(gen, n),
                              _reference_draws(model.law, ref, n))
        assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)


LEAF_KINDS = [kind for kind, cls in distspec._LAWS.items()
              if not {"child", "children"} & {f.name for f in dataclasses.fields(cls)}]


@pytest.mark.parametrize("kind", LEAF_KINDS)
def test_every_leaf_compiles_to_draw_rules(kind):
    # 1 is a value of every leaf parameter
    cls = distspec._LAWS[kind]
    law = cls(**{f.name: 1.0 for f in dataclasses.fields(cls)
                 if f.default is dataclasses.MISSING})
    assert callable(tailmath._compile_tape(law, []))


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


def _recorded_walk(model, src, n, stop):
    """`_walk` with a hook that records each walk's S, M and step T
    where it retires, checking that each call's slots come in start
    order and that no slot stops twice.  Returns (S, M, T, steps) as
    `_reference_walk` does; a slot never recorded keeps S = M = nan."""
    S_end, M_end = np.full(n, np.nan), np.full(n, np.nan)
    T_end = np.zeros(n, dtype=np.int64)

    def record(slots, S, M, t):
        assert np.all(np.diff(slots) > 0) and not T_end[slots].any()
        S_end[slots], M_end[slots], T_end[slots] = S, M, t

    steps = walksim._walk(model, src, n, stop, record, 10 ** 9)
    return S_end, M_end, T_end, steps


def _reference_renewal(law, gen, reps, xs, raw_reps):
    """The renewal as one continuing walk per replication, spelled out
    with boolean masks and the reference sampler: one draw per live
    replication and step, in start order.  A cycle ends at S < 0 and
    adds chi = -S to its replication's sum; while the sum is at or below
    the last probe the walk goes on from S = 0, and otherwise the
    replication leaves.  Raw points are each step's sums that stay, in
    start order.  Returns (counts, raw points, replications, steps, and
    the step at which each replication left)."""
    xs_arr = np.asarray(xs)
    counts = np.zeros((xs_arr.size, reps), dtype=np.int64)
    S, cum = np.zeros(reps), np.zeros(reps)
    live, T_end = np.ones(reps, dtype=bool), np.zeros(reps, dtype=np.int64)
    raw, steps, t = [], 0, 0
    while live.any():
        S[live] += _reference_draws(law, gen, int(live.sum()))
        steps += int(live.sum())
        t += 1
        ended = live & (S < 0.0)
        cum[ended] -= S[ended]
        S[ended] = 0.0
        counts[:, ended] += cum[ended] <= xs_arr[:, None]
        left = ended & ~(cum <= xs_arr[-1])
        raw.append(cum[ended & ~left & (np.arange(reps) < raw_reps)])
        T_end[left] = t
        live &= ~left
    return counts, np.concatenate(raw), min(raw_reps, reps), steps, T_end


def _epoch_renewal(law, gen, reps, xs):
    """The renewal's earlier layout, in epochs: each epoch runs one cycle
    per live replication through the reference stepper, and a
    replication lives while its chi-sum is at or below the last probe.
    Returns the counts."""
    xs_arr = np.asarray(xs)
    counts = np.zeros((xs_arr.size, reps), dtype=np.int64)
    cum, idx = np.zeros(reps), np.arange(reps)
    while idx.size:
        S, _, _, _ = _reference_walk(law, gen, idx.size, STOP_RULES["cycles"])
        cum = cum + -S
        counts[:, idx] += cum[None, :] <= xs_arr[:, None]
        alive = cum <= xs_arr[-1]
        cum, idx = cum[alive], idx[alive]
    return counts


# the kernels' stop rules, at a barrier of 100
STOP_RULES = {
    "cycles": lambda S, M: S < 0.0,
    "sup": lambda S, M: S <= M - 100.0,
    "ladder": lambda S, M: (S > 0.0) | (S <= -100.0),
}
# n = 1 and 7 walk with few live walks from the start, n = 5000 with
# thousands first.  STREAM_SPECS[10] has point(c=0); the third spec
# reaches point, shift, weibull, a nested mix and both negative leaves
# on steps of a single walk, the fourth a neg over a mix and two steps
# over a point, and the last a lognormal leaf.
WALK_SPECS = [
    DEFAULT_MODEL,
    STREAM_SPECS[10],
    "mix(0.3: point(c=0.5), 0.3: shift(0.2, weibull(shape=0.5, scale=1)), "
    "0.4: mix(0.5: neg(pareto(alpha=0.5, kappa=1)), 0.5: neg(exponential(rate=1))))",
    "mix(0.5: shift(-1, neg(mix(0.5: shift(0.5, point(c=1)), "
    "0.5: pareto(alpha=0.5, kappa=1)))), 0.5: exponential(rate=1))",
    "mix(0.5: lognormal(mu=0, sigma=1), 0.5: neg(pareto(alpha=0.5, kappa=1)))",
]


def _sample_sources(monkeypatch) -> list:
    """Record the source that each `IncrementModel.sample` call reads."""
    calls = []
    sample = IncrementModel.sample

    def recording(self, gen, n):
        calls.append(gen)
        return sample(self, gen, n)
    monkeypatch.setattr(IncrementModel, "sample", recording)
    return calls


class _HeldCondition:
    """A tape's condition that puts its helper thread to sleep before
    each of its turns, so that the reader reaches most chunks first."""

    def __init__(self, cond, helper):
        self.cond, self.helper = cond, helper

    def __enter__(self):
        if threading.current_thread() is self.helper:
            time.sleep(0.002)
        return self.cond.__enter__()

    def __exit__(self, *exc):
        return self.cond.__exit__(*exc)

    def wait(self):
        self.cond.wait()

    def notify(self):
        self.cond.notify()


def _no_second_tape(*args, **kwargs):
    raise AssertionError("a walk opened a tape of its own")


def _source(source, model, gen, walks, monkeypatch):
    """What a kernel draws from: gen itself, as on a worker of a sharded
    run, or a one-shard run's read-ahead source over gen with its helper
    absent, present or held back; a walk that opens a tape of its own,
    beside a source or over gen, fails."""
    if source == "generator":
        monkeypatch.setattr(_UniformTape, "__init__", _no_second_tape)
        return gen
    if source == "held":
        real = _UniformTape._read_ahead

        def held(tape):
            tape._cond = _HeldCondition(tape._cond, threading.current_thread())
            real(tape)
        monkeypatch.setattr(_UniformTape, "_read_ahead", held)
    tape = _UniformTape(model, gen, walks)
    tape._ahead = source != "absent"
    monkeypatch.setattr(_UniformTape, "__init__", _no_second_tape)
    return tape


def _close(src):
    if isinstance(src, _UniformTape):
        src.close()


SOURCES = ["generator", "absent", "present", "held"]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("n", [1, 7, 5000])
@pytest.mark.parametrize("text", WALK_SPECS)
@pytest.mark.parametrize("rule", STOP_RULES)
def test_walk_matches_the_reference_stepper(rule, text, n, source, monkeypatch):
    model = spec_to_model(text)
    sources = _sample_sources(monkeypatch)
    gen, ref = RngStream(5, 9, 0).generator(), RngStream(5, 9, 0).generator()
    src = _source(source, model, gen, n, monkeypatch)
    try:
        got = _recorded_walk(model, src, n, STOP_RULES[rule])
    finally:
        _close(src)
    want = _reference_walk(model.law, ref, n, STOP_RULES[rule])
    for a, b in zip(got[:3], want[:3], strict=True):
        assert np.array_equal(a, b)
    assert got[3] == want[3]
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)
    # the source feeds every step, down to the last live walk
    assert sources and all(s is src for s in sources)


@pytest.mark.parametrize("chunk", [None, 256])
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("n", [1, 7, 5000])
@pytest.mark.parametrize("text", WALK_SPECS)
def test_renewal_walk_matches_the_reference(text, n, source, chunk, monkeypatch):
    # a source serves the whole walk, restarts included; 256-uniform
    # chunks make most reads cross a chunk's end
    if chunk:
        monkeypatch.setattr(tailmath, "_CHUNK_MAX", chunk)
    model = spec_to_model(text)
    gen, ref = RngStream(5, 9, 0).generator(), RngStream(5, 9, 0).generator()
    src = _source(source, model, gen, n, monkeypatch)
    try:
        got = walksim._renewal_kernel(model, src, n, (1.0, 10.0), 10 ** 9,
                                      raw_reps=3)
    finally:
        _close(src)
    want = _reference_renewal(model.law, ref, n, (1.0, 10.0), 3)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:4]
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)


# H at probes that a replication passes in a few cycles (light control,
# H(x) = 1 + x/2) and in a few dozen (default model).  Seeds, sizes and
# the bound of 3 combined standard errors were fixed before the first run.
@pytest.mark.parametrize("text, xs", [(DEFAULT_MODEL, (1.0, 10.0, 100.0)),
                                      (LIGHT_CONTROL, (1.0, 4.0, 16.0))])
def test_renewal_walk_has_the_law_of_the_epoch_order(text, xs):
    model = spec_to_model(text)
    est = renewal_estimate(model, xs, reps=4000, seed=61)
    counts = _epoch_renewal(model.law, RngStream(62, walksim.RENEWAL, 0).generator(),
                            4000, xs)
    h = 1.0 + counts.mean(axis=1)
    se = counts.std(axis=1, ddof=1) / math.sqrt(4000)
    assert np.all(np.abs(est.h_values - h) <= 3.0 * np.hypot(est.h_se, se))


# ----------------------------------------------------------------------
# the read-ahead source of one-shard runs
# ----------------------------------------------------------------------

def test_sources_on_threads_of_their_own_keep_every_draw():
    # three walks at once, each on its own thread with its own source and
    # helper, while the interpreter switches threads every microsecond
    model = spec_to_model(DEFAULT_MODEL)
    model.sample(RngStream(1, 9, 0).generator(), 16)  # fill caches
    got = {}

    def run(seed):
        gen = RngStream(seed, 9, 0).generator()
        tape = _UniformTape(model, gen, 20000)
        try:
            walked = _recorded_walk(model, tape, 20000, STOP_RULES["sup"])
        finally:
            tape.close()
        got[seed] = walked, _plain(gen.bit_generator.state)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for seed in range(3):
        ref = RngStream(seed, 9, 0).generator()
        want = _reference_walk(model.law, ref, 20000, STOP_RULES["sup"])
        walked, state = got[seed]
        for a, b in zip(walked[:3], want[:3], strict=True):
            assert np.array_equal(a, b)
        assert walked[3] == want[3]
        assert state == _plain(ref.bit_generator.state)


SEEK_LENGTHS = [*range(10), *(4 * k + d for k in (1, 2, 3, 25, 2500)
                              for d in (-1, 1)), 10 ** 5 + 3]


@pytest.mark.parametrize("buffer_pos", range(5))
def test_a_chunk_drawn_at_its_position_is_the_sequential_stream(buffer_pos):
    # a start whose buffer still holds its last 4 - buffer_pos outputs,
    # with a spare 32-bit output that doubles leave alone
    bg = np.random.Philox(2024)
    bg.random_raw(5)
    start = {**bg.state, "buffer_pos": buffer_pos, "has_uint32": 1,
             "uinteger": 77}
    for p in SEEK_LENGTHS:
        seq = np.random.Philox(1)
        seq.state = start
        want = np.random.Generator(seq).random(p + 9)[p:]
        at = np.random.Philox(1)
        tailmath._philox_seek(at, start, p)
        assert np.array_equal(np.random.Generator(at).random(9), want), p
        assert _plain(at.state) == _plain(seq.state), p


def test_a_seek_matches_a_spawn_keyed_stream_far_out():
    gen = RngStream(11, walksim.SUP, 0).generator()
    start = gen.bit_generator.state
    want = gen.random(999_983 + 5)[-5:]
    at = np.random.Philox(1)
    tailmath._philox_seek(at, start, 999_983)
    assert np.array_equal(np.random.Generator(at).random(5), want)
    assert _plain(at.state) == _plain(gen.bit_generator.state)


def test_the_reader_takes_published_chunks_read_only():
    model = spec_to_model(DEFAULT_MODEL)
    (leaf, post), _ = model._draw_rules[0]
    gen = RngStream(8, 9, 0).generator()
    u = RngStream(8, 9, 0).generator().random(3 * 256)
    tape = _UniformTape(model, gen, 20)
    assert tape.chunk == 256
    try:
        # the first read starts the helper and draws chunk 0 here; a view
        # is valid until the next take, so each is checked at once
        own = tape.take(0, 256)
        assert np.array_equal(own, u[:256])
        assert not np.shares_memory(own, tape._ring[0])
        # the helper draws chunks 1 and 2 and then the leaf values of the
        # one a chunk past the reader's, 2
        deadline = time.monotonic() + 30
        while tape._tags[2][-1] != 2:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        values = tailmath._leaf_values(leaf, post, u[512:], np.empty(256))
        for row, want in ((0, u[256:512]), (1, values)):
            got = tape.take(row, 256)
            assert np.shares_memory(got, tape._ring[0])
            assert not got.flags.writeable
            assert np.array_equal(got, want)
    finally:
        tape.close()
    ref = RngStream(8, 9, 0).generator()
    ref.random(3 * 256)
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)


@pytest.mark.parametrize("text", ["pareto(alpha=1.5, kappa=1)", DEFAULT_MODEL])
def test_draws_from_a_tape_are_new_arrays(text):
    # a one-leaf law's rule returns the tape's own read-only view
    model = spec_to_model(text)
    tape = _UniformTape(model, RngStream(8, 9, 0).generator(), 20)
    try:
        first = model.sample(tape, 8)
        kept = first.copy()
        model.sample(tape, 600)  # past the first 256-uniform chunk
        assert first.flags.writeable
        assert np.array_equal(first, kept)
    finally:
        tape.close()


# tracemalloc peaks of the boolean-mask stepper that `_walk` replaced
# (commit 2d22199), measured by this test on 2^16 cycles of light-control's
# stream.  On the light model the peak falls inside the mixture sampler;
# on the one-leaf law it falls where finished walks leave the working
# arrays, so a rewrite that keeps the step's draws alive there fails.
PARENT_PEAKS = {LIGHT_CONTROL: 4_788_392,
                "shift(-1.5, exponential(rate=1))": 4_551_432}

# tracemalloc peaks of the per-chunk cycle kernel (commit b168b9e), which
# held each cycle's m_tau and chi, 16 bytes, until the chunk was done
COLUMN_KERNEL_PEAKS = {LIGHT_CONTROL: 3_281_584,
                       "shift(-1.5, exponential(rate=1))": 3_792_984}


# light-control's probes; a shard counts its hits as cycles stop
LIGHT_PROBES = (2.0, 4.0, 6.0, 8.0)


def _shard_peak(text: str, n: int, probes: tuple[float, ...]) -> int:
    """tracemalloc peak of a shard of n cycles without raw columns."""
    model = spec_to_model(text)
    model.sample(RngStream(43, CYCLES, 0).generator(), 16)  # fill caches
    gen = RngStream(43, CYCLES, 0).generator()
    tracemalloc.start()
    try:
        walksim._cycles_shard(model, gen, n, probes, False, 10 ** 9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", PARENT_PEAKS)
def test_cycle_kernel_peak_memory_is_no_higher(text):
    assert _shard_peak(text, 1 << 16, LIGHT_PROBES) <= PARENT_PEAKS[text]


@pytest.mark.parametrize("text", COLUMN_KERNEL_PEAKS)
def test_a_cycle_shard_holds_no_per_cycle_column(text):
    # a shard that kept even one 8-byte column per cycle, for instance
    # to count the probe hits from, goes over
    n = 1 << 16
    assert (_shard_peak(text, n, LIGHT_PROBES)
            <= COLUMN_KERNEL_PEAKS[text] - 8 * n)


def test_a_cycle_shard_frees_each_chunk_before_the_next(monkeypatch):
    # a shard of two chunks peaks no higher than a shard of one chunk
    # plus 8 bytes per cycle of a chunk, a slack fixed before the first
    # run; a shard that held a chunk's columns while it walks the next
    # chunk goes over it
    chunk = 1 << 14
    monkeypatch.setattr(walksim, "CHUNK", chunk)
    peak_one, peak_two = (_shard_peak(LIGHT_CONTROL, n, (2.0,))
                          for n in (chunk, 2 * chunk))
    assert peak_two <= peak_one + 8 * chunk


def test_a_few_walk_run_drops_its_spent_uniforms():
    # 20 sup walks at the default barrier take thousands of steps.  Over
    # a bare generator the run peaked at about 6 KiB here, and over a
    # read-ahead tape that drops spent uniforms at about 39 KiB, its ring
    # included; a tape that kept them all would hold three arrays of
    # every uniform read and go over the bound.  A model of its own, so
    # no earlier test's ensemble is reused
    model = spec_to_model(DEFAULT_MODEL)
    estimate_sup_many(model, 2, seed=1)  # fill caches
    tracemalloc.start()
    try:
        batch = estimate_sup_many(model, 20, seed=1)
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


def test_step_budget_is_enforced(default_model, walk_constants):
    walk_constants(step_budget=100)
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 100000, seed=3)
    walk_constants(step_budget=0)
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 1, seed=3)


def _step_counts(T_end):
    """The running increment count after each lockstep step of walks
    that stop at the steps T_end, with the live count at that step."""
    live = np.bincount(T_end)[::-1].cumsum()[::-1][1:]
    return live.cumsum(), live


@pytest.mark.parametrize("kind", ["cycles", "sup", "renewal"])
def test_budget_runs_out_among_few_live_walks_where_the_stepper_does(
        kind, walk_constants):
    # the budget runs out at a step with at most 32 live walks: 3 cycles
    # never have more, and 40 sup walks and 40 renewal replications
    # reach such a step after steps with more
    n, purpose = {"cycles": (3, CYCLES), "sup": (40, walksim.SUP),
                  "renewal": (40, walksim.RENEWAL)}[kind]
    model = spec_to_model(DEFAULT_MODEL)
    walk_constants(barrier=100.0)
    run = {"cycles": lambda: simulate_cycles(model, n, seed=4),
           "sup": lambda: estimate_sup_many(model, n, seed=4),
           "renewal": lambda: renewal_estimate(model, (1.0, 100.0),
                                               reps=n, seed=4)}[kind]
    ref = RngStream(4, purpose, 0).generator()
    if kind == "renewal":
        *_, need, T = _reference_renewal(model.law, ref, n, (1.0, 100.0), 0)
    else:
        _, _, T, need = _reference_walk(model.law, ref, n, STOP_RULES[kind])
    counts, live = _step_counts(T)
    assert counts[-1] == need
    few = (live <= 32).nonzero()[0]
    at = int(counts[few[few.size // 2]])
    assert int(counts[few[0]]) < at < need
    walk_constants(step_budget=at - 1)
    with pytest.raises(BudgetError) as err:
        run()
    assert str(err.value) == (f"step budget {at - 1:g} exceeded at {at:g} "
                              "increments; the model may not drift to -infinity")
    walk_constants(step_budget=need)
    assert _steps(run()) == need


def test_replication_count_must_be_positive(default_model):
    with pytest.raises(PreconditionError):
        estimate_sup_many(default_model, 0, seed=1)


# ----------------------------------------------------------------------
# cycle ensembles
# ----------------------------------------------------------------------

def _stats_of_raw(res, probes) -> walksim.CycleStats:
    """The aggregates of a raw run's columns; every sum is an exact
    integer, so it does not depend on how the run split its cycles."""
    tau = res.tau
    return walksim.CycleStats(
        cycles=tau.size, steps=int(tau.sum()), tau_sq_sum=int(np.dot(tau, tau)),
        probe_xs=probes,
        probe_hits=np.array([np.count_nonzero(res.m_tau > x) for x in probes],
                            dtype=np.int64))


def _assert_same_stats(got, want):
    for f in dataclasses.fields(walksim.CycleStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.tolist() == b.tolist(), f.name
        else:
            assert a == b, f.name


def _assert_stats_match_raw(res, n, probes):
    st_ = res.stats
    assert st_.cycles == n
    assert np.all(res.tau >= 1) and np.all(res.chi > 0.0)
    assert np.all(res.m_tau >= 0.0)
    assert isinstance(st_.tau_sq_sum, int)
    _assert_same_stats(st_, _stats_of_raw(res, probes))
    assert st_.tau_mean == int(res.tau.sum()) / n
    assert st_.tau_se > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_cycle_aggregates_and_raw_columns_agree(default_model, workers):
    # the second probe set is unsorted and repeats a probe, and its 0.0
    # ties every cycle whose first step falls: a maximum equal to a
    # probe does not pass it
    for probes in ((2.0, 10.0), (10.0, 0.0, 2.0, 2.0)):
        res = simulate_cycles(default_model, 20000, seed=7, workers=workers,
                              probes=probes, keep_raw=True)
        _assert_stats_match_raw(res, 20000, probes)


@pytest.mark.parametrize("workers", [1, 2])
def test_chunked_shards_keep_stats_stream_and_budget(default_model, monkeypatch,
                                                     walk_constants, workers):
    monkeypatch.setattr(walksim, "CHUNK", 4096)
    res = simulate_cycles(default_model, 10000, seed=7, workers=workers,
                          probes=(2.0, 10.0), keep_raw=True)
    _assert_stats_match_raw(res, 10000, (2.0, 10.0))
    # 3 chunks at 1 worker, 2 per shard at 2: without raw columns the run
    # never sees a tau array, and its aggregates are the raw run's
    flat = simulate_cycles(default_model, 10000, seed=7, workers=workers,
                           probes=(2.0, 10.0))
    assert flat.tau is None
    _assert_same_stats(flat.stats, res.stats)
    # the first chunk of shard 0 is a standalone run of CHUNK cycles
    head = simulate_cycles(default_model, 4096, seed=7, keep_raw=True)
    assert np.array_equal(res.tau[:4096], head.tau)
    assert np.array_equal(res.m_tau[:4096], head.m_tau)
    # the budget covers the whole run, across shards and chunks
    need = res.stats.steps
    walk_constants(step_budget=need)
    again = simulate_cycles(default_model, 10000, seed=7, workers=workers)
    assert again.stats.steps == need
    walk_constants(step_budget=need - 1)
    with pytest.raises(BudgetError):
        simulate_cycles(default_model, 10000, seed=7, workers=workers)


# the sup and ladder drivers run at a barrier of 100
DRIVERS = {
    "cycles": lambda m, **kw: simulate_cycles(m, 10000, seed=7, keep_raw=True, **kw),
    "sup": lambda m, **kw: estimate_sup_many(m, 4000, seed=7, **kw),
    "ladder": lambda m, **kw: sample_ladder_many(m, 4000, seed=7, **kw),
    "renewal": lambda m, **kw: renewal_estimate(m, (1.0, 10.0), reps=2000, seed=9,
                                                raw_reps=50, **kw),
}


def _steps(result):
    return getattr(result, "stats", result).steps


def _arrays(result):
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


def _record_tapes(monkeypatch) -> list:
    """Record every tape opened, in order."""
    tapes = []
    init = _UniformTape.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)
    monkeypatch.setattr(_UniformTape, "__init__", recording)
    return tapes


@pytest.mark.parametrize("driver", DRIVERS)
def test_one_shard_runs_draw_the_same_with_or_without_read_ahead(
        driver, monkeypatch, walk_constants):
    walk_constants(barrier=100.0)
    tapes = _record_tapes(monkeypatch)
    runs = []
    for spare in (False, True):
        monkeypatch.setattr(walksim, "_spare_cpu", lambda spare=spare: spare)
        runs.append(DRIVERS[driver](spec_to_model(DEFAULT_MODEL)))
    assert [t._helper is not None for t in tapes] == [True]
    assert _steps(runs[0]) == _steps(runs[1])
    assert all(np.array_equal(a, b)
               for a, b in zip(_arrays(runs[0]), _arrays(runs[1]), strict=True))


def test_read_ahead_runs_on_one_shard_with_a_spare_cpu(monkeypatch):
    tapes = _record_tapes(monkeypatch)
    monkeypatch.setattr(walksim, "_spare_cpu", lambda: True)
    simulate_cycles(spec_to_model(DEFAULT_MODEL), 2000, seed=1, workers=2)
    assert tapes == []
    lognormal = spec_to_model("mix(0.5: lognormal(mu=0, sigma=1), "
                              "0.5: neg(pareto(alpha=0.5, kappa=1)))")
    simulate_cycles(lognormal, 2000, seed=1)
    simulate_cycles(spec_to_model(DEFAULT_MODEL), 2000, seed=1)
    assert [t._helper is not None for t in tapes] == [True, True]
    monkeypatch.setattr(walksim, "_spare_cpu", lambda: False)
    simulate_cycles(spec_to_model(DEFAULT_MODEL), 2000, seed=1)
    assert tapes[2:] == []


@pytest.mark.parametrize("driver", ["sup", "renewal"])
def test_a_one_shard_run_over_its_budget_joins_its_helper(driver, monkeypatch,
                                                          walk_constants):
    tapes = _record_tapes(monkeypatch)
    monkeypatch.setattr(walksim, "_spare_cpu", lambda: True)
    run = {"sup": lambda m: estimate_sup_many(m, 5000, seed=2),
           "renewal": lambda m: renewal_estimate(m, (1.0, 10.0), reps=5000,
                                                 seed=2)}[driver]
    walk_constants(step_budget=30000)
    with pytest.raises(BudgetError):
        run(spec_to_model(DEFAULT_MODEL))
    assert tapes[0]._helper is not None
    assert not tapes[0]._helper.is_alive()
    assert tapes[0].pos > 30000  # it ran out mid-walk, past the first step


@pytest.mark.parametrize("driver", DRIVERS)
def test_budget_covers_all_shards(driver, walk_constants):
    walk_constants(barrier=100.0)
    run = DRIVERS[driver]
    model = spec_to_model(DEFAULT_MODEL)
    first = run(model, workers=2)
    need = _steps(first)
    walk_constants(step_budget=need)
    again = run(model, workers=2)
    assert _steps(again) == need
    assert all(np.array_equal(a, b)
               for a, b in zip(_arrays(again), _arrays(first), strict=True))
    walk_constants(step_budget=need - 1)
    with pytest.raises(BudgetError, match="over all shards"):
        run(model, workers=2)


def test_the_step_budget_reaches_spawned_workers(monkeypatch, walk_constants):
    # a spawned worker imports walksim afresh, with its own budget of
    # 1e9; it stops at the budget set here only if the budget travels in
    # its shard's arguments, and then raises the shard's own message,
    # not the run-wide one
    monkeypatch.setattr(walksim, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    walk_constants(barrier=100.0)
    model = spec_to_model(DEFAULT_MODEL)
    size = _shard_sizes(40, 2)[0]
    ref = RngStream(4, walksim.SUP, 0).generator()
    *_, need = _reference_walk(model.law, ref, size, STOP_RULES["sup"])
    walk_constants(step_budget=need - 1)
    with pytest.raises(BudgetError) as err:
        estimate_sup_many(model, 40, seed=4, workers=2)
    assert str(err.value).startswith(f"step budget {need - 1:g} exceeded at ")
    assert "over all shards" not in str(err.value)


def test_the_barrier_reaches_spawned_workers(monkeypatch, walk_constants):
    # a spawned worker imports walksim afresh, with its own barrier of
    # 1e4; its ladder heights are censored at the barrier set here only
    # if the barrier travels in its shard's arguments
    monkeypatch.setattr(walksim, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    walk_constants(barrier=100.0)
    model = spec_to_model(DEFAULT_MODEL)
    batch = sample_ladder_many(model, 400, seed=6, workers=2)
    psi, censored = [], []
    for i, size in enumerate(_shard_sizes(400, 2)):
        ref = RngStream(6, walksim.LADDER, i).generator()
        S, *_ = _reference_walk(model.law, ref, size, STOP_RULES["ladder"])
        psi.append(np.where(S > 0.0, S, 0.0))
        censored.append(S <= 0.0)
    assert np.any(batch.censored)
    assert np.array_equal(batch.censored, np.concatenate(censored))
    assert np.array_equal(batch.psi, np.concatenate(psi))


def test_the_package_exports_no_copy_of_the_barrier():
    # a package-level copy would be a second name to set, and setting it
    # would leave the barrier that the drivers read unchanged
    assert not hasattr(htwk, "BARRIER_DEFAULT")
    assert walksim.BARRIER_DEFAULT == 1e4


def test_hand_built_model_runs_on_workers(walk_constants):
    # workers receive the model itself, so it needs no spec text
    law = Mixture(weights=(0.5, 0.5),
                  children=(Pareto(alpha=1.5, kappa=1.0),
                            Neg(Pareto(alpha=0.5, kappa=1.0))))
    built = IncrementModel(law=law)
    assert built.spec_text == ""
    walk_constants(barrier=100.0)
    _assert_same_worker_runs(built, spec_to_model(DEFAULT_MODEL))


def test_sampled_model_runs_on_workers(walk_constants):
    # a law that has sampled carries its filled caches through pickling
    warm = spec_to_model(DEFAULT_MODEL)
    warm.sample(RngStream(1, 9, 0).generator(), 16)
    warm = pickle.loads(pickle.dumps(warm))
    assert "_draw_rules" in vars(warm)
    walk_constants(barrier=100.0)
    _assert_same_worker_runs(warm, spec_to_model(DEFAULT_MODEL))


def _assert_same_worker_runs(model, reference):
    # both models fresh, so each sup run draws its ensemble
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
    # m_tau >= 0, so the maxima that do not pass the probe at 0 are 0
    res = simulate_cycles(default_model, 40000, seed=19, probes=(0.0,))
    rate = (res.stats.cycles - res.stats.probe_hits[0]) / res.stats.cycles
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


def test_ladder_kernel_has_the_light_control_anchors(light_model, walk_constants):
    # a censored walk is 60 below 0, from where it ascends with
    # probability 0.75 exp(-15) = 2e-7
    walk_constants(barrier=60.0)
    batch = sample_ladder_many(light_model, 20000, seed=102)
    assert abs(batch.censor_rate - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / 20000)
    assert _ks_law_holds(batch.uncensored_psi(), lambda x: -np.expm1(-x))


def test_renewal_kernel_has_the_light_control_anchors(light_model):
    est = renewal_estimate(light_model, (1.0, 4.0, 16.0), reps=4000, seed=103)
    want = 1.0 + 0.5 * np.array(est.xs)
    assert np.all(np.abs(est.h_values - want) < 4.0 * est.h_se)


def test_sup_kernel_has_the_light_control_anchors(light_model, walk_constants):
    # a record after the walk falls 60 below its maximum has probability
    # 0.75 exp(-15) = 2e-7; the default barrier of 1e4 would cost about
    # 2e4 steps a walk
    walk_constants(barrier=60.0)
    batch = estimate_sup_many(light_model, 10000, seed=104)
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walksim, "BARRIER_DEFAULT", 60.0)
        return sample_ladder_many(memoryless_model, MEMORYLESS_LADDER_REPS,
                                  seed=MEMORYLESS_SEED)


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
                                                       memoryless_ladder,
                                                       walk_constants):
    walk_constants(barrier=60.0)
    sup = estimate_sup_many(memoryless_model, 10000, seed=MEMORYLESS_SEED)
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
    stats, p_lo, p_hi = mtau_tail_estimate(default_model, (2.0, 10.0, 50.0),
                                           cycles=30000, seed=13)
    assert stats.cycles == 30000
    assert stats.probe_xs == (2.0, 10.0, 50.0)
    assert len(stats.probe_hits) == len(p_lo) == len(p_hi) == 3
    p_prev = 1.0
    for hits, lo, hi in zip(stats.probe_hits.tolist(), p_lo, p_hi):
        p_hat = hits / 30000
        assert hits == round(p_hat * 30000)
        assert 0.0 <= lo <= p_hat <= hi <= 1.0
        assert (lo, hi) == wilson_interval(hits, 30000)
        assert p_hat <= p_prev
        p_prev = p_hat


# ----------------------------------------------------------------------
# truncated all-time maximum
# ----------------------------------------------------------------------

def test_sup_batch_probability_and_flags(default_model):
    batch = estimate_sup_many(default_model, 20000, seed=5)
    assert batch.m_values.size == 20000
    assert np.all(batch.m_values >= 0.0)
    p = batch.p_hat
    assert 0.0 < p < 1.0
    lo, hi = batch.p_interval()
    assert lo < p < hi
    assert batch.escape_estimate < 0.01
    assert np.array_equal(batch.hit_zero, batch.m_values == 0.0)


def test_a_repeated_sup_call_shares_its_ensemble_read_only(walk_constants):
    walk_constants(barrier=100.0)
    model = spec_to_model(DEFAULT_MODEL)
    first = estimate_sup_many(model, 500, seed=11)
    again = estimate_sup_many(model, 500, seed=11)
    assert first.steps > 0 and again.steps == 0
    assert again.m_values is first.m_values
    assert not again.m_values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        again.m_values[0] = 1.0
    # a fresh model of the same spec draws the same values again
    fresh = estimate_sup_many(spec_to_model(DEFAULT_MODEL), 500, seed=11)
    assert fresh.steps == first.steps
    assert np.array_equal(fresh.m_values, first.m_values)


SUP_ARGS = {"reps": 500, "seed": 11, "workers": 1}


@pytest.mark.parametrize("arg, other", [("reps", 499), ("seed", 12),
                                        ("workers", 2)])
def test_a_sup_call_with_any_argument_changed_draws_again(arg, other,
                                                          walk_constants):
    walk_constants(barrier=100.0)
    model = spec_to_model(DEFAULT_MODEL)
    estimate_sup_many(model, **SUP_ARGS)
    changed = estimate_sup_many(model, **{**SUP_ARGS, arg: other})
    assert changed.steps > 0
    # the changed call replaced the stored ensemble
    assert estimate_sup_many(model, **SUP_ARGS).steps > 0


@pytest.mark.parametrize("constant, other", [("barrier", 99.0),
                                             ("step_budget", 10 ** 8)])
def test_a_sup_call_with_a_changed_constant_draws_again(constant, other,
                                                        walk_constants):
    stored = {"barrier": 100.0, "step_budget": walksim.STEP_BUDGET_DEFAULT}
    walk_constants(**stored)
    model = spec_to_model(DEFAULT_MODEL)
    estimate_sup_many(model, **SUP_ARGS)
    walk_constants(**{constant: other})
    assert estimate_sup_many(model, **SUP_ARGS).steps > 0
    # the changed call replaced the stored ensemble
    walk_constants(**stored)
    assert estimate_sup_many(model, **SUP_ARGS).steps > 0


def test_the_sup_memo_holds_one_ensemble_per_model_and_dies_with_it(
        walk_constants):
    walk_constants(barrier=100.0)
    model, other = spec_to_model(DEFAULT_MODEL), spec_to_model(DEFAULT_MODEL)
    gc.collect()
    before = len(walksim._SUP_MEMO)
    for seed in (1, 2, 3):
        estimate_sup_many(model, 50, seed=seed)
    estimate_sup_many(other, 50, seed=1)
    assert len(walksim._SUP_MEMO) == before + 2
    assert walksim._SUP_MEMO[model][0] == (50, 3, 100.0, 1,
                                           walksim.STEP_BUDGET_DEFAULT)
    del model
    gc.collect()
    assert len(walksim._SUP_MEMO) == before + 1
    assert other in walksim._SUP_MEMO


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
    ladder = sample_ladder_many(default_model, 20000, seed=5)
    sup = estimate_sup_many(default_model, 20000, seed=5)
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
    assert est.raw_reps == 0 and est.raw_points.size == 0


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
