"""Seeded, parallel Monte Carlo for the walk and its cycle quantities.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, stream index), so every aggregate is bit-identical for
a fixed (seed, worker count, configuration) triple.  One runner,
`_run_sharded`, splits a batch into shards: each worker receives the
model and its shard's generator, every kernel returns its step count
last, and the run-wide step budget, `STEP_BUDGET_DEFAULT`, is checked
there once.  Results are reduced in stream-index order regardless of
scheduling.  A run of one shard, on a process whose CPU affinity holds
at least two CPUs, reads its stream through a `tailmath._UniformTape`
whose helper thread draws chunks of it ahead of the walk; the walk
never waits for the helper and draws a chunk that is not ready itself
at the chunk's stream position, so no draw depends on which thread
computed it.  Runs of several shards draw from their generators on the
walk's thread, as does a kernel handed a bare generator.

One stepper, `_walk`, moves every batch of walks: it steps them in
lockstep and stops each at the first step where the kernel's stop rule
holds (a first descent for cycles, a fall of `barrier` below the
running maximum for sup, a strict ascent or a fall to -barrier for
ladder).  Each kernel's one hook sees the walks that stop at a step
and keeps only what its caller reads: cycles fold them into the
shard's aggregates (their count, exact integer length moments and
probe exceedances) and write per-cycle columns only for a raw run; sup
keeps the maxima and ladder the end positions.  The renewal's hook
restarts a stopped walk from 0 in its slot while its replication goes
on, so a run lasts as long as its longest replication.  Each lockstep
step makes exactly one `model.sample` call for all live walks, in
start order, down to the last live walk, and whether a walk is on its
first cycle or a later one.  The stream's layout is the order in which
those calls spend its uniforms, not how they are read, so a tape and a
bare generator give the same draws and leave the generator in the
same state.  The steps keep a compact
active set: finished walks are dropped from the working arrays, so
memory tracks the surviving population, not the step count.  They
leave by index gathers (`nonzero`, then `take`), several times cheaper
than boolean indexing on the random masks that stop rules give, and
until the first walk retires a walk's position is its slot.  A cycle
shard consumes its stream CHUNK cycles at a time and returns
aggregates, plus raw columns only on request; without them it holds no
per-cycle array.

Each kernel has one entry, its batch driver (`simulate_cycles`,
`estimate_sup_many`, `sample_ladder_many`, `renewal_estimate`); a
single draw is row 0 of a one-replication batch on the same stream.
`estimate_sup_many` keeps the last ensemble it drew for each model
object, weakly keyed so it dies with the model: a call that repeats
the stored arguments returns the same read-only values with 0 steps,
since it draws nothing.
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, PreconditionError
from .tailmath import IncrementModel, _UniformTape

# stream purposes: one lane per experiment family
CYCLES, SUP, LADDER, RENEWAL, NU = range(5)

STEP_BUDGET_DEFAULT = 10 ** 9
# cycles a shard simulates per kernel call; part of each shard's stream layout
CHUNK = 1 << 20
BARRIER_DEFAULT = 1e4
ESCAPE_FLAG_LEVEL = 1e-4

Z95 = 1.959963984540054
KS_COEF_95 = 1.358


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream handle; (seed, purpose, index) is the key."""

    seed: int
    purpose: int
    index: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise PreconditionError("seed must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.purpose, self.index))
        return np.random.Generator(np.random.Philox(ss))


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

@dataclass
class CycleStats:
    """Streaming aggregates over simulated cycles.  A cycle of length
    tau draws tau increments, so `steps` is also the sum of the tau."""

    cycles: int = 0
    steps: int = 0
    tau_sq_sum: int = 0
    probe_xs: tuple[float, ...] = ()
    probe_hits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def merge(self, other: "CycleStats") -> None:
        if self.probe_xs != other.probe_xs:
            raise ValueError("cannot merge stats with different probes")
        self.cycles += other.cycles
        self.steps += other.steps
        self.tau_sq_sum += other.tau_sq_sum
        self.probe_hits = self.probe_hits + other.probe_hits

    @property
    def tau_mean(self) -> float:
        return self.steps / self.cycles

    @property
    def tau_se(self) -> float:
        n = self.cycles
        var = self.tau_sq_sum / n - self.tau_mean ** 2
        return math.sqrt(max(var, 0.0) / n)


@dataclass
class CycleResult:
    stats: CycleStats
    tau: np.ndarray | None = None
    m_tau: np.ndarray | None = None
    chi: np.ndarray | None = None


@dataclass
class SupBatch:
    m_values: np.ndarray
    barrier: float
    steps: int

    @property
    def hit_zero(self) -> np.ndarray:
        return self.m_values == 0.0

    @property
    def p_hat(self) -> float:
        return float(np.mean(self.hit_zero))

    def p_interval(self) -> tuple[float, float]:
        return wilson_interval(int(self.hit_zero.sum()), self.m_values.size)

    @property
    def escape_estimate(self) -> float:
        """Fraction of records at or above the barrier: proxy for the
        probability that stopping missed a later record."""
        return float(np.mean(self.m_values >= self.barrier))

    @property
    def bias_flag(self) -> bool:
        return self.escape_estimate > ESCAPE_FLAG_LEVEL


@dataclass
class LadderBatch:
    psi: np.ndarray
    censored: np.ndarray
    steps: int

    @property
    def censor_rate(self) -> float:
        return float(np.mean(self.censored))

    def uncensored_psi(self) -> np.ndarray:
        return self.psi[~self.censored]


@dataclass
class RenewalEstimate:
    xs: tuple[float, ...]
    h_values: np.ndarray
    h_se: np.ndarray
    steps: int
    raw_points: np.ndarray
    raw_reps: int


# ----------------------------------------------------------------------
# batch kernels (single stream)
# ----------------------------------------------------------------------

def _walk(model: IncrementModel, gen: np.random.Generator | _UniformTape,
          n: int, stop, stopped, step_budget: int) -> int:
    """Step n walks from 0 in lockstep; each stops at the first step
    where stop(S, M) holds for its position S and running maximum M.
    Each step draws for every live walk, down to the last one, in one
    `model.sample` call, from a Philox generator or from a run's tape
    of one.

    stopped(slots, S, M, t) is called once per step on the walks that
    stop there, with their slots (0 to n-1) in start order, their S and
    M, and the step t.  It keeps what its kernel reads and returns None,
    or a boolean array: a walk marked True starts again from S = M = 0
    in its slot at the next step, and the others retire.  S and M are
    gathered for the call, so a hook may reorder them.  Cycles add
    the stopped walks to their aggregates (and to raw columns on
    request), sup keeps M, ladder S; the renewal's hook is its restart
    rule.

    Returns the number of increments drawn.
    """
    S = np.zeros(n)
    Mx = np.zeros(n)
    # the live walks' slots; None until the first walk retires, while
    # they are 0 to n-1, so a position is its own slot
    idx = None
    steps = 0
    t = 0  # walks move in lockstep, so every live walk has taken t steps
    while S.size:
        # in place, so the step's draws are gone before the live set is
        # compacted
        S += model.sample(gen, S.size)
        steps += S.size
        _check_budget(steps, step_budget)
        t += 1
        np.maximum(Mx, S, out=Mx)
        done = stop(S, Mx)
        j = done.nonzero()[0]
        if not j.size:
            continue
        again = stopped(j if idx is None else idx.take(j), S.take(j),
                        Mx.take(j), t)
        if again is not None:
            r = j[again]
            S[r] = 0.0
            Mx[r] = 0.0
            done[r] = False
            if r.size == j.size:
                continue
        del j
        k = np.logical_not(done, out=done).nonzero()[0]
        del done
        S = S.take(k)
        Mx = Mx.take(k)
        idx = k if idx is None else idx.take(k)
    return steps


def _check_budget(steps: int, step_budget: int, scope: str = "") -> None:
    if steps > step_budget:
        raise BudgetError(
            f"step budget {step_budget:g} exceeded at {steps:g} "
            f"increments{scope}; the model may not drift to -infinity")


def _cycles_shard(model: IncrementModel,
                  gen: np.random.Generator | _UniformTape, n: int,
                  probes: tuple[float, ...], keep_raw: bool, step_budget: int
                  ) -> tuple[CycleStats, tuple | None, int]:
    """n cycles from one stream, CHUNK at a time, under one step budget.

    Each cycle joins the aggregates at the step t where it ends: t*t to
    the exact integer `tau_sq_sum`, and its maximum to the probe hits.
    Returns the aggregates, the raw (tau, m_tau, chi) columns in start
    order under keep_raw (else None) and the steps.
    """
    stats = CycleStats(probe_xs=probes,
                       probe_hits=np.zeros(len(probes), dtype=np.int64))
    raw = ((np.empty(n, dtype=np.int64), np.empty(n), np.empty(n))
           if keep_raw else None)
    start = 0  # the first cycle of the chunk being walked

    def stopped(slots, S, M, t):
        k = slots.size
        stats.cycles += k
        stats.tau_sq_sum += t * t * k
        if keep_raw:
            tau, m_tau, chi = raw
            at = slots + start
            tau[at] = t
            m_tau[at] = M
            chi[at] = -S
        if probes:
            M.sort()  # the hook's own gather; one search counts every probe
            stats.probe_hits += k - M.searchsorted(probes, "right")

    for start in range(0, n, CHUNK):
        stats.steps += _walk(model, gen, min(CHUNK, n - start),
                             lambda S, M: S < 0.0, stopped,
                             step_budget - stats.steps)
    return stats, raw, stats.steps


def _sup_kernel(model: IncrementModel, gen: np.random.Generator | _UniformTape,
                n: int, barrier: float, step_budget: int
                ) -> tuple[np.ndarray, int]:
    """Running maxima stopped once the walk falls `barrier` below them."""
    m_values = np.empty(n)

    def stopped(slots, S, M, t):
        m_values[slots] = M

    steps = _walk(model, gen, n, lambda S, M: S <= M - barrier, stopped,
                  step_budget)
    return m_values, steps


def _ladder_kernel(model: IncrementModel,
                   gen: np.random.Generator | _UniformTape, n: int,
                   barrier: float, step_budget: int
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """First strict ascent height psi, or censoring at -barrier."""
    end = np.empty(n)

    def stopped(slots, S, M, t):
        end[slots] = S

    steps = _walk(model, gen, n, lambda S, M: (S > 0.0) | (S <= -barrier),
                  stopped, step_budget)
    up = end > 0.0
    return np.where(up, end, 0.0), ~up, steps


def _renewal_kernel(model: IncrementModel,
                    gen: np.random.Generator | _UniformTape, reps: int,
                    xs: tuple[float, ...], step_budget: int, raw_reps: int = 0
                    ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Renewal counts of the descent ladder heights chi.

    Each replication is one continuing walk: when a cycle ends at S < 0,
    its chi-sum grows by chi = -S, and while the sum is at or below the
    last probe the walk starts its next cycle from 0 in the same slot;
    otherwise it leaves.

    Returns (counts matrix probes x reps, raw partial-sum points from
    the first raw_reps replications in the order they arise, how many
    replications that is, steps).  Counts exclude the n=0 term; callers
    add 1.
    """
    xs_arr = np.asarray(xs, dtype=float)
    last = xs_arr.size
    cum = np.zeros(reps)
    # hits[j, r]: replication r's partial sums with exactly j probes
    # below them; row `last` takes each replication's leaving sum
    hits = np.zeros((last + 1, reps), dtype=np.int64)
    flat_hits = hits.reshape(-1)
    raw: list[np.ndarray] = []

    def renew(slots: np.ndarray, S: np.ndarray, M: np.ndarray,
              t: int) -> np.ndarray:
        c = cum[slots] - S
        cum[slots] = c
        level = xs_arr.searchsorted(c)
        again = level < last  # at or below the last probe
        at = level * reps
        at += slots
        flat_hits[at] += 1  # one stop per slot and step, so no index repeats
        if raw_reps:
            raw.append(c[again & (slots < raw_reps)])
        return again

    steps = _walk(model, gen, reps, lambda S, M: S < 0.0, renew, step_budget)
    raw_points = np.concatenate(raw) if raw else np.empty(0)
    return hits[:last].cumsum(axis=0), raw_points, min(raw_reps, reps), steps


# ----------------------------------------------------------------------
# sharded drivers
# ----------------------------------------------------------------------

def _require_negative_part(model: IncrementModel) -> None:
    if not model.has_negative_part:
        raise PreconditionError(
            "increment law has no negative part; the exit time is infinite")


def _require_run(seed: int, workers: int) -> None:
    """Reject a seed below 0 and a worker count below 1."""
    if seed < 0:
        raise PreconditionError("seed must be nonnegative")
    if workers < 1:
        raise PreconditionError("worker count must be at least 1")


def _shard_sizes(total: int, workers: int) -> list[int]:
    base, extra = divmod(total, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _spare_cpu() -> bool:
    """Whether this process may run on at least two CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _run_sharded(kernel, model: IncrementModel, total: int, seed: int,
                 purpose: int, workers: int, lead: dict | None = None,
                 **kwargs) -> tuple[list, int]:
    """Run kernel(model, gen, size, **kwargs) on each shard's stream;
    shard 0 also receives the keyword arguments in `lead`.  A run of one
    shard hands the kernel a read-ahead tape of its generator where the
    CPUs allow one (see the module docstring).

    Returns the shard results in stream-index order and their summed
    step count, which every kernel returns last.  Every shard receives
    `STEP_BUDGET_DEFAULT` as read at this call and stops at the whole
    budget on its own; the run-wide check here catches the sharded runs
    whose shards each stay within it.
    """
    if total < 1:
        raise PreconditionError("replication count must be at least 1")
    _require_run(seed, workers)
    sizes = _shard_sizes(total, min(int(workers), total))
    gens = [RngStream(seed, purpose, i).generator() for i in range(len(sizes))]
    step_budget = STEP_BUDGET_DEFAULT
    shard_kwargs = [{**kwargs, "step_budget": step_budget} for _ in sizes]
    shard_kwargs[0].update(lead or {})
    if len(sizes) == 1:
        source = gens[0]
        if _spare_cpu():
            source = _UniformTape(model, source, sizes[0])
        try:
            results = [kernel(model, source, sizes[0], **shard_kwargs[0])]
        finally:
            if source is not gens[0]:
                source.close()
    else:
        with ProcessPoolExecutor(max_workers=len(sizes)) as pool:
            futures = [pool.submit(kernel, model, gen, size, **kw)
                       for gen, size, kw in zip(gens, sizes, shard_kwargs)]
            results = [f.result() for f in futures]
    steps = sum(r[-1] for r in results)
    _check_budget(steps, step_budget, " over all shards")
    return results, steps


def simulate_cycles(model: IncrementModel, cycles: int, seed: int,
                    workers: int = 1, probes=(), keep_raw: bool = False
                    ) -> CycleResult:
    """Cycle ensemble with streaming aggregates.

    Raw per-cycle arrays are returned only when keep_raw is set (memory
    is 24 bytes per cycle); aggregates and probe exceedance counts are
    always collected.  `STEP_BUDGET_DEFAULT` bounds the whole run,
    summed over its shards.
    """
    _require_negative_part(model)
    probes = tuple(float(x) for x in probes)
    shards, _ = _run_sharded(_cycles_shard, model, cycles, seed, CYCLES,
                             workers, probes=probes, keep_raw=keep_raw)
    stats = shards[0][0]
    for other, _, _ in shards[1:]:
        stats.merge(other)
    if not keep_raw:
        return CycleResult(stats=stats)
    tau, m_tau, chi = (np.concatenate(col)
                       for col in zip(*(raw for _, raw, _ in shards)))
    return CycleResult(stats=stats, tau=tau, m_tau=m_tau, chi=chi)


# model -> (its last sup call's arguments, the values that call drew)
_SUP_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def estimate_sup_many(model: IncrementModel, reps: int, seed: int,
                      workers: int = 1) -> SupBatch:
    """All-time maxima of `reps` walks on the SUP streams, truncated at
    `BARRIER_DEFAULT` below the running maximum.

    The values are read-only and shared: a call whose arguments, barrier
    and step budget equal the previous call's on the same model object
    returns that call's array with `steps` 0, the increments it drew;
    any other call draws and replaces the stored ensemble.
    """
    _require_negative_part(model)
    barrier = BARRIER_DEFAULT
    key = (reps, seed, barrier, workers, STEP_BUDGET_DEFAULT)
    last = _SUP_MEMO.get(model)
    if last is not None and last[0] == key:
        return SupBatch(m_values=last[1], barrier=barrier, steps=0)
    results, steps = _run_sharded(_sup_kernel, model, reps, seed, SUP, workers,
                                  barrier=barrier)
    m_values = np.concatenate([r[0] for r in results])
    m_values.flags.writeable = False
    _SUP_MEMO[model] = (key, m_values)
    return SupBatch(m_values=m_values, barrier=barrier, steps=steps)


def sample_ladder_many(model: IncrementModel, reps: int, seed: int,
                       workers: int = 1) -> LadderBatch:
    """First strict ascent heights of `reps` walks on the LADDER
    streams, censored at a fall to -`BARRIER_DEFAULT`."""
    results, steps = _run_sharded(_ladder_kernel, model, reps, seed, LADDER,
                                  workers, barrier=BARRIER_DEFAULT)
    return LadderBatch(psi=np.concatenate([r[0] for r in results]),
                       censored=np.concatenate([r[1] for r in results]),
                       steps=steps)


def renewal_estimate(model: IncrementModel, xs, reps: int, seed: int,
                     workers: int = 1, raw_reps: int = 0) -> RenewalEstimate:
    """Estimate the descent renewal function on probes.

    H(x) = 1 + mean count of partial chi-sums at or below x; the n=0
    renewal contributes the leading 1.  Each replication is one
    continuing walk through its descent cycles (see `_renewal_kernel`).
    Raw partial-sum points are collected from the first `raw_reps`
    replications of stream 0.
    """
    xs = tuple(sorted(float(x) for x in xs))
    if any(x < 0 for x in xs):
        raise PreconditionError("renewal probes must be nonnegative")
    if raw_reps < 0:
        raise PreconditionError("raw replication count must be nonnegative")
    _require_negative_part(model)
    results, steps = _run_sharded(_renewal_kernel, model, reps, seed, RENEWAL,
                                  workers, lead={"raw_reps": raw_reps}, xs=xs)
    counts = np.concatenate([r[0] for r in results], axis=1)
    _, raw_points, raw_reps, _ = results[0]
    h = 1.0 + counts.mean(axis=1)
    se = counts.std(axis=1, ddof=1) / math.sqrt(reps) if reps > 1 \
        else np.zeros(len(xs))
    return RenewalEstimate(xs=xs, h_values=h, h_se=se, steps=steps,
                           raw_points=raw_points, raw_reps=raw_reps)


def mtau_tail_estimate(model: IncrementModel, xs, cycles: int, seed: int,
                       workers: int = 1):
    """Exceedances of the cycle maximum with Wilson intervals.

    Returns (stats, p_lo, p_hi): the run's aggregates, whose probe_hits
    count the maxima above each of xs, and each probe's 95% interval.
    """
    xs = tuple(float(x) for x in xs)
    stats = simulate_cycles(model, cycles, seed, workers=workers,
                            probes=xs).stats
    p_lo, p_hi = np.array([wilson_interval(int(k), cycles)
                           for k in stats.probe_hits]).reshape(-1, 2).T
    return stats, p_lo, p_hi


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------

def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one trial")
    ph = k / n
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2.0 * n)) / denom
    half = Z95 * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n)) / denom
    # at the boundary counts the exact endpoints avoid rounding residue
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int) -> float:
    """Large-sample 95% two-sample KS critical distance."""
    return KS_COEF_95 * math.sqrt((n + m) / (n * m))
