"""In-memory span tracer that wraps htwk's public functions from outside.

Each wrapped function records a span (name, start, end, parent) and,
where the function's result carries one, a work count: draws for
sampling, panels for quadrature, steps for the walk kernels.  Spans stay
in memory; `derive_metrics` turns the spans of one traced repetition
into the per-layer metrics, and `self_times` into self times (a span's
duration minus that of its direct children).

A name is patched everywhere an htwk module holds it, so a call goes
through the wrapper whichever module makes it (for example
`htwk.verify.estimate_sup_many` as well as `htwk.walksim.estimate_sup_many`).
Worker processes of the sharded walk path are not traced: their spans
stay in the worker's memory and are discarded with it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# report function -> verify block name, for the CheckBlock.runtime metrics
REPORT_BLOCKS = {
    "cycle_max_report": "main",
    "renewal_bound_report": "renewal",
    "ladder_identity_report": "ladder_sum",
    "gplus_tail_report": "ladder_tail",
    "class_reduction_report": "classes",
}

WALK_RESULTS = {"simulate_cycles": "cycles", "estimate_sup_many": "sup",
                "sample_ladder_many": "ladder"}


def _walk_steps(name):
    kind = WALK_RESULTS[name]

    def hook(tracer, span, result):
        steps = result.stats.steps if kind == "cycles" else result.steps
        span[4] = int(steps)
    return hook


def _quad_panels(tracer, span, result):
    span[4] = int(result.panels)
    if not result.converged:
        tracer.counters["quad.unconverged"] += 1


def _draws(tracer, span, result):
    span[4] = int(result.size)


def _block_runtime(block_name):
    def hook(tracer, span, result):
        tracer.counters[f"verify.{block_name}.s"] += float(result.runtime)
    return hook


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, work or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(self, span, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, name: str, on_result=None):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "htwk" and not mod_name.startswith("htwk."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, on_result=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__,
                                                       on_result)))
        else:
            self._set(cls, attr, self.wrap(name, raw, on_result))

    def install(self) -> None:
        """Wrap the public functions of every htwk layer."""
        # load every module that binds these names before patching them
        import htwk.cli  # noqa: F401
        from htwk import _quad, classlab, distspec, serialize, tailmath, verify, walksim

        self._patch_function(distspec, "spec_to_model", "distspec.spec_to_model")
        self._patch_method(tailmath.IncrementModel, "sample", "tailmath.sample",
                           _draws)
        for attr in ("criterion_K", "integrated_tail", "integrated_tail_curve",
                     "renewal_integrated_tail", "renewal_integrated_tail_forms",
                     "truncated_neg_mean", "mu_plus", "sstar_integral",
                     "conv_tail", "self_conv_tail"):
            self._patch_function(tailmath, attr, f"tailmath.{attr}")
        for attr in ("from_tail", "from_model", "from_samples", "convolve",
                     "particles"):
            self._patch_method(tailmath.GridDistribution, attr,
                               f"tailmath.grid.{attr}")
        for attr in ("stieltjes_vs_tail", "stieltjes_vs_monotone", "improper_gl"):
            self._patch_function(_quad, attr, f"quad.{attr}", _quad_panels)
        for attr in ("membership_curve", "measure_equivalence_check",
                     "majorant_check", "small_increment_criterion"):
            self._patch_function(classlab, attr, f"classlab.{attr}")
        for attr in ("simulate_cycles", "estimate_sup_many", "sample_ladder_many"):
            self._patch_function(walksim, attr, f"walksim.{attr}",
                                 _walk_steps(attr))
        for attr in ("renewal_estimate", "mtau_tail_estimate"):
            self._patch_function(walksim, attr, f"walksim.{attr}")
        self._patch_function(verify, "run_verification", "verify.run_verification")
        for attr, block in REPORT_BLOCKS.items():
            self._patch_function(verify, attr, f"verify.{attr}",
                                 _block_runtime(block))
        for attr in ("write_json", "write_curve_csv"):
            self._patch_function(serialize, attr, f"serialize.{attr}")

        pool_cls = walksim.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            self.counters["walksim.pool_starts"] += 1
            return pool_cls(*args, **kwargs)
        self._set(walksim, "ProcessPoolExecutor", counted_pool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# accounting over the spans of one traced repetition
# ----------------------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def _inclusive(spans) -> tuple[dict, dict, dict]:
    """Per name: time of outermost occurrences, call count, summed work."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for name, start, end, parent, n in spans:
        calls[name] += 1
        if n is not None:
            work[name] += n
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            seconds[name] += end - start
    return seconds, calls, work


def _nearest_walk(spans, i: int) -> str | None:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith("walksim."):
            return spans[p][0]
        p = spans[p][3]
    return None


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def derive_metrics(spans, counters, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by their benchmark names."""
    seconds, calls, work = _inclusive(spans)
    m: dict[str, float] = {}

    for f in ("simulate_cycles", "estimate_sup_many", "sample_ladder_many",
              "renewal_estimate"):
        m[f"walksim.{f}.s"] = seconds.get(f"walksim.{f}", 0.0)
        m[f"walksim.{f}.calls"] = calls.get(f"walksim.{f}", 0)
    for f, kind in WALK_RESULTS.items():
        m[f"walksim.{kind}.steps"] = work.get(f"walksim.{f}", 0)
    cyc_s = m["walksim.simulate_cycles.s"]
    m["walksim.cycles.steps_per_s"] = (m["walksim.cycles.steps"] / cyc_s
                                       if cyc_s > 0 else 0.0)
    m["walksim.pool_starts"] = int(counters.get("walksim.pool_starts", 0))

    draws = work.get("tailmath.sample", 0)
    sample_s = seconds.get("tailmath.sample", 0.0)
    m["tailmath.sample.calls"] = calls.get("tailmath.sample", 0)
    m["tailmath.sample.draws"] = draws
    m["tailmath.sample.s"] = sample_s
    m["tailmath.sample.draws_per_s"] = draws / sample_s if sample_s > 0 else 0.0

    # walk time outside sampling, and steps kept per draw made, both over
    # the outermost walksim spans and the sampling nested in them
    walk_s = sum(end - start for i, (name, start, end, _, _) in enumerate(spans)
                 if name.startswith("walksim.") and _nearest_walk(spans, i) is None)
    walk_sample_s = 0.0
    stepped_draws = 0
    for i, (name, start, end, _, n) in enumerate(spans):
        if name != "tailmath.sample":
            continue
        owner = _nearest_walk(spans, i)
        if owner is None:
            continue
        walk_sample_s += end - start
        if owner.split(".", 1)[1] in WALK_RESULTS:
            stepped_draws += n
    m["walksim.overhead_s"] = walk_s - walk_sample_s
    steps = sum(m[f"walksim.{k}.steps"] for k in WALK_RESULTS.values())
    m["walksim.useful_draw_ratio"] = (steps / stepped_draws
                                      if stepped_draws else 0.0)

    for f in ("criterion_K", "integrated_tail", "integrated_tail_curve",
              "renewal_integrated_tail"):
        m[f"tailmath.{f}.s"] = seconds.get(f"tailmath.{f}", 0.0)
    m["tailmath.renewal_integrated_tail_forms.calls"] = calls.get(
        "tailmath.renewal_integrated_tail_forms", 0)
    for f in ("from_tail", "convolve", "particles"):
        m[f"tailmath.grid.{f}.s"] = seconds.get(f"tailmath.grid.{f}", 0.0)
        m[f"tailmath.grid.{f}.calls"] = calls.get(f"tailmath.grid.{f}", 0)

    for f in ("stieltjes_vs_tail", "stieltjes_vs_monotone", "improper_gl"):
        m[f"quad.{f}.calls"] = calls.get(f"quad.{f}", 0)
        m[f"quad.{f}.panels"] = work.get(f"quad.{f}", 0)
        m[f"quad.{f}.s"] = seconds.get(f"quad.{f}", 0.0)
    m["quad.unconverged"] = int(counters.get("quad.unconverged", 0))

    for f in ("membership_curve", "measure_equivalence_check", "majorant_check",
              "small_increment_criterion"):
        m[f"classlab.{f}.s"] = seconds.get(f"classlab.{f}", 0.0)

    for block in REPORT_BLOCKS.values():
        m[f"verify.{block}.s"] = float(counters.get(f"verify.{block}.s", 0.0))

    m["distspec.spec_to_model.s"] = seconds.get("distspec.spec_to_model", 0.0)
    for f in ("write_json", "write_curve_csv"):
        m[f"serialize.{f}.s"] = seconds.get(f"serialize.{f}", 0.0)

    m["trace.wall_s"] = wall_s
    m["trace.top_level_share"] = (top_level_seconds(spans) / wall_s
                                  if wall_s > 0 else 0.0)
    return m
