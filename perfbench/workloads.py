"""The three benchmark workloads: inputs, the timed operation, the checks.

Every workload reaches htwk only through its command line entry
(`htwk.cli.main`, called in-process) or its public library functions.
Each timed repetition builds its own models, as a fresh `htwk` command
does, so no cache carries over from one repetition to the next.

Checks return (name, passed, detail) triples.  Their number is fixed per
workload (`n_checks`), so a repetition that raises counts every check of
that repetition as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

DEFAULT_MODEL = ("mix(0.5: pareto(alpha=1.5, kappa=1), "
                 "0.5: neg(pareto(alpha=0.5, kappa=1)))")
LIGHT_MODEL = "mix(0.5: exponential(rate=1), 0.5: neg(exponential(rate=0.5)))"
PARETO2 = "pareto(2, 1)"
CASE_B = ("mix(0.5: pareto(alpha=0.8, kappa=1), "
          "0.5: neg(pareto(alpha=0.3, kappa=1)))")
K_DIVERGENT = ("mix(0.5: pareto(alpha=0.4, kappa=1), "
               "0.5: neg(pareto(alpha=0.5, kappa=1)))")

# `--seed n` selects SEEDS[n % len(SEEDS)], where the workload's shipped
# default seed stands first (n = 0) and is followed by the shared list.
# The verify-quick gate (all 13 verdicts pass) is a set of statistical
# tests at reduced scale.  When the benchmark was defined it failed on 11
# of the 41 seeds 0..40: max-law-tail-neutrality on 5, 8, 14, 18, 20, 22,
# 28 and 40, geometric-ladder-sum-identity on 10 and 17, both on 11.  The
# list keeps seeds on which every workload's gate held then, so that a
# failed gate reports a changed result rather than an unlucky draw.
SHARED_SEEDS = (7, 1234, 2026, 0, 1, 2, 3, 4, 6, 9, 12, 13, 15, 16, 19)

VERIFY_QUICK_VERDICTS = (
    "cycle-max-tail-asymptotic", "cycle-max-lower-bound",
    "max-law-tail-neutrality", "renewal-growth-band",
    "geometric-ladder-sum-identity", "ladder-sum-zero-atom",
    "ladder-height-tail-formula", "tail-class-reduction",
    "base-integral-criterion", "base-long-tail", "base-dominated-variation",
    "integrated-tail-convolution-neutrality",
    "integrated-tail-small-increments",
)
CLASS_KINDS = ("L", "D", "S", "Sstar")
FIXTURE_VERDICTS = (("default", DEFAULT_MODEL, True), ("case_b", CASE_B, True),
                    ("k_divergent", K_DIVERGENT, False))


def cli(argv: list[str]) -> int:
    """Run one `htwk` command in-process; returns its exit code."""
    from htwk.cli import main

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(args=argv, prog_name="htwk")
    except SystemExit as e:
        return 0 if e.code is None else e.code
    return 0


def report_verdicts(path: Path) -> dict[str, bool | None]:
    verdicts = {}

    def walk(block):
        verdicts[block["check"]] = block["verdict"]
        for sub in block["subchecks"]:
            walk(sub)
    for block in json.loads(path.read_text())["checks"]:
        walk(block)
    return verdicts


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300) if got != want else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    specs: tuple[str, ...]
    sizes: dict = field(repr=False)
    run: Callable = field(repr=False)
    check: Callable = field(repr=False)
    n_checks: int = 0

    def seed_for(self, n: int) -> int:
        seeds = (self.default_seed,) + SHARED_SEEDS
        return seeds[n % len(seeds)]


# ----------------------------------------------------------------------
# verify-quick: the heavy default model, all five blocks, one worker.
# ROADMAP's headline run.  Walk-kernel overhead dominates: the kernels run
# on 10k-20k walkers and most loop iterations have under 1000 live ones.
# It draws the same estimate_sup_many ensemble three times, and about a
# tenth of its time is quadrature (the classes block).
# ----------------------------------------------------------------------

def _verify_quick_run(seed: int, size: dict, out: Path) -> dict:
    config = ROOT / size["config"]
    if size["overrides"]:
        from htwk.cli import load_config

        cfg = {**load_config(config), **size["overrides"]}
        config = out / "quick-smoke.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    code = cli(["verify", "--config", str(config), "--seed", str(seed),
                "--out", str(out / "verify")])
    return {"exit": code, "report": out / "verify" / "report.json"}


def _verify_quick_check(outputs: dict, size: dict) -> list:
    verdicts = report_verdicts(outputs["report"])
    checks = [("exit code 0", outputs["exit"] == 0, f"exit {outputs['exit']}")]
    for name in VERIFY_QUICK_VERDICTS:
        v = verdicts.get(name, "missing")
        checks.append((f"{name} passes", v is True, f"verdict {v}"))
    return checks


VERIFY_QUICK = Workload(
    name="verify-quick",
    default_seed=42,
    specs=(DEFAULT_MODEL,),
    sizes={"full": {"config": "configs/quick.cfg", "overrides": {}},
           "smoke": {"config": "configs/quick.cfg",
                     "overrides": {"cycles": "100000", "reps": "4000",
                                   "sup_reps": "4000"}}},
    run=_verify_quick_run, check=_verify_quick_check,
    n_checks=1 + len(VERIFY_QUICK_VERDICTS))


# ----------------------------------------------------------------------
# light-control: the exponential negative control, main block only, two
# workers.  The only workload on the sharded ProcessPoolExecutor path:
# millions of walkers per shard, so vector throughput and the transfer of
# results back from the workers matter, not per-iteration overhead.  No
# quadrature.  Its correct answer is a failed verdict, so a change that
# pushes an estimator toward "pass" shows here.
# ----------------------------------------------------------------------

def _light_control_run(seed: int, size: dict, out: Path) -> dict:
    code = cli(["verify", "--config", str(ROOT / size["config"]),
                "--seed", str(seed), "--workers", str(size["workers"]),
                "--cycles", str(size["cycles"]), "--out", str(out / "verify")])
    return {"exit": code, "report": out / "verify" / "report.json"}


def _light_control_check(outputs: dict, size: dict) -> list:
    verdicts = report_verdicts(outputs["report"])
    asym = verdicts.get("cycle-max-tail-asymptotic", "missing")
    lower = verdicts.get("cycle-max-lower-bound", "missing")
    return [("exit code 3", outputs["exit"] == 3, f"exit {outputs['exit']}"),
            ("cycle-max-tail-asymptotic fails", asym is False, f"verdict {asym}"),
            ("cycle-max-lower-bound passes", lower is True, f"verdict {lower}")]


LIGHT_CONTROL = Workload(
    name="light-control",
    default_seed=43,
    specs=(LIGHT_MODEL,),
    sizes={"full": {"config": "configs/light-control.cfg",
                    "cycles": 4_000_000, "workers": 2},
           "smoke": {"config": "configs/light-control.cfg",
                     "cycles": 200_000, "workers": 2}},
    run=_light_control_run, check=_light_control_check, n_checks=3)


# ----------------------------------------------------------------------
# analytic: no cycle simulation.  Quadrature and the grid layer dominate,
# most of it in measure_equivalence_check; the walk kernels only draw the
# 2000-replication renewal estimate behind the empirical measure.
# ----------------------------------------------------------------------

def _analytic_run(seed: int, size: dict, out: Path) -> dict:
    from htwk.cli import parse_probes
    from htwk.classlab import (PROBES_DEFAULT, majorant_check,
                               measure_equivalence_check)
    from htwk.distspec import spec_to_model
    from htwk.tailmath import (GridConfig, GridDistribution, RenewalMeasure,
                               integrated_tail, integrated_tail_curve,
                               truncated_neg_mean)
    from htwk.verify import class_reduction_report
    from htwk.walksim import renewal_estimate

    outputs = {
        "tails": cli(["tails", "--model", DEFAULT_MODEL, "--probes",
                      size["tail_probes"], "--out", str(out / "tails")]),
        "classify": cli(["classify", "--model", PARETO2, "--kinds",
                         ",".join(CLASS_KINDS), "--probes", size["class_probes"],
                         "--out", str(out / "classify")]),
        "tails_dir": out / "tails", "classify_dir": out / "classify",
    }
    outputs["fixtures"] = {name: class_reduction_report(spec_to_model(spec))
                           for name, spec, _ in FIXTURE_VERDICTS}

    # the pairing and grid of test_measure_comparison_empirical_vs_ratio
    model = spec_to_model(DEFAULT_MODEL)
    ren = renewal_estimate(model, PROBES_DEFAULT, reps=size["renewal_reps"],
                           seed=seed)
    outputs["equivalence"] = measure_equivalence_check(
        model, RenewalMeasure.from_ratio(truncated_neg_mean(model)),
        RenewalMeasure.from_points(ren.xs, ren.h_values), xs=PROBES_DEFAULT,
        grid_cfg=GridConfig(x_max=1e4, points_per_decade=8))

    K = outputs["fixtures"]["default"].scalars["K"]
    g1 = GridDistribution.from_tail(
        lambda t: integrated_tail_curve(model, K, t), x_max=1e6)
    outputs["majorant"] = majorant_check(g1, model, epsilon=0.1,
                                         n_max=size["majorant_n_max"])
    outputs["K"] = K
    outputs["pointwise"] = integrated_tail(model, K,
                                           np.asarray(parse_probes(size["tail_probes"])))
    return outputs


def _analytic_check(outputs: dict, size: dict) -> list:
    checks = [("tails exit code 0", outputs["tails"] == 0, f"exit {outputs['tails']}"),
              ("classify exit code 0", outputs["classify"] == 0,
               f"exit {outputs['classify']}")]

    K = outputs["K"]
    checks.append(("K = 1.25 within 1e-9", rel_err(K, 1.25) <= 1e-9, f"K {K!r}"))

    worst_m = max(rel_err(float(m), math.sqrt(1.0 + float(x)) - 1.0)
                  for x, m, _ in read_csv(outputs["tails_dir"] / "m.csv"))
    checks.append(("m(x) = sqrt(1+x) - 1 within 1e-9", worst_m <= 1e-9,
                   f"max rel err {worst_m:.3g}"))

    curve = [float(g) for _, g in read_csv(outputs["tails_dir"] / "g1.csv")]
    pointwise = outputs["pointwise"]
    worst_g = (max(rel_err(c, p) for c, p in zip(curve, pointwise))
               if len(curve) == len(pointwise) else math.inf)
    checks.append(("integrated_tail_curve = integrated_tail within 1e-6",
                   worst_g <= 1e-6, f"max rel err {worst_g:.3g}"))

    for name, _, want in FIXTURE_VERDICTS:
        got = outputs["fixtures"][name].verdict
        checks.append((f"fixture {name} verdict {want}", got is want,
                       f"verdict {got}"))

    rows = {r[0]: r[2] for r in read_csv(outputs["classify_dir"] / "class_verdicts.csv")}
    for kind in CLASS_KINDS:
        checks.append((f"class {kind} passes", rows.get(kind) == "true",
                       f"verdict {rows.get(kind)}"))

    eq = outputs["equivalence"]
    for key in ("sf_h1", "sf_h2"):
        checks.append((f"measure equivalence {key} passes",
                       bool(eq[key].verdict), f"verdict {eq[key].verdict}"))
    agree = eq["sf_h1"].extras["verdicts_agree"]
    checks.append(("measure equivalence verdicts agree", agree is True,
                   f"agree {agree}"))

    _, violations = outputs["majorant"]
    checks.append(("majorant has no violations", not violations,
                   f"{len(violations)} violations"))
    return checks


ANALYTIC = Workload(
    name="analytic",
    default_seed=17,
    specs=(DEFAULT_MODEL, PARETO2, CASE_B, K_DIVERGENT),
    sizes={"full": {"tail_probes": "0:1e4:16", "class_probes": "1e2:1e4:9",
                    "renewal_reps": 2000, "majorant_n_max": 2},
           "smoke": {"tail_probes": "0:1e4:4", "class_probes": "1e2:1e4:5",
                     "renewal_reps": 500, "majorant_n_max": 1}},
    run=_analytic_run, check=_analytic_check,
    n_checks=5 + len(FIXTURE_VERDICTS) + len(CLASS_KINDS) + 4)


WORKLOADS = {w.name: w for w in (VERIFY_QUICK, LIGHT_CONTROL, ANALYTIC)}
