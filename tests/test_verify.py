"""Report blocks: verdict logic, recomputability, and the pinned models."""

import hashlib
import json
import sys

import numpy as np
import pytest

from htwk import _quad, spec_to_model
from htwk.errors import PreconditionError
from htwk.verify import (
    CHECK_NAMES,
    CheckBlock,
    VerificationReport,
    ladder_identity_report,
    cycle_max_report,
    renewal_bound_report,
    run_verification,
    class_reduction_report,
)

ANCHOR = "tail-class-reduction"


@pytest.fixture(scope="module")
def pinned_report(default_model):
    """Reduced-scale full verification on the heavy fixture."""
    return run_verification(
        default_model, seed=42, workers=1, checks=CHECK_NAMES,
        xs=(50.0, 100.0, 200.0, 500.0), cycles=500000, reps=20000,
        sup_reps=10000)


def _blocks_by_name(report):
    return {b.name: b for blk in report.blocks for b in blk.walk()}


def test_pinned_run_is_green_everywhere(pinned_report):
    assert pinned_report.overall() is True
    blocks = _blocks_by_name(pinned_report)
    assert len(blocks) == 13
    assert all(b.verdict is True for b in blocks.values())
    assert set(blocks) == {
        "cycle-max-tail-asymptotic", "cycle-max-lower-bound",
        "max-law-tail-neutrality", "renewal-growth-band",
        "geometric-ladder-sum-identity", "ladder-sum-zero-atom",
        "ladder-height-tail-formula", "tail-class-reduction",
        "base-integral-criterion", "base-long-tail",
        "base-dominated-variation", "integrated-tail-convolution-neutrality",
        "integrated-tail-small-increments",
    }


def test_pinned_headline_numbers(pinned_report):
    main = pinned_report.blocks[0]
    # mean cycle length settles near 2.83 for this mixture
    assert 2.80 < main.scalars["tau_mean"] < 2.88
    ratio = np.asarray(main.columns["ratio"])
    # the finite-size excess shrinks along the probes and the farthest
    # one sits on the prediction
    assert np.all(np.diff(ratio) < 0.0)
    assert 0.9 < ratio[-1] < 1.1
    assert all(main.columns["conclusive"])


def test_verdicts_recompute_from_serialized_payload(pinned_report):
    payload = json.loads(json.dumps(pinned_report.to_dict()))
    main = payload["checks"][0]
    tol = main["tolerances"]["tol"]
    lo = np.asarray(main["columns"]["ratio_lo"])
    hi = np.asarray(main["columns"]["ratio_hi"])
    ok = (lo <= 1.0 + tol) & (hi >= 1.0 - tol)
    assert list(ok) == main["columns"]["pass"]
    concl = [i for i, c in enumerate(main["columns"]["conclusive"]) if c]
    assert main["verdict"] == all(ok[concl[-2:]])

    lower = main["subchecks"][0]
    floor = lower["tolerances"]["floor"]
    ok_l = np.asarray(lower["columns"]["ratio_hi"]) >= floor
    assert list(ok_l) == lower["columns"]["pass"]

    ladder = next(c for c in payload["checks"]
                  if c["check"] == "geometric-ladder-sum-identity")
    s = ladder["scalars"]
    assert ladder["verdict"] == (s["ks_distance"] < s["ks_threshold"])

    renewal = next(c for c in payload["checks"]
                   if c["check"] == "renewal-growth-band")
    cols, s = renewal["columns"], renewal["scalars"]
    ok_b = [(blo >= s["band_lo"]) and (bhi <= s["band_hi"])
            for blo, bhi in zip(cols["b_lo"], cols["b_hi"])]
    assert ok_b == cols["pass"]


def test_report_payload_is_json_clean(pinned_report):
    payload = pinned_report.to_dict()
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert "runtime" not in text
    assert payload["schema"] == "htwk-report/1"
    assert payload["overall"] is True
    times = pinned_report.runtimes()
    assert set(times) == {
        "cycle-max-tail-asymptotic", "renewal-growth-band",
        "geometric-ladder-sum-identity", "ladder-height-tail-formula",
        "tail-class-reduction"}
    assert all(t > 0.0 for t in times.values())


def test_experiment_id_is_a_pure_function_of_the_setup(pinned_report):
    rep = pinned_report
    payload = json.dumps(
        {"schema": rep.schema, "model": rep.model_spec, "seed": rep.seed,
         "config": rep.config}, sort_keys=True)
    assert rep.experiment_id == hashlib.sha256(
        payload.encode()).hexdigest()[:12]
    other = VerificationReport(model_spec=rep.model_spec, seed=rep.seed + 1,
                               config=rep.config)
    assert other.experiment_id != rep.experiment_id


def test_light_control_rejects_the_heavy_prediction(light_model):
    report = run_verification(light_model, seed=43, checks=("main",),
                              xs=(2.0, 4.0, 6.0, 8.0), cycles=200000,
                              sup_reps=0)
    assert report.overall() is False
    main = report.blocks[0]
    assert main.verdict is False
    ratio = np.asarray(main.columns["ratio"])
    # exponential tails overshoot the product prediction geometrically
    assert np.all(np.diff(ratio) > 0.0)
    assert ratio[-1] > 10.0
    # the one-sided bound survives: the curve is never below the floor
    assert main.subchecks[0].name == "cycle-max-lower-bound"
    assert main.subchecks[0].verdict is True


def test_tail_neutrality_fails_where_the_positive_tail_vanishes():
    # F-bar is 0 beyond the atom at 1, while the maximum law still
    # spreads mass past 1: those probes have no ratio and do not pass
    model = spec_to_model("mix(0.5: point(1), 0.5: neg(pareto(alpha=0.5, kappa=1)))")
    block = cycle_max_report(model, (0.5, 2.0, 3.0), cycles=2000, seed=5,
                             sup_reps=2000)
    weak = block.subchecks[1]
    assert weak.name == "max-law-tail-neutrality"
    ratio = np.asarray(weak.columns["ratio"], dtype=float)
    assert np.isfinite(ratio[0]) and np.all(np.isnan(ratio[1:]))
    assert weak.columns["pass"].tolist()[1:] == [False, False]
    assert weak.verdict is False
    assert weak.to_dict()["columns"]["ratio"][1:] == [None, None]


def test_wrong_success_probability_is_detected(default_model):
    block = ladder_identity_report(default_model, reps=30000, seed=42,
                                   p_override=0.18)
    assert block.verdict is False
    assert block.scalars["p_used"] == 0.18
    assert block.scalars["ks_distance"] > 10 * block.scalars["ks_threshold"]
    # the zero atom of the geometric sum no longer matches the maximum
    atom = block.subchecks[0]
    assert atom.verdict is False
    assert abs(atom.scalars["atom_nu"] - 0.18) < 0.01
    assert atom.scalars["atom_m"] > 0.3
    with pytest.raises(PreconditionError, match="geometric"):
        ladder_identity_report(default_model, reps=100, seed=1,
                               p_override=1.5)


def test_sparse_hits_give_no_verdict(default_model):
    report = run_verification(default_model, seed=1, checks=("main",),
                              xs=(500.0, 1000.0), cycles=2000, sup_reps=0)
    assert report.blocks[0].verdict is None
    assert report.overall() is None


def test_renewal_band_is_not_identified_when_the_maximum_is_always_zero():
    # a walk with no positive step never rises above 0, so the Wilson
    # interval of p = P(M = 0) reaches 1 and the band [p, 2p] is unknown
    model = spec_to_model("neg(pareto(alpha=0.5, kappa=1))")
    block = renewal_bound_report(model, reps=200, seed=1)
    assert block.scalars["p_hat"] == 1.0
    assert block.scalars["p_hi"] >= 1.0
    assert block.verdict is None
    assert block.notes == ("zero-maximum probability interval touches {0,1}; "
                           "band is not identified",)


def test_divergent_criterion_reports_red_with_no_claims(k_divergent_model):
    block = class_reduction_report(k_divergent_model)
    assert block.verdict is False
    assert block.scalars["K_finite"] is False
    assert block.scalars["K_partial"] > 0.0
    assert block.notes
    assert block.subchecks == ()
    assert block.runtime > 0


def test_two_sided_route_without_the_integral_criterion(case_b_model):
    block = class_reduction_report(case_b_model)
    assert block.verdict is True
    assert block.scalars["case_a"] is False
    assert block.scalars["case_b"] is True
    subs = {s.name: s.verdict for s in block.subchecks}
    assert subs["base-integral-criterion"] is None
    assert subs["base-long-tail"] is True
    assert subs["base-dominated-variation"] is True
    assert subs["integrated-tail-convolution-neutrality"] is True
    assert subs["integrated-tail-small-increments"] is True
    assert any("mean diverges" in n for n in block.notes)


def test_unconverged_quadrature_is_only_the_two_reported_divergences(
        monkeypatch, default_model, case_b_model, k_divergent_model):
    # of every improper integral that `_drive` runs, one by one or in
    # lockstep, behind the three class-reduction fixtures, exactly two do
    # not converge: route B of k_divergent's criterion_K and case_b's
    # positive-part mean (mu_plus), each named by its outermost `_quad`
    # frame, with its panel count and its partial sum
    drive = _quad._drive
    unconverged = []
    current = []

    def outermost_quad_frame():
        name = None
        frame = sys._getframe()
        while frame is not None:
            if frame.f_globals.get("__name__") == _quad.__name__:
                name = frame.f_code.co_name
            frame = frame.f_back
        return name

    def recording(*args, **kwargs):
        results = drive(*args, **kwargs)
        unconverged.extend((current[-1], outermost_quad_frame(), res.panels, res.value)
                           for res in results if not res.converged)
        return results

    monkeypatch.setattr(_quad, "_drive", recording)
    for name, model in (("default", default_model), ("case_b", case_b_model),
                        ("k_divergent", k_divergent_model)):
        current.append(name)
        class_reduction_report(model)
    assert unconverged == [
        ("case_b", "improper_gl", 9, 6.2055056329612395),
        ("k_divergent", "stieltjes_vs_tail", 13, 3.4109753008281642),
    ]


def test_overall_aggregation_logic():
    def rep(*verdicts):
        r = VerificationReport(model_spec="m", seed=1, config={})
        r.blocks = [CheckBlock(name=f"b{i}", anchor=ANCHOR, verdict=v)
                    for i, v in enumerate(verdicts)]
        return r

    assert rep(True, True).overall() is True
    assert rep(True, None).overall() is None
    assert rep(None, False).overall() is False
    assert rep().overall() is None
    nested = VerificationReport(model_spec="m", seed=1, config={})
    nested.blocks = [CheckBlock(
        name="top", anchor=ANCHOR, verdict=True,
        subchecks=(CheckBlock(name="sub", anchor=ANCHOR, verdict=False),))]
    assert nested.overall() is False


def test_probe_and_check_validation(default_model):
    with pytest.raises(PreconditionError, match="increasing"):
        cycle_max_report(default_model, (5.0, 4.0), cycles=10, seed=1)
    with pytest.raises(PreconditionError, match="nonnegative"):
        cycle_max_report(default_model, (-1.0, 5.0), cycles=10, seed=1)
    with pytest.raises(PreconditionError, match="unknown checks"):
        run_verification(default_model, seed=1, checks=("main", "bogus"))
