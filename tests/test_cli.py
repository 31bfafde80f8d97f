"""Command-line front end: config handling, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from htwk.cli import load_config, main, parse_probes
from htwk.serialize import read_cycles

REPO = Path(__file__).resolve().parent.parent
QUICK_CFG = REPO / "configs" / "quick.cfg"

DEFAULT_SPEC = "mix(0.5: pareto(1.5, 1), 0.5: neg(pareto(0.5, 1)))"
LIGHT_SPEC = "mix(0.5: exponential(1), 0.5: neg(exponential(0.5)))"


@pytest.fixture()
def runner():
    return CliRunner()


# ----------------------------------------------------------------------
# option plumbing
# ----------------------------------------------------------------------

def test_cli_start_up_does_not_import_scipy():
    # only the Weibull and lognormal integrals and tails and the lognormal
    # quantile need scipy.special; neg checks its lognormal child for mass
    # below 0 without it, and compiling the draw rules draws nothing
    code = ("import sys, htwk.cli\n"
            "from htwk.distspec import spec_to_model\n"
            "from htwk.tailmath import _UniformTape\n"
            "from htwk.walksim import RngStream\n"
            "model = spec_to_model('mix(0.5: pareto(alpha=1.5, kappa=1), "
            "0.5: neg(pareto(alpha=0.5, kappa=1)))')\n"
            "model.sample(RngStream(1, 0).generator(), 1000)\n"
            "tape = _UniformTape(model, RngStream(2, 0).generator(), 1000)\n"
            "model.sample(tape, 1000)\n"
            "tape.close()\n"
            "spec_to_model('neg(lognormal(mu=0, sigma=1))')._draw_rules\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=REPO,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert out.stdout.strip() == "False"


def test_parse_probes_forms():
    assert parse_probes("1,2,5") == (1.0, 2.0, 5.0)
    pts = parse_probes("1:100")
    assert len(pts) == 32 and pts[0] == 1.0 and pts[-1] == pytest.approx(100.0)
    pts = parse_probes("1:100:5")
    assert len(pts) == 5
    assert np.allclose(pts, np.geomspace(1, 100, 5))
    pts = parse_probes("0:1e4:5")
    assert pts[0] == 0.0 and len(pts) == 5 and pts[-1] == pytest.approx(1e4)
    assert pts[1] == pytest.approx(1.0)
    # two points: lo and hi, not lo and hi/10^4
    assert parse_probes("0:1e4:2") == (0.0, 1e4)
    assert parse_probes("-1:10:2") == (-1.0, 10.0)


@pytest.mark.parametrize("bad", ["5:1", "1:10:1", "3,2,1", "1:2:3:4", "a:b",
                                 "100,1e3,x"])
def test_parse_probes_rejects_degenerate_grids(bad):
    with pytest.raises(click.ClickException):
        parse_probes(bad)


def test_load_config_shapes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nmodel = pareto(2, 1)\nseed=7\n")
    assert load_config(cfg) == {"model": "pareto(2, 1)", "seed": "7"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("model pareto\n")
    with pytest.raises(click.ClickException, match="key=value"):
        load_config(bad)
    # a typo, or a key that no command reads, is an error, not a no-op
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("model = pareto(2, 1)\ntol_main = 0.3\n")
    with pytest.raises(click.ClickException) as err:
        load_config(unknown)
    assert err.value.exit_code == 1
    assert err.value.format_message() == f"{unknown}:2: unknown config key 'tol_main'"


@pytest.mark.parametrize("line,named", [
    ("cycles = lots", "bad value for cycles: 'lots'"),
    ("workers = two", "bad value for workers: 'two'"),
], ids=["config-line", "worker-count"])
def test_malformed_number_is_a_one_line_error(runner, tmp_path, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = pareto(2, 1)\nseed = 1\n{line}\n")
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.strip() == f"Error: {named}"


@pytest.mark.parametrize("command", ["classify", "tails", "simulate", "verify",
                                     "renewal"])
def test_probes_has_one_spelling(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--probe", "1,2", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "No such option '--probe'" in res.output


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "htwk" in res.output


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

def test_classify_writes_curves_and_verdicts(runner, tmp_path):
    res = runner.invoke(main, [
        "classify", "--model", "pareto(2, 1)", "--kinds", "L,D",
        "--probes", "50,200,1000,5000", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "L" in res.output and "verdict=True" in res.output
    assert "target=bounded" in res.output
    for name in ("class_L.csv", "class_D.csv", "class_verdicts.csv"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "class_L.csv").read_text().splitlines()
    assert lines[0] == "x,ratio,target,within"
    assert len(lines) == 5


def test_classify_flag_overrides_config(runner, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"model = pareto(2, 1)\nkinds = L\n"
                   f"probes = 50,200,1000\nout = {tmp_path}\n")
    res = runner.invoke(main, ["classify", "--config", str(cfg),
                               "--kinds", "D"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "class_D.csv").exists()
    assert not (tmp_path / "class_L.csv").exists()


def test_classify_rejects_unknown_kind(runner, tmp_path):
    res = runner.invoke(main, ["classify", "--model", "pareto(2, 1)",
                               "--kinds", "Q", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "unknown kind" in res.output


def test_classify_refuses_self_convolution_with_negative_mass(runner, tmp_path):
    res = runner.invoke(main, ["classify", "--model", DEFAULT_SPEC,
                               "--kinds", "S", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert ("PreconditionError: grid discretization needs support in "
            "[0, infinity)") in res.output


def test_classify_widens_the_grid_past_the_default_horizon(runner, tmp_path):
    res = runner.invoke(main, ["classify", "--model", "pareto(2, 1)",
                               "--kinds", "S,SF", "--probes", "1e5:1e7:5",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "class_verdicts.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["true", "true"]


@pytest.mark.parametrize("command", sorted(main.commands))
def test_missing_model_is_a_usage_error(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "no model" in res.output


# ----------------------------------------------------------------------
# tails
# ----------------------------------------------------------------------

def test_tails_reports_the_criterion_constant(runner, tmp_path):
    res = runner.invoke(main, ["tails", "--model", DEFAULT_SPEC,
                               "--probes", "1,10,100", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "K = 1.25  converged=true" in res.output
    for name in ("m.csv", "g1.csv", "gh.csv"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "gh.csv").read_text().splitlines()[0]
    assert header == "x,gh_linear,gh_scaled"


def test_tails_skips_integrated_curves_when_criterion_diverges(runner, tmp_path):
    spec = "mix(0.5: pareto(0.4, 1), 0.5: neg(pareto(0.5, 1)))"
    res = runner.invoke(main, ["tails", "--model", spec,
                               "--probes", "1,10,100", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "converged=false" in res.output
    assert "diverges" in res.output
    assert (tmp_path / "m.csv").exists()
    assert not (tmp_path / "g1.csv").exists()


def test_tails_skips_the_linear_column_when_the_positive_mean_is_infinite(
        runner, tmp_path):
    spec = "mix(0.5: pareto(0.8, 1), 0.5: neg(pareto(0.3, 1)))"
    res = runner.invoke(main, ["tails", "--model", spec,
                               "--probes", "1,10,100", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "gh_linear column skipped" in res.output
    lines = (tmp_path / "gh.csv").read_text().splitlines()
    assert lines[0] == "x,gh_scaled"
    assert len(lines) == 4


def test_tails_rejects_a_negative_probe_in_one_line(runner, tmp_path):
    res = runner.invoke(main, ["tails", "--model", DEFAULT_SPEC,
                               "--probes=-1,5", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1] == (
        "Error: PreconditionError: truncated mean is defined for x >= 0")


@pytest.mark.parametrize("command", sorted(main.commands))
def test_an_infinite_literal_is_a_one_line_error(runner, tmp_path, command):
    res = runner.invoke(main, [command, "--model", "point(1e400)",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [
        "Error: SpecSyntaxError: number '1e400' is out of range (at 6:11)"]


@pytest.mark.parametrize("args", [
    ["verify", "--model", DEFAULT_SPEC, "--seed", "1", "--cycles", "2000",
     "--probes=-1,5"],
    ["classify", "--model", "pareto(2, 1)", "--probes=-1,5,10,20"],
], ids=["verify", "classify"])
def test_a_negative_probe_is_a_one_line_error(runner, tmp_path, args):
    # a probe below 0 is an input error, not a failed verdict or a curve row
    res = runner.invoke(main, [*args, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [
        "Error: PreconditionError: probes must be nonnegative"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args", [
    ["classify", "--model", DEFAULT_SPEC, "--kinds", "L,S",
     "--probes", "50,200,1000"],
    ["classify", "--model", "pareto(2, 1)", "--probes=-1,5"],
    ["tails", "--model", LIGHT_SPEC],
    ["simulate", "--model", "pareto(2, 1)", "--seed", "1", "--cycles", "100"],
    ["renewal", "--model", "pareto(2, 1)", "--seed", "1", "--reps", "100"],
    ["simulate", "--model", DEFAULT_SPEC, "--seed", "1", "--cycles", "100",
     "--workers", "0"],
    ["verify", "--model", DEFAULT_SPEC, "--seed", "-1", "--cycles", "100"],
    ["renewal", "--model", DEFAULT_SPEC, "--seed", "1", "--reps", "100",
     "--raw-reps", "-1"],
], ids=["classify-later-kind", "classify-probes", "tails", "simulate", "renewal",
        "simulate-workers", "verify-seed", "renewal-raw-reps"])
def test_a_failed_command_leaves_no_output_behind(runner, tmp_path, args):
    # every result is computed before the output directory is made, so
    # neither a partial file nor an empty directory is left behind
    out = tmp_path / "out"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 1
    assert "Error: PreconditionError" in res.output
    assert not out.exists()


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_writes_reproducible_artifacts(runner, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--model", DEFAULT_SPEC, "--seed", "5",
            "--cycles", "2000", "--probes", "2,10"]
    for d in (d1, d2):
        res = runner.invoke(main, args + ["--out", str(d)])
        assert res.exit_code == 0, res.output
        assert "2000 cycles" in res.output
    assert (d1 / "cycles.bin").read_bytes() == (d2 / "cycles.bin").read_bytes()
    assert (d1 / "summary.json").read_bytes() == \
        (d2 / "summary.json").read_bytes()

    seed, tau, m_tau, chi = read_cycles(d1 / "cycles.bin")
    assert seed == 5 and tau.size == 2000
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["cycles"] == 2000
    assert summary["tau_mean"] == pytest.approx(tau.mean())
    assert [e["x"] for e in summary["exceedances"]] == [2.0, 10.0]
    assert summary["exceedances"][0]["hits"] == int((m_tau > 2.0).sum())


def test_simulate_summary_is_the_statistics_of_its_columns(runner, tmp_path):
    res = runner.invoke(main, [
        "simulate", "--model", DEFAULT_SPEC, "--seed", "5", "--cycles", "3000",
        "--probes", "0,2,10", "--workers", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    _, tau, m_tau, chi = read_cycles(tmp_path / "cycles.bin")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cycles"] == tau.size == 3000
    assert summary["steps"] == int(tau.sum())
    assert summary["tau_mean"] == int(tau.sum()) / tau.size
    assert summary["tau_max"] == int(tau.max())
    assert summary["m_tau_max"] == float(m_tau.max())
    assert summary["zero_m_tau"] == int(np.count_nonzero(m_tau == 0.0))
    assert summary["chi_mean"] == float(chi.sum()) / tau.size
    assert summary["exceedances"] == [
        {"x": x, "hits": int(np.count_nonzero(m_tau > x))}
        for x in (0.0, 2.0, 10.0)]


def test_simulate_requires_a_seed(runner, tmp_path):
    res = runner.invoke(main, ["simulate", "--model", DEFAULT_SPEC,
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "no seed" in res.output


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_quick_config_passes_and_is_byte_stable(runner, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        res = runner.invoke(main, ["verify", "--config", str(QUICK_CFG),
                                   "--out", str(d)])
        assert res.exit_code == 0, res.output
        assert "overall: pass" in res.output
        assert "[pass] cycle-max-tail-asymptotic" in res.output
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    payload = json.loads((d1 / "report.json").read_text())
    assert payload["overall"] is True
    assert len(payload["checks"]) == 5
    assert (d1 / "report.runtime.json").exists()
    assert (d1 / "curve_cycle-max-tail-asymptotic.csv").exists()
    assert (d1 / "curve_renewal-growth-band.csv").exists()


def test_verify_failed_verdicts_exit_3(runner, tmp_path):
    cfg = tmp_path / "light.cfg"
    cfg.write_text(
        f"model = {LIGHT_SPEC}\nseed = 43\nchecks = main\n"
        f"cycles = 200000\nprobes = 2,4,6,8\nsup_reps = 0\n"
        f"out = {tmp_path / 'out'}\n")
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 3
    assert "[FAIL] cycle-max-tail-asymptotic" in res.output
    assert "overall: FAIL" in res.output
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["overall"] is False


def test_verify_inconclusive_exits_2(runner, tmp_path):
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(
        f"model = {DEFAULT_SPEC}\nseed = 1\nchecks = main\n"
        f"cycles = 2000\nprobes = 500,1000\nsup_reps = 0\n"
        f"out = {tmp_path / 'out'}\n")
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "overall: inconclusive" in res.output


@pytest.mark.parametrize("flag", ["--tol", "--barrier"])
def test_verify_has_no_tolerance_or_barrier_flag(runner, tmp_path, flag):
    res = runner.invoke(main, ["verify", "--model", DEFAULT_SPEC, "--seed", "1",
                               flag, "0.3", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert f"No such option '{flag}'" in res.output


def test_verify_precondition_failure_exits_1(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--model", "pareto(1.5, 1)",
                               "--seed", "1", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "PreconditionError" in res.output


@pytest.mark.parametrize("seed, workers, message", [
    (-1, 0, "seed must be nonnegative"),
    (-1, 1, "seed must be nonnegative"),
    (1, 0, "worker count must be at least 1"),
])
def test_verify_refuses_a_bad_seed_or_worker_count_before_any_block(
        runner, tmp_path, seed, workers, message):
    # the classes block draws nothing, so no walk would refuse these;
    # the run must, with the walk's own one-line error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = {DEFAULT_SPEC}\nchecks = classes\n"
                   f"seed = {seed}\nworkers = {workers}\n")
    out = tmp_path / "out"
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1
    assert res.output.splitlines() == [f"Error: PreconditionError: {message}"]
    assert not out.exists()


def test_verify_rejects_malformed_spec_text(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--model", "pareto(", "--seed", "1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "SpecSyntaxError" in res.output


# ----------------------------------------------------------------------
# renewal
# ----------------------------------------------------------------------

def test_renewal_curve_and_raw_points(runner, tmp_path):
    res = runner.invoke(main, [
        "renewal", "--model", DEFAULT_SPEC, "--seed", "7", "--reps", "500",
        "--probes", "1,10,100", "--raw-reps", "50", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "H(1) =" in res.output
    lines = (tmp_path / "renewal.csv").read_text().splitlines()
    assert lines[0] == "x,h,h_se"
    assert len(lines) == 4
    h = [float(row.split(",")[1]) for row in lines[1:]]
    assert h == sorted(h) and h[0] >= 1.0
    points = (tmp_path / "renewal_points.csv").read_text().splitlines()
    assert points[0] == "u"
    assert len(points) > 1
