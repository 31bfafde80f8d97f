"""Batch front-end: config parsing, experiment dispatch, artifact output.

Subcommands: classify (membership curves), tails (analytic curves),
simulate (cycle sampling to a columnar file), verify (cross-check
report), renewal (descent renewal curve).  All outputs are
deterministic for a fixed (argv, config) pair; wall-clock data goes to
a sidecar file.  Exit codes: 0 success, 1 precondition or config
error, 2 verification finished inconclusive, 3 verification verdicts
failed.
"""

from __future__ import annotations

import datetime
import functools
import os
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import verify as vf
from . import walksim as ws
from .classlab import KINDS, PROBES_DEFAULT, membership_curve
from .distspec import spec_to_model
from .errors import HtwkError
from .serialize import write_curve_csv, write_cycles, write_json
from .tailmath import (GridDistribution, RenewalMeasure, criterion_K,
                       integrated_tail, integrated_tail_curve,
                       renewal_integrated_tail, truncated_neg_mean)

EXIT_OK, EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_FAILED = 0, 1, 2, 3

# config errors and usage errors share exit code 1 per the CLI contract
click.exceptions.UsageError.exit_code = EXIT_ERROR


def load_config(path) -> dict:
    """Flat key=value lines; # comments and blank lines ignored."""
    cfg = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise click.ClickException(f"{path}:{ln}: expected key=value")
        k, v = s.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg


def _cast(key: str, value, cast):
    """cast(value); a malformed value is a one-line error naming key."""
    try:
        return cast(value)
    except ValueError:
        raise click.ClickException(f"bad value for {key}: {value!r}") from None


def parse_probes(text: str) -> tuple[float, ...]:
    """Probe grids: "a,b,c" literal, "lo:hi" geometric with 32 points,
    or "lo:hi:n".  A nonpositive lo contributes a leading point with
    the geometric part spanning [hi/10^4, hi]."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) not in (2, 3):
            raise click.ClickException(f"bad probe range {text!r}")
        lo, hi = (_cast("probe range", p, float) for p in parts[:2])
        n = _cast("probe count", parts[2], int) if len(parts) == 3 else 32
        if hi <= lo or n < 2:
            raise click.ClickException(f"bad probe range {text!r}")
        if lo > 0:
            pts = np.geomspace(lo, hi, n)
        else:
            pts = np.concatenate([[lo], np.geomspace(hi * 1e-4, hi, n - 1)])
    else:
        pts = np.array([_cast("probe", p, float) for p in t.split(",")])
    if np.any(np.diff(pts) <= 0):
        raise click.ClickException(f"probes must be strictly increasing: {text!r}")
    return tuple(float(p) for p in pts)


def _opt(flag, cfg: dict, key: str, default=None, cast=str):
    if flag is not None:
        return flag
    if key in cfg:
        return _cast(key, cfg[key], cast)
    return default


def _resolve_workers(flag, cfg: dict) -> int:
    if flag is not None:
        return int(flag)
    if "workers" in cfg:
        return _cast("workers", cfg["workers"], int)
    env = os.environ.get("HTWK_WORKERS")
    return _cast("HTWK_WORKERS", env, int) if env else 1


def _need_model(model_text, cfg) -> str:
    text = model_text or cfg.get("model")
    if not text:
        raise click.ClickException("no model: pass --model or a config with model=")
    return text


def _need_seed(seed, cfg) -> int:
    value = _opt(seed, cfg, "seed", cast=int)
    if value is None:
        raise click.ClickException(
            "no seed: pass --seed or a config with seed= (runs must be reproducible)")
    return int(value)


def _out_dir(out, cfg) -> Path:
    path = Path(_opt(out, cfg, "out", "htwk-out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guarded(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HtwkError as e:
            raise click.ClickException(f"{type(e).__name__}: {e}") from e
    return inner


@click.group()
@click.version_option(version=__version__, prog_name="htwk")
def main() -> None:
    """Numerical laboratory for heavy-tailed random walk cycles."""


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_text", help="distribution expression")
@click.option("--kinds", "kinds_text", help="comma list from L,D,S,Sstar,SF")
@click.option("--probes", "--probe", "probes_text", help="probe grid")
@click.option("--tol", type=float, help="membership tolerance (default 0.05)")
@click.option("--out", "out", help="output directory")
@_guarded
def classify(config_path, model_text, kinds_text, probes_text, tol, out):
    """Membership ratio curves for distribution classes."""
    cfg = load_config(config_path) if config_path else {}
    model = spec_to_model(_need_model(model_text, cfg))
    kinds = [k.strip() for k in
             (_opt(kinds_text, cfg, "kinds", "L,D,S,Sstar")).split(",")]
    for kind in kinds:
        if kind not in KINDS:
            raise click.ClickException(
                f"unknown kind {kind!r}; choose from {','.join(KINDS)}")
    probes_spec = _opt(probes_text, cfg, "probes")
    xs = parse_probes(probes_spec) if probes_spec else PROBES_DEFAULT
    tol = float(_opt(tol, cfg, "tol", 0.05, float))
    out_path = _out_dir(out, cfg)

    verdict_rows = []
    for kind in kinds:
        G = None
        if kind == "SF":
            # self-test: G is the model's own positive part, renormalized
            head = float(model.tail_pos(0.0))
            if head <= 0.0:
                raise click.ClickException("SF self-test needs positive mass")
            G = GridDistribution.from_tail(
                lambda t: np.asarray(model.tail_pos(t), dtype=float) / head,
                x_max=max(1e6, 10.0 * xs[-1]))
        diag = membership_curve(kind, model, G=G, xs=xs, tol=tol)
        write_curve_csv(out_path / f"class_{kind}.csv",
                        ("x", "ratio", "target", "within"), diag.rows())
        target = "bounded" if diag.target is None else "%.12g" % diag.target
        verdict_rows.append((kind, target, bool(diag.verdict)))
        click.echo(f"{kind:6s} target={target:12s} verdict={diag.verdict} "
                   f"last_ratio={diag.values[-1]:.6g}")
    write_curve_csv(out_path / "class_verdicts.csv",
                    ("kind", "target", "verdict"), verdict_rows)
    click.echo(f"wrote {len(kinds)} curve files to {out_path}")


# ----------------------------------------------------------------------
# tails
# ----------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_text")
@click.option("--probes", "--probe", "probes_text", help="default 0:1e4")
@click.option("--out", "out")
@_guarded
def tails(config_path, model_text, probes_text, out):
    """Analytic curves: truncated mean, integral criterion, integrated
    tails against linear and scaled renewal weights."""
    cfg = load_config(config_path) if config_path else {}
    model = spec_to_model(_need_model(model_text, cfg))
    xs = parse_probes(_opt(probes_text, cfg, "probes", "0:1e4"))
    out_path = _out_dir(out, cfg)

    K, converged = criterion_K(model)
    click.echo(f"K = {K:.9g}  converged={str(converged).lower()}")

    mneg = truncated_neg_mean(model)
    xs_arr = np.asarray(xs)
    write_curve_csv(out_path / "m.csv", ("x", "m", "x_over_m"),
                    zip(xs, mneg(xs_arr), mneg.ratio(xs_arr)))
    files = ["m.csv"]

    if converged:
        try:
            g1 = integrated_tail_curve(model, K, xs_arr)
        except HtwkError:
            g1 = np.array([integrated_tail(model, K, x) for x in xs])
        write_curve_csv(out_path / "g1.csv", ("x", "g1"), zip(xs, g1))
        gh = {}
        if model.law.right_mean_finite:
            gh["gh_linear"] = renewal_integrated_tail(
                model, RenewalMeasure.lebesgue(), xs_arr)
        else:
            click.echo("positive part has infinite mean; gh_linear column skipped")
        gh["gh_scaled"] = renewal_integrated_tail(
            model, RenewalMeasure.from_ratio(mneg), xs_arr)
        write_curve_csv(out_path / "gh.csv", ("x", *gh), zip(xs, *gh.values()))
        files += ["g1.csv", "gh.csv"]
    else:
        click.echo("integral criterion diverges; integrated-tail curves skipped")
    click.echo(f"wrote {', '.join(files)} to {out_path}")


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_text")
@click.option("--seed", type=int)
@click.option("--cycles", type=int)
@click.option("--workers", type=int)
@click.option("--probes", "--probe", "probes_text")
@click.option("--out", "out")
@_guarded
def simulate(config_path, model_text, seed, cycles, workers, probes_text, out):
    """Sample cycles to a columnar file plus a JSON summary.

    Raw columns cost 24 bytes per cycle in memory and on disk."""
    cfg = load_config(config_path) if config_path else {}
    model = spec_to_model(_need_model(model_text, cfg))
    seed = _need_seed(seed, cfg)
    cycles = int(_opt(cycles, cfg, "cycles", 100_000, int))
    workers = _resolve_workers(workers, cfg)
    probes_spec = _opt(probes_text, cfg, "probes")
    xs = parse_probes(probes_spec) if probes_spec else ()
    out_path = _out_dir(out, cfg)

    result = ws.simulate_cycles(model, cycles, seed, workers=workers,
                                probes=xs, keep_raw=True)
    st = result.stats
    write_cycles(out_path / "cycles.bin", seed, result.tau, result.m_tau,
                 result.chi)
    summary = {
        "model": model.spec_text, "seed": seed, "workers": workers,
        "cycles": st.cycles, "steps": st.steps,
        "tau_mean": st.tau_mean, "tau_se": st.tau_se,
        "tau_max": st.tau_max, "m_tau_max": st.m_tau_max,
        "zero_m_tau": st.zero_m_tau, "chi_mean": st.chi_sum / st.cycles,
        "exceedances": [{"x": x, "hits": int(h)}
                        for x, h in zip(st.probe_xs, st.probe_hits)],
    }
    write_json(out_path / "summary.json", summary)
    click.echo(f"{st.cycles} cycles in {st.steps} steps; "
               f"tau_mean={st.tau_mean:.6g} +- {st.tau_se:.3g}")
    click.echo(f"wrote cycles.bin, summary.json to {out_path}")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _echo_block(block, depth=0) -> None:
    mark = {True: "pass", False: "FAIL", None: "inconclusive"}[block.verdict]
    click.echo(f"{'  ' * depth}[{mark}] {block.name}")
    for sub in block.subchecks:
        _echo_block(sub, depth + 1)


# verify's config keys, each with its run_verification argument and its
# parser; a key that no config line or flag sets keeps that argument's
# default in run_verification
_VERIFY_KEYS = {
    "checks": ("checks", lambda s: tuple(c.strip() for c in s.split(","))),
    "probes": ("xs", parse_probes),
    "cycles": ("cycles", int),
    "reps": ("reps", int),
    "sup_reps": ("sup_reps", int),
    "renewal_probes": ("renewal_xs", parse_probes),
    "barrier": ("barrier", float),
    "ladder_probes": ("ladder_xs", parse_probes),
    "class_probes": ("class_xs", parse_probes),
    "tol_main": ("tol_main", float),
    "tol_band": ("tol_band", float),
    "tol_tail": ("tol_tail", float),
    "sf_tol": ("sf_tol", float),
    "p_override": ("p_override", float),
}


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_text")
@click.option("--seed", type=int)
@click.option("--workers", type=int)
@click.option("--cycles", type=int)
@click.option("--probes", "--probe", "probes_text", help="cycle-max probes")
@click.option("--barrier", type=float)
@click.option("--tol", type=float, help="cycle-max ratio tolerance")
@click.option("--out", "out")
@_guarded
def verify(config_path, model_text, seed, workers, cycles, probes_text,
           barrier, tol, out):
    """Run the verification suite and write report.json."""
    cfg = load_config(config_path) if config_path else {}
    model = spec_to_model(_need_model(model_text, cfg))
    seed = _need_seed(seed, cfg)
    flags = {"probes": probes_text, "cycles": cycles, "barrier": barrier,
             "tol_main": tol}
    raw = {**cfg, **{k: v for k, v in flags.items() if v is not None}}
    kwargs = {arg: _cast(key, raw[key], cast)
              for key, (arg, cast) in _VERIFY_KEYS.items() if key in raw}
    report = vf.run_verification(model, seed, workers=_resolve_workers(workers, cfg),
                                 **kwargs)
    out_path = _out_dir(out, cfg)
    write_json(out_path / "report.json", report.to_dict())
    write_json(out_path / "report.runtime.json", {
        "experiment": report.experiment_id,
        "runtimes_seconds": report.runtimes(),
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    })
    for block in report.blocks:
        if block.probes and block.columns:
            cols = {k: v for k, v in block.columns.items()
                    if np.ndim(v) == 1 and len(v) == len(block.probes)}
            write_curve_csv(out_path / f"curve_{block.name}.csv",
                            ("x", *cols), zip(block.probes, *cols.values()))
        _echo_block(block)
    overall = report.overall()
    click.echo(f"overall: { {True: 'pass', False: 'FAIL', None: 'inconclusive'}[overall] }")
    click.echo(f"wrote report.json (experiment {report.experiment_id}) to {out_path}")
    if overall is False:
        raise SystemExit(EXIT_FAILED)
    if overall is None:
        raise SystemExit(EXIT_INCONCLUSIVE)


# ----------------------------------------------------------------------
# renewal
# ----------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_text")
@click.option("--seed", type=int)
@click.option("--reps", type=int)
@click.option("--workers", type=int)
@click.option("--probes", "--probe", "probes_text", help="default 1:1e4:16")
@click.option("--raw-reps", "raw_reps", type=int, default=None,
              help="also dump partial-sum points from this many replications")
@click.option("--out", "out")
@_guarded
def renewal(config_path, model_text, seed, reps, workers, probes_text,
            raw_reps, out):
    """Estimate the descent renewal function on a probe grid."""
    cfg = load_config(config_path) if config_path else {}
    model = spec_to_model(_need_model(model_text, cfg))
    seed = _need_seed(seed, cfg)
    reps = int(_opt(reps, cfg, "reps", 10_000, int))
    workers = _resolve_workers(workers, cfg)
    xs = parse_probes(_opt(probes_text, cfg, "probes", "1:1e4:16"))
    raw_reps = int(_opt(raw_reps, cfg, "raw_reps", 0, int))
    out_path = _out_dir(out, cfg)

    est = ws.renewal_estimate(model, xs, reps, seed, workers=workers,
                              raw_reps=raw_reps)
    write_curve_csv(out_path / "renewal.csv", ("x", "h", "h_se"),
                    zip(est.xs, est.h_values, est.h_se))
    files = ["renewal.csv"]
    if est.raw_points is not None:
        write_curve_csv(out_path / "renewal_points.csv", ("u",),
                        ((u,) for u in est.raw_points))
        files.append(f"renewal_points.csv ({est.raw_points.size} points)")
    for x, h, se in zip(est.xs, est.h_values, est.h_se):
        click.echo(f"H({x:g}) = {h:.6g} +- {se:.3g}")
    click.echo(f"wrote {', '.join(files)} to {out_path}")


if __name__ == "__main__":
    main()
