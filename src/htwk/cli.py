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
import math
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
from .tailmath import (GridConfig, GridDistribution, RenewalMeasure,
                       criterion_K, integrated_tail_curve,
                       renewal_integrated_tail, truncated_neg_mean)

EXIT_OK, EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_FAILED = 0, 1, 2, 3

# config errors and usage errors share exit code 1 per the CLI contract
click.exceptions.UsageError.exit_code = EXIT_ERROR


def load_config(path) -> dict:
    """Flat key=value lines of the keys in _CONFIG_KEYS, as raw strings;
    # comments and blank lines ignored."""
    cfg = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise click.ClickException(f"{path}:{ln}: expected key=value")
        k, v = (part.strip() for part in s.split("=", 1))
        if k not in _CONFIG_KEYS:
            raise click.ClickException(f"{path}:{ln}: unknown config key {k!r}")
        cfg[k] = v
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
    the geometric part spanning [hi/10^4, hi], or hi alone at n = 2."""
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
            rest = np.geomspace(hi * 1e-4, hi, n - 1) if n > 2 else [hi]
            pts = np.concatenate([[lo], rest])
    else:
        pts = np.array([_cast("probe", p, float) for p in t.split(",")])
    if np.any(np.diff(pts) <= 0):
        raise click.ClickException(f"probes must be strictly increasing: {text!r}")
    return tuple(float(p) for p in pts)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


# every config key with its parser; a flag of the same name is parsed
# alike, and load_config rejects any other key
_CONFIG_KEYS = {
    "model": str, "seed": int, "workers": int, "out": str,
    "checks": _csv, "kinds": _csv, "probes": parse_probes, "cycles": int,
    "reps": int, "sup_reps": int, "raw_reps": int,
}


def _opt(flag, cfg: dict, key: str, default=None):
    """The flag if given, else the config line, else default, parsed by
    the key's _CONFIG_KEYS entry; None if none of them is set."""
    raw = flag if flag is not None else cfg.get(key, default)
    return None if raw is None else _cast(key, raw, _CONFIG_KEYS[key])


def _need_seed(seed, cfg) -> int:
    value = _opt(seed, cfg, "seed")
    if value is None:
        raise click.ClickException(
            "no seed: pass --seed or a config with seed= (runs must be reproducible)")
    return value


def _out_dir(out, cfg) -> Path:
    """The output directory, created; each command calls it only once
    its results are computed, so an error leaves nothing behind."""
    path = Path(_opt(out, cfg, "out", "htwk-out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


@click.group()
@click.version_option(version=__version__, prog_name="htwk")
def main() -> None:
    """Numerical laboratory for heavy-tailed random walk cycles."""


def _command(*options):
    """Register the decorated function as a subcommand with its own
    options between the shared --config, --model and --out.  It is
    called as fn(cfg, model, out, **own options) with the config loaded
    and the model parsed; an HtwkError becomes a one-line error."""
    def register(fn):
        @functools.wraps(fn)
        def command(config_path, model_text, out, **kwargs):
            cfg = load_config(config_path) if config_path else {}
            text = _opt(model_text, cfg, "model")
            if not text:
                raise click.ClickException(
                    "no model: pass --model or a config with model=")
            try:
                return fn(cfg, spec_to_model(text), out, **kwargs)
            except HtwkError as e:
                raise click.ClickException(f"{type(e).__name__}: {e}") from e
        shared = (
            click.option("--config", "config_path",
                         type=click.Path(exists=True, dir_okay=False)),
            click.option("--model", "model_text", help="distribution expression"),
            *options,
            click.option("--out", help="output directory"))
        for option in reversed(shared):
            command = option(command)
        return main.command()(command)
    return register


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

@_command(click.option("--kinds", "kinds_text", help="comma list from L,D,S,Sstar,SF"),
          click.option("--probes", "probes_text", help="probe grid"))
def classify(cfg, model, out, kinds_text, probes_text):
    """Membership ratio curves for distribution classes."""
    kinds = _opt(kinds_text, cfg, "kinds", "L,D,S,Sstar")
    for kind in kinds:
        if kind not in KINDS:
            raise click.ClickException(
                f"unknown kind {kind!r}; choose from {','.join(KINDS)}")
    xs = _opt(probes_text, cfg, "probes") or PROBES_DEFAULT

    # every curve is computed before anything is written, so an error in
    # a later kind leaves no partial output
    diags = []
    for kind in kinds:
        G = None
        if kind == "SF":
            # self-test: G is the model's own positive part, renormalized
            head = float(model.tail_pos(0.0))
            if head <= 0.0:
                raise click.ClickException("SF self-test needs positive mass")
            G = GridDistribution.from_tail(
                lambda t: np.asarray(model.tail_pos(t), dtype=float) / head,
                x_max=GridConfig().horizon(xs))
        diags.append((kind, membership_curve(kind, model, G=G, xs=xs)))
    out_path = _out_dir(out, cfg)
    verdict_rows = []
    for kind, diag in diags:
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

@_command(click.option("--probes", "probes_text", help="default 0:1e4"))
def tails(cfg, model, out, probes_text):
    """Analytic curves: truncated mean, integral criterion, integrated
    tails against linear and scaled renewal weights."""
    xs = _opt(probes_text, cfg, "probes", "0:1e4")

    K, converged = criterion_K(model)
    click.echo(f"K = {K:.9g}  converged={str(converged).lower()}")

    mneg = truncated_neg_mean(model)
    xs_arr = np.asarray(xs)
    # file name -> (header, rows), all computed before anything is written
    curves = {"m.csv": (("x", "m", "x_over_m"),
                        zip(xs, mneg(xs_arr), mneg.ratio(xs_arr)))}
    if converged:
        g1 = integrated_tail_curve(model, K, xs_arr)
        curves["g1.csv"] = (("x", "g1"), zip(xs, g1))
        gh = {}
        if math.isfinite(model.law.sf_integral(0.0, math.inf)):
            gh["gh_linear"] = renewal_integrated_tail(
                model, RenewalMeasure.lebesgue(), xs_arr)
        else:
            click.echo("positive part has infinite mean; gh_linear column skipped")
        gh["gh_scaled"] = renewal_integrated_tail(
            model, RenewalMeasure.from_ratio(mneg), xs_arr)
        curves["gh.csv"] = (("x", *gh), zip(xs, *gh.values()))
    else:
        click.echo("integral criterion diverges; integrated-tail curves skipped")
    out_path = _out_dir(out, cfg)
    for name, (header, rows) in curves.items():
        write_curve_csv(out_path / name, header, rows)
    click.echo(f"wrote {', '.join(curves)} to {out_path}")


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

@_command(click.option("--seed", type=int),
          click.option("--cycles", type=int),
          click.option("--workers", type=int),
          click.option("--probes", "probes_text"))
def simulate(cfg, model, out, seed, cycles, workers, probes_text):
    """Sample cycles to a columnar file plus a JSON summary.

    Raw columns cost 24 bytes per cycle in memory and on disk."""
    seed = _need_seed(seed, cfg)
    cycles = _opt(cycles, cfg, "cycles", 100_000)
    workers = _opt(workers, cfg, "workers", 1)
    xs = _opt(probes_text, cfg, "probes") or ()

    result = ws.simulate_cycles(model, cycles, seed, workers=workers,
                                probes=xs, keep_raw=True)
    st, tau, m_tau, chi = result.stats, result.tau, result.m_tau, result.chi
    out_path = _out_dir(out, cfg)
    write_cycles(out_path / "cycles.bin", seed, tau, m_tau, chi)
    summary = {
        "model": model.spec_text, "seed": seed, "workers": workers,
        "cycles": st.cycles, "steps": st.steps,
        "tau_mean": st.tau_mean, "tau_se": st.tau_se,
        "tau_max": int(tau.max()), "m_tau_max": float(m_tau.max()),
        "zero_m_tau": int(np.count_nonzero(m_tau == 0.0)),
        "chi_mean": float(chi.sum()) / st.cycles,
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

# the printed label of a verdict
_LABELS = {True: "pass", False: "FAIL", None: "inconclusive"}


def _echo_block(block, depth=0) -> None:
    click.echo(f"{'  ' * depth}[{_LABELS[block.verdict]}] {block.name}")
    for sub in block.subchecks:
        _echo_block(sub, depth + 1)


# verify's config keys, each with its run_verification argument; a key
# that no config line or flag sets keeps that argument's default
_VERIFY_KEYS = {"checks": "checks", "probes": "xs", "cycles": "cycles",
                "reps": "reps", "sup_reps": "sup_reps"}


@_command(click.option("--seed", type=int),
          click.option("--workers", type=int),
          click.option("--cycles", type=int),
          click.option("--probes", "probes_text", help="cycle-max probes"))
def verify(cfg, model, out, seed, workers, cycles, probes_text):
    """Run the verification suite and write report.json."""
    seed = _need_seed(seed, cfg)
    workers = _opt(workers, cfg, "workers", 1)
    flags = {"probes": probes_text, "cycles": cycles}
    kwargs = {arg: _opt(flags.get(key), cfg, key)
              for key, arg in _VERIFY_KEYS.items()
              if flags.get(key) is not None or key in cfg}
    report = vf.run_verification(model, seed, workers=workers, **kwargs)
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
    click.echo(f"overall: {_LABELS[overall]}")
    click.echo(f"wrote report.json (experiment {report.experiment_id}) to {out_path}")
    if overall is False:
        raise SystemExit(EXIT_FAILED)
    if overall is None:
        raise SystemExit(EXIT_INCONCLUSIVE)


# ----------------------------------------------------------------------
# renewal
# ----------------------------------------------------------------------

@_command(click.option("--seed", type=int),
          click.option("--reps", type=int),
          click.option("--workers", type=int),
          click.option("--probes", "probes_text", help="default 1:1e4:16"),
          click.option("--raw-reps", type=int,
                       help="also dump partial-sum points from this many replications"))
def renewal(cfg, model, out, seed, reps, workers, probes_text, raw_reps):
    """Estimate the descent renewal function on a probe grid."""
    seed = _need_seed(seed, cfg)
    reps = _opt(reps, cfg, "reps", 10_000)
    workers = _opt(workers, cfg, "workers", 1)
    xs = _opt(probes_text, cfg, "probes", "1:1e4:16")
    raw_reps = _opt(raw_reps, cfg, "raw_reps", 0)

    est = ws.renewal_estimate(model, xs, reps, seed, workers=workers,
                              raw_reps=raw_reps)
    out_path = _out_dir(out, cfg)
    write_curve_csv(out_path / "renewal.csv", ("x", "h", "h_se"),
                    zip(est.xs, est.h_values, est.h_se))
    files = ["renewal.csv"]
    if est.raw_reps:
        write_curve_csv(out_path / "renewal_points.csv", ("u",),
                        ((u,) for u in est.raw_points))
        files.append(f"renewal_points.csv ({est.raw_points.size} points)")
    for x, h, se in zip(est.xs, est.h_values, est.h_se):
        click.echo(f"H({x:g}) = {h:.6g} +- {se:.3g}")
    click.echo(f"wrote {', '.join(files)} to {out_path}")


if __name__ == "__main__":
    main()
