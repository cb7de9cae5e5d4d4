"""Command-line entry point.

Subcommands:
  reproduce  run a built-in benchmark preset (fig2 SNR sweep, fig3 aperture
             sweep) or a custom sweep from a JSON config file
  estimate   single-shot distance estimation on a measurement file
  inspect    print the correlation profile and derived constants of a layout

All machine-readable output (CSV tables, JSON objects) goes to stdout or the
requested file; human prose goes to stderr. Exit codes: 0 success, 2 input
error, 3 numerical non-convergence, 4 model-validity error.
"""

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (SPACING_CONVENTIONS, CorrelationModel, FasLayout, ModelValidityError,
                      average_mu_squared, build_covariance, lag_correlations)
from .estimators import (EstimatorConfig, _check_rows, kappa_constant, solve_ls, solve_mle,
                         solve_single_antenna)
from .experiments import ExperimentSpec, fig2_spec, fig3_spec, run_experiment
from .forward_model import RssiProfile, Scene, read_measurements

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOCONV = 3
EXIT_MODEL = 4


def _info(msg):
    print(msg, file=sys.stderr)


@functools.cache
def _build_parser():
    """The ``fasloc`` parser and its command parsers by name, built on first
    use and shared by every call: building them costs about as much as the
    solve of an ``estimate`` call, ``parse_args`` leaves them unchanged and
    every default is immutable.
    """
    parser = argparse.ArgumentParser(prog="fasloc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fasloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    layout = argparse.ArgumentParser(add_help=False)  # the FasLayout fields
    layout.add_argument("--n-ports", type=int, required=True)
    layout.add_argument("--aperture", type=float, required=True)
    layout.add_argument("--wavelength", type=float, default=FasLayout.wavelength)
    layout.add_argument("--spacing", choices=SPACING_CONVENTIONS, default=FasLayout.spacing)

    rep = sub.add_parser("reproduce", help="run a benchmark preset or config-file sweep")
    rep.add_argument("preset", nargs="?", choices=("fig2", "fig3"),
                     help="built-in preset (omit when using --config)")
    rep.add_argument("--config", type=Path, help="JSON sweep description instead of a preset")
    rep.add_argument("--seed", type=int, default=None,
                     help="preset base seed (default 42)")
    rep.add_argument("--trials", type=int, default=None,
                     help="preset trials per axis point (default 10000)")
    rep.add_argument("--out", type=Path, default=None, help="output CSV path")
    rep.add_argument("--workers", type=int, default=1)
    rep.add_argument("--spacing-h", type=float, default=None,
                     help="fig3 only: run a single per-port pitch instead of both presets")
    rep.add_argument("--json", action="store_true", help="also write a .json twin of each table")

    est = sub.add_parser("estimate", parents=[layout],
                         help="estimate distance from a measurement file")
    est.add_argument("--input", type=Path, required=True)
    est.add_argument("--theta", type=float, required=True, help="known bearing, radians")
    est.add_argument("--amp-const", type=float, required=True,
                     help="link amplitude constant A of the log-distance model")
    est.add_argument("--method", choices=("mle", "ls", "single"), default="mle")
    est.add_argument("--path-loss-exp", type=float, default=Scene.path_loss_exp)
    est.add_argument("--bracket", type=float, nargs=2, default=(0.01, 10000.0),
                     metavar=("DMIN", "DMAX"))
    est.add_argument("--tolerance", type=float, default=EstimatorConfig.tolerance)

    ins = sub.add_parser("inspect", parents=[layout],
                         help="print layout correlation diagnostics as JSON")
    ins.add_argument("--model", choices=[m.value for m in CorrelationModel],
                     default=CorrelationModel.AVERAGE_MU.value)
    return parser, sub.choices


def _parse_args(argv):
    """``argv``'s Namespace: a command's arguments go straight to its parser,
    as the top-level one would forward them; other lists go to the top."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def _read_config(path):
    """The sweep spec of a config file and its ``output`` path (or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    output = cfg.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ValueError(f"config output must be a path string, got {output!r}")
    return ExperimentSpec.from_dict(cfg), output


def _write_table(table, out_path, want_json):
    table.to_csv(out_path)
    _info(f"wrote {out_path}")
    if want_json:
        jpath = Path(out_path).with_suffix(".json")
        table.to_json(jpath)
        _info(f"wrote {jpath}")


def _cmd_reproduce(args):
    """Run, write and summarise one (spec, CSV path) per table the request names."""
    if args.config is not None:
        if args.preset is not None:
            _info("error: give either a preset or --config, not both")
            return EXIT_INPUT
        ignored = [flag for flag, value in (("--seed", args.seed), ("--trials", args.trials),
                                            ("--spacing-h", args.spacing_h))
                   if value is not None]
        if ignored:
            _info(f"error: {', '.join(ignored)} cannot be combined with --config; "
                  f"set base_seed, trials and spacing_h in the config file")
            return EXIT_INPUT
        spec, output = _read_config(args.config)
        runs = [(spec, args.out or Path(output or "sweep.csv"))]
    elif args.preset is None:
        _info("error: a preset name or --config is required")
        return EXIT_INPUT
    elif args.preset == "fig2" and args.spacing_h is not None:
        _info("error: --spacing-h applies to fig3 only")
        return EXIT_INPUT
    else:
        # the presets' own defaults apply to the flags not given
        preset_kw = {key: value for key, value in (("base_seed", args.seed),
                                                   ("trials", args.trials)) if value is not None}
        out = args.out or Path(f"{args.preset}.csv")
        if args.preset == "fig2":
            runs = [(fig2_spec(**preset_kw), out)]
        elif args.spacing_h is not None:
            runs = [(fig3_spec(spacing_h=args.spacing_h, **preset_kw), out)]
        else:  # both pitches, each tagged in its file name
            runs = [(fig3_spec(spacing_h=h, **preset_kw),
                     out.with_name(out.stem + f"_h{h:g}".replace(".", "p") + out.suffix))
                    for h in (0.05, 0.01)]

    clash = [str(path) for _, path in runs if args.json and path.with_suffix(".json") == path]
    if clash:
        _info(f"error: --json would overwrite {', '.join(clash)} with its JSON twin")
        return EXIT_INPUT
    for spec, path in runs:
        table = run_experiment(spec, workers=args.workers)
        _write_table(table, path, args.json)
        if args.preset == "fig2":
            gap = (table.row(10.0, "single_antenna").nmse_db
                   - table.row(10.0, "fas_mle").nmse_db)
            _info(f"single_antenna vs fas_mle NMSE gap at SNR 10 dB: {gap:.2f} dB")
        elif args.preset == "fig3":
            nmse = [r.nmse_db for r in table.rows]
            _info(f"fig3 pitch {spec.spacing_h:g}: fas_ls NMSE range "
                  f"[{min(nmse):.2f}, {max(nmse):.2f}] dB over W")
    return EXIT_OK


def _cmd_estimate(args):
    layout = FasLayout(args.n_ports, args.aperture, args.wavelength, args.spacing)
    profile = RssiProfile(layout, args.theta, args.amp_const, args.path_loss_exp)
    rows = _check_rows(read_measurements(args.input, layout.n_ports))  # before averaging
    cfg = EstimatorConfig(search_bracket=tuple(args.bracket), tolerance=args.tolerance)
    # snapshots are averaged port-wise; a one-port stream is one row of readings
    if args.method == "mle":
        batch = solve_mle(rows.mean(axis=0, keepdims=True), profile,
                          average_mu_squared(layout), cfg)
    elif args.method == "ls":
        batch = solve_ls(rows.mean(axis=0, keepdims=True), profile, cfg)
    else:
        if layout.n_ports != 1:
            raise ValueError("single-antenna estimation requires one-port snapshots")
        batch = solve_single_antenna(rows.reshape(1, -1), profile)
    result = {f.name: getattr(batch, f.name)[0].item() for f in fields(batch)}
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return EXIT_OK if result["converged"] else EXIT_NOCONV


def _cmd_inspect(args):
    layout = FasLayout(args.n_ports, args.aperture, args.wavelength, args.spacing)
    model = CorrelationModel(args.model)
    mu2 = average_mu_squared(layout)
    kappa = kappa_constant(mu2, layout.n_ports) if mu2 < 1.0 else None
    cov = build_covariance(layout, model, 1.0)
    # at sigma2 = 1 an unrepaired matrix is the raw one, already decomposed
    eigs = np.linalg.eigvalsh(cov.entries) if cov.regularized else cov.raw_eigenvalues
    if model is CorrelationModel.INDEPENDENT:
        profile = [1.0] + [0.0] * (layout.n_ports - 1)
    else:
        profile = lag_correlations(layout).tolist()
    print(json.dumps({
        "n_ports": layout.n_ports,
        "aperture": layout.aperture,
        "spacing": layout.spacing,
        "model": model.value,
        "mu_squared": mu2,
        "kappa": kappa,
        "eigenvalue_min": float(eigs[0]),
        "eigenvalue_max": float(eigs[-1]),
        "regularized": cov.regularized,
        "correlation_profile": profile,
    }, sort_keys=True, allow_nan=False))
    return EXIT_OK


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_inspect(args)
    except ModelValidityError as exc:
        _info(f"model-validity error: {exc}")
        return EXIT_MODEL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _info(f"input error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
