"""Command-line front end: run trajectories, parameter scans, fits and the
probe-emulation demo, persisting CSV/JSON artifacts with a manifest.

Exit codes: 0 success, 2 configuration or input-schema error, 3 simulation
abort, 4 fit failure.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import analysis, probe
from .config import (ConfigError, load_tree, experiment_from_tree, scan_spec,
                     probe_spec)
from .protocol import SimulationDiverged, run

EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, data, **kw):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, **kw)
        fh.write("\n")
    return path


def _write_manifest(out_dir, stem, tree, seed, started, outputs, **extra):
    manifest = {
        "version": __version__,
        "config": tree,
        "seed": seed,
        **extra,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": {name: {"path": path, "sha256": _sha256(path)}
                    for name, path in outputs.items()},
    }
    return _write_json(os.path.join(out_dir, f"{stem}_manifest.json"),
                       manifest, default=repr)


def _read_tree(path):
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    return load_tree(path)


def _load_config(args):
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    tree = _read_tree(args.config)
    if args.seed is not None:
        tree["seed"] = args.seed
    return tree, experiment_from_tree(tree)


def _stem(args):
    return os.path.splitext(os.path.basename(args.config))[0]


def cmd_run(args):
    tree, config = _load_config(args)
    started = datetime.now(timezone.utc).isoformat()
    traj = run(config)
    stem = _stem(args)
    csv_path = os.path.join(args.out_dir, f"{stem}_trajectory.csv")
    probe.write_csv(csv_path, ["cycle", "nbar", "p_up", "t_us", "n_max"],
                    ([c, f"{n:.12g}", f"{p:.12g}", f"{t:.12g}", traj.n_max]
                     for c, n, p, t in zip(traj.cycle, traj.nbar, traj.p_up,
                                           traj.t_us)))
    outputs = {"trajectory": csv_path}

    if traj.cycles_run >= 10:
        try:
            fit = analysis.fit_exponential_saturation(traj)
            outputs["relaxation_fit"] = _write_json(
                os.path.join(args.out_dir, f"{stem}_relaxation.json"),
                {"model": fit.model, "params": fit.params,
                 "errors": fit.errors,
                 "residual_rms": fit.residual_rms})
        except analysis.FitError:
            pass  # relaxation summary is optional

    manifest = _write_manifest(args.out_dir, stem, tree, config.seed, started,
                               outputs)
    print(f"cycles={traj.cycles_run} steady_nbar={traj.steady_nbar():.4f} "
          f"converged={traj.converged}")
    print(f"wrote {csv_path}")
    print(f"wrote {manifest}")
    return 0


def cmd_scan(args):
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
    tree, config = _load_config(args)
    spec = scan_spec(tree)
    popts = probe_spec(tree)   # checked whether or not --probe reads it
    popts, readout = (popts, "probe") if args.probe else (None, "direct")
    started = datetime.now(timezone.utc).isoformat()
    threads = args.threads or os.cpu_count() or 1
    if spec["axis"] == "g":
        scans = [analysis.g_scan(config, spec["values"], popts, threads=threads)]
    elif spec["axis"] == "R":
        scans = [analysis.r_scan(config, spec["values"], spec["fixed_g"],
                                 popts, threads=threads)]
    else:
        scans = analysis.cooling_scan(config, spec["omega_c"], spec["values"],
                                      popts, threads=threads)

    stem = _stem(args)
    outputs = {}
    for i, scan in enumerate(scans):
        suffix = f"_scan{i}" if len(scans) > 1 else "_scan"
        path = os.path.join(args.out_dir, f"{stem}{suffix}.csv")
        analysis.scan_to_csv(scan, path)
        outputs[f"scan{i}" if len(scans) > 1 else "scan"] = path
        label = f" [{scan.label}]" if scan.label else ""
        print(f"wrote {path}{label}")
    manifest = _write_manifest(args.out_dir, stem, tree, config.seed, started,
                               outputs, readout=readout)
    print(f"wrote {manifest}")
    return 0


def _read_xy_csv(path):
    rows = probe.read_csv(path)
    if len(rows) < 2:
        raise ValueError("empty or header-only CSV")
    try:
        return np.array([[float(row[0]), float(row[1])] for row in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"expected numeric two-column rows: {exc}") from exc


def cmd_fit(args):
    if not os.path.isfile(args.data):
        raise ConfigError(f"data file not found: {args.data}")
    if args.model == "populations":
        if not args.config:
            raise ConfigError("populations fit needs --config for the probe "
                              "Rabi frequency")
        popts = probe_spec(_read_tree(args.config))
        if popts.omega_probe is None:
            raise ConfigError("config probe.omega_probe_khz is required for "
                              "the populations fit")
    try:
        if args.model == "populations":
            scan = probe.scan_from_csv(args.data, popts.omega_probe)
            k_max = probe.STORED_SCAN_K_MAX if popts.k_max is None else popts.k_max
            fit = probe.fit_populations(scan, k_max, decay_model=popts.decay_model)
            nbar, sigma = probe.nbar_from_fit(fit)
            report = {"model": "populations",
                      "params": {"nbar": nbar,
                                 "gamma0": fit.gamma0,
                                 "p": [float(v) for v in fit.p]},
                      "errors": {"nbar": sigma},
                      "residual_rms": fit.residual_rms}
        else:
            data = _read_xy_csv(args.data)
            if args.model == "saturation":
                fit = analysis.fit_exponential_saturation((data[:, 0], data[:, 1]))
            elif args.model == "loglog":
                fit = analysis.fit_loglog_slope(data)
            else:
                fit = analysis.fit_critical_power_law(data)
            report = {"model": fit.model, "params": fit.params,
                      "errors": fit.errors, "residual_rms": fit.residual_rms}
    except ValueError as exc:
        # a malformed data file; the config was read above
        raise ConfigError(f"{args.data}: {exc}") from exc

    out_path = _write_json(os.path.join(
        args.out_dir, os.path.splitext(os.path.basename(args.data))[0]
        + f"_{args.model}_fit.json"), report)
    print(json.dumps(report["params"]))
    print(f"wrote {out_path}")
    return 0


def cmd_probe_demo(args):
    tree, config = _load_config(args)
    popts = probe_spec(tree, config.cool)
    started = datetime.now(timezone.utc).isoformat()
    traj = run(config)

    rho_m = traj.final_state
    number = np.arange(rho_m.shape[0])
    nbar_direct = float(np.real(np.diag(rho_m)) @ number)
    nbar_fit, sigma, fit, scan = probe.measure_nbar(rho_m, seed=config.seed,
                                                    **asdict(popts))

    stem = _stem(args)
    scan_path = os.path.join(args.out_dir, f"{stem}_probe.csv")
    probe.scan_to_csv(scan, scan_path)
    fit_path = _write_json(
        os.path.join(args.out_dir, f"{stem}_populations.json"),
        {"nbar_fit": nbar_fit, "sigma": sigma,
         "nbar_direct": nbar_direct,
         "p": [float(v) for v in fit.p],
         "gamma0": fit.gamma0,
         "residual_rms": fit.residual_rms})
    manifest = _write_manifest(args.out_dir, stem, tree, config.seed, started,
                               {"probe_scan": scan_path, "populations": fit_path})
    print(f"nbar_fit={nbar_fit:.4f} sigma={sigma:.4f} nbar_direct={nbar_direct:.4f}")
    print(f"wrote {scan_path}")
    print(f"wrote {manifest}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iondpt",
        description="Stroboscopic drive/cooling simulator for the dissipative "
                    "phase transition of the quantum Rabi model")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="simulate one trajectory")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="parameter scan per the config's scan section")
    common(p_scan)
    p_scan.add_argument("--probe", action="store_true",
                        help="read out nbar through the probe emulation")
    p_scan.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: one per core)")
    p_scan.set_defaults(func=cmd_scan)

    p_fit = sub.add_parser("fit", help="fit a stored CSV dataset")
    p_fit.add_argument("data", help="input CSV path")
    p_fit.add_argument("--model", required=True,
                       choices=["saturation", "power_law_critical", "loglog",
                                "populations"])
    p_fit.add_argument("--config", help="config file (populations fit)")
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_demo = sub.add_parser("probe-demo",
                            help="steady state, probe emulation and population fit")
    common(p_demo)
    p_demo.set_defaults(func=cmd_probe_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_dir", None):
        os.makedirs(args.out_dir, exist_ok=True)
    try:
        return args.func(args)
    except ConfigError as exc:
        message, code = str(exc), EXIT_CONFIG
    except SimulationDiverged as exc:
        message, code = f"simulation aborted: {exc}", EXIT_SIMULATION
    except probe.FitError as exc:
        message, code = f"fit failed: {exc}", EXIT_FIT
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
