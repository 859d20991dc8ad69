"""Command-line front end: run trajectories, parameter scans, fits and the
probe-emulation demo, persisting CSV/JSON artifacts with a manifest.

Exit codes: 0 success, 2 configuration or input-schema error, 3 simulation
abort, 4 fit failure.
"""

import argparse
import csv as _csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import analysis, probe
from .channels import IntegrationError
from .config import (ConfigError, load_tree, experiment_from_tree, scan_spec,
                     probe_spec)
from .fockspace import trace_out_spin
from .model import khz
from .protocol import SimulationDiverged, run

EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_FIT = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, stem, tree, seed, started, outputs):
    manifest = {
        "version": __version__,
        "config": tree,
        "seed": seed,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": {name: {"path": path, "sha256": _sha256(path)}
                    for name, path in outputs.items()},
    }
    path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=repr)
        fh.write("\n")
    return path


def _write_trajectory_csv(traj, path):
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["cycle", "nbar", "p_up", "t_us", "n_max"])
        for i in range(traj.cycles_run):
            writer.writerow([int(traj.cycle[i]), f"{traj.nbar[i]:.12g}",
                             f"{traj.p_up[i]:.12g}", f"{traj.t_us[i]:.12g}",
                             int(traj.n_max_used[i])])


def _load_config(args):
    if not args.config:
        raise CliError("--config is required for this subcommand", EXIT_CONFIG)
    if not os.path.isfile(args.config):
        raise CliError(f"config file not found: {args.config}", EXIT_CONFIG)
    try:
        tree = load_tree(args.config)
        config = experiment_from_tree(tree, channel=args.channel,
                                      noise_mode=args.noise, seed=args.seed)
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    return tree, config


def _stem(args):
    return os.path.splitext(os.path.basename(args.config))[0]


def cmd_run(args):
    tree, config = _load_config(args)
    started = datetime.now(timezone.utc).isoformat()
    try:
        traj = run(config)
    except (SimulationDiverged, IntegrationError) as exc:
        raise CliError(f"simulation aborted: {exc}", EXIT_SIMULATION) from exc
    stem = _stem(args)
    csv_path = os.path.join(args.out_dir, f"{stem}_trajectory.csv")
    _write_trajectory_csv(traj, csv_path)
    outputs = {"trajectory": csv_path}

    if traj.cycles_run >= 10:
        try:
            fit = analysis.fit_exponential_saturation(traj)
            fit_path = os.path.join(args.out_dir, f"{stem}_relaxation.json")
            with open(fit_path, "w") as fh:
                json.dump({"model": fit.model, "params": fit.params,
                           "errors": fit.errors,
                           "residual_rms": fit.residual_rms}, fh, indent=2)
                fh.write("\n")
            outputs["relaxation_fit"] = fit_path
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
    tree, config = _load_config(args)
    try:
        spec = scan_spec(tree)
        popts = probe_spec(tree)
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    readout = "probe" if args.probe else "direct"
    shots = popts.pop("shots", None)
    if shots is not None:
        popts["shots"] = shots
    started = datetime.now(timezone.utc).isoformat()
    threads = args.threads or (os.cpu_count() or 1)
    try:
        if spec["axis"] == "g":
            scans = [analysis.g_scan(config, spec["values"], readout=readout,
                                     probe_opts=popts, threads=threads)]
        elif spec["axis"] == "R":
            scans = [analysis.r_scan(config, spec["values"], spec["fixed_g"],
                                     readout=readout, probe_opts=popts,
                                     threads=threads)]
        else:
            omega_values = [khz(f) for f in spec["omega_c_khz"]]
            scans = analysis.cooling_scan(config, omega_values, spec["values"],
                                          threads=threads)
    except (SimulationDiverged, IntegrationError) as exc:
        raise CliError(f"simulation aborted: {exc}", EXIT_SIMULATION) from exc

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
                               outputs)
    print(f"wrote {manifest}")
    return 0


def _read_xy_csv(path):
    with open(path, newline="") as fh:
        rows = list(_csv.reader(fh))
    if not rows or len(rows) < 2:
        raise CliError(f"{path}: empty or header-only CSV", EXIT_CONFIG)
    try:
        data = np.array([[float(row[0]), float(row[1])] for row in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise CliError(f"{path}: expected numeric two-column rows: {exc}",
                       EXIT_CONFIG) from exc
    return rows[0], data


def cmd_fit(args):
    if not os.path.isfile(args.data):
        raise CliError(f"data file not found: {args.data}", EXIT_CONFIG)
    try:
        if args.model in ("saturation", "loglog", "power_law_critical"):
            _, data = _read_xy_csv(args.data)
            if args.model == "saturation":
                fit = analysis.fit_exponential_saturation((data[:, 0], data[:, 1]))
            elif args.model == "loglog":
                fit = analysis.fit_loglog_slope(data)
            else:
                fit = analysis.fit_critical_power_law(data)
            report = {"model": fit.model, "params": fit.params,
                      "errors": fit.errors, "residual_rms": fit.residual_rms}
        else:  # populations
            if not args.config:
                raise CliError("populations fit needs --config for the probe "
                               "Rabi frequency", EXIT_CONFIG)
            tree = load_tree(args.config)
            popts = probe_spec(tree)
            omega = popts.get("omega_probe")
            if omega is None:
                raise CliError("config probe.omega_probe_khz is required for "
                               "the populations fit", EXIT_CONFIG)
            scan = probe.scan_from_csv(args.data, omega)
            k_max = popts.get("k_max", 8)
            fit = probe.fit_populations(scan, k_max,
                                        decay_model=popts.get("decay_model", "sqrt"))
            nbar, sigma = probe.nbar_from_fit(fit)
            report = {"model": "populations",
                      "params": {"nbar": nbar,
                                 "gamma0": fit.gamma0,
                                 "p": [float(v) for v in fit.p]},
                      "errors": {"nbar": sigma},
                      "residual_rms": fit.residual_rms}
    except probe.FitError as exc:
        raise CliError(f"fit failed: {exc}", EXIT_FIT) from exc
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    except ValueError as exc:
        raise CliError(f"{args.data}: {exc}", EXIT_CONFIG) from exc

    out_path = os.path.join(args.out_dir,
                            os.path.splitext(os.path.basename(args.data))[0]
                            + f"_{args.model}_fit.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["params"]))
    print(f"wrote {out_path}")
    return 0


def cmd_probe_demo(args):
    tree, config = _load_config(args)
    try:
        popts = probe_spec(tree)
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    started = datetime.now(timezone.utc).isoformat()
    try:
        traj = run(config)
    except (SimulationDiverged, IntegrationError) as exc:
        raise CliError(f"simulation aborted: {exc}", EXIT_SIMULATION) from exc

    rho_m = trace_out_spin(traj.final_state)
    number = np.arange(rho_m.shape[0])
    nbar_direct = float(np.real(np.diag(rho_m)) @ number)
    omega = popts.pop("omega_probe", config.cool.omega_c)
    shots = popts.pop("shots", None)
    try:
        nbar_fit, sigma, fit, scan = probe.measure_nbar(
            rho_m, omega, shots=shots, seed=config.seed, **popts)
    except probe.FitError as exc:
        raise CliError(f"fit failed: {exc}", EXIT_FIT) from exc

    stem = _stem(args)
    scan_path = os.path.join(args.out_dir, f"{stem}_probe.csv")
    probe.scan_to_csv(scan, scan_path)
    fit_path = os.path.join(args.out_dir, f"{stem}_populations.json")
    with open(fit_path, "w") as fh:
        json.dump({"nbar_fit": nbar_fit, "sigma": sigma,
                   "nbar_direct": nbar_direct,
                   "p": [float(v) for v in fit.p],
                   "gamma0": fit.gamma0,
                   "residual_rms": fit.residual_rms}, fh, indent=2)
        fh.write("\n")
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

    def common(p, config_required=True):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--channel", choices=["exact", "lindblad"], default=None)
        p.add_argument("--noise",
                       choices=["off", "decoherence", "decoherence+recoil"],
                       default=None)

    p_run = sub.add_parser("run", help="simulate one trajectory")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="parameter scan per the config's scan section")
    common(p_scan)
    p_scan.add_argument("--probe", action="store_true",
                        help="read out nbar through the probe emulation")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
