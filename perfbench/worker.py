"""One repetition of one workload, in a fresh process.

Usage (spawned by run.py):
    python3 perfbench/worker.py --root DIR --workload NAME --config YAML
        --work-dir DIR --result JSON [--setup-only] [--trace SPANS]

Times set-up (import iondpt, load and validate the config through
iondpt.config), then the workload itself, and writes the timings, resource
use and per-point outputs to --result.  With --trace the span tracer is
installed before the config is loaded, the per-layer metrics are added and
the merged spans are written to SPANS, one JSON object a line.
"""

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def _rusage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _points_from_scan(scan):
    return [{"value": float(scan.values[i]), "nbar": float(scan.nbar[i]),
             "sigma": float(scan.sigma[i]),
             "converged": bool(scan.converged[i]),
             "cycles": int(scan.cycles[i]), "n_max": int(scan.n_max[i])}
            for i in range(scan.values.size)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))

    t0 = time.perf_counter()
    import iondpt
    import iondpt.cli
    import iondpt.config
    tracer = None
    if args.trace:
        import spans
        spill = os.path.join(args.work_dir, "spans")
        os.makedirs(spill, exist_ok=True)
        tracer = spans.install(spill)
    tree = iondpt.config.load_tree(args.config)
    config = iondpt.config.experiment_from_tree(tree)
    spec = iondpt.config.scan_spec(tree)
    iondpt.config.probe_spec(tree)
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(iondpt.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported iondpt from {iondpt.__file__}, not {src}")
    out = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.result, out)
        return 0

    from iondpt import analysis
    error = None
    extra = {}
    scan = None
    self0, child0 = _rusage()
    w0 = time.perf_counter()
    try:
        if args.workload == "gscan-exact-probe":
            scan_dir = os.path.join(args.work_dir, "scan")
            rc = iondpt.cli.main(["scan", "--config", args.config, "--probe",
                                  "--threads", str(workloads.PROBE_THREADS),
                                  "--out-dir", scan_dir])
            if rc != 0:
                error = f"cli exit code {rc}"
        elif args.workload == "rscan-linearized-critical":
            scan = analysis.r_scan(config, spec["values"], spec["fixed_g"],
                                   threads=1)
            fit = analysis.fit_loglog_slope(list(zip(scan.values, scan.nbar)))
            extra["slope"] = fit.params["slope"]
        elif args.workload == "gscan-noisy":
            scan = analysis.g_scan(config, spec["values"], threads=1)
        else:
            raise SystemExit(f"unknown workload {args.workload!r}")
    except (iondpt.SimulationDiverged, iondpt.channels.IntegrationError,
            analysis.FitError, iondpt.probe.FitError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - w0
    self1, child1 = _rusage()

    if error is None:
        if scan is None:
            stem = os.path.splitext(os.path.basename(args.config))[0]
            scan = analysis.scan_from_csv(
                os.path.join(scan_dir, f"{stem}_scan.csv"))
        points = _points_from_scan(scan)
    else:
        points = [{"value": float(v)} for v in spec["values"]]
    out.update(
        wall_s=wall_s,
        cpu_s=(_cpu_s(self1) - _cpu_s(self0)) + (_cpu_s(child1) - _cpu_s(child0)),
        peak_rss_mb=max(self1.ru_maxrss, child1.ru_maxrss) / 1024.0,
        tolerance_mode=config.convergence.mode == "tolerance",
        error=error, points=points, **extra)
    if tracer is not None:
        tracer.uninstall()
        merged = tracer.collect()
        with open(args.trace, "w") as fh:
            for span in merged:
                fh.write(json.dumps(span) + "\n")
        out["layers"] = spans.layer_metrics(merged)
        out["span_count"] = len(merged)
    _write(args.result, out)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
