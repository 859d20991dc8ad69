"""iondpt benchmark: time to a steady-state scan, end to end and per layer.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's config from the shipped configs and the seed, then
runs it in fresh worker processes (perfbench/worker.py).  With --trace 0 it
repeats the workload, at least twice and then while the next repetition is
expected to end within --seconds of the start, and reports the end-to-end
metrics as medians.
Between the processes a fixed kernel (perfbench/calibrate.py) measures the
host's speed, and workload times are reported at the reference host's
speed.  With --trace 1 it runs the workload once untraced and once traced
and reports the per-layer metrics, the tracing overhead included.  Every
point is checked; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A full record (environment, per-point
outputs, every repetition) goes to .perfbench-out/.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ONLY_SAMPLES = 3      # set-up is also sampled once per repetition
MIN_REPS = 2                # a slow repetition is never a run's only sample
DEADLINE_S = 170.0          # a run must end within 180 s
REPEAT_ATOL = 1e-9          # repetitions must agree on every nbar
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result in this directory."""


def _check_checkout():
    needed = [os.path.join(ROOT, "src", "iondpt", "__init__.py"),
              os.path.join(ROOT, "BENCHMARK.json")]
    needed += [os.path.join(ROOT, "configs", f)
               for f in ("fig2c.yaml", "sm_s1.yaml", "fig3_r50.yaml")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise BenchError("not an iondpt checkout, missing: "
                         + ", ".join(os.path.relpath(p, ROOT) for p in missing))


def environment(loadavg_start):
    """What the timings depend on, recorded as found (never set here).

    Called after the workers ran, so that numpy never sits in the memory
    of the process the workers are forked from."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg_start),
    }


class Runner:
    """Spawns worker processes for one benchmark run, within a deadline."""

    def __init__(self, workload, config_path, work_dir, spans_path, deadline):
        self.workload = workload
        self.spans_path = spans_path
        self.config_path = config_path
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def spawn(self, setup_only=False, trace=False):
        self.count += 1
        rep_dir = os.path.join(self.work_dir, f"rep{self.count}")
        os.makedirs(rep_dir)
        result = os.path.join(rep_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--workload", self.workload,
               "--config", self.config_path, "--work-dir", rep_dir,
               "--result", result]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace", self.spans_path] if trace else []
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
        with open(result) as fh:
            return json.load(fh)


class Calibrator:
    """A calibrate.py process that measures the host's speed on request."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def measure(self):
        if time.monotonic() > self.deadline:
            raise BenchError("out of time before the run finished")
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("calibrate.py exited without a measurement")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def run_reps(runner, seconds, trace):
    """Set-up samples, then MIN_REPS repetitions and more while the next
    one is expected to end within `seconds` of the start (one with
    `trace`), then the traced repetition.  The host's speed is measured after each set-up sample and
    after each repetition.  Returns (setup_samples, kernel_s, reps, traced).
    """
    t0 = time.monotonic()
    setup, kernel_s, reps = [], [], []
    calibrator = Calibrator(runner.deadline)
    try:
        for _ in range(SETUP_ONLY_SAMPLES):
            setup.append(runner.spawn(setup_only=True)["setup_s"])
            kernel_s.append(calibrator.measure())
        t_reps = time.monotonic()
        while True:
            reps.append(runner.spawn())
            setup.append(reps[-1]["setup_s"])
            kernel_s.append(calibrator.measure())
            if trace:
                break
            now = time.monotonic()
            if (len(reps) >= MIN_REPS
                    and now - t0 + (now - t_reps) / len(reps) > seconds):
                break
    finally:
        calibrator.close()
    traced = runner.spawn(trace=True) if trace else None
    return setup, kernel_s, reps, traced


def at_reference_speed(seconds, kernel_s):
    """`seconds` measured in a run whose calibrate.py measurements were
    `kernel_s`, scaled to the time the reference host would have taken."""
    return seconds * workloads.CALIBRATION_S / statistics.median(kernel_s)


def check(workload, seed, reps, refs, tiny):
    """Check every repetition; returns (correct, attempted, failed)."""
    correct = True
    attempted = failed = 0
    first = reps[0]
    for rep in reps:
        attempted += len(rep["points"])
        if rep["error"] is not None:
            failed += len(rep["points"])
            correct = False
            continue
        n_failed, unexpected = workloads.check_points(
            workload, rep["points"], seed, rep["tolerance_mode"], refs, tiny)
        failed += n_failed
        correct &= unexpected == 0
        if "slope" in rep:
            rep["slope_ok"] = workloads.check_slope(workload, rep["slope"],
                                                    seed, refs, tiny)
            correct &= rep["slope_ok"]
        if first["error"] is None:
            same = all(abs(p["nbar"] - q["nbar"]) <= REPEAT_ATOL
                       for p, q in zip(rep["points"], first["points"]))
            rep["repeats_first"] = same
            correct &= same
    return correct, attempted, failed


def metric_values(setup, kernel_s, reps, traced, attempted, failed):
    for rep in reps:
        rep["wall_ref_s"] = at_reference_speed(rep["wall_s"], kernel_s)
    if traced is None:
        return {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(r["wall_ref_s"] for r in reps),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
    plain = reps[0]
    values = dict(traced["layers"])
    values.update({
        "host.kernel_s": statistics.median(kernel_s),
        "host.wall_measured_s": plain["wall_s"],
        "fail_ratio": failed / attempted,
        "proc.cpu_s": plain["cpu_s"],
        "proc.cpu_per_wall": plain["cpu_s"] / plain["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    return values


def _finite(obj):
    """NaN and infinities become null, so the result file is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    return obj


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken grids for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    loadavg_start = os.getloadavg()
    try:
        _check_checkout()
        import yaml
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    refs = workloads.load_references()

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        def load_yaml(path):
            with open(path) as fh:
                return yaml.safe_load(fh)

        tree = workloads.config_tree(args.workload, args.seed,
                                     os.path.join(ROOT, "configs"), load_yaml,
                                     tiny=args.tiny)
        config_path = os.path.join(work_dir, f"{args.workload}.yaml")
        with open(config_path, "w") as fh:
            yaml.safe_dump(tree, fh, sort_keys=False)
        stem = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else ""))
        runner = Runner(args.workload, config_path, work_dir,
                        stem + "-spans.jsonl", deadline)
        setup, kernel_s, reps, traced = run_reps(runner, args.seconds,
                                                 bool(args.trace))
        checked = reps + ([traced] if traced else [])
        correct, attempted, failed = check(args.workload, args.seed, checked,
                                           refs, args.tiny)
        values = metric_values(setup, kernel_s, reps, traced, attempted,
                               failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": environment(loadavg_start), "config": tree,
              "setup_samples": setup, "kernel_s": kernel_s,
              "repetitions": reps, "traced": traced,
              "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    result_path = stem + ".json"
    with open(result_path, "w") as fh:
        json.dump(_finite(record), fh, indent=1)
    print(f"result file: {os.path.relpath(result_path, ROOT)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
