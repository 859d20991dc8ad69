"""Stage costs of the drive -> cool cycle, written to BENCH_stages.json.

    PYTHONPATH=src python bench/stages.py

For each stage kind at each cutoff, on fig3_r50 at g = 1.5, it runs
CYCLES cycles from the config's initial state, --repeats times, and
records the drive, cooling and bookkeeping microseconds per call and the
drive and cooling builds in ms, each as the min and median over the
repeats, and the nbar after the cycles, the equal-results anchor.  It also
records each module's import time in fresh processes, the warm compute of
each shipped config's command (serial, one process, min and median over
the repeats), the host and the git revision.  Stage work runs on one BLAS
thread, as every iondpt command does.

No number in the file is gated.  A perf change cites its rows, parent
against change, from runs of this script in one session (README).
"""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from iondpt import analysis, cli
from iondpt import fockspace as fs
from iondpt.channels import CoolingChannel, drive_stage, make_noise_jumps
from iondpt.config import experiment_from_tree, load_tree
from iondpt.fockspace import FockCutoff
from iondpt.model import derive, h_qrm
from iondpt.protocol import config_with_coupling, prepare_initial

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
G = 1.5
CYCLES = 10
# the noise of the benchmark's noisy scan and of the noisy golden cases
NOISY = {"heating_per_s": 50.0, "dephasing_per_s": 200.0}
# stage kind: (channel, noise section)
KINDS = {"exact": ("exact", {}),
         "linearized": ("lindblad", {}),
         "noisy_exact": ("exact", NOISY),
         "noisy_exact_recoil": ("exact", dict(NOISY, recoil=True)),
         "noisy_linearized": ("lindblad", NOISY)}
MODULES = ("numpy", "scipy.linalg", "scipy.sparse", "scipy.optimize", "yaml",
           "iondpt.cli")
# the command of each shipped config
COMMANDS = {"fig2a_run": ["run", "fig2a"],
            "fig2a_probe_demo": ["probe-demo", "fig2a"],
            **{name: ["scan", name, "--threads", "1"]
               for name in ("fig2c", "fig3_r50", "fig4", "sm_s1", "sm_s2")}}


def stats(samples, digits):
    return {"min": round(float(np.min(samples)), digits),
            "median": round(float(np.median(samples)), digits)}


def stage_repeat(config, n_max):
    """(build ms of drive and cooling, per-call us of drive, cooling and
    bookkeeping, nbar) of one run of CYCLES cycles at this cutoff, set up as
    protocol._run_at_cutoff sets it up."""
    clock = time.perf_counter
    cutoff = FockCutoff(n_max)
    drive = derive(config.drive)
    free = np.exp(-1j * drive.omega_f * np.arange(cutoff.bdim)
                  * config.cool.tau_d)
    t0 = clock()
    drive_map = drive_stage(h_qrm(drive, cutoff), config.drive.tau, free,
                            make_noise_jumps(config.noise, cutoff))
    t1 = clock()
    cooling = CoolingChannel(config.cool, cutoff, config.noise,
                             config.channel_mode)
    t2 = clock()
    builds = np.array([t1 - t0, t2 - t1]) * 1e3
    state = prepare_initial(config, cutoff)
    levels = np.arange(cutoff.bdim, dtype=complex)
    spent = np.zeros(3)
    for _ in range(CYCLES):
        t0 = clock()
        state = drive_map(state)
        t1 = clock()
        state, _ = cooling.apply(state)
        t2 = clock()
        pops = fs.populations(state)
        fs.tail_mass(pops, n_max - 1)
        nbar = fs.expectation(pops, levels)
        t3 = clock()
        spent += (t1 - t0, t2 - t1, t3 - t2)
    return builds, spent / CYCLES * 1e6, float(nbar)


def stage_costs(n_maxes, repeats):
    base = load_tree(CONFIGS / "fig3_r50.yaml")
    out = {}
    for kind, (channel, noise) in KINDS.items():
        config = config_with_coupling(experiment_from_tree(
            dict(base, channel=channel, noise=noise)), G)
        out[kind] = {}
        for n_max in n_maxes:
            runs = [stage_repeat(config, n_max) for _ in range(repeats)]
            builds, calls, nbars = (np.array(x) for x in zip(*runs))
            if np.ptp(nbars):
                raise RuntimeError(f"{kind} at n_max {n_max}: nbar differs "
                                   f"between repeats: {nbars}")
            out[kind][str(n_max)] = {
                "drive_us": stats(calls[:, 0], 2),
                "cooling_us": stats(calls[:, 1], 2),
                "bookkeeping_us": stats(calls[:, 2], 2),
                "drive_build_ms": stats(builds[:, 0], 3),
                "cooling_build_ms": stats(builds[:, 1], 3),
                "nbar": float(nbars[0])}
    return out


def import_times(repeats):
    """Seconds to import each module, in a fresh interpreter each time."""
    code = ("import time; t = time.perf_counter(); import {}; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return {module: stats([float(subprocess.run(
        [sys.executable, "-c", code.format(module)], env=env, check=True,
        capture_output=True, text=True).stdout) for _ in range(repeats)], 4)
        for module in MODULES}


def config_times(names, repeats):
    """Seconds of cli.main per shipped config's command in this process,
    after its imports: the compute without the start-up."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            command, config, *flags = COMMANDS[name]
            argv = [command, "--config", str(CONFIGS / f"{config}.yaml"),
                    *flags, "--out-dir", tmp]
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"{' '.join(argv)} failed")
                samples.append(time.perf_counter() - t0)
            out[name] = stats(samples, 4)
    return out


def git_revision():
    """(commit, whether the tree has changes), or (None, None) outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def host():
    with analysis.one_blas_thread():
        pinned = analysis.blas_threads()
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": analysis.blas_threads(),
            "openblas_threads_in_stages": pinned}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-max", type=int, nargs="+", default=[30, 60, 120])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--configs", nargs="*", default=list(COMMANDS),
                        choices=list(COMMANDS))
    parser.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    args = parser.parse_args(argv)
    started = time.perf_counter()
    revision, dirty = git_revision()
    with analysis.one_blas_thread():
        stages = stage_costs(args.n_max, args.repeats)
        configs = config_times(args.configs, args.repeats)
    report = {
        "settings": {"config": "fig3_r50", "g": G, "noise": NOISY,
                     "n_max": args.n_max, "repeats": args.repeats,
                     "cycles": CYCLES},
        "git": {"revision": revision, "dirty": dirty},
        "host": host(),
        "stages": stages,
        "imports_s": import_times(args.repeats),
        "configs_s": configs,
    }
    report["wall_s"] = round(time.perf_counter() - started, 2)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} in {report['wall_s']} s")


if __name__ == "__main__":
    main()
