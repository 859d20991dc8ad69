"""Smoke test of bench/stages.py, the script behind BENCH_stages.json: at
n_max 4 with one repeat it writes every key, and its nbar anchors are the
engine's own.  No timing is checked."""

import importlib.util
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import subprocess_env
from iondpt.protocol import CutoffPolicy, run

ROOT = Path(__file__).resolve().parent.parent
KINDS = {"exact", "linearized", "noisy_exact", "noisy_exact_recoil",
         "noisy_linearized"}
ROW = {"drive_us", "cooling_us", "bookkeeping_us", "drive_build_ms",
       "cooling_build_ms"}
STATS = {"min", "q1", "median", "q3"}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "stages.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "stages.py"),
                    "--n-max", "4", "--repeats", "1", "--configs", "sm_s1",
                    "--out", str(out)],
                   env=subprocess_env(), check=True, capture_output=True,
                   timeout=60)
    return json.loads(out.read_text())


def test_stage_bench_writes_every_key(report):
    assert set(report) == {"settings", "git", "host", "stages", "imports_s",
                           "configs_s", "wall_s"}
    assert report["settings"]["n_max"] == [4]
    assert report["settings"]["repeats"] == 1
    assert set(report["git"]) == {"revision", "dirty"}
    assert {"nproc", "python", "numpy", "scipy",
            "openblas_threads"} <= set(report["host"])
    assert set(report["stages"]) == KINDS
    for kind in report["stages"].values():
        assert set(kind) == {"4"}
        row = kind["4"]
        assert set(row) == ROW | {"nbar"}
        assert all(set(row[key]) == STATS for key in ROW)
        assert math.isfinite(row["nbar"])
    assert set(report["imports_s"]) == {"numpy", "scipy.linalg",
                                        "scipy.sparse", "scipy.optimize",
                                        "yaml", "iondpt.cli"}
    assert all(set(s) == STATS for s in report["imports_s"].values())
    assert set(report["configs_s"]) == {"sm_s1"}
    assert set(report["configs_s"]["sm_s1"]) == STATS


def test_stage_bench_runs_the_engines_cycle(report):
    """Each kind's nbar anchor is, bit for bit, that of protocol.run on
    the same config for the same cycles at the same cutoff."""
    spec = importlib.util.spec_from_file_location(
        "stages", ROOT / "bench" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    for kind in KINDS:
        cfg = replace(stages.kind_config(kind), max_cycles=stages.CYCLES,
                      cutoff=CutoffPolicy(n_max=4, ceiling=4, eps=1.0))
        assert run(cfg).nbar[-1] == report["stages"][kind]["4"]["nbar"]
