"""Smoke test of bench/stages.py, the script behind BENCH_stages.json: at
n_max 4 with one repeat it writes every key.  No number is checked."""

import json
import math
import subprocess
import sys
from pathlib import Path

from helpers import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
KINDS = {"exact", "linearized", "noisy_exact", "noisy_exact_recoil",
         "noisy_linearized"}
ROW = {"drive_us", "cooling_us", "bookkeeping_us", "drive_build_ms",
       "cooling_build_ms"}
STATS = {"min", "median"}


def test_stage_bench_writes_every_key(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "stages.py"),
                    "--n-max", "4", "--repeats", "1", "--configs", "sm_s1",
                    "--out", str(out)],
                   env=subprocess_env(), check=True, capture_output=True,
                   timeout=60)
    report = json.loads(out.read_text())
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
