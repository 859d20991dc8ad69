import csv
import hashlib
import json

import numpy as np
import pytest

from iondpt.cli import main

BASE_YAML = """\
drive:
  delta_b_khz: 26.0
  delta_r_khz: 24.0
  omega_sb_khz: 9.0
  tau_us: 20.0
cool:
  omega_c_khz: 20.0
  tau_c_us: 5.0
  tau_d_us: 13.0
initial:
  kind: ground
channel: exact
cycles:
  mode: fixed
  max: 40
seed: 0
"""


@pytest.fixture
def base_config(tmp_path):
    path = tmp_path / "base.yaml"
    path.write_text(BASE_YAML)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_outputs_and_manifest(base_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(base_config), "--out-dir", str(out)]) == 0
    traj_csv = out / "base_trajectory.csv"
    manifest = out / "base_manifest.json"
    assert traj_csv.is_file() and manifest.is_file()
    rows = read_rows(traj_csv)
    assert rows[0] == ["cycle", "nbar", "p_up", "t_us", "n_max"]
    assert len(rows) == 41
    meta = json.loads(manifest.read_text())
    digest = hashlib.sha256(traj_csv.read_bytes()).hexdigest()
    assert meta["outputs"]["trajectory"]["sha256"] == digest
    assert meta["seed"] == 0
    assert (out / "base_relaxation.json").is_file()


def test_run_determinism_byte_identical(base_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(base_config), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(base_config), "--out-dir", str(out2)]) == 0
    assert (out1 / "base_trajectory.csv").read_bytes() == \
        (out2 / "base_trajectory.csv").read_bytes()


def test_zero_drive_run_is_all_zero(base_config, tmp_path):
    cfg = tmp_path / "quiet.yaml"
    cfg.write_text(BASE_YAML.replace("omega_sb_khz: 9.0", "omega_sb_khz: 0.0"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = read_rows(out / "quiet_trajectory.csv")
    nbar = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(nbar < 1e-12)


def test_missing_and_malformed_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("drive:\n  delta_b_khz: 26.0\n")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_simulation_abort_exit_code(base_config, tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(BASE_YAML.replace("kind: ground",
                                     "kind: thermal\n  nbar: 5.0")
                   + "cutoff:\n  n_max: 5\n  ceiling: 6\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3


def test_scan_g_axis(base_config, tmp_path):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 20")
                   + "scan:\n  axis: g\n  values: [0.8, 1.2, 1.6]\n")
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out-dir", str(out),
                 "--threads", "1"]) == 0
    rows = read_rows(out / "scan_scan.csv")
    assert rows[0][0] == "g"
    assert len(rows) == 4
    nbar = [float(r[1]) for r in rows[1:]]
    assert nbar[0] < nbar[-1]


def test_scan_probe_seed_sets_shot_noise(base_config, tmp_path):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 20")
                   + "scan:\n  axis: g\n  values: [0.8, 1.2]\n"
                   + "probe:\n  shots: 1000\n")

    def probe_scan(seed, name):
        out = tmp_path / name
        assert main(["scan", "--config", str(cfg), "--probe", "--seed",
                     str(seed), "--threads", "1", "--out-dir", str(out)]) == 0
        return (out / "scan_scan.csv").read_bytes()

    first = probe_scan(1, "a")
    assert probe_scan(1, "b") == first
    assert probe_scan(2, "c") != first


def test_fit_loglog_and_errors(tmp_path):
    data = tmp_path / "pl.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["R", "nbar"])
        for x in (50, 100, 200, 400):
            w.writerow([x, 2.0 * x ** 0.531])
    out = tmp_path / "out"
    assert main(["fit", str(data), "--model", "loglog",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "pl_loglog_fit.json").read_text())
    assert report["params"]["slope"] == pytest.approx(0.531, abs=1e-9)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", str(empty), "--model", "loglog",
                 "--out-dir", str(out)]) == 2
    assert main(["fit", str(tmp_path / "missing.csv"), "--model", "loglog",
                 "--out-dir", str(out)]) == 2

    neg = tmp_path / "neg.csv"
    neg.write_text("x,y\n1,-1\n2,1\n3,2\n")
    assert main(["fit", str(neg), "--model", "loglog",
                 "--out-dir", str(out)]) == 4


def test_fit_saturation_round_trip(tmp_path):
    data = tmp_path / "relax.csv"
    x = np.arange(1.0, 121.0)
    y = 3.0 * np.exp(-x / 15.0) + 3.2
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "nbar"])
        for xi, yi in zip(x, y):
            w.writerow([xi, yi])
    out = tmp_path / "out"
    assert main(["fit", str(data), "--model", "saturation",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "relax_saturation_fit.json").read_text())
    assert report["params"]["B"] == pytest.approx(3.2, abs=1e-6)


def test_fit_populations_requires_config(tmp_path):
    data = tmp_path / "scan.csv"
    data.write_text("t_us,p_up\n1,0.1\n2,0.2\n")
    assert main(["fit", str(data), "--model", "populations",
                 "--out-dir", str(tmp_path)]) == 2


def test_probe_demo(base_config, tmp_path):
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(BASE_YAML + "probe:\n  omega_probe_khz: 20.0\n")
    out = tmp_path / "out"
    assert main(["probe-demo", "--config", str(cfg), "--out-dir", str(out)]) == 0
    report = json.loads((out / "demo_populations.json").read_text())
    sigma = report["sigma"]
    assert abs(report["nbar_fit"] - report["nbar_direct"]) < max(0.1, 2 * sigma)
    rows = read_rows(out / "demo_probe.csv")
    assert rows[0][:2] == ["t_us", "p_up"]


@pytest.mark.parametrize("setting", ["omega_probe_khz: 0.0",
                                     "omega_probe_khz: -20.0", "k_max: -3",
                                     "decay_model: foo"])
def test_probe_demo_rejects_bad_probe_settings(tmp_path, setting):
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(BASE_YAML + f"probe:\n  {setting}\n")
    assert main(["probe-demo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
