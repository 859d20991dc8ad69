import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from helpers import subprocess_env
from iondpt import analysis, cli
from iondpt.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    assert (meta["numpy"], meta["scipy"]) == (np.__version__, scipy.__version__)
    # read inside the command, which runs every OpenBLAS copy on one thread
    assert meta["openblas_threads"].keys() == analysis.blas_threads().keys()
    assert set(meta["openblas_threads"].values()) <= {1}
    assert meta["split_step"] == {"slice_us": 2.0, "gauss_nodes": 2}
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


def test_run_without_config_is_config_error(tmp_path):
    assert main(["run", "--out-dir", str(tmp_path)]) == 2


def test_run_too_short_to_fit_skips_relaxation(tmp_path):
    """Five cycles are too few for the relaxation fit: the run still writes
    its trajectory and manifest, and no relaxation summary."""
    cfg = tmp_path / "short.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 5"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len(read_rows(out / "short_trajectory.csv")) == 6
    meta = json.loads((out / "short_manifest.json").read_text())
    assert list(meta["outputs"]) == ["trajectory"]
    assert not (out / "short_relaxation.json").exists()


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

    # scan writes nbar nan for a diverged point; no fit may read it
    diverged = tmp_path / "diverged.csv"
    diverged.write_text("g,nbar\n" + "".join(f"{x},{x}\n" for x in range(1, 12))
                        + "12,nan\n")
    for model in ("loglog", "power_law_critical", "saturation"):
        assert main(["fit", str(diverged), "--model", model,
                     "--out-dir", str(out)]) == 4
        assert not (out / f"diverged_{model}_fit.json").exists()


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


def test_fit_populations_requires_config(tmp_path, capsys):
    data = tmp_path / "scan.csv"
    data.write_text("t_us,p_up\n1,0.1\n2,0.2\n")
    assert main(["fit", str(data), "--model", "populations",
                 "--out-dir", str(tmp_path)]) == 2
    missing = tmp_path / "missing.yaml"
    assert main(["fit", str(data), "--model", "populations", "--config",
                 str(missing), "--out-dir", str(tmp_path)]) == 2
    assert f"config file not found: {missing}" in capsys.readouterr().err
    # a config without probe.omega_probe_khz gives the fit no Rabi frequency
    cfg = tmp_path / "no_probe.yaml"
    cfg.write_text(BASE_YAML)
    assert main(["fit", str(data), "--model", "populations", "--config",
                 str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "probe.omega_probe_khz is required" in capsys.readouterr().err


def test_fit_error_names_data_path_once(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(BASE_YAML + "probe:\n  omega_probe_khz: 20.0\n")
    data = tmp_path / "bad.csv"
    data.write_text("R,nbar\n50,1.0\n100,1.5\n")
    assert main(["fit", str(data), "--model", "populations", "--config",
                 str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: expected header starting with t_us,p_up\n"


def test_fit_populations_short_row_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(BASE_YAML + "probe:\n  omega_probe_khz: 20.0\n")
    data = tmp_path / "short.csv"
    data.write_text("t_us,p_up\n1\n")
    assert main(["fit", str(data), "--model", "populations", "--config",
                 str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {data}: row 2 ['1'] is shorter than the "
                   "header\n")


def test_run_prints_mean_over_config_window(tmp_path, capsys):
    cfg = tmp_path / "win.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 40\n  window: 30"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.split("steady_nbar=")[1].split()[0]
    nbar = [float(r[1]) for r in read_rows(out / "win_trajectory.csv")[1:]]
    assert printed == f"{np.mean(nbar[-30:]):.4f}"
    assert printed != f"{np.mean(nbar[-20:]):.4f}"


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


@pytest.mark.parametrize("command", [["probe-demo"],
                                     ["scan", "--probe", "--threads", "1"]])
def test_probe_frequency_from_zero_cooling_rabi_rejected(tmp_path, monkeypatch,
                                                        command):
    # without probe.omega_probe_khz the probe falls back to cool.omega_c_khz,
    # which is checked before any cycle runs
    def no_cycles(config):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(cli, "run", no_cycles)
    monkeypatch.setattr(analysis, "run", no_cycles)
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(BASE_YAML.replace("omega_c_khz: 20.0", "omega_c_khz: 0.0")
                   + "scan:\n  axis: g\n  values: [0.8, 1.2]\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out-dir", str(out)]) == 2


SCAN = ["scan", "--threads", "1"]
G_SCAN = "scan:\n  axis: g\n  values: [0.8, 1.2]\n"


@pytest.mark.parametrize("command,setting", [
    (SCAN, "scan:\n  axis: g\n  values: [0.9, 0.5]\n"),
    (SCAN, "scan:\n  axis: g\n  values: [0.0, 0.5]\n"),
    (SCAN, "scan:\n  axis: R\n  values: [0.5, 25.0]\n  fixed_g: 1.0\n"),
    (SCAN, "scan:\n  axis: cooling\n  values: [0.5]\n"
           "  omega_c_khz: [20.0, -5.0]\n"),
    # the probe falls back to each omega_c, and 0 is no probe frequency
    (SCAN + ["--probe"], "scan:\n  axis: cooling\n  values: [0.5]\n"
                         "  omega_c_khz: [20.0, 0.0]\n"),
    (["scan", "--threads", "0"], G_SCAN),
    (["scan", "--threads", "-3"], G_SCAN),
    (["run", "--seed", "-1"], "jitter_sigma_khz: 0.1\n"),
    (["run"], "jitter_sigma_khz: 0.1\nseed: -1\n"),
    (["probe-demo", "--seed", "-1"], "probe:\n  shots: 100\n"),
    (["run"], "channel: hybrid\n"),
    (["run"], "noise:\n  recoil: \"yes\"\n"),
    (["run"], "cutoff:\n  ceiling: 10\n"),
    # the probe section is checked even when --probe does not read it
    (SCAN, G_SCAN + "probe:\n  k_max: -3\n"),
    # a key nothing reads, such as a misspelt one, is an error
    (["run"], "noise:\n  heating_per_sec: 50.0\n"),
    (SCAN, G_SCAN + "probe:\n  shot: 100\n")],
    ids=["scan-decreasing", "scan-g-zero", "scan-R-below-one",
         "scan-negative-omega-c", "scan-cooling-probe-zero-omega-c",
         "threads-zero", "threads-negative", "seed-flag", "seed-file",
         "seed-probe-demo", "channel-unknown", "recoil-not-bool",
         "ceiling-below-n-max", "scan-direct-bad-probe", "noise-key-unknown",
         "probe-key-unknown"])
def test_bad_setting_rejected_before_any_cycle(tmp_path, monkeypatch, capsys,
                                               command, setting):
    def no_cycles(config):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(cli, "run", no_cycles)
    monkeypatch.setattr(analysis, "run", no_cycles)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(BASE_YAML.replace("seed: 0\n", "")
                   .replace("channel: exact\n", "") + setting)
    assert main(command + ["--config", str(cfg),
                           "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_scan_probe_bytes_independent_of_threads(tmp_path):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 20") + G_SCAN
                   + "probe:\n  shots: 1000\n")

    def scan(threads, name):
        return ["scan", "--probe", "--threads", threads, "--config", str(cfg),
                "--out-dir", str(tmp_path / name)]

    assert main(scan("1", "serial")) == 0
    assert main(scan("2", "pool")) == 0
    subprocess.run([sys.executable, "-m", "iondpt.cli", *scan("1", "env")],
                   env=subprocess_env(OPENBLAS_NUM_THREADS="2"), check=True,
                   capture_output=True, timeout=300)
    first = (tmp_path / "serial" / "scan_scan.csv").read_bytes()
    for name in ("pool", "env"):
        assert (tmp_path / name / "scan_scan.csv").read_bytes() == first
    processes = [json.loads((tmp_path / name / "scan_manifest.json")
                            .read_text())["processes"]
                 for name in ("serial", "pool")]
    assert processes == [1, 2]


def test_diverged_scan_point_row_and_fit(tmp_path):
    # g = 2.4 outgrows the cutoff ceiling; its row keeps the ceiling and no
    # fit may read its nbar
    cfg = tmp_path / "div.yaml"
    cfg.write_text(BASE_YAML + "cutoff:\n  n_max: 10\n  ceiling: 15\n"
                   "scan:\n  axis: g\n  values: [0.8, 1.0, 2.4]\n")
    out = tmp_path / "out"
    assert main(SCAN + ["--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = read_rows(out / "div_scan.csv")
    assert [np.isfinite(float(r[1])) for r in rows[1:3]] == [True, True]
    assert rows[3] == ["2.4", "nan", "nan", "0", "0", "15"]
    assert main(["fit", str(out / "div_scan.csv"), "--model", "loglog",
                 "--out-dir", str(out)]) == 4


def test_fit_populations_of_probe_demo_scan(tmp_path):
    tree = yaml.safe_load((CONFIGS / "fig2a.yaml").read_text())
    tree["probe"]["k_max"] = 12
    cfg = tmp_path / "fig2a.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="k_max=12 drops"):
        assert main(["probe-demo", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
    assert main(["fit", str(out / "fig2a_probe.csv"), "--model",
                 "populations", "--config", str(cfg), "--out-dir", str(out)]) == 0
    demo = json.loads((out / "fig2a_populations.json").read_text())
    fit = json.loads((out / "fig2a_probe_populations_fit.json").read_text())
    # the stored scan differs from the demo's only in its 12 printed digits
    assert fit["params"]["nbar"] == pytest.approx(demo["nbar_fit"], abs=1e-9)
    assert fit["errors"]["nbar"] == pytest.approx(demo["sigma"], rel=1e-8)


def test_scan_probe_on_cooling_axis(tmp_path):
    cfg = tmp_path / "cool.yaml"
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 20")
                   + "scan:\n  axis: cooling\n  values: [0.8, 1.2]\n"
                   + "  omega_c_khz: [10.0, 20.0]\n")
    out = tmp_path / "out"
    assert main(SCAN + ["--probe", "--config", str(cfg),
                        "--out-dir", str(out)]) == 0
    for name in ("cool_scan0.csv", "cool_scan1.csv"):
        sigma = [float(r[2]) for r in read_rows(out / name)[1:]]
        assert len(sigma) == 2 and np.all(np.isfinite(sigma))


@pytest.mark.parametrize("command,setting", [
    (["run", "--seed", "5"], "jitter_sigma_khz: 0.5\n"),
    (["scan", "--probe", "--seed", "3", "--threads", "1"],
     G_SCAN + "probe:\n  shots: 1000\n"),
    (["probe-demo"], "probe:\n  omega_probe_khz: 20.0\n")],
    ids=["run", "scan-probe", "probe-demo"])
def test_manifest_config_reproduces_outputs(tmp_path, command, setting):
    # the config the manifest embeds, plus its readout, is the whole run
    cfg = tmp_path / "a" / "exp.yaml"
    cfg.parent.mkdir()
    cfg.write_text(BASE_YAML.replace("max: 40", "max: 20") + setting)
    assert main(command + ["--config", str(cfg),
                           "--out-dir", str(tmp_path / "out_a")]) == 0
    meta = json.loads((tmp_path / "out_a" / "exp_manifest.json").read_text())
    assert ("--probe" in command) == (meta.get("readout") == "probe")

    again = tmp_path / "b" / "exp.yaml"
    again.parent.mkdir()
    again.write_text(yaml.safe_dump(meta["config"]))
    probe = ["--probe"] if meta.get("readout") == "probe" else []
    assert main([command[0]] + probe + ["--config", str(again),
                "--out-dir", str(tmp_path / "out_b")]) == 0
    rerun = json.loads((tmp_path / "out_b" / "exp_manifest.json").read_text())
    assert rerun["config"] == meta["config"]
    assert rerun.keys() == meta.keys()
    assert rerun["outputs"].keys() == meta["outputs"].keys()
    for name, output in meta["outputs"].items():
        assert (Path(output["path"]).read_bytes()
                == Path(rerun["outputs"][name]["path"]).read_bytes())


@pytest.mark.parametrize("setting", ["omega_probe_khz: 0.0",
                                     "omega_probe_khz: -20.0", "k_max: -3",
                                     "decay_model: foo"])
def test_probe_demo_rejects_bad_probe_settings(tmp_path, setting):
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(BASE_YAML + f"probe:\n  {setting}\n")
    assert main(["probe-demo", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
