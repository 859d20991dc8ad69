import dataclasses

import numpy as np
import pytest

from iondpt.config import (ConfigError, load_tree, experiment_from_tree,
                           scan_spec, probe_spec)
from iondpt.model import CoolParams, DriveParams, khz
from iondpt.probe import ProbeParams
from iondpt.protocol import ExperimentConfig

import pathlib

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def minimal_tree(**extra):
    tree = {
        "drive": {"delta_b_khz": 26.0, "delta_r_khz": 24.0,
                  "omega_sb_khz": 9.0, "tau_us": 20.0},
        "cool": {"omega_c_khz": 20.0, "tau_c_us": 5.0, "tau_d_us": 13.0},
    }
    tree.update(extra)
    return tree


def test_load_shipped_configs():
    for name in ("fig2a", "fig2c", "fig3_r50", "fig4", "sm_s1", "sm_s2"):
        tree = load_tree(CONFIGS / f"{name}.yaml")
        assert experiment_from_tree(tree).drive.tau == 20.0
        probe_spec(tree)
        if "scan" in tree:
            assert scan_spec(tree)["values"]


def test_fig2a_values():
    cfg = experiment_from_tree(load_tree(CONFIGS / "fig2a.yaml"))
    assert cfg.drive.delta_b == pytest.approx(khz(26.0))
    assert cfg.drive.delta_r == pytest.approx(khz(24.0))
    assert cfg.drive.omega_sb == pytest.approx(khz(9.0))
    assert cfg.cool.omega_c == pytest.approx(khz(20.0))
    assert cfg.cool.tau_c == 5.0
    assert cfg.cool.tau_d == 13.0
    assert cfg.initial.kind == "thermal"
    assert cfg.initial.nbar == 5.0
    assert cfg.channel_mode == "exact"
    assert cfg.max_cycles == 200


def test_omitted_keys_take_dataclass_defaults():
    cfg = experiment_from_tree(minimal_tree())
    expected = ExperimentConfig(drive=DriveParams.from_khz(26.0, 24.0, 9.0, 20.0),
                                cool=CoolParams.from_khz(20.0, 5.0, 13.0))
    assert cfg == expected


INTEGER_KEYS = [("seed",), ("cycles", "window"), ("cycles", "max"),
                ("cutoff", "n_max"), ("cutoff", "ceiling"), ("probe", "k_max"),
                ("scan", "count")]


def tree_with(path, value):
    tree = minimal_tree(scan={"axis": "g", "start": 0.8, "stop": 1.8,
                              "count": 6})
    if len(path) == 1:
        tree[path[0]] = value
    else:
        tree.setdefault(path[0], {})[path[1]] = value
    return tree


def read_all(tree):
    return experiment_from_tree(tree), scan_spec(tree), probe_spec(tree)


@pytest.mark.parametrize("path", INTEGER_KEYS, ids=".".join)
def test_integer_keys(path):
    cfg, spec, popts = read_all(tree_with(path, 40.0))
    read = {"seed": cfg.seed, "window": cfg.convergence.window,
            "max": cfg.max_cycles, "n_max": cfg.cutoff.n_max,
            "ceiling": cfg.cutoff.ceiling, "k_max": popts.k_max,
            "count": len(spec["values"])}[path[-1]]
    assert read == 40 and type(read) is int
    for bad in (40.5, "abc", True):
        with pytest.raises(ConfigError, match=path[-1]):
            read_all(tree_with(path, bad))


@pytest.mark.parametrize("path", [
    ("jitter_sigma",), ("drive", "tau"), ("cool", "omega_c"),
    ("noise", "heating_per_sec"), ("initial", "n_bar"),
    ("cycles", "max_cycles"), ("cutoff", "nmax"), ("scan", "vaules"),
    ("scan", "fixed_g"), ("probe", "shot")], ids=".".join)
def test_unknown_key_rejected(path):
    # a g-axis scan does not read fixed_g
    where = path[0] if len(path) > 1 else "config"
    with pytest.raises(ConfigError, match=f"^{where}: unknown key '{path[-1]}'"):
        read_all(tree_with(path, 1.0))


def test_missing_key_diagnostics():
    tree = minimal_tree()
    del tree["drive"]["omega_sb_khz"]
    with pytest.raises(ConfigError, match="omega_sb_khz"):
        experiment_from_tree(tree)
    with pytest.raises(ConfigError, match="cool"):
        experiment_from_tree({"drive": minimal_tree()["drive"]})


def test_type_diagnostics():
    tree = minimal_tree()
    tree["drive"]["tau_us"] = "twenty"
    with pytest.raises(ConfigError, match="tau_us"):
        experiment_from_tree(tree)
    with pytest.raises(ConfigError, match="noise: expected a mapping"):
        experiment_from_tree(minimal_tree(noise=[50.0, 200.0]))


def test_invalid_physics_reported_as_config_error():
    tree = minimal_tree()
    tree["drive"]["delta_b_khz"] = 20.0  # delta_b <= delta_r
    with pytest.raises(ConfigError, match="drive"):
        experiment_from_tree(tree)
    for key, value in (("growth", 1.0), ("eps", 0.0), ("n_max", 0),
                       ("ceiling", 10)):
        with pytest.raises(ConfigError, match=f"cutoff: {key}"):
            experiment_from_tree(minimal_tree(cutoff={key: value}))
    with pytest.raises(ConfigError, match="config: seed"):
        experiment_from_tree(minimal_tree(seed=-1))


def test_channel_and_noise_from_file():
    tree = minimal_tree(noise={"heating_per_s": 50.0, "dephasing_per_s": 200.0,
                               "recoil": True})
    cfg = experiment_from_tree(tree)
    assert cfg.noise.heating_rate == pytest.approx(5e-5)
    assert cfg.noise.recoil_enabled

    off = experiment_from_tree(minimal_tree())
    assert not off.noise.any_decoherence and not off.noise.recoil_enabled

    tree["noise"]["recoil"] = False
    dec = experiment_from_tree(tree)
    assert dec.noise.any_decoherence and not dec.noise.recoil_enabled

    lb = experiment_from_tree(minimal_tree(channel="lindblad", seed=7))
    assert lb.channel_mode == "lindblad"
    assert lb.seed == 7

    with pytest.raises(ConfigError, match="channel"):
        experiment_from_tree(minimal_tree(channel="hybrid"))
    tree["noise"]["recoil"] = "yes"
    with pytest.raises(ConfigError, match="recoil"):
        experiment_from_tree(tree)


def defaulted_leaves(obj, path=""):
    """(name, value, default) of each field of the dataclass obj and of the
    dataclasses it holds, recursively, whose field has a default."""
    for f in dataclasses.fields(obj):
        value, name = getattr(obj, f.name), path + f.name
        if dataclasses.is_dataclass(value):
            yield from defaulted_leaves(value, name + ".")
        elif f.default is not dataclasses.MISSING:
            yield name, value, f.default
        elif f.default_factory is not dataclasses.MISSING:
            yield name, value, f.default_factory()


def test_a_config_reaches_every_run_setting():
    """The file is the one source of a run's settings: a tree can move
    every defaulted setting of the run and of the probe off its default."""
    tree = minimal_tree(
        noise={"heating_per_s": 50.0, "dephasing_per_s": 200.0,
               "recoil": True},
        initial={"kind": "ground", "nbar": 2.0}, channel="lindblad",
        cycles={"mode": "tolerance", "max": 300, "tol": 0.01, "window": 30},
        cutoff={"n_max": 20, "eps": 1e-3, "growth": 2.0, "ceiling": 400},
        jitter_sigma_khz=0.1, seed=3,
        probe={"omega_probe_khz": 15.0, "shots": 100, "k_max": 10,
               "decay_model": "pow07"})
    unreached = [name for obj in (experiment_from_tree(tree), probe_spec(tree))
                 for name, value, default in defaulted_leaves(obj)
                 if value == default]
    assert unreached == []


def test_scan_spec_variants():
    g_tree = minimal_tree(scan={"axis": "g", "start": 0.8, "stop": 1.8,
                                "count": 6})
    spec = scan_spec(g_tree)
    assert spec["axis"] == "g"
    assert np.allclose(spec["values"], np.linspace(0.8, 1.8, 6))

    r_tree = minimal_tree(scan={"axis": "R", "values": [50, 100],
                                "fixed_g": 1.3})
    spec = scan_spec(r_tree)
    assert spec["fixed_g"] == 1.3

    c_tree = minimal_tree(scan={"axis": "cooling", "values": [0.8, 1.2],
                                "omega_c_khz": [10.0, 20.0]})
    spec = scan_spec(c_tree)
    assert spec["omega_c"] == [khz(10.0), khz(20.0)]

    with pytest.raises(ConfigError, match="axis"):
        scan_spec(minimal_tree(scan={"axis": "tau"}))
    with pytest.raises(ConfigError):
        scan_spec(minimal_tree(scan={"axis": "g", "values": []}))
    with pytest.raises(ConfigError):
        scan_spec(minimal_tree(scan={"axis": "g", "start": 1.0, "stop": 0.5,
                                     "count": 4}))
    with pytest.raises(ConfigError, match="fixed_g"):
        scan_spec(minimal_tree(scan={"axis": "R", "values": [50, 100]}))
    with pytest.raises(ConfigError, match="omega_c_khz"):
        scan_spec(minimal_tree(scan={"axis": "cooling", "values": [1.0, 1.2]}))


def test_probe_spec():
    tree = minimal_tree(probe={"shots": 1000, "omega_probe_khz": 20.0,
                               "k_max": 8, "decay_model": "sqrt"})
    spec = probe_spec(tree)
    assert spec.shots == 1000
    assert spec.omega_probe == pytest.approx(khz(20.0))
    assert spec.k_max == 8
    assert probe_spec(minimal_tree()) == ProbeParams()
    with pytest.raises(ConfigError, match="shots"):
        probe_spec(minimal_tree(probe={"shots": -5}))


def test_probe_shots_read_as_integer():
    # probe.shots goes through the integer reader of every other count
    shots = probe_spec(minimal_tree(probe={"shots": 1000.0})).shots
    assert shots == 1000 and isinstance(shots, int)
    for shots in (0, -1):
        with pytest.raises(ConfigError, match="probe: shots must be >= 1"):
            probe_spec(minimal_tree(probe={"shots": shots}))
    for shots in (True, 1.5, None):
        with pytest.raises(ConfigError, match="probe.shots"):
            probe_spec(minimal_tree(probe={"shots": shots}))


def test_probe_spec_rejects_bad_settings():
    for probe in ({"omega_probe_khz": 0.0}, {"omega_probe_khz": -20.0},
                  {"k_max": -3}, {"decay_model": "foo"}):
        with pytest.raises(ConfigError, match=next(iter(probe))):
            probe_spec(minimal_tree(probe=probe))
    assert probe_spec(minimal_tree(probe={"k_max": 0})).k_max == 0


def test_load_tree_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("drive: [unbalanced\n")
    with pytest.raises(ConfigError):
        load_tree(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_tree(scalar)
