"""Configuration file loading.

Config files are YAML trees quoting ordinary frequencies in kHz, times in
microseconds and rates in 1/s, so every experimental number can be typed
verbatim; they are converted to internal units on loading, through the
converters of model.
"""

import numpy as np
import yaml

from .channels import NoiseParams
from .model import DriveParams, CoolParams, khz
from .probe import DECAY_MODELS
from .protocol import (ExperimentConfig, InitialState, Convergence,
                       CutoffPolicy)


class ConfigError(ValueError):
    """Malformed configuration; message carries field-level diagnostics."""


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(mapping, key, where, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return float(default)
    val = mapping[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


def _mapping(tree, key, where, required=True):
    if key not in tree:
        if required:
            raise ConfigError(f"{where}: missing required section {key!r}")
        return {}
    section = tree[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key}: expected a mapping")
    return section


def _drive(tree):
    sec = _mapping(tree, "drive", "config")
    try:
        return DriveParams.from_khz(
            _number(sec, "delta_b_khz", "drive"),
            _number(sec, "delta_r_khz", "drive"),
            _number(sec, "omega_sb_khz", "drive"),
            _number(sec, "tau_us", "drive"))
    except ValueError as exc:
        raise ConfigError(f"drive: {exc}") from exc


def _cool(tree):
    sec = _mapping(tree, "cool", "config")
    try:
        return CoolParams.from_khz(
            _number(sec, "omega_c_khz", "cool"),
            _number(sec, "tau_c_us", "cool"),
            _number(sec, "tau_d_us", "cool"))
    except ValueError as exc:
        raise ConfigError(f"cool: {exc}") from exc


def _noise(tree):
    sec = _mapping(tree, "noise", "config", required=False)
    recoil = sec.get("recoil", False)
    if not isinstance(recoil, bool):
        raise ConfigError(f"noise.recoil: expected true/false, got {recoil!r}")
    try:
        return NoiseParams.from_per_second(
            heating_per_s=_number(sec, "heating_per_s", "noise", default=0.0),
            dephasing_per_s=_number(sec, "dephasing_per_s", "noise", default=0.0),
            recoil_enabled=recoil)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _initial(tree):
    sec = _mapping(tree, "initial", "config", required=False)
    kind = sec.get("kind", "thermal")
    try:
        return InitialState(kind=kind,
                            nbar=_number(sec, "nbar", "initial", default=5.0))
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc


def _convergence(tree):
    sec = _mapping(tree, "cycles", "config", required=False)
    mode = sec.get("mode", "fixed")
    try:
        conv = Convergence(mode=mode,
                           tol=_number(sec, "tol", "cycles", default=0.05),
                           window=int(_number(sec, "window", "cycles", default=20)))
    except ValueError as exc:
        raise ConfigError(f"cycles: {exc}") from exc
    max_cycles = int(_number(sec, "max", "cycles", default=200))
    return conv, max_cycles


def _cutoff(tree):
    sec = _mapping(tree, "cutoff", "config", required=False)
    policy = CutoffPolicy(
        n_max=int(_number(sec, "n_max", "cutoff", default=30)),
        eps=_number(sec, "eps", "cutoff", default=CutoffPolicy.eps),
        growth=_number(sec, "growth", "cutoff", default=1.5),
        ceiling=int(_number(sec, "ceiling", "cutoff", default=600)))
    if policy.n_max < 1:
        raise ConfigError("cutoff.n_max: must be >= 1")
    if not policy.eps > 0:
        raise ConfigError("cutoff.eps: must be > 0")
    if policy.growth <= 1:
        raise ConfigError("cutoff.growth: must be > 1")
    return policy


def load_tree(path):
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return tree


def experiment_from_tree(tree, channel=None, noise_mode=None, seed=None):
    """Build an ExperimentConfig; CLI overrides win over file values."""
    channel_mode = channel or tree.get("channel", "exact")
    if channel_mode not in ("exact", "lindblad"):
        raise ConfigError(f"channel: expected exact or lindblad, got {channel_mode!r}")
    noise = _noise(tree)
    if noise_mode is not None:
        if noise_mode == "off":
            noise = NoiseParams()
        elif noise_mode == "decoherence":
            noise = NoiseParams(heating_rate=noise.heating_rate,
                                dephasing_rate=noise.dephasing_rate,
                                recoil_enabled=False)
        elif noise_mode == "decoherence+recoil":
            noise = NoiseParams(heating_rate=noise.heating_rate,
                                dephasing_rate=noise.dephasing_rate,
                                recoil_enabled=True)
        else:
            raise ConfigError(f"noise mode: unknown {noise_mode!r}")
    conv, max_cycles = _convergence(tree)
    use_seed = seed if seed is not None else int(tree.get("seed", 0))
    jitter = _number(tree, "jitter_sigma_khz", "config", default=0.0)
    try:
        return ExperimentConfig(
            drive=_drive(tree), cool=_cool(tree), noise=noise,
            initial=_initial(tree), channel_mode=channel_mode,
            max_cycles=max_cycles, convergence=conv, cutoff=_cutoff(tree),
            jitter_sigma=khz(jitter), seed=use_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment(path, channel=None, noise_mode=None, seed=None):
    return experiment_from_tree(load_tree(path), channel=channel,
                                noise_mode=noise_mode, seed=seed)


def scan_spec(tree):
    """Validated scan section: axis plus either explicit values or a range."""
    sec = _mapping(tree, "scan", "config")
    axis = _require(sec, "axis", "scan")
    if axis not in ("g", "R", "cooling"):
        raise ConfigError(f"scan.axis: expected g, R or cooling, got {axis!r}")
    if "values" in sec:
        values = sec["values"]
        if (not isinstance(values, list) or len(values) == 0
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in values)):
            raise ConfigError("scan.values: expected a non-empty list of numbers")
        values = [float(v) for v in values]
    else:
        start = _number(sec, "start", "scan")
        stop = _number(sec, "stop", "scan")
        count = int(_number(sec, "count", "scan"))
        if count < 2 or stop <= start:
            raise ConfigError("scan: need stop > start and count >= 2")
        values = list(np.linspace(start, stop, count))
    out = {"axis": axis, "values": values}
    if axis == "R":
        out["fixed_g"] = _number(sec, "fixed_g", "scan")
    if axis == "cooling":
        omega = sec.get("omega_c_khz")
        if (not isinstance(omega, list) or len(omega) == 0
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in omega)):
            raise ConfigError("scan.omega_c_khz: expected a non-empty list of kHz values")
        out["omega_c_khz"] = [float(v) for v in omega]
    return out


def probe_spec(tree):
    """Optional probe section: shots, probe Rabi frequency, fit options."""
    sec = _mapping(tree, "probe", "config", required=False)
    shots = sec.get("shots")
    if shots is not None:
        if isinstance(shots, bool) or not isinstance(shots, int) or shots < 1:
            raise ConfigError(f"probe.shots: expected a positive integer, got {shots!r}")
    out = {"shots": shots}
    if "omega_probe_khz" in sec:
        omega = _number(sec, "omega_probe_khz", "probe")
        if not omega > 0:
            raise ConfigError(f"probe.omega_probe_khz: must be > 0, got {omega}")
        out["omega_probe"] = khz(omega)
    if "k_max" in sec:
        k_max = int(_number(sec, "k_max", "probe"))
        if k_max < 0:
            raise ConfigError(f"probe.k_max: must be >= 0, got {k_max}")
        out["k_max"] = k_max
    if "decay_model" in sec:
        decay = str(sec["decay_model"])
        if decay not in DECAY_MODELS:
            raise ConfigError(f"probe.decay_model: expected one of "
                              f"{', '.join(DECAY_MODELS)}, got {decay!r}")
        out["decay_model"] = decay
    return out
