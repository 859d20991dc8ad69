"""Configuration file loading.

Config files are YAML trees quoting ordinary frequencies in kHz, times in
microseconds and rates in 1/s, so every experimental number can be typed
verbatim; they are converted to internal units on loading, through the
converters of model.  The tree alone sets a run, channel and noise
included.  A key it omits takes the default of the parameter dataclass it
feeds, and the dataclasses make the checks.
"""

import numpy as np
import yaml

from .channels import NoiseParams
from .model import DriveParams, CoolParams, khz
from .probe import ProbeParams
from .protocol import (ExperimentConfig, InitialState, Convergence,
                       CutoffPolicy)


class ConfigError(ValueError):
    """Malformed configuration; message carries field-level diagnostics."""


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(mapping, key, where):
    val = _require(mapping, key, where)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


def _integer(mapping, key, where):
    """An integer key; an integral float such as 200.0 is accepted."""
    val = _require(mapping, key, where)
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {val!r}")
    return val


def _numbers(mapping, key, where):
    """A non-empty list of numbers, as floats."""
    val = _require(mapping, key, where)
    if (not isinstance(val, list) or not val
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in val)):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of "
                          f"numbers, got {val!r}")
    return [float(v) for v in val]


def _known(mapping, keys, where):
    """mapping, when it has no key outside keys: a key the program does
    not read, such as a misspelt one, is a ConfigError."""
    unknown = [key for key in mapping if key not in keys]
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; it reads "
                          + ", ".join(keys))
    return mapping


def _mapping(tree, key, where, required=True):
    if key not in tree:
        if required:
            raise ConfigError(f"{where}: missing required section {key!r}")
        return {}
    section = tree[key]
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key}: expected a mapping")
    return section


def _section(tree, name, factory, numbers=(), integers=(), as_is=(),
             required=False, read_elsewhere=(), **extra):
    """factory(**keywords) from a section's keys: numbers as floats,
    integers as ints, the as_is keys unchanged.  Unless required, a key the
    file omits is left out and so takes the dataclass default.  A key that
    is none of these or of the caller's read_elsewhere, or a ValueError of
    the factory, is reported as ConfigError."""
    sec = _known(_mapping(tree, name, "config", required),
                 (*numbers, *integers, *as_is, *read_elsewhere), name)
    kw = {key: sec[key] for key in as_is if key in sec}
    for read, keys in ((_number, numbers), (_integer, integers)):
        kw.update((key, read(sec, key, name))
                  for key in keys if required or key in sec)
    return _build(name, factory, **kw, **extra)


def _build(where, factory, **kw):
    try:
        return factory(**kw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_tree(path):
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return tree


# scan and probe are read by scan_spec and probe_spec
TOP_LEVEL_KEYS = ("drive", "cool", "noise", "initial", "cycles", "cutoff",
                  "channel", "seed", "jitter_sigma_khz", "scan", "probe")


def experiment_from_tree(tree):
    """The ExperimentConfig of a tree: every setting of the run."""
    _known(tree, TOP_LEVEL_KEYS, "config")
    cycles = _mapping(tree, "cycles", "config", required=False)
    kw = {}
    if "channel" in tree:
        kw["channel_mode"] = tree["channel"]
    if "max" in cycles:
        kw["max_cycles"] = _integer(cycles, "max", "cycles")
    if "seed" in tree:
        kw["seed"] = _integer(tree, "seed", "config")
    if "jitter_sigma_khz" in tree:
        kw["jitter_sigma"] = khz(_number(tree, "jitter_sigma_khz", "config"))
    return _build(
        "config", ExperimentConfig,
        drive=_section(tree, "drive", DriveParams.from_khz,
                       ("delta_b_khz", "delta_r_khz", "omega_sb_khz",
                        "tau_us"), required=True),
        cool=_section(tree, "cool", CoolParams.from_khz,
                      ("omega_c_khz", "tau_c_us", "tau_d_us"), required=True),
        noise=_section(tree, "noise", NoiseParams.from_per_second,
                       ("heating_per_s", "dephasing_per_s"),
                       as_is=("recoil",)),
        initial=_section(tree, "initial", InitialState, ("nbar",),
                         as_is=("kind",)),
        convergence=_section(tree, "cycles", Convergence, ("tol",),
                             ("window",), as_is=("mode",),
                             read_elsewhere=("max",)),
        cutoff=_section(tree, "cutoff", CutoffPolicy, ("eps", "growth"),
                        ("n_max", "ceiling")),
        **kw)


def load_experiment(path):
    return experiment_from_tree(load_tree(path))


def scan_spec(tree):
    """Validated scan section: axis plus either explicit values or a range;
    a cooling scan's omega_c (rad/us) per g-scan."""
    sec = _mapping(tree, "scan", "config")
    axis = _require(sec, "axis", "scan")
    if axis not in ("g", "R", "cooling"):
        raise ConfigError(f"scan.axis: expected g, R or cooling, got {axis!r}")
    grid = ("values",) if "values" in sec else ("start", "stop", "count")
    axis_keys = {"g": (), "R": ("fixed_g",), "cooling": ("omega_c_khz",)}
    _known(sec, ("axis", *grid, *axis_keys[axis]), "scan")
    if "values" in sec:
        values = _numbers(sec, "values", "scan")
    else:
        start = _number(sec, "start", "scan")
        stop = _number(sec, "stop", "scan")
        count = _integer(sec, "count", "scan")
        if count < 2 or stop <= start:
            raise ConfigError("scan: need stop > start and count >= 2")
        values = list(np.linspace(start, stop, count))
    out = {"axis": axis, "values": values}
    if axis == "R":
        out["fixed_g"] = _number(sec, "fixed_g", "scan")
    if axis == "cooling":
        out["omega_c"] = [khz(f) for f in _numbers(sec, "omega_c_khz", "scan")]
    return out


def probe_spec(tree, cool=None):
    """The optional probe section as ProbeParams; given the cooling stage
    cool, with the probe frequency filled in (ProbeParams.resolved)."""
    probe = _section(tree, "probe", ProbeParams.from_khz, ("omega_probe_khz",),
                     ("shots", "k_max"), as_is=("decay_model",))
    return probe if cool is None else _build("probe", probe.resolved, cool=cool)
