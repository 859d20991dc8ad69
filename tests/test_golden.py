"""Golden outputs: the files the CLI writes for every shipped config, and
for four noisy scans that no shipped config covers, compared cell by cell
with the copies in tests/golden/ (manifests excluded).

The integer columns (cycle, cycles, n_max, converged) and JSON text must
match exactly, every other number to a relative 1e-9, NaN to NaN.  A
change that moves a golden number on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved cells, old -> new, in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from iondpt import cli, probe

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-9
EXACT = {"cycle", "cycles", "n_max", "converged"}

# fig3_r50 at g = 1.3 and 1.5 with heating and dephasing, run to the
# tolerance stop of the benchmark's noisy scan: (channel, recoil, starting
# n_max, None for the config's).  The n_max 31 case runs at an even boson
# dimension, where offset b/2 has no partner in the folded offset pass.
NOISY = {"heating_per_s": 50.0, "dephasing_per_s": 200.0}
NOISY_CASES = {"noisy_exact_recoil": ("exact", True, None),
               "noisy_exact": ("exact", False, None),
               "noisy_linearized": ("lindblad", False, None),
               "noisy_exact_recoil_even": ("exact", True, 31)}


def _commands(work):
    """The CLI argument lists of every golden case, writing their configs
    under work."""
    def shipped(name):
        return ["--config", str(ROOT / "configs" / f"{name}.yaml")]
    commands = [["run"] + shipped("fig2a"), ["probe-demo"] + shipped("fig2a")]
    commands += [["scan", "--threads", "1"] + shipped(name)
                 for name in ("fig2c", "fig3_r50", "fig4", "sm_s1", "sm_s2")]
    for name, (channel, recoil, n_max) in NOISY_CASES.items():
        tree = yaml.safe_load((ROOT / "configs" / "fig3_r50.yaml").read_text())
        tree.update(channel=channel, noise=dict(NOISY, recoil=recoil),
                    cycles={"mode": "tolerance", "tol": 0.005, "window": 25,
                            "max": 500},
                    scan={"axis": "g", "values": [1.3, 1.5]})
        if n_max is not None:
            tree["cutoff"] = {"n_max": n_max}
        path = Path(work) / f"{name}.yaml"
        path.write_text(yaml.safe_dump(tree))
        commands.append(["scan", "--threads", "1", "--config", str(path)])
    return commands


def write_outputs(out_dir):
    """Run every golden case into out_dir; returns the output files by
    name, manifests left out."""
    work = Path(out_dir)
    configs = work / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for argv in _commands(configs):
        assert cli.main(argv + ["--out-dir", str(work)]) == 0, argv
    return {p.name: p for p in sorted(work.glob("*.*"))
            if not p.name.endswith("_manifest.json")}


def _cells(path):
    """{column: 1-D float array} of a CSV, or {key path: float array} of
    the numeric leaves of a JSON file and {key path: text} of its text."""
    if path.suffix == ".csv":
        header, data = probe.read_table(path)
        return {name: data[:, i] for i, name in enumerate(header)}
    cells = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        else:
            cells[key] = (node if isinstance(node, str)
                          else np.array(node, dtype=float).reshape(-1))
    walk(json.loads(path.read_text()), "")
    return cells


def _deviation(new, old):
    """(largest relative deviation, where) between two files' cells, with
    inf for a mismatch that no tolerance covers."""
    new, old = _cells(new), _cells(old)
    if new.keys() != old.keys():
        return math.inf, f"columns {sorted(new)} != {sorted(old)}"
    worst = (0.0, "")
    for name, want in old.items():
        got = new[name]
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                return math.inf, f"{name}: {got!r} != {want!r}"
            continue
        if got.shape != want.shape:
            return math.inf, f"{name}: {got.size} cells != {want.size}"
        nan = np.isnan(want)
        if not np.array_equal(nan, np.isnan(got)):
            return math.inf, f"{name}: NaN cells differ"
        got, want = got[~nan], want[~nan]
        if name.split(".")[-1] in EXACT:
            rel = np.where(got == want, 0.0, math.inf)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(got == want, 0.0,
                               np.abs(got - want) / np.abs(want))
        if rel.size and rel.max() > worst[0]:
            i = int(rel.argmax())
            worst = (float(rel[i]),
                     f"{name}[{i}]: {float(got[i])!r} vs {float(want[i])!r}")
    return worst


def test_outputs_match_golden_files(tmp_path):
    outputs = write_outputs(tmp_path)
    golden = {p.name: p for p in GOLDEN.iterdir()}
    assert outputs.keys() == golden.keys()
    deviations = {name: _deviation(path, golden[name])
                  for name, path in outputs.items()}
    failed = {name: f"{rel:.3g} at {where}"
              for name, (rel, where) in deviations.items() if rel > RTOL}
    assert not failed, f"outputs off the golden files (relative {RTOL}): {failed}"


def _change(new, old):
    """What regenerating old as new moves: "identical" bytes, or the
    largest relative change of a cell and where it is."""
    if not old.exists():
        return "new"
    if new.read_bytes() == old.read_bytes():
        return "identical"
    rel, where = _deviation(new, old)
    return f"relative {rel:.3g} at {where}" if where else "cells equal"


if __name__ == "__main__":
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        outputs = write_outputs(tmp)
        for name in sorted({p.name for p in GOLDEN.glob("*")} - outputs.keys()):
            print(f"{name}: removed", file=sys.stderr)
        for name, path in outputs.items():
            print(f"{name}: {_change(path, GOLDEN / name)}", file=sys.stderr)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        GOLDEN.mkdir()
        for name, path in outputs.items():
            shutil.copy(path, GOLDEN / name)
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)
