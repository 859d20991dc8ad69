"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, tiny=True, seed=0):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    cmd += ["--tiny"] if tiny else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_every_metric_with_its_unit(trace):
    bench = _bench()
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if trace else "end_to_end"]}
    result = _run("gscan-exact-probe", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_smoke_run(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["attempted"] >= 2
    assert result["failed"] == 0
    assert result["metrics"]["wall_s"]["value"] > 0


def test_traced_run_counts_every_layer():
    m = _run("gscan-exact-probe", trace=1)["metrics"]
    assert m["analysis.points"]["value"] == 3
    assert m["probe.measure.count"]["value"] == 3
    assert m["protocol.cycles_kept"]["value"] == 3 * 20
    assert m["channels.cooling.count"]["value"] >= 3 * 20
    assert m["cli.self_s"]["value"] > 0 and m["config_s"]["value"] > 0


def test_tracer_merges_pool_worker_spans(tmp_path):
    # Points of a pooled scan run in forked workers; their spans must reach
    # the parent, or the per-layer numbers would read zero.
    import yaml
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from iondpt import analysis, config

    def load_yaml(path):
        with open(path) as fh:
            return yaml.safe_load(fh)

    tree = workloads.config_tree("gscan-exact-probe", 0,
                                 os.path.join(ROOT, "configs"), load_yaml,
                                 tiny=True)
    cfg = config.experiment_from_tree(tree)
    tracer = spans.install(str(tmp_path))
    try:
        analysis.g_scan(cfg, tree["scan"]["values"], readout="probe",
                        threads=2)
    finally:
        tracer.uninstall()
    merged = tracer.collect()
    points = [s for s in merged if s["name"] == "analysis.point"]
    assert len(points) == 3
    assert os.getpid() not in {s["pid"] for s in points}
    by_id = {s["id"]: s for s in merged}
    assert all(by_id[s["parent"]]["name"] == "analysis.g_scan" for s in points)
    m = spans.layer_metrics(merged)
    assert m["probe.measure.count"] == 3 and m["protocol.run.count"] == 3
    assert m["analysis.pool.busy_s"] > 0


def _reference_points(name):
    ref = workloads.load_references()[name]
    known = ref.get("known_defects", {})
    points = []
    for value, nbar in zip(ref["values"], ref["nbar"]):
        # a known defect reads what the program reads today, 0.5 off
        shift = 0.5 if f"{value:g}" in known else 0.0
        points.append({"value": float(value), "nbar": nbar - shift,
                       "sigma": 0.001, "converged": True})
    return points


@pytest.mark.parametrize("name", workloads.NAMES)
def test_failing_point_increments_fail_ratio(name):
    refs = workloads.load_references()
    n_known = len(refs[name].get("known_defects", {}))
    rep = {"error": None, "tolerance_mode": True,
           "points": _reference_points(name)}
    correct, attempted, failed = run.check(name, 0, [rep], refs, tiny=False)
    assert correct and failed == n_known

    bad = {"error": None, "tolerance_mode": True,
           "points": _reference_points(name)}
    bad["points"][0]["nbar"] -= 0.2
    correct, attempted, failed = run.check(name, 0, [bad], refs, tiny=False)
    assert not correct and failed == n_known + 1
    plain = {"cpu_s": 1.0, "wall_s": 1.0}
    traced = {"wall_s": 1.0, "layers": {}}
    ratio = run.metric_values([], [0.1], [plain], traced, attempted,
                              failed)["fail_ratio"]
    assert ratio == (n_known + 1) / attempted


def test_times_are_scaled_to_the_reference_host_speed():
    reference = workloads.CALIBRATION_S
    # a host running the kernel at half speed took twice as long
    assert run.at_reference_speed(10.0, [2 * reference] * 3) == 5.0
    # the run's median measurement sets the scale, not a stray one
    assert run.at_reference_speed(10.0, [reference, 2 * reference,
                                         2 * reference, 9 * reference]) == 5.0


def test_calibration_answers_each_request():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "calibrate.py")],
        input="\n\n", capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    times = [float(line) for line in proc.stdout.splitlines()]
    assert len(times) == 2 and all(t > 0 for t in times)


def test_raising_scan_fails_every_point():
    refs = workloads.load_references()
    rep = {"error": "IntegrationError: trace drift", "tolerance_mode": True,
           "points": [{"value": v} for v in (1.3, 1.5)]}
    assert run.check("gscan-noisy", 0, [rep], refs, tiny=False) == (False, 2, 2)


def test_seed_moves_interior_points_only():
    grid = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
    assert workloads.jitter_interior(grid, workloads.DEFAULT_SEED) == grid
    for seed in (1, 2, 3):
        moved = workloads.jitter_interior(grid, seed)
        assert moved == workloads.jitter_interior(grid, seed)
        assert moved[0] == grid[0] and moved[-1] == grid[-1]
        assert moved != grid
        for i in range(1, len(grid) - 1):
            gap = min(grid[i] - grid[i - 1], grid[i + 1] - grid[i])
            assert abs(moved[i] - grid[i]) < 0.25 * gap


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "references.json"):
        (bench / f).write_text(open(os.path.join(BENCH_DIR, f)).read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gscan-noisy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
