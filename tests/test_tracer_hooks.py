"""The traced benchmark run wraps iondpt functions by name; a refactor that
drops or renames one of them must fail here rather than in the benchmark."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans as module
        yield module
    finally:
        sys.path.remove(PERFBENCH)


def test_install_and_uninstall(spans, tmp_path):
    tracer = spans.install(str(tmp_path))
    tracer.uninstall()


def _check_noisy_split_step_spans(spans, tmp_path, warm):
    """On a noisy exact run SplitStepPropagator.apply carries the drive
    alone: the cooling pulse is the stage's own per-offset table, whose
    time lands in CoolingChannel.apply, and whose build reads the couplings
    of h_red_sideband.  The recoil kick is composed into that pass, so
    recoil_kick is never called."""
    from iondpt import analysis, protocol
    from iondpt.channels import NoiseParams
    from iondpt.model import CoolParams, DriveParams
    from iondpt.protocol import CutoffPolicy, ExperimentConfig
    cfg = ExperimentConfig(
        drive=DriveParams.from_khz(26.0, 24.0, 9.0, 20.0),
        cool=CoolParams.from_khz(20.0, 5.0, 13.0),
        noise=NoiseParams.from_per_second(heating_per_s=50.0,
                                          dephasing_per_s=200.0,
                                          recoil=True),
        max_cycles=2, cutoff=CutoffPolicy(n_max=12, eps=1e-2))
    if warm:
        analysis.run(cfg)
    else:
        protocol._cooling_stage.cache_clear()
    tracer = spans.install(str(tmp_path))
    try:
        analysis.run(cfg)
    finally:
        tracer.uninstall()
    recorded = tracer.collect()
    inits = [s for s in recorded if s["name"] == "channels.CoolingChannel.init"]
    assert len(inits) == (0 if warm else 1)
    names = [s["name"] for s in recorded]
    assert names.count("model.h_red_sideband") == (0 if warm else 1)
    by_id = {s["id"]: s for s in recorded}
    parents = [by_id[s["parent"]]["name"] for s in recorded
               if s["name"] == "channels.SplitStepPropagator.apply"]
    assert parents == ["protocol.run"] * 2
    metrics = spans.layer_metrics(recorded)
    assert metrics["channels.splitstep.drive_s"] > 0
    assert metrics["channels.splitstep.dissipation_s"] == 0
    assert metrics["channels.cooling.count"] == 2
    assert metrics["channels.cooling_s"] > 0
    assert metrics["channels.recoil.count"] == 0


def test_split_step_spans_under_drive_and_cooling(spans, tmp_path):
    """The traced run builds its cooling stage, as the benchmark's does."""
    _check_noisy_split_step_spans(spans, tmp_path, warm=False)


def test_split_step_spans_from_a_stage_built_before_install(spans, tmp_path):
    """The traced run reuses a cooling stage built before the tracer was
    installed, and still reports the stage and the drive."""
    _check_noisy_split_step_spans(spans, tmp_path, warm=True)


def test_noise_free_exact_run_spans(spans, tmp_path):
    """The tracer reads the cutoff dimension off the parity blocks that
    CoolingChannel.apply receives, and the run reads its tail once per
    cycle (plus once on the initial state)."""
    from iondpt import analysis
    from iondpt.model import CoolParams, DriveParams
    from iondpt.protocol import CutoffPolicy, ExperimentConfig, InitialState
    cfg = ExperimentConfig(
        drive=DriveParams.from_khz(26.0, 24.0, 9.0, 20.0),
        cool=CoolParams.from_khz(20.0, 5.0, 13.0),
        initial=InitialState(kind="thermal", nbar=1.0),
        max_cycles=5, cutoff=CutoffPolicy(n_max=12, eps=1e-2))
    tracer = spans.install(str(tmp_path))
    try:
        analysis.run(cfg)
    finally:
        tracer.uninstall()
    recorded = tracer.collect()
    cooling = [s for s in recorded
               if s["name"] == "channels.CoolingChannel.apply"]
    assert [(s["dim"], s["noisy"]) for s in cooling] == [(13, False)] * 5
    names = [s["name"] for s in recorded]
    assert names.count("fockspace.tail_mass") == 5 + 1
    assert names.count("fockspace.expectation") == 5
    metrics = spans.layer_metrics(recorded)
    assert metrics["kernel.drive.gflop"] == pytest.approx(5 * 16 * 13**3 / 1e9)
