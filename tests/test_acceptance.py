"""Acceptance gate: every quantitative target the package commits to,
one test per criterion, each printing a single PASS/FAIL line.

The criteria marked "R25"/"R50" refer to the frequency ratio R = omega_a /
omega_f of the underlying Rabi model.  Steady-state scans against R use the
linearized cooling channel and a 15 us dissipation window; the R = 25 and
R = 50 crossover studies use the exact channel and a 13 us window.
"""

import numpy as np
import pytest
from dataclasses import replace

from iondpt import fockspace as fs
from iondpt.model import DriveParams, CoolParams, khz
from iondpt.channels import NoiseParams, make_noise_jumps, lindblad_step
from iondpt.protocol import (ExperimentConfig, InitialState, Convergence,
                             CutoffPolicy, run)
from iondpt.probe import measure_nbar
from iondpt.analysis import (FitError, g_scan, r_scan, cooling_scan,
                             extrapolate_saturation, fit_exponential_saturation,
                             fit_critical_power_law, fit_loglog_slope,
                             crossover_midpoint)

R_GRID = [50, 100, 200, 400, 800, 1600]

DRIVE_R25 = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
DRIVE_R50 = DriveParams.from_khz(51.0, 49.0, 10.0, 20.0)
DRIVE_R50_NARROW = DriveParams.from_khz(50.5, 49.5, 10.0, 20.0)
COOL_13 = CoolParams.from_khz(20.0, 5.0, 13.0)
COOL_15 = CoolParams.from_khz(20.0, 5.0, 15.0)

TOL_SCAN = Convergence(mode="tolerance", tol=0.02, window=30)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def lindblad_scan_config(drive, **kw):
    base = dict(drive=drive, cool=COOL_15, initial=InitialState(kind="ground"),
                channel_mode="lindblad", max_cycles=4000, convergence=TOL_SCAN)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def relaxation_runs():
    """200-cycle R = 25 runs from a thermal and a ground start."""
    base = ExperimentConfig(drive=DRIVE_R25, cool=COOL_13,
                            initial=InitialState(kind="thermal", nbar=5.0),
                            channel_mode="exact", max_cycles=200)
    thermal = run(base)
    ground = run(replace(base, initial=InitialState(kind="ground")))
    return {"thermal": thermal, "ground": ground}


def test_criterion_01_steady_state_r25(relaxation_runs):
    n_t = relaxation_runs["thermal"].steady_nbar()
    n_g = relaxation_runs["ground"].steady_nbar()
    ok = (abs(n_t - 3.2) < 0.4 and abs(n_g - 3.2) < 0.4
          and abs(n_t - n_g) < 0.1)
    report(1, ok, f"steady nbar thermal={n_t:.4f} ground={n_g:.4f} "
                  f"target 3.2+-0.4, |diff|={abs(n_t - n_g):.4f} < 0.1")


def test_criterion_02_relaxation_scale(relaxation_runs):
    traj = relaxation_runs["thermal"]
    fit = fit_exponential_saturation(traj)
    a, n0, b = fit.params["A"], fit.params["N0"], fit.params["B"]
    tol = max(0.1, 0.1 * b)
    near_steady = abs(traj.nbar[49] - b) < tol
    decayed = abs(a) * np.exp(-50.0 / n0) < 0.15 * abs(a)
    ok = near_steady and decayed and abs(b - 3.2) < 0.4
    report(2, ok, f"A={a:.3f} N0={n0:.2f} B={b:.3f}; "
                  f"|nbar(50)-B|={abs(traj.nbar[49] - b):.3f} < {tol:.3f}, "
                  f"transient at 50 cycles {np.exp(-50.0 / n0):.3f} of A")


def test_criterion_03_channel_equivalence():
    gs = np.arange(0.6, 1.61, 0.2).round(2)
    base = ExperimentConfig(drive=DRIVE_R50, cool=COOL_13,
                            initial=InitialState(kind="ground"),
                            channel_mode="exact", max_cycles=300)
    exact = g_scan(base, gs).nbar
    lind = g_scan(replace(base, channel_mode="lindblad"), gs).nbar
    mask = exact < 10.0
    rel = np.abs(exact - lind) / np.maximum(exact, 1e-12)
    worst = float(rel[mask].max())
    ok = worst < 0.05
    report(3, ok, f"max relative steady-state gap where nbar<10: {worst:.3f} "
                  f"(target < 0.05); per-g gaps {np.round(rel[mask], 3)}")


def test_criterion_04_saturation_value():
    cfg = lindblad_scan_config(DRIVE_R50, max_cycles=2000)
    scan = r_scan(cfg, R_GRID, fixed_g=1.3)
    ns, err = extrapolate_saturation(scan)
    ok = abs(ns - 1.54) < 0.15
    report(4, ok, f"extrapolated N_s={ns:.4f}+-{err:.3f} (target 1.54+-0.15); "
                  f"tail nbar={scan.nbar[-1]:.4f}")


def test_criterion_05_divergent_phase_slope():
    cfg = lindblad_scan_config(DRIVE_R50_NARROW, max_cycles=3000)
    scan = r_scan(cfg, [100, 200, 300, 400], fixed_g=1.5)
    fit = fit_loglog_slope(np.column_stack([scan.values, scan.nbar]))
    slope = fit.params["slope"]
    ok = abs(slope - 0.843) < 0.10
    report(5, ok, f"log-log slope at g=1.5: {slope:.4f}"
                  f"+-{fit.errors['slope']:.4f} (target 0.843+-0.10)")


def test_criterion_06_critical_point():
    cfg = lindblad_scan_config(DRIVE_R50)
    pts = []
    for g in np.round(np.arange(1.0, 1.3401, 0.02), 3):
        scan = r_scan(cfg, R_GRID, fixed_g=float(g))
        try:
            ns, _ = extrapolate_saturation(scan)
        except FitError:
            # not yet saturating at this R ceiling: beyond the effective
            # finite-R critical point, excluded from the converging branch
            continue
        pts.append((float(g), ns))
    fit = fit_critical_power_law(pts, g_window=(1.2, 1.33))
    gc, nu = fit.params["g_c"], fit.params["nu"]
    ok = abs(gc - 1.351) < 0.05 and abs(nu - 1.09) < 0.25
    report(6, ok, f"g_c={gc:.4f}+-{fit.errors['g_c']:.4f} (target 1.351+-0.05), "
                  f"nu={nu:.4f}+-{fit.errors['nu']:.4f} (target 1.09+-0.25)")


def test_criterion_07_critical_scaling_slope():
    cfg = lindblad_scan_config(DRIVE_R50)
    scan = r_scan(cfg, R_GRID, fixed_g=1.351)
    fit = fit_loglog_slope(np.column_stack([scan.values, scan.nbar]))
    slope = fit.params["slope"]
    ok = abs(slope - 0.53) < 0.08
    report(7, ok, f"log-log slope at g=1.351: {slope:.4f}"
                  f"+-{fit.errors['slope']:.4f} (target 0.53+-0.08)")


def test_criterion_08_cooling_rate_shift():
    base = ExperimentConfig(drive=DRIVE_R50, cool=COOL_13,
                            initial=InitialState(kind="ground"),
                            channel_mode="exact", max_cycles=300)
    gs = np.round(np.arange(0.8, 1.81, 0.1), 2)
    scans = cooling_scan(base, [khz(10.0), khz(15.0), khz(20.0)], gs)
    # the curves saturate at different heights, so compare crossings of a
    # common level set by the strongest-cooling scan
    level = 0.5 * float(scans[-1].nbar.max())
    mids = [crossover_midpoint(s, level=level) for s in scans]
    ok = mids[0] < mids[1] < mids[2]
    report(8, ok, "crossover midpoints for omega_c = 2pi x {10,15,20} kHz: "
                  + ", ".join(f"{m:.3f}" for m in mids)
                  + " (strictly increasing expected)")


def test_criterion_09_nonmonotone_finite_r():
    cfg = lindblad_scan_config(
        DRIVE_R50, convergence=Convergence(mode="tolerance", tol=0.005,
                                           window=30))
    r_values = [300, 325, 350, 375, 400]
    near = r_scan(cfg, r_values, fixed_g=1.35)
    far = r_scan(cfg, r_values, fixed_g=1.8)
    d_near = np.diff(near.nbar)
    d_far = np.diff(far.nbar)
    wiggle = bool(np.any(d_near[:-1] * d_near[1:] < 0))
    monotone = bool(np.all(d_far > 0) or np.all(d_far < 0))
    ok = wiggle and monotone
    report(9, ok, f"near-critical diffs {np.round(d_near, 4)} (sign change: "
                  f"{wiggle}); g=1.8 diffs {np.round(d_far, 4)} "
                  f"(single-signed: {monotone})")


def test_criterion_10_noise_ordering():
    gs = [1.2, 1.3, 1.4, 1.5]
    base = ExperimentConfig(
        drive=DRIVE_R50, cool=COOL_13, initial=InitialState(kind="ground"),
        channel_mode="exact", max_cycles=500,
        convergence=Convergence(mode="tolerance", tol=0.005, window=25))
    decoherence = NoiseParams.from_per_second(heating_per_s=50.0,
                                              dephasing_per_s=200.0)
    with_recoil = replace(decoherence, recoil_enabled=True)
    n_off = g_scan(base, gs).nbar
    n_dec = g_scan(replace(base, noise=decoherence), gs).nbar
    n_rec = g_scan(replace(base, noise=with_recoil), gs).nbar
    inc1 = (n_dec - n_off) / n_off
    inc2 = (n_rec - n_dec) / n_dec
    ok = (np.all(n_dec > n_off) and np.all(n_rec > n_dec)
          and np.all(inc1 < 0.30) and np.all(inc2 < 0.30))
    report(10, ok, f"decoherence raises nbar by {np.round(100 * inc1, 2)} %, "
                   f"recoil adds {np.round(100 * inc2, 3)} % "
                   f"(all positive and < 30 % expected)")


def test_criterion_11_probe_pipeline(relaxation_runs):
    rho_m = relaxation_runs["thermal"].final_state
    direct = float(np.real(np.diag(rho_m)) @ np.arange(rho_m.shape[0]))
    omega = khz(20.0)
    nbar, sigma, _, _ = measure_nbar(rho_m, omega)
    consistent = abs(nbar - direct) < max(0.1, 2 * sigma)

    shot_levels = [10**3, 10**4, 10**5]
    sig = []
    for shots in shot_levels:
        draws = [measure_nbar(rho_m, omega, shots=shots, seed=s)[1]
                 for s in range(3)]
        sig.append(float(np.mean(draws)))
    slope = fit_loglog_slope(np.column_stack([shot_levels, sig])).params["slope"]
    scaling = abs(slope + 0.5) < 0.2
    ok = consistent and scaling
    report(11, ok, f"probe nbar={nbar:.4f}+-{sigma:.4f} vs direct {direct:.4f}; "
                   f"sigma(shots) slope {slope:.3f} (expected -0.5+-0.2)")


def test_criterion_12_property_suite(composite_reference):
    checks = []

    # density-matrix validity after every channel of a noisy run
    noisy = ExperimentConfig(
        drive=DRIVE_R25, cool=COOL_13,
        initial=InitialState(kind="thermal", nbar=2.0), channel_mode="exact",
        max_cycles=10, debug_validate=True,
        noise=NoiseParams.from_per_second(heating_per_s=50.0,
                                          dephasing_per_s=200.0,
                                          recoil_enabled=True))
    run(noisy)  # raises on any validity violation
    checks.append(("validity", True))

    # analytic damping and dephasing oracles to 1e-4
    a, _, num = fs.build_boson_ops(fs.FockCutoff(12))
    rho0 = np.zeros((13, 13), dtype=complex)
    rho0[2, 2] = 1.0
    out = lindblad_step(rho0, None, [np.sqrt(0.4) * a], 1.5)
    damping_ok = np.isclose(np.trace(out @ num).real,
                            2.0 * np.exp(-0.4 * 1.5), rtol=1e-4)
    checks.append(("damping oracle", bool(damping_ok)))
    psi = np.zeros(13, dtype=complex)
    psi[[0, 1]] = 1 / np.sqrt(2)
    coh = lindblad_step(np.outer(psi, psi.conj()), None,
                        [np.sqrt(2 * 0.2) * num], 2.0)[0, 1]
    checks.append(("dephasing oracle",
                   bool(np.isclose(abs(coh), 0.5 * np.exp(-0.2 * 2.0),
                                   rtol=1e-4))))

    # wall-clock origin invariance of the boson-state cycle: exact given
    # perfect optical pumping and phase-covariant noise
    origin_ok = True
    for mode in ("exact", "lindblad"):
        for noise in (NoiseParams(), NoiseParams(heating_rate=1e-3,
                                                 dephasing_rate=1e-3,
                                                 recoil_enabled=True)):
            cfg = ExperimentConfig(
                drive=DRIVE_R25, cool=COOL_13, noise=noise,
                initial=InitialState(kind="thermal", nbar=1.0),
                channel_mode=mode, max_cycles=4,
                cutoff=CutoffPolicy(n_max=24))
            traj = run(cfg)
            cut = fs.FockCutoff(traj.n_max)
            for t0 in (0.0, 77.0):
                ref = composite_reference(cfg, cut, 4, t0)
                origin_ok &= bool(np.abs(ref - traj.nbar).max() <= 1e-12)
    checks.append(("wall-clock origin invariance", origin_ok))

    # zero-drive zero-cooling invariance
    quiet = ExperimentConfig(
        drive=DriveParams.from_khz(26.0, 24.0, 0.0, 20.0),
        cool=CoolParams.from_khz(0.0, 5.0, 13.0),
        initial=InitialState(kind="thermal", nbar=3.0),
        channel_mode="exact", max_cycles=15)
    traj_q = run(quiet)
    checks.append(("frame bookkeeping invariance",
                   bool(np.abs(traj_q.nbar - traj_q.nbar[0]).max() < 1e-12)))

    # determinism: identical config gives identical bytes
    cfg = ExperimentConfig(drive=DRIVE_R25, cool=COOL_13,
                           initial=InitialState(kind="thermal", nbar=2.0),
                           channel_mode="exact", max_cycles=15)
    t1, t2 = run(cfg), run(cfg)
    checks.append(("determinism",
                   t1.nbar.tobytes() == t2.nbar.tobytes()
                   and t1.final_state.tobytes() == t2.final_state.tobytes()))

    # synthetic fit round trip within 2 sigma
    rng = np.random.default_rng(9)
    x = np.arange(1.0, 151.0)
    y = 2.5 * np.exp(-x / 12.0) + 1.7 + rng.normal(0, 0.01, x.size)
    fit = fit_exponential_saturation((x, y))
    fit_ok = all(abs(fit.params[k] - v) <= max(2 * fit.errors[k], 0.02)
                 for k, v in (("A", 2.5), ("N0", 12.0), ("B", 1.7)))
    checks.append(("fit round trip", fit_ok))

    failed = [name for name, ok in checks if not ok]
    report(12, not failed, "properties: " + ", ".join(
        f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks))
