"""Acceptance suite: one check (or labeled sub-check) per criterion.

Each test prints a single `[acceptance N] PASS ...` line on success (run
with `pytest -s` to see them); stated runtime bounds are asserted. All
Monte Carlo here is counter-seeded and fully deterministic, so the
statistical assertions are reproducible run to run.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import optimize, special, stats

from rabisim import selftest
from rabisim.bloch import BlochState, EmitterModel, integrate
from rabisim.cli_io import MHZ, run_command
from rabisim.detection import (DetectorModel, emission_rate,
                               first_detected_density, simulate_tcspc)
from rabisim import fitting
from rabisim.fitting import fit_trace, trace_model
from rabisim.jitter import (JitterModel, PowerScan, PowerScanTemplate,
                            averaged_power_scan, fit_power_scan,
                            power_scan_model, sample_durations)
from rabisim.pulses import (DriveField, GAUSSIAN_AREA_FACTOR, GaussianEnvelope,
                            SampledEnvelope, photons_per_pulse, pulse_area,
                            scale_to_area)
from rabisim.sweeps import CompositeFieldTemplate, cross_section, sweep_2d

import lawson
from linewidth import half_max_width, pulse_spectrum_sigma, voigt_fwhm

TWO_PI = 2.0 * math.pi
T1 = 9.5e-9
EMITTER = EmitterModel.from_lifetime(T1)
GAMMA1 = EMITTER.gamma1


def report(criterion, detail):
    print(f"[acceptance {criterion}] PASS  {detail}")


def oracle(name):
    """Run the selftest check ``name``, hold its gap to the table's bound and
    return the gap and the evidence."""
    scenario, bound = next((s, b) for n, s, b in selftest.CHECKS if n == name)
    gap, evidence = scenario()
    assert gap < bound
    return gap, evidence


def quad_extremum(x, y, center, half):
    sel = np.abs(x - center) < half
    coeff = np.polyfit(x[sel], y[sel], 2)
    vertex = -coeff[1] / (2.0 * coeff[0])
    if not center - half < vertex < center + half:
        vertex = center
    return float(np.polyval(coeff, vertex)), float(vertex)


# --------------------------------------------------------------------------
# 1 & 2: undamped analytic oracles
# --------------------------------------------------------------------------

def test_c01_resonant_rabi_oracle():
    start = time.monotonic()
    err, _ = oracle("undamped resonant Rabi vs sin^2")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"max|rho - sin^2| = {err:.2e} over 10 Rabi periods, {elapsed:.2f} s")


def test_c02_detuned_rabi_oracle():
    start = time.monotonic()
    err, _ = oracle("detuned Rabi vs generalized formula")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"max deviation {err:.2e} at Delta = Omega, {elapsed:.2f} s")


# --------------------------------------------------------------------------
# 3: lifetime recovery from a decay fit
# --------------------------------------------------------------------------

def test_c03_decay_recovery():
    traj = selftest.free_decay()[1]
    slope = np.polyfit(traj.times, np.log(traj.rho_ee), 1)[0]
    recovered = -1.0 / slope
    assert abs(recovered / T1 - 1.0) < 0.005
    report(3, f"T1 recovered to {abs(recovered / T1 - 1):.2e} relative")


# --------------------------------------------------------------------------
# 4: damped Rabi trace at the strong-drive operating point
# --------------------------------------------------------------------------

def fig2a_field(center=12e-9):
    fwhm = 5.7 * math.pi / (TWO_PI * 370e6 * GAUSSIAN_AREA_FACTOR)
    return DriveField.single(
        GaussianEnvelope(peak=TWO_PI * 370e6, fwhm=fwhm, center=center))


def test_c04_strong_drive_trace():
    start = time.monotonic()
    em = EmitterModel(gamma1=TWO_PI * 17e6)
    field = fig2a_field()
    area = pulse_area(field)
    assert area == pytest.approx(5.7 * math.pi, rel=1e-6)
    traj = integrate(em, field, BlochState(0.0), (0.0, 120e-9), 0.02e-9)
    support = field.support()
    inside = (traj.times >= support[0]) & (traj.times <= support[1])
    rho = traj.rho_ee[inside]
    n_max = sum(1 for i in range(1, rho.size - 1)
                if rho[i] >= rho[i - 1] and rho[i] > rho[i + 1]
                and rho[i] > 0.05)
    assert n_max >= 2
    tail = traj.times > support[1] + 2e-9
    slope = np.polyfit(traj.times[tail], np.log(traj.rho_ee[tail]), 1)[0]
    assert abs((-1.0 / slope) * em.gamma1 - 1.0) < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, f"{n_max} Rabi maxima during the pulse, tail decay at T1 to "
              f"{abs((-1.0 / slope) * em.gamma1 - 1.0):.2e}, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 5 & 6: power scans (shared fixtures)
# --------------------------------------------------------------------------

SCAN_T = 4e-9
SCAN_POINTS = 240
SCAN_SAMPLES = 2000
A_MAX = 12.0 * math.pi / (SCAN_T * GAUSSIAN_AREA_FACTOR)
SCAN_AMPS = np.linspace(A_MAX / SCAN_POINTS, A_MAX, SCAN_POINTS)
SCAN_AREAS = SCAN_AMPS * SCAN_T * GAUSSIAN_AREA_FACTOR


@pytest.fixture(scope="module")
def main_scan():
    start = time.monotonic()
    scan = averaged_power_scan(EMITTER, PowerScanTemplate(main_fwhm=SCAN_T),
                               SCAN_AMPS, JitterModel(0.07), SCAN_SAMPLES,
                               seed=5)
    return scan, time.monotonic() - start


@pytest.fixture(scope="module")
def control_scan():
    t_ctrl = 0.4e-9
    a_max = 12.0 * math.pi / (t_ctrl * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(a_max / SCAN_POINTS, a_max, SCAN_POINTS)
    start = time.monotonic()
    scan = averaged_power_scan(EMITTER, PowerScanTemplate(main_fwhm=t_ctrl),
                               amps, JitterModel(0.0), 1, seed=5)
    areas = amps * t_ctrl * GAUSSIAN_AREA_FACTOR
    return scan, areas, time.monotonic() - start


def test_c05a_control_extrema_at_integer_pi(control_scan):
    scan, areas, elapsed = control_scan
    s = scan.signal
    extrema = []
    for i in range(1, s.size - 1):
        if (s[i] - s[i - 1]) * (s[i + 1] - s[i]) < 0:
            denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
            shift = 0.5 * (s[i - 1] - s[i + 1]) / denom
            extrema.append((areas[i] + shift * (areas[1] - areas[0])) / math.pi)
    assert len(extrema) >= 8
    worst = max(abs(e - round(e)) / round(e) for e in extrema)
    assert worst < 0.05
    report("5a", f"{len(extrema)} extrema at multiples of pi, worst offset "
                 f"{worst * 100:.2f}% (T = 0.4 ns control, {elapsed:.1f} s)")


def peak_excitation(amplitudes, durations):
    """Largest rho_ee during Gaussian pulses of peak ``amplitudes`` and FWHM
    ``durations`` (broadcast together) on the Lawson reference's step grid."""
    field = DriveField.single(GaussianEnvelope(amplitudes, durations, 0.0))
    *_, peak = lawson.solve(field, EMITTER.detuning, EMITTER.gamma1,
                            EMITTER.gamma2, field.support())
    return peak


def test_c05b_first_maximum_below_full_inversion(main_scan, control_scan):
    scan, _ = main_scan
    s = scan.signal
    first = next(i for i in range(1, s.size - 1)
                 if s[i] >= s[i - 1] and s[i] > s[i + 1])
    # The largest excited population during the pulse, averaged over the
    # first maximum's 2000 draws: one batch solve of the Lawson reference.
    durations = sample_durations(SCAN_T, JitterModel(0.07), 5, SCAN_SAMPLES,
                                 point=first)
    peak_exc = float(np.mean(peak_excitation(SCAN_AMPS[first], durations)))
    assert peak_exc < 1.0
    assert peak_exc < 0.9  # clearly incomplete, not a rounding artifact
    ctrl, ctrl_areas, _ = control_scan
    j = int(np.argmin(np.abs(ctrl_areas - math.pi)))
    near = ctrl.amplitudes[max(j - 3, 0):j + 4]
    ctrl_exc = float(np.max(peak_excitation(near, 0.4e-9)))
    assert ctrl_exc > 0.95
    # visible modulation is also incomplete: the first minimum stays well
    # above zero signal
    hi, _ = quad_extremum(SCAN_AREAS, s, math.pi, 0.4 * math.pi)
    lo, _ = quad_extremum(SCAN_AREAS, s, 2 * math.pi, 0.4 * math.pi)
    assert lo > 0.1 * hi
    report("5b", f"first-maximum excitation {peak_exc:.3f} < 1 "
                 f"(T << T1 control reaches {ctrl_exc:.3f})")


def test_c05c_visibility_washout(main_scan):
    scan, elapsed = main_scan
    s = scan.signal
    vis = []
    for k in range(1, 6):
        hi, _ = quad_extremum(SCAN_AREAS, s, (2 * k - 1) * math.pi, 0.4 * math.pi)
        lo, _ = quad_extremum(SCAN_AREAS, s, 2 * k * math.pi, 0.4 * math.pi)
        vis.append((hi - lo) / (hi + lo))
    assert all(a > b for a, b in zip(vis, vis[1:])), vis
    assert vis[4] > 0.02
    assert elapsed < 600.0
    report("5c", f"visibilities {[f'{v:.3f}' for v in vis]} decrease "
                 f"monotonically; cycle 5 (10 pi) resolvable "
                 f"({SCAN_POINTS} points x {SCAN_SAMPLES} samples, {elapsed:.0f} s)")


def test_c05d_power_scan_fit_stops_at_its_minimum(main_scan, monkeypatch):
    """Refit from the fit's own result: a converged fit has nothing left."""
    scan, _ = main_scan
    solved = []
    least_squares = fitting.least_squares

    def spy(problem):
        solved.append((problem, least_squares(problem)))
        return solved[-1][1]

    monkeypatch.setattr(fitting, "least_squares", spy)
    fit = fit_power_scan(scan)
    problem = next(p for p, r in solved if r is fit.result)
    again = least_squares(dataclasses.replace(problem, x0=fit.result.params))
    drop = (fit.result.cost - again.cost) / fit.result.cost
    assert drop <= 1e-9
    report("5d", f"restarted scan fit lowers its cost by {drop:.1e} relative "
                 f"({fit.result.n_iter} iterations to the minimum)")


def test_c06_area_noise_linear_in_amplitude():
    model = JitterModel(0.07)
    n = 20_000
    stds = np.array([
        np.std(a * GAUSSIAN_AREA_FACTOR
               * sample_durations(SCAN_T, model, seed=5, n=n, point=i), ddof=1)
        for i, a in enumerate(SCAN_AMPS)])
    coeff = np.polyfit(SCAN_AMPS, stds, 1)
    pred = np.polyval(coeff, SCAN_AMPS)
    r2 = 1.0 - np.sum((stds - pred) ** 2) / np.sum((stds - stds.mean()) ** 2)
    assert r2 > 0.999
    report(6, f"sigma_A vs amplitude linear with R^2 = {r2:.6f} "
              f"({n} duration draws per point)")


# --------------------------------------------------------------------------
# 7 & 8: detection statistics
# --------------------------------------------------------------------------

def test_c07_detection_statistics():
    start = time.monotonic()
    field = scale_to_area(
        DriveField.single(GaussianEnvelope(peak=1.0, fwhm=5.116e-9,
                                           center=12e-9)), 5.7 * math.pi)
    detector = DetectorModel(efficiency=0.02, dead_time=70e-9,
                             timing_jitter_sigma=50e-12, rep_period=1.4e-6,
                             bin_width=2e-9)
    n_pulses = 1_000_000
    hist = simulate_tcspc(EMITTER, field, detector, n_pulses, seed=42)
    assert hist.total() <= n_pulses

    traj = integrate(EMITTER, field, BlochState(0.0), (0.0, 250e-9), 0.05e-9)
    t, rate = emission_rate(traj, EMITTER)
    # bin-integrated excited population for the correlation check
    cum_rho = np.concatenate(([0.0], np.cumsum(
        0.5 * (traj.rho_ee[1:] + traj.rho_ee[:-1]) * np.diff(t))))
    rho_bins = np.diff(np.interp(hist.bin_edges, t, cum_rho))
    window = hist.bin_centers < 150e-9
    corr = float(np.corrcoef(hist.counts[window], rho_bins[window])[0, 1])
    assert corr > 0.999

    density = first_detected_density(t, rate, detector.efficiency)
    cum_f = np.concatenate(([0.0], np.cumsum(
        0.5 * (density[1:] + density[:-1]) * np.diff(t))))
    mu = n_pulses * np.diff(np.interp(hist.bin_edges, t, cum_f))
    dev = np.abs(hist.counts - mu) / np.sqrt(np.maximum(mu, 1.0))
    linf = float(np.max(dev))
    assert linf < 3.0

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, f"Pearson(MC, rho) = {corr:.5f}; worst bin deviation "
              f"{linf:.2f} sigma vs first-detected density; "
              f"{hist.total()} counts <= {n_pulses} pulses; {elapsed:.0f} s")


def test_c08_exponential_emission_oracle():
    _, pulses, times, _ = selftest.jump_decay()[1]
    assert pulses.size == 100_000
    p_value = stats.kstest(times, "expon", args=(0.0, T1)).pvalue
    assert p_value > 0.01
    report(8, f"KS vs Exp(T1) over 1e5 trajectories: p = {p_value:.3f}")


# --------------------------------------------------------------------------
# 9: detuning x amplitude map properties
# --------------------------------------------------------------------------

SWEEP_CENTER = 200e-9


@pytest.fixture(scope="module")
def big_sweep():
    template = CompositeFieldTemplate(center=SWEEP_CENTER)
    detunings = np.linspace(-600, 600, 121) * MHZ
    a_lo = 0.10 * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    a_hi = 4.0 * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    amplitudes = np.linspace(a_lo, a_hi, 40)
    start = time.monotonic()
    result = sweep_2d(EMITTER, template, detunings, amplitudes)
    return result, time.monotonic() - start


def test_c09a_pedestal_only_linewidth(big_sweep):
    _, sweep_elapsed = big_sweep
    template = CompositeFieldTemplate(main_enabled=False, center=SWEEP_CENTER)
    detunings = np.linspace(-60, 60, 241) * MHZ
    amp = 0.02 * GAMMA1 / template.pedestal_amplitude_ratio
    result = sweep_2d(EMITTER, template, detunings, np.array([amp]))
    row = result.signal[0]
    peak_idx = int(np.argmax(row))
    assert abs(detunings[peak_idx]) < 2.5 * MHZ  # peaks at zero detuning
    # At weak drive the line is the pedestal's power spectrum convolved with
    # the homogeneous Lorentzian: a Voigt profile. A field exp(-2 ln2 t^2 /
    # tau^2) of intensity FWHM tau has the power spectrum exp(-w^2 tau^2 /
    # (4 ln2)), a Gaussian with sigma = sqrt(2 ln2) / tau (8.8 MHz FWHM at
    # 50 ns). Fix sigma in closed form and fit the Lorentzian half-width.
    x = detunings / GAMMA1
    sigma = pulse_spectrum_sigma(template.pedestal_fwhm) / GAMMA1
    (_, gamma), _ = optimize.curve_fit(
        lambda d, a, g: a * special.voigt_profile(d, sigma, g), x, row,
        p0=(row.max() / special.voigt_profile(0.0, sigma, 0.5), 0.5),
        bounds=([0.0, 1e-6], [np.inf, np.inf]))
    homogeneous = 2.0 * gamma
    fwhm = half_max_width(x, row)
    predicted = voigt_fwhm(sigma, EMITTER.gamma2 / GAMMA1)
    detail = (f"fitted homogeneous width {homogeneous:.4f} Gamma1; FWHM "
              f"{fwhm:.4f} Gamma1 vs Voigt {predicted:.4f} Gamma1 at "
              f"sigma {sigma:.4f} Gamma1")
    assert abs(homogeneous - 1.0) <= 0.20, detail
    assert fwhm == pytest.approx(predicted, rel=0.01), detail
    report("9a", f"pedestal-only line peaks at zero; {detail} "
                 f"(sweep fixture {sweep_elapsed:.0f} s)")


def test_c09b_low_amplitude_cross_section_blue_shifted(big_sweep):
    result, elapsed = big_sweep
    detunings, row, actual = cross_section(result, result.amplitudes[0])
    peak_mhz = detunings[np.argmax(row)] / MHZ
    assert abs(peak_mhz - 70.0) <= 15.0
    assert elapsed < 900.0
    report("9b", f"lowest-amplitude spectrum peaks at {peak_mhz:+.0f} MHz "
                 f"(121 x 40 sweep in {elapsed:.0f} s)")


def test_c09c_zero_chirp_symmetry():
    template = CompositeFieldTemplate(chirp=0.0, center=SWEEP_CENTER)
    detunings = np.linspace(-300, 300, 61) * MHZ
    amplitudes = np.linspace(1e8, 1.5e9, 5)
    result = sweep_2d(EMITTER, template, detunings, amplitudes)
    asym = float(np.max(np.abs(result.signal - result.signal[:, ::-1])))
    assert asym < 1e-9
    report("9c", f"zero-chirp map is detuning-symmetric to {asym:.1e}")


def test_c09d_pedestal_background_linear_pre_saturation():
    template = CompositeFieldTemplate(main_enabled=False, center=SWEEP_CENTER)
    ped_ratio = template.pedestal_amplitude_ratio
    # pre-saturation band: pedestal Rabi frequency in [Gamma1/3, Gamma1]
    amplitudes = np.linspace(GAMMA1 / 3.0, GAMMA1, 40) / ped_ratio
    result = sweep_2d(EMITTER, template, np.array([0.0]), amplitudes)
    col = result.signal[:, 0]
    coeff = np.polyfit(amplitudes, col, 1)
    pred = np.polyval(coeff, amplitudes)
    r2 = 1.0 - np.sum((col - pred) ** 2) / np.sum((col - col.mean()) ** 2)
    assert r2 > 0.99
    assert coeff[0] > 0
    report("9d", f"pedestal background linear in amplitude with R^2 = {r2:.4f} "
                 f"for pedestal Rabi in [Gamma1/3, Gamma1]")


# --------------------------------------------------------------------------
# 10: fit round trips
# --------------------------------------------------------------------------

def test_c10_fit_round_trips():
    fwhm = 5.7 * math.pi / (TWO_PI * 370e6 * GAUSSIAN_AREA_FACTOR)
    grid = np.arange(0.0, 40e-9, 0.05e-9)
    envelope = SampledEnvelope(grid, np.exp(-2.0 * math.log(2.0)
                                            * ((grid - 14e-9) / fwhm) ** 2))
    data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
    rng = np.random.default_rng(11)
    results = []
    for s_true, label in ((TWO_PI * 370e6, "A = 5.7 pi"),
                          (TWO_PI * 162e6, "A = 2.5 pi")):
        clean = trace_model(data_t, envelope, EMITTER, s_true, 3.1e-9,
                            40.0, 1e5)
        counts = rng.poisson(clean).astype(float)
        assert counts.max() > 5e4  # ~1e5 peak counts
        fit = fit_trace(data_t, counts, envelope, EMITTER)
        true_area = pulse_area(DriveField.single(envelope.scaled(s_true)))
        omega_err = abs(fit.omega_max / s_true - 1.0)
        area_err = abs(fit.area / true_area - 1.0)
        assert omega_err < 0.02 and area_err < 0.02
        results.append(f"{label}: Omega {omega_err:.2%}, area {area_err:.2%}")

    a = np.linspace(1e7, 8e9, 2000)
    true = np.array([0.65, 1.2e-10, 0.9, -1.0e-10, 0.9e9, math.pi])
    clean = power_scan_model(true, a)
    noise = 0.01 * float(np.max(clean))
    scan = PowerScan(
        amplitudes=a,
        signal=np.maximum(clean + noise * np.random.default_rng(112)
                          .standard_normal(a.size), 0.0),
        stderr=np.full(a.size, noise), area_std=np.zeros(a.size))
    fit = fit_power_scan(scan)
    got = np.array([fit.background_offset, fit.background_slope,
                    fit.modulation_offset, fit.modulation_slope,
                    fit.period, fit.phase])
    rel = np.abs(got / true - 1.0)
    rel[5] = abs((got[5] - true[5] + math.pi) % (2 * math.pi) - math.pi) / true[5]
    assert np.max(rel) < 0.02
    report(10, "; ".join(results) + f"; power-scan params within "
                                    f"{np.max(rel):.2%} at 1% noise")


# --------------------------------------------------------------------------
# 11: photon budget
# --------------------------------------------------------------------------

def test_c11_photon_budget(tmp_path):
    wavelength = 589e-9
    rep = 700e3
    _, power = oracle("photon budget arithmetic")
    assert photons_per_pulse(2 * power, rep, wavelength) == pytest.approx(1000.0)
    assert photons_per_pulse(power, 2 * rep, wavelength) == pytest.approx(250.0)
    out = tmp_path / "pi"
    assert run_command(["pi-pulse", "--t-ns", "4", "--wavelength-nm", "589",
                        "--rep-khz", "700", "--photons", "500",
                        "--out", str(out)]) == 0
    payload = json.loads((out / "pi_pulse.json").read_text())
    assert payload["photons_check"] == pytest.approx(500.0, rel=1e-9)
    assert payload["avg_power_W"] == pytest.approx(power, rel=1e-12)
    report(11, f"500 photons at 700 kHz and 589 nm require "
               f"{power:.4e} W; CLI bookkeeping self-consistent")


# --------------------------------------------------------------------------
# 12: determinism of reruns
# --------------------------------------------------------------------------

def test_c12_manifest_and_sweep_reruns_are_bit_identical(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("field.1.fwhm_ns = 5.116\nfield.1.center_ns = 12\n"
                   "field.1.area_pi = 5.7\ntrace.t_end_ns = 90\n"
                   "trace.n_pulses = 50000\ndetector.bin_width_ns = 1\n"
                   "rng.seed = 2024\n"
                   f"output.dir = {tmp_path / 'a'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "a" / "trace_manifest.json").read_text())
    rerun_cfg = tmp_path / "rerun.cfg"
    rerun_cfg.write_text(manifest["config"])
    assert run_command(["trace", "--config", str(rerun_cfg),
                        "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "histogram.csv", "first_detected.csv"):
        ref = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == ref, name

    sweep_cfg = tmp_path / "sw.cfg"
    sweep_cfg.write_text("sweep.det_points = 21\nsweep.det_min_MHz = -200\n"
                         "sweep.det_max_MHz = 200\nsweep.amp_points = 4\n"
                         "sweep.amp_min_MHz = 20\nsweep.amp_max_MHz = 200\n"
                         "template.center_ns = 200\n"
                         f"output.dir = {tmp_path / 'sw1'}\n")
    assert run_command(["sweep2d", "--config", str(sweep_cfg)]) == 0
    assert run_command(["sweep2d", "--config", str(sweep_cfg),
                        "--out", str(tmp_path / "sw2")]) == 0
    assert ((tmp_path / "sw1" / "sweep_long.csv").read_bytes()
            == (tmp_path / "sw2" / "sweep_long.csv").read_bytes())
    report(12, "manifest rerun and sweep rerun are bit-identical")
