import math

import numpy as np
import pytest

from rabisim.bloch import EmitterModel
from rabisim.errors import FitDiverged
from rabisim.jitter import (JitterModel, PowerScan, PowerScanTemplate,
                            averaged_power_scan, fit_power_scan,
                            power_scan_model, sample_durations)
from rabisim.pulses import (GAUSSIAN_AREA_FACTOR, RectangularEnvelope,
                            scale_to_area, DriveField, GaussianEnvelope)

EM = EmitterModel.from_lifetime(9.5e-9)


def test_sample_duration_no_jitter_is_exact():
    model = JitterModel(sigma_t_rel=0.0)
    assert sample_durations(4e-9, model, seed=1, n=1)[0] == 4e-9


def test_sample_duration_statistics_at_seven_percent():
    model = JitterModel(sigma_t_rel=0.07)
    draws = sample_durations(4e-9, model, seed=8, n=100_000)
    assert np.all(draws > 0)
    ratio = np.std(draws) / np.mean(draws)
    assert 0.066 < ratio < 0.074
    assert np.mean(draws) == pytest.approx(4e-9, rel=2e-3)


def test_sample_duration_deterministic_per_point():
    model = JitterModel(sigma_t_rel=0.07)
    a = sample_durations(4e-9, model, seed=8, n=100, point=3)
    b = sample_durations(4e-9, model, seed=8, n=100, point=3)
    c = sample_durations(4e-9, model, seed=8, n=100, point=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_jitter_model_validation():
    with pytest.raises(ValueError):
        JitterModel(sigma_t_rel=0.6)
    with pytest.raises(ValueError):
        JitterModel(sigma_t_rel=-0.01)


def test_scan_no_jitter_deterministic_and_sample_count_independent():
    amps = np.linspace(2e8, 2e9, 7)
    tpl = PowerScanTemplate(main_fwhm=4e-9)
    off = JitterModel(sigma_t_rel=0.0)
    s1 = averaged_power_scan(EM, tpl, amps, off, n_samples=1, seed=1)
    s2 = averaged_power_scan(EM, tpl, amps, off, n_samples=5, seed=99)
    assert np.array_equal(s1.signal, s2.signal)
    assert np.all(s1.stderr == 0.0)


def test_scan_control_extrema_at_integer_pi():
    # T << T1 control: extrema of the signal sit at pulse areas n pi.
    T = 0.4e-9
    a_max = 4.2 * math.pi / (T * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(a_max / 140, a_max, 140)
    scan = averaged_power_scan(EM, PowerScanTemplate(main_fwhm=T), amps,
                               JitterModel(0.0), n_samples=1, seed=1)
    areas = amps * T * GAUSSIAN_AREA_FACTOR
    s = scan.signal
    ext = []
    for i in range(1, s.size - 1):
        if (s[i] - s[i - 1]) * (s[i + 1] - s[i]) < 0:
            denom = s[i - 1] - 2 * s[i] + s[i + 1]
            delta = 0.5 * (s[i - 1] - s[i + 1]) / denom
            ext.append((areas[i] + delta * (areas[1] - areas[0])) / math.pi)
    assert len(ext) >= 3
    for e in ext:
        assert abs(e - round(e)) / round(e) < 0.05


def test_scan_area_std_grows_linearly():
    amps = np.linspace(1e8, 4e9, 30)
    scan = averaged_power_scan(EM, PowerScanTemplate(main_fwhm=4e-9), amps,
                               JitterModel(0.07), n_samples=300, seed=4)
    coef = np.polyfit(amps, scan.area_std, 1)
    pred = np.polyval(coef, amps)
    ss_res = np.sum((scan.area_std - pred) ** 2)
    ss_tot = np.sum((scan.area_std - scan.area_std.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.99
    assert coef[0] > 0


def test_fit_power_scan_round_trip():
    rng = np.random.default_rng(112)
    a = np.linspace(1e7, 8e9, 2000)
    true = np.array([0.65, 1.2e-10, 0.9, -1.0e-10, 0.9e9, math.pi])
    clean = power_scan_model(true, a)
    assert np.min(clean) > 0
    noise = 0.01 * float(np.max(clean))
    scan = PowerScan(amplitudes=a,
                     signal=np.maximum(clean + noise * rng.standard_normal(a.size), 0.0),
                     stderr=np.full(a.size, noise),
                     area_std=np.zeros(a.size))
    fit = fit_power_scan(scan)
    got = np.array([fit.background_offset, fit.background_slope,
                    fit.modulation_offset, fit.modulation_slope,
                    fit.period, fit.phase])
    rel = np.abs(got / true - 1.0)
    rel[5] = abs((got[5] - true[5] + math.pi) % (2 * math.pi) - math.pi) / true[5]
    assert np.all(rel < 0.02)


def test_fit_power_scan_degenerate_input():
    a = np.linspace(1e8, 1e9, 50)
    scan = PowerScan(amplitudes=a, signal=np.zeros(a.size),
                     stderr=np.zeros(a.size), area_std=np.zeros(a.size))
    with pytest.raises(FitDiverged):
        fit_power_scan(scan)


def test_fit_power_scan_pi_pulse_amplitude_consistent_with_area():
    # Fitted period maps to the pi-pulse amplitude found by area inversion.
    # Uses a pulse much shorter than the lifetime: with T ~ T1 the optimum
    # inversion area genuinely sits above pi (decay during the pulse), which
    # is a physics shift, not a fit error.
    T = 0.4e-9
    a_max = 11 * math.pi / (T * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(a_max / 220, a_max, 220)
    scan = averaged_power_scan(EM, PowerScanTemplate(main_fwhm=T), amps,
                               JitterModel(0.07), n_samples=150, seed=6)
    fit = fit_power_scan(scan)
    inverted = scale_to_area(
        DriveField.single(GaussianEnvelope(peak=1.0, fwhm=T)), math.pi)
    a_pi = inverted.components[0].envelope.peak
    assert fit.pi_pulse_amplitude == pytest.approx(a_pi, rel=0.05)


def test_scan_background_slope_sign():
    # Pedestal leakage produces a positive fitted background slope; the short
    # clean control pulse leaves it consistent with zero.
    T = 0.4e-9
    a_max = 8 * math.pi / (T * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(a_max / 200, a_max, 200)
    pedestal = RectangularEnvelope(peak=0.003, duration=60e-9, center=0.0)
    with_ped = averaged_power_scan(
        EM, PowerScanTemplate(main_fwhm=T, pedestal=pedestal), amps,
        JitterModel(0.0), n_samples=1, seed=2)
    without = averaged_power_scan(EM, PowerScanTemplate(main_fwhm=T), amps,
                                  JitterModel(0.0), n_samples=1, seed=2)
    fit_p = fit_power_scan(with_ped)
    fit_0 = fit_power_scan(without)
    assert fit_p.background_slope > 0.0
    scale = np.mean(with_ped.signal) / (amps[-1] - amps[0])
    assert fit_p.background_slope > 5.0 * abs(fit_0.background_slope)
    assert abs(fit_0.background_slope) < 0.05 * scale


def test_power_scan_validation():
    with pytest.raises(ValueError):
        PowerScan(amplitudes=np.array([2.0, 1.0]), signal=np.array([0.0, 0.0]),
                  stderr=np.zeros(2), area_std=np.zeros(2))
    with pytest.raises(ValueError):
        PowerScan(amplitudes=np.array([1.0, 2.0]), signal=np.array([-1.0, 0.0]),
                  stderr=np.zeros(2), area_std=np.zeros(2))
