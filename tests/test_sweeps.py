import math

import numpy as np
import pytest

from rabisim import bloch, jitter
from rabisim.bloch import EmitterModel
from rabisim.errors import OutOfRange, StepFailure
from rabisim.jitter import JitterModel, PowerScanTemplate, averaged_power_scan
from rabisim.pulses import GAUSSIAN_AREA_FACTOR, GaussianEnvelope, pulse_area
from rabisim.sweeps import (CompositeFieldTemplate, SweepResult,
                            ThirdComponent, build_composite, cross_section,
                            sweep_2d)

import lawson
from linewidth import half_max_width, pulse_spectrum_sigma, voigt_fwhm

MHZ = 2.0 * math.pi * 1e6
EM = EmitterModel.from_lifetime(9.5e-9)
CENTER = 200e-9


def template(**kw):
    kw.setdefault("center", CENTER)
    return CompositeFieldTemplate(**kw)


# The bench map's corners: +-600 MHz, 0.1 pi to 4 pi of main-pulse area.
MAP_DETS = np.linspace(-600.0, 600.0, 13) * MHZ
MAP_AMPS = np.linspace(0.1, 4.0, 4) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)


def lawson_map(em, tpl, dets, amps, rep_period=1.4e-6):
    """sweep_2d's signal stepped by the Lawson reference instead."""
    field = build_composite(tpl, np.abs(amps)[:, None])
    t0, t1 = field.support()
    rho_end, _, integral, _ = lawson.solve(field, dets[None, :], em.gamma1,
                                           em.gamma2, (t0, t1))
    tail = rep_period - (t1 - t0)
    return em.gamma1 * integral - rho_end * np.expm1(-em.gamma1 * tail)


def test_build_composite_db_arithmetic():
    tpl = template()
    f = build_composite(tpl, scale=1e9)
    main, ped = f.components
    assert main.envelope.peak == 1e9
    assert ped.envelope.peak == pytest.approx(1e9 * 10 ** (-34 / 20), rel=1e-12)
    assert ped.envelope.peak == pytest.approx(1.995e7, rel=1e-3)
    assert main.phase.chirp == pytest.approx(2 * math.pi * 70e6)
    assert ped.phase.chirp == 0.0


def test_build_composite_zero_scale():
    f = build_composite(template(), 0.0)
    assert f.max_amplitude() == 0.0
    assert f.support() is None


def test_build_composite_area_ratio():
    # Pedestal and main pulse areas: closed-form Gaussians give
    # 10^(-34/20) * (50/4) ~ 0.25 at zero detuning.
    tpl = template()
    scale = 1e9
    ped_area = (scale * tpl.pedestal_amplitude_ratio * 50e-9
                * GAUSSIAN_AREA_FACTOR)
    main_area = scale * 4e-9 * GAUSSIAN_AREA_FACTOR
    assert ped_area / main_area == pytest.approx(0.2494, rel=1e-3)
    f = build_composite(template(main_enabled=False), scale)
    assert pulse_area(f) == pytest.approx(ped_area, rel=1e-7)


def test_build_composite_third_component():
    tpl = template(third=ThirdComponent(fwhm=50e-9, ratio_db=-30.0,
                                        frequency_offset=2 * math.pi * 300e6))
    f = build_composite(tpl, 1e9)
    assert len(f.components) == 3
    third = f.components[2]
    assert third.envelope.peak == pytest.approx(1e9 * 10 ** (-1.5))
    assert third.phase.chirp == pytest.approx(2 * math.pi * 300e6)


def test_template_validation():
    for ratio_db in (1.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            CompositeFieldTemplate(ratio_db=ratio_db)
    for ratio_db in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError):
            ThirdComponent(ratio_db=ratio_db)
    with pytest.raises(ValueError):
        CompositeFieldTemplate(pedestal_enabled=False, main_enabled=False)
    with pytest.raises(ValueError):
        CompositeFieldTemplate(main_fwhm=0.0)


def test_far_detuned_suppression():
    dets = np.array([0.0, 2 * math.pi * 5e9])
    amps = np.array([2 * math.pi * 50e6])
    res = sweep_2d(EM, template(), dets, amps)
    assert res.signal[0, 1] < 1e-3 * res.signal[0, 0]


def test_zero_chirp_map_is_detuning_symmetric():
    tpl = template(chirp=0.0)
    dets = np.linspace(-300, 300, 31) * MHZ
    amps = np.array([1e8, 1e9])
    res = sweep_2d(EM, tpl, dets, amps)
    assert np.max(np.abs(res.signal - res.signal[:, ::-1])) < 1e-9


def test_chirp_breaks_symmetry_toward_blue():
    dets = np.linspace(-300, 300, 61) * MHZ
    amps = np.array([2e8])
    res = sweep_2d(EM, template(), dets, amps)
    row = res.signal[0]
    peak_det = dets[np.argmax(row)] / MHZ
    assert peak_det == pytest.approx(70.0, abs=11.0)
    blue = row[dets > 0].sum()
    red = row[dets < 0].sum()
    assert blue > 1.5 * red


def test_monotone_onset_at_zero_detuning():
    a_pi = math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(a_pi / 30, 0.95 * a_pi, 12)
    res = sweep_2d(EM, template(), np.array([0.0]), amps)
    col = res.signal[:, 0]
    assert np.all(np.diff(col) > 0)


def test_negative_amplitudes_mirror_positive():
    # The sign of a drive does not change the populations. The bench map's
    # 40 x 121 shape puts mirrored rows on different tiles of the
    # propagator's matrix products, and each must still match bit for bit.
    dets = np.linspace(-300, 300, 13) * MHZ
    pos = sweep_2d(EM, template(), dets, np.array([100.0, 200.0]) * MHZ)
    neg = sweep_2d(EM, template(), dets, np.array([-200.0, -100.0]) * MHZ)
    assert np.array_equal(neg.signal, pos.signal[::-1])
    dets = np.linspace(-600.0, 600.0, 121) * MHZ
    amps = np.linspace(0.1, 4.0, 40) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    pos = sweep_2d(EM, template(), dets, amps)
    neg = sweep_2d(EM, template(), dets, -amps[::-1])
    assert np.array_equal(neg.signal, pos.signal[::-1])


def test_zero_amplitude_map_is_dark():
    res = sweep_2d(EM, template(), np.array([-1e9, 0.0, 1e9]), np.array([0.0]))
    assert np.all(res.signal == 0.0)
    # A zero row among driven ones, on the bench map's 40 x 121 shape.
    dets = np.linspace(-600.0, 600.0, 121) * MHZ
    amps = (np.arange(40) - 13) * 0.1 * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    res = sweep_2d(EM, template(), dets, amps)
    assert amps[13] == 0.0 and np.all(res.signal[13] == 0.0)
    assert np.all(np.delete(res.signal, 13, axis=0) > 0.0)


def test_grid_refinement_stability():
    tpl = template()
    amps = np.array([3e8])
    coarse = np.linspace(-200, 200, 41) * MHZ
    fine = np.linspace(-200, 200, 81) * MHZ
    r1 = sweep_2d(EM, tpl, coarse, amps)
    r2 = sweep_2d(EM, tpl, fine, amps)
    interp = np.interp(coarse, fine, r2.signal[0])
    scale = np.max(r2.signal)
    assert np.max(np.abs(interp - r1.signal[0])) < 0.01 * scale


def test_cross_section_row_selection():
    dets = np.linspace(-100, 100, 5) * MHZ
    amps = np.array([1e8, 2e8, 3e8])
    res = sweep_2d(EM, template(), dets, amps)
    d, row, actual = cross_section(res, 2e8)
    assert actual == 2e8
    assert np.array_equal(row, res.signal[1])
    # between rows -> nearer; exact midpoint tie -> lower row
    _, _, near = cross_section(res, 2.4e8)
    assert near == 2e8
    _, _, tie = cross_section(res, 1.5e8)
    assert tie == 1e8
    with pytest.raises(OutOfRange):
        cross_section(res, 9e8)


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(detunings=np.zeros(3), amplitudes=np.zeros(2),
                    signal=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SweepResult(detunings=np.zeros(2), amplitudes=np.zeros(2),
                    signal=-np.ones((2, 2)))


def test_pedestal_linewidth_approaches_natural_width_for_long_pulses():
    # The weak-drive pedestal line is the natural Lorentzian convolved with
    # the pulse's Fourier spectrum (a Voigt profile); lengthening the
    # pedestal removes the Fourier broadening and the width converges to
    # Gamma1.
    widths, predicted = {}, {}
    for fwhm_ns in (50.0, 200.0):
        tpl = CompositeFieldTemplate(main_enabled=False,
                                     pedestal_fwhm=fwhm_ns * 1e-9,
                                     center=700e-9)
        dets = np.linspace(-50, 50, 201) * MHZ
        amp = 0.02 * EM.gamma1 / tpl.pedestal_amplitude_ratio
        res = sweep_2d(EM, tpl, dets, np.array([amp]), rep_period=2.4e-6)
        widths[fwhm_ns] = half_max_width(dets, res.signal[0]) / EM.gamma1
        predicted[fwhm_ns] = voigt_fwhm(
            pulse_spectrum_sigma(tpl.pedestal_fwhm), EM.gamma2) / EM.gamma1
    assert widths[50.0] == pytest.approx(predicted[50.0], abs=0.02)
    assert widths[200.0] == pytest.approx(predicted[200.0], abs=0.03)


def test_map_budget_weights_steps_by_order(monkeypatch):
    # A Dyson step of order p updates each point with a degree-p polynomial,
    # so it counts p + 1 point-steps: a map whose plain step count fits the
    # budget but whose weighted count does not is refused before stepping.
    pieces = []

    def recorded(*args):
        pieces.append(plan(*args))
        return pieces[-1]

    plan = bloch.dyson_plan
    monkeypatch.setattr(bloch, "dyson_plan", recorded)
    sweep_2d(EM, template(), MAP_DETS, MAP_AMPS)
    points = MAP_DETS.size * MAP_AMPS.size
    steps = sum(n for n, _, _ in pieces) * points
    weighted = sum(n * (order + 1) for n, order, _ in pieces) * points
    assert weighted > 2 * steps
    monkeypatch.setattr(bloch, "MAX_BATCH_POINT_STEPS", (steps + weighted) // 2)
    with pytest.raises(StepFailure, match="budget"):
        sweep_2d(EM, template(), MAP_DETS, MAP_AMPS)


SCAN_AMPS = np.linspace(0.5, 12.0, 6) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)


def test_scan_budget_weights_steps_by_order(monkeypatch):
    # Each grid solve checks its own schedule's work for its rows x columns
    # before it steps, a Dyson step of order p counting p + 1: a scan whose
    # first grid solve fits the budget in plain steps but not in weighted
    # ones is refused before stepping.
    schedules, grids = [], []

    def planned(*args, **kwargs):
        schedules.append(plan(*args, **kwargs))
        return schedules[-1]

    def solve(*args, **kwargs):
        first = len(schedules)
        signal = emission(*args, **kwargs)
        grids.append((signal.size, first))
        return signal

    plan, emission = bloch.dyson_schedule, jitter.solve_emission
    monkeypatch.setattr(bloch, "dyson_schedule", planned)
    monkeypatch.setattr(jitter, "solve_emission", solve)
    averaged_power_scan(EM, PowerScanTemplate(), SCAN_AMPS, JitterModel(0.07),
                        20, seed=1)
    # The first schedule planned inside the first grid solve is its own.
    points, first = grids[0]
    pieces = schedules[first]
    steps = sum(n for _, _, n, _, _ in pieces) * points
    weighted = sum(n * (order + 1) for _, _, n, order, _ in pieces) * points
    assert weighted > 2 * steps

    def stepped(*args, **kwargs):
        raise AssertionError("the scan stepped")

    monkeypatch.setattr(bloch, "propagate_dyson", stepped)
    monkeypatch.setattr(bloch, "MAX_BATCH_POINT_STEPS", (steps + weighted) // 2)
    with pytest.raises(StepFailure, match="budget"):
        averaged_power_scan(EM, PowerScanTemplate(), SCAN_AMPS,
                            JitterModel(0.07), 20, seed=1)


def test_sweep_refuses_period_shorter_than_window():
    # The default map window spans the 50 ns pedestal: 316 ns.
    with pytest.raises(ValueError, match="rep_period"):
        sweep_2d(EM, template(), MAP_DETS, MAP_AMPS, rep_period=100e-9)


# A -20 dB third component 2400 MHz off its carrier beats at about twice
# that against the detuning, the fastest phase the nodes must resolve.
FAR_THIRD = template(third=ThirdComponent(ratio_db=-20.0,
                                          frequency_offset=2400 * MHZ))


# A jittered scan with an off-center pedestal, 6 amplitudes to 12 pi x 20
# draws: it solves its draws, each a column at its own rates.
SCAN_TPL = PowerScanTemplate(
    main_fwhm=4e-9, pedestal=GaussianEnvelope(peak=0.01, fwhm=30e-9,
                                              center=2e-9))


@pytest.mark.parametrize("tpl, dets", [
    (template(), MAP_DETS), (template(third=ThirdComponent()), MAP_DETS),
    (template(main_enabled=False), MAP_DETS),
    (FAR_THIRD, np.linspace(-50.0, 50.0, 5) * MHZ), (SCAN_TPL, None)],
    ids=["plain", "third", "pedestal_only", "far_third", "scan"])
def test_weak_drive_nodes_are_converged(tpl, dets, monkeypatch):
    def signal():
        if dets is None:
            return averaged_power_scan(EM, tpl, SCAN_AMPS, JitterModel(0.07),
                                       20, seed=1).signal
        return sweep_2d(EM, tpl, dets, MAP_AMPS).signal

    base = signal()
    monkeypatch.setattr(bloch, "DYSON_NODES_PER_RAD", 2 * bloch.DYSON_NODES_PER_RAD)
    monkeypatch.setattr(bloch, "DYSON_NODES_PER_FEATURE",
                        2 * bloch.DYSON_NODES_PER_FEATURE)
    monkeypatch.setattr(bloch, "DYSON_MIN_NODES", 2 * bloch.DYSON_MIN_NODES)
    assert np.max(np.abs(signal() - base)) <= 1e-12


@pytest.mark.parametrize("em, tpl", [
    (EM, template()),
    (EM, template(third=ThirdComponent())),
    (EM, template(main_enabled=False)),
    # 3 GHz of pure dephasing: (Gamma1 + Gamma2) x piece is ~130, so the
    # Dyson steps are cut by the damping bound.
    (EmitterModel.from_lifetime(9.5e-9, pure_dephasing=3e3 * MHZ),
     template())], ids=["plain", "third", "pedestal_only", "dephased"])
def test_weak_drive_map_matches_refined_lawson(em, tpl, monkeypatch):
    # The whole window is on the Dyson propagator; the Lawson reference is
    # refined 4x so that its own error stays below the bound.
    got = sweep_2d(em, tpl, MAP_DETS, MAP_AMPS).signal
    monkeypatch.setattr(lawson, "PHASE_STEP", lawson.PHASE_STEP / 4)
    ref = lawson_map(em, tpl, MAP_DETS, MAP_AMPS)
    assert np.max(np.abs(got - ref) / ref) <= 1e-7
