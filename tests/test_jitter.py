import math
import time

import numpy as np
import pytest

from rabisim import bloch, jitter
from rabisim.bloch import BlochState, EmitterModel, integrate, solve_emission
from rabisim.errors import FitDiverged, StepFailure
from rabisim.jitter import (JitterModel, PowerScan, PowerScanTemplate,
                            _scan_surrogate, averaged_power_scan,
                            draw_moments, fit_power_scan, frame_field,
                            frame_window, power_scan_model,
                            sample_durations)
from rabisim.pulses import (GAUSSIAN_AREA_FACTOR, RectangularEnvelope,
                            SampledEnvelope, scale_to_area, DriveField,
                            GaussianEnvelope)

import lawson
from test_bloch import end_and_integral

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
    # An array of points draws each point's scalar stream, byte for byte.
    rows = sample_durations(4e-9, model, seed=8, n=100, point=np.arange(5))
    assert rows.tobytes() == np.stack([
        sample_durations(4e-9, model, seed=8, n=100, point=i)
        for i in range(5)]).tobytes()
    off = sample_durations(4e-9, JitterModel(0.0), seed=8, n=100,
                           point=np.arange(5))
    assert off.shape == (5, 100) and np.all(off == 4e-9)


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


TPL = PowerScanTemplate(main_fwhm=4e-9)

#: Gamma1 + Gamma2 + |Delta|, which sizes the surrogate's duration axis.
RATE = EM.gamma1 + EM.gamma2


def _frame_solver(template, frame, emitter=EM, rep_period=1.4e-6):
    """``solve(p, s)``: signal of the frame peaks ``p`` (rows) times the
    duration ratios ``s`` (columns) in a scan's ``frame``, the batch solve
    the scan makes of its grid."""
    t_ref, window = frame
    return lambda p, s: solve_emission(
        frame_field(template, 1.0, s, t_ref), p, emitter.detuning,
        emitter.gamma1, emitter.gamma2, window, rep_period, s)


def _scan(amps, model, n_samples, seed, template=TPL):
    """A scan's draws and a solver ``solve(p, s)`` in its own frame."""
    durations = sample_durations(template.main_fwhm, model, seed, n_samples,
                                 point=np.arange(amps.size))
    return durations, _frame_solver(template,
                                    frame_window(template, amps, durations))


def _frame_points(amps, durations):
    """Frame peaks and duration ratios of a scan's draws."""
    sigma = durations / np.max(durations)
    return np.abs(amps)[:, None] * sigma, sigma


def _direct(amps, durations, template=TPL, emitter=EM, rep_period=1.4e-6):
    """Signal of every draw, solved in the scan's frame: one Dyson solve
    whose columns are the draws, each with its own rates and its unit pulse
    carrying its own frame peak at amplitude 1 (the Dyson term J_n is
    n-linear in the drive)."""
    t_ref, window = frame_window(template, amps, durations)
    peaks, sigma = _frame_points(amps, durations)
    sigma = sigma.ravel()
    return solve_emission(
        frame_field(template, peaks.ravel(), sigma, t_ref), np.ones(1),
        emitter.detuning, emitter.gamma1, emitter.gamma2, window, rep_period,
        sigma).reshape(durations.shape)


def _node_counts(amps, durations):
    """The surrogate's starting (area, duration) node counts."""
    peaks, _ = _frame_points(amps, durations)
    area_spread = np.ptp(peaks) * GAUSSIAN_AREA_FACTOR * np.max(durations)
    return (jitter._surrogate_degree(float(area_spread)) + 1,
            jitter._surrogate_degree(RATE * float(np.ptp(durations))) + 1)


UNIT = 1.0 / (4e-9 * GAUSSIAN_AREA_FACTOR)

#: Scans on the (area x duration) grid: (amplitudes, draws, seed).
WIDE = (np.linspace(0.5, 12.0, 120) * math.pi * UNIT, 60, 2)
DARK_TO_12PI = (np.linspace(0.0, 12.0, 121) * math.pi * UNIT, 200, 1)


def test_surrogate_matches_direct_solves():
    # The top of a 12 pi scan: 20 amplitudes from 10 pi to 12 pi.
    unit = 1.0 / (4e-9 * GAUSSIAN_AREA_FACTOR)
    amps = np.linspace(10.0, 12.0, 20) * math.pi * unit
    durations, solve = _scan(amps, JitterModel(0.07), 200, seed=3)
    areas = amps[:, None] * GAUSSIAN_AREA_FACTOR * durations
    direct = _direct(amps, durations)
    signal, error = _scan_surrogate(solve, amps, durations, RATE)
    assert signal.shape == durations.shape
    assert np.all(error > 0)
    want, got = draw_moments(direct, areas), draw_moments(signal, areas)
    assert np.max(np.abs(got[0] - want[0])) < 1e-9
    assert np.max(np.abs(got[1] - want[1])) < 1e-9
    assert np.array_equal(got[2], want[2])


def test_surrogate_doubles_on_nested_nodes(monkeypatch):
    calls = []

    def counted(solve):
        def solve_and_count(p, s):
            calls.append((len(p), np.shape(s)[-1]))
            return solve(p, s)
        return solve_and_count

    def doublings(calls):
        """Check that each call after the first solves the new (odd) nodes
        of one axis at every node of the other; return the final degrees."""
        m = n = 4
        for rows, cols in calls[1:]:
            if cols == n + 1:
                assert rows == m
                m *= 2
            else:
                assert (rows, cols) == (m + 1, n)
                n *= 2
        return m, n

    monkeypatch.setattr(jitter, "_surrogate_degree", lambda spread: 4)
    # On 100 amplitudes each axis doubles on nested nodes.
    wide = np.linspace(5.0, 6.0, 100) * math.pi * UNIT
    durations, solve = _scan(wide, JitterModel(0.07), 100, seed=4)
    signal, error = _scan_surrogate(counted(solve), wide, durations, RATE)
    assert calls[0] == (5, 5)
    m, n = doublings(calls)
    assert m > 4 and n > 4
    assert np.all(np.abs(signal - _direct(wide, durations))
                  <= error[:, None])
    # On 3 amplitudes the doublings pass the 180 draws before the tails
    # converge: a grid larger than its draws is still interpolated.
    amps = np.linspace(5.0, 6.0, 3) * math.pi * UNIT
    durations, solve = _scan(amps, JitterModel(0.07), 60, seed=4)
    direct = _direct(amps, durations)
    calls.clear()
    signal, error = _scan_surrogate(counted(solve), amps, durations, RATE)
    assert calls[0] == (5, 5)
    m, n = doublings(calls)
    assert (m + 1) * (n + 1) > durations.size
    assert np.all(error > 0)
    assert np.all(np.abs(signal - direct) <= error[:, None])
    # So is a grid that starts larger than its draws.
    monkeypatch.setattr(jitter, "_surrogate_degree", lambda spread: 99)
    calls.clear()
    signal, error = _scan_surrogate(counted(solve), amps, durations, RATE)
    assert calls == [(100, 100)]
    assert np.all(error > 0)
    assert np.all(np.abs(signal - direct) <= error[:, None])


def test_interp_error_bounds_the_actual_error():
    # Whole scans against one frame solve of all their draws, on twelve
    # and on 120 amplitudes.
    model = JitterModel(0.07)
    narrow = (np.linspace(0.5, 6.0, 12) * math.pi * UNIT, 60, 2)
    for amps, n_samples, seed in (narrow, WIDE):
        scan = averaged_power_scan(EM, TPL, amps, model, n_samples, seed=seed)
        assert np.all(scan.interp_error > 0)
        durations, solve = _scan(amps, model, n_samples, seed=seed)
        direct = _direct(amps, durations)
        signal, error = _scan_surrogate(solve, amps, durations, RATE)
        assert np.array_equal(error, scan.interp_error)
        assert np.all(np.abs(signal - direct) <= error[:, None])
        assert np.all(np.abs(scan.signal - np.mean(direct, axis=1)) <= error)
    amps = narrow[0]
    still = averaged_power_scan(EM, TPL, amps, JitterModel(0.0), n_samples=60,
                                seed=2)
    assert np.all(still.interp_error == 0.0)


def test_negative_amplitudes_mirror_positive(monkeypatch):
    # The sign of the drive does not change the populations, so a scan over
    # negative amplitudes must size its nodes from the area spread's
    # magnitude and reproduce its positive mirror (2000 and 1300 MHz, 2000
    # draws each).
    model = JitterModel(0.07)
    for amp in (2.0 * math.pi * 2e9, 2.0 * math.pi * 1.3e9):
        pos = averaged_power_scan(EM, TPL, [amp], model, n_samples=2000,
                                  seed=1)
        neg = averaged_power_scan(EM, TPL, [-amp], model, n_samples=2000,
                                  seed=1)
        bound = pos.interp_error + neg.interp_error
        assert np.all(bound > 0)
        assert np.all(np.abs(neg.signal - pos.signal) <= bound)
        assert np.all(np.abs(neg.stderr - pos.stderr) <= bound)
        assert np.array_equal(neg.area_std, pos.area_std)
    # A wide scan from a = 0 and its mirror, which draws each amplitude's
    # durations from its positive twin's stream.
    amps, n_samples, seed = DARK_TO_12PI
    pos = averaged_power_scan(EM, TPL, amps, model, n_samples, seed=seed)
    draw = jitter.sample_durations
    monkeypatch.setattr(
        jitter, "sample_durations",
        lambda *args, point: draw(*args, point=amps.size - 1 - point))
    neg = averaged_power_scan(EM, TPL, -amps[::-1], model, n_samples,
                              seed=seed)
    bound = pos.interp_error + neg.interp_error[::-1]
    assert np.all(np.abs(neg.signal[::-1] - pos.signal) <= bound)
    assert np.all(np.abs(neg.stderr[::-1] - pos.stderr) <= bound)
    assert np.array_equal(neg.area_std[::-1], pos.area_std)
    assert neg.signal[-1] == 0.0


def test_surrogate_rows_without_spread():
    # Rows whose draws span a few ulps at most. At sigma = 3e-17 the first
    # amplitude draws 40 equal durations while its scan neighbour does
    # not. Roundoff in the node variables puts end draws just outside
    # [-1, 1], where the Chebyshev series grows fast.
    for amps in ([2e8, 3e8], [1e9, 2e9], [5e9, 6e9]):
        amps = np.array(amps)
        for sigma, seed in ((3e-17, 1), (3e-16, 4), (3e-16, 5), (1e-15, 3),
                            (1e-15, 4), (1e-15, 5)):
            durations, solve = _scan(amps, JitterModel(sigma), 40, seed=seed)
            spread = np.ptp(durations, axis=1)
            assert np.all(spread <= 32 * np.spacing(TPL.main_fwhm))
            if sigma == 3e-17:
                assert spread[0] == 0.0 < spread[1]
            direct = _direct(amps, durations)
            signal, error = _scan_surrogate(solve, amps, durations, RATE)
            assert np.all(np.abs(signal - direct) <= error[:, None])


def test_zero_amplitude_row_is_dark():
    amps = [-1e9, 0.0, 1e9]
    scan = averaged_power_scan(EM, TPL, amps, JitterModel(0.07), n_samples=30,
                               seed=1)
    assert scan.signal[1] == 0.0
    assert np.all(scan.signal[[0, 2]] > 0.5)
    # A scan of zero amplitudes has no drive and no support: it steps its
    # draws' window at unit peak.
    dark = averaged_power_scan(EM, TPL, [0.0], JitterModel(0.07), n_samples=30,
                               seed=1)
    assert dark.signal[0] == 0.0
    # A wide scan's a = 0 row lies on the zero-area node line of its
    # (area x duration) grid and reads that line's solves exactly.
    amps, n_samples, seed = DARK_TO_12PI
    wide = averaged_power_scan(EM, TPL, amps, JitterModel(0.07), n_samples,
                               seed=seed)
    assert wide.signal[0] == 0.0
    assert wide.interp_error[0] == 0.0 < np.min(wide.interp_error[1:])


def test_pedestal_must_be_gaussian_or_rectangular():
    samples = SampledEnvelope(np.linspace(-5e-9, 5e-9, 11), np.ones(11))
    with pytest.raises(ValueError):
        PowerScanTemplate(pedestal=samples)


def _real_time(template, amps, durations, rep_period=1.4e-6):
    """Emitted photons per period, rho_end and rho_ee integral of every
    draw: one real-time solve of the draws on their own window by the
    Lawson reference."""
    peaks = np.abs(amps)[:, None]
    comps = [GaussianEnvelope(peaks, durations, template.center)]
    if template.pedestal is not None:
        comps.append(template.pedestal.scaled(peaks))
    field = DriveField([(c,) for c in comps])
    w0, w1 = field.support()
    rho_end, _, integral, _ = lawson.solve(field, EM.detuning, EM.gamma1,
                                           EM.gamma2, (w0, w1))
    tail = rep_period - (w1 - w0)
    return (EM.gamma1 * integral - rho_end * np.expm1(-EM.gamma1 * tail),
            rho_end, integral)


def _dyson_real_time(field, amps, window, rep_period=1.4e-6):
    """Emitted photons per period of ``amps`` times the unit ``field``: one
    real-time batch solve on the field's own schedule."""
    return solve_emission(field, amps, EM.detuning, EM.gamma1, EM.gamma2,
                          window, rep_period)


def test_no_jitter_scan_is_one_direct_solve():
    amps = np.linspace(2e8, 2e9, 24)
    scan = averaged_power_scan(EM, TPL, amps, JitterModel(0.0), n_samples=9,
                               seed=1)
    unit = DriveField.single(GaussianEnvelope(1.0, 4e-9, TPL.center))
    signal = _dyson_real_time(unit, amps, unit.scaled(amps[-1]).support())
    assert scan.signal.tobytes() == signal[:, 0].tobytes()
    # And it is the real-time solve of the Lawson reference, to within the
    # batch tolerances against DOP853.
    ref, _, integral = _real_time(TPL, amps, np.full((amps.size, 1), 4e-9))
    bound = 1e-5 + 1e-4 * EM.gamma1 * integral[:, 0]
    assert np.all(np.abs(scan.signal - ref[:, 0]) <= bound)


def test_scan_is_one_batch(monkeypatch):
    calls = {"frame_window": 0, "_scan_surrogate": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(jitter, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(jitter, name, counted)
    amps = np.linspace(2e8, 2e9, 30)
    averaged_power_scan(EM, TPL, amps, JitterModel(0.07), n_samples=80, seed=1)
    assert calls == {"frame_window": 1, "_scan_surrogate": 1}
    # A bench-shaped scan solves its tensor grid of (area x duration) nodes
    # once, at most 1100 points.
    points = []
    emission = jitter.solve_emission

    def solve(*args, **kwargs):
        signal = emission(*args, **kwargs)
        points.append(signal.size)
        return signal

    monkeypatch.setattr(jitter, "solve_emission", solve)
    a_max = 12.0 * math.pi * UNIT
    amps = np.linspace(a_max / 240, a_max, 240)
    averaged_power_scan(EM, TPL, amps, JitterModel(0.07), n_samples=200, seed=1)
    durations, _ = _scan(amps, JitterModel(0.07), 200, seed=1)
    m, n = _node_counts(amps, durations)
    assert points == [m * n] and m * n <= 1100


def test_grid_that_never_converges_is_refused_within_the_budget(monkeypatch):
    # With no tail small enough the area axis doubles until a grid solve
    # would exceed the batch budget: every solve checks its work before it
    # steps, and the scan ends in StepFailure instead of doubling on.
    budget = 10 ** 6
    monkeypatch.setattr(jitter, "_surrogate_degree", lambda spread: 4)
    monkeypatch.setattr(jitter, "SURROGATE_TAIL", 0.0)
    monkeypatch.setattr(bloch, "MAX_BATCH_POINT_STEPS", budget)
    events = []
    check, step = bloch.check_batch_work, bloch.propagate_dyson

    def checked(work):
        events.append(work)
        check(work)

    def stepped(*args, **kwargs):
        events.append(None)
        return step(*args, **kwargs)

    # The draws' check is jitter's own; each grid solve checks in bloch.
    monkeypatch.setattr(jitter, "check_batch_work", checked)
    monkeypatch.setattr(bloch, "check_batch_work", checked)
    monkeypatch.setattr(bloch, "propagate_dyson", stepped)
    amps = np.linspace(0.5, 12.0, 24) * math.pi * UNIT
    with pytest.raises(StepFailure, match="budget"):
        averaged_power_scan(EM, TPL, amps, JitterModel(0.07), 40, seed=1)
    works = [w for w in events if w is not None]
    # The draws' check, then one check per grid solve ahead of its steps;
    # the last refuses its solve, and nothing steps after it.
    assert events[:2] == works[:2] and events[-1] == works[-1]
    assert max(works[:-1]) <= budget < works[-1]
    assert len(works) >= 5


PEDESTAL_TPL = PowerScanTemplate(
    main_fwhm=4e-9, pedestal=GaussianEnvelope(peak=0.01, fwhm=30e-9))


@pytest.mark.parametrize("template, n_samples, seed", [
    (TPL, 200, 1), (TPL, 2000, 5), (PEDESTAL_TPL, 200, 2)],
    ids=["bench", "c05_main", "pedestal"])
def test_frame_schedule_bounds_every_draw(template, n_samples, seed):
    # The frame is the scan's longest draw (frame_window), and its window
    # holds every draw's frame field.
    a_max = 12.0 * math.pi / (template.main_fwhm * GAUSSIAN_AREA_FACTOR)
    for amps in (np.linspace(a_max / 240, a_max, 240), np.zeros(3)):
        durations = sample_durations(template.main_fwhm, JitterModel(0.07),
                                     seed, n_samples, point=np.arange(amps.size))
        t_ref, (w0, w1) = frame_window(template, amps, durations)
        assert t_ref == np.max(durations)
        peaks, sigma = _frame_points(amps, durations)
        field = frame_field(template, peaks, sigma, t_ref)
        # A dark scan steps its draws' window at unit peak.
        lo, hi = (field.support()
                  or frame_field(template, sigma, sigma, t_ref).support())
        assert w0 <= lo and hi <= w1


@pytest.mark.parametrize("pedestal", [
    GaussianEnvelope(peak=0.01, fwhm=30e-9, center=2e-9),
    RectangularEnvelope(peak=0.003, duration=60e-9, center=-5e-9)],
    ids=["gaussian", "rectangular"])
def test_pedestal_scan_matches_real_time_solves(pedestal):
    # In the frame an off-center pedestal is stretched about the main
    # pulse's center, a rectangle's edges moving with each draw. The scan
    # sits within the batch tolerances against DOP853 (1e-5 on rho_end,
    # 1e-4 relative on the rho_ee integral) of one real-time solve of its
    # draws by the Lawson reference. Both interpolate their grid.
    template = PowerScanTemplate(main_fwhm=4e-9, pedestal=pedestal)
    amps = np.linspace(0.5, 6.0, 8) * math.pi * UNIT
    scan = averaged_power_scan(EM, template, amps, JitterModel(0.07), 200,
                               seed=3)
    assert np.all(scan.interp_error > 0)
    durations, _ = _scan(amps, JitterModel(0.07), 200, 3, template)
    signal, _, integral = _real_time(template, amps, durations)
    bound = 1e-5 + 1e-4 * EM.gamma1 * np.mean(integral, axis=1)
    assert np.all(np.abs(scan.signal - np.mean(signal, axis=1)) <= bound)


def _off_center_scan_matches_lawson(n_samples, seconds):
    """A 24-amplitude scan under a rectangular pedestal whose left edge
    (-2 ns) falls under the main pulse: it finishes within ``seconds`` and
    sits within the batch tolerances against DOP853 of one real-time solve
    of its draws by the Lawson reference."""
    template = PowerScanTemplate(
        main_fwhm=4e-9, pedestal=RectangularEnvelope(peak=0.003, duration=20e-9,
                                                     center=8e-9))
    amps = np.linspace(0.5, 12.0, 24) * math.pi * UNIT
    start = time.monotonic()
    scan = averaged_power_scan(EM, template, amps, JitterModel(0.07),
                               n_samples, seed=1)
    assert time.monotonic() - start < seconds
    assert np.all(scan.interp_error > 0)
    durations, _ = _scan(amps, JitterModel(0.07), n_samples, 1, template)
    signal, _, integral = _real_time(template, amps, durations)
    bound = 1e-5 + 1e-4 * EM.gamma1 * np.mean(integral, axis=1)
    assert np.all(np.abs(scan.signal - np.mean(signal, axis=1)) <= bound)


def test_off_center_rectangular_pedestal_scan_uses_its_grid():
    # In the frame the pedestal's edge moves with each draw, and each grid
    # column is planned on its own edges, so the node values stay smooth:
    # the scan interpolates its grid (the duration axis doubles once).
    _off_center_scan_matches_lawson(200, 5.0)


def test_off_center_scan_with_fewer_draws_than_grid_points():
    # With 40 draws the grid has more points than the scan has draws; it
    # is still one cheap batch of rows, not a column per draw.
    _off_center_scan_matches_lawson(40, 2.0)


def test_frame_solves_match_dop853():
    # Frame solves at sigma != 1, each point a column at its own rates,
    # against DOP853 on the real-time pulses, within the batch tolerances;
    # at sigma = 1 the frame solve is the real-time solve, bit for bit.
    template = PowerScanTemplate(
        main_fwhm=4e-9, pedestal=GaussianEnvelope(peak=0.01, fwhm=30e-9,
                                                  center=2e-9))
    amps = np.array([1.5, 4.5]) * math.pi * UNIT
    durations = np.array([[3.2e-9, 4.0e-9, 4.6e-9]] * 2)
    t_ref = 4.6e-9
    frame = frame_window(template, amps, durations)
    peaks, sigma = _frame_points(amps, durations)
    field = frame_field(template, peaks.ravel(), sigma.ravel(), t_ref)
    w0, w1 = frame[1]
    rho_end, integral = (x.reshape(2, 3) for x in end_and_integral(
        field, 1.0, EM.detuning, EM, (w0, w1), sigma.ravel()))
    c = template.center
    for i, j in np.ndindex(durations.shape):
        real = DriveField([
            (GaussianEnvelope(amps[i], durations[i, j], c),),
            (template.pedestal.scaled(amps[i]),)])
        s = sigma[i, j]
        span = (c + s * (w0 - c), c + s * (w1 - c))
        ref = integrate(EM, real, BlochState(0.0), span,
                        (span[1] - span[0]) / 3000)
        assert abs(rho_end[i, j] - ref.rho_ee[-1]) < 1e-5
        assert integral[i, j] == pytest.approx(
            np.trapezoid(ref.rho_ee, ref.times), rel=1e-4, abs=1e-17)
    one = sigma == 1.0
    assert np.count_nonzero(one) == 2
    got = _frame_solver(template, frame)(peaks[one], np.ones(1))
    real = DriveField([(GaussianEnvelope(1.0, t_ref, c),),
                       (template.pedestal,)])
    want = _dyson_real_time(real, amps, (w0, w1))
    assert got.tobytes() == want.tobytes()


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
    with pytest.raises(ValueError, match="at least one amplitude"):
        averaged_power_scan(EM, TPL, [], JitterModel(0.07), 10, seed=1)


def test_scan_refuses_period_shorter_than_window():
    unit = 1.0 / (4e-9 * GAUSSIAN_AREA_FACTOR)
    amps = np.array([0.5, 1.0]) * math.pi * unit
    with pytest.raises(ValueError, match="rep_period"):
        averaged_power_scan(EM, TPL, amps, JitterModel(0.07), n_samples=20,
                            seed=1, rep_period=5e-9)
