import math
import time

import numpy as np
import pytest

from rabisim import bloch, jitter
from rabisim.bloch import (BATCH_PIECES, MAX_BATCH_POINT_STEPS, BlochState,
                           EmitterModel, dyson_plan, dyson_schedule,
                           integrate, population_series_fixed,
                           propagate_dyson, solve_emission)
from rabisim.cli_io import run_command
from rabisim.errors import StepFailure
from rabisim.jitter import (JitterModel, PowerScanTemplate, averaged_power_scan,
                            frame_window, sample_durations)
from rabisim.pulses import (GAUSSIAN_AREA_FACTOR, SUPPORT_CUTOFF, DriveField,
                            FieldComponent, GaussianEnvelope, PhaseLaw,
                            RectangularEnvelope, SampledEnvelope)
from rabisim.sweeps import CompositeFieldTemplate, build_composite, sweep_2d

from test_jitter import _direct, _frame_solver

TWO_PI = 2.0 * math.pi
EM = EmitterModel.from_lifetime(9.5e-9, detuning=-TWO_PI * 40e6)


def run_schedule(field, emitter, schedule):
    """One batch point driven by ``field``, stepped over a Dyson schedule."""
    state = None
    for a, b, *steps in schedule:
        state = propagate_dyson(field.rabi, 1.0, emitter.detuning,
                                emitter.gamma1, emitter.gamma2, (a, b), *steps,
                                initial=state)
    return state


@pytest.mark.parametrize("field, span", [
    (DriveField.single(GaussianEnvelope(peak=TWO_PI * 300e6, fwhm=3e-9),
                       PhaseLaw(chirp=TWO_PI * 80e6)), (-8e-9, 8e-9)),
    (DriveField.single(RectangularEnvelope(peak=TWO_PI * 300e6,
                                           duration=3.33e-9)), (-3e-9, 3e-9)),
], ids=["chirped_gaussian", "rectangular"])
def test_batch_convergence_order_vs_reference(field, span):
    # Dyson steps truncated at order 4 on the schedule's pieces: a
    # rectangle's edges fall on piece edges and cost no order.
    ref = integrate(EM, field, BlochState(0.0), span, span[1] - span[0],
                    rtol=1e-12, atol=1e-15)
    plan = dyson_schedule(field, span, EM.detuning, EM.gamma1 + EM.gamma2)
    errors = []
    for factor in (1, 2):
        rho, coh, *_ = run_schedule(field, EM, [
            (a, b, factor * n, min(order, 4), nodes)
            for a, b, n, order, nodes in plan])
        errors.append(max(abs(rho[0, 0] - ref.rho_ee[-1]),
                          abs(coh[0, 0] - ref.coherence[-1])))
    assert errors[0] < 1e-4
    # Fourth order gives 16; 12 means order >= 3.5.
    assert errors[0] / errors[1] >= 12.0, errors


def test_weak_drive_order_vs_reference():
    # A weak Gaussian (peak Gamma1) at detunings up to 2400 MHz, on the
    # production steps and nodes: only the Dyson order p varies.
    em = EmitterModel.from_lifetime(9.5e-9)
    dets = np.array([0.0, 150e6, -150e6, 600e6, -600e6, 2400e6, -2400e6]) * TWO_PI
    unit = DriveField.single(GaussianEnvelope(peak=1.0, fwhm=4e-9))
    amp = em.gamma1
    t0, t1 = unit.support()
    ref = [integrate(em.with_detuning(d), unit.scaled(amp), BlochState(0.0),
                     (t0, t1), t1 - t0, rtol=1e-9) for d in dets]
    ref_rho = np.array([r.rho_ee[-1] for r in ref])
    ref_coh = np.array([r.coherence[-1] for r in ref])
    damping = em.gamma1 + em.gamma2
    n_steps, order, n_nodes = dyson_plan(
        amp, t1 - t0, float(np.max(np.abs(dets))), damping, 4e-9)
    wh = amp * (t1 - t0) / n_steps
    assert wh <= bloch.DYSON_STEP and order >= 8
    floor = 1e-10  # what DOP853 at rtol 1e-9 resolves here
    errors = []
    for p in range(1, order + 1):
        rho, coh, *_ = propagate_dyson(
            unit.rabi, amp, dets, em.gamma1, em.gamma2, (t0, t1), n_steps,
            p, n_nodes)
        rho, coh = rho[0], coh[0]
        errors.append(np.maximum(np.abs(rho - ref_rho), np.abs(coh - ref_coh)))
    errors = np.array(errors)
    tails = np.array([wh ** (p + 1) / math.factorial(p + 1)
                      for p in range(1, order + 1)])[:, None]
    # The a-priori tail bounds the error at every order, and from the first
    # odd/even pair on the error falls at least as fast as the tail.
    assert np.all(errors <= np.maximum(tails, floor)), errors
    ratio = np.max(errors[:2] / tails[:2], axis=0)
    assert np.all(errors <= np.maximum(2.0 * ratio * tails, floor)), errors
    assert np.max(errors[0]) > 1e3 * floor
    # On each detuning's own production plan the error sits at the
    # reference's floor: it does not grow with |Delta|, and neither do the
    # step count and the order, which follow the drive alone.
    for d, r, c in zip(dets, ref_rho, ref_coh):
        plan = dyson_plan(amp, t1 - t0, abs(d), damping, 4e-9)
        assert plan[:2] == (n_steps, order)
        rho, coh, *_ = propagate_dyson(
            unit.rabi, amp, d, em.gamma1, em.gamma2, (t0, t1), *plan)
        assert max(abs(rho[0, 0] - r), abs(coh[0, 0] - c)) <= floor, d


def test_weak_drive_nodes_resolve_a_chirped_drive():
    # A component 2400 MHz off its carrier makes the J[1,2]-type terms beat
    # at 2 (|Delta| + |chirp|); at Delta = 0 nodes sized for 2 |Delta| +
    # |chirp| leave a 6.5e-7 error here.
    em = EmitterModel.from_lifetime(9.5e-9)
    chirp = TWO_PI * 2400e6
    unit = DriveField.single(GaussianEnvelope(peak=1.0, fwhm=4e-9),
                             PhaseLaw(chirp=chirp))
    amp = em.gamma1
    t0, t1 = unit.support()
    for d in (-chirp, 0.0, chirp):
        ref = integrate(em.with_detuning(d), unit.scaled(amp), BlochState(0.0),
                        (t0, t1), t1 - t0, rtol=1e-12, atol=1e-15)
        plan = dyson_plan(amp, t1 - t0, abs(d) + chirp,
                               em.gamma1 + em.gamma2, 4e-9)
        rho, coh, *_ = propagate_dyson(
            unit.rabi, amp, d, em.gamma1, em.gamma2, (t0, t1), *plan)
        assert abs(rho[0, 0] - ref.rho_ee[-1]) <= 1e-11
        assert abs(coh[0, 0] - ref.coherence[-1]) <= 1e-11


def test_weak_drive_without_drive_is_exact_free_evolution():
    # Order 0 (no drive on the piece) and a zero amplitude under a drive
    # both leave the exact decay and precession, and the exact rho_ee
    # integral, step after step.
    em = EmitterModel.from_lifetime(9.5e-9, pure_dephasing=3e7)
    dets = np.array([0.0, 2e9, -5e9])
    start = (np.full((1, 3), 0.4), np.full((1, 3), 0.1 + 0.3j),
             np.zeros((1, 3)))
    span, tau = (1e-9, 31e-9), 30e-9
    unit = DriveField.single(GaussianEnvelope(peak=1.0, fwhm=20e-9, center=10e-9))
    for amp, order in ((1.0, 0), (0.0, 6)):
        rho, coh, acc = propagate_dyson(
            unit.rabi, amp, dets, em.gamma1, em.gamma2, span, 3, order, 40,
            initial=start)
        assert np.allclose(rho, 0.4 * math.exp(-em.gamma1 * tau), rtol=1e-13)
        assert np.allclose(coh, (0.1 + 0.3j) * np.exp(
            (1j * dets - em.gamma2) * tau), rtol=1e-13, atol=0.0)
        assert np.allclose(acc, 0.4 * -math.expm1(-em.gamma1 * tau) / em.gamma1,
                           rtol=1e-13)


def test_power_sums_match_horner():
    # The propagator's per-point sum over orders, one matrix product,
    # against Horner's rule element by element, for both lead factors.
    rng = np.random.default_rng(11)
    amp = rng.uniform(-2.0, 2.0, 9)
    amp[4] = 0.0
    x = amp * amp
    for n in range(13):
        coeffs = (rng.normal(size=(n, 3, 5))
                  + 1j * rng.normal(size=(n, 3, 5)))
        for lead in (amp, x):
            out = bloch._power_sums(bloch._powers(lead, x, n), coeffs)
            assert out.shape == (3, amp.size, 5)
            for k, i, j in np.ndindex(out.shape):
                ref = 0j
                for c in coeffs[::-1, k, j]:
                    ref = ref * x[i] + c
                ref *= lead[i]
                assert abs(out[k, i, j] - ref) <= 1e-14 * abs(ref), (n, k, i, j)
            # An empty sum is zero, and a zero amplitude gives exactly zero.
            assert np.all(out[:, 4] == 0.0)
            if n == 0:
                assert np.all(out == 0.0)


@pytest.mark.parametrize("area", [4.0, 12.0], ids=["4pi", "12pi"])
def test_dyson_propagator_at_strong_drive_vs_reference(area, monkeypatch):
    # The map's main pulse on the whole window, chirped at +70 MHz: the
    # propagator needs no weak drive, its step and order rules hold at any
    # amplitude. The batch solve's last step gives the end state.
    em = EmitterModel.from_lifetime(9.5e-9)
    tpl = CompositeFieldTemplate(center=200e-9)
    unit = build_composite(tpl, 1.0)
    amp = area * math.pi / (tpl.main_fwhm * GAUSSIAN_AREA_FACTOR)
    span = unit.support()
    dets = np.array([-600e6, 0.0, 70e6, 600e6]) * TWO_PI
    states, step = [], bloch.propagate_dyson

    def stepped(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(bloch, "propagate_dyson", stepped)
    solve_emission(unit, amp, dets, em.gamma1, em.gamma2, span, 1.4e-6)
    rho, coh, *_ = states[-1]
    for d, r, c in zip(dets, rho[0], coh[0]):
        ref = integrate(em.with_detuning(d), unit.scaled(amp), BlochState(0.0),
                        span, span[1] - span[0], rtol=1e-11, atol=1e-14)
        assert abs(r - ref.rho_ee[-1]) <= 1e-10, d
        assert abs(c - ref.coherence[-1]) <= 1e-10, d


# Four columns with their own unit pulse, decay, dephasing and detuning;
# the second has no decay (the Gamma1 = 0 limit of the rho_ee integral).
COL_FWHM = np.array([3e-9, 4e-9, 5e-9, 3.5e-9])
COL_RATES = (np.array([0.0, 2e8, -5e8, 1e9]),       # detuning
             np.array([1e8, 0.0, 3e7, 1e8]),        # Gamma1
             np.array([0.5e8, 2e7, 5e7, 3e8]))      # Gamma2
COL_AMPS = np.array([0.5e9, 2e9])


def _column_solve(fwhm, rates):
    """Dyson solve of COL_AMPS rows on the plan of all four columns."""
    unit = DriveField.single(GaussianEnvelope(1.0, fwhm, 0.0),
                             PhaseLaw(chirp=TWO_PI * 60e6))
    plan = dyson_schedule(
        DriveField.single(GaussianEnvelope(1.0, COL_FWHM, 0.0),
                          PhaseLaw(chirp=TWO_PI * 60e6)),
        (-12e-9, 12e-9), 1e9, 4e8, scale=2e9)
    state = None
    for a, b, *steps in plan:
        state = propagate_dyson(unit.rabi, COL_AMPS, *rates, (a, b), *steps,
                                initial=state)
    return state


def test_per_column_rates_match_single_column_calls():
    # Per-column pulses and rates give each column the solve it gets alone.
    together = _column_solve(COL_FWHM, COL_RATES)
    for j, fwhm in enumerate(COL_FWHM):
        alone = _column_solve(fwhm, [r[j] for r in COL_RATES])
        for got, want in zip(together, alone):
            assert want.shape == (COL_AMPS.size, 1)
            assert np.max(np.abs(got[:, j] - want[:, 0])) <= (
                1e-15 * np.max(np.abs(want))), j
    # The driven Gamma1 = 0 column integrates rho_ee with weight h.
    assert np.all(together[2][:, 1] > 0)


def test_paired_points_match_the_tensor_solve():
    # J_n is n-linear in the drive, so a point at peak p on a unit pulse is
    # the point at amplitude 1 on p times that pulse: the draws solved as
    # paired frame points, each a column of its own, equal the tensor of
    # every draw's frame peak x the sigma columns at their own sigma.
    template = PowerScanTemplate(
        main_fwhm=4e-9, pedestal=RectangularEnvelope(peak=0.003, duration=20e-9,
                                                     center=3e-9))
    durations = np.array([[3.3e-9, 3.7e-9, 4.1e-9, 4.4e-9]] * 3)
    amps = np.array([1.0, 3.0, 6.0]) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    frame = frame_window(template, amps, durations)
    sigma = durations[0] / 4.4e-9
    peaks = amps[:, None] * sigma
    tensor = _frame_solver(template, frame, EM)(peaks.ravel(), sigma)
    own = np.arange(sigma.size)
    got = _direct(amps, durations, template, EM)
    want = tensor.reshape(3, 4, 4)[:, own, own]
    assert got.shape == want.shape == (3, 4)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_step_frames_are_built_once_per_distinct_step(monkeypatch):
    # The map's pieces repeat a few step lengths and node counts: each
    # distinct one builds its drive-free frame once.
    builds = []
    frame = bloch._dyson_frame

    def counted(s, *args):
        builds.append(s.size)
        return frame(s, *args)

    monkeypatch.setattr(bloch, "_dyson_frame", counted)
    em = EmitterModel.from_lifetime(9.5e-9)
    tpl = CompositeFieldTemplate(center=200e-9)
    dets = np.linspace(-600.0, 600.0, 13) * TWO_PI * 1e6
    amps = np.linspace(0.1, 4.0, 4) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    sweep_2d(em, tpl, dets, amps)
    unit = build_composite(tpl, 1.0)
    driven = [((b - a) / n, nodes) for a, b, n, order, nodes in dyson_schedule(
        unit, unit.support(), float(np.max(np.abs(dets))),
        em.gamma1 + em.gamma2, scale=float(amps[-1])) if order]
    assert len(set(driven)) <= bloch.DYSON_FRAMES
    assert len(builds) == len(set(driven)) < len(driven) / 4


def _terms_calls(monkeypatch):
    """Spy on bloch._dyson_terms: the drive shape (nodes, steps, columns)
    of each terms pass goes to the returned list."""
    calls = []
    terms = bloch._dyson_terms

    def counted(g, *args):
        calls.append(g.shape)
        return terms(g, *args)

    monkeypatch.setattr(bloch, "_dyson_terms", counted)
    return calls


def _off_center_grid():
    """A scan grid under a rectangular pedestal off the main pulse's
    center: in the frame its edges move with each duration column."""
    template = PowerScanTemplate(
        main_fwhm=4e-9, pedestal=RectangularEnvelope(peak=0.003, duration=20e-9,
                                                     center=8e-9))
    amps = np.linspace(0.5, 12.0, 8) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    durations = sample_durations(4e-9, JitterModel(0.07), 1, 40,
                                 point=np.arange(amps.size))
    t_ref, window = frame_window(template, amps, durations)
    sigma = np.linspace(np.min(durations) / t_ref, 1.0, 11)
    return _frame_solver(template, (t_ref, window), EM)(amps, sigma)


def _per_column_pulses():
    """Per-column envelopes under scalar rates: the drive has more columns
    than the rates."""
    em = EmitterModel.from_lifetime(9.5e-9, detuning=2.5e8,
                                    pure_dephasing=4e7)
    env = GaussianEnvelope(peak=1.0, fwhm=np.array([3e-9, 4e-9]), center=0.0)
    fld = DriveField.single(env, PhaseLaw(chirp=1e8))
    return solve_emission(fld, np.array([4e8, 1.5e9, 3e9]), em.detuning,
                          em.gamma1, em.gamma2, fld.support(), 1.4e-6)


def test_stacked_steps_match_one_step_per_pass(monkeypatch):
    # A piece stacks narrow steps into one terms pass; with every group
    # one step the signal keeps its bits.
    calls = _terms_calls(monkeypatch)
    stacked = [solve() for solve in (_off_center_grid, _per_column_pulses)]
    passes = len(calls)
    assert max(shape[1] for shape in calls) > 1
    calls.clear()
    monkeypatch.setattr(bloch, "DYSON_STACK", 1)
    single = [solve() for solve in (_off_center_grid, _per_column_pulses)]
    assert {shape[1] for shape in calls} == {1} and len(calls) > passes
    for got, want in zip(stacked, single):
        assert got.tobytes() == want.tobytes()


def test_scan_takes_one_terms_pass_per_piece_and_map_one_per_step(
        monkeypatch):
    calls = _terms_calls(monkeypatch)
    schedules = []
    plan = bloch.dyson_schedule

    def planned(*args, **kwargs):
        schedules.append(plan(*args, **kwargs))
        return schedules[-1]

    grids = []
    emission = jitter.solve_emission

    def solve(*args, **kwargs):
        signal = emission(*args, **kwargs)
        grids.append(signal.shape)
        return signal

    monkeypatch.setattr(bloch, "dyson_schedule", planned)
    monkeypatch.setattr(jitter, "solve_emission", solve)
    em = EmitterModel.from_lifetime(9.5e-9)
    # The bench scan solves a 63 x 11 grid on 9 nodes: 99-wide steps, one
    # pass for each of its 48 pieces and their 134 steps.
    a_max = 12.0 * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR)
    averaged_power_scan(em, PowerScanTemplate(), np.linspace(0.0, a_max, 241)[1:],
                        JitterModel(0.07), 200, seed=1)
    (pieces,) = schedules
    assert grids == [(63, 11)]
    assert {shape[0] for shape in calls} == {9}
    assert len(calls) == len(pieces) == 48
    assert sum(shape[1] for shape in calls) == 134
    # The bench map's steps are at least 10 x 121 wide: one pass per step.
    calls.clear()
    schedules.clear()
    sweep_2d(em, CompositeFieldTemplate(center=200e-9),
             np.linspace(-600.0, 600.0, 121) * TWO_PI * 1e6,
             np.linspace(0.1, 4.0, 40) * math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR))
    (pieces,) = schedules
    assert {shape[1] for shape in calls} == {1}
    assert len(calls) == sum(n for _, _, n, order, _ in pieces if order) == 104


def test_schedule_follows_local_drive_and_cuts_at_breakpoints():
    field = DriveField([
        (GaussianEnvelope(peak=2e9, fwhm=4e-9, center=1e-9), PhaseLaw()),
        (RectangularEnvelope(peak=2e7, duration=50e-9, center=0.3e-9),
         PhaseLaw())])
    span = (-40e-9, 40e-9)
    schedule = dyson_schedule(field, span, 1e9, EM.gamma1 + EM.gamma2)
    edges = [p[0] for p in schedule] + [schedule[-1][1]]
    assert edges[0] == span[0] and edges[-1] == span[1]
    assert all(p[1] == q[0] for p, q in zip(schedule, schedule[1:]))
    for edge in field.breakpoints():
        assert edge in edges
    assert len(schedule) == BATCH_PIECES + 2
    steps = [n for _, _, n, _, _ in schedule]
    assert min(steps) >= 1
    # The wings outside the pedestal only resolve decay and detuning drift.
    work = [n * (order + 1) for _, _, n, order, _ in schedule]
    assert work[0] < work[len(work) // 2] / 10


def test_segmented_solve_matches_single_call():
    env = GaussianEnvelope(peak=1.5e9, fwhm=3e-9)
    field = DriveField.single(env)
    whole = run_schedule(field, EM, [(-6e-9, 6e-9, 40, 12, 16)])
    split = run_schedule(field, EM, [(-6e-9, 0.0, 20, 12, 16),
                                     (0.0, 6e-9, 20, 12, 16)])
    for a, b in zip(whole, split):
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_population_series_tail_is_exact_free_decay():
    field = DriveField.single(GaussianEnvelope(peak=TWO_PI * 200e6,
                                               fwhm=3e-9, center=5e-9))
    times, rho = population_series_fixed(field, EM, (0.0, 60e-9), 6000)
    end = int(np.searchsorted(times, field.support()[1]))
    tail = rho[end:] / rho[end]
    assert np.allclose(tail, np.exp(-EM.gamma1 * (times[end:] - times[end])),
                       rtol=1e-14)
    ref = integrate(EM, field, BlochState(0.0), (0.0, 60e-9), 60e-9 / 6000)
    assert np.max(np.abs(rho - ref.rho_ee)) < 1e-6


def series_reference(field, emitter, t_span, n_steps):
    """The scalar RK4 loop that population_series_fixed replaced."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    times = np.linspace(t0, t1, n_steps + 1)
    h = (t1 - t0) / n_steps
    support = field.support(SUPPORT_CUTOFF)
    n_drive = 0 if support is None else min(
        n_steps, int(np.searchsorted(times, support[1])))
    om_nodes = np.asarray(field.rabi(times[:n_drive + 1]), dtype=complex)
    om_half = np.asarray(field.rabi(times[:n_drive] + 0.5 * h), dtype=complex)
    g1, g2, det = emitter.gamma1, emitter.gamma2, emitter.detuning
    rho_out = np.empty(n_steps + 1)
    rho_out[0] = 0.0
    y0 = y1 = y2 = 0.0

    def deriv(rho, x, w, om):
        inv = 2.0 * rho - 1.0
        return (-g1 * rho + (om.real * w - om.imag * x),
                -g2 * x - det * w + 0.5 * om.imag * inv,
                det * x - g2 * w - 0.5 * om.real * inv)

    for k in range(n_drive):
        oa, om_m, ob = om_nodes[k], om_half[k], om_nodes[k + 1]
        k1 = deriv(y0, y1, y2, oa)
        k2 = deriv(y0 + 0.5 * h * k1[0], y1 + 0.5 * h * k1[1],
                   y2 + 0.5 * h * k1[2], om_m)
        k3 = deriv(y0 + 0.5 * h * k2[0], y1 + 0.5 * h * k2[1],
                   y2 + 0.5 * h * k2[2], om_m)
        k4 = deriv(y0 + h * k3[0], y1 + h * k3[1], y2 + h * k3[2], ob)
        y0 += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y1 += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        y2 += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        rho_out[k + 1] = y0
    rho_out[n_drive + 1:] = y0 * np.exp(-g1 * (times[n_drive + 1:] - times[n_drive]))
    return times, rho_out


def c10_envelope():
    fwhm = 5.7 * math.pi / (TWO_PI * 370e6 * GAUSSIAN_AREA_FACTOR)
    grid = np.arange(0.0, 40e-9, 0.05e-9)
    return SampledEnvelope(grid, np.exp(-2.0 * math.log(2.0)
                                        * ((grid - 14e-9) / fwhm) ** 2))


@pytest.mark.parametrize("field, n_steps", [
    (DriveField.single(GaussianEnvelope(peak=TWO_PI * 250e6, fwhm=4e-9,
                                        center=12e-9)), 3000),
    (DriveField.single(c10_envelope().scaled(TWO_PI * 370e6)), 4001),
    (DriveField([
        FieldComponent(GaussianEnvelope(peak=TWO_PI * 200e6, fwhm=4e-9,
                                        center=12e-9), PhaseLaw(chirp=TWO_PI * 80e6)),
        FieldComponent(RectangularEnvelope(peak=TWO_PI * 60e6, duration=10e-9,
                                           center=15e-9),
                       PhaseLaw(offset=0.7, chirp=-TWO_PI * 30e6))]), 2500),
], ids=["detuned_gaussian", "c10_sampled", "chirped_two_component"])
def test_series_scan_matches_scalar_rk4(field, n_steps):
    times, rho = population_series_fixed(field, EM, (0.0, 60e-9), n_steps)
    ref_times, ref = series_reference(field, EM, (0.0, 60e-9), n_steps)
    assert np.array_equal(times, ref_times)
    assert np.max(np.abs(rho - ref)) < 1e-12


def test_series_fourth_order_vs_reference():
    field = DriveField.single(GaussianEnvelope(peak=TWO_PI * 300e6, fwhm=3e-9,
                                               center=10e-9))
    # Both solvers drop the drive outside its support, which moves rho_ee by
    # ~1e-7, so the window is the support itself.
    span = field.support()
    ref = integrate(EM, field, BlochState(0.0), span, (span[1] - span[0]) / 40,
                    rtol=1e-9)
    errors = []
    for n_steps in (200, 400, 800):
        _, rho = population_series_fixed(field, EM, span, n_steps)
        errors.append(np.max(np.abs(rho[::n_steps // 40] - ref.rho_ee)))
    assert errors[0] < 1e-3
    # Fourth order gives 16; 12 means order >= 3.5.
    assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0, errors


def test_absurd_sweep_fails_within_budget_before_allocating():
    big = np.linspace(-600.0, 600.0, 20_000) * TWO_PI * 1e6
    start = time.monotonic()
    with pytest.raises(StepFailure, match="budget"):
        sweep_2d(EM, CompositeFieldTemplate(center=200e-9), big,
                 np.linspace(1e8, 3e9, 20_000))
    assert time.monotonic() - start < 1.0


def test_absurd_scan_fails_before_drawing():
    assert BATCH_PIECES * 20_000 * 20_000 > MAX_BATCH_POINT_STEPS
    start = time.monotonic()
    with pytest.raises(StepFailure):
        averaged_power_scan(EM, PowerScanTemplate(), np.linspace(1e8, 3e9, 20_000),
                            JitterModel(0.07), 20_000, seed=1)
    assert time.monotonic() - start < 1.0


def test_cli_reports_work_budget_as_step_failure(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("sweep.det_points = 20000\nsweep.amp_points = 20000\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["sweep2d", "--config", str(cfg)]) == 4
    assert "ERROR kind=StepFailure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()
