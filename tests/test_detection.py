import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import solve_ivp

from rabisim import detection, rng
from rabisim.bloch import BlochState, EmitterModel, integrate
from rabisim.detection import (DetectorModel, _JumpEngine,
                               _emission_times_batch, _first_crossings,
                               _initial_amplitudes, _quad, _row_quads,
                               _tail_jump_time, emission_rate,
                               first_detected_density,
                               simulate_photon_stream, simulate_tcspc)
from rabisim.errors import StepFailure
from rabisim.pulses import (DriveField, FieldComponent, GAUSSIAN_AREA_FACTOR,
                            GaussianEnvelope, PhaseLaw, RectangularEnvelope,
                            scale_to_area)
from rabisim.selftest import jump_decay, steady_state

TWO_PI = 2.0 * math.pi
T1 = 9.5e-9
EM = EmitterModel.from_lifetime(T1)
ZERO_FIELD = DriveField.single(GaussianEnvelope(peak=0.0, fwhm=1e-9))


def fig2a_field(center=12e-9):
    env = GaussianEnvelope(peak=1.0, fwhm=5.116e-9, center=center)
    return scale_to_area(DriveField.single(env), 5.7 * math.pi)


def test_emission_rate_zero_and_constant():
    traj = integrate(EM, ZERO_FIELD, BlochState(0.0), (0.0, 20e-9), 1e-9)
    t, r = emission_rate(traj, EM)
    assert np.all(r == 0.0)
    # rho = 1/2 constant: rate = Gamma1/2
    gamma1 = TWO_PI * 17e6
    em = EmitterModel(gamma1=gamma1)
    half = traj.rho_ee * 0 + 0.5
    fake = type(traj)(times=traj.times, rho_ee=half, coherence=traj.coherence,
                      detuning=0.0, field_hash="x")
    _, r2 = emission_rate(fake, em)
    assert np.allclose(r2, math.pi * 17e6)


def test_emission_rate_free_decay_integral():
    # Oracle: integral of Gamma1 rho over [0, T] = (1 - exp(-Gamma1 T)) rho0.
    traj = integrate(EM, ZERO_FIELD, BlochState(1.0), (0.0, 30e-9), 0.01e-9)
    t, r = emission_rate(traj, EM)
    total = np.trapezoid(r, t)
    assert total == pytest.approx(-math.expm1(-EM.gamma1 * 30e-9), rel=1e-6)


def test_first_detected_low_efficiency_limit():
    traj = integrate(EM, fig2a_field(), BlochState(0.0), (0.0, 60e-9), 0.05e-9)
    t, r = emission_rate(traj, EM)
    eta = 1e-4
    f = first_detected_density(t, r, eta)
    mask = r > 1e-3 * r.max()
    assert np.max(np.abs(f[mask] / (eta * r[mask]) - 1.0)) < 1e-3


def test_first_detected_free_decay_closed_form():
    traj = integrate(EM, ZERO_FIELD, BlochState(1.0), (0.0, 80e-9), 0.02e-9)
    t, r = emission_rate(traj, EM)
    f = first_detected_density(t, r, 1.0)
    g = EM.gamma1
    expected = g * np.exp(-g * t) * np.exp(-(1.0 - np.exp(-g * t)))
    assert np.max(np.abs(f - expected)) < 1e-4 * np.max(expected)


def test_first_detected_integral_identity():
    traj = integrate(EM, fig2a_field(), BlochState(0.0), (0.0, 90e-9), 0.05e-9)
    t, r = emission_rate(traj, EM)
    mean_total = np.trapezoid(r, t)
    for eta in (0.02, 0.3, 1.0):
        f = first_detected_density(t, r, eta)
        integral = np.trapezoid(f, t)
        assert integral <= 1.0 + 1e-12
        assert integral == pytest.approx(-math.expm1(-eta * mean_total), rel=1e-4)


def test_stream_zero_field_ground_start_empty():
    times = simulate_photon_stream(EM, ZERO_FIELD, (0.0, 200e-9), seed=1)
    assert times.size == 0


def test_stream_zero_field_excited_start_single_exponential():
    _, pulses, times, _ = jump_decay()[1]
    assert pulses.size == 100_000  # exactly one emission each
    assert np.array_equal(np.sort(pulses), pulses)
    assert stats.kstest(times, "expon", args=(0.0, T1)).pvalue > 0.01


def test_stream_strong_drive_matches_steady_state_flux():
    omega = 5.0 * EM.gamma1
    duration = 60 * T1
    fld = DriveField.single(RectangularEnvelope(peak=omega, duration=duration,
                                                center=0.5 * duration))
    engine = _JumpEngine(EM, fld, 0.0, duration + 20 * T1)
    ids = np.arange(10_000, dtype=np.int64)
    _, pulses, times, _ = _emission_times_batch(engine, 3, ids)
    counts = np.bincount(pulses, minlength=ids.size)
    expected = EM.gamma1 * steady_state(EM, omega).rho_ee * duration
    sigma = np.std(counts) / math.sqrt(ids.size)
    assert abs(np.mean(counts) - expected) < 3.0 * sigma + 0.05 * expected


def test_stream_times_sorted_and_reexcitation_present():
    # A strong long pulse must produce multi-photon periods.
    times = []
    multi = 0
    for seed in range(50):
        omega = 4.0 * EM.gamma1
        fld = DriveField.single(RectangularEnvelope(peak=omega, duration=200e-9,
                                                    center=100e-9))
        t = simulate_photon_stream(EM, fld, (0.0, 400e-9), seed=seed)
        assert np.all(np.diff(t) > 0)
        multi += t.size > 1
    assert multi > 25


def test_tcspc_exponential_histogram_chi2():
    det = DetectorModel(efficiency=1.0, dead_time=0.0, timing_jitter_sigma=0.0,
                        rep_period=300e-9, bin_width=1e-9)
    hist = simulate_tcspc(EM, ZERO_FIELD, det, n_pulses=100_000, seed=99,
                          initial=BlochState(1.0))
    edges = hist.bin_edges
    prob = np.exp(-edges[:-1] / T1) - np.exp(-edges[1:] / T1)
    expected = hist.n_pulses * prob
    keep = expected > 8
    chi2 = np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep])
    p = stats.chi2.sf(chi2, int(np.sum(keep)))
    assert p > 0.01


def test_tcspc_histogram_proportional_to_population():
    det = DetectorModel(efficiency=0.02, dead_time=70e-9,
                        timing_jitter_sigma=50e-12, rep_period=1.4e-6,
                        bin_width=2e-9)
    fld = fig2a_field()
    hist = simulate_tcspc(EM, fld, det, n_pulses=200_000, seed=42)
    traj = integrate(EM, fld, BlochState(0.0), (0.0, 200e-9), 0.05e-9)
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (traj.rho_ee[1:] + traj.rho_ee[:-1]) * np.diff(traj.times))))
    rho_bin = np.diff(np.interp(hist.bin_edges, traj.times, cum))
    mask = hist.bin_centers < 150e-9
    corr = np.corrcoef(hist.counts[mask], rho_bin[mask])[0, 1]
    assert corr > 0.995


def test_tcspc_single_count_per_pulse_with_long_dead_time():
    # Dead time longer than the whole emission span (drive + many
    # lifetimes) but still far shorter than the repetition period, so it
    # cannot bleed into the next period.
    det = DetectorModel(efficiency=1.0, dead_time=500e-9,
                        timing_jitter_sigma=0.0, rep_period=1.4e-6,
                        bin_width=2e-9)
    omega = 4.0 * EM.gamma1
    fld = DriveField.single(RectangularEnvelope(peak=omega, duration=150e-9,
                                                center=75e-9))
    hist = simulate_tcspc(EM, fld, det, n_pulses=5000, seed=5)
    assert hist.total() <= hist.n_pulses
    # and detections equal pulses with >= 1 emission (efficiency 1)
    engine = _JumpEngine(EM, fld, 0.0, det.rep_period)
    pulses = _emission_times_batch(engine, 5, np.arange(5000, dtype=np.int64))[1]
    assert hist.total() == np.unique(pulses).size


def test_tcspc_monotone_in_efficiency():
    fld = fig2a_field()
    totals = []
    for eta in (0.01, 0.05, 0.2, 0.6, 1.0):
        det = DetectorModel(efficiency=eta, dead_time=70e-9,
                            timing_jitter_sigma=50e-12, rep_period=1.4e-6,
                            bin_width=2e-9)
        totals.append(simulate_tcspc(EM, fld, det, n_pulses=20_000,
                                     seed=11).total())
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_tcspc_seed_determinism_and_chunk_independence(monkeypatch):
    det = DetectorModel(efficiency=0.05, dead_time=70e-9,
                        timing_jitter_sigma=50e-12, rep_period=1.4e-6,
                        bin_width=1e-9)
    fld = fig2a_field()
    dephased = EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1)
    h1 = simulate_tcspc(EM, fld, det, n_pulses=150_000, seed=21)
    h2 = simulate_tcspc(EM, fld, det, n_pulses=150_000, seed=21)
    assert np.array_equal(h1.counts, h2.counts)
    d1 = simulate_tcspc(dephased, fld, det, n_pulses=150_000, seed=21)
    # Randomness is keyed by pulse index, so smaller chunks change nothing.
    monkeypatch.setattr(detection, "_TCSPC_CHUNK", 1 << 12)
    h3 = simulate_tcspc(EM, fld, det, n_pulses=150_000, seed=21)
    assert np.array_equal(h1.counts, h3.counts)
    # Thinning keys each emission by the ordinal its row carries through the
    # waves (dephasing jumps do not count) and into the tail; that ordinal
    # must not depend on the batch either.
    d3 = simulate_tcspc(dephased, fld, det, n_pulses=150_000, seed=21)
    assert np.array_equal(d1.counts, d3.counts)
    assert not np.array_equal(d1.counts, h1.counts)
    h4 = simulate_tcspc(EM, fld, det, n_pulses=150_000, seed=22)
    assert not np.array_equal(h1.counts, h4.counts)


def test_tcspc_dead_time_carries_across_periods():
    # Excited start, eta = 1: every period emits once near t = 0; with a dead
    # time longer than the period every other detection is blocked.
    det = DetectorModel(efficiency=1.0, dead_time=150e-9,
                        timing_jitter_sigma=0.0, rep_period=100e-9,
                        bin_width=1e-9)
    hist = simulate_tcspc(EM, ZERO_FIELD, det, n_pulses=4000, seed=7,
                          initial=BlochState(1.0))
    frac = hist.total() / hist.n_pulses
    assert 0.35 < frac < 0.65
    det0 = DetectorModel(efficiency=1.0, dead_time=0.0,
                         timing_jitter_sigma=0.0, rep_period=100e-9,
                         bin_width=1e-9)
    hist0 = simulate_tcspc(EM, ZERO_FIELD, det0, n_pulses=4000, seed=7,
                           initial=BlochState(1.0))
    assert hist0.total() > hist.total()


def test_negative_jitter_clamped_into_first_bin():
    # Emission exactly at trigger with huge jitter: negative arrivals land in
    # bin 0, never vanish.
    em_fast = EmitterModel.from_lifetime(0.2e-9)
    det = DetectorModel(efficiency=1.0, dead_time=0.0,
                        timing_jitter_sigma=5e-9, rep_period=200e-9,
                        bin_width=1e-9)
    hist = simulate_tcspc(em_fast, ZERO_FIELD, det, n_pulses=3000, seed=13,
                          initial=BlochState(1.0))
    assert hist.total() == 3000
    assert hist.counts[0] > 0


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, dead_time=-1e-9)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, bin_width=0.0)
    with pytest.raises(ValueError, match="no bins"):
        DetectorModel(efficiency=0.5, bin_width=2e-6, rep_period=1.4e-6)
    for name in ("dead_time", "timing_jitter_sigma", "bin_width", "rep_period"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                DetectorModel(efficiency=0.5, **{name: bad})
    with pytest.raises(ValueError):
        DetectorModel(efficiency=math.nan)
    det = DetectorModel(efficiency=0.5)
    assert det.n_bins() == 2800


def test_tcspc_rejects_overlong_drive():
    fld = DriveField.single(GaussianEnvelope(peak=1e8, fwhm=600e-9,
                                             center=900e-9))
    det = DetectorModel(efficiency=0.5, rep_period=1.4e-6)
    with pytest.raises(ValueError):
        simulate_tcspc(EM, fld, det, n_pulses=10, seed=1)


def test_stream_requires_pure_initial_state():
    with pytest.raises(ValueError):
        simulate_photon_stream(EM, ZERO_FIELD, (0.0, 50e-9), seed=1,
                               initial=BlochState(0.5, 0.0j))


def test_dephasing_tail_preserves_exponential_emission():
    # With no drive the dephasing jump operator is prop. to sigma_z: it keeps
    # the populations and scales every no-jump norm alike, so each excited
    # trajectory emits once, at the same Exp(T1) time whatever gamma_phi is.
    ids = np.arange(30_000, dtype=np.int64)
    runs = []
    for gamma2 in (0.5 / T1, 1.2 / T1, 2.5 / T1, 20.0 / T1):
        engine = _JumpEngine(EmitterModel(gamma1=1.0 / T1, gamma2=gamma2),
                             ZERO_FIELD, 0.0, 3e-6)
        runs.append(_emission_times_batch(engine, 23, ids, BlochState(1.0))[1:3])
    pulses, times = runs[0]
    assert np.array_equal(pulses, ids)
    for other_pulses, other_times in runs[1:]:
        assert np.array_equal(other_pulses, pulses)
        assert other_times.tobytes() == times.tobytes()
    assert stats.kstest(times, "expon", args=(0.0, T1)).pvalue > 0.01


def test_jump_engine_with_pure_dephasing_matches_master_equation():
    # Extra dephasing channel: jump-averaged population still follows the
    # master equation. The drive fills the first window; in the second it
    # lasts 2 T1 of 20 T1, so about a third of the emissions come from the
    # drive-free tail.
    em = EmitterModel(gamma1=1.0 / T1, gamma2=1.2 / T1, detuning=0.0)
    omega = 3.0 * em.gamma1
    window = 20 * T1
    for duration in (window, 2 * T1):
        fld = DriveField.single(RectangularEnvelope(
            peak=omega, duration=duration, center=0.5 * duration))
        engine = _JumpEngine(em, fld, 0.0, window)
        ids = np.arange(6000, dtype=np.int64)
        _, pulses, times, _ = _emission_times_batch(engine, 77, ids)
        counts = np.bincount(pulses, minlength=ids.size)
        traj = integrate(em, fld, BlochState(0.0), (0.0, window), T1 / 50)
        expected = em.gamma1 * np.trapezoid(traj.rho_ee, traj.times)
        sigma = np.std(counts) / math.sqrt(ids.size)
        assert abs(np.mean(counts) - expected) < 4.0 * sigma + 0.03 * expected


def cumulative_reference(emitter, field, times):
    """The sequential RK4 product loop the engine's prefix scan replaced."""
    h = times[1] - times[0]
    gphi = emitter.pure_dephasing

    def a_matrix(ts):
        om = np.asarray(field.rabi(ts), dtype=complex)
        a = np.empty((om.shape[0], 2, 2), dtype=complex)
        a[:, 0, 0] = -0.25 * gphi
        a[:, 0, 1] = -0.5j * om
        a[:, 1, 0] = -0.5j * np.conj(om)
        a[:, 1, 1] = -1j * emitter.detuning - 0.5 * emitter.gamma1 - 0.25 * gphi
        return a

    a0 = a_matrix(times[:-1])
    am = a_matrix(times[:-1] + 0.5 * h)
    a1 = a_matrix(times[1:])
    eye = np.eye(2, dtype=complex)[None, :, :]
    k1 = a0
    k2 = am @ (eye + 0.5 * h * k1)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    step = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    cum = np.empty((times.size, 2, 2), dtype=complex)
    cum[0] = np.eye(2)
    for k in range(times.size - 1):
        cum[k + 1] = step[k] @ cum[k]
    return cum


@pytest.mark.parametrize("emitter, field, t_limit, nodes", [
    (EmitterModel(gamma1=1.0 / T1, gamma2=1.3 / T1, detuning=TWO_PI * 60e6),
     DriveField([
         FieldComponent(GaussianEnvelope(peak=TWO_PI * 200e6, fwhm=4e-9,
                                         center=12e-9),
                        PhaseLaw(chirp=TWO_PI * 80e6)),
         FieldComponent(RectangularEnvelope(peak=TWO_PI * 60e6,
                                            duration=10e-9, center=15e-9),
                        PhaseLaw(offset=0.7, chirp=-TWO_PI * 30e6))]),
     200e-9, None),
    (EM, DriveField.single(RectangularEnvelope(peak=TWO_PI * 150e6,
                                               duration=570e-9,
                                               center=285e-9)),
     1.4e-6, 12_546),
], ids=["detuned_dephased_chirped", "rectangle_570ns"])
def test_engine_table_matches_sequential_product(emitter, field, t_limit, nodes):
    engine = _JumpEngine(emitter, field, 0.0, t_limit)
    if nodes is not None:
        assert engine.times.size == nodes
    ref = cumulative_reference(emitter, field, engine.times)
    err = np.max(np.abs(engine.cum - ref), axis=(1, 2))
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.max(err) <= 1e-13 * np.max(scale)
    # Per node the two products part by roundoff that grows with the node
    # count (2.4e-13 after 12,545 steps), well under n * eps.
    assert np.max(err / scale) <= 1e-12


def test_engine_table_converges_at_fourth_order(monkeypatch):
    # The c04 pulse, detuned and dephased: the table's last propagator
    # against DOP853 on psi' = A(t) psi over the same window. RK4 steps cut
    # the error 16x per halving; 2^3.5 leaves room for the rounded step
    # count.
    fwhm = 5.7 * math.pi / (TWO_PI * 370e6 * GAUSSIAN_AREA_FACTOR)
    field = DriveField.single(GaussianEnvelope(peak=TWO_PI * 370e6, fwhm=fwhm,
                                               center=12e-9))
    emitter = EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1,
                           detuning=TWO_PI * 40e6)
    errors = []
    for step in (0.2, 0.1, 0.05):
        monkeypatch.setattr(detection, "ENGINE_PHASE_STEP", step)
        engine = _JumpEngine(emitter, field, 0.0, 100e-9)

        def rhs(t, y):
            a = engine._generators(field, np.array([t]))[0]
            return (a @ y.reshape(2, 2)).ravel()

        ref = solve_ivp(rhs, (engine.t0, engine.times[-1]),
                        np.eye(2, dtype=complex).ravel(), method="DOP853",
                        rtol=1e-12, atol=1e-15).y[:, -1].reshape(2, 2)
        errors.append(np.max(np.abs(engine.cum[-1] - ref)))
    for coarse, fine in zip(errors, errors[1:]):
        if coarse > 1e-10:
            assert coarse / fine >= 2.0 ** 3.5


def test_tail_jump_time_without_dephasing_is_the_closed_form():
    gen = np.random.default_rng(8)
    cg2 = gen.uniform(0.0, 1.0, 2000)
    ce2 = 1.0 - cg2
    r = gen.uniform(0.0, 1.0, 2000)
    r[:3] = cg2[:3]  # a norm that ends exactly at r never crosses it
    never = r <= cg2 * (1.0 + 1e-15)
    assert 3 <= np.count_nonzero(never) < r.size
    old = np.full(r.size, np.inf)
    old[~never] = np.log(ce2[~never] / (r[~never] - cg2[~never])) / EM.gamma1
    old = np.maximum(old, 0.0)
    tau = _tail_jump_time(cg2, ce2, r, EM.gamma1)
    assert np.array_equal(tau, old)
    assert np.all(np.isinf(tau[never]))
    norm = cg2[~never] + ce2[~never] * np.exp(-EM.gamma1 * tau[~never])
    assert np.allclose(norm, r[~never], rtol=1e-9)


@pytest.mark.parametrize("field", [
    ZERO_FIELD,
    DriveField.single(GaussianEnvelope(peak=1e9, fwhm=5e-9, center=3e-6)),
], ids=["zero_drive", "drive_after_window"])
def test_undriven_engine_is_one_node(field):
    engine = _JumpEngine(EM, field, 0.0, 2e-6)
    assert engine.times.tolist() == [0.0]
    assert engine.last_node == 0
    assert np.array_equal(engine.cum, np.eye(2)[None])
    assert np.array_equal(engine.ground_restart, [[1.0, 0.0]])


def reference_emissions(engine, seed, pulse_ids, initial):
    """One trajectory at a time, locating each jump node by the per-row
    bisection on |C_m w|^2 that the engine's Gram-table search replaced."""
    n_last = engine.last_node
    gamma1, gphi = engine.gamma1, engine.gphi

    def at(m, w):
        return engine.state_at(np.array([m]), w[None])[0]

    def norm(m, w):
        psi = at(m, w)
        return np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2

    def grid_coords(m, psi):
        return engine.to_grid_coords(np.array([m]), psi[None])[0]

    out_pulse, out_time = [], []
    for pid in pulse_ids:
        draw = 0

        def uniform():
            return rng.uniform(seed, rng.STREAM_JUMP, pid, draw)

        r = uniform()
        node, w = 0, grid_coords(0, _initial_amplitudes(initial))
        tail_t, amp = engine.t0, _initial_amplitudes(initial)
        while n_last > 0:
            if norm(n_last, w) > r:
                tail_t, amp = engine.times[-1], at(n_last, w)
                break
            lo, hi = node, n_last
            while lo < hi:
                mid = (lo + hi) // 2
                if norm(mid, w) <= r:
                    hi = mid
                else:
                    lo = mid + 1
            n1, n2 = norm(hi - 1, w), norm(hi, w)
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.log(n1 / max(r, 1e-300)) / np.log(
                    max(n1 / max(n2, 1e-300), 1.0 + 1e-15))
            frac = np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
            t = engine.times[hi - 1] + frac * (engine.times[hi]
                                              - engine.times[hi - 1])
            psi = at(hi, w)
            emit = True
            if gphi > 0.0:
                draw += 1
                w_emit = gamma1 * np.abs(psi[1]) ** 2
                w_deph = 0.5 * gphi * (np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2)
                emit = uniform() * (w_emit + w_deph) < w_emit
            if emit:
                out_pulse.append(pid)
                out_time.append(t)
                psi = np.array([1.0 + 0j, 0j])
            else:
                psi = np.array([psi[0], -psi[1]])
                psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
            node, w = hi, grid_coords(hi, psi)
            draw += 1
            r = uniform()
        # Drive-free tail: the one remaining emission, in closed form.
        cg2, ce2 = np.abs(amp[0]) ** 2, np.abs(amp[1]) ** 2
        tau = _tail_jump_time(np.array([cg2]), np.array([ce2]),
                              np.array([r]), gamma1)[0]
        if tail_t + tau <= engine.t_limit:
            out_pulse.append(pid)
            out_time.append(tail_t + tau)
    return np.array(out_pulse, dtype=np.int64), np.array(out_time)


GAUSS_7PI = fig2a_field(center=10e-9)
RECT_PLUS_GAUSS = DriveField([
    FieldComponent(RectangularEnvelope(peak=3.0 * EM.gamma1, duration=40e-9,
                                       center=25e-9)),
    FieldComponent(GaussianEnvelope(peak=TWO_PI * 150e6, fwhm=3e-9,
                                    center=30e-9), PhaseLaw(offset=0.4))])


@pytest.mark.parametrize("gamma2, detuning", [
    (0.5 / T1, 0.0), (1.2 / T1, 0.0), (1.2 / T1, 2.0 / T1)],
    ids=["gphi0", "dephased", "dephased_detuned"])
@pytest.mark.parametrize("initial", [
    BlochState(0.0), BlochState(0.3, math.sqrt(0.21) * complex(math.cos(0.8),
                                                               math.sin(0.8)))],
    ids=["ground", "superposition"])
@pytest.mark.parametrize("field", [GAUSS_7PI, RECT_PLUS_GAUSS],
                         ids=["gaussian", "rect_plus_gaussian"])
def test_gram_search_matches_per_row_bisection(gamma2, detuning, initial, field):
    # The shared first-wave curve and the Gram-table bisection evaluate
    # |C_m w|^2 in another order than the per-row reference, so grid jump
    # times may move by roundoff; nodes, and hence pulse ids, must not.
    emitter = EmitterModel(gamma1=1.0 / T1, gamma2=gamma2, detuning=detuning)
    engine = _JumpEngine(emitter, field, 0.0, 80e-9)
    ids = np.arange(1000, 1250, dtype=np.int64)
    _, pulses, times, _ = _emission_times_batch(engine, 31, ids, initial)
    ref_pulses, ref_times = reference_emissions(engine, 31, ids, initial)
    assert np.array_equal(pulses, ref_pulses)
    assert np.array_equal(np.bincount(pulses - 1000, minlength=ids.size),
                          np.bincount(ref_pulses - 1000, minlength=ids.size))
    assert np.max(np.bincount(pulses - 1000)) >= 3  # restarts are exercised
    step = engine.times[1] - engine.times[0]
    grid = ref_times <= engine.times[-1]
    assert np.max(np.abs(times - ref_times)[grid]) <= 1e-6 * step
    # Drive-free tail jumps come from _tail_jump_time in both, from grid-end
    # states that the batch and the reference form in another order.
    assert np.max(np.abs(times - ref_times)[~grid]) <= 1e-15


def test_dephased_emission_times_do_not_depend_on_the_batch():
    # With pure dephasing a row's grid jumps and its closed-form tail jump
    # depend on its own draws alone, not on the other rows of its batch.
    emitter = EmitterModel(gamma1=1.0 / T1, gamma2=1.2 / T1)
    fld = DriveField.single(RectangularEnvelope(peak=3.0 * EM.gamma1,
                                                duration=100e-9, center=50e-9))
    engine = _JumpEngine(emitter, fld, 0.0, 300e-9)
    alone = _emission_times_batch(engine, 3, np.arange(100, dtype=np.int64))[1:3]
    _, pulses, times, _ = _emission_times_batch(engine, 3,
                                                np.arange(2000, dtype=np.int64))
    inside = pulses < 100
    assert np.count_nonzero(alone[1] > engine.times[-1]) >= 40  # tail jumps
    assert np.array_equal(alone[0], pulses[inside])
    assert alone[1].tobytes() == times[inside].tobytes()


def test_gram_table_gives_the_propagated_norm():
    engine = _JumpEngine(EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1),
                         RECT_PLUS_GAUSS, 0.0, 150e-9)
    gen = np.random.default_rng(4)
    nodes = gen.integers(0, engine.times.size, 500)
    w = gen.normal(size=(500, 2)) + 1j * gen.normal(size=(500, 2))
    psi = engine.state_at(nodes, w)
    exact = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    assert np.allclose(engine.survival(nodes, _quad(w)), exact,
                       rtol=1e-12, atol=0.0)


def test_quad_forms_match_the_propagated_state():
    # The wave loop carries q = _quad(w) alone: grid-end populations, the
    # excited part of |C_m w|^2 and dephasing restarts are read off q.
    engine = _JumpEngine(EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1,
                                      detuning=2.0 / T1),
                         RECT_PLUS_GAUSS, 0.0, 150e-9)
    gen = np.random.default_rng(5)
    nodes = gen.integers(0, engine.times.size, 500)
    w = gen.normal(size=(500, 2)) + 1j * gen.normal(size=(500, 2))
    q = _quad(w)
    end = engine.state_at(np.full(500, engine.last_node), w)
    assert np.allclose(q @ engine.end_populations, np.abs(end) ** 2,
                       rtol=1e-12, atol=0.0)
    psi = engine.state_at(nodes, w)
    excited = np.einsum("ij,ij->i", _row_quads(engine.cum[nodes])[:, 1], q)
    assert np.allclose(excited, np.abs(psi[:, 1]) ** 2, rtol=1e-12, atol=0.0)
    flipped = psi * [1.0, -1.0] / np.linalg.norm(psi, axis=1)[:, None]
    assert np.allclose(engine.dephased(nodes, q),
                       _quad(engine.to_grid_coords(nodes, flipped)),
                       rtol=1e-12, atol=0.0)


def test_wave_limit_holds_on_the_drive_grid(monkeypatch):
    # The re-exciting rectangle below makes >= 5 grid jumps in some pulse.
    emitter = EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1)
    fld = DriveField.single(RectangularEnvelope(
        peak=4.0 * EM.gamma1, duration=150e-9, center=75e-9))
    engine = _JumpEngine(emitter, fld, 0.0, 400e-9)
    monkeypatch.setattr(detection, "_WAVE_LIMIT", 3)
    with pytest.raises(StepFailure, match="wave limit on the drive grid"):
        _emission_times_batch(engine, 9, np.arange(3000, dtype=np.int64))


def test_emission_output_is_pulse_major_and_time_ascending():
    # The batch is ordered by a stable sort on pulse id alone, which is
    # right only because every wave appends a pulse's emissions after its
    # earlier ones; pin that on a re-exciting, dephased drive.
    emitter = EmitterModel(gamma1=1.0 / T1, gamma2=1.4 / T1)
    fld = DriveField.single(RectangularEnvelope(peak=4.0 * EM.gamma1,
                                                duration=150e-9, center=75e-9))
    engine = _JumpEngine(emitter, fld, 0.0, 400e-9)
    _, pulses, times, _ = _emission_times_batch(engine, 9, np.arange(3000,
                                                                     dtype=np.int64))
    assert np.max(np.bincount(pulses)) >= 5
    assert np.any(times > engine.times[-1])  # tail emissions are present
    order = np.lexsort((times, pulses))
    assert np.array_equal(order, np.arange(pulses.size))


def test_first_draw_at_the_grid_end_survival(monkeypatch):
    # First draws within a few ulps of the survival at the last node sit on
    # the edge of the grid-end test: a row whose survival falls to r on the
    # grid must find its jump node there, one that outlives it must not.
    engine = _JumpEngine(EM, GAUSS_7PI, 0.0, 80e-9)
    w0 = engine.to_grid_coords(np.zeros(1, dtype=np.int64),
                               _initial_amplitudes(BlochState(0.0))[None])
    s_end = engine.survival(np.array([engine.last_node]), _quad(w0))[0]
    edge = s_end + np.arange(-4, 5) * np.spacing(s_end)
    true_uniform = rng.uniform

    def uniform(seed, stream, counter, draw):
        u = true_uniform(seed, stream, counter, draw)
        return np.where(np.asarray(draw) == 0,
                        edge[np.asarray(counter) % edge.size], u)

    monkeypatch.setattr(rng, "uniform", uniform)
    ids = np.arange(9 * 40, dtype=np.int64)
    _, pulses, times, _ = _emission_times_batch(engine, 5, ids)
    assert np.all(np.isfinite(times))
    first = np.unique(pulses, return_index=True)
    first_time = dict(zip(first[0], times[first[1]]))
    to_tail = ids[ids % edge.size <= 2]  # r < s_end by 2 ulps or more
    on_grid = ids[ids % edge.size >= 4]
    assert all(first_time.get(p, np.inf) > engine.times[-1] for p in to_tail)
    assert all(first_time[p] <= engine.times[-1] for p in on_grid)


SUPERPOSITION = BlochState(0.3, math.sqrt(0.21) * complex(math.cos(0.8),
                                                          math.sin(0.8)))
RE_EXCITING = DriveField.single(RectangularEnvelope(
    peak=4.0 * EM.gamma1, duration=150e-9, center=75e-9))


@pytest.mark.parametrize("gamma2", [0.5 / T1, 1.4 / T1], ids=["gphi0", "dephased"])
@pytest.mark.parametrize("initial", [BlochState(0.0), SUPERPOSITION],
                         ids=["ground", "superposition"])
@pytest.mark.parametrize("field, t_limit", [(GAUSS_7PI, 80e-9),
                                            (RE_EXCITING, 400e-9)],
                         ids=["gaussian", "rectangle"])
def test_thinning_at_emission_equals_thinning_afterwards(gamma2, initial, field,
                                                         t_limit):
    # Each emission draws its thinning uniform at (pulse, ordinal) as it is
    # placed; that must keep exactly what a pass over the full pulse-major
    # emission list keeps, grid and tail emissions alike.
    engine = _JumpEngine(EmitterModel(gamma1=1.0 / T1, gamma2=gamma2), field,
                         0.0, t_limit)
    ids = np.arange(500, 2500, dtype=np.int64)
    emitted, pulses, times, ordinals = _emission_times_batch(engine, 13, ids,
                                                             initial)
    assert np.array_equal(np.sort(emitted), pulses)
    assert np.array_equal(ordinals,
                          np.arange(pulses.size) - np.searchsorted(pulses, pulses))
    assert np.max(ordinals) >= 2
    assert np.any(times > engine.times[-1]) and np.any(times <= engine.times[-1])
    keep = rng.uniform(13, rng.STREAM_THIN, pulses, ordinals) < 0.3
    thinned = _emission_times_batch(engine, 13, ids, initial, 0.3)
    # The first result counts every emission (bench's detection.emitted).
    assert thinned[0].size == pulses.size
    assert np.array_equal(thinned[1], pulses[keep])
    assert thinned[2].tobytes() == times[keep].tobytes()
    assert np.array_equal(thinned[3], ordinals[keep])


# Excited by 1e-12 and driven 150 ns later: before the pulse the survival
# curve decays onto a flat run just below 1, where roundoff makes it step up
# and down by an ulp.
NEAR_GROUND = BlochState(1e-12, complex(math.sqrt(1e-12 * (1.0 - 1e-12)), 0.0))


@pytest.mark.parametrize("field, initial, t_limit", [
    (GAUSS_7PI, BlochState(0.0), 80e-9),
    (fig2a_field(center=150e-9), NEAR_GROUND, 250e-9)],
    ids=["gaussian", "flat_run"])
def test_sorted_first_wave_search_is_exact_at_ties(monkeypatch, field, initial,
                                                   t_limit):
    # Draw-0 thresholds on survival-curve values, one ulp either side of
    # them, and on a flat run of the curve: searching the sorted thresholds
    # must give each row the first node where the curve falls to its r.
    engine = _JumpEngine(EM, field, 0.0, t_limit)
    w0 = engine.to_grid_coords(np.zeros(1, dtype=np.int64),
                               _initial_amplitudes(initial)[None])
    curve = engine.gram @ _quad(w0)[0]
    monotone = bool(np.all(np.diff(curve) <= 0.0))
    flat = np.flatnonzero(np.diff(curve) == 0.0)
    if initial is NEAR_GROUND:
        assert not monotone and flat.size > 1000
        on = np.unique(curve[flat])
    else:
        assert monotone
        on = curve[np.linspace(1, engine.last_node, 15).astype(int)]
    edge = np.concatenate((on, np.nextafter(on, 2.0), np.nextafter(on, 0.0)))
    edge = edge[edge < curve[0]]  # r >= curve[0] would jump at node 0
    true_uniform = rng.uniform

    def uniform(seed, stream, counter, draw):
        u = true_uniform(seed, stream, counter, draw)
        return np.where(np.asarray(draw) == 0,
                        edge[np.asarray(counter) % edge.size], u)

    searches = []
    search = detection._first_crossings

    def spy(curve, r):
        searches.append((r, search(curve, r)))
        return searches[-1][1]

    monkeypatch.setattr(rng, "uniform", uniform)
    monkeypatch.setattr(detection, "_first_crossings", spy)
    ids = np.arange(3 * edge.size, dtype=np.int64)
    pulses = _emission_times_batch(engine, 5, ids, initial)[1]
    (r, nodes), = searches
    assert r.size >= 2 * edge.size
    first = np.array([np.flatnonzero(curve <= x)[0] for x in r])
    assert np.array_equal(nodes, first)
    if monotone:
        assert np.array_equal(nodes, np.searchsorted(-curve, -r))
    ref_pulses, _ = reference_emissions(engine, 5, ids, initial)
    assert np.array_equal(pulses, ref_pulses)


def test_first_crossings_read_the_running_minimum():
    # Roundoff can make the shared survival curve step up by an ulp. A binary
    # search over such a curve returns whichever crossing its probes meet,
    # and numpy's hints from the previous needle make that depend on the
    # other thresholds; on the running minimum every row gets its first one.
    gen = np.random.default_rng(3)
    curve = np.sort(gen.uniform(0.2, 1.0, 4000))[::-1].copy()
    bumps = gen.integers(1, curve.size, 300)
    curve[bumps] = curve[bumps - 1] + np.spacing(curve[bumps - 1])
    r = gen.permutation(np.concatenate((curve[bumps], curve[bumps - 1],
                                        gen.uniform(curve[-1], 1.0, 3000))))
    first = np.array([np.flatnonzero(curve <= x)[0] for x in r])
    assert not np.array_equal(np.searchsorted(-curve, -r), first)
    assert np.array_equal(_first_crossings(curve, r), first)
