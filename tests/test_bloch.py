import math

import numpy as np
import pytest

from rabisim import bloch
from rabisim.bloch import (BlochState, EmitterModel, integrate,
                           population_series_fixed, solve_emission)
from rabisim.pulses import (DriveField, GaussianEnvelope, PhaseLaw,
                            RectangularEnvelope)
from rabisim.selftest import analytic_rabi, rabi_flopping, steady_state

TWO_PI = 2.0 * math.pi


def end_and_integral(field, amplitudes, detunings, em, window,
                     time_scale=1.0):
    """rho_ee at the end of ``window`` and time_scale times its integral
    over it, read off the emission of two batch solves: a period as long as
    the window, whose tail (1 - s) W leaves e^{-Gamma1 (1 - s) W} of
    rho_end to decay, and a period a second longer, whose tail decays all
    of it."""
    length = window[1] - window[0]
    short, long = (solve_emission(field, amplitudes, detunings, em.gamma1,
                                  em.gamma2, window, length + extra,
                                  time_scale) for extra in (0.0, 1.0))
    rho_end = (long - short) / np.exp(-em.gamma1 * (1.0 - time_scale) * length)
    return rho_end, (long - rho_end) / em.gamma1


def constant_drive(omega, span):
    return DriveField.single(
        RectangularEnvelope(peak=omega, duration=span, center=0.5 * span))


def test_detuned_rabi_matches_generalized_formula():
    # prefactor 1/2 at Omega = Delta: every maximum hits exactly 0.5
    omega = TWO_PI * 100e6
    t_peak = math.pi / (omega * math.sqrt(2.0))
    assert analytic_rabi(omega, omega, t_peak) == pytest.approx(0.5)
    assert np.max(rabi_flopping(1.0)[1].rho_ee) == pytest.approx(0.5, abs=1e-6)


def test_analytic_rabi_edge_cases():
    assert analytic_rabi(TWO_PI * 125e6, 0.0, 4e-9) == pytest.approx(1.0)
    assert analytic_rabi(0.0, 1e9, 7e-9) == 0.0
    assert analytic_rabi(0.0, 0.0, 1e-9) == 0.0


def test_steady_state_examples():
    em = EmitterModel(gamma1=1e8)
    assert steady_state(em, 1e3 * em.gamma1).rho_ee == pytest.approx(0.5, abs=1e-3)
    om_sat = math.sqrt(em.gamma1 * em.gamma2)
    assert steady_state(em, om_sat).rho_ee == pytest.approx(0.25, rel=1e-12)


def test_steady_state_reached_from_any_initial_state():
    em = EmitterModel.from_lifetime(9.5e-9)
    omega = 2.3 * em.gamma1
    target = steady_state(em, omega).rho_ee
    for initial in (BlochState(0.0), BlochState(1.0), BlochState(0.5, 0.3 + 0.2j)):
        traj = integrate(em, constant_drive(omega, 200 * em.lifetime),
                         BlochState(initial.rho_ee, initial.coherence),
                         (0.0, 50 * em.lifetime), em.lifetime / 5)
        assert abs(traj.rho_ee[-1] - target) < 1e-6


def test_positivity_invariants_strong_drive():
    em = EmitterModel.from_lifetime(9.5e-9)
    env = GaussianEnvelope(peak=TWO_PI * 500e6, fwhm=4e-9, center=8e-9)
    traj = integrate(em, DriveField.single(env), BlochState(0.0),
                     (0.0, 40e-9), 0.02e-9)
    assert np.all(traj.rho_ee >= -1e-9)
    assert np.all(traj.rho_ee <= 1.0 + 1e-9)
    gap = traj.rho_ee * (1 - traj.rho_ee) - np.abs(traj.coherence) ** 2
    assert np.min(gap) > -1e-9


def test_detuning_symmetry_real_drive():
    env = GaussianEnvelope(peak=TWO_PI * 300e6, fwhm=3e-9, center=6e-9)
    fld = DriveField.single(env)
    out = []
    for sign in (+1.0, -1.0):
        em = EmitterModel.from_lifetime(9.5e-9, detuning=sign * TWO_PI * 120e6)
        out.append(integrate(em, fld, BlochState(0.0), (0.0, 30e-9), 0.05e-9))
    assert np.max(np.abs(out[0].rho_ee - out[1].rho_ee)) < 1e-9


def test_chirp_equals_detuning_shift():
    # A linear phase d(phi)/dt = c on the drive reproduces the dynamics of a
    # laser detuned by +c from the same envelope.
    em0 = EmitterModel.from_lifetime(9.5e-9, detuning=0.0)
    chirp = TWO_PI * 70e6
    env = GaussianEnvelope(peak=TWO_PI * 200e6, fwhm=4e-9, center=10e-9)
    chirped = DriveField.single(env, PhaseLaw(chirp=chirp))
    plain = DriveField.single(env)
    em_shift = EmitterModel.from_lifetime(9.5e-9, detuning=-chirp)
    t1 = integrate(em0, chirped, BlochState(0.0), (0.0, 40e-9), 0.05e-9)
    t2 = integrate(em_shift, plain, BlochState(0.0), (0.0, 40e-9), 0.05e-9)
    assert np.max(np.abs(t1.rho_ee - t2.rho_ee)) < 1e-8


def test_dense_output_independence_and_tolerance():
    em = EmitterModel.from_lifetime(9.5e-9)
    env = GaussianEnvelope(peak=TWO_PI * 370e6, fwhm=5e-9, center=10e-9)
    fld = DriveField.single(env)
    a = integrate(em, fld, BlochState(0.0), (0.0, 40e-9), 0.2e-9)
    b = integrate(em, fld, BlochState(0.0), (0.0, 40e-9), 0.1e-9)
    assert np.max(np.abs(a.rho_ee - b.rho_ee[::2])) < 1e-9
    c = integrate(em, fld, BlochState(0.0), (0.0, 40e-9), 0.2e-9, rtol=1e-10)
    assert np.max(np.abs(a.rho_ee - c.rho_ee)) < 1e-8


def test_state_and_model_validation():
    with pytest.raises(ValueError):
        BlochState(1.5)
    with pytest.raises(ValueError):
        BlochState(0.5, 0.9 + 0j)
    with pytest.raises(ValueError):
        EmitterModel(gamma1=-1.0)
    with pytest.raises(ValueError):
        EmitterModel(gamma1=1e8, gamma2=0.2e8)
    em = EmitterModel(gamma1=1e8)
    assert em.gamma2 == pytest.approx(0.5e8)
    assert em.pure_dephasing == pytest.approx(0.0)
    assert EmitterModel.from_lifetime(9.5e-9).lifetime == pytest.approx(9.5e-9)


def test_batch_integrator_matches_reference():
    rng = np.random.default_rng(6)
    for _ in range(3):
        em = EmitterModel.from_lifetime(9.5e-9,
                                        detuning=float(rng.uniform(-5e8, 5e8)))
        peak = float(rng.uniform(2e8, 3e9))
        fwhm = float(rng.uniform(1e-9, 6e-9))
        chirp = float(rng.uniform(-5e8, 5e8))
        env = GaussianEnvelope(peak=peak, fwhm=fwhm, center=0.0)
        fld = DriveField.single(env, PhaseLaw(chirp=chirp))
        sup = fld.support()
        rho_end, integral = end_and_integral(fld, 1.0, np.array([em.detuning]),
                                             em, sup)
        rho_end, integral = rho_end[0], integral[0]
        ref = integrate(em, fld, BlochState(0.0), sup,
                        (sup[1] - sup[0]) / 3000)
        assert abs(rho_end[0] - ref.rho_ee[-1]) < 1e-5
        ref_int = np.trapezoid(ref.rho_ee, ref.times)
        assert integral[0] == pytest.approx(ref_int, rel=1e-4, abs=1e-17)


def test_batch_rates_broadcast_bit_identically(monkeypatch):
    # Rates given as scalars and as arrays broadcast over the columns (one
    # value per column, all equal) give the same bits, schedule included,
    # and the work budget counts the field's two columns either way.
    works = []
    check = bloch.check_batch_work
    monkeypatch.setattr(bloch, "check_batch_work",
                        lambda work: (works.append(work), check(work)))
    em = EmitterModel.from_lifetime(9.5e-9, detuning=2.5e8,
                                    pure_dephasing=4e7)
    env = GaussianEnvelope(peak=1.0, fwhm=np.array([3e-9, 4e-9]), center=0.0)
    fld = DriveField.single(env, PhaseLaw(chirp=1e8))
    sup = fld.support()
    amps = np.array([4e8, 1.5e9, 3e9])
    ones = np.ones(2)
    runs = []
    for rates in ((em.detuning, em.gamma1, em.gamma2),
                  (em.detuning * ones, em.gamma1 * ones, em.gamma2 * ones),
                  (em.detuning, em.gamma1 * ones[:1], em.gamma2)):
        runs.append(solve_emission(fld, amps, *rates, sup, 1.4e-6))
    for other in runs[1:]:
        assert other.shape == (3, 2) and other.tobytes() == runs[0].tobytes()
    assert works == [4104] * 3


def test_population_series_fixed_matches_reference():
    em = EmitterModel.from_lifetime(9.5e-9, detuning=TWO_PI * 50e6)
    env = GaussianEnvelope(peak=TWO_PI * 370e6, fwhm=5e-9, center=10e-9)
    fld = DriveField.single(env)
    tt, rho = population_series_fixed(fld, em, (0.0, 40e-9), 8000)
    ref = integrate(em, fld, BlochState(0.0), (0.0, 40e-9), 40e-9 / 8000)
    assert np.max(np.abs(rho - ref.rho_ee)) < 1e-6


def test_trajectory_metadata():
    em = EmitterModel.from_lifetime(9.5e-9, detuning=1e7)
    fld = DriveField.single(GaussianEnvelope(peak=1e8, fwhm=2e-9, center=4e-9))
    traj = integrate(em, fld, BlochState(0.0), (0.0, 20e-9), 0.1e-9)
    assert traj.field_hash == fld.content_hash()
    assert traj.detuning == em.detuning
    assert isinstance(traj.final_state, BlochState)
    assert len(traj) == len(traj.times)
    degenerate = integrate(em, fld, BlochState(1.0), (3e-9, 3e-9), 1e-9)
    assert len(degenerate) == 1
    assert degenerate.rho_ee[0] == pytest.approx(1.0)


def test_integrate_is_exact_free_evolution_after_the_support():
    em = EmitterModel(gamma1=1.0 / 9.5e-9, gamma2=0.8 / 9.5e-9,
                      detuning=TWO_PI * 40e6)
    fld = DriveField.single(GaussianEnvelope(peak=TWO_PI * 200e6, fwhm=3e-9,
                                             center=8e-9))
    t_off = fld.support()[1]
    traj = integrate(em, fld, BlochState(0.0), (0.0, 60e-9), 0.05e-9)
    # The same DOP853 run, stopped at the end of the support.
    end = integrate(em, fld, BlochState(0.0), (0.0, t_off), t_off / 400)
    after = traj.times > t_off
    assert 0 < np.count_nonzero(after) < traj.times.size
    tau = traj.times[after] - t_off
    rho, coh = end.final_state.rho_ee, end.final_state.coherence
    assert np.allclose(traj.rho_ee[after], rho * np.exp(-em.gamma1 * tau),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(traj.coherence[after],
                       coh * np.exp((1j * em.detuning - em.gamma2) * tau),
                       rtol=1e-12, atol=0.0)
