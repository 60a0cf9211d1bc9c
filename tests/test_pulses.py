import math
import tracemalloc

import numpy as np
import pytest
import scipy.constants
from hypothesis import assume, given, settings, strategies as st

from rabisim import pulses
from rabisim.bloch import window_pieces
from rabisim.errors import NonConvergedQuadrature, UnreachableArea
from rabisim.pulses import (DriveField, FieldComponent, GaussianEnvelope,
                            GAUSSIAN_AREA_FACTOR, PhaseLaw,
                            RectangularEnvelope, SampledEnvelope,
                            photons_per_pulse, pulse_area, scale_to_area)

TWO_PI = 2.0 * math.pi


def rect_pi_field(center=2e-9):
    return DriveField.single(
        RectangularEnvelope(peak=TWO_PI * 125e6, duration=4e-9, center=center))


def test_si_constants_equal_scipys_bit_for_bit():
    assert pulses.SPEED_OF_LIGHT == scipy.constants.c
    assert pulses.PLANCK == scipy.constants.h


def test_eval_rabi_rectangular_inside_and_outside():
    f = rect_pi_field()
    assert f.rabi(1e-9) == pytest.approx(TWO_PI * 125e6)
    assert f.rabi(1e-9).imag == 0.0
    assert f.rabi(10e-9) == 0.0


def test_eval_rabi_gaussian_peak_at_center():
    env = GaussianEnvelope(peak=3.3e8, fwhm=2e-9, center=5e-9)
    assert DriveField.single(env).rabi(5e-9) == pytest.approx(3.3e8)


def test_eval_rabi_sampled_outside_grid_is_zero():
    env = SampledEnvelope(np.linspace(0, 1e-9, 11), np.full(11, 1e8))
    f = DriveField.single(env)
    assert f.rabi(-1e-10) == 0.0
    assert f.rabi(2e-9) == 0.0


def test_eval_rabi_sums_components_with_phases():
    env = RectangularEnvelope(peak=1e8, duration=1e-9, center=0.0)
    f = DriveField([
        FieldComponent(env, PhaseLaw(offset=0.0)),
        FieldComponent(env, PhaseLaw(offset=math.pi / 2)),
    ])
    val = f.rabi(0.0)
    assert val == pytest.approx(1e8 + 1e8 * 1j)


def test_pulse_area_rectangular_pi():
    assert pulse_area(rect_pi_field()) == pytest.approx(math.pi, rel=1e-8)


def test_pulse_area_detuning_only():
    f = DriveField.single(GaussianEnvelope(peak=0.0, fwhm=1e-9))
    area = pulse_area(f, detuning=TWO_PI * 125e6, window=(0.0, 4e-9))
    assert area == pytest.approx(math.pi, rel=1e-12)


def test_pulse_area_gaussian_vs_trapezoid_oracle():
    # Independent oracle: brute-force trapezoid of the envelope at 1e5 points.
    peak, fwhm = 9.4e8, 3.1e-9
    env = GaussianEnvelope(peak=peak, fwhm=fwhm, center=0.0)
    t = np.linspace(-12 * fwhm, 12 * fwhm, 100_001)
    oracle = np.trapezoid(env.value(t), t)
    area = pulse_area(DriveField.single(env))
    assert area == pytest.approx(oracle, rel=1e-6)
    assert area == pytest.approx(peak * fwhm * GAUSSIAN_AREA_FACTOR, rel=1e-7)


def test_pulse_area_raises_when_depth_exhausted():
    f = DriveField.single(GaussianEnvelope(peak=1e9, fwhm=1e-9))
    with pytest.raises(NonConvergedQuadrature):
        pulse_area(f, max_depth=1)


def gaussian_samples(n=401, peak=1.25e9, fwhm=4e-9):
    t = np.linspace(-10e-9, 10e-9, n)
    return SampledEnvelope(t, peak * np.exp(-2.0 * math.log(2.0) * (t / fwhm) ** 2))


def test_sampled_area_cuts_at_every_knot():
    # |Omega| is linear between knots, so the trapezoid rule is exact; a rule
    # that straddles the knots misses it by ~2e-7.
    env = gaussian_samples()
    field = DriveField.single(env, PhaseLaw(chirp=TWO_PI * 50e6))
    assert np.array_equal(field.kinks(), env.times)
    assert field.breakpoints() == (env.times[0], env.times[-1])
    exact = np.trapezoid(env.amplitudes, env.times)
    assert pulse_area(field) == pytest.approx(exact, rel=1e-12)


def test_sampled_area_heap_stays_bounded():
    # The nodes of a pass are evaluated a chunk of pieces at a time: one
    # array of all of them would take about 750 B per knot, 75 MB here.
    env = gaussian_samples(n=100_000)
    tracemalloc.start()
    try:
        area = pulse_area(DriveField.single(env))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert area == pytest.approx(np.trapezoid(env.amplitudes, env.times),
                                 rel=1e-12)
    assert peak < 16e6


def test_area_closed_forms_to_1e_10():
    det = TWO_PI * 80e6
    rect = RectangularEnvelope(peak=TWO_PI * 100e6, duration=7e-9, center=1e-9)
    assert pulse_area(DriveField.single(rect), det) == pytest.approx(
        math.hypot(det, rect.peak) * rect.duration, rel=1e-10)
    gauss = GaussianEnvelope(peak=9.4e8, fwhm=3.1e-9, center=2e-9)
    assert pulse_area(DriveField.single(gauss)) == pytest.approx(
        gauss.peak * gauss.fwhm * GAUSSIAN_AREA_FACTOR, rel=1e-10)


def test_detuned_sampled_area_meets_rel_tol():
    # Reference: 8-node Gauss-Legendre on 16 equal pieces of every knot
    # interval, on which sqrt(det^2 + |Omega|^2) is smooth.
    env = gaussian_samples(n=201)
    det = TWO_PI * 60e6
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(env.times[0], env.times[-1], 16 * (env.times.size - 1) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = edges[:-1, None] + half * (nodes + 1.0)
    ref = float(np.sum(half * weights * np.sqrt(det ** 2 + env.value(t) ** 2)))
    window = (env.times[0], env.times[-1])
    for rel_tol in (1e-6, 1e-8, 1e-10):
        area = pulse_area(DriveField.single(env), det, window, rel_tol=rel_tol)
        assert area == pytest.approx(ref, rel=rel_tol)


def test_scale_to_area_hits_target():
    # At zero detuning the area is linear in the scale: one division.
    target = 5.7 * math.pi
    for env in (GaussianEnvelope(peak=1.0, fwhm=4e-9),
                RectangularEnvelope(peak=1.0, duration=4e-9)):
        scaled = scale_to_area(DriveField.single(env), target)
        assert pulse_area(scaled) == pytest.approx(target, rel=1e-12)
    env = gaussian_samples()
    det = TWO_PI * 40e6
    window = (-10e-9, 10e-9)
    for field in (DriveField.single(env), DriveField.single(env.scaled(1e-3))):
        scaled = scale_to_area(field, target, det, window)
        assert pulse_area(scaled, det, window) == pytest.approx(target, rel=1e-6)


def test_scale_to_area_rectangular_inversion():
    f = DriveField.single(RectangularEnvelope(peak=1.0, duration=4e-9, center=0.0))
    scaled = scale_to_area(f, math.pi)
    assert scaled.components[0].envelope.peak == pytest.approx(TWO_PI * 125e6,
                                                               rel=1e-6)


def test_scale_to_area_fixed_point():
    f = DriveField.single(GaussianEnvelope(peak=7e8, fwhm=2.5e-9))
    target = pulse_area(f)
    scaled = scale_to_area(f, target)
    assert scaled.components[0].envelope.peak == pytest.approx(7e8, rel=1e-6)


def test_scale_to_area_gaussian_closed_form_inversion():
    fwhm = 4e-9
    target = 5.7 * math.pi
    f = DriveField.single(GaussianEnvelope(peak=1.0, fwhm=fwhm))
    scaled = scale_to_area(f, target)
    expected_peak = target / (fwhm * GAUSSIAN_AREA_FACTOR)
    assert scaled.components[0].envelope.peak == pytest.approx(expected_peak,
                                                               rel=1e-6)


def test_scale_to_area_unreachable_below_detuning_floor():
    f = DriveField.single(RectangularEnvelope(peak=1e8, duration=4e-9, center=0.0))
    det = TWO_PI * 250e6
    floor = det * 4e-9
    with pytest.raises(UnreachableArea):
        scale_to_area(f, 0.5 * floor, detuning=det, window=(-2e-9, 2e-9))


def test_photons_per_pulse_scalings():
    base = photons_per_pulse(1e-10, 700e3, 589e-9)
    assert photons_per_pulse(2e-10, 700e3, 589e-9) == pytest.approx(2 * base)
    assert photons_per_pulse(1e-10, 1400e3, 589e-9) == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        photons_per_pulse(0.0, 700e3, 589e-9)


def random_field(rng):
    kind = rng.integers(3)
    peak = float(rng.uniform(1e7, 3e9))
    center = float(rng.uniform(-2e-9, 2e-9))
    if kind == 0:
        env = RectangularEnvelope(peak=peak, duration=float(rng.uniform(0.5e-9, 6e-9)),
                                  center=center)
    elif kind == 1:
        env = GaussianEnvelope(peak=peak, fwhm=float(rng.uniform(0.5e-9, 6e-9)),
                               center=center)
    else:
        t = np.linspace(-3e-9, 3e-9, 301)
        env = SampledEnvelope(t, peak * rng.random(301))
    phase = PhaseLaw(offset=float(rng.uniform(-3, 3)),
                     chirp=float(rng.uniform(-5e8, 5e8)))
    return DriveField.single(env, phase)


def test_area_homogeneous_in_amplitude():
    rng = np.random.default_rng(1)
    for _ in range(8):
        f = random_field(rng)
        s = float(rng.uniform(0.1, 5.0))
        a1 = pulse_area(f, window=(-12e-9, 12e-9))
        a2 = pulse_area(f.scaled(s), window=(-12e-9, 12e-9))
        assert a2 == pytest.approx(s * a1, rel=1e-8)


def test_area_lower_bounds():
    rng = np.random.default_rng(2)
    for _ in range(8):
        f = random_field(rng)
        det = float(rng.uniform(-3e9, 3e9))
        w = (-10e-9, 10e-9)
        a = pulse_area(f, detuning=det, window=w)
        assert a >= pulse_area(f, window=w) * (1 - 1e-9)
        assert a >= abs(det) * (w[1] - w[0]) * (1 - 1e-9)


def test_single_component_no_phase_is_real_nonnegative():
    rng = np.random.default_rng(3)
    env = GaussianEnvelope(peak=2e9, fwhm=3e-9)
    f = DriveField.single(env)
    t = rng.uniform(-10e-9, 10e-9, 200)
    vals = f.rabi(t)
    assert np.all(vals.imag == 0)
    assert np.all(vals.real >= 0)


def test_sampled_roundtrip_interpolation_order():
    # Halving the sample spacing should quarter the max interpolation error.
    env = GaussianEnvelope(peak=1e9, fwhm=4e-9)
    probe = np.linspace(-8e-9, 8e-9, 4001)
    errs = []
    for n in (201, 401):
        grid = np.linspace(-10e-9, 10e-9, n)
        samp = SampledEnvelope(grid, env.value(grid))
        errs.append(np.max(np.abs(samp.value(probe) - env.value(probe))))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5


def test_envelope_validation_errors():
    with pytest.raises(ValueError):
        RectangularEnvelope(peak=-1.0, duration=1e-9)
    with pytest.raises(ValueError):
        GaussianEnvelope(peak=1.0, fwhm=0.0)
    with pytest.raises(ValueError):
        SampledEnvelope(np.array([0.0, 1.0, 1.5]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        SampledEnvelope(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        SampledEnvelope(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        DriveField([])
    with pytest.raises(ValueError):
        PhaseLaw(offset=math.inf)


def test_drive_field_hash_stable_and_sensitive():
    f1 = rect_pi_field()
    f2 = rect_pi_field()
    f3 = rect_pi_field(center=3e-9)
    assert f1.content_hash() == f2.content_hash()
    assert f1.content_hash() != f3.content_hash()
    # Two sampled pulses with one grid and one maximum differ in their
    # samples, which the hash reads.
    t = np.linspace(-5e-9, 5e-9, 11)
    ramp, bump = np.linspace(0.0, 1.0, 11), np.exp(-(t / 2e-9) ** 2)
    assert repr(SampledEnvelope(t, ramp)) == repr(SampledEnvelope(t, bump))
    hashes = [DriveField.single(SampledEnvelope(t, a)).content_hash()
              for a in (ramp, bump, ramp)]
    assert hashes[0] != hashes[1] and hashes[0] == hashes[2]


def test_max_on_bounds_every_envelope():
    envelopes = [
        GaussianEnvelope(peak=2.0, fwhm=3e-9, center=1e-9),
        RectangularEnvelope(peak=1.5, duration=4e-9, center=-2e-9),
        SampledEnvelope(np.linspace(-5e-9, 5e-9, 41),
                        np.abs(np.sin(np.linspace(0.0, 7.0, 41)))),
    ]
    spans = [(-20e-9, -10e-9), (-6e-9, -4.1e-9), (-3e-9, 2e-9),
             (1.3e-9, 4.7e-9), (4.5e-9, 9e-9), (-4e-9, -4e-9 + 1e-12)]
    for env in envelopes:
        for a, b in spans:
            dense = float(np.max(env.value(np.linspace(a, b, 20001)[1:-1])))
            bound = env.max_on(a, b)
            assert bound >= dense - 1e-12
            assert bound <= dense + 1e-3 * env.peak_value()
    gauss = envelopes[0]
    assert gauss.max_on(-1e-9, 5e-9) == gauss.peak
    assert gauss.max_on(4e-9, 9e-9) == pytest.approx(float(gauss.value(4e-9)))
    rect = envelopes[1]
    assert rect.max_on(0.0, 1e-9) == 0.0 and rect.max_on(-10e-9, -4e-9) == 0.0
    field = DriveField([(gauss, PhaseLaw(chirp=1e9)), (rect, PhaseLaw())])
    assert field.max_amplitude_on(-3e-9, 2e-9) == pytest.approx(3.5)


_MEMBERS = st.lists(st.tuples(st.floats(0.0, 1e10), st.floats(1e-10, 5e-8),
                              st.floats(0.0, 1e9)), min_size=1, max_size=5)


def _gauss_rect_field(peak, fwhm, rect_peak):
    return DriveField([
        FieldComponent(GaussianEnvelope(peak, fwhm, center=2e-9),
                       PhaseLaw(offset=0.3, chirp=TWO_PI * 70e6)),
        FieldComponent(RectangularEnvelope(rect_peak, duration=30e-9,
                                           center=-5e-9))])


@settings(max_examples=60, deadline=None)
@given(members=_MEMBERS, t=st.floats(-1e-7, 1e-7))
def test_batch_field_members_match_their_scalar_fields(members, t):
    # One batch field holds a parameter per member; each member must give
    # the bits of the scalar field built from its own parameters, and the
    # batch bound must cover every member on each of the batch's window
    # pieces.
    peak, fwhm, rect = (np.array(col)[:, None] for col in zip(*members))
    batch = _gauss_rect_field(peak, fwhm, rect)
    values = batch.rabi(t)
    assert values.shape == (len(members), 1)
    for i, (p, w, r) in enumerate(members):
        alone = _gauss_rect_field(p, w, r).rabi(t)
        assert np.asarray(alone).tobytes() == values[i].tobytes()

    window = batch.support()
    assume(window is not None)
    for a, b in window_pieces(batch, window):
        sampled = np.abs(batch.rabi(np.linspace(a, b, 35)[1:-1]))
        assert np.all(batch.max_amplitude_on(a, b) >= sampled * (1.0 - 1e-12))
