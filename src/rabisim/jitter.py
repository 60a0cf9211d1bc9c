"""Pulse-duration jitter, jitter-averaged power scans, and the scan fit.

The pulse area of a shaped pulse at fixed peak is proportional to its
duration, so duration fluctuations at fixed amplitude produce area
fluctuations that grow linearly with the field strength; averaging over
them washes out the high-order Rabi fringes of a power scan while leaving
the low-order ones resolvable. Amplitude noise is not modeled (measured
drive-strength fluctuations are dominated by the modulator edge timing,
not the rf level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .bloch import (BATCH_PIECES, EmitterModel, batch_schedule,
                    check_batch_work, emitted_photons_per_period,
                    integrate_population_batch)
from .errors import FitDiverged
from .pulses import (DriveField, Envelope, FieldComponent, GAUSSIAN_AREA_FACTOR,
                     GaussianEnvelope)
from . import fitting

_LN2x2 = 2.0 * math.log(2.0)


@dataclass(frozen=True)
class JitterModel:
    """Gaussian pulse-duration fluctuation, truncated to positive durations.

    ``sigma_t_rel`` is the relative standard deviation of the duration.
    """

    sigma_t_rel: float = 0.07

    def __post_init__(self):
        if not 0.0 <= self.sigma_t_rel < 0.5:
            raise ValueError("sigma_t_rel must be in [0, 0.5)")


@dataclass(frozen=True, eq=False)
class PowerScan:
    """Jitter-averaged emission signal versus drive amplitude.

    ``signal`` is the mean emitted-photon integral per repetition period
    (arbitrary units, proportional to a time-averaged count rate);
    ``stderr`` the standard error over jitter samples; ``area_std`` the
    per-point standard deviation of the sampled pulse areas (diagnostic
    for the linear area-noise growth); ``peak_excitation`` the largest
    excited population reached during the pulse window (jitter-averaged),
    whose first maximum stays below full inversion when the pulse length
    is comparable to the lifetime.
    """

    amplitudes: np.ndarray
    signal: np.ndarray
    stderr: np.ndarray
    area_std: np.ndarray
    peak_excitation: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.amplitudes) <= 0):
            raise ValueError("amplitude axis must be strictly increasing")
        if np.any(self.signal < 0):
            raise ValueError("signals must be >= 0")


@dataclass(frozen=True)
class PowerScanTemplate:
    """Scan pulse: a Gaussian main pulse plus an optional pedestal.

    The pedestal envelope's amplitude is *relative*: its effective peak is
    ``pedestal.peak * amplitude`` at each scan point (modulator leakage
    scales with the drive).
    """

    main_fwhm: float = 4e-9
    center: float = 0.0
    pedestal: Envelope | None = None

    def __post_init__(self):
        if self.main_fwhm <= 0:
            raise ValueError("main_fwhm must be > 0")


def sample_durations(base_t: float, model: JitterModel, seed: int, n: int,
                     point: int = 0, draw0: int = 0) -> np.ndarray:
    """n truncated-Gaussian durations from the counter stream of ``point``.

    Rejection of non-positive draws re-draws deterministically from later
    counters; at the few-percent level the rejection probability is
    astronomically small, so the truncation is a formality.
    """
    if base_t <= 0:
        raise ValueError("base_t must be > 0")
    if model.sigma_t_rel == 0.0:
        return np.full(n, base_t)
    counters = np.uint64(point) * np.uint64(1 << 32) + np.arange(n, dtype=np.uint64)
    draws = np.full(n, draw0, dtype=np.uint64)
    vals = base_t * (1.0 + model.sigma_t_rel
                     * rng.normal(seed, rng.STREAM_DURATION, counters, draws))
    for _ in range(64):
        bad = vals <= 0.0
        if not np.any(bad):
            return vals
        draws[bad] += 1
        vals[bad] = base_t * (1.0 + model.sigma_t_rel * rng.normal(
            seed, rng.STREAM_DURATION, counters[bad], draws[bad]))
    raise RuntimeError("duration rejection sampling failed to terminate")


def averaged_power_scan(emitter: EmitterModel, template: PowerScanTemplate,
                        amplitudes, jitter: JitterModel, n_samples: int,
                        seed: int, rep_period: float = 1.4e-6) -> PowerScan:
    """Jitter-averaged power scan of the emitted-photon integral per period.

    For each amplitude the main-pulse duration is re-drawn ``n_samples``
    times at fixed peak (area fluctuates with duration), the Bloch
    dynamics are integrated over the pulse window, and the emission is
    accumulated over the full repetition period including the decay tail.
    The signal is detector-free: a long-integration average count rate is
    proportional to this mean, and the Monte Carlo detector chain exists
    separately for cross-checks. Raises StepFailure before any stepping
    when the scan exceeds the batch work budget.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base_t = template.main_fwhm
    center = template.center
    ped = template.pedestal

    # Points are integrated in buckets of neighboring amplitudes: one
    # vectorized (points x samples) solve per bucket, with a step schedule
    # set by the bucket's own fastest dynamics. Every schedule takes at least
    # BATCH_PIECES steps, which bounds the work before any draw.
    check_batch_work(BATCH_PIECES * amplitudes.size * n_samples)
    n_buckets = max(1, min(amplitudes.size, 12))
    plans = []
    for rows in np.array_split(np.arange(amplitudes.size), n_buckets):
        if rows.size == 0:
            continue
        durations = np.vstack([
            sample_durations(base_t, jitter, seed, n_samples, point=int(i))
            for i in rows])
        t_max = float(np.max(durations))
        # The widest draw at unit peak spans every member's window; scaled to
        # the bucket's top amplitude it bounds every member's drive.
        comps = [FieldComponent(GaussianEnvelope(1.0, t_max, center))]
        if ped is not None:
            comps.append(FieldComponent(ped))
        unit = DriveField(comps)
        w0, w1 = unit.support()
        schedule = batch_schedule(
            unit.scaled(float(np.max(np.abs(amplitudes[rows])))), (w0, w1),
            emitter.detuning, emitter.gamma1)
        plans.append((rows, durations, (w0, w1), schedule))
    check_batch_work(sum(n * durations.size for _, durations, _, schedule in plans
                         for _, _, n in schedule))

    def run_bucket(plan):
        rows, durations, (w0, w1), schedule = plan
        amps = amplitudes[rows][:, None]
        inv_w2 = 1.0 / durations ** 2

        def omega(t):
            main = amps * np.exp(-_LN2x2 * (t - center) ** 2 * inv_w2)
            if ped is not None:
                main = main + amps * ped.value(t)
            return main

        state = None
        for a, b, n_steps in schedule:
            state = integrate_population_batch(
                omega, emitter.detuning, emitter.gamma1, emitter.gamma2,
                (a, b), n_steps, initial=state)
        rho_end, _, integral, rho_peak = state
        signal = emitted_photons_per_period(rho_end, integral, emitter.gamma1,
                                            rep_period - (w1 - w0))
        areas = amps * GAUSSIAN_AREA_FACTOR * durations
        # Moments about the first draw: identical draws (no jitter) average
        # to exactly their value, whatever the sample count.
        spread = signal - signal[:, :1]
        mean = signal[:, 0] + np.mean(spread, axis=1)
        if n_samples > 1:
            se = np.std(spread, axis=1, ddof=1) / math.sqrt(n_samples)
            a_std = np.std(areas, axis=1, ddof=1)
        else:
            se = np.zeros(rows.size)
            a_std = np.zeros(rows.size)
        return mean, se, a_std, np.mean(rho_peak, axis=1)

    parts = [run_bucket(plan) for plan in plans]
    sig = np.concatenate([p[0] for p in parts])
    se = np.concatenate([p[1] for p in parts])
    a_std = np.concatenate([p[2] for p in parts])
    peak = np.concatenate([p[3] for p in parts])
    return PowerScan(amplitudes=amplitudes, signal=np.maximum(sig, 0.0),
                     stderr=se, area_std=a_std, peak_excitation=peak)


@dataclass(frozen=True)
class PowerScanFit:
    """Fitted washout model of a power scan.

    ``signal(a) = background_offset + background_slope * a
    + max(modulation_offset + modulation_slope * a, 0) * cos(2 pi a / period + phase) / 2``
    """

    period: float
    modulation_offset: float
    modulation_slope: float
    background_offset: float
    background_slope: float
    phase: float
    result: "fitting.FitResult"

    @property
    def pi_pulse_amplitude(self) -> float:
        """Amplitude of the first modulation maximum (the pi-pulse point)."""
        k = math.ceil(self.phase / (2.0 * math.pi))
        return (2.0 * math.pi * k - self.phase) * self.period / (2.0 * math.pi)


def _estimate_period(a: np.ndarray, detrended: np.ndarray) -> float | None:
    """Seed period for the washout fit: periodogram peak, or smoothed
    zero-crossing spacing on non-uniform axes."""
    da = np.diff(a)
    uniform = np.max(np.abs(da - da[0])) <= 1e-6 * da[0]
    if uniform and a.size >= 16:
        windowed = detrended * np.hanning(a.size)
        spectrum = np.abs(np.fft.rfft(windowed))
        spectrum[0] = 0.0
        k = int(np.argmax(spectrum))
        if k > 0 and spectrum[k] > 0:
            freq = k / (a.size * da[0])
            return 1.0 / freq
    # Fallback: count sign changes of a noise-smoothed trace.
    width = max(1, a.size // 64)
    smooth = np.convolve(detrended, np.ones(width) / width, mode="same")
    signs = np.sign(smooth)
    crossings = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
    if crossings < 3:
        return None
    return 2.0 * (a[-1] - a[0]) / crossings


def power_scan_model(params, a):
    c0, c1, m0, m1, period, phase = params
    envelope = np.maximum(m0 + m1 * a, 0.0)
    return c0 + c1 * a + 0.5 * envelope * np.cos(2.0 * math.pi * a / period + phase)


def fit_power_scan(scan: PowerScan, max_iter: int = 200) -> PowerScanFit:
    """Least-squares fit of the damped-sinusoid-plus-background model.

    The period is seeded from the detrended zero-crossing spacing (with a
    small candidate bracket to avoid aliasing) and the phase from the
    convention that the signal peaks at the pi-pulse amplitude.
    """
    a = scan.amplitudes
    s = scan.signal
    span = a[-1] - a[0]
    if np.std(s) <= 1e-12 * max(np.max(np.abs(s)), 1e-300):
        raise FitDiverged("scan signal is degenerate (flat); nothing to fit")

    slope, offset = np.polyfit(a, s, 1)
    detrended = s - (offset + slope * a)
    p0 = _estimate_period(a, detrended)
    if p0 is None:
        raise FitDiverged("scan has too few oscillations to identify a period")
    m0_init = 2.0 * math.sqrt(2.0) * float(np.std(detrended))

    weights = np.where(scan.stderr > 0, scan.stderr, 1.0)
    uniform_w = float(np.median(weights))

    def residual_fn(params):
        return (power_scan_model(params, a) - s) / (
            weights if np.any(scan.stderr > 0) else uniform_w)

    best = None
    for p_try in (p0 * 0.8, p0, p0 * 1.25):
        x0 = np.array([offset, slope, m0_init, 0.0, p_try, math.pi])
        lower = np.array([-np.inf, -np.inf, -np.inf, -np.inf, span / 50.0, -10.0])
        upper = np.array([np.inf, np.inf, np.inf, np.inf, 4.0 * span, 10.0])
        problem = fitting.FitProblem(
            names=("c0", "c1", "m0", "m1", "period", "phase"),
            x0=x0, lower=lower, upper=upper, residual_fn=residual_fn,
            max_iter=max_iter)
        try:
            res = fitting.least_squares(problem)
        except (FitDiverged, fitting.SingularJacobian):
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitDiverged("no period candidate produced a converging fit")
    c0, c1, m0, m1, period, phase = best.params
    if max(abs(m0), abs(m1) * span) <= 1e-9 * max(abs(c0) + abs(c1) * span, 1e-300):
        raise FitDiverged("fit collapsed to zero modulation (degenerate scan)")
    # The phase is 2 pi periodic; report the canonical branch in (-pi, pi].
    phase = phase - 2.0 * math.pi * math.floor((phase + math.pi) / (2.0 * math.pi))
    return PowerScanFit(period=float(period), modulation_offset=float(m0),
                        modulation_slope=float(m1), background_offset=float(c0),
                        background_slope=float(c1), phase=float(phase),
                        result=best)
