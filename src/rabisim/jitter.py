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
from numpy.polynomial.chebyshev import chebval, chebvander
from scipy.fft import dct

from . import rng
from .bloch import (BATCH_PIECES, EmitterModel, batch_schedule,
                    check_batch_work, emitted_photons_per_period,
                    integrate_population_batch)
from .errors import FitDiverged
from .pulses import (DriveField, FieldComponent, GAUSSIAN_AREA_FACTOR,
                     GaussianEnvelope, RectangularEnvelope)
from . import fitting


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
    for the linear area-noise growth); ``peak_excitation`` the
    jitter-averaged largest excited population during the pulse window,
    whose first maximum stays below full inversion when the pulse length
    is comparable to the lifetime. It is the largest rho_ee on the batch
    kernel's step grid, read through the scan surrogate, so it follows the
    step schedule: on 4 ns pulses from 0.2 pi to 12 pi without jitter it
    sits up to 2.8e-4 below the DOP853 maximum and never above it. With 7 %
    jitter and 60 draws the surrogate moves it from the mean of direct
    per-draw solves by up to 4.0e-5 on 12 amplitudes from 0.5 pi to 6 pi
    (their own amplitude axis) and 2.2e-5 on 120 from 0.5 pi to 12 pi
    (75 x 44 nodes). ``interp_error`` is the estimated largest error of the
    interpolated per-draw signal at each amplitude: 4e-15 to 4e-13 on those
    two scans, and at least twice the actual error there. It is zero where
    the draws were solved directly or without jitter, and on a dark row.
    """

    amplitudes: np.ndarray
    signal: np.ndarray
    stderr: np.ndarray
    area_std: np.ndarray
    peak_excitation: np.ndarray | None = None
    interp_error: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.amplitudes) <= 0):
            raise ValueError("amplitude axis must be strictly increasing")
        if np.any(self.signal < 0):
            raise ValueError("signals must be >= 0")


@dataclass(frozen=True)
class PowerScanTemplate:
    """Scan pulse: a Gaussian main pulse plus an optional pedestal.

    The pedestal is a Gaussian or rectangular envelope whose amplitude is
    *relative*: its effective peak is ``pedestal.peak * |amplitude|`` at each
    scan point (modulator leakage scales with the drive).
    """

    main_fwhm: float = 4e-9
    center: float = 0.0
    pedestal: GaussianEnvelope | RectangularEnvelope | None = None

    def __post_init__(self):
        if self.main_fwhm <= 0:
            raise ValueError("main_fwhm must be > 0")
        if self.pedestal is not None and not isinstance(
                self.pedestal, (GaussianEnvelope, RectangularEnvelope)):
            raise ValueError("the pedestal must be a Gaussian or rectangular envelope")


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
    times at fixed peak (area fluctuates with duration), and the emission
    is accumulated over the full repetition period including the decay
    tail. The Bloch dynamics are not integrated per draw: the scan is solved
    once, at a tensor grid of Chebyshev-Lobatto nodes in |amplitude| and in
    the duration over the scan's [min, max] draw, and the per-draw signal
    and peak excitation are the Chebyshev interpolants through those solves
    (:func:`_scan_surrogate`). Where the amplitude nodes would not be fewer
    than the amplitudes, the amplitudes themselves are the amplitude axis.
    The whole scan is one batch on one window and step schedule
    (:func:`scan_schedule`). The mean, ``stderr`` and ``area_std`` stay
    Monte Carlo moments over the seeded draws; ``interp_error`` estimates
    the largest interpolation error of the per-draw signal. Without jitter
    every amplitude takes one solve, and a scan with no more draws than
    duration nodes solves its draws directly. The signal is detector-free:
    a long-integration average count rate is proportional to this mean, and
    the Monte Carlo detector chain exists separately for cross-checks.
    Raises StepFailure before any stepping when the scan exceeds the batch
    work budget, and ValueError when ``rep_period`` is shorter than the
    pulse window.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if amplitudes.size == 0:
        raise ValueError("a power scan needs at least one amplitude")

    # The schedule takes at least BATCH_PIECES steps, which bounds the work
    # before any draw. The second check bounds a solve of every draw. The
    # surrogate solves fewer points, except when a tail check still fails
    # once an axis's node count nears half its amplitudes or draws: it then
    # solves its duration nodes at every amplitude, or its draws, on top of
    # its nodes. Each adds at most the checked work, so the scan stays under
    # three times it.
    check_batch_work(BATCH_PIECES * amplitudes.size * n_samples)
    durations = np.vstack([
        sample_durations(template.main_fwhm, jitter, seed, n_samples, point=i)
        for i in range(amplitudes.size)])
    plan = scan_schedule(emitter, template, amplitudes, durations)
    (w0, w1), schedule = plan
    check_batch_work(durations.size * sum(n for _, _, n in schedule))
    if rep_period < w1 - w0:
        raise ValueError(f"rep_period {rep_period:.3g} s is shorter than the "
                         f"{w1 - w0:.3g} s pulse window")

    signal, peak, error = _scan_surrogate(
        lambda a, t: solve_draws(emitter, template, a, t, plan, rep_period),
        amplitudes, durations)
    areas = amplitudes[:, None] * GAUSSIAN_AREA_FACTOR * durations
    mean, se, a_std = draw_moments(signal, areas)
    return PowerScan(amplitudes=amplitudes, signal=np.maximum(mean, 0.0),
                     stderr=se, area_std=a_std,
                     peak_excitation=np.mean(peak, axis=1), interp_error=error)


def draw_field(template: PowerScanTemplate, amps, durations) -> DriveField:
    """Batch field of a scan's draws: row i of ``durations`` holds the main
    pulse FWHMs at peak ``|amps[i]|``, and the pedestal scales with it (the
    sign of a drive does not change the populations)."""
    peaks = np.abs(amps)[:, None]
    comps = [FieldComponent(GaussianEnvelope(peaks, durations, template.center))]
    if template.pedestal is not None:
        comps.append(FieldComponent(template.pedestal.scaled(peaks)))
    return DriveField(comps)


def scan_schedule(emitter: EmitterModel, template: PowerScanTemplate,
                  amps: np.ndarray, durations: np.ndarray):
    """Pulse window and step schedule ``((w0, w1), schedule)`` of a scan.

    At fixed peak a Gaussian grows pointwise with its FWHM, so the draw
    field of each row's longest draw spans and bounds every duration of
    the row. A scan of zero amplitudes has no drive; it takes its draws'
    window at unit peak.
    """
    longest = durations.max(axis=1, keepdims=True)
    field = draw_field(template, amps, longest)
    window = field.support() or draw_field(template, [1.0], longest).support()
    return window, batch_schedule(field, window, emitter.detuning,
                                  emitter.gamma1)


def solve_draws(emitter: EmitterModel, template: PowerScanTemplate,
                amps: np.ndarray, durations: np.ndarray, plan,
                rep_period: float):
    """Emitted photons per period and peak excitation of every draw.

    One batch-kernel solve of the (amplitudes x durations) grid on the
    scan ``plan`` from :func:`scan_schedule`; ``durations`` has one row
    per amplitude, or is one row (1-D) that every amplitude shares.
    """
    (w0, w1), schedule = plan
    drive = draw_field(template, amps, durations).rabi
    state = None
    for a, b, n_steps in schedule:
        state = integrate_population_batch(
            drive, emitter.detuning, emitter.gamma1, emitter.gamma2,
            (a, b), n_steps, initial=state)
    rho_end, _, integral, rho_peak = state
    return (emitted_photons_per_period(rho_end, integral, emitter.gamma1,
                                       rep_period - (w1 - w0)), rho_peak)


def draw_moments(signal: np.ndarray, areas: np.ndarray):
    """Mean, standard error of the mean, and pulse-area spread of each row.

    Moments are taken about the first draw: identical draws (no jitter)
    average to exactly their value, whatever the sample count.
    """
    n = signal.shape[1]
    spread = signal - signal[:, :1]
    mean = signal[:, 0] + np.mean(spread, axis=1)
    if n == 1:
        return mean, np.zeros(mean.size), np.zeros(mean.size)
    return (mean, np.std(spread, axis=1, ddof=1) / math.sqrt(n),
            np.std(areas, axis=1, ddof=1))


# ---------------------------------------------------------------------------
# Scan surrogate.
#
# On one step schedule a draw's signal is an analytic function of |a| and of
# its duration, so the tensor Chebyshev interpolant through solves at
# (m + 1) x (n + 1) Chebyshev-Lobatto points in |a| and in the duration
# converges geometrically in m and n (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013, ch. 3; Townsend & Trefethen, SIAM J.
# Sci. Comput. 35, C495 (2013)). A DCT-I along each axis of the node values
# gives its Chebyshev coefficients. The amplitude axis is evaluated first: one
# Chebyshev-Vandermonde product gives each row's duration series, and
# Clenshaw's recurrence evaluates that series stably at every draw. A row
# whose |a| is a node takes the node's own series, so it reads its solves
# exactly and a = 0 stays dark. When the amplitude nodes would not be fewer
# than the amplitudes, the amplitudes themselves are the amplitude axis:
# every row is a node. Each axis takes its degree up front from its largest
# pulse-area spread and doubles only when its Chebyshev coefficient tail has
# not decayed; Lobatto nodes nest, so a doubling solves only the new nodes.
# The peak excitation is a maximum over the step grid, with kinks in both
# variables; it is interpolated the same way.
# ---------------------------------------------------------------------------

#: An axis has converged when, along it, every Chebyshev coefficient in the
#: last quarter of each node line is at most this fraction of the line's
#: largest value.
SURROGATE_TAIL = 1e-9


def _surrogate_degree(area_spread: float) -> int:
    """Starting degree (nodes - 1) of an axis along which the scan's pulse
    area spans at most ``area_spread`` rad.

    A signal oscillating in the pulse area spans ``area_spread / 2`` rad per
    unit of the node variable, so its Chebyshev coefficients decay past
    degree ~spread/2. On the c05 scans (4 ns pulses, T1 = 9.5 ns, 7 %
    jitter, up to 12 pi, 200 or 2000 draws, with and without pedestal) the
    smallest even degree that passes the tail check is 60-62 on the
    amplitude axis (spreads of 48-50 rad, rule 77-80) and 36-40 on the
    duration axis (21-25 rad, rule 43-47): at most 1.25 spread + 14 on
    either axis. The rule adds a margin of two, so that no doubling is
    needed there.
    """
    return math.ceil(1.25 * area_spread + 16.0)


def _lobatto_nodes(lo: float, hi: float, n: int, odd: bool = False):
    """The Chebyshev-Lobatto points ``cos(pi k / n)`` of [lo, hi], largest
    first, at every k or only at the odd k that a doubling to ``n`` adds;
    the end nodes are ``hi`` and ``lo`` exactly."""
    k = np.arange(1, n, 2) if odd else np.arange(n + 1)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / n)
    nodes[k == 0] = hi
    nodes[k == n] = lo
    return nodes


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolants through ``values`` at the
    Lobatto points ``cos(pi k / n)`` of the last axis: a DCT-I, end terms
    halved."""
    n = values.shape[-1] - 1
    coef = dct(values, type=1, axis=-1) / n
    coef[..., [0, n]] *= 0.5
    return coef


def _tail(coef: np.ndarray) -> np.ndarray:
    """Largest coefficient in the last quarter of each Chebyshev series."""
    n = coef.shape[-1] - 1
    return np.max(np.abs(coef[..., (3 * n) // 4:]), axis=-1)


def _scan_surrogate(solve, amps: np.ndarray, durations: np.ndarray):
    """Signal, peak excitation and interpolation error at every draw.

    ``solve(a, t)`` returns (signal, peak) of amplitudes ``a`` at durations
    ``t``, which has one row per amplitude or is one row for all; row i
    of ``durations`` holds the draws at ``amps[i]``. Returns the
    (rows x samples) signal and peak at ``durations`` and, per row, the
    estimated largest error of the interpolated signal: twice the
    coefficient tail of each axis the row interpolates plus the rounding
    floor of the series evaluation. The duration nodes span the scan's
    [min, max] draw. A scan whose draws have no spread (no jitter) takes one
    solve per row; a scan that needs as many duration nodes as it has draws
    solves its draws directly. Both report zero error.
    """
    rows, n_samples = durations.shape
    lo, hi = float(np.min(durations)), float(np.max(durations))
    if lo == hi:
        signal, peak = solve(amps, durations[:, :1])
        return (np.broadcast_to(signal, durations.shape),
                np.broadcast_to(peak, durations.shape), np.zeros(rows))
    mag = np.abs(amps)
    a_lo, a_hi = float(np.min(mag)), float(np.max(mag))
    n = _surrogate_degree(a_hi * GAUSSIAN_AREA_FACTOR * (hi - lo))
    m = _surrogate_degree((a_hi - a_lo) * GAUSSIAN_AREA_FACTOR * hi)
    if n + 1 >= n_samples:
        return (*solve(amps, durations), np.zeros(rows))

    # vals[0] and vals[1]: signal and peak at (axis x duration) nodes. The
    # amplitude axis is Chebyshev nodes, or else the amplitudes themselves.
    on_nodes = m + 1 < rows
    axis = _lobatto_nodes(a_lo, a_hi, m) if on_nodes else mag
    vals = np.stack(solve(axis, _lobatto_nodes(lo, hi, n)))
    while True:
        signal = vals[0]
        if on_nodes and np.any(
                _tail(_chebyshev_coefficients(signal.T))
                > SURROGATE_TAIL * np.max(np.abs(signal), axis=0)):
            if 2 * m + 1 >= rows:
                on_nodes, axis = False, mag
                vals = np.stack(solve(axis, _lobatto_nodes(lo, hi, n)))
                continue
            new = solve(_lobatto_nodes(a_lo, a_hi, 2 * m, odd=True),
                        _lobatto_nodes(lo, hi, n))
            vals = np.insert(vals, np.arange(1, m + 1), new, axis=1)
            m *= 2
            axis = _lobatto_nodes(a_lo, a_hi, m)
        elif np.any(_tail(_chebyshev_coefficients(signal))
                    > SURROGATE_TAIL * np.max(np.abs(signal), axis=1)):
            if 2 * n + 1 >= n_samples:
                return (*solve(amps, durations), np.zeros(rows))
            new = solve(axis, _lobatto_nodes(lo, hi, 2 * n, odd=True))
            vals = np.insert(vals, np.arange(1, n + 1), new, axis=2)
            n *= 2
        else:
            break

    # Each row's duration series: its node's own, else read off the
    # amplitude axis's Chebyshev series of the node series.
    coef = _chebyshev_coefficients(vals)
    if on_nodes:
        hit = mag[:, None] == axis
        node = np.where(np.any(hit, axis=1), np.argmax(hit, axis=1), -1)
    else:
        node = np.arange(rows)
    off = node < 0
    series = coef[:, node]
    if np.any(off):
        x = (2.0 * mag[off] - (a_lo + a_hi)) / (a_hi - a_lo)
        series[:, off] = chebvander(x, m) @ np.swapaxes(
            _chebyshev_coefficients(np.swapaxes(coef, 1, 2)), 1, 2)

    eps = np.finfo(float).eps
    scale = np.max(np.abs(vals[0]), axis=1)
    error = 2.0 * _tail(series[0]) + (n + 1) * eps * np.where(
        off, np.max(scale), scale[node])
    if np.any(off):
        error[off] += (2.0 * np.max(_tail(_chebyshev_coefficients(vals[0].T)))
                       + (m + 1) * eps * np.max(scale))
    x = np.clip((2.0 * durations - (lo + hi)) / (hi - lo), -1.0, 1.0)
    signal, peak = (chebval(x, s.T[..., None], tensor=False) for s in series)
    return signal, peak, error


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
    convention that the signal peaks at the pi-pulse amplitude. The
    optimizer scales c0, m0 (signal) and the phase (rad) by 1, the slopes
    c1, m1 by 1 / span, and the period by its candidate seed.
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

    def residual_fn(params):
        return (power_scan_model(params, a) - s) / weights

    best = None
    for p_try in (p0 * 0.8, p0, p0 * 1.25):
        x0 = np.array([offset, slope, m0_init, 0.0, p_try, math.pi])
        lower = np.array([-np.inf, -np.inf, -np.inf, -np.inf, span / 50.0, -10.0])
        upper = np.array([np.inf, np.inf, np.inf, np.inf, 4.0 * span, 10.0])
        problem = fitting.FitProblem(
            names=("c0", "c1", "m0", "m1", "period", "phase"),
            x0=x0, lower=lower, upper=upper, residual_fn=residual_fn,
            max_iter=max_iter, scale=[1.0, 1.0 / span, 1.0, 1.0 / span, p_try, 1.0])
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
