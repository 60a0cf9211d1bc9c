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
from .bloch import (BATCH_PIECES, EmitterModel, check_batch_work,
                    solve_emission)
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
    for the linear area-noise growth). ``interp_error`` is the estimated
    largest error of the interpolated per-draw signal at each amplitude:
    with 7 % jitter and 60 draws, 3.5e-11 on 12 amplitudes from 0.5 pi to
    6 pi (39 x 11 area x duration nodes) and 6.7e-11 on 120 from 0.5 pi to
    12 pi (60 x 11 nodes), over 10000 times the actual error there (3.6e-15
    and 4.4e-15). It is zero without jitter and on a dark row. Amplitudes,
    signals and ``stderr`` must be finite.
    """

    amplitudes: np.ndarray
    signal: np.ndarray
    stderr: np.ndarray
    area_std: np.ndarray
    interp_error: np.ndarray | None = None

    def __post_init__(self):
        for name in ("amplitudes", "signal", "stderr"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
                     point=0) -> np.ndarray:
    """n truncated-Gaussian durations per scan ``point`` (int or array).

    Draw k of a point takes counter point * 2**32 + k, so an array of points
    gives ``point.shape + (n,)`` rows equal to scalar calls. A non-positive
    draw is re-drawn at the next draw index: at the few-percent level that
    is astronomically rare, so the truncation is a formality.
    """
    if base_t <= 0:
        raise ValueError("base_t must be > 0")
    point = np.asarray(point, dtype=np.uint64)[..., None]
    if model.sigma_t_rel == 0.0:
        return np.full(point.shape[:-1] + (n,), base_t)
    counters = point * np.uint64(1 << 32) + np.arange(n, dtype=np.uint64)
    draws = np.zeros(counters.shape, dtype=np.uint64)
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
    tail. Every draw is solved in the time frame of the scan's longest draw
    (:func:`frame_field`), where it is a pulse of one fixed shape set by its
    area and by its duration. The Bloch dynamics are not integrated per
    draw: the scan is solved once, at a tensor grid of Chebyshev-Lobatto
    nodes in the pulse area and in the duration, and the per-draw signal is
    the Chebyshev interpolant through those solves (:func:`_scan_surrogate`).
    The grid is one batch solve (:func:`rabisim.bloch.solve_emission`) on one
    window (:func:`frame_window`): its rows are the frame peaks and its
    columns the duration ratios sigma to the longest draw, each with its
    unit pulse (:func:`frame_field`) and the emitter's rates and detuning
    times sigma, the frame's clock. The mean, ``stderr`` and ``area_std``
    stay Monte Carlo moments over the seeded draws;
    ``interp_error`` estimates the largest interpolation error of the
    per-draw signal. Without jitter every amplitude takes one solve.
    The signal is detector-free: a long-integration average count rate is
    proportional to this mean, and the Monte Carlo detector chain exists
    separately for cross-checks. Raises StepFailure before any draw when the
    draws alone exceed the batch work budget, and before any solve that
    would exceed it; ValueError when ``rep_period`` is shorter than the
    pulse window.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if amplitudes.size == 0:
        raise ValueError("a power scan needs at least one amplitude")

    # The schedule takes at least BATCH_PIECES steps, which bounds the work
    # before any draw; each grid solve checks its own work before it steps.
    check_batch_work(BATCH_PIECES * amplitudes.size * n_samples)
    durations = sample_durations(template.main_fwhm, jitter, seed, n_samples,
                                 point=np.arange(amplitudes.size))
    t_ref, window = frame_window(template, amplitudes, durations)

    def solve(peaks, sigma):
        return solve_emission(frame_field(template, 1.0, sigma, t_ref), peaks,
                              emitter.detuning, emitter.gamma1, emitter.gamma2,
                              window, rep_period, sigma)

    signal, error = _scan_surrogate(
        solve, amplitudes, durations,
        emitter.gamma1 + emitter.gamma2 + abs(emitter.detuning))
    areas = amplitudes[:, None] * GAUSSIAN_AREA_FACTOR * durations
    mean, se, a_std = draw_moments(signal, areas)
    return PowerScan(amplitudes=amplitudes, signal=np.maximum(mean, 0.0),
                     stderr=se, area_std=a_std, interp_error=error)


def frame_field(template: PowerScanTemplate, peaks, sigma,
                t_ref: float) -> DriveField:
    """Batch field of scan points in the time frame of a main pulse of
    FWHM ``t_ref``.

    A point whose main pulse has peak |a| and FWHM ``sigma * t_ref`` is
    solved in the time t' = c + (t - c) / sigma about the main pulse's
    center c. There its main pulse has FWHM ``t_ref`` and peak ``peaks`` =
    |a| sigma, which is its area over GAUSSIAN_AREA_FACTOR t_ref, and its
    pedestal, at ``pedestal.peak * peaks``, is stretched by 1 / sigma about
    c. ``peaks`` and ``sigma`` broadcast to the batch shape; at sigma = 1
    the field is the point's own.
    """
    sigma = np.asarray(sigma, dtype=float)
    comps = [FieldComponent(GaussianEnvelope(peaks, t_ref, template.center))]
    if template.pedestal is not None:
        comps.append(FieldComponent(template.pedestal.scaled(peaks).stretched(
            1.0 / sigma, template.center)))
    return DriveField(comps)


def frame_window(template: PowerScanTemplate, amps: np.ndarray,
                 durations: np.ndarray):
    """Frame FWHM and pulse window ``(t_ref, (w0, w1))`` of a scan.

    The frame is that of the scan's longest draw t_ref, so every draw has
    sigma <= 1 and frame rates at most the emitter's. Its frame peak |a|
    sigma is at most that of the draw of largest area, which also bounds
    the surrogate's grid. The window is the support of the main pulse at
    that peak and of the pedestal at its peak for it, stretched for the
    shortest and for the longest draw: it holds every frame point of an
    on-center pedestal. A scan of zero amplitudes has no drive; it takes
    the window at unit peak.
    """
    t_ref = float(np.max(durations))
    sigma = np.array([np.min(durations) / t_ref, 1.0])
    peak = float(np.max(np.abs(amps)[:, None] * (durations / t_ref)))
    window = (frame_field(template, peak, sigma, t_ref).support()
              or frame_field(template, 1.0, sigma, t_ref).support())
    return t_ref, window


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
# On resonance, a Gaussian pulse measured in units of its own duration
# depends only on its area and on the rates times its duration (Gamma1 tau,
# Gamma2 tau, Delta tau; Allen & Eberly, Optical Resonance and Two-Level
# Atoms, Wiley 1975, ch. 3). In the frame of the scan's longest draw every
# draw is therefore the same unit pulse, scaled by its area, under rates
# scaled by its duration, on one window and one step schedule: its signal is
# an analytic function of the area, through which it oscillates, and of the
# duration, in which it only drifts with the rates. The tensor Chebyshev
# interpolant through solves at (m + 1) x (n + 1) Chebyshev-Lobatto points in
# the area and in the duration converges geometrically in m and n
# (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
# chs. 3 and 8; Townsend & Trefethen, SIAM J. Sci. Comput. 35, C495 (2013)),
# and fast in n. A DCT-I along each axis of the node values gives its
# Chebyshev coefficients, and each draw reads the interpolant at its own
# (area, duration) from the two axes' Chebyshev-Vandermonde rows. Each axis
# takes its degree up front from the phase that the signal sweeps along it
# and doubles only when its Chebyshev coefficient tail has not decayed;
# Lobatto nodes nest, so a doubling solves only the new nodes.
# ---------------------------------------------------------------------------

#: An axis has converged when, along it, every Chebyshev coefficient in the
#: last quarter of each node line is at most this fraction of the line's
#: largest value.
SURROGATE_TAIL = 1e-9

#: The starting degree sizes an axis for a coefficient tail this many times
#: below SURROGATE_TAIL.
SURROGATE_MARGIN = 10.0

#: Draws whose interpolant values are evaluated together: bounds the
#: transient heap of their Chebyshev columns (about 0.8 kB per draw).
SURROGATE_CHUNK = 1024


def _surrogate_degree(phase_spread: float) -> int:
    """Starting degree (nodes - 1) of an axis along which the signal's phase
    spans at most ``phase_spread`` rad.

    On [-1, 1] the Chebyshev coefficients of cos(rho x + phi), rho =
    phase_spread / 2, are at most 2 |J_k(rho)|, which falls
    super-geometrically once k passes rho. The rule takes the first k >= rho
    where |J_k(rho)| is at most SURROGATE_TAIL / SURROGATE_MARGIN, and puts
    it at the start of the last quarter that the tail check reads: degree
    ceil(4 k / 3). The area axis sweeps the pulse area; the duration axis
    sweeps (Gamma1 + Gamma2 + |Delta|) times the duration spread. On the
    c05 scans (4 ns pulses, T1 = 9.5 ns, 7 % jitter, up to 12 pi, 200 draws
    at seeds 1, 2, 3 and 7, and 2000 at seed 5) this gives 61-65 area and
    11 duration nodes (63 x 11 = 693 points at seed 1), and no doubling;
    the smallest degrees that pass there are 58-60 and 10, and at degree
    10 the duration axis's last-quarter coefficients sit about 50 times
    under the tail bound. A pedestal, stretched by 1 / sigma in the frame,
    adds a dependence on the duration that the rule does not count: with a
    1 %, 30 ns Gaussian pedestal the duration axis doubles once.
    """
    from scipy.special import jv
    rho = 0.5 * phase_spread
    k = math.ceil(rho)
    while abs(jv(k, rho)) > SURROGATE_TAIL / SURROGATE_MARGIN:
        k += 1
    return math.ceil(4 * k / 3)


def _lobatto_nodes(lo: float, hi: float, n: int, odd: bool = False):
    """The Chebyshev-Lobatto points ``cos(pi k / n)`` of [lo, hi], largest
    first, at every k or only at the odd k that a doubling to ``n`` adds;
    the end nodes are ``hi`` and ``lo`` exactly."""
    k = np.arange(1, n, 2) if odd else np.arange(n + 1)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / n)
    nodes[k == 0] = hi
    nodes[k == n] = lo
    return nodes


def _node_variable(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``values`` mapped from [lo, hi] onto [-1, 1], clipped there: roundoff
    puts end values just outside. A degenerate axis maps to 0."""
    return np.clip((2.0 * values - (lo + hi)) / ((hi - lo) or 1.0), -1.0, 1.0)


def _chebyshev_columns(x: np.ndarray, degree: int) -> np.ndarray:
    """T_0(x) ... T_degree(x) of the 1-D ``x``, one row per degree, by the
    three-term recurrence."""
    t = np.empty((degree + 1, x.size))
    t[0] = 1.0
    t[1:2] = x
    twice = 2.0 * x
    for k in range(2, degree + 1):
        np.multiply(twice, t[k - 1], out=t[k])
        t[k] -= t[k - 2]
    return t


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolants through ``values`` at the
    Lobatto points ``cos(pi k / n)`` of the last axis: a DCT-I, end terms
    halved."""
    from scipy.fft import dct
    n = values.shape[-1] - 1
    coef = dct(values, type=1, axis=-1) / n
    coef[..., [0, n]] *= 0.5
    return coef


def _tail(coef: np.ndarray) -> np.ndarray:
    """Largest coefficient in the last quarter of each Chebyshev series."""
    n = coef.shape[-1] - 1
    return np.max(np.abs(coef[..., (3 * n) // 4:]), axis=-1)


def _scan_surrogate(solve, amps: np.ndarray, durations: np.ndarray,
                    rate: float):
    """Signal and interpolation error at every draw.

    ``solve(p, s)`` returns the signal of the scan points at the 1-D
    frame peaks ``p`` (rows) times the 1-D duration ratios ``s`` to the
    longest draw t_ref (columns). Row i of
    ``durations`` holds the draws at ``amps[i]``; draw t is the point
    (|a| t / t_ref, t / t_ref), whose frame peak is its main pulse's area
    over GAUSSIAN_AREA_FACTOR t_ref.
    ``rate`` is Gamma1 + Gamma2 + |Delta|. Returns the (rows x samples)
    signal at the draws and, per row, the estimated largest error
    of the interpolated signal: twice the coefficient tail of each axis plus
    the rounding floor of the series evaluation. The grid spans the draws'
    range of areas and of durations, and each axis doubles until its tail
    passes; every solve checks its own work against the batch budget, so a
    grid that never converges ends in StepFailure. A scan whose draws have
    no spread (no jitter) takes one solve per row and reports zero error,
    and so does a dark row (a = 0): it lies on the grid's zero-area node
    line, whose solves are exactly zero, and takes that zero.
    """
    rows, n_samples = durations.shape
    t_ref = float(np.max(durations))
    sigma = durations / t_ref
    mag = np.abs(amps)
    s_lo = float(np.min(sigma))
    if s_lo == 1.0:
        return (np.broadcast_to(solve(mag, sigma[0, :1]), durations.shape),
                np.zeros(rows))
    peaks = mag[:, None] * sigma
    p_lo, p_hi = float(np.min(peaks)), float(np.max(peaks))
    m = _surrogate_degree((p_hi - p_lo) * GAUSSIAN_AREA_FACTOR * t_ref)
    n = _surrogate_degree(rate * (t_ref - float(np.min(durations))))

    # The signal at (area x duration) nodes.
    vals = solve(_lobatto_nodes(p_lo, p_hi, m), _lobatto_nodes(s_lo, 1.0, n))
    while True:
        if np.any(_tail(_chebyshev_coefficients(vals.T))
                  > SURROGATE_TAIL * np.max(np.abs(vals), axis=0)):
            new = solve(_lobatto_nodes(p_lo, p_hi, 2 * m, odd=True),
                        _lobatto_nodes(s_lo, 1.0, n))
            vals = np.insert(vals, np.arange(1, m + 1), new, axis=0)
            m *= 2
        elif np.any(_tail(_chebyshev_coefficients(vals))
                    > SURROGATE_TAIL * np.max(np.abs(vals), axis=1)):
            new = solve(_lobatto_nodes(p_lo, p_hi, m),
                        _lobatto_nodes(s_lo, 1.0, 2 * n, odd=True))
            vals = np.insert(vals, np.arange(1, n + 1), new, axis=1)
            n *= 2
        else:
            break

    # coef[l, k] multiplies T_k(area) T_l(duration). Each chunk of draws
    # takes the coefficients times its area columns, then sums the result
    # against its duration columns.
    coef = _chebyshev_coefficients(_chebyshev_coefficients(vals).T)
    signal = np.empty(peaks.size)
    for i in range(0, peaks.size, SURROGATE_CHUNK):
        part = slice(i, i + SURROGATE_CHUNK)
        x = _node_variable(peaks.ravel()[part], p_lo, p_hi)
        y = _node_variable(sigma.ravel()[part], s_lo, 1.0)
        by_area = coef @ _chebyshev_columns(x, m)
        signal[part] = np.sum(by_area * _chebyshev_columns(y, n), axis=0)
    signal = signal.reshape(rows, n_samples)

    eps = np.finfo(float).eps
    tails = np.max(_tail(coef)) + np.max(_tail(coef.T))
    error = np.full(rows, 2.0 * tails
                    + (m + n + 2) * eps * np.max(np.abs(vals)))
    dark = mag == 0.0
    signal[dark] = error[dark] = 0.0
    return signal, error


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
