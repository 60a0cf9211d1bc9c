"""Damped least-squares engine and the excited-state trace fit.

The optimizer is a bounded Levenberg-style damped Gauss-Newton: forward
finite-difference Jacobian, multiplicative damping adaptation (x10 on
rejection, /10 on acceptance), steps projected onto the bound box, and
monotone cost by construction, all in units of each parameter's typical
size (Moré, LNM 630, 105 (1978)). Four-parameter desk-scale fits do not
justify sensitivity ODEs; finite differences are accurate enough and are
sanity-checked against central differences in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bloch import EmitterModel, population_series_fixed
from .detection import first_detected_density
from .errors import DegenerateTail, FitDiverged, SingularJacobian
from .pulses import DriveField, SampledEnvelope, pulse_area

_FD_STEP = 1e-7
_DAMP_MAX = 1e14
_STEP_TOL = 1e-8
_COST_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Bounded nonlinear least-squares problem.

    ``residual_fn(params)`` returns the residual vector (model minus data,
    already weighted); the cost is the sum of squared residuals.

    ``scale`` (default ones) is each parameter's typical size: the optimizer
    steps x / scale, but every input and result is in physical units.
    """

    names: Sequence[str]
    x0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    residual_fn: Callable[[np.ndarray], np.ndarray]
    max_iter: int = 200
    scale: np.ndarray | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        scale = np.ones_like(x0) if self.scale is None else np.array(self.scale, float)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "scale", scale)
        if not (x0.shape == lo.shape == hi.shape == scale.shape):
            raise ValueError("x0, lower, upper, scale must have matching shapes")
        if not np.all((scale > 0) & np.isfinite(scale)):
            raise ValueError("scale must be finite and > 0")
        if np.any(lo > hi):
            raise ValueError("bounds must satisfy lower <= upper")
        if np.any(x0 < lo) or np.any(x0 > hi):
            raise ValueError("x0 must lie inside the bounds")
        if not np.any(lo < hi):
            raise ValueError("at least one parameter must be free")


@dataclass(frozen=True, eq=False)
class FitResult:
    params: np.ndarray
    names: tuple
    cost: float
    covariance: np.ndarray
    status: str
    n_iter: int

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError("cost must be >= 0")

    def param(self, name: str) -> float:
        return float(self.params[self.names.index(name)])

    def stderr(self, name: str) -> float:
        i = self.names.index(name)
        return float(math.sqrt(max(self.covariance[i, i], 0.0)))


def _jacobian(residual_fn, p, r0, lower, upper):
    n = p.size
    jac = np.empty((r0.size, n))
    for j in range(n):
        h = max(_FD_STEP, _FD_STEP * abs(p[j]))
        if lower[j] == upper[j]:
            jac[:, j] = 0.0
            continue
        if p[j] + h > upper[j]:
            h = -h
        pj = p.copy()
        pj[j] += h
        jac[:, j] = (np.asarray(residual_fn(pj), dtype=float) - r0) / h
    return jac


def least_squares(problem: FitProblem) -> FitResult:
    """Minimize the sum of squared residuals inside the bound box."""
    scale = problem.scale

    def physical(u):  # the clip only absorbs u * scale's rounding at a bound
        return np.clip(u * scale, problem.lower, problem.upper)

    def residual_fn(u):
        return problem.residual_fn(physical(u))

    lower, upper = problem.lower / scale, problem.upper / scale
    p = problem.x0 / scale
    r = np.asarray(residual_fn(p), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual function returned non-finite values at x0")
    cost = float(r @ r)
    lam = 1e-10
    status = ""
    it = 0
    for it in range(1, problem.max_iter + 1):
        jac = _jacobian(residual_fn, p, r, lower, upper)
        if not np.all(np.isfinite(jac)):
            raise SingularJacobian("Jacobian contains non-finite entries")
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = np.max(diag) if np.max(diag) > 0 else 1.0
        accepted = False
        while lam <= _DAMP_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = np.clip(p + step, lower, upper)
            actual = candidate - p
            r_new = np.asarray(residual_fn(candidate), dtype=float)
            cost_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if cost_new < cost:
                rel_step = float(np.linalg.norm(actual)
                                 / (np.linalg.norm(p) + 1.0))
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, cost = candidate, r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_step < _STEP_TOL:
                    status = "converged-step"
                elif rel_drop < _COST_TOL:
                    status = "converged-cost"
                break
            lam *= 10.0
        if not accepted:
            # Damping drove the step to nothing without finding descent:
            # either we are at a (possibly boundary) optimum, or the
            # Jacobian is unusable.
            probe = np.linalg.norm(np.clip(p - g / (lam * diag + 1e-300),
                                           lower, upper) - p)
            if probe / (np.linalg.norm(p) + 1.0) < _STEP_TOL or cost == 0.0:
                status = "converged-step"
            else:
                raise SingularJacobian(
                    "damping reached its cap without regularizing a descent step")
        if status:
            break
    if not status:
        raise FitDiverged(f"no convergence within {problem.max_iter} iterations")

    jac = _jacobian(residual_fn, p, r, lower, upper)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    cov = 0.5 * (cov + cov.T) * np.outer(scale, scale)
    return FitResult(params=physical(p), names=tuple(problem.names), cost=cost,
                     covariance=cov, status=status, n_iter=it)


# ---------------------------------------------------------------------------
# Trace fit: recover the drive scale (hence peak Rabi frequency and pulse
# area) from a fluorescence decay histogram plus the measured pulse shape.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TraceFit:
    """Fitted parameters, peak Rabi frequency and pulse area of a trace."""

    result: FitResult
    omega_max: float
    area: float


def _forward_series(pulse_envelope: SampledEnvelope, emitter: EmitterModel,
                    s: float, data_span: float, model: str, efficiency: float):
    """Model series for the trace fit: (times, values, end value, end time,
    depletion), where past the end time the drive is off and the value
    continues as ``_interp_series`` says.

    The depletion is 0 for the population. For the first-detected density
    eta Gamma1 rho exp(-eta R) it is eta rho_end: after the series ends,
    rho decays as rho_end e^{-Gamma1 tau}, so R grows by
    rho_end (1 - e^{-Gamma1 tau}).
    """
    support = pulse_envelope.support()
    t_hi = support[1] + min(data_span, 8.0 / emitter.gamma1)
    rate = s * pulse_envelope.peak_value() + abs(emitter.detuning) + emitter.gamma1
    n_steps = max(2000, int(math.ceil((t_hi - support[0]) * rate / 0.06)))
    fld = DriveField.single(pulse_envelope.scaled(s))
    tt, rho = population_series_fixed(fld, emitter, (support[0], t_hi), n_steps)
    if model == "first_detected":
        vals = first_detected_density(tt, emitter.gamma1 * rho, efficiency)
        depletion = efficiency * float(rho[-1])
    else:
        vals, depletion = rho, 0.0
    return tt, vals, float(vals[-1]), float(tt[-1]), depletion


def _interp_series(shifted_times, series, gamma1: float):
    """The series at ``shifted_times``: 0 before it, linear inside, and past
    its end the exact drive-free continuation
    ``v_end e^{-Gamma1 tau} exp(-depletion (1 - e^{-Gamma1 tau}))``."""
    tt, vals, v_end, t_end, depletion = series
    out = np.interp(shifted_times, tt, vals, left=0.0, right=0.0)
    beyond = shifted_times > t_end
    if np.any(beyond):
        decay = np.exp(-gamma1 * (shifted_times[beyond] - t_end))
        tail = v_end * decay
        if depletion:
            tail *= np.exp(-depletion * (1.0 - decay))
        out[beyond] = tail
    return out


def trace_model(eval_times, pulse_envelope: SampledEnvelope,
                emitter: EmitterModel, s: float, t0: float, background: float,
                norm: float, data_span: float | None = None,
                model: str = "population", efficiency: float = 0.02):
    """Forward model of :func:`fit_trace` at explicit parameter values.

    The same series construction and interpolation the fit uses, so
    synthetic data generated here is exactly in-family for the fit.
    """
    eval_times = np.asarray(eval_times, dtype=float)
    if data_span is None:
        data_span = float(eval_times[-1] - eval_times[0])
    series = _forward_series(pulse_envelope, emitter, s, data_span, model,
                             efficiency)
    return (norm * _interp_series(eval_times - t0, series, emitter.gamma1)
            + background)


def _count_oscillation_maxima(times, values, support):
    """Local maxima of a lightly smoothed trace inside the pulse window."""
    v = np.asarray(values, dtype=float)
    if v.size >= 7:
        kernel = np.ones(5) / 5.0
        v = np.convolve(v, kernel, mode="same")
    inside = (times >= support[0]) & (times <= support[1])
    idx = np.nonzero(inside)[0]
    if idx.size < 3:
        return 1
    lo, hi = idx[0], idx[-1]
    seg = v[lo:hi + 1]
    prominence = 0.02 * (np.max(seg) - np.min(seg))
    count = 0
    for i in range(1, seg.size - 1):
        if seg[i] >= seg[i - 1] and seg[i] > seg[i + 1]:
            left = np.min(seg[max(0, i - 10):i + 1])
            if seg[i] - left > prominence:
                count += 1
    return max(count, 1)


def _grid_start(model_values, scales, t0_grid, counts, sigma, b_init: float):
    """Cheapest start ``[s, t0, b_init, c]`` on the (scale, t0) grid.

    Per scale, one ``model_values(s, t0_grid)`` call gives the model at every
    shift as rows; each row's norm c is solved linearly (floored at 1e-12)
    and rows whose model is identically zero are skipped. Ties go to the
    first grid point in scale-major order.
    """
    best_cost, x0 = np.inf, None
    excess = counts - b_init
    for s in scales:
        m = model_values(s, t0_grid)
        denom = np.einsum("ij,ij->i", m, m)
        usable = denom > 0
        norm = np.maximum(np.divide(m @ excess, denom, out=np.zeros_like(denom),
                                    where=usable), 1e-12)
        # In place: these (shifts, samples) rows are the fit's largest arrays.
        r = norm[:, None] * m
        r += b_init
        r -= counts
        r /= sigma
        cost = np.where(usable, np.einsum("ij,ij->i", r, r), np.inf)
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost, x0 = cost[i], np.array([s, t0_grid[i], b_init, norm[i]])
    if x0 is None:
        raise FitDiverged("no usable initialization found for the trace fit")
    return x0


def fit_trace(times, counts, pulse_envelope: SampledEnvelope,
              emitter: EmitterModel, model: str = "population",
              efficiency: float = 0.02, max_iter: int = 200) -> TraceFit:
    """Fit a decay histogram with Bloch dynamics driven by a measured pulse.

    Free parameters: amplitude scale ``s`` (mapping the stored envelope to
    rad/s, hence to the peak Rabi frequency), trigger offset ``t0``,
    constant background ``b``, and overall normalization ``c``. Residuals
    are Poisson-weighted with sigma = sqrt(max(n, 1)). ``model`` selects
    the plain excited population (valid while detection efficiency is
    low) or the first-detected-photon density for high-efficiency data.

    Reports the peak Rabi frequency ``s * max(envelope)`` and the resonant
    pulse area of the scaled envelope. Scaling the stored envelope samples
    by k while scaling the fitted s by 1/k leaves both unchanged. The fitted
    curve is :func:`trace_model` at the fitted parameters.
    """
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if times.size != counts.size or times.size < 8:
        raise ValueError("need matching time/count arrays with >= 8 points")
    if model not in ("population", "first_detected"):
        raise ValueError("model must be 'population' or 'first_detected'")
    support = pulse_envelope.support()
    if support is None:
        raise ValueError("pulse envelope is identically zero")
    tail = times[-1] - support[1]
    if tail < 3.0 / emitter.gamma1:
        raise DegenerateTail(
            "data must extend at least three lifetimes past the pulse")

    sigma = np.sqrt(np.maximum(counts, 1.0))
    span = times[-1] - times[0]

    traj_cache: dict[float, tuple] = {}

    def trajectory_for(s: float):
        key = float(s)
        if key not in traj_cache:
            if len(traj_cache) > 64:
                traj_cache.clear()
            traj_cache[key] = _forward_series(pulse_envelope, emitter, key,
                                              span, model, efficiency)
        return traj_cache[key]

    def model_values(s, t0):
        """Unit-norm model at one shift t0, or one row per shift of an array."""
        return _interp_series(times - np.asarray(t0)[..., None],
                              trajectory_for(s), emitter.gamma1)

    def residual_fn(params):
        s, t0, b, c = params
        return (c * model_values(s, t0) + b - counts) / sigma

    # Initialization: background from the quiet percentile, amplitude-scale
    # candidates from the observed fringe count (one fringe per 2 pi of
    # area), and per-candidate trigger alignment by a coarse scan of t0
    # with the normalization solved linearly. This defeats the
    # period-aliasing and misalignment local minima of the oscillatory
    # model before the damped iteration starts.
    b_init = float(np.percentile(counts, 5))
    unit_area = pulse_area(DriveField.single(pulse_envelope))
    n_max = _count_oscillation_maxima(times, counts, support)
    lo_area = max(2 * n_max - 1.5, 0.5)
    candidates = np.arange(lo_area, 2 * n_max + 1.75, 0.25)
    span_lo = times[0] - support[1]
    span_hi = times[-1] - 3.0 / emitter.gamma1 - support[1]
    t0_grid = np.linspace(span_lo, max(span_hi, span_lo + 1e-12), 241)
    x0 = _grid_start(model_values, candidates * math.pi / unit_area, t0_grid,
                     counts, sigma, b_init)

    # Scales for the optimizer: s and the norm in units of their starts, t0
    # in units of the data span, the background in counts (at least one).
    result = least_squares(FitProblem(
        names=("scale", "t0", "background", "norm"), x0=x0,
        lower=np.array([x0[0] / 20.0, x0[1] - 0.5 * span, -np.inf, 1e-12 * x0[3]]),
        upper=np.array([20.0 * x0[0], x0[1] + 0.5 * span, np.inf, np.inf]),
        residual_fn=residual_fn, max_iter=max_iter,
        scale=np.array([x0[0], span, max(abs(x0[2]), 1.0), x0[3]])))
    s_fit = result.param("scale")
    area = pulse_area(DriveField.single(pulse_envelope.scaled(s_fit)))
    return TraceFit(result=result, omega_max=s_fit * pulse_envelope.peak_value(),
                    area=area)
