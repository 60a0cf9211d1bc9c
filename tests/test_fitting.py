import math

import numpy as np
import pytest

from rabisim import fitting
from rabisim.bloch import EmitterModel
from rabisim.errors import DegenerateTail, SingularJacobian
from rabisim.fitting import (FitProblem, FitResult, _jacobian, fit_trace,
                             least_squares, trace_model)
from rabisim.pulses import (DriveField, GAUSSIAN_AREA_FACTOR, SampledEnvelope,
                            pulse_area)

EM = EmitterModel.from_lifetime(9.5e-9)


def linear_problem():
    x = np.linspace(0.0, 1.0, 20)
    y = 3.7 * x
    return FitProblem(names=("p",), x0=np.array([1.0]),
                      lower=np.array([-10.0]), upper=np.array([10.0]),
                      residual_fn=lambda p: p[0] * x - y)


def test_linear_model_exact_in_two_iterations():
    res = least_squares(linear_problem())
    assert res.n_iter <= 2
    assert res.params[0] == pytest.approx(3.7, abs=1e-9)


def test_rosenbrock_valley():
    prob = FitProblem(
        names=("x", "y"), x0=np.array([-1.2, 1.0]),
        lower=np.array([-5.0, -5.0]), upper=np.array([5.0, 5.0]),
        residual_fn=lambda p: np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]))
    res = least_squares(prob)
    assert np.max(np.abs(res.params - 1.0)) < 1e-6


def test_bound_start_with_outward_gradient_stays_feasible():
    prob = FitProblem(names=("a",), x0=np.array([0.0]),
                      lower=np.array([0.0]), upper=np.array([5.0]),
                      residual_fn=lambda p: np.array([p[0] + 1.0]))
    res = least_squares(prob)
    assert res.params[0] == 0.0


def test_fixed_parameter_via_equal_bounds():
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x + 0.5
    # (0.5 / 49) * 49 rounds to 0.49999999999999994: a scaled bound must
    # still hold exactly.
    for scale in (None, [1.0, 49.0]):
        prob = FitProblem(names=("a", "b"), x0=np.array([1.0, 0.5]),
                          lower=np.array([-10.0, 0.5]), upper=np.array([10.0, 0.5]),
                          residual_fn=lambda p: p[0] * x + p[1] - y, scale=scale)
        res = least_squares(prob)
        assert res.params[1] == 0.5
        assert res.params[0] == pytest.approx(2.0, abs=1e-8)


def test_monotone_cost_and_result_not_worse_than_start():
    costs = []

    def residual(p):
        r = np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0], 0.3 * p[1]])
        costs.append(float(r @ r))
        return r

    prob = FitProblem(names=("x", "y"), x0=np.array([-1.2, 1.0]),
                      lower=np.array([-5.0, -5.0]), upper=np.array([5.0, 5.0]),
                      residual_fn=residual)
    res = least_squares(prob)
    assert res.cost <= costs[0]


def test_singular_jacobian_on_nonfinite_residuals():
    def residual(p):
        if p[0] > 1.0:
            return np.array([math.nan])
        return np.array([p[0] - 2.0])

    prob = FitProblem(names=("a",), x0=np.array([1.0 - 1e-12]),
                      lower=np.array([-5.0]), upper=np.array([5.0]),
                      residual_fn=residual)
    with pytest.raises(SingularJacobian):
        least_squares(prob)


def test_problem_validation():
    with pytest.raises(ValueError):
        FitProblem(names=("a",), x0=np.array([2.0]), lower=np.array([0.0]),
                   upper=np.array([1.0]), residual_fn=lambda p: p)
    with pytest.raises(ValueError):
        FitProblem(names=("a",), x0=np.array([0.5]), lower=np.array([1.0]),
                   upper=np.array([0.0]), residual_fn=lambda p: p)
    with pytest.raises(ValueError):
        FitProblem(names=("a",), x0=np.array([0.5]), lower=np.array([0.5]),
                   upper=np.array([0.5]), residual_fn=lambda p: p)
    for scale in ([0.0], [-1.0], [1.0, 1.0]):
        with pytest.raises(ValueError):
            FitProblem(names=("a",), x0=np.array([0.5]), lower=np.array([0.0]),
                       upper=np.array([1.0]), residual_fn=lambda p: p,
                       scale=scale)


def test_forward_vs_central_jacobian_at_optimum():
    x = np.linspace(0.0, 2.0, 40)
    y = 1.7 * np.exp(-0.8 * x)

    def residual(p):
        return p[0] * np.exp(-p[1] * x) - y

    prob = FitProblem(names=("a", "k"), x0=np.array([1.0, 1.0]),
                      lower=np.array([0.0, 0.0]), upper=np.array([10.0, 10.0]),
                      residual_fn=residual)
    res = least_squares(prob)
    p = res.params
    r0 = residual(p)
    fwd = _jacobian(residual, p, r0, prob.lower, prob.upper)
    central = np.empty_like(fwd)
    for j in range(p.size):
        h = max(1e-7, 1e-7 * abs(p[j]))
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        central[:, j] = (residual(up) - residual(dn)) / (2.0 * h)
    big = np.abs(central) > 1e-3 * np.max(np.abs(central))
    rel = np.abs(fwd[big] - central[big]) / np.abs(central[big])
    assert np.max(rel) < 1e-4


def test_scale_changes_the_path_not_the_answer():
    x = np.linspace(0.0, 2.0, 40)
    y = 1.7 * np.exp(-0.8 * x) + 0.05 * np.cos(7.0 * x)

    def fit(scale):
        return least_squares(FitProblem(
            names=("a", "k"), x0=np.array([1.0, 1.0]),
            lower=np.array([0.0, 0.0]), upper=np.array([10.0, 10.0]),
            residual_fn=lambda p: p[0] * np.exp(-p[1] * x) - y, scale=scale))

    unit, scaled = fit(None), fit([250.0, 4e-3])
    assert np.allclose(scaled.params, unit.params, rtol=1e-6, atol=0.0)
    assert np.allclose(scaled.covariance, unit.covariance, rtol=1e-6, atol=0.0)
    assert scaled.cost == pytest.approx(unit.cost, rel=1e-9)


def test_covariance_symmetric_psd_and_scales_with_counts():
    x = np.linspace(0.0, 3.0, 60)
    rng = np.random.default_rng(5)

    def fit_once(scale, seed_offset):
        rngl = np.random.default_rng(1000 + seed_offset)
        truth = scale * 40.0 * np.exp(-x)
        data = rngl.poisson(truth).astype(float)
        sigma = np.sqrt(np.maximum(data, 1.0))

        def residual(p):
            return (p[0] * np.exp(-p[1] * x) - data) / sigma

        prob = FitProblem(names=("a", "k"),
                          x0=np.array([scale * 40.0 * 1.2, 0.9]),
                          lower=np.array([1e-6, 0.1]),
                          upper=np.array([1e12, 10.0]),
                          residual_fn=residual)
        return least_squares(prob)

    res = fit_once(1.0, 0)
    cov = res.covariance
    assert np.allclose(cov, cov.T, atol=1e-8 * np.max(np.abs(cov)))
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-8 * np.max(np.abs(cov))

    # Baselines high enough that sqrt(n) weighting is in its asymptotic
    # regime; otherwise the low-count side scatters extra.
    ks_low = [fit_once(10.0, i).params[1] for i in range(50)]
    ks_high = [fit_once(1000.0, 200 + i).params[1] for i in range(50)]
    ratio = np.std(ks_high) / np.std(ks_low)
    assert 0.08 < ratio < 0.12


def make_envelope():
    fwhm = 5.7 * math.pi / (2 * math.pi * 370e6 * GAUSSIAN_AREA_FACTOR)
    grid = np.arange(0.0, 40e-9, 0.05e-9)
    return SampledEnvelope(grid, np.exp(-2 * math.log(2)
                                        * ((grid - 14e-9) / fwhm) ** 2))


def test_fit_trace_round_trip_with_poisson_noise():
    env = make_envelope()
    s_true = 2 * math.pi * 370e6
    data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
    expected = trace_model(data_t, env, EM, s_true, 3.1e-9, 40.0, 1e5)
    counts = np.random.default_rng(11).poisson(expected).astype(float)
    fit = fit_trace(data_t, counts, env, EM)
    assert abs(fit.omega_max / s_true - 1.0) < 0.02
    true_area = pulse_area(DriveField.single(env.scaled(s_true)))
    assert abs(fit.area / true_area - 1.0) < 0.02


def test_fit_trace_zero_noise_exact():
    env = make_envelope()
    s_true = 2 * math.pi * 370e6
    data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
    expected = trace_model(data_t, env, EM, s_true, 3.1e-9, 40.0, 1e5)
    fit = fit_trace(data_t, expected, env, EM)
    weighted = expected / np.sqrt(np.maximum(expected, 1.0))
    assert fit.result.cost < 1e-15 * float(weighted @ weighted)
    assert fit.omega_max == pytest.approx(s_true, rel=1e-7)


def test_fit_trace_reparametrization_invariance():
    env = make_envelope()
    s_true = 2 * math.pi * 370e6
    data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
    expected = trace_model(data_t, env, EM, s_true, 3.1e-9, 40.0, 1e5)
    counts = np.random.default_rng(3).poisson(expected).astype(float)
    fit1 = fit_trace(data_t, counts, env, EM)
    fit2 = fit_trace(data_t, counts, env.scaled(4.2), EM)
    assert fit2.omega_max == pytest.approx(fit1.omega_max, rel=1e-9)
    assert fit2.area == pytest.approx(fit1.area, rel=1e-9)


def grid_start_reference(model_values, scales, t0_grid, counts, sigma, b_init):
    """The per-point loop that _grid_start replaced."""
    best = None
    for s in scales:
        for t0 in t0_grid:
            m = model_values(s, t0)
            denom = float(m @ m)
            if denom <= 0:
                continue
            c = max(float(m @ (counts - b_init)) / denom, 1e-12)
            r = (c * m + b_init - counts) / sigma
            cost = float(r @ r)
            if best is None or cost < best[0]:
                best = (cost, np.array([s, t0, b_init, c]))
    return best[1]


@pytest.mark.parametrize("peak_mhz", [370.0, 162.0], ids=["5.7pi", "2.5pi"])
def test_grid_start_picks_the_reference_grid_point(peak_mhz, monkeypatch):
    env = make_envelope()
    data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
    expected = trace_model(data_t, env, EM, 2 * math.pi * peak_mhz * 1e6,
                           3.1e-9, 40.0, 1e5)
    counts = np.random.default_rng(11).poisson(expected).astype(float)
    grid_start = fitting._grid_start
    calls = []

    def spy(*args):
        calls.append((args, grid_start(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fitting, "_grid_start", spy)
    fit_trace(data_t, counts, env, EM)
    (args, x0), = calls
    assert len(args[1]) >= 4 and len(args[2]) == 241
    ref = grid_start_reference(*args)
    assert x0[:3].tolist() == ref[:3].tolist()
    assert x0[3] == pytest.approx(ref[3], rel=1e-12)


def test_fit_trace_rejects_short_tail():
    env = make_envelope()
    data_t = np.arange(0.25e-9, 45e-9, 0.5e-9)
    with pytest.raises(DegenerateTail):
        fit_trace(data_t, np.ones(data_t.size), env, EM)


def test_fit_result_accessors():
    res = least_squares(linear_problem())
    assert isinstance(res, FitResult)
    assert res.param("p") == pytest.approx(3.7)
    assert res.stderr("p") >= 0.0
    with pytest.raises(ValueError):
        res.names.index("missing")
