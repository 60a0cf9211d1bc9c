"""Closed-form oracles and ``CHECKS``, the scenarios ``rabisim selftest`` and
the tests hold to them; each returns ``(gap from the closed form, evidence)``."""

from __future__ import annotations

import math

import numpy as np

from .bloch import BlochState, EmitterModel, integrate, solve_emission
from .detection import _JumpEngine, _emission_times_batch
from .pulses import (PLANCK, SPEED_OF_LIGHT, DriveField, GaussianEnvelope,
                     GAUSSIAN_AREA_FACTOR, RectangularEnvelope,
                     photons_per_pulse, pulse_area)

EMITTER = EmitterModel.from_lifetime(9.5e-9)
ZERO_FIELD = DriveField.single(GaussianEnvelope(peak=0.0, fwhm=1e-9))


def analytic_rabi(omega: float, detuning: float, t) -> np.ndarray:
    """Undamped Rabi formula ``(O^2/(O^2+D^2)) sin^2(sqrt(O^2+D^2) t / 2)``."""
    gen2 = omega * omega + detuning * detuning
    out = ((omega * omega / gen2 if gen2 else 0.0)
           * np.sin(0.5 * math.sqrt(gen2) * np.asarray(t, dtype=float)) ** 2)
    return out if out.shape else float(out)


def steady_state(emitter: EmitterModel, omega: float) -> BlochState:
    """Closed-form CW steady state for a constant real drive amplitude."""
    if emitter.gamma1 <= 0:
        raise ValueError("steady state requires gamma1 > 0")
    g1, g2, det = emitter.gamma1, emitter.gamma2, emitter.detuning
    sat = omega * omega * g2 / g1
    rho = 0.5 * sat / (det * det + g2 * g2 + sat)
    return BlochState(rho, complex(0.5j * omega * (2.0 * rho - 1.0) / (1j * det - g2)))


def _driven(em: EmitterModel, omega: float, span: float, dt: float):
    field = DriveField.single(RectangularEnvelope(omega, span, 0.5 * span))
    return integrate(em, field, BlochState(0.0), (0.0, span), dt)


def rabi_flopping(detuning_ratio: float):
    """Ten undamped periods at 2 pi 125 MHz, detuned by ratio x drive."""
    omega, det = 2.0 * math.pi * 125e6, 2.0 * math.pi * 125e6 * detuning_ratio
    span = 20.0 * math.pi / math.hypot(omega, det)
    traj = _driven(EmitterModel(0.0, 0.0, det), omega, span, span / 4000)
    return np.max(np.abs(traj.rho_ee - analytic_rabi(omega, det, traj.times))), traj


def free_decay():
    """Relative gap of an excited start to e^{-Gamma1 t} over 60 ns."""
    traj = integrate(EMITTER, ZERO_FIELD, BlochState(1.0), (0.0, 60e-9), 0.05e-9)
    return np.max(np.abs(traj.rho_ee / np.exp(-EMITTER.gamma1 * traj.times) - 1.0)), traj


def cw_steady_state():
    """Gaps to :func:`steady_state` after 50 T1 of weak to strong CW drive."""
    cases = [(EMITTER.with_detuning(d * EMITTER.gamma1), o * EMITTER.gamma1)
             for d, o in ((0.4, 1.7), (-2.8, 0.2), (2.5, 4.0))]
    gaps = [abs(_driven(em, om, 50 * em.lifetime, em.lifetime / 10).rho_ee[-1]
                - steady_state(em, om).rho_ee) for em, om in cases]
    return max(gaps), gaps


def gaussian_area():
    area = pulse_area(DriveField.single(GaussianEnvelope(peak=1.3e9, fwhm=4e-9)))
    return abs(area / (1.3e9 * 4e-9 * GAUSSIAN_AREA_FACTOR) - 1.0), area


def photon_budget():
    """The power of 500 photons per 700 kHz pulse at 589 nm, read back."""
    power = 500.0 * 700e3 * PLANCK * SPEED_OF_LIGHT / 589e-9
    return abs(photons_per_pulse(power, 700e3, 589e-9) / 500.0 - 1.0), power


def batch_emission():
    """Photons per period of the scans' and maps' batch solve vs DOP853."""
    fld = DriveField.single(GaussianEnvelope(peak=2.0e9, fwhm=4e-9, center=10e-9))
    sup, em = fld.support(), EMITTER.with_detuning(2.0 * math.pi * 40e6)
    signal = solve_emission(fld, 1.0, em.detuning, em.gamma1, em.gamma2,
                            sup, 1.4e-6)
    ref = integrate(em, fld, BlochState(0.0), sup, (sup[1] - sup[0]) / 4000)
    want = (em.gamma1 * np.trapezoid(ref.rho_ee, ref.times)
            - ref.rho_ee[-1] * np.expm1(-em.gamma1 * (1.4e-6 - sup[1] + sup[0])))
    return abs(signal[0, 0] - want), signal


def jump_decay():
    """Mean emission time of 1e5 excited periods, in standard errors from T1."""
    ids = np.arange(100_000, dtype=np.int64)
    out = _emission_times_batch(_JumpEngine(EMITTER, ZERO_FIELD, 0.0, 2e-6),
                                17, ids, BlochState(1.0))
    return abs(np.mean(out[2]) / EMITTER.lifetime - 1.0) * math.sqrt(ids.size), out


#: (name, scenario, bound): a check passes when its scenario's gap < bound.
CHECKS = (
    ("undamped resonant Rabi vs sin^2", lambda: rabi_flopping(0.0), 1e-6),
    ("detuned Rabi vs generalized formula", lambda: rabi_flopping(1.0), 1e-6),
    ("free decay exact", free_decay, 1e-9),
    ("CW steady state vs long integration", cw_steady_state, 1e-6),
    ("Gaussian area closed form", gaussian_area, 1e-7),
    ("photon budget arithmetic", photon_budget, 1e-12),
    ("batch integrator vs reference", batch_emission, 1e-5),
    ("jump process exponential mean", jump_decay, 4.0),
)


def run_selftest() -> int:
    """Print one line per check and the pass count; 0 if all pass, else 4."""
    passed = 0
    for name, scenario, bound in CHECKS:
        gap = scenario()[0]
        passed += bool(gap < bound)
        print(f"{'ok  ' if gap < bound else 'FAIL'} {name}  (gap {gap:.2e}, bound {bound:g})")
    print(f"{passed}/{len(CHECKS)} checks passed")
    return 0 if passed == len(CHECKS) else 4
