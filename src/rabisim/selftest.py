"""Built-in analytic-oracle checks, runnable from the CLI.

Quick closed-form cross-checks of the numerical core: undamped Rabi
flopping, free decay, CW steady state, Gaussian pulse areas, photon
bookkeeping, batch-vs-reference integrator agreement, and the
exponential-decay statistics of the jump process.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import (BlochState, EmitterModel, analytic_rabi, integrate,
                    solve_emission, steady_state)
from .detection import _JumpEngine, _emission_times_batch
from .pulses import (DriveField, GaussianEnvelope, GAUSSIAN_AREA_FACTOR,
                     RectangularEnvelope, photons_per_pulse, pulse_area)


def run_selftest() -> int:
    """Print one line per check and the pass count; 0 if all pass, else 4."""
    checks = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail else ""))

    omega = 2.0 * math.pi * 125e6
    period = 2.0 * math.pi / omega
    span = 10.0 * period
    rect = DriveField.single(RectangularEnvelope(peak=omega, duration=span,
                                                 center=0.5 * span))
    free = EmitterModel(gamma1=0.0, gamma2=0.0)
    traj = integrate(free, rect, BlochState(0.0), (0.0, span), span / 2000)
    err = float(np.max(np.abs(traj.rho_ee - analytic_rabi(omega, 0.0, traj.times))))
    check("undamped resonant Rabi vs sin^2", err < 1e-6, f"max err {err:.2e}")

    det = EmitterModel(gamma1=0.0, gamma2=0.0, detuning=omega)
    traj = integrate(det, rect, BlochState(0.0), (0.0, span), span / 2000)
    err = float(np.max(np.abs(traj.rho_ee - analytic_rabi(omega, omega, traj.times))))
    check("detuned Rabi vs generalized formula", err < 1e-6, f"max err {err:.2e}")

    em = EmitterModel.from_lifetime(9.5e-9)
    zero = DriveField.single(GaussianEnvelope(peak=0.0, fwhm=1e-9))
    traj = integrate(em, zero, BlochState(1.0), (0.0, 60e-9), 0.1e-9)
    rel = float(np.max(np.abs(traj.rho_ee / np.exp(-em.gamma1 * traj.times) - 1.0)))
    check("free decay exact", rel < 1e-9, f"max rel {rel:.2e}")

    cw = EmitterModel.from_lifetime(9.5e-9, detuning=0.4 * em.gamma1)
    om_cw = 1.7 * em.gamma1
    drive = DriveField.single(RectangularEnvelope(peak=om_cw, duration=80 * cw.lifetime,
                                                  center=40 * cw.lifetime))
    traj = integrate(cw, drive, BlochState(0.0), (0.0, 50 * cw.lifetime),
                     cw.lifetime / 10)
    gap = abs(float(traj.rho_ee[-1]) - steady_state(cw, om_cw).rho_ee)
    check("CW steady state vs long integration", gap < 1e-6, f"gap {gap:.2e}")

    gauss = GaussianEnvelope(peak=1.3e9, fwhm=4e-9)
    area = pulse_area(DriveField.single(gauss))
    closed = gauss.peak * gauss.fwhm * GAUSSIAN_AREA_FACTOR
    rel = abs(area / closed - 1.0)
    check("Gaussian area closed form", rel < 1e-7, f"rel {rel:.2e}")

    n = photons_per_pulse(1.180411e-10, 700e3, 589e-9)
    check("photon budget arithmetic", abs(n - 500.0) < 0.05, f"n {n:.3f}")

    # Emitted photons per period of the batch solve that scans and maps
    # call, against the window's trapezoid integral and end state.
    fld = DriveField.single(GaussianEnvelope(peak=2.0e9, fwhm=4e-9, center=10e-9))
    sup = fld.support()
    emf = EmitterModel.from_lifetime(9.5e-9, detuning=2.0 * math.pi * 40e6)
    signal, _ = solve_emission(fld, 1.0, emf.detuning, emf.gamma1, emf.gamma2,
                               sup, 1.4e-6)
    ref = integrate(emf, fld, BlochState(0.0), sup, (sup[1] - sup[0]) / 4000)
    rho = ref.rho_ee
    integral = 0.5 * np.sum(np.diff(ref.times) * (rho[1:] + rho[:-1]))
    want = (emf.gamma1 * integral
            - rho[-1] * np.expm1(-emf.gamma1 * (1.4e-6 - sup[1] + sup[0])))
    gap = abs(float(signal[0, 0]) - float(want))
    check("batch integrator vs reference", gap < 1e-5, f"gap {gap:.2e}")

    engine = _JumpEngine(em, zero, 0.0, 300e-9)
    ids = np.arange(4000, dtype=np.int64)
    times = _emission_times_batch(engine, 20240, ids, BlochState(1.0))[2]
    mean = float(np.mean(times))
    tol = 4.0 * em.lifetime / math.sqrt(ids.size)
    check("jump process exponential mean", abs(mean - em.lifetime) < tol,
          f"mean {mean * 1e9:.3f} ns")

    failures = [name for name, ok in checks if not ok]
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 0 if not failures else 4
