"""Integrating-factor ("Lawson") RK4 batch integrator, a test reference.

An independent fixed-step solver of the Bloch equations for the batch
tests: the constant linear part -- decay exp(-Gamma1 h) of rho_ee,
precession and dephasing exp((i Delta - Gamma2) h) of rho12 -- is applied
exactly per batch member, and classical RK4 sees only the drive coupling and
the running integral of rho_ee (Lawson, SIAM J. Numer. Anal. 4, 372 (1967);
Hochbruck & Ostermann, Acta Numer. 19, 209 (2010)). Its step follows the
local drive bound on each of the program's window pieces. Tests that are
too wide for a DOP853 solve per point (whole maps, a scan's draws) compare
the Dyson propagator with it, refined where their bound asks for it.
"""

import math

import numpy as np

from rabisim.bloch import window_pieces

#: Target phase per step (rad). A piece with drive bound W and rate bound
#: R = |Delta| + W + |chirp| + Gamma1 takes steps h = PHASE_STEP /
#: max((W R^4)^(1/5), Gamma1): the Lawson local error scales as W R^4 h^5,
#: and a drive-free piece only has to resolve the decay in the rho_ee
#: integral.
PHASE_STEP = 0.08


def schedule(field, t_span, max_detuning: float, gamma1: float):
    """Step schedule ``[(a, b, n_steps), ...]`` on the window pieces.

    ``field`` bounds the drive of every batch member and ``max_detuning``
    their |Delta|; every piece takes at least one step.
    """
    base = abs(max_detuning) + field.max_abs_chirp() + gamma1
    out = []
    for a, b in window_pieces(field, t_span):
        drive = field.max_amplitude_on(a, b)
        rate = max((drive * (base + drive) ** 4) ** 0.2, gamma1)
        out.append((a, b, max(1, math.ceil((b - a) * rate / PHASE_STEP))))
    return out


def integrate_batch(omega_of_t, detuning, gamma1, gamma2, t_span,
                    n_steps: int, initial=None):
    """Fixed-step solve over one schedule segment.

    ``omega_of_t(t)`` returns every batch member's Rabi frequency at scalar
    time t; it and the rates broadcast to the batch shape. The drive is
    sampled as one-sided limits inside ``t_span``. ``initial`` is the tuple a
    previous segment returned; None starts from the ground state. Returns
    ``(rho_end, rho12_end, integral, rho_peak)``, with ``rho_peak`` the
    largest excited population on the step grid.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / n_steps
    nudge = 1e-9 * (t1 - t0)
    om_a = np.asarray(omega_of_t(t0 + nudge))
    det = np.asarray(detuning, dtype=float)
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    if initial is None:
        shape = np.broadcast_shapes(om_a.shape, det.shape, g1.shape, g2.shape)
        rho, coh = np.zeros(shape), np.zeros(shape, dtype=complex)
        acc, peak = np.zeros(shape), np.zeros(shape)
    else:
        rho, coh, acc, peak = initial
    fr = np.exp(-0.5 * g1 * h)
    fc = np.exp((1j * det - g2) * (0.5 * h))
    hh, h6 = 0.5 * h, h / 6.0

    def coupling(om, rho, coh):
        return (om.conj() * coh).imag, -1j * om * (rho - 0.5)

    for k in range(n_steps):
        t = t0 + k * h
        om_m = np.asarray(omega_of_t(t + hh))
        om_b = np.asarray(omega_of_t(t1 - nudge if k == n_steps - 1 else t + h))
        # Stages live in the frame of t + h/2.
        rho_e, coh_e = fr * rho, fc * coh
        k1r, k1c = coupling(om_a, rho, coh)
        k1r, k1c = fr * k1r, fc * k1c
        rho2, coh2 = rho_e + hh * k1r, coh_e + hh * k1c
        k2r, k2c = coupling(om_m, rho2, coh2)
        rho3, coh3 = rho_e + hh * k2r, coh_e + hh * k2c
        k3r, k3c = coupling(om_m, rho3, coh3)
        rho4, coh4 = fr * (rho_e + h * k3r), fc * (coh_e + h * k3c)
        k4r, k4c = coupling(om_b, rho4, coh4)
        acc = acc + h6 * (rho + 2.0 * (rho2 + rho3) + rho4)
        rho = fr * (rho_e + h6 * (k1r + 2.0 * (k2r + k3r))) + h6 * k4r
        coh = fc * (coh_e + h6 * (k1c + 2.0 * (k2c + k3c))) + h6 * k4c
        peak = np.maximum(peak, rho)
        om_a = om_b
    return rho, coh, acc, peak


def solve(field, detuning, gamma1, gamma2, t_span, max_detuning=None):
    """Step ``field`` over its whole schedule on ``t_span``; the final
    ``(rho_end, rho12_end, integral, rho_peak)``."""
    if max_detuning is None:
        max_detuning = float(np.max(np.abs(detuning)))
    state = None
    for a, b, n in schedule(field, t_span, max_detuning,
                            float(np.max(gamma1))):
        state = integrate_batch(field.rabi, detuning, gamma1, gamma2,
                                (a, b), n, initial=state)
    return state
