"""Optical Bloch equations for a driven, damped two-level emitter.

Rotating frame, rotating-wave approximation. With ``rho12`` the ground-
excited coherence and ``Delta = omega_laser - omega_0``:

    d(rho_ee)/dt = -Gamma1 rho_ee + Im(conj(Omega) rho12)
    d(rho12)/dt  = (i Delta - Gamma2) rho12 - (i/2) Omega(t) (2 rho_ee - 1)

Only |Omega| and relative component phases affect the populations, so the
drive is taken with a positive sign convention. A linear chirp on one
component is equivalent to shifting that component's detuning; the
integrator consumes the complex Omega(t) directly so arbitrary
multi-component fields with distinct chirps need no special casing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvariantBreach, StepFailure
from .pulses import DriveField, SUPPORT_CUTOFF

_STATE_TOL = 1e-9


@dataclass(frozen=True)
class EmitterModel:
    """Two-level emitter: population decay, coherence decay, detuning (rad/s)."""

    gamma1: float
    gamma2: float | None = None
    detuning: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0:
            raise ValueError("gamma1 must be >= 0")
        if self.gamma2 is None:
            object.__setattr__(self, "gamma2", 0.5 * self.gamma1)
        if self.gamma2 < 0.5 * self.gamma1 - 1e-15 * self.gamma1:
            raise ValueError("gamma2 must be >= gamma1 / 2")
        if not (math.isfinite(self.gamma1) and math.isfinite(self.gamma2)
                and math.isfinite(self.detuning)):
            raise ValueError("emitter parameters must be finite")

    @classmethod
    def from_lifetime(cls, t1: float, detuning: float = 0.0,
                      pure_dephasing: float = 0.0) -> "EmitterModel":
        """Build from an excited-state lifetime; Gamma2 = Gamma1/2 + dephasing."""
        if t1 <= 0:
            raise ValueError("lifetime must be > 0")
        g1 = 1.0 / t1
        return cls(gamma1=g1, gamma2=0.5 * g1 + pure_dephasing, detuning=detuning)

    @property
    def lifetime(self) -> float:
        return 1.0 / self.gamma1

    @property
    def pure_dephasing(self) -> float:
        return self.gamma2 - 0.5 * self.gamma1

    def with_detuning(self, detuning: float) -> "EmitterModel":
        return EmitterModel(self.gamma1, self.gamma2, detuning)


@dataclass(frozen=True)
class BlochState:
    """Excited population and rotating-frame coherence of the density matrix."""

    rho_ee: float
    coherence: complex = 0j

    def __post_init__(self):
        if not (-_STATE_TOL <= self.rho_ee <= 1.0 + _STATE_TOL):
            raise ValueError(f"rho_ee out of [0, 1]: {self.rho_ee!r}")
        purity_gap = self.rho_ee * (1.0 - self.rho_ee) - abs(self.coherence) ** 2
        if purity_gap < -_STATE_TOL:
            raise ValueError("coherence violates density-matrix positivity")


@dataclass(frozen=True, eq=False)
class BlochTrajectory:
    """Sampled Bloch dynamics on a uniform time grid, with drive metadata."""

    times: np.ndarray
    rho_ee: np.ndarray
    coherence: np.ndarray
    detuning: float
    field_hash: str

    def __len__(self) -> int:
        return self.times.size

    @property
    def final_state(self) -> BlochState:
        return BlochState(float(self.rho_ee[-1]), complex(self.coherence[-1]))


def _free_evolution(emitter: EmitterModel, rho, coh, tau):
    """Exact drive-free evolution over lags tau >= 0 (scalars or arrays)."""
    return (rho * np.exp(-emitter.gamma1 * tau),
            coh * np.exp((1j * emitter.detuning - emitter.gamma2) * tau))


def _rhs(t, y, field: DriveField, g1: float, g2: float, det: float):
    rho, x, w = y
    om = field.rabi(t)
    omr, omi = om.real, om.imag
    inv = 2.0 * rho - 1.0
    return (
        -g1 * rho + (omr * w - omi * x),
        -g2 * x - det * w + 0.5 * omi * inv,
        det * x - g2 * w - 0.5 * omr * inv,
    )


def integrate(emitter: EmitterModel, field: DriveField, initial: BlochState,
              t_span, dt_out: float, rtol: float = 1e-9,
              atol: float = 1e-12) -> BlochTrajectory:
    """Integrate the Bloch equations, sampling the solution every ``dt_out``.

    Internal stepping is the adaptive embedded Runge-Kutta pair DOP853 with
    dense output at the requested grid, over the span where some envelope
    exceeds ``SUPPORT_CUTOFF`` of its peak. Before and after that span the
    evolution is drive-free and takes the exact free-evolution formula.
    Rectangular edges and sampled-grid boundaries split the integration so
    discontinuities land on segment endpoints.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt_out <= 0:
        raise ValueError("dt_out must be > 0")
    if t1 < t0:
        raise ValueError("t_span must be ordered")
    n_out = int(math.floor((t1 - t0) / dt_out * (1.0 + 1e-12))) + 1
    times = t0 + dt_out * np.arange(n_out)

    rho = np.empty(n_out)
    coh = np.empty(n_out, dtype=complex)

    support = field.support(SUPPORT_CUTOFF)
    t_on, t_off = (t1, t1) if support is None else (
        min(max(s, t0), t1) for s in support)

    drive_phase = t_on < t_off
    lead = times <= t_on if drive_phase else np.ones(n_out, dtype=bool)
    rho[lead], coh[lead] = _free_evolution(
        emitter, initial.rho_ee, initial.coherence, times[lead] - t0)

    if drive_phase:
        r0, c0 = _free_evolution(emitter, initial.rho_ee, initial.coherence,
                                 t_on - t0)
        y = np.array([r0, c0.real, c0.imag])
        cuts = [t_on] + [b for b in field.breakpoints()
                         if t_on < b < t_off] + [t_off]
        max_step = max(field.min_feature_time() / 4.0, 4.0 * dt_out * 1e-3)
        out_idx = np.nonzero(~lead)[0]
        out_times = times[~lead]
        pos = 0
        fuzz = 1e-12 * max(abs(t1 - t0), dt_out)
        for a, b in zip(cuts[:-1], cuts[1:]):
            # Consume output points in order so roundoff near a cut cannot
            # assign a point to both neighboring segments.
            end = int(np.searchsorted(out_times, b + fuzz, side="right"))
            sel = np.minimum(out_times[pos:end], b)
            # The segment end is evaluated too: it carries the state on.
            t_eval = sel if sel.size and sel[-1] == b else np.append(sel, b)
            sol = solve_ivp(
                _rhs, (a, b), y, method="DOP853", t_eval=t_eval,
                rtol=rtol, atol=atol, max_step=max_step,
                args=(field, emitter.gamma1, emitter.gamma2, emitter.detuning),
            )
            if not sol.success:
                raise StepFailure(f"integration failed on [{a!r}, {b!r}]: {sol.message}")
            idx = out_idx[pos:end]
            rho[idx] = sol.y[0, :sel.size]
            coh[idx] = sol.y[1, :sel.size] + 1j * sol.y[2, :sel.size]
            pos = end
            y = sol.y[:, -1]
        tail = out_idx[pos:]
        rho[tail], coh[tail] = _free_evolution(
            emitter, y[0], complex(y[1], y[2]), times[tail] - t_off)

    _check_invariants(rho, coh)
    return BlochTrajectory(times=times, rho_ee=rho, coherence=coh,
                           detuning=emitter.detuning,
                           field_hash=field.content_hash())


def _check_invariants(rho, coh, tol: float = 1e-6):
    if np.any(rho < -tol) or np.any(rho > 1.0 + tol):
        raise InvariantBreach("excited population left [0, 1] beyond tolerance")
    gap = rho * (1.0 - rho) - np.abs(coh) ** 2
    if np.any(gap < -tol):
        raise InvariantBreach("coherence violates positivity beyond tolerance")


# ---------------------------------------------------------------------------
# Dyson propagator for scans and maps.
#
# Scans and maps integrate thousands of parameter points over a common
# window, and both drive every point with a real amplitude times one known
# unit drive f: a map's grid point with |a| f(t) at its detuning column, a
# scan's point, in the time frame of its longest draw, with its frame peak
# times the unit pulse of its duration column under that column's rates.
# Over a step the interaction-frame propagator on (rho_ee, rho12,
# conj(rho12), 1) is then the Dyson series sum_n a^n J_n, and the J_n
# depend only on the column. They are integrated once per column and step
# by Chebyshev-Lobatto spectral integration of f against the exact
# e^{(L_j - L_i) s} factors of the linear part, so the fast phase
# e^{+-i Delta s} is integrated exactly against the slow drive (Iserles,
# BIT 42, 561 (2002); Hochbruck & Ostermann, Acta Numer. 19, 209 (2010)),
# and only the drive sets the step. Those factors and the quadrature weights
# depend only on the step length, the nodes and the columns' rates, so a
# solve builds them once per distinct step and a step multiplies its
# sampled f into them. The sum over n at every point is a polynomial in a:
# for the whole batch it is one real matrix product per parity, the
# (amplitudes x orders) Vandermonde in a^2 times the J_n stacked over the
# columns, and over a piece's steps where those are narrow. The bipartite
# coupling (rho_ee and 1 couple only to rho12 and its conjugate) makes odd
# and even J_n live on disjoint entries, and the real structure of the
# Bloch equations makes the conj(rho12) row the conjugate of the rho12 row,
# so about 3 of the 12 entries per order are integrated.
# :func:`window_pieces` cuts the window at the drive's breakpoints, so a
# jump in the drive costs no order, and :func:`dyson_schedule` plans each
# piece from its local drive bound.
# :func:`solve_emission` is the one batch solve that maps and scans call:
# it plans the window from the batch's own bounds, checks the work budget,
# steps every piece with :func:`propagate_dyson` and returns the emitted
# photons per period.
# ---------------------------------------------------------------------------

#: Uniform pieces a schedule cuts its window into, before breakpoint cuts.
BATCH_PIECES = 48

#: Work budget of one scan or sweep, in point-steps (batch width x steps; a
#: Dyson step of order p counts p + 1). The largest test scan (240 amplitudes
#: x 2000 jitter draws) is checked at ~7.1e8.
MAX_BATCH_POINT_STEPS = 10 ** 10

#: Largest drive bound x step (rad) of a Dyson step.
DYSON_STEP = 0.5

#: Largest (Gamma1 + Gamma2) x step of a Dyson step. The interaction
#: frame grows like e^{(Gamma1 + Gamma2) s} over a step, and the Dyson
#: recursion loses digits to that growth (at 16 it loses 4, at 32 all).
DYSON_DAMPING = 4.0

#: Dyson tail (W h)^(p+1)/(p+1)! that a step's order p reaches.
DYSON_TAIL = 1e-12

#: Chebyshev-Lobatto nodes per step: DYSON_NODES_PER_RAD per unit of the
#: fastest rate (2 (|Delta| + |chirp|) + Gamma1 + Gamma2 + W) x h of the
#: Dyson terms, plus DYSON_NODES_PER_FEATURE per envelope feature time in h,
#: plus DYSON_MIN_NODES. Steps are cut further where that would exceed
#: DYSON_MAX_NODES. 0.55 per radian keeps a doubling of the nodes below
#: 1e-12 on a map whose third component sits 2400 MHz off its carrier.
DYSON_NODES_PER_RAD = 0.55
DYSON_NODES_PER_FEATURE = 4.0
DYSON_MIN_NODES = 8
DYSON_MAX_NODES = 128

#: Step frames a solve keeps for later pieces to reuse, the oldest dropped
#: first. The bench map steps 9 distinct steps on 48 pieces; a rectangle
#: whose edges differ per column gives most pieces a step of their own, and
#: the bound keeps their frames from piling up.
DYSON_FRAMES = 16


def window_pieces(field: DriveField, t_span):
    """Pieces ``[(a, b), ...]`` covering ``t_span``: ``BATCH_PIECES`` uniform
    cuts plus a cut at every breakpoint of ``field`` inside, every batch
    member's edges included, so a jump in the drive falls on a piece edge
    and costs a stepper no order."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    inner = [b for b in field.breakpoints() if t0 < b < t1]
    edges = np.unique(np.concatenate(
        [np.linspace(t0, t1, BATCH_PIECES + 1), inner]))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def check_batch_work(point_steps: float) -> None:
    """Raise StepFailure when a batch solve exceeds the work budget."""
    if point_steps > MAX_BATCH_POINT_STEPS:
        raise StepFailure(
            f"batch solve needs {point_steps:.3g} point-steps, over the budget "
            f"of {MAX_BATCH_POINT_STEPS:.3g}; reduce the grid or the window")


def dyson_plan(drive: float, length: float, max_offset: float,
               damping: float, feature_time: float):
    """``(n_steps, order, n_nodes)`` of a Dyson-stepped piece.

    ``drive`` bounds |Omega| on the piece and ``length`` is its duration.
    ``max_offset`` bounds |Delta| + |chirp|, how far any drive component is
    tuned from the emitter: the Dyson terms oscillate at up to twice that.
    ``damping`` is Gamma1 + Gamma2 and ``feature_time`` the shortest time
    scale of the drive's envelopes. Steps keep drive x h at most
    ``DYSON_STEP`` and damping x h at most ``DYSON_DAMPING``; the order is
    the smallest p whose Dyson tail (drive h)^(p+1)/(p+1)! is at most
    ``DYSON_TAIL``.
    """
    nodes = (DYSON_NODES_PER_RAD * (2.0 * max_offset + damping + drive)
             + DYSON_NODES_PER_FEATURE / feature_time) * length
    n_steps = max(1, math.ceil(drive * length / DYSON_STEP),
                  math.ceil(damping * length / DYSON_DAMPING),
                  math.ceil(nodes / (DYSON_MAX_NODES - DYSON_MIN_NODES)))
    wh = drive * length / n_steps
    order, tail = 0, wh
    while tail > DYSON_TAIL:
        order += 1
        tail *= wh / (order + 1)
    return n_steps, order, math.ceil(nodes / n_steps) + DYSON_MIN_NODES


def dyson_schedule(field: DriveField, t_span, max_detuning: float,
                   damping: float, scale: float = 1.0):
    """Plan ``[(a, b, n_steps, order, n_nodes), ...]`` of ``field``'s
    :func:`window_pieces` on ``t_span``, each piece by :func:`dyson_plan`.

    ``scale`` times ``field`` bounds every batch point's drive,
    ``max_detuning`` its |Delta| and ``damping`` its Gamma1 + Gamma2.
    """
    offset = abs(max_detuning) + field.max_abs_chirp()
    feature = field.min_feature_time()
    return [(a, b, *dyson_plan(scale * field.max_amplitude_on(a, b), b - a,
                               offset, damping, feature))
            for a, b in window_pieces(field, t_span)]


def schedule_work(schedule) -> int:
    """Point-steps per batch point of a :func:`dyson_schedule`: a step of
    order p updates each point with a degree-p polynomial in its amplitude,
    so it counts p + 1."""
    return sum(n * (order + 1) for _, _, n, order, _ in schedule)


@functools.lru_cache(maxsize=DYSON_MAX_NODES)
def _lobatto_integration(n: int):
    """Chebyshev-Lobatto nodes x on [-1, 1], ascending, and the matrix Q
    with ``(Q g)[k]`` the integral from -1 to ``x[k]`` of g's interpolant
    (read-only: callers share them)."""
    cheb = np.polynomial.chebyshev
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    integrated = cheb.chebvander(x, n) @ cheb.chebint(np.eye(n), lbnd=-1.0)
    q = integrated @ np.linalg.inv(cheb.chebvander(x, n - 1))
    x.setflags(write=False)
    q.setflags(write=False)
    return x, q


def _dyson_frame(s, q, det, gamma1, gamma2):
    """The drive-free factors of :func:`_dyson_terms`, shared by every step
    of one length: at the step's nodes ``s`` (``q`` integrates on them) and
    the columns' detunings and rates (1-D, or one value for every column),
    ``(fu, fv, fw)`` of the interaction-frame couplings u = B[0,1] =
    conj(g) fu, v = B[1,0] = g fv and w = B[1,3] = g fw of a drive g, and
    the quadrature weights of the rho_ee integral, decay included, each
    shaped (nodes, 1, columns): the middle axis broadcasts over the steps
    that one pass of :func:`_dyson_terms` stacks."""
    s_col = s[:, None, None]
    spin = np.exp(1j * det * s_col)
    fu = -0.5j * np.exp((gamma1 - gamma2) * s_col) * spin
    fv = -1j * np.exp((gamma2 - gamma1) * s_col) * spin.conj()
    fw = 0.5j * np.exp(gamma2 * s_col) * spin.conj()
    return fu, fv, fw, q[-1][:, None, None] * np.exp(-gamma1 * s_col)


def _dyson_terms(g, frame, q, order: int):
    """Dyson terms J_n, n = 1..order, of a group of steps of one length,
    and the rows K_n of their rho_ee integral, for a unit drive ``g``
    sampled at the steps' nodes, shaped (nodes, steps, 1 or columns), in
    the :func:`_dyson_frame` ``frame`` of the steps (``q`` integrates on
    their nodes).

    Returns ``(odd, even)``: ``odd[m]`` stacks J[0,1], J[1,0] and J[1,3]
    of order 2m + 1 at each step's end, then K[0,1]; ``even[m]`` stacks
    J[0,0], J[0,3], J[1,1] and J[1,2] of order 2m + 2 at its end, then
    K[0,0] and K[0,3]; each over the steps and columns. Every other entry
    is zero or a conjugate of these.
    """
    fu, fv, fw, wts = frame
    u, v, w = g.conj() * fu, g * fv, g * fw
    n, cols = u.shape[0], u.shape[1:]
    odd = np.empty(((order + 1) // 2, 4) + cols, dtype=complex)
    even = np.empty((order // 2, 6) + cols, dtype=complex)
    # The integrands of an odd and of an even order.
    three = np.stack((u, v, w), axis=1)
    four = np.empty((n, 4) + cols, dtype=complex)

    def integrate(parts):
        out = (q @ parts.reshape(n, -1).view(float)).view(complex)
        return out.reshape(parts.shape).swapaxes(0, 1)

    def weigh(j):
        return np.add.reduce(wts * j, axis=0)

    for m in range(1, order + 1):
        i = (m - 1) // 2
        if m % 2:
            if m > 1:
                np.multiply(u, j11, out=three[:, 0])
                three[:, 0] += (u * j12).conj()
                np.multiply(v, j00, out=three[:, 1])
                np.multiply(v, j03, out=three[:, 2])
            j01, j10, j13 = integrate(three)
            odd[i, 0], odd[i, 1], odd[i, 2] = j01[-1], j10[-1], j13[-1]
            odd[i, 3] = weigh(j01)
        else:
            four[:, 0] = 2.0 * (u * j10).real
            four[:, 1] = 2.0 * (u * j13).real
            np.multiply(v, j01, out=four[:, 2])
            np.multiply(v, j01.conj(), out=four[:, 3])
            j00, j03, j11, j12 = integrate(four)
            j00, j03 = j00.real, j03.real
            e = even[i]
            e[0], e[1], e[2], e[3] = j00[-1], j03[-1], j11[-1], j12[-1]
            e[4], e[5] = weigh(j00), weigh(j03)
    return odd, even


def _powers(lead, x, n: int):
    """The real (rows, n) Vandermonde ``lead x^m``, m = 0..n-1, of the
    1-D ``lead`` and ``x``."""
    return lead[:, None] * x[:, None] ** np.arange(n)


def _power_sums(powers, coeffs):
    """``sum_m powers[:, m] coeffs[m]`` as one real matrix product.

    ``powers`` is a :func:`_powers` Vandermonde (rows, P) and ``coeffs``
    complex (P, k, ...), read as real (P, 2 k ...). Returns complex
    (k, rows, ...); zeros for P = 0. Each row of the result is its
    Vandermonde row times the same matrix.
    """
    p, k = coeffs.shape[:2]
    out = powers @ coeffs.reshape(p, math.prod(coeffs.shape[1:])).view(float)
    return out.view(complex).reshape((-1, k) + coeffs.shape[2:]).swapaxes(0, 1)


#: Node-columns (nodes x batch columns) up to which a piece stacks its
#: steps into one :func:`_dyson_terms` pass. A narrow step costs the fixed
#: overhead of its few dozen numpy calls, which a stack of steps shares: the
#: bench scan's steps are 9 x 11 = 99 wide, so each of its pieces (at most 8
#: steps) takes one pass. A wide step is bound by flops, which stacking
#: cannot share: the bench map, whose steps are at least 10 x 121 = 1210
#: wide, took 0.198 s stacked per piece against 0.176 s one step at a time
#: (median of 7, one BLAS thread).
DYSON_STACK = 1024


def propagate_dyson(unit_rabi, amplitudes, detunings, gamma1, gamma2, t_span,
                    n_steps: int, order: int, n_nodes: int, initial=None,
                    frames=None):
    """Dyson-series steps of a batch over one schedule piece.

    Batch point (i, j) is driven by ``amplitudes[i]`` times column j of
    ``unit_rabi(t)`` under detuning ``detunings[j]`` and rates
    ``gamma1[j]``, ``gamma2[j]``: ``unit_rabi`` takes a (times, 1) column
    and returns one unit drive for every column or one per column,
    ``amplitudes`` (real) is a 1-D axis of rows, and the detunings and
    rates are 1-D columns, a scalar acting as one value for every column.
    Each of the ``n_steps`` steps sums the Dyson series to ``order`` in the
    amplitude, with its terms integrated once per column on ``n_nodes``
    Chebyshev-Lobatto nodes (see :func:`dyson_plan`); the per-point sums
    are two real matrix products, the Vandermonde in amplitude^2 (odd
    orders lead with the amplitude, even ones with its square) times the
    steps' stacked terms. Steps are taken in groups of as many as keep
    nodes x columns (of the rates and the state) within ``DYSON_STACK``:
    a group samples the drive once, at all its steps' nodes, and takes
    one :func:`_dyson_terms` pass and two such products; only the state
    recursion runs step by step. ``initial`` is the state a previous piece
    returned; None starts from the ground state. ``frames``, a dict the
    caller keeps across pieces, caches the :func:`_dyson_frame` of each
    step length, node count and columns stepped so far, for later pieces
    to reuse.

    Returns ``(rho_end, rho12_end, integral)``, each shaped (amplitudes,
    columns): ``integral`` is the time integral of rho_ee since the start.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / n_steps
    amp = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    det, g1, g2 = (np.atleast_1d(np.asarray(x, dtype=float))
                   for x in (detunings, gamma1, gamma2))
    if amp.ndim != 1 or det.ndim != 1 or g1.ndim != 1 or g2.ndim != 1:
        raise ValueError("amplitude, detuning and rate axes must be 1-D")
    if initial is None:
        shape = (amp.size, np.broadcast_shapes(det.shape, g1.shape,
                                               g2.shape)[0])
        rho, coh = np.zeros(shape), np.zeros(shape, dtype=complex)
        acc = np.zeros(shape)
    else:
        rho, coh, acc = initial
    if frames is None:
        frames = {}
    fr = np.exp(-g1 * h)
    fc = np.exp((1j * det - g2) * h)
    # The rho_ee integral of a drive-free step, h in the limit Gamma1 = 0.
    k0 = np.where(g1 > 0, -np.expm1(-g1 * h) / np.where(g1 > 0, g1, 1.0), h)
    a2 = amp * amp
    p_odd = _powers(amp, a2, (order + 1) // 2)
    p_even = _powers(a2, a2, order // 2)
    group = n_steps
    odd = np.zeros((0, 4, n_steps, rho.shape[1]), dtype=complex)
    even = np.zeros((0, 6, n_steps, rho.shape[1]), dtype=complex)
    if order:
        x, q = _lobatto_integration(n_nodes)
        s, q = 0.5 * h * (x + 1.0), 0.5 * h * q
        key = (h, n_nodes, det.tobytes(), g1.tobytes(), g2.tobytes())
        if key not in frames:
            if len(frames) == DYSON_FRAMES:
                del frames[next(iter(frames))]
            frames[key] = _dyson_frame(s, q, det, g1, g2)
        frame = frames[key]
        cols = np.broadcast_shapes(rho.shape[1:], det.shape, g1.shape,
                                   g2.shape)[0]
        group = max(1, DYSON_STACK // (n_nodes * cols))
    # The drive is sampled as one-sided limits inside the piece, so a jump
    # on either end costs no order.
    nudge = 16.0 * np.spacing(abs(t0) + abs(t1))
    for first in range(0, n_steps, group):
        size = min(group, n_steps - first)
        if order:
            t = (t0 + np.arange(first, first + size) * h)[:, None] + s
            t[:, 0] = np.maximum(t[:, 0], t0 + nudge)
            t[:, -1] = np.minimum(t[:, -1], t1 - nudge)
            g = np.asarray(unit_rabi(t.reshape(-1, 1)), dtype=complex)
            g = g.reshape(size, n_nodes, -1).swapaxes(0, 1)
            odd, even = _dyson_terms(g, frame, q, order)
        j01, j10, j13, k01 = _power_sums(p_odd, odd)
        j00, j03, j11, j12, k00, k03 = _power_sums(p_even, even)
        for k in range(size):
            acc = (acc + (k0 + k00[:, k].real) * rho
                   + 2.0 * (k01[:, k] * coh).real + k03[:, k].real)
            rho, coh = (
                fr * ((1.0 + j00[:, k].real) * rho
                      + 2.0 * (j01[:, k] * coh).real + j03[:, k].real),
                fc * (j10[:, k] * rho + (1.0 + j11[:, k]) * coh
                      + j12[:, k] * coh.conj() + j13[:, k]))
    return rho, coh, acc


def solve_emission(field: DriveField, amplitudes, detunings, gamma1, gamma2,
                   window, rep_period: float, time_scale=1.0):
    """Emitted photons per period of a batch.

    Batch point (i, j) is driven by |``amplitudes[i]``| times column j of
    the unit drive ``field`` from the ground state over ``window``, under
    detuning ``time_scale * detunings`` and rates ``time_scale * gamma1``
    and ``time_scale * gamma2`` (1-D columns, a scalar acting as one value
    for every column). The time scale s is 1 for points solved in real
    time; a scan's frame columns (:func:`rabisim.jitter.frame_field`) run
    on a clock s times their own, so their window lasts s (w1 - w0) of
    real time. A point emits Gamma1 s times its rho_ee integral over the
    window, and then rho_ee at its end decays freely for the rest of the
    period T = ``rep_period``: the signal is Gamma1 s integral + rho_end
    (1 - e^{-Gamma1 (T - s (w1 - w0))}), with Gamma1 = ``gamma1``.

    The window's :func:`dyson_schedule` is bounded by the batch itself: its
    largest |amplitude|, the columns' largest |Delta| and their largest
    Gamma1 + Gamma2. Raises ValueError when ``rep_period`` is shorter than
    the window, and StepFailure before any step when the schedule's work
    for rows x columns (of the field, detunings and rates) exceeds the batch
    budget. Every piece steps with :func:`propagate_dyson`, sharing one
    frame cache, from a ground state as wide as those columns, so that each
    piece groups its steps by the batch's full width. Returns the signal,
    shaped (amplitudes, columns).
    """
    w0, w1 = window
    if rep_period < w1 - w0:
        raise ValueError(f"rep_period {rep_period:.3g} s is shorter than the "
                         f"{w1 - w0:.3g} s pulse window")
    amp = np.abs(np.asarray(amplitudes, dtype=float))
    det, g1, g2 = (time_scale * np.asarray(x, dtype=float)
                   for x in (detunings, gamma1, gamma2))
    schedule = dyson_schedule(field, window, float(np.max(np.abs(det))),
                              float(np.max(g1 + g2)),
                              scale=float(np.max(amp)))
    columns = np.broadcast_shapes(np.shape(field.rabi(np.array([[w0]]))),
                                  det.shape, g1.shape, g2.shape)
    check_batch_work(schedule_work(schedule) * amp.size * math.prod(columns))
    shape = (amp.size, math.prod(columns))
    state = np.zeros(shape), np.zeros(shape, dtype=complex), np.zeros(shape)
    frames = {}
    for a, b, *steps in schedule:
        state = propagate_dyson(field.rabi, amp, det, g1, g2, (a, b), *steps,
                                initial=state, frames=frames)
    rho_end, _, integral = state
    tail = rep_period - time_scale * (w1 - w0)
    return (gamma1 * (time_scale * integral)
            + rho_end * -np.expm1(-gamma1 * np.maximum(tail, 0.0)))


def _rk4_step_maps(a_nodes, a_half, h: float) -> np.ndarray:
    """Classical RK4 steps of a linear ODE y' = A(t) y as n x n matrices.

    Step k sees the generators ``a_nodes[k]``, ``a_half[k]``,
    ``a_nodes[k + 1]`` at its start, midpoint and end, A0, Am, A1:
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A0, K2 = Am (I + h/2 K1),
    K3 = Am (I + h/2 K2), K4 = A1 (I + h K3).
    """
    eye = np.eye(a_nodes.shape[-1])
    k = a_half @ (eye + 0.5 * h * a_nodes[:-1])
    maps = a_nodes[:-1] + 2.0 * k
    k = a_half @ (eye + 0.5 * h * k)
    maps += 2.0 * k
    maps += a_nodes[1:] @ (eye + h * k)
    maps *= h / 6.0
    maps += eye
    return maps


def _bloch_generators(field: DriveField, ts, emitter: EmitterModel) -> np.ndarray:
    """Bloch equations at times ``ts`` as 4x4 generators on (rho_ee, x, w, 1)."""
    om = np.asarray(field.rabi(ts), dtype=complex)
    g1, g2, det = emitter.gamma1, emitter.gamma2, emitter.detuning
    omr, omi = om.real, om.imag
    a = np.zeros(om.shape + (4, 4))
    a[:, 0, 0] = -g1
    a[:, 0, 1], a[:, 0, 2] = -omi, omr
    a[:, 1, 0], a[:, 1, 1], a[:, 1, 2], a[:, 1, 3] = omi, -g2, -det, -0.5 * omi
    a[:, 2, 0], a[:, 2, 1], a[:, 2, 2], a[:, 2, 3] = -omr, det, -g2, 0.5 * omr
    return a


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """Inclusive prefix products ``P_k = M_k ... M_1 M_0`` of a stack of maps.

    Pairs neighbours, recurses on the half-length stack of pair products
    (the odd prefixes), then fills each even prefix with one more product:
    about 2n matrix products over log2(n) levels.
    """
    if len(maps) < 2:
        return maps
    odd = _prefix_products(maps[1::2] @ maps[:-1:2])
    out = np.empty_like(maps)
    out[0], out[1::2] = maps[0], odd
    out[2::2] = maps[2::2] @ odd[:(len(maps) - 1) // 2]
    return out


def population_series_fixed(field: DriveField, emitter: EmitterModel, t_span,
                            n_steps: int):
    """Fixed-step RK4 excited-population series from the ground state.

    Returns (times, rho_ee) on the ``n_steps + 1`` node grid. Fast path
    for fit models where thousands of forward solves dominate; the step
    count must resolve the fastest of drive, detuning, and decay (the
    trace fit takes steps of 0.06 rad at the sum of the three rates). RK4
    runs to the first node at or past the end of the drive support; later
    nodes take the exact free decay.

    The Bloch equations are affine in (rho_ee, x, w), so each RK4 step is a
    4x4 matrix on (rho_ee, x, w, 1). All steps' matrices are built at once,
    and the node states are their prefix products from a scan over the
    associative matrix product (Blelloch, CMU-CS-90-190) in log2(n)
    whole-array levels.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    times = np.linspace(t0, t1, n_steps + 1)
    h = (t1 - t0) / n_steps
    support = field.support(SUPPORT_CUTOFF)
    n_drive = 0 if support is None else min(
        n_steps, int(np.searchsorted(times, support[1])))
    nodes = _prefix_products(_rk4_step_maps(
        _bloch_generators(field, times[:n_drive + 1], emitter),
        _bloch_generators(field, times[:n_drive] + 0.5 * h, emitter), h))
    rho_out = np.empty(n_steps + 1)
    rho_out[0] = 0.0
    # The ground state is (0, 0, 0, 1), so rho_ee is each product's corner.
    rho_out[1:n_drive + 1] = nodes[:, 0, 3]
    rho_out[n_drive + 1:] = rho_out[n_drive] * np.exp(
        -emitter.gamma1 * (times[n_drive + 1:] - times[n_drive]))
    return times, rho_out
