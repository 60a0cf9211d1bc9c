"""Photon emission point processes and TCSPC histogramming.

Emission is unraveled by quantum jumps (Monte Carlo wave function): the
conditional two-level state evolves under the non-Hermitian effective
Hamiltonian, a jump fires when the conditional norm crosses a uniform
threshold, the jump time is recorded and the state resets to the ground
state. Re-excitation within the pulse is therefore captured exactly,
unlike thinning of the mean emission rate.

The engine precomputes cumulative 2x2 propagators C_k on a fine time grid
covering the drive window: RK4 step matrices from the fit series' step-map
builder (``bloch._rk4_step_maps``), multiplied up by its log2(n)-level
prefix scan (``bloch._prefix_products``). Because the conditional evolution
is linear, the survival curve of a segment restarted in state psi at node k
is ``|C_m w|^2`` with ``w = C_k^{-1} psi``, for m >= k, and it is monotone
non-increasing. Each node's Gram matrix C_m^H C_m is kept as four reals, so
a trajectory's state is the four reals ``quad(w)`` of its segment, a
survival value ``gram[m] . quad(w)`` is one 4-vector dot product, and
populations and dephasing restarts are read off the same four reals. The
grid phase is a loop of waves on compacted arrays from which finished rows
drop. In the first wave all trajectories share one survival curve, and one
``searchsorted`` of the sorted thresholds places all first jumps; later
segments bisect the Gram table. A trajectory that outlives the grid hands
its populations to the drive-free tail, which places its at most one
remaining emission in closed form (there the dephasing operator, prop. to
sigma_z, changes neither when nor whether it happens). Each emission draws
its thinning uniform as it is placed; only kept photons are timed and
sorted. Counter-based streams keyed by (pulse index, draw index) make
results independent of chunking and evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .bloch import (BlochState, BlochTrajectory, EmitterModel, _prefix_products,
                    _rk4_step_maps)
from .errors import StepFailure
from .pulses import DriveField, SUPPORT_CUTOFF

#: Target phase advance per propagator step (rad).
ENGINE_PHASE_STEP = 0.05

_WAVE_LIMIT = 100_000

#: Pulse periods simulated per batch in :func:`simulate_tcspc`. Randomness is
#: keyed by pulse index, so the histogram does not depend on this value.
_TCSPC_CHUNK = 1 << 16


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector: efficiency, dead time, timing jitter, period."""

    efficiency: float
    dead_time: float = 70e-9
    timing_jitter_sigma: float = 50e-12
    rep_period: float = 1.4e-6
    bin_width: float = 0.5e-9

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0.0 <= self.dead_time < math.inf:
            raise ValueError("dead_time must be finite and >= 0")
        if not 0.0 <= self.timing_jitter_sigma < math.inf:
            raise ValueError("timing_jitter_sigma must be finite and >= 0")
        if not 0.0 < self.bin_width < math.inf:
            raise ValueError("bin_width must be finite and > 0")
        if not 0.0 < self.rep_period < math.inf:
            raise ValueError("rep_period must be finite and > 0")
        if self.n_bins() < 1:
            raise ValueError("bin_width must not exceed rep_period "
                             "(the histogram would have no bins)")

    def n_bins(self) -> int:
        return int(math.floor(self.rep_period / self.bin_width + 1e-9))


@dataclass(frozen=True, eq=False)
class TcspcHistogram:
    """Detection times after the pulse trigger, binned over ``n_pulses``
    periods; the seed and detector settings live in the run's config."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_pulses: int

    def __post_init__(self):
        if self.counts.size != self.bin_edges.size - 1:
            raise ValueError("counts length must equal number of bins")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def total(self) -> int:
        return int(np.sum(self.counts))


def emission_rate(trajectory: BlochTrajectory, emitter: EmitterModel):
    """Mean photon flux Gamma1 * rho_ee(t) along a trajectory."""
    return trajectory.times, emitter.gamma1 * trajectory.rho_ee


def first_detected_density(times, rates, efficiency: float):
    """Arrival-time density of the first *detected* photon.

    Thinned-Poisson approximation ``f(t) = eta r(t) exp(-eta R(t))`` with
    ``R`` the cumulative of the mean rate ``r`` (trapezoid on the given
    grid). Good when the efficiency is small or re-excitation is weak; at
    eta -> 1 it deliberately ignores the anti-bunched gap after each
    emission, so disagreement with the jump-process Monte Carlo there is
    expected, not a bug.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < -1e-30):
        raise ValueError("rates must be non-negative")
    dt = np.diff(times)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * dt)))
    return efficiency * rates * np.exp(-efficiency * cum)


# ---------------------------------------------------------------------------
# Jump engine
# ---------------------------------------------------------------------------

class _JumpEngine:
    """Cumulative-propagator tables for one (emitter, field, window) config.

    C_k = M_{k-1} ... M_0 with C_0 = I, where M_k is the RK4 step of the
    no-jump amplitude equation psi' = A(t) psi. A drive outside the window
    gives the one-node table C_0 = I. ``gram`` holds C_k^H C_k as four reals
    per node and ``ground_quad`` the ``_quad`` of each ground restart.
    """

    def __init__(self, emitter: EmitterModel, field: DriveField,
                 t0: float, t_limit: float):
        self.emitter = emitter
        self.gamma1 = emitter.gamma1
        self.gphi = emitter.pure_dephasing
        self.t0 = float(t0)
        self.t_limit = float(t_limit)
        support = field.support(SUPPORT_CUTOFF)
        driven = support is not None and support[0] < t_limit and support[1] > t0
        grid_end = min(support[1], t_limit) if driven else self.t0
        n_steps = 0
        if driven:
            rate = (math.hypot(emitter.detuning, field.max_amplitude())
                    + field.max_abs_chirp() + emitter.gamma1 + emitter.gamma2)
            n_steps = max(64, int(math.ceil(
                (grid_end - self.t0) * rate / ENGINE_PHASE_STEP)))
            if n_steps > 8_000_000:
                raise StepFailure("drive window requires an unreasonable step count")
        self.times = np.linspace(self.t0, grid_end, n_steps + 1)
        h = (grid_end - self.t0) / max(n_steps, 1)
        steps = _rk4_step_maps(self._generators(field, self.times),
                               self._generators(field, self.times[:-1] + 0.5 * h), h)
        c = self.cum = np.concatenate(
            (np.eye(2, dtype=complex)[None], _prefix_products(steps)))
        self.det = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
        self._check_determinants()
        n = self.times.size
        self.ground_restart = self.to_grid_coords(
            np.arange(n), np.tile([1.0 + 0j, 0j], (n, 1)))
        self.ground_quad = _quad(self.ground_restart)
        # Gram matrix C^H C as 4 reals, dotted with _quad(w) to give |C w|^2,
        # and the (4, 2) populations (|psi_g|^2, |psi_e|^2) = q @ P at the end.
        rows = _row_quads(c)
        self.gram = rows[:, 0] + rows[:, 1]
        self.end_populations = rows[-1].T

    def _generators(self, field: DriveField, ts: np.ndarray) -> np.ndarray:
        """A(t) of the no-jump amplitude equation, one 2x2 matrix per time."""
        om = np.asarray(field.rabi(ts), dtype=complex)
        a = np.empty((om.shape[0], 2, 2), dtype=complex)
        a[:, 0, 0] = -0.25 * self.gphi
        a[:, 0, 1] = -0.5j * om
        a[:, 1, 0] = -0.5j * np.conj(om)
        a[:, 1, 1] = -1j * self.emitter.detuning - 0.5 * self.gamma1 - 0.25 * self.gphi
        return a

    def _check_determinants(self):
        """Raise StepFailure if a table entry lost its rank or is not finite.

        Restarts divide by det C_k, whose modulus is fixed by Liouville's
        formula at exp(-(Gamma1 + gamma_phi)(t_k - t0) / 2). The product
        computes it by cancellation, so on a long window it drifts off that
        value and at last reaches 0 or NaN; past a relative drift of 1e-4 the
        restart states are no longer trustworthy.
        """
        liouville = np.exp(-0.5 * (self.gamma1 + self.gphi) * (self.times - self.t0))
        drift = np.abs(np.abs(self.det) / liouville - 1.0)
        ok = drift <= 1e-4  # False wherever the table holds NaN or inf
        if not ok.all():
            k = int(np.argmin(ok))
            raise StepFailure(
                f"jump-engine propagator lost its rank at t = {self.times[k]:.4g} s "
                f"(|det| off its exact value by {drift[k]:.3g}); shorten the "
                f"drive window")

    def to_grid_coords(self, nodes: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """C_node^{-1} psi for per-row nodes and physical states psi (B, 2)."""
        c = self.cum[nodes]
        det = self.det[nodes]
        w = np.empty_like(psi)
        w[:, 0] = (c[:, 1, 1] * psi[:, 0] - c[:, 0, 1] * psi[:, 1]) / det
        w[:, 1] = (c[:, 0, 0] * psi[:, 1] - c[:, 1, 0] * psi[:, 0]) / det
        return w

    def state_at(self, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Physical (unnormalized) amplitudes C_node w."""
        c = self.cum[nodes]
        out = np.empty_like(w)
        out[:, 0] = c[:, 0, 0] * w[:, 0] + c[:, 0, 1] * w[:, 1]
        out[:, 1] = c[:, 1, 0] * w[:, 0] + c[:, 1, 1] * w[:, 1]
        return out

    def survival(self, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
        """|C_node w|^2 per row, from the rows' ``q = _quad(w)`` (B, 4)."""
        return np.einsum("ij,ij->i", np.take(self.gram, nodes, axis=0), q)

    def dephased(self, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``_quad`` of the dephasing restart C^{-1} sigma_z C w / |C w| per row.

        M = C^{-1} sigma_z C = [[c00 c11 + c01 c10, 2 c01 c11], [-2 c00 c10,
        -(c00 c11 + c01 c10)]] / det C acts on the Hermitian form
        w w^H = [[q0, z*], [z, q1]], z = q2 + i q3, that q encodes.
        """
        c, det = self.cum[nodes], self.det[nodes]
        m = np.empty_like(c)
        m[:, 0, 0] = (c[:, 0, 0] * c[:, 1, 1] + c[:, 0, 1] * c[:, 1, 0]) / det
        m[:, 0, 1] = 2.0 * c[:, 0, 1] * c[:, 1, 1] / det
        m[:, 1, 0] = -2.0 * c[:, 0, 0] * c[:, 1, 0] / det
        m[:, 1, 1] = -m[:, 0, 0]
        z = q[:, 2] + 1j * q[:, 3]
        rho = np.stack((q[:, 0], z.conj(), z, q[:, 1]), axis=1).reshape(-1, 2, 2)
        rho = m @ rho @ m.conj().transpose(0, 2, 1)
        out = np.stack((rho[:, 0, 0].real, rho[:, 1, 1].real,
                        rho[:, 1, 0].real, rho[:, 1, 0].imag), axis=1)
        return out / self.survival(nodes, q)[:, None]

    @property
    def last_node(self) -> int:
        return self.times.size - 1


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real ** 2 + z.imag ** 2


def _quad(w: np.ndarray) -> np.ndarray:
    """(|w0|^2, |w1|^2, Re w0* w1, Im w0* w1) per row of w (B, 2).

    With gram[m] = (G00, G11, 2 Re G01, -2 Im G01) of G = C_m^H C_m,
    ``gram[m] . _quad(w) = w^H G w = |C_m w|^2``.
    """
    z = w[:, 0].conj() * w[:, 1]
    return np.stack((_abs2(w[:, 0]), _abs2(w[:, 1]), z.real, z.imag), axis=1)


def _row_quads(c: np.ndarray) -> np.ndarray:
    """(N, 2, 4): for row i of each C, ``_row_quads(C)[i] . _quad(w) = |(C w)_i|^2``."""
    z = c[..., 0].conj() * c[..., 1]
    return np.stack((_abs2(c[..., 0]), _abs2(c[..., 1]), 2.0 * z.real, -2.0 * z.imag),
                    axis=-1)


def _rows(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """The rows of each array where ``keep`` holds (a ``take`` on the indices,
    far cheaper than boolean indexing on a scattered mask)."""
    idx = np.flatnonzero(keep)
    return [a.take(idx, axis=0) for a in arrays]


def _initial_amplitudes(initial: BlochState) -> np.ndarray:
    """Normalized amplitudes (c_g, c_e) of a pure initial state."""
    purity = initial.rho_ee * (1.0 - initial.rho_ee) - abs(initial.coherence) ** 2
    if abs(purity) > 1e-9:
        raise ValueError("jump unraveling needs a pure initial state")
    cg = math.sqrt(max(1.0 - initial.rho_ee, 0.0))
    ce_mag = math.sqrt(max(initial.rho_ee, 0.0))
    if ce_mag > 0 and abs(initial.coherence) > 0:
        ce = initial.coherence.conjugate() / cg if cg > 0 else ce_mag
    else:
        ce = ce_mag
    psi0 = np.array([cg, ce], dtype=complex)
    return psi0 / math.sqrt(abs(psi0[0]) ** 2 + abs(psi0[1]) ** 2)


def _first_crossings(curve: np.ndarray, r: np.ndarray) -> np.ndarray:
    """First node at which ``curve`` falls to each r: one search of the sorted
    r on the running minimum, so no roundoff bump couples the thresholds."""
    order = np.argsort(-r)
    nodes = np.empty_like(order)
    nodes[order] = np.searchsorted(-np.minimum.accumulate(curve), -r[order])
    return nodes


def _emission_times_batch(engine: _JumpEngine, seed: int, pulse_ids: np.ndarray,
                          initial: BlochState = BlochState(0.0),
                          efficiency: float | None = None):
    """Jump-process emissions for a batch of pulse periods, thinned as placed.

    Returns (emitted, pulse, time, ordinal): every emission's pulse id, then
    the pulse, time and ordinal of each one the detector keeps, by pulse then
    time. Ordinal k of pulse p is kept if ``rng.uniform(seed, STREAM_THIN, p,
    k) < efficiency``; ``efficiency=None`` keeps all and draws nothing. The
    initial state must be pure: (sqrt(1-rho), sqrt(rho)), phased by coherence.
    """
    psi0 = _initial_amplitudes(initial)
    gamma1, gphi, n_last = engine.gamma1, engine.gphi, engine.last_node

    def uniform(pid, draws):
        return rng.uniform(seed, rng.STREAM_JUMP, pid, draws)

    emitted, kept = [], []  # every emission's pulse; kept (pulse, time, ordinal)

    def thin(pid, count, rows):
        """Record the emissions of ``rows``; return the rows the detector keeps."""
        emitted.append(pid.take(rows))
        if efficiency is None:
            return rows
        u = rng.uniform(seed, rng.STREAM_THIN, emitted[-1], count.take(rows))
        return rows[u < efficiency]

    # Grid phase: each active row is its pulse id, draw counter, emission count
    # (next ordinal), threshold r, segment start node and q = _quad(w).
    pid = pulse_ids
    draws = count = node = np.zeros(pid.size, dtype=np.int64)  # never written in place
    r = uniform(pid, draws)
    w0 = engine.to_grid_coords(np.zeros(1, dtype=np.int64), psi0[None, :])
    q = np.tile(_quad(w0), (pid.size, 1))
    # Rows leaving the grid: (pulse, count, r, (|psi_g|^2, |psi_e|^2)).
    handoff = []
    if n_last == 0 or pid.size == 0:  # no drive or no rows: all start in the tail
        handoff.append((pid, count, r, q @ engine.end_populations))
        pid = pid[:0]

    for wave in range(_WAVE_LIMIT):
        if pid.size == 0:
            break
        if wave == 0:
            # Every row still holds w0 from node 0, so all share one
            # non-increasing survival curve; the grid-end test reads it
            # too, so a jump row's first node <= r is on the grid.
            curve = engine.gram @ q[0]
            to_tail = curve[n_last] > r
        else:
            to_tail = q @ engine.gram[n_last] > r
        out_pid, out_count, out_r, out_q = _rows(to_tail, pid, count, r, q)
        handoff.append((out_pid, out_count, out_r, out_q @ engine.end_populations))
        pid, draws, count, r, node, q = _rows(~to_tail, pid, draws, count, r, node, q)
        if wave == 0:
            m = _first_crossings(curve, r)
        else:
            lo = node
            hi = np.full(pid.size, n_last, dtype=np.int64)
            while np.any(lo < hi):
                mid = (lo + hi) // 2
                below = engine.survival(mid, q) <= r
                hi = np.where(below, mid, hi)
                lo = np.where(below, lo, mid + 1)
            m = hi

        emit = np.ones(pid.size, dtype=bool)
        if gphi > 0.0:
            # n2 = |C_m w|^2; its excited part is row 1 of C_m on q.
            n2 = curve.take(m) if wave == 0 else engine.survival(m, q)
            w_emit = gamma1 * np.einsum("ij,ij->i", _row_quads(engine.cum[m])[:, 1], q)
            draws = draws + 1
            emit = uniform(pid, draws) * (w_emit + 0.5 * gphi * n2) < w_emit
            flipped = engine.dephased(*_rows(~emit, m, q))
        rows = thin(pid, count, np.flatnonzero(emit))
        mk, rk = m.take(rows), r.take(rows)
        if wave == 0:
            n1, n2 = curve.take(mk - 1), curve.take(mk)
        else:
            qk = q.take(rows, axis=0)
            n1, n2 = engine.survival(mk - 1, qk), engine.survival(mk, qk)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.log(n1 / np.maximum(rk, 1e-300)) / np.log(
                np.maximum(n1 / np.maximum(n2, 1e-300), 1.0 + 1e-15))
        frac = np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
        t_prev = engine.times.take(mk - 1)
        kept.append((pid.take(rows), t_prev + frac * (engine.times.take(mk) - t_prev),
                     count.take(rows)))
        # Allocated after the thinning draw, so the two do not add up in memory.
        restart = engine.ground_quad.take(m, axis=0)
        if gphi > 0.0:
            restart[~emit] = flipped
        node, q, count = m, restart, count + emit
        draws = draws + 1
        r = uniform(pid, draws)
    else:
        raise StepFailure("jump simulation exceeded the wave limit on the drive grid")

    # Tail phase: no drive, so dephasing (sigma_z) leaves the emission alone
    # and a row's grid-end populations and threshold place it in closed form;
    # only rows whose threshold tops their ground population take the logarithm.
    pid, count, r, pops = (np.concatenate(a) for a in zip(*handoff))
    pid, count, r, pops = _rows(r > pops[:, 0] * (1.0 + 1e-15), pid, count, r, pops)
    t_jump = engine.times[-1] + _tail_jump_time(pops[:, 0], pops[:, 1], r, gamma1)
    rows = thin(pid, count, np.flatnonzero(t_jump <= engine.t_limit))
    kept.append((pid.take(rows), t_jump.take(rows), count.take(rows)))

    pulses, times, ordinals = (np.concatenate(a) for a in zip(*kept))
    # Each wave appends a pulse's emissions after its earlier ones, and tail
    # emissions come last, so a stable sort by pulse keeps times ascending.
    order = np.argsort(pulses, kind="stable")
    return np.concatenate(emitted), pulses[order], times[order], ordinals[order]


def _tail_jump_time(cg2, ce2, r, gamma1: float) -> np.ndarray:
    """Solve |cg|^2 + |ce|^2 e^{-Gamma1 tau} = r for the drive-free delay tau.

    The root is infinite where the norm never falls to r (r <= |cg|^2).
    """
    tau = np.full(r.shape, np.inf)
    can = r > cg2 * (1.0 + 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau[can] = np.log(ce2[can] / (r[can] - cg2[can])) / gamma1
    return np.maximum(tau, 0.0)


def simulate_photon_stream(emitter: EmitterModel, field: DriveField, t_span,
                           seed: int,
                           initial: BlochState = BlochState(0.0)) -> np.ndarray:
    """Emission times of one quantum-jump trajectory over ``t_span``.

    Times are strictly increasing; re-excitation after an emission is
    captured whenever the drive is still on.
    """
    engine = _JumpEngine(emitter, field, *t_span)
    return _emission_times_batch(
        engine, seed, np.zeros(1, dtype=np.int64), initial)[2]


def simulate_tcspc(emitter: EmitterModel, field: DriveField,
                   detector: DetectorModel, n_pulses: int, seed: int,
                   initial: BlochState = BlochState(0.0)) -> TcspcHistogram:
    """TCSPC histogram over ``n_pulses`` identical pulse periods.

    Each period starts in ``initial`` (ground by default; the repetition
    period is validated to exceed the drive span, and residual excitation
    across a period boundary is negligible for any supported config).
    Emissions are thinned with the detector efficiency as the jump engine
    places them, so only kept photons are timed, sorted and given Gaussian
    timing jitter; a non-paralyzable dead time is enforced on the merged
    absolute-time stream, carrying across period boundaries. Fixed (seed,
    n_pulses, config) gives bit-identical histograms for any chunking;
    detections jittered below 0 count in bin 0.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    support = field.support(SUPPORT_CUTOFF)
    if support is not None and support[1] > detector.rep_period:
        raise ValueError("rep_period must exceed the drive span")

    engine = _JumpEngine(emitter, field, 0.0, detector.rep_period)

    def run_chunk(start: int):
        ids = np.arange(start, min(start + _TCSPC_CHUNK, n_pulses), dtype=np.int64)
        _, pulses, times, ordinal = _emission_times_batch(
            engine, seed, ids, initial, detector.efficiency)
        if detector.timing_jitter_sigma > 0 and pulses.size:
            times = times + detector.timing_jitter_sigma * rng.normal(
                seed, rng.STREAM_JITTER, pulses, ordinal)
        return pulses, times

    pulses, times = (np.concatenate(a) for a in zip(*(
        run_chunk(start) for start in range(0, n_pulses, _TCSPC_CHUNK))))

    # Non-paralyzable dead time on absolute detection timestamps.
    if detector.dead_time > 0 and pulses.size:
        abs_t = pulses * detector.rep_period + times
        order = np.argsort(abs_t, kind="stable")
        keep, blocked_until = [], -math.inf
        for i, ti in zip(order.tolist(), abs_t[order].tolist()):
            if ti >= blocked_until:
                keep.append(i)
                blocked_until = ti + detector.dead_time
        times = times[keep]

    edges = detector.bin_width * np.arange(detector.n_bins() + 1)
    counts, _ = np.histogram(np.maximum(times, 0.0), bins=edges)
    hist = TcspcHistogram(bin_edges=edges, counts=counts.astype(np.int64),
                          n_pulses=n_pulses)
    if detector.dead_time >= edges[-1] and hist.total() > n_pulses:
        raise AssertionError("dead time exceeding the histogram span must cap "
                             "counts at one per pulse")
    return hist
