"""Excitation pulse envelopes, phase laws, and pulse-area calculus.

Envelope amplitudes are angular Rabi frequencies (rad/s): the transition
dipole moment and hbar are folded into the normalization, so every "field
strength" axis in this package is a Rabi-amplitude axis proportional to
the square root of optical power. Envelopes are non-negative; sign and
frequency content live in :class:`PhaseLaw`.

Gaussian widths are quoted as the FWHM of the *intensity* profile (the
usual convention for measured pulse durations), so the amplitude envelope
is ``exp(-2 ln2 (t-c)^2 / w^2)`` and a resonant Gaussian pulse has area
``peak * w * sqrt(pi / (2 ln2))``.

A Gaussian's or a rectangle's ``peak``, width and ``center`` may hold one
value per batch member, so that one :class:`DriveField` describes a whole
scan or map: values broadcast against a scalar t, ``support`` (hull),
``max_on``, ``peak_value`` and ``feature_time`` bound every member, and
``breakpoints`` lists every member's edges.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT, h as PLANCK

from .errors import NonConvergedQuadrature, UnreachableArea

#: Fraction of peak below which an envelope is treated as switched off
#: for dynamics (where integration may start).
SUPPORT_CUTOFF = 1e-6

#: Much tighter cutoff for quadrature windows: the truncated Gaussian tail
#: mass is then ~1e-16 of the area, invisible at 1e-8 tolerances.
AREA_CUTOFF = 1e-14

#: Resonant area of a unit-peak Gaussian per unit intensity-FWHM.
GAUSSIAN_AREA_FACTOR = math.sqrt(math.pi / (2.0 * math.log(2.0)))


def _require_finite(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class RectangularEnvelope:
    """Flat-top pulse: ``peak`` on [center - duration/2, center + duration/2]."""

    peak: float | np.ndarray
    duration: float | np.ndarray
    center: float | np.ndarray = 0.0

    def __post_init__(self):
        if np.any(_require_finite("peak", self.peak) < 0):
            raise ValueError("peak amplitude must be >= 0")
        if np.any(_require_finite("duration", self.duration) <= 0):
            raise ValueError("duration must be > 0")
        _require_finite("center", self.center)

    def value(self, t):
        inside = np.abs(t - self.center) <= 0.5 * self.duration
        return np.where(inside, self.peak, 0.0)

    def _edges(self):
        half = 0.5 * np.asarray(self.duration)
        return self.center - half, self.center + half

    def support(self, cutoff: float = SUPPORT_CUTOFF):
        if not np.any(self.peak):
            return None
        lo, hi = self._edges()
        return (float(np.min(lo)), float(np.max(hi)))

    def breakpoints(self):
        """Both edges of every member, sorted."""
        return tuple(np.unique(np.concatenate(
            [np.ravel(edge) for edge in self._edges()])).tolist())

    kinks = breakpoints

    def max_on(self, a: float, b: float) -> float:
        """Largest value on the open interval (a, b)."""
        lo, hi = self._edges()
        return float(np.max(np.where((a < hi) & (b > lo), self.peak, 0.0)))

    def feature_time(self) -> float:
        return float(np.min(self.duration))

    def peak_value(self) -> float:
        return float(np.max(self.peak))

    def scaled(self, factor) -> "RectangularEnvelope":
        return replace(self, peak=self.peak * factor)

    def stretched(self, factor, about: float) -> "RectangularEnvelope":
        """The pulse stretched in time by ``factor`` (one per member, or
        one for all) about the time ``about``; a factor of 1 returns the
        same values."""
        return replace(self, duration=self.duration * factor,
                       center=self.center + (self.center - about) * (factor - 1.0))


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian pulse whose *intensity* profile has the given FWHM."""

    peak: float | np.ndarray
    fwhm: float | np.ndarray
    center: float | np.ndarray = 0.0

    def __post_init__(self):
        if np.any(_require_finite("peak", self.peak) < 0):
            raise ValueError("peak amplitude must be >= 0")
        if np.any(_require_finite("fwhm", self.fwhm) <= 0):
            raise ValueError("fwhm must be > 0")
        _require_finite("center", self.center)
        # -2 ln2 / fwhm^2, kept: value() is a batch kernel's per-step call.
        object.__setattr__(self, "_rate", -2.0 * math.log(2.0) / (self.fwhm * self.fwhm))

    def value(self, t):
        return self.peak * np.exp(self._rate * (t - self.center) ** 2)

    def support(self, cutoff: float = SUPPORT_CUTOFF):
        if not np.any(self.peak):
            return None
        half = np.asarray(self.fwhm) * math.sqrt(
            math.log(1.0 / cutoff) / (2.0 * math.log(2.0)))
        return (float(np.min(self.center - half)),
                float(np.max(self.center + half)))

    def breakpoints(self):
        return ()

    kinks = breakpoints

    def max_on(self, a: float, b: float) -> float:
        """Largest value on [a, b]: each member's value at its point nearest
        its center."""
        return float(np.max(self.value(np.clip(self.center, a, b))))

    def feature_time(self) -> float:
        return float(np.min(self.fwhm))

    def peak_value(self) -> float:
        return float(np.max(self.peak))

    def scaled(self, factor) -> "GaussianEnvelope":
        return replace(self, peak=self.peak * factor)

    def stretched(self, factor, about: float) -> "GaussianEnvelope":
        """The pulse stretched in time by ``factor`` (one per member, or
        one for all) about the time ``about``; a factor of 1 returns the
        same values."""
        return replace(self, fwhm=self.fwhm * factor,
                       center=self.center + (self.center - about) * (factor - 1.0))


class SampledEnvelope:
    """Measured envelope on a uniform time grid, linearly interpolated.

    Amplitudes are Rabi frequencies (rad/s); callers ingesting measured
    *intensity* data must take the element-wise square root first (see
    :func:`rabisim.cli_io.ingest_trace`). Evaluation outside the grid is 0.
    """

    def __init__(self, times, amplitudes):
        times = np.asarray(times, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("sampled envelope needs a 1-d grid with >= 2 points")
        if times.shape != amplitudes.shape:
            raise ValueError("time grid and amplitude samples must match in length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(amplitudes))):
            raise ValueError("sampled envelope values must be finite")
        dt = np.diff(times)
        if np.any(dt <= 0):
            raise ValueError("time grid must be strictly increasing")
        mean_dt = float(np.mean(dt))
        if np.max(np.abs(dt - mean_dt)) > 1e-9 * mean_dt:
            raise ValueError("time grid must be uniform to 1 part in 1e9")
        if np.any(amplitudes < 0):
            raise ValueError("amplitudes must be >= 0")
        self.times = times
        self.amplitudes = amplitudes

    def __eq__(self, other):
        return (isinstance(other, SampledEnvelope)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.amplitudes, other.amplitudes))

    def __hash__(self):
        return hash((self.times.tobytes(), self.amplitudes.tobytes()))

    def __repr__(self):
        return (f"SampledEnvelope(n={self.times.size}, "
                f"t=[{self.times[0]!r}, {self.times[-1]!r}], "
                f"max={float(np.max(self.amplitudes))!r})")

    def value(self, t):
        return np.interp(t, self.times, self.amplitudes, left=0.0, right=0.0)

    def support(self, cutoff: float = SUPPORT_CUTOFF):
        peak = float(np.max(self.amplitudes))
        if peak == 0.0:
            return None
        on = np.nonzero(self.amplitudes > cutoff * peak)[0]
        if on.size == 0:
            return None
        lo = max(0, on[0] - 1)
        hi = min(self.times.size - 1, on[-1] + 1)
        return (float(self.times[lo]), float(self.times[hi]))

    def breakpoints(self):
        return (float(self.times[0]), float(self.times[-1]))

    def kinks(self):
        """Every knot: the interpolant's slope changes at each sample."""
        return self.times

    def max_on(self, a: float, b: float) -> float:
        """Largest value on [a, b]: an end value or an interior sample."""
        inside = self.amplitudes[(self.times > a) & (self.times < b)]
        ends = float(np.max(self.value(np.array([a, b]))))
        return max(ends, float(np.max(inside))) if inside.size else ends

    def feature_time(self) -> float:
        sup = self.support()
        if sup is None:
            return float(self.times[-1] - self.times[0])
        return max(sup[1] - sup[0], float(self.times[1] - self.times[0]))

    def peak_value(self) -> float:
        return float(np.max(self.amplitudes))

    def scaled(self, factor: float) -> "SampledEnvelope":
        return SampledEnvelope(self.times, self.amplitudes * factor)


Envelope = Union[RectangularEnvelope, GaussianEnvelope, SampledEnvelope]


@dataclass(frozen=True)
class PhaseLaw:
    """Time-linear phase: ``phi(t) = offset + chirp * t``.

    ``chirp`` is d(phi)/dt in rad/s, i.e. an angular-frequency shift of the
    component it decorates; it may have either sign.
    """

    offset: float = 0.0
    chirp: float = 0.0

    def __post_init__(self):
        _require_finite("offset", self.offset)
        _require_finite("chirp", self.chirp)

    def phase(self, t):
        return self.offset + self.chirp * t


@dataclass(frozen=True)
class FieldComponent:
    envelope: Envelope
    phase: PhaseLaw = PhaseLaw()


class DriveField:
    """Multi-component complex Rabi drive ``Omega(t) = sum_k env_k(t) e^{i phi_k(t)}``."""

    def __init__(self, components):
        components = tuple(
            c if isinstance(c, FieldComponent) else FieldComponent(*c)
            for c in components
        )
        if not components:
            raise ValueError("drive field needs at least one component")
        self.components = components

    @classmethod
    def single(cls, envelope: Envelope, phase: PhaseLaw = PhaseLaw()) -> "DriveField":
        return cls([FieldComponent(envelope, phase)])

    def __eq__(self, other):
        return isinstance(other, DriveField) and self.components == other.components

    def __repr__(self):
        return f"DriveField({list(self.components)!r})"

    def rabi(self, t):
        """Rabi frequency at time(s) ``t`` (rad/s); real if no component has a phase."""
        total = None
        for comp in self.components:
            term = comp.envelope.value(t)
            ph = comp.phase
            if ph.offset != 0.0 or ph.chirp != 0.0:
                term = term * np.exp(1j * ph.phase(t))
            total = term if total is None else total + term
        return total

    def support(self, cutoff: float = SUPPORT_CUTOFF):
        """Hull of the component supports, or None for an all-zero field."""
        spans = [c.envelope.support(cutoff) for c in self.components]
        spans = [s for s in spans if s is not None]
        if not spans:
            return None
        return (min(s[0] for s in spans), max(s[1] for s in spans))

    def breakpoints(self):
        pts = []
        for comp in self.components:
            pts.extend(comp.envelope.breakpoints())
        return tuple(sorted(set(pts)))

    def kinks(self) -> np.ndarray:
        """Sorted corners and jumps of the envelopes (breakpoints and more)."""
        return np.unique(np.concatenate(
            [np.asarray(c.envelope.kinks(), dtype=float) for c in self.components]))

    def max_amplitude(self) -> float:
        """Upper bound on |Omega(t)| (sum of component peaks)."""
        return float(sum(c.envelope.peak_value() for c in self.components))

    def max_amplitude_on(self, a: float, b: float) -> float:
        """Upper bound on |Omega(t)| over [a, b] (sum of component maxima)."""
        return float(sum(c.envelope.max_on(a, b) for c in self.components))

    def min_feature_time(self) -> float:
        return min(c.envelope.feature_time() for c in self.components)

    def max_abs_chirp(self) -> float:
        return max(abs(c.phase.chirp) for c in self.components)

    def scaled(self, factor: float) -> "DriveField":
        return DriveField(
            [FieldComponent(c.envelope.scaled(factor), c.phase) for c in self.components]
        )

    def content_hash(self) -> str:
        """Short stable digest of the field definition (for metadata): the
        envelopes' and phases' reprs, and a sampled envelope's samples."""
        h = hashlib.sha256()
        for comp in self.components:
            env = comp.envelope
            h.update(repr(env).encode())
            if isinstance(env, SampledEnvelope):
                h.update(env.times.tobytes() + env.amplitudes.tobytes())
            h.update(repr(comp.phase).encode())
        return h.hexdigest()[:12]


# Embedded Gauss-Kronrod pair (Piessens et al., QUADPACK, Springer 1983): the
# 15 Kronrod nodes on [-1, 1] contain the 7 Gauss-Legendre nodes, so one set
# of integrand values gives K15 (exact to degree 23) and G7 (degree 13), and
# |K15 - G7| bounds the error of K15 on a smooth segment.
_K15_X = np.array([0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
                   0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
                   0.207784955007898468, 0.0])
_K15_W = np.array([0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
                   0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
                   0.204432940075298892, 0.209482141084727828])
_G7_W = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
                  0.417959183673469388])
_GK_NODES = np.concatenate([-_K15_X[:-1], _K15_X[::-1]])
_K15_WEIGHTS = np.concatenate([_K15_W[:-1], _K15_W[::-1]])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_G7_W[:-1], _G7_W[::-1]])

#: Pieces whose nodes are evaluated together: bounds the quadrature's
#: transient heap (about 750 B per piece) however many knots a pulse has.
AREA_CHUNK = 4096


def _gk_pieces(field: DriveField, det2: float, s: float, a, half):
    """Rows K15 of A, K15 of dA/ds and |K15 - G7| of A on [a, a + 2 half]."""
    mod2 = np.abs(field.rabi((a + half)[:, None] + half[:, None] * _GK_NODES)) ** 2
    root = np.sqrt(det2 + s * s * mod2)
    slope = np.divide(s * mod2, root, out=np.zeros_like(root), where=root > 0)
    kronrod = (np.stack([root, slope]) @ _K15_WEIGHTS) * half
    return np.vstack([kronrod, np.abs(kronrod[0] - (root @ _G7_WEIGHTS) * half)])


def _area_and_slope(field: DriveField, detuning: float, t0: float, t1: float,
                    s: float, rel_tol: float, max_depth: int):
    """``A(s) = integral sqrt(detuning^2 + s^2 |Omega|^2) dt`` and dA/ds.

    [t0, t1] is cut at the field's kinks, where |Omega| has corners, and at
    its support edges, so that a pulse narrow against the window cannot fall
    between the nodes of the first pass. Each pass evaluates the G7/K15 pair
    on every open piece, ``AREA_CHUNK`` pieces per ``rabi`` call, and keeps
    three numbers per piece. A piece is done when K15 and G7 of A differ by
    at most its length's share of ``rel_tol`` times the running total of A;
    the others are bisected, and a piece still open after ``max_depth``
    bisections raises.
    """
    inner = np.concatenate([field.kinks(), field.support(AREA_CUTOFF) or ()])
    cuts = np.unique(np.concatenate([[t0, t1], inner[(inner > t0) & (inner < t1)]]))
    a, b = cuts[:-1], cuts[1:]
    det2, per_length = float(detuning) ** 2, rel_tol / (t1 - t0)
    done = np.zeros(2)
    for _ in range(max_depth + 1):
        half = 0.5 * (b - a)
        rows = np.concatenate([
            _gk_pieces(field, det2, s, a[i:i + AREA_CHUNK], half[i:i + AREA_CHUNK])
            for i in range(0, a.size, AREA_CHUNK)], axis=1)
        kronrod, err = rows[:2], rows[2]
        ok = err <= per_length * (done[0] + kronrod[0].sum()) * (b - a)
        done += kronrod[:, ok].sum(axis=1)
        if ok.all():
            return done
        a, b = a[~ok], b[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    raise NonConvergedQuadrature(
        f"Gauss-Kronrod quadrature left {a.size} pieces open at depth {max_depth}")


def pulse_area(field: DriveField, detuning: float = 0.0, window=None,
               rel_tol: float = 1e-8, max_depth: int = 40) -> float:
    """Bloch-vector nutation angle ``integral sqrt(detuning^2 + |Omega|^2) dt``.

    The window defaults to the envelope support hull; a window must be given
    explicitly for an all-zero field with nonzero detuning. Chirp enters only
    through |Omega| (unit-modulus phase factors), so single-component areas
    are chirp-independent while multi-component areas see the interference
    of the components. Cutting at every kink makes a piecewise-linear
    |Omega| at zero detuning exact.
    """
    if window is None:
        window = field.support(AREA_CUTOFF)
        if window is None:
            return 0.0
    t0, t1 = float(window[0]), float(window[1])
    if not t0 < t1:
        raise ValueError("window must satisfy t0 < t1")
    return float(_area_and_slope(field, detuning, t0, t1, 1.0, rel_tol, max_depth)[0])


def scale_to_area(field: DriveField, target: float, detuning: float = 0.0,
                  window=None, rel_tol: float = 1e-6) -> DriveField:
    """Rescale all envelope peaks by a common factor so the area hits ``target``.

    At zero detuning the area is ``s A(1)``, so one division gives s.
    Otherwise A(s) is increasing and convex, rising from the detuning floor
    ``|detuning| * (t1 - t0)`` at s = 0, so every Newton step lands at or
    above the root and the next ones descend onto it.
    """
    if target <= 0:
        raise ValueError("target area must be > 0")
    if field.max_amplitude() == 0.0:
        raise ValueError("field has zero amplitude at unit scale")
    if window is None:
        window = field.support(AREA_CUTOFF)
    t0, t1 = float(window[0]), float(window[1])
    floor = abs(detuning) * (t1 - t0)
    if target < floor * (1.0 - 1e-12):
        raise UnreachableArea(
            f"target area {target:g} below detuning floor {floor:g} of the window"
        )
    quad_tol = min(1e-8, rel_tol * 1e-2)
    s = 1.0
    area, slope = _area_and_slope(field, detuning, t0, t1, s, quad_tol, 40)
    if area <= floor:
        raise ValueError("field has no area above the detuning floor at unit scale")
    if detuning == 0.0:
        return field.scaled(target / area)
    for _ in range(100):
        if abs(area - target) <= rel_tol * target:
            return field.scaled(s)
        # Safeguard: roundoff must not drive s to zero or below.
        s = max(s - (area - target) / slope, 0.5 * s)
        area, slope = _area_and_slope(field, detuning, t0, t1, s, quad_tol, 40)
    raise NonConvergedQuadrature("Newton iteration on the area scale did not converge")


def photons_per_pulse(avg_power: float, rep_rate: float, wavelength: float) -> float:
    """Mean photon number per repetition period at the given average power.

    ``avg_power / (rep_rate * h c / wavelength)``; all arguments must be > 0.
    The wavelength is an explicit input (one photon energy per use case),
    e.g. 589e-9 m for the dye transitions this package targets by default.
    """
    if avg_power <= 0 or rep_rate <= 0 or wavelength <= 0:
        raise ValueError("avg_power, rep_rate, and wavelength must all be > 0")
    photon_energy = PLANCK * SPEED_OF_LIGHT / wavelength
    return avg_power / (rep_rate * photon_energy)
