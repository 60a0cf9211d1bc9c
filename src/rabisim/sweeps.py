"""2-D fluorescence maps over detuning and drive strength.

The excitation field is the sum of two concentric Gaussians: a weak, long
pedestal (slow-modulator leakage) and a short main pulse carrying a
time-linear phase. A linear phase d(phi)/dt = +chirp shifts the main
component's resonance to laser detunings near +chirp, so the map loses
its detuning symmetry in the chirp direction while the pedestal keeps a
narrow feature at zero detuning whose strength grows roughly linearly
with field strength until saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import EmitterModel, solve_emission
from .errors import OutOfRange
from .pulses import DriveField, FieldComponent, GaussianEnvelope, PhaseLaw


@dataclass(frozen=True)
class ThirdComponent:
    """Optional extra leakage component (e.g. zeroth-order deflection).

    Disabled by default; when enabled it is a concentric Gaussian with its
    own intensity ratio and a constant angular-frequency offset.
    """

    fwhm: float = 50e-9
    ratio_db: float = -30.0
    frequency_offset: float = 2.0 * math.pi * 300e6

    def __post_init__(self):
        if not math.isfinite(self.ratio_db):
            raise ValueError("third component ratio_db must be finite")


@dataclass(frozen=True)
class CompositeFieldTemplate:
    """Concentric pedestal + chirped main pulse, amplitudes set per point.

    ``ratio_db`` is the pedestal:main *intensity* ratio in dB (<= 0); the
    amplitude ratio is 10^(ratio_db/20). ``chirp`` is the main component's
    d(phi)/dt in rad/s; its positive default places the main spectral
    feature at positive (blue) detuning.
    """

    pedestal_fwhm: float = 50e-9
    main_fwhm: float = 4e-9
    ratio_db: float = -34.0
    chirp: float = 2.0 * math.pi * 70e6
    center: float = 0.0
    pedestal_enabled: bool = True
    main_enabled: bool = True
    third: ThirdComponent | None = None

    def __post_init__(self):
        if not (self.ratio_db <= 0 and self.pedestal_amplitude_ratio > 0):
            raise ValueError("ratio_db must be finite and <= 0 "
                             "(pedestal weaker than main, but nonzero)")
        if self.pedestal_fwhm <= 0 or self.main_fwhm <= 0:
            raise ValueError("widths must be > 0")
        if not (self.pedestal_enabled or self.main_enabled):
            raise ValueError("template needs at least one enabled component")

    @property
    def pedestal_amplitude_ratio(self) -> float:
        return 10.0 ** (self.ratio_db / 20.0)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Signal matrix (amplitude rows x detuning columns), arbitrary units."""

    detunings: np.ndarray
    amplitudes: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        if self.signal.shape != (self.amplitudes.size, self.detunings.size):
            raise ValueError("signal must be (n_amplitudes, n_detunings)")
        if not np.all(np.isfinite(self.signal)):
            raise ValueError("signal must be finite")
        if np.any(self.signal < 0):
            raise ValueError("signal must be >= 0")


def build_composite(template: CompositeFieldTemplate, scale) -> DriveField:
    """Drive field at a given main-component peak amplitude (rad/s), or one
    per batch member for an array ``scale``."""
    if np.any(scale < 0):
        raise ValueError("scale must be >= 0")
    comps = []
    if template.main_enabled:
        comps.append(FieldComponent(
            GaussianEnvelope(peak=scale, fwhm=template.main_fwhm,
                             center=template.center),
            PhaseLaw(chirp=template.chirp)))
    if template.pedestal_enabled:
        comps.append(FieldComponent(
            GaussianEnvelope(peak=scale * template.pedestal_amplitude_ratio,
                             fwhm=template.pedestal_fwhm,
                             center=template.center),
            PhaseLaw()))
    if template.third is not None:
        third_ratio = 10.0 ** (template.third.ratio_db / 20.0)
        comps.append(FieldComponent(
            GaussianEnvelope(peak=scale * third_ratio,
                             fwhm=template.third.fwhm, center=template.center),
            PhaseLaw(chirp=template.third.frequency_offset)))
    return DriveField(comps)


def sweep_2d(emitter: EmitterModel, template: CompositeFieldTemplate,
             detunings, amplitudes, rep_period: float = 1.4e-6) -> SweepResult:
    """Emitted-photon integral per period over a detuning x amplitude grid.

    Each grid point integrates the Bloch dynamics over the pulse window
    (which spans the pedestal) and adds the exact free-decay emission over
    the rest of the repetition period. All grid points are one batch solve
    (:func:`rabisim.bloch.solve_emission`), the |amplitudes| as its rows
    and the detunings as its columns: its Dyson steps follow the drive,
    not the detuning, and a step updates the whole grid with two real
    matrix products. The map reads no peak excitation, so it sums the
    series at the step ends only. Raises ValueError when ``rep_period`` is
    shorter than the pulse window, and StepFailure before any stepping when
    the grid exceeds the batch work budget
    (:data:`rabisim.bloch.MAX_BATCH_POINT_STEPS`).
    """
    detunings = np.asarray(detunings, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if detunings.size == 0 or amplitudes.size == 0:
        raise ValueError("axes must be non-empty")
    if detunings.size > 1 and np.any(np.diff(detunings) <= 0):
        raise ValueError("detuning axis must be strictly increasing")
    if amplitudes.size > 1 and np.any(np.diff(amplitudes) <= 0):
        raise ValueError("amplitude axis must be strictly increasing")

    # Every grid point is driven by |amplitude| x the unit field (the sign of
    # a drive does not change the populations).
    unit = build_composite(template, 1.0)
    signal = solve_emission(unit, amplitudes, detunings, emitter.gamma1,
                            emitter.gamma2, unit.support(), rep_period)
    floor = -1e-12 * max(float(np.max(signal)), 1.0)
    if np.any(signal < floor):
        raise ValueError("sweep produced significantly negative signal")
    signal = np.maximum(signal, 0.0)
    return SweepResult(detunings=detunings, amplitudes=amplitudes, signal=signal)


def cross_section(result: SweepResult, amplitude: float):
    """Nearest-amplitude row of the map: (detunings, signal_row, row_amplitude).

    No interpolation; ties between neighboring rows resolve to the lower
    amplitude. Raises OutOfRange outside the amplitude axis (NaN included).
    """
    amps = result.amplitudes
    lo, hi = float(amps[0]), float(amps[-1])
    margin = 1e-9 * max(abs(lo), abs(hi), 1.0)
    if not lo - margin <= amplitude <= hi + margin:
        raise OutOfRange(f"amplitude {amplitude:g} outside [{lo:g}, {hi:g}]")
    idx = int(np.argmin(np.abs(amps - amplitude)))
    return result.detunings, result.signal[idx], float(amps[idx])
