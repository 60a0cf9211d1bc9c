"""Pulsed coherent excitation of a single two-level emitter.

Bloch dynamics under shaped multi-component drives, pulse-area calculus,
quantum-jump photon statistics with detector effects, jitter-averaged
power scans, and 2-D detuning/amplitude fluorescence maps.
"""

__version__ = "0.1.0"

from .bloch import BlochState, BlochTrajectory, EmitterModel, integrate
from .detection import (DetectorModel, TcspcHistogram, emission_rate,
                        first_detected_density, simulate_photon_stream,
                        simulate_tcspc)
from .fitting import FitProblem, FitResult, TraceFit, fit_trace, least_squares
from .jitter import (JitterModel, PowerScan, PowerScanFit, PowerScanTemplate,
                     averaged_power_scan, fit_power_scan)
from .pulses import (DriveField, FieldComponent, GaussianEnvelope, PhaseLaw,
                     RectangularEnvelope, SampledEnvelope, photons_per_pulse,
                     pulse_area, scale_to_area)
from .selftest import analytic_rabi, steady_state
from .sweeps import (CompositeFieldTemplate, SweepResult, ThirdComponent,
                     build_composite, cross_section, sweep_2d)

__all__ = [
    "BlochState", "BlochTrajectory", "EmitterModel", "analytic_rabi",
    "integrate", "steady_state",
    "DetectorModel", "TcspcHistogram", "emission_rate",
    "first_detected_density", "simulate_photon_stream", "simulate_tcspc",
    "FitProblem", "FitResult", "TraceFit", "fit_trace", "least_squares",
    "JitterModel", "PowerScan", "PowerScanFit", "PowerScanTemplate",
    "averaged_power_scan", "fit_power_scan",
    "DriveField", "FieldComponent", "GaussianEnvelope", "PhaseLaw",
    "RectangularEnvelope", "SampledEnvelope", "photons_per_pulse",
    "pulse_area", "scale_to_area",
    "CompositeFieldTemplate", "SweepResult", "ThirdComponent",
    "build_composite", "cross_section", "sweep_2d",
    "__version__",
]
