"""The four benchmark workloads: generated inputs, CLI commands, output checks.

Each workload is a fixed sequence of ``rabisim`` CLI commands, run in-process
through ``rabisim.cli_io.run_command``. Every input file is generated from the
benchmark seed, and every config sets each key the workload depends on, so a
change of a CLI default cannot move a workload. The checks run after the
timed region and reuse the tolerances the test suite states.

Why these four (measured on a 2-CPU machine, see ``run.py``):

- ``scan``: the c05 jitter-averaged power scan plus its fit. Wide batches over
  short pulse windows, so the batch kernel's cost per point-step dominates.
- ``map``: the c09 chirped detuning x amplitude sweep plus a cross-section.
  One batch whose step count is set by the 316 ns pedestal window, and the
  largest CSV written and read back.
- ``trace``: the c07 operating point with a 10^6-pulse TCSPC histogram. The
  quantum-jump engine, the DOP853 reference and area scaling; never the
  batch kernel.
- ``fit``: the c10 trace-fit round trip at 5.7 pi and 2.5 pi. The scalar
  fixed-step series solver and sampled-envelope pulse areas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.integrate import simpson

from rabisim import bloch, jitter, pulses
from rabisim.detection import first_detected_density
from rabisim.fitting import trace_model

MHZ = 2.0 * math.pi * 1e6
NS = 1e-9
T1_NS = 9.5
GAMMA1 = 1.0 / (T1_NS * NS)
EMITTER = bloch.EmitterModel(gamma1=GAMMA1)
REP_PERIOD_US = 1.4
# Resonant area of a unit-peak Gaussian per unit intensity FWHM.
GAF = math.sqrt(math.pi / (2.0 * math.log(2.0)))

# Keys shared by every config: a radiatively limited emitter on resonance.
EMITTER_KEYS = {
    "emitter.T1_ns": T1_NS,
    "emitter.Gamma2_MHz": "none",
    "emitter.detuning_MHz": 0.0,
    "detector.rep_period_us": REP_PERIOD_US,
}

# Tolerances of tests/test_bloch.py::test_batch_integrator_matches_reference
# (rho_end within abs 1e-5, integral of rho_ee within rel 1e-4), composed for
# the emitted-photon signal gamma1 * integral + rho_end * tail_factor. The CSV
# writers round to 9 significant digits, hence the relative slack.
RHO_END_ABS = 1e-5
INTEGRAL_REL = 1e-4
CSV_REL = 1e-8

# Trace histogram checks; see Trace.check.
WORST_BIN_SIGMA = 6.5
CHI2_FALSE_ALARM = 1e-4


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. ``FULL`` is the benchmark; ``TINY`` is for its smoke test."""

    scan_points: int
    scan_samples: int
    scan_spots: int
    map_det_points: int
    map_det_max_mhz: float
    map_amp_points: int
    map_spots: int
    trace_pulses: int
    setup_repeats: int


FULL = Sizes(scan_points=240, scan_samples=200, scan_spots=1,
             map_det_points=121, map_det_max_mhz=600.0, map_amp_points=40,
             map_spots=3, trace_pulses=1_000_000, setup_repeats=5)
TINY = Sizes(scan_points=24, scan_samples=4, scan_spots=1,
             map_det_points=41, map_det_max_mhz=200.0, map_amp_points=3,
             map_spots=1, trace_pulses=20_000, setup_repeats=1)


@dataclass(frozen=True)
class Command:
    """One CLI operation: argv, and the data files it writes into the pass dir."""

    argv: tuple
    outputs: tuple


def _config(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _read_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _bin_integrals(edges, t, y):
    """Trapezoid integrals of y(t) over each bin between ``edges``."""
    cumulative = np.concatenate(([0.0], np.cumsum(
        0.5 * (y[1:] + y[:-1]) * np.diff(t))))
    return np.diff(np.interp(edges, t, cumulative))


def reference_emission(field: pulses.DriveField, emitter: bloch.EmitterModel,
                       n_grid: int):
    """(signal, gamma1 * integral) per period from the DOP853 reference.

    Integrates over the field's support, where ``n_grid`` output intervals
    put the last sample exactly on the window end, and adds the closed-form
    decay tail over the rest of the repetition period.
    """
    t0, t1 = field.support()
    traj = bloch.integrate(emitter, field, bloch.BlochState(0.0), (t0, t1),
                           (t1 - t0) / n_grid)
    emitted = emitter.gamma1 * simpson(traj.rho_ee, x=traj.times)
    tail = -math.expm1(-emitter.gamma1 * (REP_PERIOD_US * 1e-6 - (t1 - t0)))
    return emitted + traj.rho_ee[-1] * tail, emitted


def _signal_tolerance(ref_signal: float, ref_emitted: float) -> float:
    return RHO_END_ABS + INTEGRAL_REL * ref_emitted + CSV_REL * abs(ref_signal)


class Workload:
    """Inputs live in ``inputs``; each pass writes into its own directory.

    A variant is one set of generated inputs. Most workloads repeat variant 0
    in every pass; one whose cost depends on the random draws in its inputs
    sets ``fresh_inputs`` and gets a new variant per pass, so the time pooled
    over the passes of a run averages that dependence out.
    """

    name = ""
    fresh_inputs = False

    def __init__(self, seed: int, sizes: Sizes, inputs: Path):
        self.seed = seed
        self.sizes = sizes
        self.inputs = inputs
        # Seed-derived choices (grid offsets, spot points) come from here.
        self.choices = np.random.default_rng([seed, 7])

    def generate(self, variant: int = 0) -> None:
        """Write every input file of ``variant`` into ``self.inputs``."""
        raise NotImplementedError

    def commands(self, out: Path, variant: int = 0) -> list:
        raise NotImplementedError

    def check(self, out: Path) -> list:
        """Failure messages per command of one pass's outputs (empty = correct)."""
        raise NotImplementedError


class Scan(Workload):
    """c05: 240 amplitudes up to 12 pi area, 4 ns FWHM, sigma_T = 7 %."""

    name = "scan"
    FWHM_NS = 4.0
    SIGMA_T_REL = 0.07

    def __init__(self, seed, sizes, inputs):
        super().__init__(seed, sizes, inputs)
        self.amp_max_mhz = 12.0 * math.pi / (self.FWHM_NS * NS * GAF) / MHZ
        self.spots = sorted(self.choices.choice(
            sizes.scan_points, sizes.scan_spots, replace=False).tolist())
        self.cfg = inputs / "scan.cfg"

    def generate(self, variant=0):
        self.cfg.write_text(_config({
            **EMITTER_KEYS,
            # amp_min = 0 is dropped by the CLI, leaving `points` amplitudes.
            "powerscan.amp_min_MHz": 0.0,
            "powerscan.amp_max_MHz": repr(self.amp_max_mhz),
            "powerscan.points": self.sizes.scan_points + 1,
            "powerscan.samples": self.sizes.scan_samples,
            "powerscan.base_fwhm_ns": self.FWHM_NS,
            "jitter.sigma_t_rel": self.SIGMA_T_REL,
            "fit.max_iter": 200,
            "rng.seed": self.seed,
        }))

    def commands(self, out, variant=0):
        cfg = str(self.cfg)
        return [
            Command(("power-scan", "--config", cfg, "--out", str(out)),
                    ("power_scan.csv",)),
            Command(("fit-power-scan", "--config", cfg,
                     "--data", str(out / "power_scan.csv"), "--out", str(out)),
                    ("fit_power_scan.json", "fit_power_scan.txt")),
        ]

    def amplitudes(self) -> np.ndarray:
        return (np.linspace(0.0, self.amp_max_mhz, self.sizes.scan_points + 1)
                * MHZ)[1:]

    def check(self, out):
        scan_fail, fit_fail = [], []
        rows = _read_rows(out / "power_scan.csv")
        amps = self.amplitudes()
        if rows.shape != (amps.size, 4):
            return [[f"power_scan.csv has shape {rows.shape}"], ["no scan"]]
        signal = rows[:, 1]
        if not np.allclose(rows[:, 0] * MHZ, amps, rtol=CSV_REL, atol=0.0):
            scan_fail.append("amplitude axis differs from the config")
        if not (np.all(np.isfinite(rows)) and np.all(signal >= 0.0)):
            scan_fail.append("signal is not finite and >= 0")
        model = jitter.JitterModel(sigma_t_rel=self.SIGMA_T_REL)
        base_t = self.FWHM_NS * NS
        for i in self.spots:
            durations = jitter.sample_durations(
                base_t, model, self.seed, self.sizes.scan_samples, point=i)
            refs = [reference_emission(
                pulses.DriveField.single(pulses.GaussianEnvelope(
                    peak=amps[i], fwhm=float(d), center=0.0)), EMITTER, 4000)
                for d in durations]
            ref = float(np.mean([r[0] for r in refs]))
            tol = float(np.mean([_signal_tolerance(*r) for r in refs]))
            if not abs(signal[i] - ref) <= tol:
                scan_fail.append(f"point {i}: signal {signal[i]:.9g} vs DOP853 "
                                 f"{ref:.9g} (tol {tol:.2g})")
        fit = json.loads((out / "fit_power_scan.json").read_text())
        if not str(fit.get("status", "")).startswith("converged"):
            fit_fail.append(f"fit status {fit.get('status')!r}")
        numbers = [v for v in fit.values() if not isinstance(v, str)]
        if not all(math.isfinite(v) for v in numbers) or fit["period_MHz"] <= 0:
            fit_fail.append("fit parameters are not finite")
        return [scan_fail, fit_fail]


class Map(Workload):
    """c09: 121 detunings (+-600 MHz) x 40 amplitudes (0.1 pi - 4 pi area)."""

    name = "map"
    CENTER_NS = 200.0
    MAIN_FWHM_NS = 4.0
    PEDESTAL_FWHM_NS = 50.0
    RATIO_DB = -34.0
    CHIRP_MHZ = 70.0

    def __init__(self, seed, sizes, inputs):
        super().__init__(seed, sizes, inputs)
        unit = 1.0 / (self.MAIN_FWHM_NS * NS * GAF) / MHZ
        self.amp_lo_mhz = 0.1 * math.pi * unit
        self.amp_hi_mhz = 4.0 * math.pi * unit
        # A seeded shift of the detuning grid, a tenth of its spacing at most,
        # so the seed changes the inputs but not the amount of work.
        spacing = 2.0 * sizes.map_det_max_mhz / (sizes.map_det_points - 1)
        self.det_shift_mhz = float(self.choices.uniform(-0.1, 0.1)) * spacing
        self.spots = [(int(self.choices.integers(sizes.map_amp_points)),
                       int(self.choices.integers(sizes.map_det_points)))
                      for _ in range(sizes.map_spots)]
        self.cfg = inputs / "map.cfg"

    def generate(self, variant=0):
        s = self.sizes
        self.cfg.write_text(_config({
            **EMITTER_KEYS,
            "sweep.det_min_MHz": repr(-s.map_det_max_mhz + self.det_shift_mhz),
            "sweep.det_max_MHz": repr(s.map_det_max_mhz + self.det_shift_mhz),
            "sweep.det_points": s.map_det_points,
            "sweep.amp_min_MHz": repr(self.amp_lo_mhz),
            "sweep.amp_max_MHz": repr(self.amp_hi_mhz),
            "sweep.amp_points": s.map_amp_points,
            "template.pedestal_fwhm_ns": self.PEDESTAL_FWHM_NS,
            "template.main_fwhm_ns": self.MAIN_FWHM_NS,
            "template.ratio_dB": self.RATIO_DB,
            "template.chirp_MHz": self.CHIRP_MHZ,
            "template.center_ns": self.CENTER_NS,
            "template.pedestal_enabled": "true",
            "template.main_enabled": "true",
            "template.third_enabled": "false",
            "crosssection.amplitude_MHz": repr(self.amp_lo_mhz),
            "rng.seed": self.seed,
        }))

    def commands(self, out, variant=0):
        cfg = str(self.cfg)
        return [
            Command(("sweep2d", "--config", cfg, "--out", str(out)),
                    ("sweep.csv", "sweep_long.csv")),
            Command(("cross-section", "--config", cfg,
                     "--source", str(out / "sweep_long.csv"),
                     "--amplitude-mhz", repr(self.amp_lo_mhz),
                     "--out", str(out)),
                    ("cross_section.csv",)),
        ]

    def field(self, amplitude: float) -> pulses.DriveField:
        """The composite drive built from pulse primitives, not from sweeps.py."""
        center = self.CENTER_NS * NS
        ratio = 10.0 ** (self.RATIO_DB / 20.0)
        return pulses.DriveField([
            pulses.FieldComponent(
                pulses.GaussianEnvelope(peak=amplitude,
                                        fwhm=self.MAIN_FWHM_NS * NS,
                                        center=center),
                pulses.PhaseLaw(chirp=self.CHIRP_MHZ * MHZ)),
            pulses.FieldComponent(
                pulses.GaussianEnvelope(peak=amplitude * ratio,
                                        fwhm=self.PEDESTAL_FWHM_NS * NS,
                                        center=center)),
        ])

    def check(self, out):
        s = self.sizes
        sweep_fail, cross_fail = [], []
        rows = _read_rows(out / "sweep_long.csv")
        n = s.map_det_points * s.map_amp_points
        if rows.shape != (n, 3):
            return [[f"sweep_long.csv has shape {rows.shape}"], ["no sweep"]]
        # Long format: amplitude-major rows of (detuning, amplitude, signal).
        dets = rows[:s.map_det_points, 0] * MHZ
        amps = rows[::s.map_det_points, 1] * MHZ
        signal = rows[:, 2].reshape(s.map_amp_points, s.map_det_points)
        if not (np.all(np.isfinite(signal)) and np.all(signal >= 0.0)):
            sweep_fail.append("signal is not finite and >= 0")
        for i, j in self.spots:
            emitter = EMITTER.with_detuning(float(dets[j]))
            ref, emitted = reference_emission(self.field(float(amps[i])),
                                              emitter, 60_000)
            tol = _signal_tolerance(ref, emitted)
            if not abs(signal[i, j] - ref) <= tol:
                sweep_fail.append(
                    f"point ({i}, {j}): signal {signal[i, j]:.9g} vs DOP853 "
                    f"{ref:.9g} (tol {tol:.2g})")
        cross = _read_rows(out / "cross_section.csv")
        if cross.shape != (s.map_det_points, 2):
            return [sweep_fail, [f"cross_section.csv has shape {cross.shape}"]]
        if not np.array_equal(cross[:, 1], signal[0]):
            cross_fail.append("cross-section differs from the lowest map row")
        # c09b: the lowest-amplitude spectrum peaks at +70 +- 15 MHz.
        peak_mhz = float(cross[np.argmax(cross[:, 1]), 0])
        if not abs(peak_mhz - 70.0) <= 15.0:
            cross_fail.append(f"cross-section peaks at {peak_mhz:+.1f} MHz")
        return [sweep_fail, cross_fail]


class Trace(Workload):
    """c07: 5.7 pi Gaussian, 10^6 pulses, eta = 0.02, 70 ns dead time."""

    name = "trace"
    AREA_PI = 5.7
    FWHM_NS = 5.116
    CENTER_NS = 12.0
    T_END_NS = 250.0
    DT_OUT_NS = 0.05
    EFFICIENCY = 0.02
    BIN_NS = 2.0

    def __init__(self, seed, sizes, inputs):
        super().__init__(seed, sizes, inputs)
        self.cfg = inputs / "trace.cfg"

    def generate(self, variant=0):
        self.cfg.write_text(_config({
            **EMITTER_KEYS,
            "field.count": 1,
            "field.1.kind": "gaussian",
            "field.1.peak_MHz": 100.0,
            "field.1.area_pi": self.AREA_PI,
            "field.1.fwhm_ns": self.FWHM_NS,
            "field.1.center_ns": self.CENTER_NS,
            "field.1.phase_rad": 0.0,
            "field.1.chirp_MHz": 0.0,
            "trace.t_start_ns": 0.0,
            "trace.t_end_ns": self.T_END_NS,
            "trace.dt_out_ns": self.DT_OUT_NS,
            "trace.n_pulses": self.sizes.trace_pulses,
            "detector.efficiency": self.EFFICIENCY,
            "detector.dead_time_ns": 70.0,
            "detector.jitter_ps": 50.0,
            "detector.bin_width_ns": self.BIN_NS,
            "rng.seed": self.seed,
        }))

    def commands(self, out, variant=0):
        return [Command(("trace", "--config", str(self.cfg), "--out", str(out)),
                        ("trace.csv", "histogram.csv", "first_detected.csv"))]

    def check(self, out):
        fail = []
        n_pulses = self.sizes.trace_pulses
        hist = _read_rows(out / "histogram.csv")
        edges = np.append(hist[:, 0], hist[-1, 1]) * NS
        counts = hist[:, 2]
        centers = 0.5 * (edges[:-1] + edges[1:])
        if counts.sum() > n_pulses:
            fail.append(f"{counts.sum():.0f} counts exceed {n_pulses} pulses")
        # Closed-form 5.7 pi peak, independent of the CLI's scale_to_area.
        fwhm = self.FWHM_NS * NS
        field = pulses.DriveField.single(pulses.GaussianEnvelope(
            peak=self.AREA_PI * math.pi / (fwhm * GAF), fwhm=fwhm,
            center=self.CENTER_NS * NS))
        traj = bloch.integrate(EMITTER, field, bloch.BlochState(0.0),
                               (0.0, self.T_END_NS * NS), self.DT_OUT_NS * NS)
        t = traj.times
        rho_bins = _bin_integrals(edges, t, traj.rho_ee)
        window = centers < 150e-9
        corr = float(np.corrcoef(counts[window], rho_bins[window])[0, 1])
        if not corr > 0.999:
            fail.append(f"Pearson(histogram, rho_ee) = {corr:.5f} <= 0.999")
        density = first_detected_density(t, GAMMA1 * traj.rho_ee, self.EFFICIENCY)
        mu = n_pulses * _bin_integrals(edges, t, density)
        # c07 bounds the worst bin by 3 sigma at its one fixed seed. Over
        # random seeds the worst bin of a correct histogram exceeds 3 sigma
        # with probability 0.18 (exact Poisson tails), so the bound here is
        # the one a correct program exceeds with probability 3e-5, and a
        # chi-square test over the populated bins (false alarm 1e-4) keeps
        # the power against a systematic deviation.
        worst = float(np.max(np.abs(counts - mu) / np.sqrt(np.maximum(mu, 1.0))))
        if not worst < WORST_BIN_SIGMA:
            fail.append(f"worst bin {worst:.2f} sigma from the first-detected "
                        f"density")
        full = mu >= 5.0
        chi2 = float(np.sum((counts[full] - mu[full]) ** 2 / mu[full]))
        p_value = float(stats.chi2.sf(chi2, int(full.sum())))
        if not p_value >= CHI2_FALSE_ALARM:
            fail.append(f"chi-square {chi2:.1f} over {int(full.sum())} bins "
                        f"(p = {p_value:.2g}) against the first-detected density")
        return [fail]


class Fit(Workload):
    """c10: fit-trace on synthetic 5.7 pi and 2.5 pi histograms."""

    name = "fit"
    # The fit's iteration count, hence its cost, depends on the noise draw.
    fresh_inputs = True
    PEAKS_MHZ = (370.0, 162.0)
    T0_NS = 3.1
    BACKGROUND = 40.0
    NORM = 1e5

    def __init__(self, seed, sizes, inputs):
        super().__init__(seed, sizes, inputs)
        self.cfg = inputs / "fit.cfg"
        self.pulse = inputs / "pulse.csv"
        fwhm = 5.7 * math.pi / (2.0 * math.pi * 370e6 * GAF)
        grid = np.arange(0.0, 40e-9, 0.05e-9)
        self.envelope = pulses.SampledEnvelope(
            grid, np.exp(-2.0 * math.log(2.0) * ((grid - 14e-9) / fwhm) ** 2))
        self.data_t = np.arange(0.25e-9, 95e-9, 0.5e-9)
        self.areas = {}

    def histogram(self, variant: int, k: int) -> Path:
        return self.inputs / f"histogram_{variant}_{k}.csv"

    def generate(self, variant=0):
        self.cfg.write_text(_config({
            **EMITTER_KEYS,
            "fit.model": "population",
            "fit.max_iter": 200,
            "detector.efficiency": 0.02,
            "rng.seed": self.seed,
        }))
        self.pulse.write_text("# t_ns,amplitude\n" + "".join(
            f"{float(t / NS)!r},{float(v)!r}\n" for t, v in
            zip(self.envelope.times, self.envelope.amplitudes)))
        noise = np.random.default_rng([self.seed, variant])
        for k, peak_mhz in enumerate(self.PEAKS_MHZ):
            clean = trace_model(self.data_t, self.envelope, EMITTER,
                                peak_mhz * MHZ, self.T0_NS * NS,
                                self.BACKGROUND, self.NORM)
            counts = noise.poisson(clean)
            self.histogram(variant, k).write_text("# t_ns,counts\n" + "".join(
                f"{float(t / NS)!r},{int(c)}\n" for t, c in zip(self.data_t, counts)))

    def commands(self, out, variant=0):
        return [Command(("fit-trace", "--config", str(self.cfg),
                         "--data", str(self.histogram(variant, k)),
                         "--pulse", str(self.pulse), "--pulse-mode", "amplitude",
                         "--out", str(out / f"fit_{k}")),
                        (f"fit_{k}/fit_trace.json", f"fit_{k}/fit_trace.txt"))
                for k in range(len(self.PEAKS_MHZ))]

    def true_area(self, s_true: float) -> float:
        if s_true not in self.areas:
            self.areas[s_true] = pulses.pulse_area(
                pulses.DriveField.single(self.envelope.scaled(s_true)))
        return self.areas[s_true]

    def check(self, out):
        failures = []
        for k, peak_mhz in enumerate(self.PEAKS_MHZ):
            fail = []
            fit = json.loads((out / f"fit_{k}" / "fit_trace.json").read_text())
            s_true = peak_mhz * MHZ
            true_area = self.true_area(s_true)
            # c10: Omega_max and the pulse area recovered within 2 %.
            omega_err = abs(fit["omega_max_rad_s"] / s_true - 1.0)
            area_err = abs(fit["pulse_area_rad"] / true_area - 1.0)
            if not (omega_err < 0.02 and area_err < 0.02):
                fail.append(f"{peak_mhz:g} MHz: Omega off by {omega_err:.2%}, "
                            f"area off by {area_err:.2%}")
            failures.append(fail)
        return failures


WORKLOADS = {w.name: w for w in (Scan, Map, Trace, Fit)}
