"""Config parsing, data ingestion, result serialization, and the CLI.

Config files are line-oriented ``section.key = value`` text: '#' starts a
comment, blank lines are ignored, unknown keys are rejected. Times are
given in ns and frequencies in MHz (converted to SI at this boundary
only). Every command writes '#'-headed CSV with 9 significant digits (or
a text/JSON report) plus a JSON run manifest that lists its outputs and
echoes the fully resolved config, so any run can be reproduced
bit-identically from its manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from dataclasses import field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import BlochState, EmitterModel, integrate
from .detection import (DetectorModel, emission_rate, first_detected_density,
                        simulate_tcspc)
from .errors import (NonMonotonicTime, ParseError, RabisimError,
                     ValidationError)
from .fitting import fit_trace
from .jitter import (JitterModel, PowerScan, PowerScanTemplate,
                     averaged_power_scan, fit_power_scan)
from .pulses import (PLANCK, SPEED_OF_LIGHT, DriveField, FieldComponent,
                     GaussianEnvelope, PhaseLaw, RectangularEnvelope,
                     SampledEnvelope, photons_per_pulse, scale_to_area)
from .selftest import run_selftest
from .sweeps import (CompositeFieldTemplate, SweepResult, ThirdComponent,
                     cross_section, sweep_2d)

MHZ = 2.0 * math.pi * 1e6
NS = 1e-9

FLOAT_FMT = "%.9g"

#: Most rows `trace` writes (a ~0.3 GB trace.csv); the defaults write ~3.5k.
MAX_TRACE_ROWS = 10 ** 7

#: Most drive components (``field.count`` or ``field.N.*``) a config may set.
MAX_FIELD_COMPONENTS = 1000


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


# ---------------------------------------------------------------------------
# Config schema
#
# The dataclass fields are the key table: each field's metadata holds its
# file spelling where it differs from the field name, whether ``none`` is
# accepted, and a ``(predicate, message)`` check of a set value. A key's type
# is that of its default, or float for an optional key.
# ---------------------------------------------------------------------------

def _key(default, spelling: str | None = None, optional: bool = False,
         check=None):
    return dataclass_field(default=default, metadata={
        "spelling": spelling, "optional": optional, "check": check})


def _at_least(n):
    return (lambda x: x >= n, f"must be >= {n}")


_POSITIVE = (lambda x: x > 0, "must be > 0")
_NON_NEGATIVE = _at_least(0)
_DECIBEL = (lambda x: x <= 0, "must be <= 0")


def _one_of(*choices):
    return (lambda x: x in choices, "must be one of " + ", ".join(choices))


@dataclass(frozen=True)
class EmitterConfig:
    t1_ns: float | None = _key(9.5, "T1_ns", optional=True, check=_POSITIVE)
    gamma1_mhz: float | None = _key(None, "Gamma1_MHz", optional=True,
                                    check=_POSITIVE)
    gamma2_mhz: float | None = _key(None, "Gamma2_MHz", optional=True,
                                    check=_POSITIVE)
    detuning_mhz: float = _key(0.0, "detuning_MHz")


@dataclass(frozen=True)
class FieldComponentConfig:
    kind: str = _key("gaussian",
                     check=_one_of("gaussian", "rectangular", "sampled"))
    peak_mhz: float = _key(125.0, "peak_MHz", check=_NON_NEGATIVE)
    area_pi: float | None = _key(None, optional=True)
    fwhm_ns: float = 4.0
    duration_ns: float = 4.0
    center_ns: float = 0.0
    phase_rad: float = 0.0
    chirp_mhz: float = _key(0.0, "chirp_MHz")
    file: str = ""
    file_mode: str = _key("intensity", check=_one_of("intensity", "amplitude"))


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float = _key(0.02, check=(lambda x: 0 < x <= 1,
                                          "must be in (0, 1]"))
    dead_time_ns: float = _key(70.0, check=_NON_NEGATIVE)
    jitter_ps: float = _key(50.0, check=_NON_NEGATIVE)
    rep_period_us: float = _key(1.4, check=_POSITIVE)
    bin_width_ns: float = _key(0.5, check=_POSITIVE)


@dataclass(frozen=True)
class TraceConfig:
    t_start_ns: float = 0.0
    t_end_ns: float | None = _key(None, optional=True)
    dt_out_ns: float = _key(0.02, check=_POSITIVE)
    n_pulses: int = _key(0, check=_NON_NEGATIVE)


@dataclass(frozen=True)
class PowerScanConfig:
    amp_min_mhz: float = _key(0.0, "amp_min_MHz")
    amp_max_mhz: float = _key(1000.0, "amp_max_MHz")
    points: int = _key(201, check=_at_least(2))
    samples: int = _key(500, check=_at_least(1))
    base_fwhm_ns: float = 4.0


@dataclass(frozen=True)
class JitterConfig:
    sigma_t_rel: float = _key(0.07, check=(lambda x: 0 <= x < 0.5,
                                           "must be in [0, 0.5)"))


@dataclass(frozen=True)
class SweepConfig:
    det_min_mhz: float = _key(-600.0, "det_min_MHz")
    det_max_mhz: float = _key(600.0, "det_max_MHz")
    det_points: int = _key(121, check=_at_least(2))
    amp_min_mhz: float = _key(10.0, "amp_min_MHz")
    amp_max_mhz: float = _key(400.0, "amp_max_MHz")
    amp_points: int = _key(40, check=_at_least(1))


@dataclass(frozen=True)
class TemplateConfig:
    pedestal_fwhm_ns: float = 50.0
    main_fwhm_ns: float = 4.0
    ratio_db: float = _key(-34.0, "ratio_dB", check=_DECIBEL)
    chirp_mhz: float = _key(70.0, "chirp_MHz")
    center_ns: float = 0.0
    pedestal_enabled: bool = True
    main_enabled: bool = True
    third_enabled: bool = False
    third_offset_mhz: float = _key(300.0, "third_offset_MHz")
    third_ratio_db: float = _key(-30.0, "third_ratio_dB", check=_DECIBEL)
    third_fwhm_ns: float = 50.0


@dataclass(frozen=True)
class FitConfig:
    model: str = _key("population",
                      check=_one_of("population", "first_detected"))
    max_iter: int = 200


@dataclass(frozen=True)
class ExperimentConfig:
    emitter: EmitterConfig = EmitterConfig()
    field: tuple = (FieldComponentConfig(),)
    detector: DetectorConfig = DetectorConfig()
    trace: TraceConfig = TraceConfig()
    powerscan: PowerScanConfig = PowerScanConfig()
    jitter: JitterConfig = JitterConfig()
    sweep: SweepConfig = SweepConfig()
    template: TemplateConfig = TemplateConfig()
    fit: FitConfig = FitConfig()
    seed: int = _key(12345, "rng.seed",
                     check=(lambda s: 0 <= s < 2 ** 64, "must be in [0, 2^64)"))
    output_dir: str = _key(".", "output.dir")
    crosssection_amp_mhz: float = _key(100.0, "crosssection.amplitude_MHz")


def _spelling(f) -> str:
    return f.metadata.get("spelling") or f.name


def _table(cfg: ExperimentConfig):
    """``(file key, owner, Field, value)`` for every key of ``cfg``.

    The owner is the section name, the 1-based index of a field component,
    or None for a top-level key.
    """
    for top in fields(cfg):
        value = getattr(cfg, top.name)
        if is_dataclass(value):
            groups = [(top.name, top.name, value)]
        elif isinstance(value, tuple):
            groups = [(f"{top.name}.{i}", i, comp)
                      for i, comp in enumerate(value, start=1)]
        else:
            yield _spelling(top), None, top, value
            continue
        for prefix, owner, obj in groups:
            for f in fields(obj):
                yield f"{prefix}.{_spelling(f)}", owner, f, getattr(obj, f.name)


def _parse_value(key: str, raw: str, typ):
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValidationError(f"key '{key}': cannot parse {raw!r} as {typ.__name__}") from exc


def _component_index(key: str) -> int:
    section, _, rest = key.partition(".")
    index = rest.partition(".")[0]
    return int(index) if section == "field" and index.isdecimal() else 0


def parse_config(text: str):
    """Parse config text; returns (ExperimentConfig, provenance lines).

    Defaults fill any unset key and each applied default is echoed in the
    provenance list. Unknown keys raise ValidationError; malformed lines
    raise ParseError with the line number.
    """
    explicit: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError("empty key or value", line=lineno)
        if key in explicit:
            raise ParseError(f"duplicate key '{key}'", line=lineno)
        explicit[key] = value

    field_count = _parse_value("field.count", explicit.get("field.count", "1"),
                               int)
    if field_count < 1:
        raise ValidationError("field.count must be >= 1")
    field_count = max([field_count, *map(_component_index, explicit)])
    if field_count > MAX_FIELD_COMPONENTS:
        raise ValidationError(f"{field_count} field components (at most "
                              f"{MAX_FIELD_COMPONENTS})")
    skeleton = ExperimentConfig(field=(FieldComponentConfig(),) * field_count)
    table = {key: (owner, f) for key, owner, f, _ in _table(skeleton)}
    values: dict = {owner: {} for owner, _ in table.values()}
    for key, raw in explicit.items():
        if key == "field.count":
            continue
        if key not in table:
            raise ValidationError(f"unknown key '{key}'")
        owner, f = table[key]
        if f.metadata.get("optional") and raw.lower() == "none":
            values[owner][f.name] = None
        else:
            values[owner][f.name] = _parse_value(
                key, raw, float if f.default is None else type(f.default))

    # A decay rate given alone replaces the default lifetime.
    if values["emitter"].get("gamma1_mhz") is not None:
        values["emitter"].setdefault("t1_ns", None)
    cfg = replace(skeleton, **values[None], **{
        f.name: replace(getattr(skeleton, f.name), **values[f.name])
        for f in fields(skeleton) if is_dataclass(f.default)},
        field=tuple(replace(comp, **values[i])
                    for i, comp in enumerate(skeleton.field, start=1)))
    _validate_config(cfg)

    provenance = []
    for key, value in _config_items(cfg):
        if key not in explicit and key != "field.count":
            provenance.append(f"{key} = {value} (default)")
    return cfg, provenance


def _validate_config(cfg: ExperimentConfig):
    """Check every key against its table entry, then the rules that span keys."""
    for key, _, f, value in _table(cfg):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value!r}")
        check = f.metadata.get("check")
        if value is not None and check and not check[0](value):
            raise ValidationError(f"{key} {check[1]}, got {value!r}")
    e = cfg.emitter
    if (e.t1_ns is None) == (e.gamma1_mhz is None):
        raise ValidationError("give exactly one of emitter.T1_ns / emitter.Gamma1_MHz")
    for i, comp in enumerate(cfg.field, start=1):
        if comp.kind == "sampled" and not comp.file:
            raise ValidationError(f"field.{i}: sampled components need a file")


def _config_items(cfg: ExperimentConfig):
    """All keys of a config in file spelling, serialized values, sorted."""
    items = [("field.count", str(len(cfg.field)))]
    for key, _, _, val in _table(cfg):
        if val == "":
            continue  # empty strings (unset paths) are omitted
        if val is None:
            sval = "none"
        elif isinstance(val, bool):
            sval = "true" if val else "false"
        elif isinstance(val, float):
            sval = _fmt(val)
        else:
            sval = str(val)
        items.append((key, sval))
    return sorted(items)


def serialize_config(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{k} = {v}" for k, v in _config_items(cfg)) + "\n"


# ---------------------------------------------------------------------------
# Domain object builders (SI conversion happens here)
# ---------------------------------------------------------------------------

def build_emitter(cfg: ExperimentConfig) -> EmitterModel:
    e = cfg.emitter
    if e.t1_ns is not None:
        g1 = 1.0 / (e.t1_ns * NS)
    else:
        g1 = e.gamma1_mhz * MHZ
    g2 = e.gamma2_mhz * MHZ if e.gamma2_mhz is not None else None
    return EmitterModel(gamma1=g1, gamma2=g2, detuning=e.detuning_mhz * MHZ)


def build_envelope(comp: FieldComponentConfig, base_dir: Path | None = None):
    if comp.kind == "gaussian":
        return GaussianEnvelope(peak=comp.peak_mhz * MHZ,
                                fwhm=comp.fwhm_ns * NS,
                                center=comp.center_ns * NS)
    if comp.kind == "rectangular":
        return RectangularEnvelope(peak=comp.peak_mhz * MHZ,
                                   duration=comp.duration_ns * NS,
                                   center=comp.center_ns * NS)
    path = Path(comp.file)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    record = ingest_trace(path.read_text(), mode=comp.file_mode)
    amps = record.values
    peak = float(np.max(amps))
    if peak <= 0:
        raise ValidationError(f"sampled envelope {comp.file} is identically zero")
    return SampledEnvelope(record.times_ns * NS,
                           amps / peak * comp.peak_mhz * MHZ)


def build_drive_field(cfg: ExperimentConfig, base_dir: Path | None = None) -> DriveField:
    comps = []
    for comp in cfg.field:
        env = build_envelope(comp, base_dir)
        phase = PhaseLaw(offset=comp.phase_rad, chirp=comp.chirp_mhz * MHZ)
        fc = FieldComponent(env, phase)
        if comp.area_pi is not None:
            single = scale_to_area(DriveField.single(env, phase),
                                   comp.area_pi * math.pi)
            fc = single.components[0]
        comps.append(fc)
    return DriveField(comps)


def build_detector(cfg: ExperimentConfig) -> DetectorModel:
    d = cfg.detector
    return DetectorModel(efficiency=d.efficiency, dead_time=d.dead_time_ns * NS,
                         timing_jitter_sigma=d.jitter_ps * 1e-12,
                         rep_period=d.rep_period_us * 1e-6,
                         bin_width=d.bin_width_ns * NS)


def build_template(cfg: ExperimentConfig) -> CompositeFieldTemplate:
    t = cfg.template
    third = None
    if t.third_enabled:
        third = ThirdComponent(fwhm=t.third_fwhm_ns * NS,
                               ratio_db=t.third_ratio_db,
                               frequency_offset=t.third_offset_mhz * MHZ)
    return CompositeFieldTemplate(
        pedestal_fwhm=t.pedestal_fwhm_ns * NS, main_fwhm=t.main_fwhm_ns * NS,
        ratio_db=t.ratio_db, chirp=t.chirp_mhz * MHZ, center=t.center_ns * NS,
        pedestal_enabled=t.pedestal_enabled, main_enabled=t.main_enabled,
        third=third)


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TraceRecord:
    """Two-column series (time in ns, value)."""

    times_ns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times_ns.size != self.values.size:
            raise ValueError("times and values must have equal length")


def ingest_trace(text: str, mode: str = "counts") -> TraceRecord:
    """Parse the text of a two-column trace; mode='intensity' takes sqrt of
    the values.

    Lines starting with '#' are skipped. Time must be strictly increasing;
    values must be finite (and non-negative for intensity mode).
    """
    t_list: list[float] = []
    v_list: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ParseError("expected two numeric columns", line=lineno)
        try:
            t_list.append(float(parts[0]))
            v_list.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"non-numeric data {line!r}", line=lineno) from None
    if len(t_list) < 2:
        raise ParseError("trace needs at least two rows")
    t = np.asarray(t_list)
    v = np.asarray(v_list)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ParseError("trace contains non-finite values")
    if np.any(np.diff(t) <= 0):
        raise NonMonotonicTime("trace time column must be strictly increasing")
    if mode == "intensity":
        if np.any(v < 0):
            raise ValidationError("intensity values must be >= 0")
        v = np.sqrt(v)
    elif mode != "counts" and mode != "amplitude":
        raise ValidationError("mode must be counts, amplitude, or intensity")
    return TraceRecord(times_ns=t, values=v)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header_lines, columns):
    """'#'-prefixed header lines, then one comma-separated line per row of the
    equal-length ``columns``.

    Floats are written with 9 significant digits, integers as integers.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in columns) + "\n"
    with path.open("w") as f:
        f.writelines(f"# {h}\n" for h in header_lines)
        f.writelines(map(row.__mod__, zip(*(c.tolist() for c in columns))))


def write_manifest(path: Path, command: str, cfg_text: str, seed: int,
                   outputs: list[str], defaults: list[str], wall_time: float):
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg_text,
        "defaults": defaults,
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_sweep_long(path: Path) -> SweepResult:
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if rows.shape[1] != 3:
        raise ParseError("long-format sweep file needs three columns")
    dets, di = np.unique(rows[:, 0] * MHZ, return_inverse=True)
    amps, ai = np.unique(rows[:, 1] * MHZ, return_inverse=True)
    if len(rows) != amps.size * dets.size:
        raise ParseError(f"long-format sweep file has {len(rows)} rows for a "
                         f"{amps.size} x {dets.size} grid")
    matrix = np.full((amps.size, dets.size), np.nan)
    matrix[ai, di] = rows[:, 2]
    if np.any(np.isnan(matrix)):
        raise ParseError("long-format sweep file does not cover a full grid")
    return SweepResult(detunings=dets, amplitudes=amps, signal=matrix)


def write_report(path_txt: Path, path_json: Path, payload: dict, header_lines):
    lines = [f"# {h}" for h in header_lines]
    for k, v in payload.items():
        lines.append(f"{k} = {_fmt(v) if isinstance(v, float) else v}")
    path_txt.write_text("\n".join(lines) + "\n")
    path_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
#
# Each command is ``cmd_*(args, cfg, out) -> (paths written, summary)``: it
# builds the domain objects and writes its files into ``out``. run_command
# loads the config, makes ``out``, then writes the manifest
# ``<command>_manifest.json`` ('-' as '_'), which lists the paths written and
# the keys left at their defaults, and prints the summary.
# ---------------------------------------------------------------------------

def _load_config(args) -> tuple[ExperimentConfig, list[str], str]:
    if getattr(args, "config", None):
        text = Path(args.config).read_text()
    else:
        text = ""
    cfg, provenance = parse_config(text)
    if getattr(args, "out", None):
        cfg = replace(cfg, output_dir=args.out)
        provenance = [p for p in provenance if not p.startswith("output.dir =")]
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
        _validate_config(cfg)
        provenance = [p for p in provenance if not p.startswith("rng.seed =")]
    return cfg, provenance, serialize_config(cfg)


def _header(args) -> str:
    return f"rabisim {args.command} v{__version__}"


def _wrote(paths) -> str:
    return "wrote " + ", ".join(map(str, paths))


def cmd_trace(args, cfg, out):
    base_dir = Path(args.config).parent if args.config else None
    emitter = build_emitter(cfg)
    field = build_drive_field(cfg, base_dir)
    # Built before any output is written, so a bad detector writes nothing.
    detector = build_detector(cfg) if cfg.trace.n_pulses > 0 else None
    support = field.support()
    t0 = cfg.trace.t_start_ns * NS
    if cfg.trace.t_end_ns is not None:
        t1 = cfg.trace.t_end_ns * NS
    else:
        t1 = (support[1] if support else t0) + 6.0 / emitter.gamma1
    dt_out = cfg.trace.dt_out_ns * NS
    # `integrate` samples every dt_out from t0, floor(span / dt_out) + 1 rows:
    # a window shorter than one output step would give a single row.
    span = (t1 - t0) * (1.0 + 1e-12)
    window = f"trace window [{_fmt(t0 / NS)}, {_fmt(t1 / NS)}] ns holds"
    at = f"rows at trace.dt_out_ns = {_fmt(cfg.trace.dt_out_ns)}"
    if not span >= dt_out:
        raise ValidationError(f"{window} fewer than two {at}")
    if span >= MAX_TRACE_ROWS * dt_out:
        raise ValidationError(f"{window} more than {MAX_TRACE_ROWS} {at}")
    traj = integrate(emitter, field, BlochState(0.0), (t0, t1), dt_out)
    times, rates = emission_rate(traj, emitter)
    header = [_header(args), f"field_hash={traj.field_hash}",
              f"detuning_MHz={_fmt(emitter.detuning / MHZ)}"]
    trace_path = out / "trace.csv"
    _write_csv(trace_path, header + ["t_ns,rho_ee,emission_rate_per_s"],
               (times / NS, traj.rho_ee, rates))
    if detector is None:
        return [trace_path], _wrote([trace_path])
    hist = simulate_tcspc(emitter, field, detector, cfg.trace.n_pulses, cfg.seed)
    hist_path = out / "histogram.csv"
    edges = hist.bin_edges / NS
    _write_csv(hist_path, header + [f"seed={cfg.seed}",
                                    f"n_pulses={hist.n_pulses}",
                                    "bin_start_ns,bin_end_ns,counts"],
               (edges[:-1], edges[1:], hist.counts))
    density = first_detected_density(times, rates, detector.efficiency)
    dens_path = out / "first_detected.csv"
    _write_csv(dens_path, header + ["t_ns,first_detected_density_per_s"],
               (times / NS, density))
    outputs = [trace_path, hist_path, dens_path]
    return outputs, _wrote(outputs)


def cmd_power_scan(args, cfg, out):
    emitter = build_emitter(cfg)
    ps = cfg.powerscan
    amps = np.linspace(ps.amp_min_mhz, ps.amp_max_mhz, ps.points) * MHZ
    if amps[0] == 0.0:
        amps = amps[1:]
    template = PowerScanTemplate(main_fwhm=ps.base_fwhm_ns * NS)
    jm = JitterModel(sigma_t_rel=cfg.jitter.sigma_t_rel)
    scan = averaged_power_scan(emitter, template, amps, jm, ps.samples,
                               cfg.seed,
                               rep_period=cfg.detector.rep_period_us * 1e-6)
    path = out / "power_scan.csv"
    header = [_header(args), f"seed={cfg.seed}",
              f"sigma_T_rel={_fmt(jm.sigma_t_rel)}", f"samples={ps.samples}"]
    _write_csv(path, header + ["amplitude_MHz,signal,stderr,area_std_rad"],
               (scan.amplitudes / MHZ, scan.signal, scan.stderr, scan.area_std))
    return [path], _wrote([path])


def cmd_sweep2d(args, cfg, out):
    emitter = build_emitter(cfg)
    template = build_template(cfg)
    sw = cfg.sweep
    dets = np.linspace(sw.det_min_mhz, sw.det_max_mhz, sw.det_points) * MHZ
    amps = np.linspace(sw.amp_min_mhz, sw.amp_max_mhz, sw.amp_points) * MHZ
    result = sweep_2d(emitter, template, dets, amps,
                      rep_period=cfg.detector.rep_period_us * 1e-6)
    header = [_header(args), f"ratio_dB={_fmt(template.ratio_db)}",
              f"chirp_MHz={_fmt(template.chirp / MHZ)}"]
    matrix_path = out / "sweep.csv"
    long_path = out / "sweep_long.csv"
    dets_mhz = result.detunings / MHZ
    amps_mhz = result.amplitudes / MHZ
    _write_csv(matrix_path, header + [
        "detuning_MHz," + ",".join(_fmt(d) for d in dets_mhz),
        "amplitude_MHz rows follow, one per line: amplitude, signal..."],
        (amps_mhz, *result.signal.T))
    _write_csv(long_path, header + ["detuning_MHz,amplitude_MHz,signal"],
               (np.tile(dets_mhz, amps_mhz.size), np.repeat(amps_mhz, dets_mhz.size),
                result.signal.ravel()))
    return [matrix_path, long_path], _wrote([matrix_path, long_path])


def cmd_cross_section(args, cfg, out):
    amp = (args.amplitude_mhz if args.amplitude_mhz is not None
           else cfg.crosssection_amp_mhz) * MHZ
    result = read_sweep_long(Path(args.source))
    dets, row, actual = cross_section(result, amp)
    path = out / "cross_section.csv"
    header = [_header(args), f"requested_amplitude_MHz={_fmt(amp / MHZ)}",
              f"row_amplitude_MHz={_fmt(actual / MHZ)}"]
    _write_csv(path, header + ["detuning_MHz,signal"], (dets / MHZ, row))
    return [path], f"{_wrote([path])} (row at {actual / MHZ:.6g} MHz)"


def cmd_fit_trace(args, cfg, out):
    emitter = build_emitter(cfg)
    data = ingest_trace(Path(args.data).read_text())
    pulse = ingest_trace(Path(args.pulse).read_text(), mode=args.pulse_mode)
    peak = float(np.max(pulse.values))
    if peak <= 0:
        raise ValidationError("pulse file is identically zero")
    envelope = SampledEnvelope(pulse.times_ns * NS, pulse.values / peak)
    fit = fit_trace(data.times_ns * NS, data.values, envelope, emitter,
                    model=cfg.fit.model, efficiency=cfg.detector.efficiency,
                    max_iter=cfg.fit.max_iter)
    payload = {
        "omega_max_rad_s": fit.omega_max,
        "omega_max_over_2pi_MHz": fit.omega_max / MHZ,
        "pulse_area_rad": fit.area,
        "pulse_area_over_pi": fit.area / math.pi,
        "scale": fit.result.param("scale"),
        "t0_ns": fit.result.param("t0") / NS,
        "background": fit.result.param("background"),
        "norm": fit.result.param("norm"),
        "cost": fit.result.cost,
        "status": fit.result.status,
        "n_iter": fit.result.n_iter,
    }
    paths = [out / "fit_trace.txt", out / "fit_trace.json"]
    write_report(*paths, payload, [_header(args)])
    return paths, (f"Omega_max/2pi = {fit.omega_max / MHZ:.4g} MHz, "
                   f"area = {fit.area / math.pi:.4g} pi")


def cmd_fit_power_scan(args, cfg, out):
    rows = np.loadtxt(args.data, delimiter=",", comments="#", ndmin=2)
    if rows.shape[1] < 2:
        raise ParseError("power-scan file needs amplitude and signal columns")
    scan = PowerScan(
        amplitudes=rows[:, 0] * MHZ, signal=rows[:, 1],
        stderr=rows[:, 2] if rows.shape[1] > 2 else np.zeros(rows.shape[0]),
        area_std=rows[:, 3] if rows.shape[1] > 3 else np.zeros(rows.shape[0]))
    fit = fit_power_scan(scan, max_iter=cfg.fit.max_iter)
    payload = {
        "period_MHz": fit.period / MHZ,
        "pi_pulse_amplitude_MHz": fit.pi_pulse_amplitude / MHZ,
        "modulation_offset": fit.modulation_offset,
        "modulation_slope_per_MHz": fit.modulation_slope * MHZ,
        "background_offset": fit.background_offset,
        "background_slope_per_MHz": fit.background_slope * MHZ,
        "phase_rad": fit.phase,
        "cost": fit.result.cost,
        "status": fit.result.status,
        "n_iter": fit.result.n_iter,
    }
    paths = [out / "fit_power_scan.txt", out / "fit_power_scan.json"]
    write_report(*paths, payload, [_header(args)])
    return paths, (f"period = {fit.period / MHZ:.5g} MHz, "
                   f"pi-pulse at {fit.pi_pulse_amplitude / MHZ:.5g} MHz")


def cmd_pi_pulse(args, cfg, out):
    for flag, value in (("--t-ns", args.t_ns), ("--rep-khz", args.rep_khz),
                        ("--wavelength-nm", args.wavelength_nm),
                        ("--photons", args.photons)):
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{flag} must be finite and > 0, got {value!r}")
    duration = args.t_ns * NS
    rep_rate = args.rep_khz * 1e3
    wavelength = args.wavelength_nm * 1e-9
    omega_pi = math.pi / duration
    power = args.photons * rep_rate * PLANCK * SPEED_OF_LIGHT / wavelength
    check = photons_per_pulse(power, rep_rate, wavelength)
    payload = {
        "pulse_duration_ns": args.t_ns,
        "rep_rate_kHz": args.rep_khz,
        "wavelength_nm": args.wavelength_nm,
        "photons_per_pulse": args.photons,
        "avg_power_W": power,
        "rect_pi_omega_rad_s": omega_pi,
        "rect_pi_omega_over_2pi_MHz": omega_pi / MHZ,
        "photons_check": check,
    }
    paths = [out / "pi_pulse.txt", out / "pi_pulse.json"]
    write_report(*paths, payload, [_header(args)])
    return paths, (f"average power {power:.6g} W delivers "
                   f"{check:.6g} photons/pulse; rectangular-equivalent "
                   f"Omega/2pi = {omega_pi / MHZ:.6g} MHz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabisim",
        description="Pulsed two-level emitter simulations and fits")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, common=True):
        p = sub.add_parser(name, help=help_text)
        if common:
            p.add_argument("--config", help="config file (key = value lines)")
            p.add_argument("--out", help="output directory (overrides output.dir)")
            p.add_argument("--seed", type=int, help="override rng.seed")
        p.set_defaults(fn=fn)
        return p

    command("trace", cmd_trace, "excited-population trace (+ optional MC histogram)")
    command("power-scan", cmd_power_scan, "jitter-averaged signal vs drive amplitude")
    command("sweep2d", cmd_sweep2d, "detuning x amplitude fluorescence map")

    p = command("cross-section", cmd_cross_section,
                "extract one amplitude row of a sweep")
    p.add_argument("--source", required=True, help="sweep_long.csv from sweep2d")
    p.add_argument("--amplitude-mhz", type=float, dest="amplitude_mhz")

    p = command("fit-trace", cmd_fit_trace, "fit a decay histogram with Bloch dynamics")
    p.add_argument("--data", required=True, help="two-column histogram (t_ns, counts)")
    p.add_argument("--pulse", required=True, help="measured pulse file (t_ns, value)")
    p.add_argument("--pulse-mode", default="intensity",
                   choices=("intensity", "amplitude"))

    p = command("fit-power-scan", cmd_fit_power_scan,
                "fit the washout model to a power scan")
    p.add_argument("--data", required=True, help="power_scan.csv")

    p = command("pi-pulse", cmd_pi_pulse, "pi-pulse photon/power bookkeeping",
                common=False)
    p.add_argument("--t-ns", type=float, required=True, dest="t_ns")
    p.add_argument("--wavelength-nm", type=float, required=True,
                   dest="wavelength_nm")
    p.add_argument("--rep-khz", type=float, required=True, dest="rep_khz")
    p.add_argument("--photons", type=float, default=500.0)
    p.add_argument("--out")

    command("selftest", None, "run the analytic-oracle checks", common=False)

    return parser


def run_command(argv) -> int:
    """Entry point used by tests: returns the process exit status.

    0 success, 2 usage error, else the ``exit_code`` of the error class (3
    bad input, 4 numerical failure); other ValueErrors and a missing file
    give 3.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "selftest":
            return run_selftest()
        t_start = time.monotonic()
        cfg, defaults, cfg_text = _load_config(args)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        outputs, summary = args.fn(args, cfg, out)
        write_manifest(out / f"{args.command.replace('-', '_')}_manifest.json",
                       args.command, cfg_text, cfg.seed, list(map(str, outputs)),
                       defaults, time.monotonic() - t_start)
        print(f"{args.command}: {summary}")
        return 0
    except (RabisimError, FileNotFoundError, ValueError) as exc:
        print(f"ERROR kind={type(exc).__name__} msg={exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
