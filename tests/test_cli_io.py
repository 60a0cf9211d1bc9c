import json
import math
import time

import numpy as np
import pytest

from rabisim import errors, selftest
from rabisim.cli_io import (ExperimentConfig, MAX_FIELD_COMPONENTS, MHZ, NS,
                            _table, build_drive_field, build_emitter,
                            ingest_trace, parse_config, read_sweep_long,
                            run_command, serialize_config)
from rabisim.errors import (NonMonotonicTime, ParseError, RabisimError,
                            ValidationError)
from rabisim.fitting import trace_model
from rabisim.pulses import GAUSSIAN_AREA_FACTOR, SampledEnvelope


def test_empty_config_gives_documented_defaults_with_provenance():
    cfg, provenance = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.emitter.t1_ns == 9.5
    assert cfg.detector.dead_time_ns == 70.0
    assert cfg.detector.rep_period_us == 1.4
    assert cfg.template.pedestal_fwhm_ns == 50.0
    assert cfg.template.main_fwhm_ns == 4.0
    assert cfg.template.ratio_db == -34.0
    assert cfg.template.chirp_mhz == 70.0
    assert cfg.jitter.sigma_t_rel == 0.07
    # every serialized key except the explicit ones shows up as a default
    keys = {line.split(" = ")[0] for line in provenance}
    assert "emitter.T1_ns" in keys
    assert "detector.dead_time_ns" in keys
    assert all(line.endswith("(default)") for line in provenance)


def test_lifetime_gives_seventeen_megahertz_linewidth():
    cfg, _ = parse_config("emitter.T1_ns = 9.5\n")
    emitter = build_emitter(cfg)
    linewidth_mhz = emitter.gamma1 / MHZ
    assert round(linewidth_mhz) == 17
    assert linewidth_mhz == pytest.approx(16.7546, rel=1e-4)


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        parse_config("emitter.T1_ns = -1\n")
    with pytest.raises(ValidationError):
        parse_config("no.such.key = 1\n")
    with pytest.raises(ValidationError):
        parse_config("emitter.T1_ns = 9.5\nemitter.Gamma1_MHz = 17\n")
    with pytest.raises(ValidationError):
        parse_config("detector.efficiency = 1.5\n")
    with pytest.raises(ValidationError):
        parse_config("field.1.kind = triangular\n")
    with pytest.raises(ParseError) as err:
        parse_config("emitter.T1_ns = 9.5\nbogus line\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_config("emitter.T1_ns = 1\nemitter.T1_ns = 2\n")


def test_config_round_trip():
    text = """
# comment
emitter.Gamma1_MHz = 17.0
emitter.detuning_MHz = 12.5
field.count = 2
field.1.kind = gaussian
field.1.fwhm_ns = 4
field.1.area_pi = 5.7
field.2.kind = rectangular
field.2.duration_ns = 50
field.2.peak_MHz = 2.5
detector.efficiency = 0.05
jitter.sigma_t_rel = 0.06
template.third_enabled = true
rng.seed = 777
output.dir = out
"""
    cfg, _ = parse_config(text)
    assert cfg.emitter.gamma1_mhz == 17.0
    assert cfg.emitter.t1_ns is None
    assert len(cfg.field) == 2
    assert cfg.field[0].area_pi == 5.7
    assert cfg.field[1].kind == "rectangular"
    cfg2, provenance2 = parse_config(serialize_config(cfg))
    assert cfg2 == cfg
    assert provenance2 == []


DEFAULT_ITEMS = [tuple(line.split(" = ", 1)) for line in
                 serialize_config(ExperimentConfig()).splitlines()]
FLOAT_KEYS = [key for key, _, f, _ in _table(ExperimentConfig())
              if f.type.startswith("float")]


def test_table_covers_every_serialized_key():
    keys = {key for key, _ in DEFAULT_ITEMS}
    assert set(FLOAT_KEYS) <= keys
    assert {"detector.jitter_ps", "trace.t_start_ns", "emitter.Gamma1_MHz",
            "crosssection.amplitude_MHz"} <= set(FLOAT_KEYS)
    assert "rng.seed" in keys and "trace.n_pulses" not in FLOAT_KEYS


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_float_key_refuses_non_finite(key, bad):
    with pytest.raises(ValidationError, match="finite"):
        parse_config(f"{key} = {bad}\n")


@pytest.mark.parametrize("key,value", DEFAULT_ITEMS)
def test_key_set_to_its_default_round_trips(key, value):
    cfg, provenance = parse_config(f"{key} = {value}\n")
    assert cfg == ExperimentConfig()
    assert not any(line.startswith(f"{key} = ") for line in provenance)


def test_exit_code_lives_on_the_error_class():
    input_errors = {"ParseError", "ValidationError", "NonMonotonicTime",
                    "OutOfRange"}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, RabisimError)]
    assert len(classes) == 12
    for cls in classes:
        assert cls.exit_code == (3 if cls.__name__ in input_errors else 4)


def test_build_drive_field_with_area_target():
    cfg, _ = parse_config("field.1.kind = gaussian\nfield.1.fwhm_ns = 4\n"
                          "field.1.area_pi = 1\n")
    field = build_drive_field(cfg)
    peak = field.components[0].envelope.peak
    assert peak == pytest.approx(math.pi / (4e-9 * GAUSSIAN_AREA_FACTOR),
                                 rel=1e-5)


def test_ingest_trace_basics():
    record = ingest_trace("# source=test\n0.0 1.0\n0.5 2.0\n1.0 3.0\n")
    assert record.times_ns.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(NonMonotonicTime):
        ingest_trace("0.0 1.0\n0.0 2.0\n")
    with pytest.raises(ParseError):
        ingest_trace("0.0 1.0\nabc def\n")
    with pytest.raises(ParseError):
        ingest_trace("0.0 1.0\n")


def test_ingest_trace_intensity_sqrt():
    record = ingest_trace("0 0\n1 1\n2 4\n", mode="intensity")
    assert np.allclose(record.values, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("name, scenario, bound", selftest.CHECKS,
                         ids=[name for name, *_ in selftest.CHECKS])
def test_selftest_check_within_bound(name, scenario, bound):
    assert scenario()[0] < bound


def test_selftest_command(capsys):
    assert run_command(["selftest"]) == 0
    n = len(selftest.CHECKS)
    assert f"{n}/{n} checks passed" in capsys.readouterr().out


def test_selftest_fails_a_check_over_its_bound(capsys, monkeypatch):
    checks = list(selftest.CHECKS)
    name, _, bound = checks[2]
    checks[2] = (name, lambda: (2.0 * bound, None), bound)
    monkeypatch.setattr(selftest, "CHECKS", tuple(checks))
    assert run_command(["selftest"]) == 4
    out = capsys.readouterr().out
    assert f"FAIL {name}" in out and "7/8 checks passed" in out


def test_usage_error_exit_code():
    assert run_command(["definitely-not-a-command"]) == 2


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("emitter.T1_ns = -3\n")
    assert run_command(["trace", "--config", str(bad)]) == 3


TRACE_KEYS = ("field.1.fwhm_ns = 4\nfield.1.center_ns = 10\n"
              "field.1.peak_MHz = 200\ntrace.t_end_ns = 70\n"
              "trace.n_pulses = 100\n")


def test_histogram_without_bins_is_refused(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(TRACE_KEYS + "detector.bin_width_ns = 2000\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 3
    assert "ERROR kind=ValueError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "histogram.csv").exists()


@pytest.mark.parametrize("key", ["detector.jitter_ps",
                                 "detector.dead_time_ns"])
def test_infinite_detector_value_is_refused(tmp_path, capsys, key):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(TRACE_KEYS + f"{key} = inf\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 3
    assert "ERROR kind=ValidationError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "histogram.csv").exists()


@pytest.mark.parametrize("window", ["trace.dt_out_ns = 1000\n",
                                    "trace.t_start_ns = 70\n"])
def test_trace_with_fewer_than_two_rows_is_refused(tmp_path, capsys, window):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(TRACE_KEYS + window + f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 3
    assert "ERROR kind=ValidationError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_trace_with_too_many_rows_is_refused(tmp_path, capsys):
    # ~7e7 rows: refused before anything is allocated or written.
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(TRACE_KEYS + "trace.dt_out_ns = 1e-6\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    start = time.monotonic()
    assert run_command(["trace", "--config", str(cfg)]) == 3
    assert time.monotonic() - start < 1.0
    assert "ERROR kind=ValidationError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_field_component_count_is_bounded(tmp_path, capsys):
    # The parser builds one config per component before checking any, so a
    # count or an index past the bound must be refused before that.
    over = MAX_FIELD_COMPONENTS + 1
    with pytest.raises(ValidationError, match="field components"):
        parse_config(f"field.count = {over}\n")
    with pytest.raises(ValidationError, match="field components"):
        parse_config(f"field.{over}.peak_MHz = 1\n")
    cfg = tmp_path / "many.cfg"
    cfg.write_text(f"field.count = {over}\nsweep.det_points = 3\n"
                   f"sweep.amp_points = 2\noutput.dir = {tmp_path / 'out'}\n")
    assert run_command(["sweep2d", "--config", str(cfg)]) == 3
    assert "ERROR kind=ValidationError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rank_lost_jump_table_is_a_step_failure(tmp_path, capsys):
    # A 1 us drive window: |det C_k| of the cumulative propagators decays
    # like exp(-Gamma1 t) and reaches 0, which made the restarts NaN.
    cfg = tmp_path / "long.cfg"
    cfg.write_text("field.1.kind = rectangular\nfield.1.duration_ns = 2000\n"
                   "field.1.peak_MHz = 5\ntrace.n_pulses = 1000\n"
                   "detector.rep_period_us = 3\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 4
    assert "ERROR kind=StepFailure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "histogram.csv").exists()


def test_attosecond_pulse_trace_finishes(tmp_path):
    # DOP853 steps only the pulse's support; the decay after it is closed
    # form. Stepping the whole window at max_step ~ 1e-13 s ran for minutes.
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"field.1.fwhm_ns = 1e-9\noutput.dir = {tmp_path / 'out'}\n")
    start = time.monotonic()
    assert run_command(["trace", "--config", str(cfg)]) == 0
    assert time.monotonic() - start < 5.0
    rows = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",",
                      comments="#", ndmin=2)
    assert rows.shape[0] > 1 and np.all(np.isfinite(rows))


def test_seed_outside_64_bits_is_refused(tmp_path, capsys):
    assert parse_config(f"rng.seed = {2 ** 64 - 1}\n")[0].seed == 2 ** 64 - 1
    big = tmp_path / "big.cfg"
    big.write_text(TRACE_KEYS + f"rng.seed = {2 ** 64 + 1}\n"
                   f"output.dir = {tmp_path / 'big'}\n")
    assert run_command(["trace", "--config", str(big)]) == 3
    neg = tmp_path / "neg.cfg"
    neg.write_text(TRACE_KEYS + f"output.dir = {tmp_path / 'neg'}\n")
    assert run_command(["trace", "--config", str(neg), "--seed", "-1"]) == 3
    assert capsys.readouterr().err.count("ERROR kind=ValidationError") == 2
    assert not (tmp_path / "big").exists() and not (tmp_path / "neg").exists()


def test_trace_command_writes_schema(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("field.1.fwhm_ns = 4\nfield.1.center_ns = 10\n"
                   "field.1.peak_MHz = 200\ntrace.t_end_ns = 70\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("t_ns,rho_ee,emission_rate_per_s" in h for h in header)
    body = np.array([[float(x) for x in l.split(",")]
                     for l in lines if not l.startswith("#")])
    t = body[:, 0]
    assert np.all(np.diff(t) > 0)
    assert np.all(body[:, 1] >= 0)
    assert np.all(body[:, 2] >= 0)
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert manifest["command"] == "trace"
    assert "config" in manifest


def test_pi_pulse_command_bookkeeping(tmp_path):
    out = tmp_path / "pi"
    assert run_command(["pi-pulse", "--t-ns", "4", "--wavelength-nm", "589",
                        "--rep-khz", "700", "--photons", "500",
                        "--out", str(out)]) == 0
    payload = json.loads((out / "pi_pulse.json").read_text())
    assert payload["avg_power_W"] == pytest.approx(1.1804e-10, rel=1e-3)
    assert payload["photons_check"] == pytest.approx(500.0, rel=1e-9)
    assert payload["rect_pi_omega_over_2pi_MHz"] == pytest.approx(125.0)


def test_sweep_and_cross_section_commands(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("sweep.det_min_MHz = -150\nsweep.det_max_MHz = 150\n"
                   "sweep.det_points = 31\nsweep.amp_min_MHz = 20\n"
                   "sweep.amp_max_MHz = 120\nsweep.amp_points = 3\n"
                   "template.center_ns = 200\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["sweep2d", "--config", str(cfg)]) == 0
    long_path = tmp_path / "out" / "sweep_long.csv"
    result = read_sweep_long(long_path)
    assert result.signal.shape == (3, 31)
    assert run_command(["cross-section", "--config", str(cfg),
                        "--source", str(long_path),
                        "--amplitude-mhz", "70"]) == 0
    rows = [l for l in (tmp_path / "out" / "cross_section.csv")
            .read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 31
    assert run_command(["cross-section", "--config", str(cfg),
                        "--source", str(long_path),
                        "--amplitude-mhz", "9000"]) == 3


def test_sweep_refuses_period_shorter_than_window(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("detector.rep_period_us = 0.1\nsweep.det_points = 3\n"
                   "sweep.amp_points = 2\ntemplate.center_ns = 200\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["sweep2d", "--config", str(cfg)]) == 3
    assert "rep_period" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_sweep_file_with_duplicated_grid_rows_is_refused(tmp_path):
    # A 2 x 2 grid with (10 MHz, 200 MHz) listed twice: the reader must not
    # pick one of the two signals silently.
    path = tmp_path / "sweep_long.csv"
    path.write_text("# detuning_MHz,amplitude_MHz,signal\n"
                    "-10,100,0.1\n10,100,0.2\n-10,200,0.3\n"
                    "10,200,0.4\n10,200,9.9\n")
    with pytest.raises(ParseError, match="5 rows for a 2 x 2 grid"):
        read_sweep_long(path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["cross-section", "--config", str(cfg),
                        "--source", str(path), "--amplitude-mhz", "200"]) == 3
    assert not (tmp_path / "out" / "cross_section.csv").exists()


@pytest.mark.parametrize("column", [0, 1, 2])
def test_fit_power_scan_refuses_non_finite_data(tmp_path, capsys, column):
    rows = np.column_stack([np.linspace(10.0, 600.0, 41),
                            0.5 + 0.4 * np.cos(np.linspace(0.0, 12.0, 41)),
                            np.full(41, 0.01)])
    rows[-1, column] = np.inf
    path = tmp_path / "power_scan.csv"
    np.savetxt(path, rows, delimiter=",",
               header="amplitude_MHz,signal,stderr")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["fit-power-scan", "--config", str(cfg),
                        "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert "ERROR kind=ValueError" in err and "must be finite" in err
    assert not (tmp_path / "out" / "fit_power_scan.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cross_section_refuses_a_non_finite_amplitude(tmp_path, capsys, value):
    path = tmp_path / "sweep_long.csv"
    path.write_text("# detuning_MHz,amplitude_MHz,signal\n"
                    "-10,100,0.1\n10,100,0.2\n-10,200,0.3\n10,200,0.4\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["cross-section", "--config", str(cfg),
                        "--source", str(path), f"--amplitude-mhz={value}"]) == 3
    assert "ERROR kind=OutOfRange" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cross_section.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--t-ns", "0"), ("--t-ns", "-2"), ("--t-ns", "nan"), ("--t-ns", "inf"),
    ("--wavelength-nm", "0"), ("--wavelength-nm", "nan"),
    ("--rep-khz", "-700"), ("--rep-khz", "inf"),
    ("--photons", "0"), ("--photons", "nan")])
def test_pi_pulse_refuses_a_non_positive_or_non_finite_flag(tmp_path, capsys,
                                                            flag, value):
    args = {"--t-ns": "4", "--wavelength-nm": "589", "--rep-khz": "700",
            "--photons": "500", flag: value}
    out = tmp_path / "pi"
    argv = ["pi-pulse", "--out", str(out)]
    for key, val in args.items():
        argv += [key, val]
    assert run_command(argv) == 3
    err = capsys.readouterr().err
    assert f"ERROR kind=ValidationError msg={flag} must be finite and > 0" in err
    assert not list(out.glob("pi_pulse*"))


def write_fit_trace_inputs(directory):
    """A measured pulse and a synthetic histogram at Omega_max/2pi = 300 MHz.

    Returns the fit-trace arguments that name them.
    """
    directory.mkdir(parents=True, exist_ok=True)
    fwhm = 5.116e-9
    grid = np.arange(0.0, 30e-9, 0.1e-9)
    shape = np.exp(-2 * math.log(2) * ((grid - 12e-9) / fwhm) ** 2)
    pulse_lines = ["# measured pulse (intensity)"]
    pulse_lines += [f"{t / NS:.6f} {v:.9g}" for t, v in zip(grid, shape ** 2)]
    (directory / "pulse.csv").write_text("\n".join(pulse_lines) + "\n")

    from rabisim.bloch import EmitterModel

    em = EmitterModel.from_lifetime(9.5e-9)
    env = SampledEnvelope(grid, shape)
    data_t = np.arange(0.25e-9, 80e-9, 0.5e-9)
    expected = trace_model(data_t, env, em, 2 * math.pi * 300e6, 2e-9,
                           30.0, 5e4)
    counts = np.random.default_rng(8).poisson(expected)
    data_lines = ["# synthetic histogram"]
    data_lines += [f"{t / NS:.6f} {int(c)}" for t, c in zip(data_t, counts)]
    (directory / "data.csv").write_text("\n".join(data_lines) + "\n")
    return ["--data", str(directory / "data.csv"),
            "--pulse", str(directory / "pulse.csv")]


def test_fit_trace_command(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"output.dir = {tmp_path / 'out'}\n")
    assert run_command(["fit-trace", "--config", str(cfg),
                        *write_fit_trace_inputs(tmp_path)]) == 0
    payload = json.loads((tmp_path / "out" / "fit_trace.json").read_text())
    assert payload["omega_max_over_2pi_MHz"] == pytest.approx(300.0, rel=0.02)


# Small runs of every command that writes files; the config also makes the
# inputs of the commands that read a file.
SMALL_RUNS = {
    "trace": TRACE_KEYS,
    "power-scan": "powerscan.points = 41\npowerscan.samples = 20\n"
                  "powerscan.amp_max_MHz = 600\n",
    "sweep2d": "sweep.det_points = 5\nsweep.amp_points = 2\n"
               "template.center_ns = 200\n",
}
SMALL_RUNS["cross-section"] = SMALL_RUNS["sweep2d"]
SMALL_RUNS["fit-power-scan"] = SMALL_RUNS["power-scan"]


@pytest.mark.parametrize("command", ["trace", "power-scan", "sweep2d",
                                     "cross-section", "fit-trace",
                                     "fit-power-scan", "pi-pulse"])
def test_manifest_lists_every_file_written(tmp_path, command):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUNS.get(command, ""))
    if command == "pi-pulse":
        argv = ["--t-ns", "4", "--wavelength-nm", "589", "--rep-khz", "700"]
    else:
        argv = ["--config", str(cfg)]
    if command == "cross-section":
        assert run_command(["sweep2d", "--config", str(cfg),
                            "--out", str(inputs)]) == 0
        argv += ["--source", str(inputs / "sweep_long.csv")]
    elif command == "fit-power-scan":
        assert run_command(["power-scan", "--config", str(cfg),
                            "--out", str(inputs)]) == 0
        argv += ["--data", str(inputs / "power_scan.csv")]
    elif command == "fit-trace":
        argv += write_fit_trace_inputs(inputs)
    assert run_command([command, *argv, "--out", str(out)]) == 0
    manifest_path = out / f"{command.replace('-', '_')}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    assert sorted(manifest["outputs"]) == sorted(
        str(path) for path in out.iterdir() if path != manifest_path)


def test_manifest_lists_defaulted_keys(tmp_path):
    assert run_command(["trace", "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "trace_manifest.json").read_text())
    assert "emitter.T1_ns = 9.5 (default)" in manifest["defaults"]

    cfg = tmp_path / "t.cfg"
    cfg.write_text("emitter.T1_ns = 9.5\ntrace.t_end_ns = 30\n")
    assert run_command(["trace", "--config", str(cfg), "--seed", "3",
                        "--out", str(tmp_path / "b")]) == 0
    manifest = json.loads((tmp_path / "b" / "trace_manifest.json").read_text())
    keys = {line.partition(" = ")[0] for line in manifest["defaults"]}
    assert "emitter.detuning_MHz" in keys
    # Set in the file, or on the command line: not defaults.
    assert not keys & {"emitter.T1_ns", "trace.t_end_ns", "rng.seed",
                       "output.dir"}


def test_manifest_rerun_reproduces_outputs(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("field.1.fwhm_ns = 4\nfield.1.center_ns = 10\n"
                   "field.1.area_pi = 5.7\ntrace.t_end_ns = 80\n"
                   "trace.n_pulses = 20000\ndetector.bin_width_ns = 1\n"
                   "rng.seed = 31\n"
                   f"output.dir = {tmp_path / 'a'}\n")
    assert run_command(["trace", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "a" / "trace_manifest.json").read_text())
    cfg2 = tmp_path / "from_manifest.cfg"
    cfg2.write_text(manifest["config"])
    assert run_command(["trace", "--config", str(cfg2),
                        "--out", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "histogram.csv", "first_detected.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
