"""Spans around the calls into each ``rabisim`` module, for the traced run.

The program has no spans of its own, so the benchmark patches each callee
under the name its caller looks it up by (callers import names directly:
``sweeps.integrate_population_batch`` is the batch kernel as ``sweeps`` sees
it). A span records its name, start, end and parent; spans stay in memory
until the run writes them out. A layer is the module a span is named after,
and its self time is what its spans cover minus what their child spans cover,
so the layers' self times add up to the time inside the CLI commands.

A patch target that no longer exists is skipped and listed in ``missing``, so
a later refactor of the program degrades the trace instead of breaking it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli_io", "pulses", "bloch", "jitter", "sweeps", "detection",
          "fitting", "rng")


class Tracer:
    """Span records for one traced pass, plus the counts taken at the spans."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None, failed=None):
        """``fn`` inside a span; ``after(result)`` runs once the span closes."""
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                if failed is not None:
                    self.counts[failed] += 1
                raise
            end[i] = clock()
            stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def in_layer(self, layer: str) -> bool:
        """Whether the innermost open span belongs to ``layer``."""
        return bool(self.stack) and self.names[self.stack[-1]].startswith(layer + ".")

    # -- aggregation ------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, own in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += own
        return out

    def fit_init_s(self) -> float:
        """Self time of ``fit_trace`` before its least-squares call."""
        total = 0.0
        children = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        for i, name in enumerate(self.names):
            if name != "fitting.fit_trace":
                continue
            kids = children[i]
            lsq = [k for k in kids if self.names[k] == "fitting.lsq"]
            cut = self.start[lsq[0]] if lsq else self.end[i]
            covered = sum(self.end[k] - self.start[k] for k in kids
                          if self.end[k] <= cut)
            total += (cut - self.start[i]) - covered
        return total

    def write(self, path: Path, origin: float) -> None:
        """Spans as tab-separated name, start, end (s from origin), parent."""
        rows = ["name\tstart_s\tend_s\tparent"]
        rows += [f"{n}\t{s - origin:.9f}\t{e - origin:.9f}\t{p}"
                 for n, s, e, p in zip(self.names, self.start, self.end,
                                       self.parent)]
        path.write_text("\n".join(rows) + "\n")


# -- patch table ------------------------------------------------------------

def _count(tracer: Tracer, key: str, value):
    tracer.counts[key] += value


def _traced_writer(tracer: Tracer, fn):
    inner = tracer.wrap("cli_io.write", fn)

    def write(*args, **kwargs):
        result = inner(*args, **kwargs)
        tracer.counts["cli_io.bytes_written"] += sum(
            a.stat().st_size for a in args if isinstance(a, Path) and a.is_file())
        return result
    return write


def _traced_batch(tracer: Tracer, fn, drive_span: str):
    """Batch kernel span; the drive callback it receives gets its own span."""
    signature = inspect.signature(fn)
    inner = tracer.wrap("bloch.batch", fn)

    def batch(omega_of_t, *args, **kwargs):
        bound = signature.bind(omega_of_t, *args, **kwargs)
        n_steps = int(bound.arguments["n_steps"])
        result = inner(tracer.wrap(drive_span, omega_of_t), *args, **kwargs)
        tracer.counts["bloch.batch_steps"] += n_steps
        tracer.counts["bloch.batch_point_steps"] += n_steps * result[0].size
        return result
    return batch


def _traced_series(tracer: Tracer, fn):
    signature = inspect.signature(fn)
    inner = tracer.wrap("bloch.series", fn)

    def series(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        tracer.counts["bloch.series_steps"] += int(bound.arguments["n_steps"])
        return inner(*args, **kwargs)
    return series


def _traced_lsq(tracer: Tracer, fn):
    """Least squares, with a span per residual evaluation of the engine."""
    inner = tracer.wrap("fitting.lsq", fn,
                        after=lambda r: _count(tracer, "fitting.lsq_iters", r.n_iter),
                        failed="fitting.lsq_failed")

    def least_squares(problem, *args, **kwargs):
        counted = dataclasses.replace(
            problem, residual_fn=tracer.wrap("fitting.residual", problem.residual_fn))
        return inner(counted, *args, **kwargs)
    return least_squares


def _traced_rng(tracer: Tracer, name: str, fn):
    def after(result):
        # normal() draws through uniform(); count each variate once.
        if not tracer.in_layer("rng"):
            tracer.counts["rng.draws"] += result.size
    return tracer.wrap(name, fn, after=after)


def _plain(span, after=None):
    def make(tracer, fn):
        hook = None if after is None else (lambda r: after(tracer, r))
        return tracer.wrap(span, fn, after=hook)
    return make


_WRITERS = ("_write_csv", "write_manifest", "write_histogram_csv",
            "write_sweep_csv", "write_sweep_long", "write_report")

# (module, attribute path, factory(tracer, original) -> replacement)
PATCHES = [
    ("cli_io", "_load_config", _plain("cli_io.parse")),
    ("cli_io", "ingest_trace", _plain("cli_io.read")),
    ("cli_io", "read_sweep_long", _plain("cli_io.read")),
    *[("cli_io", name, _traced_writer) for name in _WRITERS],
    ("cli_io", "integrate", _plain("bloch.integrate")),
    ("bloch", "solve_ivp", _plain(
        "bloch.solve_ivp",
        lambda t, r: _count(t, "bloch.integrate_nfev", r.nfev))),
    ("sweeps", "integrate_population_batch",
     lambda t, fn: _traced_batch(t, fn, "sweeps.drive")),
    ("jitter", "integrate_population_batch",
     lambda t, fn: _traced_batch(t, fn, "jitter.drive")),
    ("fitting", "population_series_fixed", _traced_series),
    ("cli_io", "scale_to_area", _plain("pulses.scale")),
    ("pulses", "pulse_area", _plain("pulses.area")),
    ("fitting", "pulse_area", _plain("pulses.area")),
    ("pulses", "DriveField.rabi", _plain("pulses.rabi")),
    ("cli_io", "averaged_power_scan", _plain("jitter.scan")),
    ("jitter", "sample_durations", _plain("jitter.durations")),
    ("cli_io", "fit_power_scan", _plain("jitter.fit")),
    ("cli_io", "sweep_2d", _plain("sweeps.sweep_2d")),
    ("cli_io", "cross_section", _plain("sweeps.cross_section")),
    ("cli_io", "simulate_tcspc", _plain(
        "detection.tcspc",
        lambda t, r: _count(t, "detection.detected", r.total()))),
    ("detection", "_JumpEngine", _plain(
        "detection.engine",
        lambda t, r: _count(t, "detection.engine_nodes", r.times.size))),
    ("detection", "_emission_times_batch", _plain(
        "detection.emission",
        lambda t, r: _count(t, "detection.emitted", r[0].size))),
    ("cli_io", "first_detected_density", _plain("detection.density")),
    ("fitting", "first_detected_density", _plain("detection.density")),
    ("cli_io", "fit_trace", _plain("fitting.fit_trace")),
    ("fitting", "least_squares", _traced_lsq),
    ("rng", "uniform", lambda t, fn: _traced_rng(t, "rng.uniform", fn)),
    ("rng", "normal", lambda t, fn: _traced_rng(t, "rng.normal", fn)),
]


class Patched:
    """Context manager installing the patch table for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []
        self.missing = []

    def __enter__(self):
        for module_name, path, factory in PATCHES:
            owner = importlib.import_module(f"rabisim.{module_name}")
            *heads, attr = path.split(".")
            for head in heads:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, factory(self.tracer, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# -- per-layer metrics --------------------------------------------------------

#: Per-layer metric name -> unit, as listed in BENCHMARK.json.
LAYER_METRICS = {
    "bloch.batch_s": "s",
    "bloch.batch_calls": "count",
    "bloch.batch_steps": "count",
    "bloch.batch_point_steps": "count",
    "bloch.batch_ns_per_point_step": "ns",
    "bloch.batch_drive_evals": "count",
    "bloch.series_s": "s",
    "bloch.series_calls": "count",
    "bloch.series_steps": "count",
    "bloch.integrate_s": "s",
    "bloch.integrate_nfev": "count",
    "bloch.integrate_segments": "count",
    "bloch.self_s": "s",
    "pulses.area_s": "s",
    "pulses.area_calls": "count",
    "pulses.rabi_s": "s",
    "pulses.rabi_calls": "count",
    "pulses.self_s": "s",
    "jitter.durations_s": "s",
    "jitter.fit_s": "s",
    "jitter.self_s": "s",
    "sweeps.cross_section_s": "s",
    "sweeps.self_s": "s",
    "detection.engine_s": "s",
    "detection.engine_nodes": "count",
    "detection.emission_s": "s",
    "detection.emission_batches": "count",
    "detection.emitted": "count",
    "detection.postproc_s": "s",
    "detection.detected": "count",
    "detection.detected_per_emitted": "ratio",
    "detection.self_s": "s",
    "fitting.lsq_s": "s",
    "fitting.lsq_calls": "count",
    "fitting.lsq_iters": "count",
    "fitting.lsq_failed": "count",
    "fitting.residual_evals": "count",
    "fitting.init_s": "s",
    "fitting.self_s": "s",
    "rng.s": "s",
    "rng.draws": "count",
    "cli_io.parse_s": "s",
    "cli_io.read_s": "s",
    "cli_io.write_s": "s",
    "cli_io.bytes_written": "count",
    "cli_io.self_s": "s",
    "tracing.wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.accounted": "ratio",
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Every per-layer metric of one traced pass except the tracing.* pair
    that needs the untraced passes."""
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans[name][0] if name in spans else 0

    def inclusive(name):
        return spans[name][1] if name in spans else 0.0

    def own(name):
        return spans[name][2] if name in spans else 0.0

    layer_self = defaultdict(float)
    for name, (_, _, s) in spans.items():
        layer_self[name.split(".", 1)[0]] += s
    point_steps = counts["bloch.batch_point_steps"]
    emitted = counts["detection.emitted"]
    m = {
        "bloch.batch_s": inclusive("bloch.batch"),
        "bloch.batch_calls": calls("bloch.batch"),
        "bloch.batch_steps": counts["bloch.batch_steps"],
        "bloch.batch_point_steps": point_steps,
        "bloch.batch_ns_per_point_step":
            1e9 * inclusive("bloch.batch") / point_steps if point_steps else 0.0,
        "bloch.batch_drive_evals": calls("sweeps.drive") + calls("jitter.drive"),
        "bloch.series_s": inclusive("bloch.series"),
        "bloch.series_calls": calls("bloch.series"),
        "bloch.series_steps": counts["bloch.series_steps"],
        "bloch.integrate_s": inclusive("bloch.integrate"),
        "bloch.integrate_nfev": counts["bloch.integrate_nfev"],
        "bloch.integrate_segments": calls("bloch.solve_ivp"),
        "pulses.area_s": inclusive("pulses.area"),
        "pulses.area_calls": calls("pulses.area"),
        "pulses.rabi_s": inclusive("pulses.rabi"),
        "pulses.rabi_calls": calls("pulses.rabi"),
        "jitter.durations_s": inclusive("jitter.durations"),
        "jitter.fit_s": inclusive("jitter.fit"),
        "sweeps.cross_section_s": inclusive("sweeps.cross_section"),
        "detection.engine_s": inclusive("detection.engine"),
        "detection.engine_nodes": counts["detection.engine_nodes"],
        "detection.emission_s": inclusive("detection.emission"),
        "detection.emission_batches": calls("detection.emission"),
        "detection.emitted": emitted,
        "detection.postproc_s": own("detection.tcspc"),
        "detection.detected": counts["detection.detected"],
        "detection.detected_per_emitted":
            counts["detection.detected"] / emitted if emitted else 0.0,
        "fitting.lsq_s": inclusive("fitting.lsq"),
        "fitting.lsq_calls": calls("fitting.lsq"),
        "fitting.lsq_iters": counts["fitting.lsq_iters"],
        "fitting.lsq_failed": counts["fitting.lsq_failed"],
        "fitting.residual_evals": calls("fitting.residual"),
        "fitting.init_s": tracer.fit_init_s(),
        "rng.s": layer_self["rng"],
        "rng.draws": counts["rng.draws"],
        "cli_io.parse_s": inclusive("cli_io.parse"),
        "cli_io.read_s": inclusive("cli_io.read"),
        "cli_io.write_s": inclusive("cli_io.write"),
        "cli_io.bytes_written": counts["cli_io.bytes_written"],
        "tracing.wall_s": wall_s,
        "tracing.accounted":
            sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        if layer != "rng":
            m[f"{layer}.self_s"] = layer_self[layer]
    return m
