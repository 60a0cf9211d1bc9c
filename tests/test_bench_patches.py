"""The benchmark's traced run patches program functions by name.

``bench/spans.py`` skips a patch target that no longer exists, so a rename
in the program would silently drop a layer from ``--trace 1``. The only
targets allowed to be missing are the three CSV writers the single
``_write_csv`` replaced, and ``sweeps.integrate_population_batch`` and
``jitter.integrate_population_batch``: maps and scans both step with the
Dyson propagator, and the Lawson kernel is gone.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
GONE = {"cli_io.write_histogram_csv", "cli_io.write_sweep_csv",
        "cli_io.write_sweep_long", "sweeps.integrate_population_batch",
        "jitter.integrate_population_batch"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_patch_target_exists():
    spans = _load_spans()
    with spans.Patched(spans.Tracer()) as patched:
        missing = set(patched.missing)
    assert missing <= GONE
