"""Benchmark of the rabisim CLI: four workloads, end-to-end and per layer.

Run from the repository root::

    python3 bench/run.py --workload scan|map|trace|fit --seed N --seconds S --trace 0|1

Each run is one process with no threads (BLAS pools are capped at one thread
and ``RABI_THREADS`` is unset, so the serial path is measured). The run
generates its inputs from the seed, repeats the workload's CLI commands
(``rabisim.cli_io.run_command``, in-process) until ``--seconds`` have passed,
checks the outputs, and prints one JSON object as its last line.

End-to-end metrics (``--trace 0``):

- ``wall_s``: wall time from the first command of a pass to its last, as the
  run's measured time over the passes it completed (the inverse of its
  throughput). On a shared 2-vCPU virtual machine the CPU's speed swings by
  up to 2x in stretches of seconds to tens of seconds; a median over the passes then follows whichever state held
  the run's majority, while the pooled time weights each state by its share of
  the run, so it spreads less from run to run. The median and the slowest
  pass, with the pass count, are printed beside it.
- ``cpu_s``: process CPU time over the same passes, pooled the same way; a
  change that buys wall time with extra threads shows here.
- ``setup_s``: median over repeats of the time to import ``rabisim.cli_io`` in
  a fresh interpreter plus the time to generate the workload's inputs.
- ``peak_rss_mb``: peak resident memory of the run's process after the passes.
- ``success_rate``: operations that succeeded over operations attempted, i.e.
  1 - error rate. An operation is one CLI command; it fails on a nonzero exit,
  an exception, an output that fails its check, or an output that differs from
  the first pass's.

With ``--trace 1`` untraced and traced passes alternate, and the run reports
the per-layer metrics of ``spans.py`` (medians over the traced passes) and
the tracing overhead, traced minus untraced ``wall_s``. The spans of the last
traced pass are written to ``.bench_out/<workload>/spans.tsv``.

All files go under ``.bench_out/<workload>/`` in the repository root.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, and the serial path of rabisim.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RABI_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: End-to-end metric name -> unit, as listed in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import rabisim.cli_io; "
                 "print(time.perf_counter() - t)")


@dataclass
class Pass:
    out: Path
    variant: int
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    codes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    origin: float = 0.0


def import_seconds() -> float:
    """Time to import rabisim.cli_io in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(workload, out: Path, variant: int = 0, tracer=None) -> Pass:
    from rabisim.cli_io import run_command

    result = Pass(out=out, variant=variant, traced=tracer is not None)
    call = run_command if tracer is None else tracer.wrap("cli_io.command",
                                                          run_command)
    commands = workload.commands(out, variant)
    log = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for command in commands:
        try:
            with contextlib.redirect_stdout(log):
                code = call(list(command.argv))
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = f"{type(exc).__name__}: {exc}"
        result.codes.append(code)
    result.wall = time.perf_counter() - t0
    result.cpu = time.process_time() - cpu0
    if tracer is not None:
        result.layers = spans.layer_metrics(tracer, result.wall)
        result.origin = t0
    return result


def measure(workload, work: Path, seconds: float, trace: bool):
    """Passes until ``seconds`` have gone by; with ``trace`` every second pass
    is traced. Returns the passes, the last tracer and any patch targets the
    program no longer has."""
    passes = []
    tracer = None
    missing = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        # A traced pass reuses the inputs of the untraced pass before it.
        variant = 0
        if workload.fresh_inputs:
            variant = len(passes) // 2 if trace else len(passes)
            if variant > 0 and not traced:
                workload.generate(variant)
        if traced:
            tracer = spans.Tracer()
            with spans.Patched(tracer) as patched:
                passes.append(run_pass(workload, out, variant, tracer))
            missing = patched.missing
        else:
            passes.append(run_pass(workload, out, variant))
        if (time.perf_counter() - begin >= seconds
                and len(passes) >= (2 if trace else 1)):
            return passes, tracer, missing


def failures(workload, passes: list) -> list:
    """Messages of every failed operation over all passes.

    The first pass of each input variant is checked; a later pass of the
    same variant must reproduce its outputs byte for byte.
    """
    firsts, checked = {}, {}
    messages = []
    for k, p in enumerate(passes):
        commands = workload.commands(p.out, p.variant)
        if p.variant not in firsts:
            firsts[p.variant] = p
            try:
                checked[p.variant] = workload.check(p.out)
            except Exception as exc:  # unreadable output fails every command
                checked[p.variant] = [[f"check raised {type(exc).__name__}: "
                                       f"{exc}"]] * len(commands)
        first = firsts[p.variant]
        for c, command in enumerate(commands):
            label = f"pass {k} {command.argv[0]}"
            if p.codes[c] != 0:
                messages.append(f"{label}: exit {p.codes[c]}")
            elif checked[p.variant][c]:
                messages.append(f"{label}: " + "; ".join(checked[p.variant][c]))
            elif p is not first and not _same_outputs(command, first.out, p.out):
                messages.append(f"{label}: outputs differ from the first pass "
                                f"on the same inputs")
    return messages


def _same_outputs(command, a: Path, b: Path) -> bool:
    try:
        return all((a / f).read_bytes() == (b / f).read_bytes()
                   for f in command.outputs)
    except OSError:
        return False


def run_record(workload: str, seed: int, passes: list) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_rabisim_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "rabisim").rglob("*.py"))),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "map", "trace", "fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rabisim" / "cli_io.py").is_file():
        print(f"error: no rabisim sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rabisim

    if Path(rabisim.__file__).resolve().parent != SRC / "rabisim":
        print(f"error: imported rabisim from {rabisim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    sizes = sizes or workloads.FULL
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes,
                                                  work / "inputs")

    setups = []
    for _ in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - t0
        setups.append(import_seconds() + generate_s)

    passes, tracer, missing = measure(workload, work, args.seconds,
                                      bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = failures(workload, passes)
    attempted = sum(len(p.codes) for p in passes)
    for message in failed:
        print(f"FAILED {message}", file=sys.stderr)

    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        metrics = {name: statistics.median(p.layers[name] for p in traced_passes)
                   for name in traced_passes[0].layers}
        metrics["tracing.untraced_wall_s"] = statistics.median(
            p.wall for p in untraced)
        metrics["tracing.overhead_s"] = (metrics["tracing.wall_s"]
                                         - metrics["tracing.untraced_wall_s"])
        units = spans.LAYER_METRICS
        if missing:
            print(f"trace: patch targets not found: {', '.join(missing)}")
        tracer.write(work / "spans.tsv", traced_passes[-1].origin)
    else:
        walls = [p.wall for p in untraced]
        print(f"pass wall: {len(walls)} passes, median "
              f"{statistics.median(walls):.6g} s, slowest {max(walls):.6g} s")
        metrics = {
            "wall_s": sum(walls) / len(walls),
            "cpu_s": sum(p.cpu for p in untraced) / len(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - len(failed)) / attempted,
        }
        units = END_TO_END

    record = run_record(args.workload, args.seed, passes)
    (work / "record.json").write_text(json.dumps({
        "record": record, "metrics": metrics, "setup_s": setups,
        "passes": [{"variant": p.variant, "traced": p.traced,
                    "wall_s": p.wall, "cpu_s": p.cpu}
                   for p in passes],
        "failed": failed}, indent=2) + "\n")
    print("run record: " + json.dumps(record))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
