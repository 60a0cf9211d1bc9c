"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=workloads.TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})


def test_tampered_output_counts_as_failure(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    fit = workloads.Fit(5, workloads.TINY, inputs)
    fit.generate()
    passes = [run.run_pass(fit, tmp_path / f"pass{k}") for k in range(2)]
    assert run.failures(fit, passes) == []

    def tamper(k):
        report = passes[k].out / "fit_0" / "fit_trace.json"
        payload = json.loads(report.read_text())
        payload["omega_max_rad_s"] *= 1.05
        report.write_text(json.dumps(payload))

    tamper(1)  # differs from the checked first pass
    assert len(run.failures(fit, passes)) == 1
    tamper(0)  # fails the 2 % recovery check, which every pass inherits
    assert len(run.failures(fit, passes)) == 2


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_generated_inputs(tmp_path, name):
    def generate(seed, directory):
        directory.mkdir()
        workloads.WORKLOADS[name](seed, workloads.TINY, directory).generate()
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    first = generate(1, tmp_path / "a")
    assert generate(1, tmp_path / "b") == first
    assert generate(2, tmp_path / "c") != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
