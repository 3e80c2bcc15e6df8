"""What the capacity CLI loads, and the reports it writes.

The CLI runs only the simulator and capacity layers, so it must not import
the solver or serving stack, nor the runtime and bitstream layers the
single-device engine drives.  Its JSON reports must hash to the digests the
end-to-end benchmark stores for its scenario seeds.
"""

import collections
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.capacity.__main__ import main as capacity_main
from repro.sim.faults import RandomFaults

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
HEAVY = tuple(
    f"{name}."
    for name in (
        "scipy", "repro.milp", "repro.server", "repro.service", "repro.runtime", "repro.bitstream",
    )
)


def test_cli_imports_no_solver_or_serving_stack():
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.capacity.__main__; print(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src")),
    ).stdout.split()
    assert [name for name in loaded if f"{name}.".startswith(HEAVY)] == []


@pytest.fixture()
def benchmark_args(monkeypatch):
    """``ARGS`` of ``perfbench/capacity.py``, the planned benchmark scenario."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("capacity", PERFBENCH / "capacity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ARGS


@pytest.mark.parametrize("scenario_seed", [0, 5, 11])
def test_report_matches_the_stored_benchmark_digest(
    benchmark_args, scenario_seed, tmp_path
):
    stored = json.loads((PERFBENCH / "capacity_digests.json").read_text())
    assert stored["args"] == benchmark_args
    report = tmp_path / "plan.json"
    argv = [*benchmark_args, "--seed", str(scenario_seed), "--json", str(report), "--quiet"]
    assert capacity_main(argv) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == stored["digests"][str(scenario_seed)]


def test_cli_draws_each_device_fault_plan_once(benchmark_args, monkeypatch, tmp_path):
    """The multiplier-1.0 plan and the sweep's curve share one set of fault
    draws, so no device's faults are drawn twice (at seed 3 this was 48
    draws for 32 devices when the curve re-drew the plan's)."""
    draws = collections.Counter()
    events = RandomFaults.events

    def counted(plan, horizon):
        draws[plan.seed] += 1
        return events(plan, horizon)

    monkeypatch.setattr(RandomFaults, "events", counted)
    argv = [*benchmark_args, "--seed", "3", "--json", str(tmp_path / "plan.json"), "--quiet"]
    assert capacity_main(argv) == 0
    assert len(draws) == 32
    assert set(draws.values()) == {1}
