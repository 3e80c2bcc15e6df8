"""The ``capacity_plan`` workload: ``python -m repro.capacity`` as a CLI.

Each invocation runs a seeded ``plan_min_devices`` search plus a ``--sweep``
capacity curve with per-device faults on.  Only the simulator and capacity
layers run; no serving code does.  A report is correct when its JSON bytes
hash to the digest stored in ``capacity_digests.json`` for its scenario seed
(the digests were recorded at the commit that added this benchmark).

Every run plans each stored scenario seed, in an order the workload seed
picks, so every invocation has a stored digest to match.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import Stopwatch, cpu_ticks, percentile, steal_share

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "capacity_digests.json"

#: The planned scenario; ``--seed`` is appended per invocation.
ARGS = [
    "--rate", "60", "--horizon", "10", "--seconds-per-frame", "0.001",
    "--p99", "0.5", "--fault-rate", "0.05", "--repair-time", "2",
    "--sweep", "0.5,1.0,1.5",
]
SCENARIO_SEEDS = list(range(12))
#: CLI start-ups per run; ``setup_s`` is their median.  One start-up is about
#: 0.7 s and spreads by 20 % from one to the next, more than a fleet set-up.
SETUPS = 5
#: Seconds one pass over every scenario seed takes on a 2-core x86 VM.  A
#: run makes round(seconds / this) whole passes (at least one), so every run
#: plans the same scenarios; their costs differ by up to 20 %.
PASS_S = 13.0


def _env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def plan_once(root: Path, work: Path, scenario_seed: int) -> tuple:
    """One CLI invocation; returns (its stopped Stopwatch, sha256 of the JSON report)."""
    report = work / "plan.json"
    clock = Stopwatch()
    completed = subprocess.run(
        [sys.executable, "-m", "repro.capacity", *ARGS, "--seed", str(scenario_seed),
         "--json", str(report), "--quiet"],
        env=_env(root), cwd=str(root), timeout=120,
    )
    clock.stop()
    if completed.returncode != 0:
        return clock, None
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    report.unlink()
    return clock, digest


def setup_once(root: Path) -> float:
    """The CLI's start-up cost: interpreter, imports and argument parsing."""
    clock = Stopwatch()
    subprocess.run(
        [sys.executable, "-m", "repro.capacity", "--help"],
        env=_env(root), cwd=str(root), stdout=subprocess.DEVNULL, check=True, timeout=60,
    )
    return clock.stop()


def run_capacity(seed: int, seconds: float, root: Path, work: Path) -> dict:
    stored = json.loads(DIGESTS.read_text())
    if stored["args"] != ARGS:
        raise RuntimeError("capacity_digests.json was recorded for other arguments")
    setup_times = [setup_once(root) for _ in range(SETUPS)]
    order = list(SCENARIO_SEEDS)
    random.Random(seed).shuffle(order)
    clocks: List[Stopwatch] = []
    verified = 0
    ticks = cpu_ticks()
    started = time.perf_counter()
    for scenario_seed in order * max(1, round(seconds / PASS_S)):
        clock, digest = plan_once(root, work, scenario_seed)
        clocks.append(clock)
        verified += digest == stored["digests"][str(scenario_seed)]
    elapsed = time.perf_counter() - started
    steal = steal_share(ticks, cpu_ticks())
    walls = [clock.raw for clock in clocks]
    latencies = [w * 1e3 for w in walls]
    return {
        "attempted": len(walls),
        "failed": len(walls) - verified,
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": percentile([c.seconds() * 1e3 for c in clocks], 50),
            "verified_share": verified / len(walls),
            "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        },
        "throughput_rps": verified / elapsed,
        "plan_s": statistics.median(walls),
        "latency_p90_ms": percentile(latencies, 90),
        "latency_p99_ms": percentile(latencies, 99),
        "steal_share": steal,
        "stolen_busy_share": statistics.median(c.stolen for c in clocks),
    }


def record_digests(root: Path, work: Path) -> None:
    """Re-record ``capacity_digests.json`` (only when :data:`ARGS` change).

    ``PYTHONPATH=src python3 perfbench/capacity.py`` runs it.
    """
    digests = {}
    for scenario_seed in SCENARIO_SEEDS:
        _clock, digest = plan_once(root, work, scenario_seed)
        if digest is None:
            raise RuntimeError(f"scenario seed {scenario_seed} did not plan")
        digests[str(scenario_seed)] = digest
    DIGESTS.write_text(json.dumps({"args": ARGS, "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    import shutil

    checkout = HERE.parent
    scratch = checkout / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    try:
        record_digests(checkout, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
