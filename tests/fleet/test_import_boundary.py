"""What the fleet's router and a replica gateway load at start-up.

``python -m repro.fleet`` spawns its replicas first and imports the router
while they boot, so the router's import is on the fleet's start-up path.  It
routes by job fingerprint and forwards bytes; it must not load scipy or any
MILP, executor, runtime or bitstream module.  A replica gateway solves, so it
loads the MILP stack, but not the runtime and bitstream layers or the trace
capture tools.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

ROUTER_HEAVY = (
    "scipy",
    "repro.milp.model",
    "repro.floorplan.milp_builder",
    "repro.service.executor",
    "repro.runtime",
    "repro.bitstream",
)
GATEWAY_HEAVY = ("repro.runtime", "repro.bitstream", "repro.obs.capture")


def loaded_modules(*modules):
    """Every module name in ``sys.modules`` after a fresh interpreter imports
    ``modules``."""
    statement = f"import sys, {', '.join(modules)}; print(*sys.modules)"
    return subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout.split()


def within(loaded, packages):
    prefixes = tuple(f"{name}." for name in packages)
    return [name for name in loaded if f"{name}.".startswith(prefixes)]


def test_router_loads_no_solver_stack():
    loaded = loaded_modules("repro.fleet.__main__", "repro.fleet.router")
    assert "repro.fleet.router" in loaded
    assert within(loaded, ROUTER_HEAVY) == []


def test_gateway_loads_no_runtime_bitstream_or_capture_modules():
    loaded = loaded_modules("repro.server.__main__")
    assert "scipy" in loaded  # the replica does solve
    assert within(loaded, GATEWAY_HEAVY) == []


def test_fleet_entry_point_defers_the_router_import():
    loaded = loaded_modules("repro.fleet.__main__")
    assert "repro.fleet.manager" in loaded
    assert "repro.fleet.router" not in loaded
