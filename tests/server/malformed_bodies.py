"""Malformed ``POST /solve`` bodies shared by the protocol, gateway and router tests.

Each case mutates a valid body built by :func:`base_payload`.  The
malformed-device cases carry the exact ``ProtocolError`` message the decoder
gives (and the 400 body's ``error`` repeats); the number cases cover values
that must be integers but arrive fractional or boolean.
"""

from __future__ import annotations

import copy

from repro.device.catalog import synthetic_device
from repro.device.resources import ResourceVector
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.server.protocol import job_to_dict
from repro.service.jobs import SolveJob


def base_payload():
    """A valid 12x5 body with a pin and a relocation request."""
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="malformed-base")
    problem = FloorplanProblem(
        device,
        [Region("A", ResourceVector(CLB=3)), Region("B", ResourceVector(CLB=2, BRAM=1))],
        [Connection("A", "B", weight=4.0), Connection("A", "pad", weight=1.0)],
        [IOPin("pad", 0, 0)],
        name="malformed-base",
    )
    job = SolveJob(
        problem,
        relocation=RelocationSpec.as_constraint({"B": 1}),
        options=SolverOptions(time_limit=5.0),
    )
    return job_to_dict(job)


def mutated(mutate):
    payload = copy.deepcopy(base_payload())
    mutate(payload)
    return payload


def _device(payload):
    return payload["problem"]["device"]


def _set(path, value):
    """Mutation that sets ``payload[path[0]][path[1]]... = value``."""

    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _clashing_type(payload):
    device = _device(payload)
    clash = dict(device["types"][0], frames=99)
    device["types"].append(clash)
    device["grid"][-1] = len(device["types"]) - 1


#: (id, mutation, exact error message) for every malformed-device 400.
DEVICE_ERRORS = [
    (
        "grid-length",
        lambda p: _device(p)["grid"].pop(),
        "device grid has 59 cells, expected 12x5=60",
    ),
    (
        "negative-index",
        _set(("problem", "device", "grid", 0), -1),
        "device grid references an unknown tile-type index",
    ),
    (
        "index-out-of-range",
        _set(("problem", "device", "grid", 7), 99),
        "device grid references an unknown tile-type index",
    ),
    (
        "non-numeric-cell",
        _set(("problem", "device", "grid", 3), None),
        "device grid cells must be tile-type indices",
    ),
    (
        "string-cell",
        _set(("problem", "device", "grid", 3), "x"),
        "device grid cells must be tile-type indices",
    ),
    (
        "forbidden-outside",
        _set(("problem", "device", "forbidden"), [4, 60]),
        "forbidden cell 60 outside the 12x5 grid",
    ),
    (
        "forbidden-negative",
        _set(("problem", "device", "forbidden"), [-1]),
        "forbidden cell -1 outside the 12x5 grid",
    ),
    (
        "same-name-different-content",
        _clashing_type,
        "invalid device: tile type 'CLB' already registered with different content",
    ),
]


def _grid_plus(delta):
    def mutate(payload):
        grid = _device(payload)["grid"]
        grid[5] = grid[5] + delta

    return mutate


#: (id, mutation) for values that must be integers but are not.
NON_INTEGER_VALUES = [
    ("requirement-fraction", _set(("problem", "regions", 0, "requirements", "CLB"), 2.9)),
    ("requirement-bool", _set(("problem", "regions", 0, "requirements", "CLB"), True)),
    ("grid-fraction", _grid_plus(0.7)),
    ("grid-bool", _set(("problem", "device", "grid", 0), True)),
    ("grid-nan", _set(("problem", "device", "grid", 0), float("nan"))),
    ("grid-inf", _set(("problem", "device", "grid", 0), float("inf"))),
    ("forbidden-fraction", _set(("problem", "device", "forbidden"), [3.5])),
    ("forbidden-bool", _set(("problem", "device", "forbidden"), [False])),
    ("frames-fraction", _set(("problem", "device", "types", 0, "frames"), 36.5)),
    ("frames-bool", _set(("problem", "device", "types", 0, "frames"), True)),
    ("resources-fraction", _set(("problem", "device", "types", 0, "resources", "CLB"), 1.5)),
    ("width-fraction", _set(("problem", "device", "width"), 12.5)),
    ("height-bool", _set(("problem", "device", "height"), True)),
    ("pin-col-fraction", _set(("problem", "pins", 0, "col"), 0.5)),
    ("pin-row-bool", _set(("problem", "pins", 0, "row"), False)),
    ("pin-row-string", _set(("problem", "pins", 0, "row"), "0")),
    ("copies-fraction", _set(("relocation", 0, "copies"), 1.5)),
    ("copies-bool", _set(("relocation", 0, "copies"), True)),
]
