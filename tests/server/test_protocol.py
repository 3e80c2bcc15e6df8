"""Wire-protocol round trips: encode -> decode must be fingerprint-exact."""

import json

import pytest

from repro.device.catalog import synthetic_device, virtex5_fx70t_like
from repro.device.resources import ResourceVector
from repro.floorplan.metrics import ObjectiveWeights
from repro.floorplan.problem import Connection, FloorplanProblem, IOPin, Region
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.server.protocol import (
    ProtocolError,
    device_from_dict,
    job_from_dict,
    job_to_dict,
    problem_from_dict,
)
from repro.service.jobs import SolveJob, device_spec_dict, problem_spec_dict
from tests.server.malformed_bodies import (
    DEVICE_ERRORS,
    NON_INTEGER_VALUES,
    base_payload,
    mutated,
)


def rich_problem():
    device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="proto-dev")
    return FloorplanProblem(
        device,
        [
            Region("A", ResourceVector(CLB=4), max_width=6),
            Region("B", ResourceVector(CLB=2, BRAM=1), max_height=3),
        ],
        [Connection("A", "B", weight=16), Connection("A", "pad", weight=2)],
        [IOPin("pad", 0, 0)],
        name="proto",
    )


def rich_job(**overrides):
    defaults = dict(
        problem=rich_problem(),
        relocation=RelocationSpec.as_metric({"B": 2}, weights={"B": 1.5}),
        mode="HO",
        options=SolverOptions(time_limit=12.5, mip_gap=0.07, backend="highs"),
        heuristic="first-fit",
        weights=ObjectiveWeights(wirelength=0.2, wasted_frames=1.0),
        lexicographic=False,
        tag="wire",
    )
    defaults.update(overrides)
    return SolveJob(**defaults)


class TestDeviceRoundTrip:
    def test_synthetic_device(self):
        device = synthetic_device(12, 5, bram_every=4, dsp_every=9, name="rt-dev")
        again = device_from_dict(device_spec_dict(device))
        assert device_spec_dict(again) == device_spec_dict(device)

    def test_forbidden_cells_survive(self):
        device = virtex5_fx70t_like()  # has a forbidden PPC block
        spec = device_spec_dict(device)
        assert spec["forbidden"], "fixture device should carry forbidden cells"
        again = device_from_dict(spec)
        assert device_spec_dict(again) == spec

    def test_grid_length_mismatch_rejected(self):
        spec = device_spec_dict(synthetic_device(6, 4, name="bad"))
        spec["grid"] = spec["grid"][:-1]
        with pytest.raises(ProtocolError, match="cells"):
            device_from_dict(spec)

    def test_unknown_type_index_rejected(self):
        spec = device_spec_dict(synthetic_device(6, 4, name="bad2"))
        spec["grid"] = [99] * (spec["width"] * spec["height"])
        with pytest.raises(ProtocolError):
            device_from_dict(spec)

    def test_negative_type_index_rejected_not_wrapped(self):
        spec = device_spec_dict(synthetic_device(6, 4, name="bad3"))
        spec["grid"] = [-1] + list(spec["grid"])[1:]
        with pytest.raises(ProtocolError, match="unknown tile-type index"):
            device_from_dict(spec)

    def test_non_numeric_grid_cell_rejected(self):
        spec = device_spec_dict(synthetic_device(6, 4, name="bad4"))
        grid = list(spec["grid"])
        grid[0] = None
        spec["grid"] = grid
        with pytest.raises(ProtocolError, match="tile-type indices"):
            device_from_dict(spec)


class TestJobRoundTrip:
    def test_fingerprint_exact(self):
        job = rich_job()
        again = job_from_dict(job_to_dict(job))
        assert again.fingerprint == job.fingerprint
        assert again.tag == "wire"
        assert again.mode == "HO"
        assert again.options == job.options

    def test_problem_round_trip(self):
        problem = rich_problem()
        again = problem_from_dict(problem_spec_dict(problem))
        assert problem_spec_dict(again) == problem_spec_dict(problem)

    def test_defaults_fill_in(self):
        payload = {"problem": problem_spec_dict(rich_problem())}
        job = job_from_dict(payload)
        assert job.mode == "HO"
        assert job.relocation is None
        assert job.weights is None
        assert not job.lexicographic

    def test_relocation_round_trip_changes_fingerprint(self):
        with_reloc = rich_job()
        without = rich_job(relocation=None)
        assert (
            job_from_dict(job_to_dict(with_reloc)).fingerprint
            != job_from_dict(job_to_dict(without)).fingerprint
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("problem"),
            lambda p: p.__setitem__("mode", "X"),
            lambda p: p["problem"].__setitem__("regions", []),
            lambda p: p["problem"].pop("device"),
            lambda p: p.__setitem__("weights", {"wirelength": -1.0}),
            lambda p: p.__setitem__("relocation", [{"region": "B", "copies": 0}]),
        ],
    )
    def test_malformed_payloads_raise_protocol_error(self, mutate):
        payload = job_to_dict(rich_job())
        mutate(payload)
        with pytest.raises((ProtocolError, ValueError)):
            job_from_dict(payload)

    def test_non_mapping_body_rejected(self):
        with pytest.raises(ProtocolError):
            job_from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "mutate, message", [case[1:] for case in DEVICE_ERRORS], ids=[case[0] for case in DEVICE_ERRORS]
)
def test_malformed_device_messages_are_stable(mutate, message):
    with pytest.raises(ProtocolError) as excinfo:
        job_from_dict(mutated(mutate))
    assert str(excinfo.value) == message


class TestIntegerValues:
    @pytest.mark.parametrize(
        "mutate", [case[1] for case in NON_INTEGER_VALUES], ids=[case[0] for case in NON_INTEGER_VALUES]
    )
    def test_fractional_and_boolean_values_rejected(self, mutate):
        with pytest.raises(ProtocolError):
            job_from_dict(mutated(mutate))

    def test_truncation_cannot_alias_another_problem(self):
        # a fractional requirement and grid cell used to truncate to the
        # integers and share the integral body's fingerprint (and cache entry)
        def mutate(payload):
            payload["problem"]["regions"][0]["requirements"]["CLB"] += 0.9
            payload["problem"]["device"]["grid"][0] += 0.7

        with pytest.raises(ProtocolError):
            job_from_dict(mutated(mutate))

    def test_integral_floats_decode_to_the_same_fingerprint(self):
        ints = base_payload()
        ints["problem"]["device"]["forbidden"] = [3, 4]
        floats = json.loads(json.dumps(ints))
        problem = floats["problem"]
        device = problem["device"]
        for key in ("width", "height"):
            device[key] = float(device[key])
        for key in ("grid", "forbidden"):
            device[key] = [float(cell) for cell in device[key]]
        for entry in device["types"]:
            entry["frames"] = float(entry["frames"])
            entry["resources"] = {k: float(v) for k, v in entry["resources"].items()}
        for region in problem["regions"]:
            region["requirements"] = {k: float(v) for k, v in region["requirements"].items()}
        for pin in problem["pins"]:
            pin["col"], pin["row"] = float(pin["col"]), float(pin["row"])
        floats["relocation"][0]["copies"] = float(floats["relocation"][0]["copies"])
        assert job_from_dict(floats).fingerprint == job_from_dict(ints).fingerprint
