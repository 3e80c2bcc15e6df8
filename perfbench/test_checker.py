"""Tests of the independent floorplan checker.

    PYTHONPATH=src python -m pytest perfbench/test_checker.py -q

One seeded ``miss_stream`` run goes through a real fleet; every answer must
pass the checker, and one mutated answer per defect must be rejected.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checker import DeviceView, check_answer  # noqa: E402
from serving import run_serving  # noqa: E402


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """(template, request body, response) of every answer of a seeded run."""
    run = run_serving("miss_stream", 7, 0.0, HERE.parent, tmp_path_factory.mktemp("work"))
    assert len(run.samples) == 2 * run.generator.cycle_length
    return [(s.request.template, s.request.body, json.loads(s.payload)) for s in run.samples]


def _mutated(answers, template):
    body, response = next((b, r) for t, b, r in answers if t == template)
    return body, copy.deepcopy(response)


def _assert_rejected(body, response, fragment):
    violations = check_answer(body, response)
    assert any(fragment in v for v in violations), violations


def test_every_answer_of_a_seeded_miss_stream_run_is_accepted(answers):
    for template, body, response in answers:
        assert response["result"]["floorplan"]["placements"], template
        assert check_answer(body, response) == [], template


def test_rectangle_outside_the_device_is_rejected(answers):
    body, response = _mutated(answers, "syn12x5")
    name, placement = next(iter(response["result"]["floorplan"]["placements"].items()))
    placement["col"] = body["problem"]["device"]["width"] - placement["width"] + 1
    _assert_rejected(body, response, "leaves the")


def test_overlapping_regions_are_rejected(answers):
    body, response = _mutated(answers, "syn12x5")
    placements = list(response["result"]["floorplan"]["placements"].values())
    placements[1].update(col=placements[0]["col"], row=placements[0]["row"])
    _assert_rejected(body, response, "overlap")


def test_covering_a_forbidden_tile_is_rejected(answers):
    body, response = _mutated(answers, "sdr")
    device = DeviceView(body["problem"]["device"])
    col, row = divmod(min(device.forbidden), device.height)
    placement = response["result"]["floorplan"]["placements"]["Carrier Recovery"]
    placement.update(col=min(col, device.width - placement["width"]),
                     row=min(row, device.height - placement["height"]))
    _assert_rejected(body, response, "forbidden")


def test_missing_resources_are_rejected(answers):
    body, response = _mutated(answers, "sdr")
    placement = response["result"]["floorplan"]["placements"]["Video Decoder"]
    placement.update(width=1, height=1)
    _assert_rejected(body, response, "needs")


def test_free_area_with_another_column_pattern_is_rejected(answers):
    body, response = _mutated(answers, "syn12x5-reloc")
    floorplan = response["result"]["floorplan"]
    name, area = next(iter(floorplan["free_areas"].items()))
    source = floorplan["placements"][area["compatible_with"]]
    device = DeviceView(body["problem"]["device"])
    pattern = [device.type_at(source["col"] + dc, 0) for dc in range(source["width"])]
    for col in range(device.width - area["width"] + 1):
        if [device.type_at(col + dc, 0) for dc in range(area["width"])] != pattern:
            area["col"] = col
            break
    else:
        pytest.skip("every column window of this device has the same pattern")
    violations = check_answer(body, response)
    assert any("column pattern" in v for v in violations), violations


def test_misreported_wasted_frames_are_rejected(answers):
    body, response = _mutated(answers, "sdr")
    response["result"]["metrics"]["wasted_frames"] += 36
    _assert_rejected(body, response, "wasted_frames")


def test_unsatisfied_hard_relocation_is_rejected(answers):
    body, response = _mutated(answers, "syn12x5-reloc")
    response["result"]["floorplan"]["free_areas"] = {}
    _assert_rejected(body, response, "free areas, needs")
