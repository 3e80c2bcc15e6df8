"""Pinned job fingerprints.

The solve cache is content-addressed by :attr:`SolveJob.fingerprint`, so a
fingerprint that moves silently orphans every on-disk cache entry.  These
digests were computed before the device decode and the canonical encoding
were vectorized; each job must still hash to them after a wire round trip
(``job_to_dict`` -> JSON -> ``job_from_dict``).
"""

import json

import pytest

from repro.device.catalog import synthetic_device, virtex5_fx70t_like
from repro.milp import SolverOptions
from repro.relocation.spec import RelocationSpec
from repro.server.protocol import job_from_dict, job_to_dict
from repro.service.jobs import SolveJob
from repro.workloads.sdr import sdr_problem
from repro.workloads.synthetic import SyntheticWorkloadConfig, synthetic_problem


def _synthetic(width, height, regions, utilization, seed):
    config = SyntheticWorkloadConfig(num_regions=regions, utilization=utilization, seed=seed)
    return synthetic_problem(synthetic_device(width, height), config)


def _miss_job(problem, relocation=None):
    return SolveJob(
        problem,
        relocation=RelocationSpec.as_constraint(relocation) if relocation else None,
        mode="HO",
        options=SolverOptions(time_limit=30.0),
    )


def hand_built_body():
    """A wire body the canonical encoder would never emit.

    Its type list carries an unused type, the same CLB type at two list
    positions and a CLB-content type under another name; the grid references
    them out of list order and the device has forbidden cells.
    """
    clb = {"name": "CLB", "frames": 36, "resources": {"CLB": 1}}
    types = [
        {"name": "URAM", "frames": 40, "resources": {"CLB": 2}},  # unused
        clb,
        {"name": "BRAM", "frames": 30, "resources": {"BRAM": 1}},
        dict(clb),
        {"name": "CLBX", "frames": 36, "resources": {"CLB": 1}},
    ]
    columns = [[2] * 4, [1, 3, 3, 1], [4, 4, 1, 1], [3] * 4, [2, 1, 3, 4], [1] * 4]
    return {
        "problem": {
            "name": "hand",
            "device": {
                "name": "hand-dev",
                "width": 6,
                "height": 4,
                "types": types,
                "grid": [cell for column in columns for cell in column],
                "forbidden": [5, 6, 9, 10],
            },
            "regions": [
                {"name": "A", "requirements": {"CLB": 3}, "max_width": 3},
                {"name": "B", "requirements": {"CLB": 1, "BRAM": 1}},
            ],
            "connections": [
                {"source": "A", "target": "B", "weight": 3},
                {"source": "pad", "target": "A", "weight": 1.5},
            ],
            "pins": [{"name": "pad", "col": 5, "row": 0}],
        },
        "relocation": [{"region": "B", "copies": 1, "hard": False, "weight": 2.0}],
        "mode": "O",
        "options": {"time_limit": 5, "mip_gap": 0.0},
    }


def golden_jobs():
    return {
        "sdr": SolveJob(sdr_problem()),
        "syn16x8": _miss_job(_synthetic(16, 8, 2, 0.8, 0)),
        "syn12x5": _miss_job(_synthetic(12, 5, 4, 0.5, 0)),
        "syn12x5-reloc": _miss_job(_synthetic(12, 5, 3, 0.2, 0), relocation={"R0": 1}),
        "syn24x8": _miss_job(_synthetic(24, 8, 2, 0.7, 1)),
        "v5-2r": SolveJob(
            synthetic_problem(
                virtex5_fx70t_like(),
                SyntheticWorkloadConfig(num_regions=2, utilization=0.05, seed=2),
            ),
            options=SolverOptions(time_limit=30.0, mip_gap=0.1),
        ),
        "hand-built": job_from_dict(hand_built_body()),
    }


GOLDEN = {
    "sdr": "6fe6e85b1612b96bdcc5c8865943883b5d41f17fd6f6cdc263488811c0b27eba",
    "syn16x8": "2f1eb3fd99dbff34645b5c637b697d037a25e44c49252cd654285087cf5da11f",
    "syn12x5": "c8ea5e8c48a9c1db339f898e9134339b3a7a24a23e85056caa334db2246630fe",
    "syn12x5-reloc": "72f0d4e6f22384a691f7a9cdca7ae79b2d6108b49ef79c47fd0f939eea82480c",
    "syn24x8": "11868ca448e74bd2540308e9ffb26e5175f473a7c5050e0583e4f3d488eb2f21",
    "v5-2r": "82d9bff050e674f590e3dcb713bb4913a09dcae5f4ba782bbe0c8434032f3152",
    "hand-built": "cacc8e5665df8c27217ee8c35b0f82b9d0c4a4821d717f43214587e29e7c7e6d",
}


@pytest.fixture(scope="module")
def jobs():
    return golden_jobs()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_is_pinned(jobs, name):
    assert jobs[name].fingerprint == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_round_trip_keeps_the_pinned_fingerprint(jobs, name):
    wire = json.loads(json.dumps(job_to_dict(jobs[name])))
    assert job_from_dict(wire).fingerprint == GOLDEN[name]
