"""Table I and Figures 1-3: inputs, compatibility, partitioning, offsets.

Run with ``pytest benchmarks/bench_table1_and_figures.py --benchmark-only -s``
to also see the regenerated table/figure text.
"""

from __future__ import annotations

from repro.analysis import format_table, render_partition
from repro.analysis.render import render_rect_overlay
from repro.analysis.report import TABLE1_HEADERS, table1_rows
from repro.device import columnar_partition, simple_two_type_device
from repro.device.catalog import figure2_device
from repro.floorplan import Rect
from repro.relocation import areas_compatible
from repro.workloads.sdr import SDR_FRAMES


# ----------------------------------------------------------------------
# Table I — SDR resource requirements
# ----------------------------------------------------------------------
def test_table1_sdr_requirements(benchmark, sdr):
    rows = benchmark(table1_rows, sdr)
    print("\n" + format_table(TABLE1_HEADERS, rows, title="Table I (regenerated)"))
    by_region = {row[0]: row for row in rows}
    for region, frames in SDR_FRAMES.items():
        assert by_region[region][4] == frames, f"frame count mismatch for {region}"
    assert by_region["Total"] == ["Total", 104, 5, 11, 4202]


# ----------------------------------------------------------------------
# Figure 1 — compatible vs non-compatible areas
# ----------------------------------------------------------------------
def test_fig1_compatibility_example(benchmark):
    device = simple_two_type_device()
    partition = columnar_partition(device)
    # three equally-sized areas: A/B share the tile layout, C is shifted by one
    area_a = Rect(3, 0, 3, 2)
    area_b = Rect(8, 3, 3, 2)
    area_c = Rect(4, 2, 3, 2)

    def check():
        return (
            areas_compatible(partition, area_a, area_b),
            areas_compatible(partition, area_a, area_c),
        )

    compatible_ab, compatible_ac = benchmark(check)
    print("\nFigure 1 (regenerated): A/B compatible =", compatible_ab,
          ", A/C compatible =", compatible_ac)
    print(render_rect_overlay(device, {"A": area_a, "B": area_b, "C": area_c}))
    assert compatible_ab is True
    assert compatible_ac is False


# ----------------------------------------------------------------------
# Figure 2 — columnar partitioning with a hard processor block
# ----------------------------------------------------------------------
def test_fig2_columnar_partitioning(benchmark):
    device = figure2_device()
    partition = benchmark(columnar_partition, device)
    print("\nFigure 2 (regenerated):")
    print(render_partition(partition))
    assert partition.num_portions == 5
    assert len(partition.forbidden_areas) == 1
    partition.check_properties()


def test_fig2_partitioning_scales_to_sdr_device(benchmark, sdr):
    partition = benchmark(columnar_partition, sdr.device)
    assert partition.num_portions >= 9
    assert partition.num_types == 3


# ----------------------------------------------------------------------
# Figure 3 — offset variables k[n,p] / o[n,p]
# ----------------------------------------------------------------------
def test_fig3_offset_variables(benchmark):
    from repro.device.catalog import synthetic_device
    from repro.device.resources import ResourceVector
    from repro.floorplan.milp_builder import build_floorplan_milp
    from repro.floorplan.problem import FloorplanProblem, Region
    from repro.milp import SolverOptions, solve
    from repro.relocation.constraints import apply_relocation_constraints
    from repro.relocation.spec import RelocationSpec

    device = synthetic_device(10, 4, bram_every=4, dsp_every=7, name="fig3")
    problem = FloorplanProblem(
        device, [Region("R", ResourceVector(CLB=2, BRAM=1))], name="fig3"
    )
    spec = RelocationSpec.as_constraint({"R": 1})

    def build_and_solve():
        milp = build_floorplan_milp(problem, extra_areas=spec.build_area_specs(problem))
        apply_relocation_constraints(milp)
        milp.set_objective()
        solution = solve(milp.model, SolverOptions(time_limit=30))
        return milp, solution

    milp, solution = benchmark(build_and_solve)
    assert solution.status.has_solution

    # k[n,p] and o[n,p] are implicit in the candidate model: read them off the
    # selected rectangle's columns
    rect = milp.extract(solution).placements["R"].rect
    partition = milp.partition
    covered = {partition.portion_of_column(c).index for c in range(rect.col, rect.col_end + 1)}
    k_values = [int(p in covered) for p in range(partition.num_portions)]
    first = partition.portion_of_column(rect.col).index
    o_values = [int(p == first) for p in range(partition.num_portions)]
    print("\nFigure 3 (regenerated): k[n,p] and o[n,p] for region 'R'")
    print("  k[R,p] =", k_values)
    print("  o[R,p] =", o_values)
    # eq. 4: exactly one offset; eq. 5: it marks the first covered portion
    assert sum(o_values) == 1
    first_covered = k_values.index(1)
    assert o_values[first_covered] == 1
