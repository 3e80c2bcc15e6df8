"""The lazily exported packages resolve every name they list in ``__all__``."""

import importlib

import pytest

LAZY_PACKAGES = [
    "repro",
    "repro.floorplan",
    "repro.sim",
    "repro.fleet",
    "repro.server",
    "repro.service",
    "repro.milp",
    "repro.obs",
    "repro.relocation",
    "repro.analysis",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert name in listing
        assert hasattr(module, name)
        assert getattr(module, name) is not None


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export


@pytest.mark.parametrize(
    "package, name",
    [("repro.obs", "TraceRing"), ("repro.service", "cache_migration")],
)
def test_retired_names_are_not_exported(package, name):
    module = importlib.import_module(package)
    assert name not in module.__all__
    assert not hasattr(module, name)


def test_from_imports_and_star_import_match_the_submodules():
    from repro import FloorplanSolver, PoissonTraffic, SolverOptions
    from repro.floorplan.solver import FloorplanSolver as solver_class
    from repro.milp import SolverOptions as options_class
    from repro.sim.traffic import PoissonTraffic as traffic_class

    from repro.milp.options import SolverOptions as options_home
    from repro.milp.solver import SolverOptions as solver_options

    assert FloorplanSolver is solver_class
    assert SolverOptions is options_class is options_home is solver_options
    assert PoissonTraffic is traffic_class

    namespace = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
