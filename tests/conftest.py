"""Shared fixtures: scenario builders and memoized heavy runs."""

import functools
from pathlib import Path

import pytest
from hypothesis import settings

from levelset_lab import expressions as ex
from levelset_lab.cli import builtin_scenario_dir
from levelset_lab.domain import (
    EllipticOperator,
    ScenarioSpec,
    ToleranceSet,
    load_scenario,
)
from levelset_lab.geometry import BoundaryCurve, DomainSpec
from levelset_lab.solver import solve_scenario
from levelset_lab.verify import run_scenario

# The property tests draw the same examples on every run and keep no
# example database, so a run's outcome depends only on the code; each test
# keeps its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

BUILTIN_NAMES = (
    "counterexample1", "counterexample2", "log_annulus", "z_plus_inv",
    "z2_minus_zm2", "disk_z2", "disk_z3", "band_annulus",
)


def make_scenario(exterior, interior, psi_exterior, psi_interior,
                  grid=(64, 32), name="test", operator=None, tolerances=None,
                  reference=None):
    dom = DomainSpec(
        exterior=BoundaryCurve.from_source(exterior),
        interior=BoundaryCurve.from_source(interior) if interior else None,
    )
    return ScenarioSpec(
        domain=dom,
        operator=operator or EllipticOperator.laplace(),
        psi_exterior=ex.parse_expression(psi_exterior),
        psi_interior=ex.parse_expression(psi_interior) if psi_interior else None,
        grid=grid,
        tolerances=tolerances or ToleranceSet(),
        name=name,
        reference=ex.parse_expression(reference) if reference else None,
    )


@functools.lru_cache(maxsize=None)
def builtin_spec(name: str) -> ScenarioSpec:
    return load_scenario(builtin_scenario_dir() / f"{name}.json")


@functools.lru_cache(maxsize=None)
def builtin_report(name: str):
    """run_scenario on the shipped file (configured grid plus one refinement)."""
    return run_scenario(builtin_spec(name))


@functools.lru_cache(maxsize=None)
def solved_field(name: str, n_theta: int, n_s: int):
    return solve_scenario(builtin_spec(name).with_grid(n_theta, n_s))


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return builtin_scenario_dir()
