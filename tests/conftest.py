"""Shared fixtures: scenario builders and memoized heavy runs."""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from levelset_lab import expressions as ex
from levelset_lab.cli import builtin_scenario_dir
from levelset_lab.domain import (
    EllipticOperator,
    ScenarioSpec,
    ToleranceSet,
    grid_nodes,
    load_scenario,
)
from levelset_lab.geometry import BoundaryCurve, DomainSpec
from levelset_lab.solver import SolutionField, solve_scenario
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


def curve(src: str) -> BoundaryCurve:
    """The boundary curve r = src."""
    return BoundaryCurve(ex.parse_expression(src), src)


def laplace() -> EllipticOperator:
    one, zero = ex.parse_expression("1"), ex.parse_expression("0")
    return EllipticOperator(one, zero, one, zero, zero, zero)


def field_from_function(spec: ScenarioSpec, fn) -> SolutionField:
    """fn(x, y) sampled at the grid nodes, for oracles and synthetic fields;
    on a disk the centre row holds the mean of its samples."""
    T, S = grid_nodes(*spec.grid)
    vals = np.asarray(fn(*spec.domain.map_point(T, S)), dtype=float)
    if spec.domain.is_disk:
        vals[:, 0] = float(np.mean(vals[:, 0]))
    return SolutionField(spec, vals)


def value_at(field: SolutionField, x, y):
    """Interpolated u at physical points; OutsideDomainError when one is outside."""
    return field.evaluate_ref(*field._invert_inside(x, y))


def make_scenario(exterior, interior, psi_exterior, psi_interior,
                  grid=(64, 32), name="test", operator=None, tolerances=None,
                  reference=None):
    dom = DomainSpec(
        exterior=curve(exterior),
        interior=curve(interior) if interior else None,
    )
    return ScenarioSpec(
        domain=dom,
        operator=operator or laplace(),
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
