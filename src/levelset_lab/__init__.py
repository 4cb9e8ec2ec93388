"""Level-set laboratory for planar elliptic Dirichlet problems.

Solves second-order linear elliptic equations with Dirichlet data on
polar-graph annuli and disks, locates interior critical points with
multiplicities (gradient winding numbers), runs level-set component
censuses, and checks the integer counting laws that relate them to
boundary-trace extrema and zeros.  The root exports the entry points that
README's "Library entry points" lists; every other name is imported from
the module that defines it.
"""

from .critical import cluster_critical_sets, find_critical_points, multiplicity
from .domain import load_scenario, validate_scenario
from .render import render_svg
from .solver import convergence_study, solve_scenario
from .topology import boundary_profile, level_census, local_structure, trace_level_lines
from .verify import run_scenario

__version__ = "0.1.0"
