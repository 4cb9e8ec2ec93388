"""Level-set laboratory for planar elliptic Dirichlet problems.

Solves second-order linear elliptic equations with Dirichlet data on
polar-graph annuli and disks, locates interior critical points with
multiplicities (gradient winding numbers), runs level-set component
censuses, and checks the integer counting laws that relate them to
boundary-trace extrema and zeros.
"""

from .critical import (
    CriticalPoint,
    cluster_critical_sets,
    find_critical_points,
    find_critical_points_report,
    multiplicity,
    resolve_tolerances,
)
from .domain import (
    EllipticOperator,
    ScenarioSpec,
    ToleranceSet,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from .expressions import parse_expression
from .geometry import BoundaryCurve, DomainSpec
from .render import render_svg
from .solver import (
    DiscreteSystem,
    SolutionField,
    assemble,
    convergence_study,
    solve,
    solve_scenario,
)
from .topology import (
    BoundaryProfile,
    LevelSetCensus,
    boundary_profile,
    check_component_contact,
    level_census,
    local_structure,
    trace_level_lines,
)
from .verify import (
    TheoremVerdict,
    VerificationReport,
    check_counting_identities,
    check_theorem_1_1,
    check_theorem_1_2,
    check_theorem_1_3,
    check_theorem_1_4,
    check_remark_5_1,
    run_scenario,
)

__version__ = "0.1.0"
