"""Exception types shared across the package."""

from __future__ import annotations


class LevelSetLabError(Exception):
    """Base class for all package errors."""


class ExpressionError(LevelSetLabError):
    """Base class for expression parsing/evaluation errors."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    """Identifier outside the declared variable/constant/function set."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (byte offset {offset})")
        self.name = name
        self.offset = offset


class ExpressionDomainError(ExpressionError):
    """A function was evaluated outside its real domain (e.g. sqrt of a negative)."""

    def __init__(self, function: str, argument: float):
        super().__init__(f"{function}() evaluated at out-of-domain argument {argument!r}")
        self.function = function
        self.argument = argument


class ValidationFailure(LevelSetLabError):
    """One or more scenario invariants failed; `violations` lists them all."""

    def __init__(self, violations: list):
        self.violations = list(violations)
        lines = "; ".join(v["message"] for v in self.violations)
        super().__init__(f"{len(self.violations)} validation error(s): {lines}")


class SingularMapError(LevelSetLabError):
    """Reference-to-physical map has a (near-)singular Jacobian at the request."""


class AssemblyError(LevelSetLabError):
    """Non-finite metric or coefficient data while assembling the system."""


class NoConvergenceError(LevelSetLabError):
    """Linear solve failed or its residual exceeded the requested tolerance."""

    def __init__(self, iterations: int, residual: float, message: str = ""):
        detail = message or "linear solve did not reach the requested residual"
        super().__init__(f"{detail} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class OutsideDomainError(LevelSetLabError):
    """Requested point lies outside the solved domain."""


class NewtonStallError(LevelSetLabError):
    """Newton refinement of a critical-point seed failed to converge."""


class DegreeAmbiguousError(LevelSetLabError):
    """Gradient winding number was not close enough to an integer."""

    def __init__(self, winding: float):
        super().__init__(f"gradient winding {winding:.4f} is not within 0.05 of an integer")
        self.winding = winding


class RadiusExhaustedError(LevelSetLabError):
    """No admissible circle radius found (neighbour critical point or boundary too close)."""


class BandTooWideError(LevelSetLabError):
    """Level-band width exceeds what the grid resolution can separate."""


class UnstableCountsError(LevelSetLabError):
    """Critical-point counts disagree between the two finest grids."""

    def __init__(self, coarse: list, fine: list):
        self.coarse = coarse
        self.fine = fine
        super().__init__(
            "critical point counts differ between grids: "
            f"coarse={[(p.multiplicity) for p in coarse]} fine={[(p.multiplicity) for p in fine]}"
        )
