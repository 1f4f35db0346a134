"""Shared exception types."""


class StructuralError(ValueError):
    """A cylinder table is malformed (missing or ill-formed entries)."""


class InfeasibleSpecError(ValueError):
    """A zero-block frequency spec fails the feasibility conditions."""

    def __init__(self, report):
        super().__init__(report.describe())
        self.report = report


class ConstraintError(ValueError):
    """A constraint set is malformed or the solver fails on a feasible spec."""
